"""tools/sim_calls.py, the per-call timer of simulator.field_at_points."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "sim_calls.py"


def sim_calls(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(TOOL), *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_prints_one_line_per_frequency():
    done = sim_calls("--calls", "1", "2")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 2
    for line, frequency in zip(lines, ("300", "800")):
        assert re.fullmatch(
            rf"order 2, {frequency} Hz: \d+\.\d{{3}} ms median of 1 calls, "
            r"tracemalloc peak \d+\.\d{3} MB", line), line


def test_bad_order_exits_2():
    done = sim_calls("-3")
    assert done.returncode == 2
    assert done.stdout == ""
    assert "ORDER" in done.stderr
