"""tools/same_outputs.py, the byte-identity check of two source trees'
aggregate CSVs."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "same_outputs.py"
TINY = ROOT / "perfbench" / "tests" / "tiny.yaml"


def same_outputs(*args):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                          capture_output=True, text=True, timeout=300)


def test_a_tree_against_itself_is_the_same():
    done = same_outputs(ROOT, ROOT, TINY, 0)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["seed 0: same (2 aggregate CSVs)"]


def test_a_changed_decibel_scale_differs(tmp_path):
    """A copy whose `to_db` scale is altered writes other aggregate bytes."""
    source = tmp_path / "src" / "roomwave"
    shutil.copytree(ROOT / "src" / "roomwave", source,
                    ignore=shutil.ignore_patterns("__pycache__"))
    module = source / "experiments.py"
    text = module.read_text(encoding="utf-8")
    line = "return 10.0 * float(np.log10(value))"
    assert line in text
    module.write_text(text.replace(line, line.replace("10.0", "20.0")),
                      encoding="utf-8")
    done = same_outputs(ROOT, tmp_path, TINY, 0)
    assert done.returncode == 1, done.stderr
    assert done.stdout.splitlines() == [
        "seed 0: DIFFERS: boundary_count_aggregate.csv, "
        "mic_perturbation_aggregate.csv"]


@pytest.mark.parametrize("args", [
    [ROOT, ROOT, TINY],                     # no seed
    [ROOT, ROOT / "missing", TINY, 0],      # a root without src/roomwave
    [ROOT, ROOT, ROOT / "missing.yaml", 0],
    [ROOT, ROOT, TINY, -1],
    [ROOT, ROOT, TINY, 0, "x"]])
def test_usage_errors_exit_2_before_running(args):
    done = same_outputs(*args)
    assert done.returncode == 2
    assert done.stdout == ""
    assert len(done.stderr.splitlines()) == 1
