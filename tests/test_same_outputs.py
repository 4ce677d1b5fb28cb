"""tools/same_outputs.py, the identity check of two source trees' aggregate
CSVs (byte for byte), runs CSVs (apart from `seconds`) and simulate files
(byte for byte)."""

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


def altered_copy(tmp_path, module_name, line, replacement):
    """A copy of src/roomwave under tmp_path with `line` of one module
    replaced."""
    source = tmp_path / "src" / "roomwave"
    shutil.copytree(ROOT / "src" / "roomwave", source,
                    ignore=shutil.ignore_patterns("__pycache__"))
    module = source / module_name
    text = module.read_text(encoding="utf-8")
    assert line in text
    module.write_text(text.replace(line, replacement), encoding="utf-8")
    return tmp_path


def test_a_tree_against_itself_is_the_same():
    """Two runs of one tree time their fits differently; the runs CSVs
    match apart from `seconds`."""
    done = same_outputs(ROOT, ROOT, TINY, 0)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "seed 0: same (2 aggregate CSVs, 2 runs CSVs, 3 simulate files)"]


def test_a_changed_decibel_scale_differs(tmp_path):
    """A copy whose `to_db` scale is altered writes other aggregate bytes
    and other `nmse_db` columns."""
    line = "return 10.0 * float(np.log10(value))"
    copy = altered_copy(tmp_path, "experiments.py", line,
                        line.replace("10.0", "20.0"))
    done = same_outputs(ROOT, copy, TINY, 0)
    assert done.returncode == 1, done.stderr
    assert done.stdout.splitlines() == [
        "seed 0: DIFFERS: boundary_count_aggregate.csv, "
        "boundary_count_runs.csv, mic_perturbation_aggregate.csv, "
        "mic_perturbation_runs.csv"]


def test_a_changed_run_column_differs(tmp_path):
    """A copy that numbers its runs from 1 writes the same aggregate CSVs;
    its runs CSVs differ."""
    line = "_fmt(result.value), run,"
    copy = altered_copy(tmp_path, "fileio.py", line,
                        "_fmt(result.value), run + 1,")
    done = same_outputs(ROOT, copy, TINY, 0)
    assert done.returncode == 1, done.stderr
    assert done.stdout.splitlines() == [
        "seed 0: DIFFERS: boundary_count_runs.csv, "
        "mic_perturbation_runs.csv"]


def test_a_changed_snapshot_header_differs(tmp_path):
    """A copy whose snapshot file records seed + 1 writes the same CSVs;
    its snapshot.txt differs."""
    line = 'f"seed {int(snapshot.seed)}",'
    copy = altered_copy(tmp_path, "fileio.py", line,
                        'f"seed {int(snapshot.seed) + 1}",')
    done = same_outputs(ROOT, copy, TINY, 0)
    assert done.returncode == 1, done.stderr
    assert done.stdout.splitlines() == ["seed 0: DIFFERS: snapshot.txt"]


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
