"""tools/code_lines.py, the code-line counter that the BENCH_*.json files
use for the size of src/roomwave."""

import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

MODULE = '''"""Module docstring,
over two lines."""

# a comment line
import math


def area(r):
    """Function docstring."""
    # another comment
    return math.pi * r ** 2   # a trailing comment


TEXT = """first line

third line"""


class Shape:
    """Class docstring,

    with a blank line inside."""

    sides = (3,
             4)
'''
# code lines: import, def, return, TEXT's two non-blank lines, class, the
# two lines of `sides`
EXPECTED = 8


def test_counts_a_synthetic_module(tmp_path):
    """Docstrings, comment-only lines and blank lines are left out, also a
    blank line inside a multi-line string; every other line of the string
    and of a bracketed expression counts."""
    module = tmp_path / "shapes.py"
    module.write_text(MODULE, encoding="utf-8")
    (tmp_path / "empty.py").write_text("# nothing but a comment\n\n",
                                       encoding="utf-8")
    done = subprocess.run([sys.executable, str(TOOL), str(tmp_path)],
                          capture_output=True, text=True, check=True,
                          timeout=60)
    assert done.stdout.splitlines() == [
        f"{0:6d} {tmp_path / 'empty.py'}",
        f"{EXPECTED:6d} {module}",
        f"{EXPECTED:6d} total"]


@pytest.mark.parametrize("name", ["missing.py", "missing", "--help"])
def test_a_path_that_is_not_there_exits_2(tmp_path, name):
    """A missing file or directory, or an option the tool does not take,
    ends with one line naming it on stderr, exit status 2 and nothing
    counted on stdout, even after a path that exists."""
    (tmp_path / "present.py").write_text("x = 1\n", encoding="utf-8")
    missing = name if name.startswith("-") else str(tmp_path / name)
    done = subprocess.run([sys.executable, str(TOOL), str(tmp_path), missing],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.splitlines() == [
        f"code_lines.py: no such file or directory: {missing}"]
