"""Count code lines: non-blank lines outside comments and docstrings.

    python tools/code_lines.py [FILE_OR_DIRECTORY ...]

With no argument it counts `src/roomwave/*.py` under the repository root.
A directory stands for its `*.py` files. Prints one `count path` line per
file and a `count total` line.

A line counts when a token other than a comment starts on it or runs over
it and the line is not blank, so each non-blank line of a multi-line string
or expression counts. Docstrings, the string statements that open a module,
class or function, do not count, and neither do lines that hold only a
comment.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "roomwave"
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers that the docstrings of `tree` cover."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Non-blank lines of `source` outside comments and docstrings."""
    text = source.splitlines()
    covered = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIPPED:
            covered.update(range(token.start[0], token.end[0] + 1))
    covered -= docstring_lines(ast.parse(source))
    return sum(1 for line in covered if text[line - 1].strip())


def python_files(paths: list[str]) -> list[Path]:
    files = []
    for path in map(Path, paths or [SOURCE]):
        files += sorted(path.glob("*.py")) if path.is_dir() else [path]
    return files


def main(argv: list[str]) -> int:
    total = 0
    for path in python_files(argv):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
