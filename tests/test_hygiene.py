"""Static checks of the package source with the standard-library `ast`: no
import goes unused and every `__all__` name is defined (the pyflakes
checks this package relies on)."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "roomwave"
MODULES = sorted(PACKAGE.glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def exported(tree):
    """Names listed in a module-level `__all__`."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def imported(tree):
    """(bound name, line) for every import statement, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def defined(tree):
    """Names bound at module level, including inside top-level if/try."""
    names = set()
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            for target in targets:
                names |= {n.id for n in ast.walk(target)
                          if isinstance(n, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.asname or alias.name.split(".")[0]
                      for alias in node.names}
        elif isinstance(node, (ast.If, ast.Try)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                pending.extend(getattr(node, field, []))
        elif isinstance(node, ast.ExceptHandler):
            pending.extend(node.body)
    return names


def unused_imports(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in imported(tree)
            if name not in used and name not in exported(tree)]


def undefined_exports(tree):
    return exported(tree) - defined(tree)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert not unused_imports(parse(path))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_names_are_defined(path):
    assert not undefined_exports(parse(path))


def test_checks_catch_stale_names():
    """A stale import and an export with no definition are both caught."""
    tree = ast.parse("import math\n"
                     "from dataclasses import dataclass\n"
                     "__all__ = ['ThetaVector', 'tau']\n"
                     "tau = 2 * math.pi\n")
    assert unused_imports(tree) == ["2: dataclass"]
    assert undefined_exports(tree) == {"ThetaVector"}
