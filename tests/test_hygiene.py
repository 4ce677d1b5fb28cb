"""Checks of the package source. Static ones, with the standard-library
`ast`: no import goes unused and every `__all__` name is defined (the
pyflakes checks this package relies on), no `__all__` lists a name its
module imports, no module-level name, private or public, is left behind
with nothing in the package referring to it, and no function takes a
parameter it never reads. One at run time: importing the package starts no
thread and no process."""

import ast
import os
import subprocess
import sys
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


def reexports(tree):
    """`__all__` names the module imports: each public name has one home."""
    return exported(tree) & {name for name, _ in imported(tree)}


def private_definitions(tree):
    """Private (`_name`, not dunder) functions, classes and constants bound
    at module level; imported names are the unused-import check's."""
    imports = {name for name, _ in imported(tree)}
    return {name for name in defined(tree) - imports
            if name.startswith("_") and not name.startswith("__")}


def references(tree):
    """Names read anywhere: loaded names, attributes and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def public_definitions(tree):
    """Public functions, classes and constants bound at module level."""
    imports = {name for name, _ in imported(tree)}
    return {name for name in defined(tree) - imports
            if not name.startswith("_")}


def unreferenced(trees, definitions):
    """`module: name` for each name of `definitions(tree)` that no module of
    `trees` (module name -> tree) refers to; a string in `__all__` is not a
    reference."""
    used = {name for tree in trees.values() for name in references(tree)}
    return sorted(f"{module}: {name}" for module, tree in trees.items()
                  for name in definitions(tree) - used)


def unused_parameters(tree):
    """`line: function(parameter)` for each parameter that its function's
    body never reads. `self` is exempt, and so is a name with a leading
    underscore: a parameter that a caller's protocol requires and the
    function does not need."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                  *filter(None, (args.vararg, args.kwarg))]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for statement in body for n in ast.walk(statement)
                if isinstance(n, ast.Name)}
        name = getattr(node, "name", "lambda")
        found += [f"{node.lineno}: {name}({param.arg})" for param in params
                  if param.arg not in read and param.arg != "self"
                  and not param.arg.startswith("_")]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert not unused_imports(parse(path))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_names_are_defined(path):
    assert not undefined_exports(parse(path))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_name_is_reexported(path):
    assert not reexports(parse(path))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_parameters(path):
    assert not unused_parameters(parse(path))


def test_every_private_name_is_referenced():
    assert not unreferenced({path.name: parse(path) for path in MODULES},
                            private_definitions)


def test_every_public_name_is_referenced():
    """No public name is kept for the tests alone: each is read by some
    module of the package."""
    assert not unreferenced({path.name: parse(path) for path in MODULES},
                            public_definitions)


def test_checks_catch_stale_names():
    """A stale import and an export with no definition are both caught."""
    tree = ast.parse("import math\n"
                     "from dataclasses import dataclass\n"
                     "__all__ = ['ThetaVector', 'tau']\n"
                     "tau = 2 * math.pi\n")
    assert unused_imports(tree) == ["2: dataclass"]
    assert undefined_exports(tree) == {"ThetaVector"}


def test_check_catches_reexports():
    """A name exported from a module that imports it is caught, also under
    an alias; a defined export is not."""
    tree = ast.parse("from ._linalg import FactorizationError\n"
                     "from .optimize import minimize as fit\n"
                     "__all__ = ['FactorizationError', 'fit', 'tau']\n"
                     "tau = 6.28\n")
    assert reexports(tree) == {"FactorizationError", "fit"}


def test_check_catches_unreferenced_private_names():
    """A private helper whose last caller is gone is caught, in whichever
    module its callers would live; dunders and imported names are not."""
    helpers = ast.parse("import math as _math\n"
                        "__version__ = '1'\n"
                        "_TAU = 2 * _math.pi\n"
                        "def _soft_threshold(v, t):\n"
                        "    return v\n"
                        "def _used():\n"
                        "    return _TAU\n"
                        "class _Unused:\n"
                        "    pass\n")
    caller = ast.parse("from .helpers import _used\n"
                       "value = _used()\n")
    assert unreferenced({"helpers.py": helpers, "caller.py": caller},
                        private_definitions) == [
        "helpers.py: _Unused", "helpers.py: _soft_threshold"]


def test_check_catches_unreferenced_public_names():
    """A public function that only `__all__` names is caught; one read by
    another module, or by its own, is not, and private names are the other
    check's."""
    helpers = ast.parse("__all__ = ['hermitize', 'chol', 'TAU']\n"
                        "TAU = 6.28\n"
                        "def hermitize(a):\n"
                        "    return a\n"
                        "def chol(a):\n"
                        "    return TAU * a\n"
                        "def _unused():\n"
                        "    pass\n")
    caller = ast.parse("from . import helpers\n"
                       "print(helpers.chol(1.0))\n")
    assert unreferenced({"helpers.py": helpers, "caller.py": caller},
                        public_definitions) == ["helpers.py: hermitize"]


def test_check_catches_unused_parameters():
    """A parameter no statement reads is caught, in a method, a nested
    function and a lambda; one read only by a nested function is used, and
    `self` and underscored names are exempt."""
    tree = ast.parse("def assumed(cfg, sweep, *points, **extra):\n"
                     "    def inner(value):\n"
                     "        return sweep\n"
                     "    return inner\n"
                     "class Fit:\n"
                     "    def run(self, _args, seed):\n"
                     "        return self\n"
                     "scale = lambda x, y: 2 * x\n")
    assert sorted(unused_parameters(tree)) == [
        "1: assumed(cfg)", "1: assumed(extra)", "1: assumed(points)",
        "2: inner(value)", "6: run(seed)", "8: lambda(y)"]


def test_import_starts_no_thread_or_process():
    """Importing every module in a fresh interpreter, with no BLAS thread
    variable set, leaves it with one thread (as the operating system counts
    them, where /proc says) and no child process."""
    names = [f"roomwave.{path.stem}" for path in MODULES
             if path.stem != "__init__"]
    code = ("import importlib, os, threading\n"
            f"for name in {names!r}:\n"
            "    importlib.import_module(name)\n"
            "tasks = (len(os.listdir('/proc/self/task'))\n"
            "         if os.path.isdir('/proc/self/task') else 1)\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "    children = 'children'\n"
            "except ChildProcessError:\n"
            "    children = 'none'\n"
            "print(threading.active_count(), tasks, children)\n")
    env = {k: v for k, v in os.environ.items()
           if not k.endswith(("_NUM_THREADS", "_MAXIMUM_THREADS"))}
    env["PYTHONPATH"] = str(PACKAGE.parent)
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["1", "1", "none"], done.stderr
