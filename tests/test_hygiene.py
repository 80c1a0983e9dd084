"""Import hygiene of the package, checked with the standard library's ast.

Every module-level import of an `edmp` module is used in that module or
listed in its `__all__`, every name in `__all__` is defined, every name
in `__all__` is used by another module, by the benchmark or is
documented in the README, every module-level function, class and
constant is read by package code or by the benchmark, only `linalg`
calls LAPACK's symmetric eigensolvers, and no function body of `yielding`,
`perturbation` or `cayley` holds a bare threshold below 1e-3.  One
subprocess checks that importing the command line loads no thread pool.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "edmp"
MODULES = sorted(SRC.glob("*.py"))
# Code outside the package that counts as a user of its names; tests do not.
BENCH = sorted(p for p in (REPO / "bench").rglob("*.py") if "tests" not in p.parts)
README = REPO / "README.md"
# The package __init__ exists to re-export, so its imports count as used.
REEXPORTING = "__init__.py"


def _imports(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of each module-level import."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return [ast.literal_eval(elt) for elt in node.value.elts]
    return []


def _defined(tree: ast.Module) -> set[str]:
    names = set(_imports(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    """Names read anywhere, including inside quoted annotations."""
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    for note in _annotations(tree):
        for node in ast.walk(note) if note is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != REEXPORTING],
                         ids=lambda p: p.name)
def test_imports_are_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree) | set(_exports(tree))
    unused = sorted(f"{name} (line {line})" for name, line in _imports(tree).items()
                    if name not in used)
    assert not unused, f"{path.name} imports but never uses {', '.join(unused)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_names_are_defined(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    missing = sorted(set(_exports(tree)) - _defined(tree))
    assert not missing, f"{path.name} lists undefined names in __all__: {missing}"


def _named(path: Path) -> set[str]:
    """Names a file reads, imports, reaches as an attribute or spells as a
    string of its own (the benchmark's tracer looks functions up that way)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = _used(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != REEXPORTING],
                         ids=lambda p: p.name)
def test_all_names_are_used_or_documented(path):
    # The package __init__ re-exports everything, so it is no user.
    users = [p for p in MODULES if p not in (path, SRC / REEXPORTING)] + BENCH
    named = set().union(*map(_named, users))
    readme = README.read_text()
    exports = _exports(ast.parse(path.read_text(), filename=str(path)))
    unused = sorted(name for name in exports
                    if name not in named and not re.search(rf"\b{name}\b", readme))
    assert not unused, (f"{path.name} exports {unused}, which no other module, "
                        "no benchmark file and not the README names")


def _read(path: Path) -> set[str]:
    """Names a module reads, as a name, an attribute or in an annotation;
    importing or exporting a name does not read it."""
    tree = ast.parse(path.read_text(), filename=str(path))
    attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return _used(tree) | attrs


def test_every_definition_is_read():
    # Tests do not count as readers: a name only they read is dead code.
    read = set().union(*map(_read, MODULES), *map(_named, BENCH))
    dead = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        dead += [f"{path.name}: {name}" for name in sorted(_defined(tree) - set(_imports(tree)))
                 if name not in read and not name.startswith("__")]
    assert not dead, f"no package code and no benchmark file reads {', '.join(dead)}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "linalg.py"],
                         ids=lambda p: p.name)
def test_only_linalg_names_the_eigensolvers(path):
    # Every factorization, of one matrix or a stack, goes through sym_eig,
    # where the operation counts and the benchmark's tracer see it.
    named = _named(path) & {"eigh", "eigvalsh"}
    assert not named, f"{path.name} names {sorted(named)}; use linalg.sym_eig"


@pytest.mark.parametrize("name", ["yielding.py", "perturbation.py", "cayley.py"])
def test_no_bare_threshold_in_function_bodies(name):
    # Every threshold of the classification is a named linalg.Cut at module
    # level; a small float literal inside a function is one that is not.
    tree = ast.parse((SRC / name).read_text(), filename=name)
    bare = sorted({(node.lineno, node.value)
                   for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
                   for node in ast.walk(func)
                   if isinstance(node, ast.Constant) and type(node.value) is float
                   and 0.0 < abs(node.value) < 1e-3})
    assert not bare, f"{name} has bare thresholds (line, value): {bare}"


def test_cli_import_loads_no_thread_pool():
    # The benchmark times `import edmp.cli` in fresh interpreters (setup_s);
    # concurrent.futures alone costs several milliseconds there.
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, edmp.cli; print('concurrent.futures' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"
