"""Source hygiene of the package, checked with the standard library's ast:
every module parses under the oldest Python the package declares, no
module imports a name it never uses, every private top-level name is
read somewhere in the package, every cache stored in an instance's
__dict__ is declared here and named in the README, and no line is wider
than 79 columns."""
from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "evistruct").glob("*.py"))


def _minimum_python() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    found = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text,
                      re.MULTILINE)
    assert found, "pyproject.toml declares no requires-python floor"
    return int(found[1]), int(found[2])


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line that binds it."""
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    """Names the module reads: in code, in annotations written as
    strings, and in __all__."""
    used: set[str] = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations += [a.annotation for a in (
                *args.posonlyargs, *args.args, *args.kwonlyargs,
                args.vararg, args.kwarg) if a is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    for annotation in annotations:
        for node in ast.walk(annotation) if annotation else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used(ast.parse(node.value, mode="eval"))
    return used


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Each private name a module binds at its top level (one leading
    underscore, not a dunder), with the line that binds it."""
    names: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target.id] if isinstance(node.target,
                                                     ast.Name) else []
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.endswith("__"):
                names.setdefault(name, node.lineno)
    return names


def _private_reads(trees: dict[str, ast.Module]) -> dict[str, set[str]]:
    """For each module, the names read from it: loaded in the module
    itself, or imported from it by another module of the package (whose
    own use of the import the unused-import check holds)."""
    reads: dict[str, set[str]] = {name: set() for name in trees}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads[module].add(node.id)
            elif (isinstance(node, ast.ImportFrom) and node.level == 1
                  and node.module in reads):
                reads[node.module].update(a.name for a in node.names)
    return reads


def _dict_stores(tree: ast.Module) -> list[str]:
    """The key of each store to <expr>.__dict__[<key>]; a key that is not
    a string literal is given as its source text."""
    keys = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Subscript)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "__dict__"):
            key = node.slice
            keys.append(key.value if isinstance(key, ast.Constant)
                        and isinstance(key.value, str) else ast.unparse(key))
    return keys


# the caches kept in an instance's __dict__ rather than in a field: a
# tree's top-down order, a canonical space's rows and avoidance pass, and
# a structure's weak reference to its spanning tree
HIDDEN_CACHES = ("_top_down", "_rows", "_avoidance", "_spanning_tree")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_parses_on_the_oldest_declared_python(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=_minimum_python())


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _used(tree)
    unused = sorted((line, name) for name, line in _imported(tree).items()
                    if name not in used)
    assert unused == [], f"{path.name} imports names it never uses"


def test_every_private_name_is_read_in_the_package():
    """A private top-level name that only tests read is dead code: a
    consolidation that leaves a helper behind fails here."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in MODULES}
    reads = _private_reads(trees)
    unread = sorted((module, line, name) for module, tree in trees.items()
                    for name, line in _private_definitions(tree).items()
                    if name not in reads[module])
    assert unread == [], "private names the package never reads"


def test_instance_dict_stores_are_declared():
    """A cache stored in an instance's __dict__ is not a field, so
    equality, repr and pickles leave it out; each one is declared above
    and named in the README, so a new one is added on purpose."""
    stores = [key for path in MODULES
              for key in _dict_stores(ast.parse(path.read_text(
                  encoding="utf-8")))]
    assert sorted(stores) == sorted(HIDDEN_CACHES)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert [k for k in HIDDEN_CACHES if f"`{k}`" not in readme] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_lines_fit_in_79_columns(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    wide = [(n, len(line)) for n, line in enumerate(lines, 1)
            if len(line) > 79]
    assert wide == [], f"{path.name} has lines wider than 79 columns"


def test_the_unused_import_check_sees_an_unused_name():
    tree = ast.parse('from __future__ import annotations\n'
                     'import json\nfrom x import (A, B, C as D)\n'
                     'def f(a: "A") -> D: return 1\n')
    assert sorted(set(_imported(tree)) - _used(tree)) == ["B", "json"]


def test_the_private_name_check_sees_an_unread_name():
    trees = {
        "a": ast.parse("_A = 1\n_B: int = 2\ndef _f(): return _A\n"
                       "class _C: pass\n__all__ = []\n_B = 3\n"),
        "b": ast.parse("from .a import _f\n"),
    }
    reads = _private_reads(trees)
    assert _private_definitions(trees["a"]) == {"_A": 1, "_B": 2, "_f": 3,
                                                "_C": 4}
    assert sorted(set(_private_definitions(trees["a"])) - reads["a"]) == [
        "_B", "_C"]


def test_the_dict_store_check_sees_every_store():
    tree = ast.parse('a.__dict__["_x"] = 1\nb = c.__dict__["_y"] = 2\n'
                     'd.__dict__[k] = 3\ne = f.__dict__["_z"]\n'
                     'g.h.__dict__["_w"] += 4\n')
    assert sorted(_dict_stores(tree)) == ["_w", "_x", "_y", "k"]
