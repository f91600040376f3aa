"""Source hygiene of the package, checked with the standard library's ast:
every module parses under the oldest Python the package declares, no
module imports a name it never uses, every private top-level name is
read somewhere in the package, every cache stored in an instance's
__dict__ is declared here and named in the README, no line is wider
than 79 columns, the package namespace imports no module when it loads
and exports each name of __all__ from the one module defining it, each
function or class of __all__ is read in the package or declared an
entry point, the CLI imports only io, plans and structure when it
loads, every import of another module's private name is declared here,
only
trees._given writes the tree-input messages, and the canonical and
embedding verifiers all reach the one kernel that reads the relation's
rows."""
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
# tree's top-down order and, for a checked tree spanning its structure,
# its own structure; a canonical space's rows and avoidance pass; and
# the derived relations a structure is seeded with from its closed rows
HIDDEN_CACHES = ("_top_down", "as_estructure", "_rows", "_avoidance",
                 "derived")


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


def _module_tree(stem: str) -> ast.Module:
    path = ROOT / "src" / "evistruct" / f"{stem}.py"
    return ast.parse(path.read_text(encoding="utf-8"))


def _top_level_package_imports(tree: ast.Module) -> list[str]:
    """The package modules a module imports when it loads: relative
    imports outside functions, classes and `if TYPE_CHECKING:` blocks."""
    found, todo = [], list(tree.body)
    while todo:
        node = todo.pop(0)
        if isinstance(node, ast.ImportFrom) and node.level:
            found.append(node.module or ".")
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names
                      if a.name.split(".")[0] == "evistruct"]
        elif isinstance(node, ast.If) and ast.unparse(
                node.test) == "TYPE_CHECKING":
            todo += node.orelse
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
            todo += ast.iter_child_nodes(node)
    return found


def _literal(tree: ast.Module, name: str):
    """The literal value a module assigns to a top-level name."""
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign) else
                   [node.target] if isinstance(node, ast.AnnAssign) else [])
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no top-level {name}")


def _top_level_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets
                         if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign):
            names.add(node.target.id)
    return names


# every import of another module's private name, deferred imports
# included: importer -> {module: names}. A new coupling fails
# test_private_couplings_are_declared until it is declared here.
PRIVATE_COUPLINGS = {
    "canonical": {"structure": {"_bits", "_condition_report", "_lowest",
                                "_root_index"}},
    "cli": {"feasibility": {"_margin_report", "_over_lcm", "_rows"}},
    "feasibility": {"plans": {"_check_domain"}, "structure": {"_bits"}},
    "rationalize": {"feasibility": {"_avoidance", "_margin_report",
                                    "_over_lcm", "_plan_key", "_rows"}},
    "structure": {"canonical": {"_verified_space"}},
    "trees": {"structure": {"_bits", "_closed_rows", "_condition_report",
                            "_lowest", "_root_index"}},
}


def _private_imports(tree: ast.Module) -> dict[str, set[str]]:
    """The private names (one leading underscore, not a dunder) a module
    imports from each package module, at any depth: in functions, in
    `if TYPE_CHECKING:` blocks, relative or absolute, aliased or not."""
    found: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        if node.level:
            module = node.module
        elif node.module.startswith("evistruct."):
            module = node.module[len("evistruct."):]
        else:
            continue
        names = {a.name for a in node.names
                 if a.name.startswith("_") and not a.name.endswith("__")}
        if names:
            found.setdefault(module, set()).update(names)
    return found


def test_private_couplings_are_declared():
    """A module reading another's private name is coupled to its insides;
    each such import is declared above, so a new one is added on
    purpose."""
    found = {path.stem: _private_imports(ast.parse(path.read_text(
        encoding="utf-8"))) for path in MODULES}
    assert {stem: names for stem, names in found.items()
            if names} == PRIVATE_COUPLINGS


def _package_imports(tree: ast.Module) -> set[str]:
    """The package modules a module imports anywhere: at the top, in
    functions and classes, and in `if TYPE_CHECKING:` blocks."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level and node.module:
            found.add(node.module)
        elif isinstance(node, ast.ImportFrom) and (
                node.module or "").startswith("evistruct."):
            found.add(node.module[len("evistruct."):])
    return found


def test_the_decision_reaches_neither_trees_nor_rationalize():
    """The decision decides a plan on a tree up to twins on the
    structure's own rows, with no tree object and no construction:
    feasibility imports neither trees nor rationalize, directly or
    through any module it imports, at any depth."""
    graph = {path.stem: _package_imports(ast.parse(path.read_text(
        encoding="utf-8"))) for path in MODULES}
    reached, todo = set(), ["feasibility"]
    while todo:
        for stem in graph[todo.pop()] - reached:
            reached.add(stem)
            todo.append(stem)
    assert reached == {"canonical", "io", "plans", "structure"}


def test_the_package_import_scan_sees_every_depth():
    tree = ast.parse("from .a import x\nimport json\n"
                     "if TYPE_CHECKING:\n    from .b import y\n"
                     "def f():\n    from .c import z\n"
                     "    from evistruct.d import w\n"
                     "from . import e\n")
    assert _package_imports(tree) == {"a", "b", "c", "d"}


def test_the_private_import_scan_sees_every_depth_and_form():
    tree = ast.parse("from .a import _x, y, __version__\n"
                     "from .b import _z as w\nimport evistruct\n"
                     "from evistruct.c import _v\nfrom json import _p\n"
                     "if TYPE_CHECKING:\n    from .d import _t\n"
                     "def f():\n    from .a import _u\n"
                     "class K:\n    def g(self):\n"
                     "        from .e import _s, r\n")
    assert _private_imports(tree) == {"a": {"_x", "_u"}, "b": {"_z"},
                                      "c": {"_v"}, "d": {"_t"},
                                      "e": {"_s"}}


def test_the_package_namespace_imports_no_module_when_it_loads():
    assert _top_level_package_imports(_module_tree("__init__")) == []


def test_the_export_table_maps_all_of_all_to_its_modules():
    """__all__ is the one export list: a literal list of distinct names,
    each defined at the top level of exactly one module the namespace
    loads, which __getattr__ reads from the tuple of module names."""
    tree = _module_tree("__init__")
    names = _literal(tree, "__all__")
    modules = _literal(tree, "_MODULES")
    assert sorted(modules) == sorted(p.stem for p in MODULES
                                     if p.stem not in ("__init__", "cli"))
    assert len(set(names)) == len(names)
    defined = {stem: _top_level_names(_module_tree(stem))
               for stem in modules}
    owners = {name: [stem for stem in modules if name in defined[stem]]
              for name in names}
    assert {name: stems for name, stems in owners.items()
            if len(stems) != 1} == {}


# the callables of __all__ that no module of the package reads, the CLI
# included: each is an entry point a user of the library calls by name
# (tests call all of them, the benchmark's workloads the two
# verifiers), with what it gives
ENTRY_POINTS = {
    "avoiding_branch": "the avoidance branch the theorem's utilities "
                       "are supported on",
    "check_graph_tree": "the shape of a tree: one parent each, no cycle, "
                        "every node reaching the root",
    "check_isd_relation": "dominance consistency of a conditional "
                          "preference relation",
    "decompose_field_element": "an element of a tree's field as a "
                               "disjoint union of node events",
    "format_workspace": "the file format's writer, which parse_workspace "
                        "reads back",
    "induced_relation": "the conditional preference relation a plan "
                        "stands for",
    "partitions": "a tree's coarse-to-fine sequence of partitions",
    "rank_level_sets": "the level sets of the rank function",
    "verify_canonical": "the canonical space's six conditions, on any "
                        "space",
    "verify_embedding": "the embedding conditions, on any event map",
}


def _unread_definitions(trees: dict[str, ast.Module],
                        names: set[str]) -> list[str]:
    """Those of names bound by a top-level def or class of some module
    that no code of the modules loads outside that def or class."""
    defined, loaded = set(), set()
    for tree in trees.values():
        for stmt in tree.body:
            own = stmt.name if isinstance(stmt, (
                ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
            if own in names:
                defined.add(own)
            loaded.update(node.id for node in ast.walk(stmt)
                          if isinstance(node, ast.Name)
                          and isinstance(node.ctx, ast.Load)
                          and node.id != own)
    return sorted(defined - loaded)


def test_every_exported_callable_is_read_or_an_entry_point():
    """A function or class of __all__ that no module of the package
    reads is either an entry point declared above or code only tests
    reach: a helper exported for a test, or a second copy of something
    the package computes, fails here."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in MODULES}
    names = set(_literal(trees["__init__"], "__all__"))
    assert set(ENTRY_POINTS) <= names
    assert _unread_definitions(trees, names) == sorted(ENTRY_POINTS)


def test_the_unread_definition_scan_skips_a_definition_s_own_reads():
    trees = {
        "a": ast.parse("def f(n):\n    return f(n - 1)\n"
                       "class C:\n    def m(self): return C\n"
                       "def g(): return h\nX = 1\n"
                       "def k(): pass\n"),
        "b": ast.parse("from .a import k\ndef h(x: 'C'): return k\n"
                       "y = X\n"),
    }
    assert _unread_definitions(trees, {"f", "C", "g", "h", "k", "X"}) == [
        "C", "f", "g"]


def test_the_cli_starts_on_io_plans_and_structure():
    assert sorted(_top_level_package_imports(_module_tree("cli"))) == [
        "io", "plans", "structure"]


def test_the_top_level_import_scan_skips_deferred_imports():
    tree = ast.parse("from . import a\nfrom .b import c\nimport evistruct.d\n"
                     "import json\nif TYPE_CHECKING:\n    from .e import f\n"
                     "def g():\n    from .h import i\n"
                     "try:\n    from .j import k\nexcept ImportError:\n"
                     "    from .m import n\n")
    assert _top_level_package_imports(tree) == [".", "b", "evistruct.d",
                                               "j", "m"]


# the six tree-input messages, with each formatted value as {}: the one
# tree-input check, trees._given, is the only function writing them
TREE_INPUT_MESSAGES = ("tree node {} is not a state",
                       "duplicate tree node {}",
                       "edge {} is not a (child, parent) pair",
                       "edge ({}, {}) mentions a non-node",
                       "tree {} {} are not a collection",
                       "tree root {} is not hashable")


def _message_writers(tree: ast.Module, messages: tuple[str, ...]
                     ) -> list[tuple[str, str]]:
    """Each (function, message) where a function's own code holds one of
    messages in a string or f-string, each formatted value read as {};
    a method is named Class.method, and code outside any function
    <module>."""
    found: list[tuple[str, str]] = []

    def visit(node: ast.AST, owner: str, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = scope + child.name
                visit(child, owner if isinstance(child, ast.ClassDef)
                      else name, name + ".")
            elif isinstance(child, ast.JoinedStr):
                text = "".join(v.value if isinstance(v, ast.Constant)
                               else "{}" for v in child.values)
                found.extend((owner, m) for m in messages if m in text)
            elif (isinstance(child, ast.Constant)
                  and isinstance(child.value, str)):
                found.extend((owner, m) for m in messages
                             if m in child.value)
            else:
                visit(child, owner, scope)

    visit(tree, "<module>", "")
    return found


def test_only_the_tree_input_check_writes_its_messages():
    """Malformed tree input is judged in one place: a second function
    raising one of its messages is a second copy of the check."""
    found = sorted((path.stem, owner, message) for path in MODULES
                   for owner, message in _message_writers(
                       ast.parse(path.read_text(encoding="utf-8")),
                       TREE_INPUT_MESSAGES))
    assert found == sorted(("trees", "_given", m)
                           for m in TREE_INPUT_MESSAGES)


def test_the_message_scan_sees_a_second_raiser():
    tree = ast.parse(
        'def _given(x):\n    raise E(f"tree node {x!r} is not a state")\n'
        'class T:\n    def view(self, e):\n'
        '        msg = "edge {} is not a (child, parent) pair"\n'
        '        raise E(msg.format(e))\n'
        'def other(x, c, p):\n'
        '    def inner():\n'
        '        raise E(f"duplicate tree node {x}")\n'
        '    raise E(f"edge ({c!r}, {p!r}) mentions a non-node")\n'
        'def plan(x):\n    raise E(f"plan state {x!r} is not a state")\n')
    assert _message_writers(tree, TREE_INPUT_MESSAGES) == [
        ("_given", TREE_INPUT_MESSAGES[0]),
        ("T.view", TREE_INPUT_MESSAGES[2]),
        ("other.inner", TREE_INPUT_MESSAGES[1]),
        ("other", TREE_INPUT_MESSAGES[3])]


def _calls(tree: ast.Module) -> dict[str, set[str]]:
    """For each top-level function, the names it calls directly."""
    return {node.name: {call.func.id for call in ast.walk(node)
                        if isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Name)}
            for node in tree.body if isinstance(node, ast.FunctionDef)}


def _reach(calls: dict[str, set[str]], start: str) -> set[str]:
    """The top-level functions start calls, directly or through others."""
    seen, todo = set(), [start]
    while todo:
        for name in calls.get(todo.pop(), ()):
            if name in calls and name not in seen:
                seen.add(name)
                todo.append(name)
    return seen


def _attribute_readers(tree: ast.Module, attrs: set[str]) -> set[str]:
    """The top-level functions whose code reads one of attrs off
    anything."""
    return {node.name for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and any(isinstance(a, ast.Attribute) and a.attr in attrs
                    for a in ast.walk(node))}


def test_the_canonical_checks_share_one_kernel():
    """The build's own check (_verified_space), verify_canonical and
    verify_embedding all run the one mask kernel, _event_pass, and
    besides the build only the kernel reads the relation's up and
    incompatibility rows: a second scan of the order or disjointness
    conditions, such as an _order_mismatch helper, fails here."""
    tree = _module_tree("canonical")
    calls = _calls(tree)
    assert "_order_mismatch" not in _top_level_names(tree)
    assert [f for f in ("_verified_space", "verify_canonical",
                        "verify_embedding")
            if "_event_pass" not in _reach(calls, f)] == []
    assert _attribute_readers(tree, {"up", "incompat_rows"}) == {
        "_event_space", "_event_pass"}


def test_the_call_scan_follows_calls_through_helpers():
    tree = ast.parse("def a(s):\n    return b(s.up) + len(s)\n"
                     "def b(x):\n    return c(x)\n"
                     "def c(x):\n    return x.incompat_rows\n"
                     "def d(x):\n    return a(x)\n")
    calls = _calls(tree)
    assert _reach(calls, "a") == {"b", "c"}
    assert _reach(calls, "c") == set()
    assert _reach(calls, "d") == {"a", "b", "c"}
    assert _attribute_readers(tree, {"up", "incompat_rows"}) == {"a", "c"}
