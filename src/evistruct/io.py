"""Text file format, parsing, serialization, and the example corpus.

A structure file is line-oriented; `#` starts a comment anywhere. The
directives:

    root <id>              the least specific state (also declares it)
    state <id>             declare a state
    pair <x> <y>           generator: x strictly more specific than y
    tree {                 open a tree block
      node <id>            tree member (must be a declared state)
      edge <child> <parent>
    }
    alts <a> <b> [...]     plan alternatives (at most one plan per file)
    choose <state> <alt>   the plan's pick at one state

The specificity preorder is the reflexive-transitive closure of the pair
generators. Declaration order is meaningful: it fixes sample-point order,
witness chains, and every other tie-break downstream.

Serialization via format_workspace lists every nonreflexive related pair,
so parse(format_workspace(parse(text))) equals parse(text) for any valid
input. The bundled corpus in FIXTURES is emitted byte-for-byte by
emit_fixtures.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .plans import Plan
from .structure import EStructure, StructureError


class ParseError(ValueError):
    """Malformed workspace text."""


@dataclass(frozen=True)
class TreeBlock:
    """One tree block as written, prior to any condition checking."""

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class Workspace:
    """Everything a single file describes."""

    structure: EStructure
    trees: tuple[TreeBlock, ...]
    plan: Plan | None


def parse_workspace(text: str) -> Workspace:
    """Parse a workspace file, reporting the first error with its line;
    text that is not a str raises ParseError naming its type."""
    if not isinstance(text, str):
        raise ParseError(f"workspace text must be a str, "
                         f"not {type(text).__name__}")
    states: list[str] = []
    declared: set[str] = set()
    root: str | None = None
    pairs: list[tuple[str, str]] = []
    trees: list[TreeBlock] = []
    alts: tuple[str, ...] | None = None
    choices: dict[str, str] = {}
    block_nodes: list[str] | None = None
    block_edges: list[tuple[str, str]] | None = None

    def declare(lineno: int, name: str) -> None:
        if name in declared:
            raise ParseError(f"line {lineno}: state {name!r} declared twice")
        declared.add(name)
        states.append(name)

    def known(lineno: int, name: str) -> str:
        if name not in declared:
            raise ParseError(f"line {lineno}: unknown state {name!r}")
        return name

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        key, args = tokens[0], tokens[1:]
        in_block = block_nodes is not None

        if key == "}" and not args:
            if not in_block:
                raise ParseError(f"line {lineno}: '}}' outside a tree block")
            trees.append(TreeBlock(tuple(block_nodes), tuple(block_edges)))
            block_nodes = block_edges = None
        elif in_block and key == "node":
            if len(args) != 1:
                raise ParseError(f"line {lineno}: node takes one id")
            name = known(lineno, args[0])
            if name in block_nodes:
                raise ParseError(
                    f"line {lineno}: node {name!r} repeated in tree block")
            block_nodes.append(name)
        elif in_block and key == "edge":
            if len(args) != 2:
                raise ParseError(f"line {lineno}: edge takes child and parent")
            child, parent = args
            for end in (child, parent):
                if end not in block_nodes:
                    raise ParseError(
                        f"line {lineno}: edge end {end!r} is not a node of "
                        f"this tree block")
            block_edges.append((child, parent))
        elif in_block:
            raise ParseError(
                f"line {lineno}: only node/edge lines may appear in a "
                f"tree block, got {key!r}")
        elif key == "root":
            if len(args) != 1:
                raise ParseError(f"line {lineno}: root takes one id")
            if root is not None:
                raise ParseError(f"line {lineno}: root declared twice")
            root = args[0]
            if root not in declared:
                declare(lineno, root)
        elif key == "state":
            if len(args) != 1:
                raise ParseError(f"line {lineno}: state takes one id")
            declare(lineno, args[0])
        elif key == "pair":
            if len(args) != 2:
                raise ParseError(f"line {lineno}: pair takes two ids")
            pairs.append((known(lineno, args[0]), known(lineno, args[1])))
        elif key == "tree":
            if args != ["{"]:
                raise ParseError(f"line {lineno}: expected 'tree {{'")
            block_nodes, block_edges = [], []
        elif key == "alts":
            if alts is not None:
                raise ParseError(f"line {lineno}: alts declared twice")
            if len(args) < 2:
                raise ParseError(f"line {lineno}: need at least two "
                                 f"alternatives")
            if len(set(args)) != len(args):
                raise ParseError(f"line {lineno}: duplicate alternative")
            alts = tuple(args)
        elif key == "choose":
            if len(args) != 2:
                raise ParseError(f"line {lineno}: choose takes state and "
                                 f"alternative")
            if alts is None:
                raise ParseError(f"line {lineno}: choose before alts")
            state, alt = known(lineno, args[0]), args[1]
            if state in choices:
                raise ParseError(
                    f"line {lineno}: choice at {state!r} already made")
            if alt not in alts:
                raise ParseError(f"line {lineno}: {alt!r} is not among the "
                                 f"alternatives")
            choices[state] = alt
        else:
            raise ParseError(f"line {lineno}: unknown directive {key!r}")

    if block_nodes is not None:
        raise ParseError("unterminated tree block")
    if root is None:
        raise ParseError("no root declared")
    try:
        structure = EStructure.from_generators(tuple(states), root,
                                               tuple(pairs))
    except StructureError as exc:
        raise ParseError(str(exc)) from exc
    plan = None
    if alts is not None:
        if not choices:
            raise ParseError("alts declared but no choices made")
        plan = Plan(alts, choices)
    return Workspace(structure, tuple(trees), plan)


def format_workspace(w: Workspace) -> str:
    """Serialize a workspace so that reparsing reproduces it exactly."""
    s = w.structure
    lines = [f"root {s.root}"]
    lines += [f"state {x}" for x in s.states if x != s.root]
    lines += [f"pair {x} {y}" for x in s.states for y in s.states
              if x != y and (x, y) in s.relation]
    for block in w.trees:
        lines.append("tree {")
        lines += [f"  node {x}" for x in block.nodes]
        lines += [f"  edge {c} {p}" for c, p in block.edges]
        lines.append("}")
    if w.plan is not None:
        lines.append("alts " + " ".join(w.plan.alternatives))
        lines += [f"choose {x} {a}" for x, a in w.plan.choice.items()]
    return "\n".join(lines) + "\n"


def format_rational(q: Fraction | int) -> str:
    """'num/den' for an int or a Fraction; ValueError for anything else,
    a bool included, as parse_rational rejects one."""
    if isinstance(q, bool) or not isinstance(q, (int, Fraction)):
        raise ValueError(f"not a rational: {q!r}")
    num, den = q.as_integer_ratio()
    return f"{num}/{den}"


def parse_rational(value) -> Fraction:
    """Read a rational from 'num/den', a bare integer string, or a number."""
    if isinstance(value, bool):
        raise ParseError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"not a rational: {value!r}") from exc
    raise ParseError(f"not a rational: {value!r}")


FIXTURES: dict[str, str] = {
    "example_c.est": """\
# Rank runs against strict specificity here: z strictly refines y yet
# ends up with the smaller rank.
root nothing
state q
state s
state t
state u
state v
state w
state x
state y
state z
pair w nothing
pair t w
pair x w
pair u x
pair y x
pair v y
pair z y
pair q nothing
pair s q
pair z q
""",
    "example_d.est": """\
# Oxide-discovery scenario: three candidate elements, staged tests, and
# three candidate designs over them.
root nothing
state As
state ?O5
state Sb
state ??
state Ge
state As?
state AsO5
state SbO5
state Sb?
pair As nothing
pair ?O5 nothing
pair Sb nothing
pair ?? nothing
pair Ge nothing
pair As? As
pair AsO5 As
pair AsO5 ?O5
pair SbO5 ?O5
pair SbO5 Sb
pair Sb? Sb
pair Sb? ??
pair As? ??
tree {
  node nothing
  node As
  node Sb
  node Ge
  edge As nothing
  edge Sb nothing
  edge Ge nothing
}
tree {
  node nothing
  node ?O5
  node ??
  node AsO5
  node SbO5
  node Sb?
  node Ge
  node As?
  edge ?O5 nothing
  edge ?? nothing
  edge AsO5 ?O5
  edge SbO5 ?O5
  edge Sb? ??
  edge Ge ??
  edge As? ??
}
tree {
  node nothing
  node ?O5
  node Sb
  node Ge
  edge ?O5 nothing
  edge Sb nothing
  edge Ge nothing
}
alts a b c
choose nothing a
choose As b
choose Sb c
choose Ge a
""",
    "example_j.est": """\
# Coin flips summarized as guaranteed minimum heads and tails. No subset
# of these states supports an experimentation tree.
root h0t0
state h1t0
state h0t1
state h2t0
state h1t1
state h0t2
pair h1t0 h0t0
pair h0t1 h0t0
pair h2t0 h1t0
pair h1t1 h1t0
pair h1t1 h0t1
pair h0t2 h0t1
""",
    "example_r.est": """\
# Dominance consistency is not necessary for rationalizability: this
# plan breaks it at the root yet has a representation.
root nothing
state x1
state x2
state x3
state z1
state z2
state z3
state z4
state z5
pair x1 nothing
pair x2 nothing
pair x3 nothing
pair z1 x1
pair z2 x2
pair z3 x3
pair z4 x1
pair z4 x2
pair z4 x3
pair z5 x1
pair z5 x2
pair z5 x3
alts a b
choose nothing a
choose x1 b
choose x2 b
choose x3 b
choose z1 a
choose z2 a
choose z3 a
choose z4 b
choose z5 b
""",
    "example_t.est": """\
# Dominance consistency is not sufficient for rationalizability: this
# plan keeps it everywhere yet admits no representation.
root nothing
state x1
state x2
state z1
state z2
state z3
pair x1 nothing
pair x2 nothing
pair z1 x1
pair z2 x2
pair z3 x1
pair z3 x2
alts a b c
choose nothing a
choose x1 b
choose x2 c
choose z1 c
choose z2 b
choose z3 a
""",
}


def emit_fixtures(directory) -> list[Path]:
    """Write the bundled corpus into a directory, creating it if needed;
    ValueError when directory is not a path (a str or os.PathLike)."""
    try:
        out = Path(directory)
    except TypeError:
        raise ValueError(f"fixture directory {directory!r} is not a path"
                         ) from None
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name in sorted(FIXTURES):
        path = out / name
        path.write_text(FIXTURES[name], encoding="utf-8")
        written.append(path)
    return written
