"""Experimentation trees inside an ambient evidential structure.

A tree is a subset of states containing the root, together with child ->
parent edges. Seven conditions qualify it as an experimentation design:

* t-root: the ambient root belongs to the tree and the tree has at least
  two nodes.
* t-order: the tree's reachability order is contained in the ambient
  specificity order.
* t-parent: every non-root node has exactly one immediate predecessor in
  the tree order.
* t-immediate: immediate tree predecessors are immediate in the ambient
  structure as well.
* t-branching: every non-maximal tree node has at least two immediate
  tree refinements.
* t-incompat: distinct immediate refinements of a node are incompatible
  in the ambient structure.
* t-unbiased: any ambient state strictly refining a non-maximal tree node
  has a common refinement with one of that node's tree children. Branching
  may not quietly exclude evidence the ambient structure allows.

A tree satisfying all seven, viewed as a structure in its own right,
satisfies the five structure axioms and is an experimentation tree in
itself; `as_estructure` exposes that view.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, product
from typing import Iterable, Mapping, Sequence

from .canonical import CanonicalSpace, ConditionVerdict, build_canonical
from .structure import EStructure, StructureError

TREE_CONDITION_IDS: tuple[str, ...] = (
    "t-root", "t-order", "t-parent", "t-immediate",
    "t-branching", "t-incompat", "t-unbiased",
)


class TreeError(StructureError):
    """Raised for malformed tree input or failed tree conditions."""


@dataclass(frozen=True)
class TreeCheckReport:
    verdicts: tuple[ConditionVerdict, ...]

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    @property
    def failed_ids(self) -> tuple[str, ...]:
        return tuple([v.condition for v in self.verdicts if not v.passed])

    @property
    def failures(self) -> dict[str, tuple | None]:
        return {v.condition: v.witness for v in self.verdicts if not v.passed}

    def __getitem__(self, condition: str) -> ConditionVerdict:
        for v in self.verdicts:
            if v.condition == condition:
                return v
        raise KeyError(condition)


@dataclass(frozen=True)
class GraphReport:
    """Plain graph-shape facts about a node/edge set, before any ambient
    structure is consulted."""

    connected: bool
    acyclic: bool
    single_parent: bool
    witness: tuple | None = None

    @property
    def is_tree(self) -> bool:
        return self.connected and self.acyclic and self.single_parent


@dataclass(frozen=True)
class Branch:
    """One root-to-leaf path.

    Attributes:
        nodes: path in root-first order.
        atom: index of the leaf's sample point in the tree's own canonical
            space.
    """

    nodes: tuple[str, ...]
    atom: int

    @property
    def leaf(self) -> str:
        return self.nodes[-1]


@dataclass(frozen=True)
class ExperimentationTree:
    """A verified tree, kept with its ambient structure.

    Attributes:
        ambient: the structure the tree was carved from.
        nodes: tree states in ambient declaration order.
        parent: child -> parent for every non-root node.
    """

    ambient: EStructure
    nodes: tuple[str, ...]
    parent: Mapping[str, str]

    @property
    def root(self) -> str:
        return self.ambient.root

    @cached_property
    def children(self) -> dict[str, tuple[str, ...]]:
        kids: dict[str, list[str]] = {x: [] for x in self.nodes}
        for x in self.nodes:
            if x != self.root:
                kids[self.parent[x]].append(x)
        return {x: tuple(v) for x, v in kids.items()}

    @cached_property
    def rank_in_tree(self) -> dict[str, int]:
        # a loop, not a self-calling closure, which would be a reference
        # cycle keeping the tree alive until a full garbage collection
        rho: dict[str, int] = {}
        for x in self.nodes:
            for y in self.path_to_root(x):
                if y not in rho:
                    rho[y] = 0 if y == self.root else rho[self.parent[y]] + 1
        return rho

    @property
    def depth(self) -> int:
        return max(self.rank_in_tree.values())

    @cached_property
    def leaves(self) -> tuple[str, ...]:
        return tuple([x for x in self.nodes if not self.children[x]])

    @cached_property
    def order(self) -> frozenset[tuple[str, str]]:
        pairs = set()
        for x in self.nodes:
            cur = x
            while True:
                pairs.add((x, cur))
                if cur == self.root:
                    break
                cur = self.parent[cur]
        return frozenset(pairs)

    @cached_property
    def as_estructure(self) -> EStructure:
        edges = tuple([(x, self.parent[x]) for x in self.nodes
                       if x != self.root])
        return EStructure.from_generators(self.nodes, self.root, edges)

    @cached_property
    def canonical(self) -> CanonicalSpace:
        return build_canonical(self.as_estructure)

    @cached_property
    def branches(self) -> tuple[Branch, ...]:
        atom_of = {cls[0]: i for i, cls in enumerate(self.canonical.atoms)}
        out: list[Branch] = []
        stack = [(self.root,)]
        while stack:  # depth first, children in order
            path = stack.pop()
            kids = self.children[path[-1]]
            if kids:
                stack.extend(path + (k,) for k in reversed(kids))
            else:
                out.append(Branch(path, atom_of[path[-1]]))
        return tuple(out)

    def path_to_root(self, x: str) -> tuple[str, ...]:
        """Nodes from the root down to x, inclusive."""
        path = [x]
        while path[-1] != self.root:
            path.append(self.parent[path[-1]])
        return tuple(reversed(path))


def _tree_order(nodes: Sequence[str],
                edges: Iterable[tuple[str, str]]) -> frozenset[tuple[str, str]]:
    """Reflexive-transitive closure of child -> parent edges."""
    up: dict[str, set[str]] = {x: set() for x in nodes}
    for c, p in edges:
        up[c].add(p)
    pairs = set()
    for x in nodes:
        seen = {x}
        stack = [x]
        while stack:
            for nxt in up[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        pairs.update((x, y) for y in seen)
    return frozenset(pairs)


def _validate_members(s: EStructure, nodes: Sequence[str],
                      edges: Iterable[tuple[str, str]]) -> None:
    known = set(s.states)
    seen: set[str] = set()
    for x in nodes:
        if x not in known:
            raise TreeError(f"tree node {x!r} is not a state")
        if x in seen:
            raise TreeError(f"duplicate tree node {x!r}")
        seen.add(x)
    for c, p in edges:
        if c not in seen or p not in seen:
            raise TreeError(f"edge ({c!r}, {p!r}) mentions a non-node")


def check_graph_tree(nodes: Sequence[str], edges: Iterable[tuple[str, str]],
                     root: str) -> GraphReport:
    """Shape check only: one parent each, no cycles, all reach the root."""
    up: dict[str, list[str]] = {x: [] for x in nodes}
    for c, p in edges:
        up[c].append(p)
    for x in nodes:
        if x == root:
            if up[x]:
                return GraphReport(False, True, False, ("root has parent", x))
        elif len(up[x]) != 1:
            return GraphReport(False, True, False, (x, len(up[x])))
    for x in nodes:
        trail = [x]
        seen = {x}
        while up[trail[-1]]:
            nxt = up[trail[-1]][0]
            if nxt in seen:
                cycle = trail[trail.index(nxt):] + [nxt]
                return GraphReport(False, False, True, tuple(cycle))
            seen.add(nxt)
            trail.append(nxt)
        if trail[-1] != root:
            return GraphReport(False, True, True, ("unreachable", x))
    return GraphReport(True, True, True)


def check_tree(s: EStructure, nodes: Sequence[str],
               edges: Iterable[tuple[str, str]]) -> TreeCheckReport:
    """Evaluate the seven tree conditions, with a witness per failure.

    The tree order is the reachability closure of the given edges; nothing
    about the edge list itself is assumed beyond membership in the node
    set. Condition failures land in the report, never in an exception.
    """
    nodes = tuple(nodes)
    edges = tuple(edges)
    _validate_members(s, nodes, edges)
    d = s.derived
    order = _tree_order(nodes, edges)
    strict = frozenset((x, y) for x, y in order if (y, x) not in order)
    immmt = frozenset(
        (x, z) for x, z in strict
        if not any((x, y) in strict and (y, z) in strict for y in nodes))
    parents = {x: tuple([p for p in nodes if (x, p) in immmt]) for x in nodes}
    kids = {z: tuple([x for x in nodes if (x, z) in immmt]) for z in nodes}
    maximal = tuple([x for x in nodes
                     if not any((y, x) in strict for y in nodes)])
    verdicts: list[ConditionVerdict] = []

    witness: tuple | None = None
    if s.root not in nodes:
        witness = ("root missing",)
    elif len(nodes) < 2:
        witness = ("fewer than two nodes",)
    verdicts.append(ConditionVerdict("t-root", witness is None, witness))

    witness = None
    for x, y in sorted(order):
        if (x, y) not in s.relation:
            witness = (x, y)
            break
    verdicts.append(ConditionVerdict("t-order", witness is None, witness))

    witness = None
    for x in nodes:
        if x != s.root and len(parents[x]) != 1:
            witness = (x, len(parents[x]))
            break
    verdicts.append(ConditionVerdict("t-parent", witness is None, witness))

    witness = None
    for x, z in sorted(immmt):
        if (x, z) not in d.immms:
            witness = (x, z)
            break
    verdicts.append(ConditionVerdict("t-immediate", witness is None, witness))

    witness = None
    for x in nodes:
        if x not in maximal and len(kids[x]) < 2:
            witness = (x, len(kids[x]))
            break
    verdicts.append(ConditionVerdict("t-branching", witness is None, witness))

    witness = None
    for z in nodes:
        for i, x in enumerate(kids[z]):
            for y in kids[z][i + 1:]:
                if (x, y) not in d.incompat:
                    witness = (x, y, z)
                    break
            if witness:
                break
        if witness:
            break
    verdicts.append(ConditionVerdict("t-incompat", witness is None, witness))

    witness = None
    for x in nodes:
        if x in maximal:
            continue
        for z in s.states:
            if (z, x) not in d.sms:
                continue
            if not any((v, z) in s.relation and (v, w) in s.relation
                       for w in kids[x] for v in s.states):
                witness = (z, x)
                break
        if witness:
            break
    verdicts.append(ConditionVerdict("t-unbiased", witness is None, witness))

    return TreeCheckReport(tuple(verdicts))


def build_tree(s: EStructure, nodes: Sequence[str],
               edges: Iterable[tuple[str, str]]) -> ExperimentationTree:
    """Check the seven conditions and assemble the verified tree."""
    nodes = tuple(nodes)
    edges = tuple(edges)
    report = check_tree(s, nodes, edges)
    if not report.passed:
        raise TreeError("tree conditions failed: "
                        + ", ".join(report.failed_ids))
    order = _tree_order(nodes, edges)
    strict = {(x, y) for x, y in order if (y, x) not in order}
    parent: dict[str, str] = {}
    for x in nodes:
        if x == s.root:
            continue
        parent[x] = next(
            p for p in nodes
            if (x, p) in strict and not any(
                (x, y) in strict and (y, p) in strict for y in nodes))
    return ExperimentationTree(s, nodes, parent)


def find_trees(s: EStructure,
               max_count: int | None = None) -> tuple[ExperimentationTree, ...]:
    """Enumerate every experimentation tree of the structure.

    Deterministic: node subsets by size then declaration order, parent
    choices in declaration order. Parents are drawn from the ambient
    immediate-refinement pairs, which every valid tree's edges must follow;
    each candidate then runs the full seven-condition check. With
    max_count set, enumeration stops early after that many trees; it must
    then be at least 1.
    """
    if max_count is not None and max_count < 1:
        raise ValueError(f"max_count must be at least 1, not {max_count}")
    d = s.derived
    others = tuple([x for x in s.states if x != s.root])
    found: list[ExperimentationTree] = []
    for size in range(1, len(others) + 1):
        for subset in combinations(others, size):
            members = set(subset)
            members.add(s.root)
            nodes = tuple([x for x in s.states if x in members])
            candidates = []
            for x in subset:
                ps = tuple([p for p in nodes if (x, p) in d.immms])
                if not ps:
                    candidates = None
                    break
                candidates.append(ps)
            if candidates is None:
                continue
            for assign in product(*candidates):
                edges = tuple(zip(subset, assign))
                if check_tree(s, nodes, edges).passed:
                    found.append(ExperimentationTree(s, nodes, dict(edges)))
                    if max_count is not None and len(found) >= max_count:
                        return tuple(found)
    return tuple(found)


@dataclass(frozen=True)
class PartitionSequence:
    """Coarse-to-fine event partitions read off a tree.

    Stage n holds the events of tree nodes at tree rank n together with
    events of shallower nodes that are already maximal in the tree. Events
    live in the canonical space of the tree's ambient structure. Each
    stage partitions the whole space, each stage refines the one before,
    and the sequence stabilizes at the tree's depth: the last stage is
    exactly the maximal tree nodes' events.
    """

    space: CanonicalSpace
    members: tuple[tuple[str, ...], ...]
    blocks: tuple[tuple[frozenset[int], ...], ...] = field(repr=False)

    @property
    def stages(self) -> int:
        return len(self.blocks)

    def is_refinement_chain(self) -> bool:
        for prev, cur in zip(self.blocks, self.blocks[1:]):
            for blk in cur:
                if not any(blk <= old for old in prev):
                    return False
        return True


def partitions(t: ExperimentationTree,
               space: CanonicalSpace | None = None) -> PartitionSequence:
    """The refinement filtration of the tree's events."""
    if space is None:
        space = build_canonical(t.ambient)
    rho = t.rank_in_tree
    leaves = set(t.leaves)
    stages_members: list[tuple[str, ...]] = []
    stages_blocks: list[tuple[frozenset[int], ...]] = []
    for n in range(t.depth + 1):
        members = tuple([x for x in t.nodes
                         if rho[x] == n or (rho[x] < n and x in leaves)])
        stages_members.append(members)
        stages_blocks.append(tuple([space.events[x] for x in members]))
    return PartitionSequence(space, tuple(stages_members),
                             tuple(stages_blocks))


def decompose_field_element(t: ExperimentationTree,
                            element: Iterable[int]) -> tuple[str, ...]:
    """Write a set of the tree's own sample points as a disjoint union of
    node events, using as few and as shallow nodes as possible.

    Greedy by tree rank then declaration order; because tree events form
    a laminar family this always lands on the unique maximal-block
    decomposition.
    """
    universe = frozenset(range(len(t.canonical.atoms)))
    remaining = set(element)
    if not remaining <= universe:
        raise TreeError("element mentions unknown sample points")
    picked: list[str] = []
    index = {x: i for i, x in enumerate(t.nodes)}
    for x in sorted(t.nodes, key=lambda x: (t.rank_in_tree[x], index[x])):
        ev = t.canonical.events[x]
        if ev and ev <= remaining:
            picked.append(x)
            remaining -= ev
    if remaining:
        raise TreeError(f"element is not a union of node events: "
                        f"{sorted(remaining)} left over")
    return tuple(picked)
