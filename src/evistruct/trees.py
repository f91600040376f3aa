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

from collections import Counter
from collections.abc import Collection, Iterable, Mapping, Sequence, Set
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from types import MappingProxyType
from typing import TYPE_CHECKING

from .structure import (ConditionReport, DerivedRelations, EStructure,
                        StructureError, _bits, _closed_rows,
                        _condition_report, _lowest)

if TYPE_CHECKING:
    from .canonical import CanonicalSpace

TREE_CONDITION_IDS: tuple[str, ...] = (
    "t-root", "t-order", "t-parent", "t-immediate",
    "t-branching", "t-incompat", "t-unbiased",
)


class TreeError(StructureError):
    """Raised for malformed tree input or failed tree conditions."""


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
        parent: child -> parent for every non-root node, a read-only copy
            of the mapping given; anything but a mapping is kept as given,
            for the verifiers to reject.
    """

    ambient: EStructure
    nodes: tuple[str, ...]
    parent: Mapping[str, str]

    def __post_init__(self) -> None:
        # frozen, so every cached view below is a function of the fields
        if isinstance(self.parent, Mapping):
            object.__setattr__(self, "parent",
                               MappingProxyType(dict(self.parent)))

    @classmethod
    def _adopt(cls, ambient: EStructure, nodes: tuple[str, ...],
               parent: dict[str, str]) -> ExperimentationTree:
        """The tree on a parent dict its caller has just built and hands
        over: wrapped read-only as the constructor wraps its copy, but
        not copied, since no one else holds the dict."""
        tree = cls.__new__(cls)
        tree.__dict__.update(ambient=ambient, nodes=nodes,
                             parent=MappingProxyType(parent))
        return tree

    def __reduce__(self):
        # a mappingproxy does not pickle; loading makes the copy again
        parent = self.parent
        if isinstance(parent, MappingProxyType):
            parent = dict(parent)
        return type(self), (self.ambient, self.nodes, parent)

    @property
    def root(self) -> str:
        return self.ambient.root

    @property
    def children(self) -> Mapping[str, tuple[str, ...]]:
        """Each node's children in node order, read-only: its own
        structure's immed_sets (s.derived.immed_sets for a tree spanning
        s); TreeError as for as_estructure."""
        return self.as_estructure.derived.immed_sets

    @cached_property
    def rank_in_tree(self) -> dict[str, int]:
        """Each node's depth, in node order: the size of its up-row in
        the tree's own structure, less itself."""
        rows = self.as_estructure.derived.up
        return {x: row.bit_count() - 1 for x, row in zip(self.nodes, rows)}

    @cached_property
    def _top_down(self) -> tuple[str, ...]:
        """The nodes, each after its parent; empty unless the nodes are
        distinct and the parent map is a tree-shaped mapping among them."""
        p, nodes = self.parent, set(self.nodes)
        if (isinstance(p, Mapping) and len(nodes) == len(self.nodes)
                and {*p, *p.values()} <= nodes):
            return _shape(self.nodes, p.items(), self.root)[2]
        return ()

    @property
    def depth(self) -> int:
        return max(self.rank_in_tree.values())

    @cached_property
    def leaves(self) -> tuple[str, ...]:
        return tuple([x for x in self.nodes if not self.children[x]])

    @property
    def order(self) -> frozenset[tuple[str, str]]:
        """The tree order: (x, y) when y is on the path from x to the root."""
        return self.as_estructure.relation

    @cached_property
    def as_estructure(self) -> EStructure:
        """The tree as a structure in its own right. Its order is read off
        the parent map by one top-down pass of bit rows over the tree's own
        node indices; when those rows are the ambient structure's, the
        ambient structure itself is returned. Otherwise the new structure's
        ``derived`` is seeded from the same rows. TreeError when the parent
        map is not a tree of two or more nodes."""
        top_down = self._top_down
        if len(top_down) < 2:  # not a tree, or the root alone
            raise TreeError("parent map is not a tree of two or more nodes")
        nodes, s, parent = self.nodes, self.ambient, self.parent
        index = {x: i for i, x in enumerate(nodes)}
        up: dict[str, int] = {}
        for x in top_down:  # each after its parent
            up[x] = (up[parent[x]] if x in parent else 0) | 1 << index[x]
        rows = [up[x] for x in nodes]
        if nodes == s.states and tuple(rows) == s.derived.up:
            return s
        return EStructure._seeded(nodes, self.root, rows, index)

    @property
    def canonical(self) -> CanonicalSpace:
        """The canonical space kept on the tree's own structure."""
        return self.as_estructure.canonical

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


def _validate_members(known: Set[str], nodes: Sequence[str],
                      edges: Iterable[tuple[str, str]]) -> None:
    """The one node-list check: nodes are distinct members of known, and
    every edge joins two of them. A scan names the first fault."""
    seen = set(nodes)
    if (len(seen) == len(nodes) and seen <= known
            and seen.issuperset(chain.from_iterable(edges))):
        return
    seen.clear()
    for x in nodes:
        if x not in known:
            raise TreeError(f"tree node {x!r} is not a state")
        if x in seen:
            raise TreeError(f"duplicate tree node {x!r}")
        seen.add(x)
    for c, p in edges:
        if c not in seen or p not in seen:
            raise TreeError(f"edge ({c!r}, {p!r}) mentions a non-node")


def _given(nodes: Iterable[str], edges: Iterable[tuple[str, str]]
           ) -> tuple[tuple[str, ...], tuple[tuple[str, str], ...]]:
    """The public wrappers' nodes and edges as tuples. TreeError names,
    as given, the first node that is not hashable and the first edge
    that is not a (child, parent) pair, a tuple or list of two hashable
    ends."""
    nodes, edges = tuple(nodes), tuple(edges)
    try:
        hash((nodes, edges))  # hashes every node, and every end of a tuple
    except TypeError:
        pairs = False
    else:
        pairs = (set(map(type, edges)) <= {tuple}
                 and set(map(len, edges)) <= {2})
    if not pairs:
        for x in nodes:
            if not _hashable(x):
                raise TreeError(f"tree node {x!r} is not a state")
        for e in edges:
            if not (isinstance(e, (tuple, list)) and len(e) == 2
                    and all(map(_hashable, e))):
                raise TreeError(f"edge {e!r} is not a (child, parent) pair")
    return nodes, edges


def _hashable(x: object) -> bool:
    try:
        hash(x)
    except TypeError:
        return False
    return True


def check_graph_tree(nodes: Sequence[str], edges: Iterable[tuple[str, str]],
                     root: str) -> GraphReport:
    """Shape check only: one parent each, no cycles, all reach the root.
    A repeated node, an edge that mentions a non-node, or input that is
    not a list of nodes and a list of (child, parent) pairs raises
    TreeError."""
    nodes, edges = _given(nodes, edges)
    _validate_members(set(nodes), nodes, edges)
    return _shape(nodes, edges, root)[0]


def _shape(nodes: Sequence[str], edges: Collection[tuple[str, str]],
           root: str) -> tuple[GraphReport, dict[str, str], tuple[str, ...]]:
    """check_graph_tree's report and, when the edges form a tree, the
    child -> parent map and the nodes top-down, each after its parent.

    Callers have checked that the nodes are distinct and that edges join
    them, so edges giving each node but the root one parent are the
    parent map; otherwise a scan finds the first node that has not one
    parent (none, for the root). A walk up from any node then meets the
    root or runs into a cycle; it stops at the first node already
    placed, so on a tree each node is walked over once.
    """
    parent = dict(edges)
    if not (len(parent) == len(edges) == len(nodes) - 1
            and root not in parent and root in nodes):
        ups = Counter([c for c, _ in edges])
        for x in nodes:
            if ups[x] != (0 if x == root else 1):
                witness = ("root has parent", x) if x == root else (x, ups[x])
                return GraphReport(False, True, False, witness), {}, ()
    top_down = [root] if root in nodes else []
    placed = set(top_down)
    for x in nodes:
        if x not in placed and parent[x] in placed:  # one step up
            placed.add(x)
            top_down.append(x)
            continue
        trail: list[str] = []
        while x not in placed:
            if x in trail:
                cycle = trail[trail.index(x):] + [x]
                return GraphReport(False, False, True, tuple(cycle)), {}, ()
            trail.append(x)
            x = parent[x]
        placed.update(trail)
        top_down.extend(reversed(trail))
    return GraphReport(True, True, True), parent, tuple(top_down)


def check_tree(s: EStructure, nodes: Sequence[str],
               edges: Iterable[tuple[str, str]]) -> ConditionReport:
    """Evaluate the seven tree conditions, with a witness per failure.

    The tree order is the reachability closure of the given edges; nothing
    about the edge list itself is assumed beyond membership in the node
    set. Condition failures land in the report, never in an exception;
    malformed input (a repeated node or one that is not a state, an edge
    to a non-node or one that is not a (child, parent) pair) raises
    TreeError.
    """
    return _check_tree(s, *_given(nodes, edges))[0]


def _check_tree(s: EStructure, nodes: tuple[str, ...],
                edges: tuple[tuple[str, str], ...]
                ) -> tuple[ConditionReport, ExperimentationTree | None]:
    """check_tree's report and, when it passes, the checked tree.

    A tree-shaped edge list (check_graph_tree) is read in one top-down
    pass over bit rows of ambient indices, a node's tree up-set being its
    parent's plus itself, which tests t-order and t-immediate (a node's
    one parent) as it goes; the kids are then read in node order, since
    the t-incompat witness depends on it. Its tree is built on the
    parent map _shape read, with that top-down order cached on it. Any
    other list, one with a redundant transitive edge say, orders the
    nodes by the row closure of its edges, and its tree hangs each node
    from its one immediate predecessor there. Either way, one loop over
    the nodes with kids checks the rest.
    """
    d, root, states = s.derived, s.root, s.states
    index, ups, incompat = d.index, d.up, d.incompat_rows
    _validate_members(index.keys(), nodes, edges)
    shape, parent, top_down = _shape(nodes, edges, root)
    if shape.is_tree:
        ambient_parents = d.parents
        r = index[root]  # the first node top-down, with no parent
        up = {root: 1 << r}
        # the nodes failing t-order and t-immediate
        order, immediate = [root] if up[root] & ~ups[r] else [], []
        for x in top_down[1:]:
            i, p = index[x], parent[x]
            row = up[x] = up[p] | 1 << i
            if row & ~ups[i]:
                order.append(x)
            if p not in ambient_parents[x]:
                immediate.append(x)
        kids: dict[str, list[str]] = {x: [] for x in nodes}
        for x in nodes:
            if x in parent:
                kids[parent[x]].append(x)
        # least pairs, as on the closure route; t-parent holds by _shape
        x, y = min(order, default=None), min(immediate, default=None)
        t_order = None if x is None else (x, min(
            [states[j] for j in _bits(up[x] & ~ups[index[x]])]))
        t_parent = None
        t_immediate = None if y is None else (y, parent[y])
    else:
        local = {x: i for i, x in enumerate(nodes)}
        t = EStructure._seeded(nodes, root, _closed_rows(local, edges),
                               local)
        parents, kids = t.derived.parents, t.derived.immed_sets
        t_order = min(t.relation - s.relation, default=None)
        t_parent = next(((x, len(parents[x])) for x in nodes
                         if x != root and len(parents[x]) != 1), None)
        t_immediate = min([(x, z) for x in nodes for z in parents[x]
                           if z not in d.parents[x]], default=None)
    t_root = (("root missing",) if root not in nodes else
              ("fewer than two nodes",) if len(nodes) < 2 else None)
    branching = clash = unbiased = None
    refiners = d.refiners
    for x, ks in kids.items():  # in node order
        if not ks:  # a maximal node
            continue
        if len(ks) == 1 and branching is None:
            branching = (x, 1)
        # the strict refiners of x incompatible with every kid so far
        i = index[x]
        bad, seen = refiners[i] & ~ups[i], 0
        for w in ks:
            j = index[w]
            row = incompat[j]
            if seen & ~row and clash is None:  # the first pair, in order
                clash = next((a, b, x) for n, a in enumerate(ks)
                             for b in ks[n + 1:]
                             if not incompat[index[a]] >> index[b] & 1)
            bad &= row
            seen |= 1 << j
        if bad and unbiased is None:
            unbiased = (states[_lowest(bad)], x)
    witnesses = [t_root, t_order, t_parent, t_immediate, branching, clash,
                 unbiased]
    report = _condition_report(TREE_CONDITION_IDS, witnesses)
    if any(witnesses):
        return report, None
    if not top_down:  # closed: t-parent passed, so one predecessor each
        parent = {x: parents[x][0] for x in nodes if x != root}
    tree = ExperimentationTree._adopt(s, nodes, parent)  # a fresh dict
    if top_down:  # on the instance, not a field: see build_tree
        tree.__dict__["_top_down"] = top_down
    return report, tree


def build_tree(s: EStructure, nodes: Sequence[str],
               edges: Iterable[tuple[str, str]]) -> ExperimentationTree:
    """Check the seven conditions and return the checked tree, with the
    top-down order the check read cached on the instance, not in a
    field, so a dataclasses.replace copy reads its own shape."""
    report, tree = _check_tree(s, *_given(nodes, edges))
    if tree is None:
        raise TreeError("tree conditions failed: "
                        + ", ".join(report.failed_ids))
    return tree


def as_tree(s: EStructure) -> ExperimentationTree:
    """The whole structure read as a tree through its immediate-refinement
    pairs: each non-root state hangs from its one immediate predecessor.

    Raises TreeError when a state has no or several immediate
    predecessors, or when the seven conditions fail on the result. Each
    call builds and checks a new tree. When the tree's order is s's own,
    as on any closed relation, its as_estructure is s, so every such tree
    shares s's canonical space and the passes kept there.
    """
    parents = s.derived.parents
    others = [x for x in s.states if x != s.root]
    for x in others:
        if len(parents[x]) != 1:
            raise TreeError(
                f"state {x!r} has {len(parents[x])} immediate predecessors, "
                f"so the structure is not itself a tree")
    return build_tree(s, s.states, [(x, parents[x][0]) for x in others])


def find_trees(s: EStructure, max_count: int | None = None
               ) -> tuple[ExperimentationTree, ...]:
    """Enumerate every experimentation tree of the structure.

    Trees are grown top-down from the root. Every condition but t-root
    concerns one node and its set of tree children, so each state's
    admissible child sets are computed once: two or more of its immediate
    refinements, pairwise incompatible, such that every ambient state
    strictly refining it is compatible with one of them (t-unbiased).
    That search stops early where no set can be admissible: at a state
    with fewer than two immediate refinements, at a refiner compatible
    with none of them, and past a kid that alone is compatible with some
    refiner. Growth is depth first: each open node either stays a leaf
    or takes one admissible child set with no member already in the
    tree. Every grown tree then passes check_tree before it is returned;
    the structure's relation must be a closed preorder, as every
    constructor makes it.

    Deterministic order, by node count, then the declaration indices of
    the non-root nodes. A node set carries at most one tree: two
    candidate parents of one node are both refined by it, so they are
    compatible and must be nested in the tree, which puts one strictly
    between the node and the other, against immediacy. With max_count
    set (at least 1), trees are grown size by size under a node budget,
    and growth stops at the first budget that yields max_count trees.
    """
    if max_count is not None and max_count < 1:
        raise ValueError(f"max_count must be at least 1, not {max_count}")
    d = s.derived
    child_sets = {z: _child_sets(d, z) for z in s.states}
    most = len(s.states) - 1
    grown: list[dict[str, str]] = []
    for budget in range(1, most + 1) if max_count else (most,):
        grown = _grow(s.root, child_sets, budget)
        if max_count and len(grown) >= max_count:
            break
    grown.sort(key=lambda parent: (len(parent),
                                   sorted([d.index[x] for x in parent])))
    found: list[ExperimentationTree] = []
    for parent in grown[:max_count]:
        nodes = tuple([x for x in s.states if x == s.root or x in parent])
        report, tree = _check_tree(s, nodes, tuple(parent.items()))
        if tree is None:
            raise TreeError("a grown tree fails "
                            + ", ".join(report.failed_ids)
                            + "; is the relation a closed preorder?")
        found.append(tree)
    return tuple(found)


def _child_sets(d: DerivedRelations, z: str) -> list[tuple[str, ...]]:
    """The sets of tree children z may take, each in declaration order:
    two or more of Y(z), pairwise incompatible, meeting every need (the
    kids compatible with one strict refiner of z).

    A depth-first search extends each set in kid order. It returns []
    at once when z has fewer than two kids or some need is empty. A kid
    that alone meets some need is forced: every admissible set holds
    it, so a branch never extends past a forced kid it did not take.
    """
    kids, incompat = d.immed_sets[z], d.incompat_rows
    if len(kids) < 2:
        return []
    rows = [incompat[d.index[k]] for k in kids]
    bits = [1 << d.index[k] for k in kids]
    i, every = d.index[z], sum(bits)
    needs = {every & ~incompat[y] for y in _bits(d.refiners[i] & ~d.up[i])}
    if 0 in needs:
        return []
    forced = [b in needs for b in bits]
    out: list[tuple[str, ...]] = []
    stack: list[tuple[tuple[str, ...], int, int]] = [((), 0, 0)]
    while stack:  # pairwise incompatible subsets, extended in kid order
        chosen, mask, start = stack.pop()
        if len(chosen) >= 2 and all(n & mask for n in needs):
            out.append(chosen)
        for k in range(start, len(kids)):
            if not mask & ~rows[k]:
                stack.append((chosen + (kids[k],), mask | bits[k], k + 1))
            if forced[k]:  # a later kid would pass it by
                break
    return out


def _grow(root: str, child_sets: Mapping[str, list[tuple[str, ...]]],
          budget: int) -> list[dict[str, str]]:
    """Every tree of 1 to budget non-root nodes, as child -> parent maps."""
    out: list[dict[str, str]] = []
    stack: list[tuple[dict[str, str], tuple[str, ...]]] = [({}, (root,))]
    while stack:
        parent, open_nodes = stack.pop()
        if not open_nodes:
            if parent:  # the root alone is not a tree
                out.append(parent)
            continue
        z, rest = open_nodes[0], open_nodes[1:]
        stack.append((parent, rest))  # z stays a leaf
        for kids in child_sets[z]:
            if (len(parent) + len(kids) <= budget
                    and parent.keys().isdisjoint(kids)):
                grown = dict(parent)
                grown.update(dict.fromkeys(kids, z))
                stack.append((grown, rest + kids))
    return out


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
        return all(any(blk <= old for old in prev) for prev, cur
                   in zip(self.blocks, self.blocks[1:]) for blk in cur)


def partitions(t: ExperimentationTree) -> PartitionSequence:
    """The tree's refinement filtration; TreeError on a malformed tree."""
    _validate_members(t.ambient.derived.index.keys(), t.nodes, ())
    space, rho, leaves = t.ambient.canonical, t.rank_in_tree, t.leaves
    members = tuple([tuple([x for x in t.nodes if rho[x] == n
                            or (rho[x] < n and x in leaves)])
                     for n in range(t.depth + 1)])
    return PartitionSequence(space, members, tuple(
        [tuple([space.events[x] for x in stage]) for stage in members]))


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
    for x in sorted(t.nodes, key=t.rank_in_tree.__getitem__):  # stable
        ev = t.canonical.events[x]
        if ev and ev <= remaining:
            picked.append(x)
            remaining -= ev
    if remaining:
        raise TreeError(f"element is not a union of node events: "
                        f"{sorted(remaining)} left over")
    return tuple(picked)
