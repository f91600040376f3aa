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
from collections.abc import (Collection, Hashable, Iterable, Mapping,
                             Sequence, Set)
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from types import MappingProxyType
from typing import TYPE_CHECKING

from .structure import (ConditionReport, DerivedRelations, EStructure,
                        StructureError, _bits, _closed_rows,
                        _condition_report, _lowest, _root_index)

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
        """The nodes, each after its parent; empty unless the parent map
        is a mapping whose items pass the tree-input check (_given) on
        the nodes and form a tree."""
        if not isinstance(self.parent, Mapping):
            return ()
        try:
            nodes, edges = _given(self.nodes, self.parent.items())
        except TreeError:
            return ()
        return _shape(nodes, edges, self.root)[2]

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
        """Nodes from the root down to x, inclusive; TreeError, as for
        as_estructure, when the parent map is not a tree, and when x is
        not a node."""
        rank = self.rank_in_tree  # read off the checked shape
        if x not in self.nodes:
            raise TreeError(f"{x!r} is not a tree node")
        path = [x]
        for _ in range(rank[x]):
            path.append(self.parent[path[-1]])
        return tuple(reversed(path))


def _given(nodes: Iterable[str], edges: Iterable[tuple[str, str]],
           known: Set[str] | None = None, root: object = None
           ) -> tuple[tuple[str, ...], tuple[tuple[str, str], ...]]:
    """The one tree-input check: the nodes and edges as tuples, once both
    are collections, the nodes are distinct and hashable (and members of
    known, when given), every edge is a (child, parent) pair, a tuple
    or list of two, joining two of them, and root, when given, is
    hashable. A scan of the nodes, then of the edges, then of the root,
    names the first fault as given."""
    given = []
    for name, items in (("nodes", nodes), ("edges", edges)):
        try:
            read = iter(items)
        except TypeError:
            raise TreeError(f"tree {name} {items!r} are not a collection"
                            ) from None
        given.append(tuple(read))
    nodes, edges = given
    try:
        seen = set(nodes)
        if (len(seen) == len(nodes) and (known is None or seen <= known)
                and set(map(type, edges)) <= {tuple}
                and set(map(len, edges)) <= {2}
                and seen.issuperset(chain.from_iterable(edges))
                and _hashable(root)):
            return nodes, edges
    except TypeError:  # something not hashable: the scan names it
        pass
    seen = set()
    for x in nodes:
        if not _hashable(x) or (known is not None and x not in known):
            raise TreeError(f"tree node {x!r} is not a state")
        if x in seen:
            raise TreeError(f"duplicate tree node {x!r}")
        seen.add(x)
    for e in edges:
        if not (isinstance(e, (tuple, list)) and len(e) == 2
                and all(map(_hashable, e))):
            raise TreeError(f"edge {e!r} is not a (child, parent) pair")
        c, p = e
        if c not in seen or p not in seen:
            raise TreeError(f"edge ({c!r}, {p!r}) mentions a non-node")
    if not _hashable(root):
        raise TreeError(f"tree root {root!r} is not hashable")
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
    The input goes through the one tree-input check (_given) with any
    hashable node allowed: a repeated node, an edge that mentions a
    non-node, input that is not a list of nodes and a list of (child,
    parent) pairs, or a root that is not hashable raises TreeError,
    node faults first. A hashable root that is no node fails the
    report."""
    return _shape(*_given(nodes, edges, None, root), root)[0]


def _shape(nodes: Sequence[Hashable],
           edges: Collection[tuple[Hashable, Hashable]], root: Hashable,
           parent: dict | None = None) -> tuple[GraphReport, dict, tuple]:
    """check_graph_tree's report and, when the edges form a tree, the
    child -> parent map and the nodes top-down, each after its parent:
    the one shape reader. Nodes are any distinct labels: names for
    check_graph_tree and a tree's own _top_down, ambient indices for
    the seven-condition checks, whose kernel reads no name and calls
    this only for an order that is not top-down. parent, when given, is
    dict(edges), as its caller has read it already.

    Callers have checked that the nodes are distinct and that edges join
    them, so edges giving each node but the root one parent are the
    parent map; otherwise a scan finds the first node that has not one
    parent (none, for the root). A walk up from any node then meets the
    root or runs into a cycle; it stops at the first node already
    placed, so on a tree each node is walked over once, and nodes
    already top-down come back in their order.
    """
    if parent is None:
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
        trail: list[Hashable] = []
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
    malformed input raises TreeError from the one tree-input check
    (_given, with the states as known), which names the first fault as
    given: a node that is not a state or is repeated, then an edge that
    is not a (child, parent) pair or mentions a non-node.
    """
    return _check_tree(s, *_given(nodes, edges, s.derived.index.keys()))[0]


def _check_tree(s: EStructure, nodes: tuple[str, ...],
                edges: tuple[tuple[str, str], ...]
                ) -> tuple[ConditionReport, ExperimentationTree | None]:
    """check_tree's report and, when it passes, the checked tree. The
    nodes and edges come checked, as _given returns them, and are mapped
    to ambient indices once, for the index entry, _tree_at."""
    index = s.derived.index
    return _tree_at(s, [index[x] for x in nodes],
                    [(index[c], index[p]) for c, p in edges])


def _tree_at(s: EStructure, order: Sequence[int],
             edges: Collection[tuple[int, int]]
             ) -> tuple[ConditionReport, ExperimentationTree | None]:
    """The seven conditions' report and, when it passes, the tree, on
    ambient indices: order lists the nodes, distinct, and edges are
    (child, parent) pairs of them. A tree-shaped edge list on one or
    more nodes (check_graph_tree) goes to the kernel, _tree_verdict,
    with its parent map, read once. When the edges give each node but
    the root one parent, the kernel first checks the nodes in the order
    given, and only an order it finds not top-down is read by _shape
    and checked again; a tree that passes is built on the edges
    (_passed). Any other list, one with a redundant transitive edge
    say, orders the nodes by the row closure of its edges, and its tree
    hangs each node from its one immediate predecessor there. Both
    routes judge each node with kids through _judge_nodes. A root that
    is no state, an unhashable one included, is missing.
    """
    d, root, r = s.derived, s.root, _root_index(s)
    parent, top_down, report = dict(edges), order, None
    if len(parent) == len(edges) == len(order) - 1 and r not in parent:
        report, up = _tree_verdict(d, r, order, parent, order, {})
    if report is None:  # not one parent each, or the order not top-down
        shape, parent, top_down = _shape(order, edges, r, parent)
        if shape.is_tree and top_down:
            report, up = _tree_verdict(d, r, order, parent, top_down, {})
    if report is not None:
        return report, None if up is None else _passed(s, order, parent,
                                                       top_down, up)
    states = d.states
    nodes = tuple([states[i] for i in order])
    local = {x: i for i, x in enumerate(nodes)}
    t = EStructure._seeded(nodes, root, _closed_rows(
        local, [(states[c], states[p]) for c, p in edges]), local)
    parents, immed = t.derived.parents, t.derived.immed_sets
    t_root = (("root missing",) if r is None or root not in local else
              ("fewer than two nodes",) if len(nodes) < 2 else None)
    t_order = min(t.relation - s.relation, default=None)
    t_parent = next(((x, len(parents[x])) for x in nodes
                     if x != root and len(parents[x]) != 1), None)
    t_immediate = min([(x, z) for x in nodes for z in parents[x]
                       if z not in d.parents[x]], default=None)
    kids = {i: sum([1 << d.index[k] for k in immed[x]])
            for i, x in zip(order, nodes)}
    witnesses = [t_root, t_order, t_parent, t_immediate,
                 *_judge_nodes(d, order, kids, {})]
    report = _condition_report(TREE_CONDITION_IDS, witnesses)
    if any(witnesses):
        return report, None
    # t-parent passed, so one predecessor each
    return report, ExperimentationTree._adopt(
        s, nodes, {x: parents[x][0] for x in nodes if x != root})


def _tree_verdict(d: DerivedRelations, root: int, order: Sequence[int],
                  parent: Mapping[int, int], top_down: Sequence[int],
                  judged: dict[tuple[int, int], tuple]
                  ) -> tuple[ConditionReport | None, list[int] | None]:
    """The seven conditions on a parent map, and the tree up rows when
    all hold: the kernel every tree check runs (check_tree, build_tree,
    as_tree and find_trees).

    Everything is on ambient indices: order is the nodes in node order,
    root one of them, parent maps each other node to a node, and
    top_down lists the nodes in the order to walk. One pass down checks
    that order is top-down: the root first, then each node once, after
    its parent, until every node of order is placed. When it is not,
    the kernel returns (None, None), which is no condition failure: its
    caller reads the order with _shape and calls again, so t-parent is
    checked on every tree, here or there. The same pass builds each
    node's tree up row, its parent's plus itself, and each node's kid
    mask, and tests t-order (the row inside the ambient up row) and
    t-immediate (the parent among the node's ambient parents).
    _judge_nodes then judges each node with kids through judged, the
    memo find_trees keeps across the trees it checks (check_tree hands
    in an empty one). The rows are indexed by state, 0 where a state is
    no node.
    """
    if not top_down or top_down[0] != root or len(top_down) != len(order):
        return None, None
    states, ups, parents = d.states, d.up, d.parents
    up = [0] * len(ups)
    up[root] = 1 << root
    kids = dict.fromkeys(order, 0)  # in node order
    # the nodes failing t-order and t-immediate
    late = [] if ups[root] >> root & 1 else [root]
    skips = []
    for i in top_down[1:]:
        if up[i]:  # placed already
            return None, None
        p, bit = parent[i], 1 << i
        above = up[p]
        if not above:  # its parent is not placed yet
            return None, None
        row = up[i] = above | bit
        kids[p] |= bit
        if row & ~ups[i]:
            late.append(i)
        if states[p] not in parents[states[i]]:
            skips.append(i)
    # least pairs by name, as on the closure route
    t_order = t_immediate = None
    if late:
        i = min(late, key=states.__getitem__)
        t_order = (states[i], min([states[j]
                                   for j in _bits(up[i] & ~ups[i])]))
    if skips:
        i = min(skips, key=states.__getitem__)
        t_immediate = (states[i], states[parent[i]])
    t_root = ("fewer than two nodes",) if len(order) < 2 else None
    witnesses = [t_root, t_order, None, t_immediate,
                 *_judge_nodes(d, order, kids, judged)]
    return (_condition_report(TREE_CONDITION_IDS, witnesses),
            None if any(witnesses) else up)


def _passed(s: EStructure, order: Sequence[int], parent: Mapping[int, int],
            top_down: Sequence[int], up: list[int]) -> ExperimentationTree:
    """The tree the kernel passed, named: it wraps the parent dict it
    names (_adopt) and keeps the top-down order the check read on the
    instance, not in a field, so a dataclasses.replace copy reads its
    own shape; when that order is order itself, the node tuple is it.
    A tree on all of s in declaration order whose up rows are s's own
    has s as its own structure, kept the same way as as_estructure,
    which would read the same rows again."""
    d = s.derived
    states = d.states
    nodes = tuple([states[i] for i in order])
    tree = ExperimentationTree._adopt(
        s, nodes, {states[c]: states[p] for c, p in parent.items()})
    tree.__dict__["_top_down"] = (nodes if top_down is order else
                                  tuple([states[i] for i in top_down]))
    if nodes == states and tuple(up) == d.up:
        tree.__dict__["as_estructure"] = s
    return tree


def _judge_nodes(d: DerivedRelations, order: Sequence[int],
                 kids: Mapping[int, int], judged: dict[tuple[int, int], tuple]
                 ) -> list[tuple | None]:
    """The t-branching, t-incompat and t-unbiased witnesses: for each,
    the first one _node_conditions gives over kids, which maps the
    nodes, in node order, to their kid masks. judged memoizes it by
    (node, kid mask); the one other thing it reads, the kids' node
    order, is declaration order for every tree one search checks."""
    branching = clash = unbiased = None
    for i, mask in kids.items():
        if mask:
            found = judged.get((i, mask))
            if found is None:
                found = judged[i, mask] = _node_conditions(d, i, mask,
                                                           order)
            b, c, u = found
            branching, clash = branching or b, clash or c
            unbiased = unbiased or u
    return [branching, clash, unbiased]


def _node_conditions(d: DerivedRelations, i: int, kids: int,
                     order: Sequence[int]
                     ) -> tuple[tuple | None, tuple | None, tuple | None]:
    """The one per-node judgement: the t-branching, t-incompat and
    t-unbiased witnesses at state i with the tree children in the kid
    mask kids, each None when its condition holds there. t-incompat
    names the first compatible pair with the kids in node order (order
    lists the nodes), t-unbiased the lowest strict refiner of i
    incompatible with every kid."""
    incompat = d.incompat_rows
    bad, met, rest = d.refiners[i] & ~d.up[i], 0, kids
    while rest:  # _bits, inlined
        low = rest & -rest
        row = incompat[low.bit_length() - 1]
        met |= kids & ~row & ~low  # the other kids this one meets
        bad &= row
        rest ^= low
    states, clash = d.states, None
    if met:  # the first pair, in node order
        listed = [j for j in order if kids >> j & 1]
        clash = next((states[a], states[b], states[i])
                     for n, a in enumerate(listed) for b in listed[n + 1:]
                     if not incompat[a] >> b & 1)
    return ((states[i], 1) if not kids & (kids - 1) else None, clash,
            (states[_lowest(bad)], states[i]) if bad else None)


def build_tree(s: EStructure, nodes: Sequence[str],
               edges: Iterable[tuple[str, str]]) -> ExperimentationTree:
    """Check the seven conditions and return the checked tree, with the
    top-down order the check read cached on the instance, not in a
    field, so a dataclasses.replace copy reads its own shape; a tree on
    a tree-shaped list that is all of s with s's own rows keeps s as its
    as_estructure the same way (see _passed)."""
    return _built(*_check_tree(s, *_given(nodes, edges,
                                          s.derived.index.keys())))


def _built(report: ConditionReport, tree: ExperimentationTree | None
           ) -> ExperimentationTree:
    """The tree that passed, or TreeError naming the failed conditions."""
    if tree is None:
        raise TreeError("tree conditions failed: "
                        + ", ".join(report.failed_ids))
    return tree


def as_tree(s: EStructure) -> ExperimentationTree:
    """The whole structure read as a tree through its immediate-refinement
    pairs: each non-root state hangs from its one immediate predecessor.

    Raises TreeError when a state has no or several immediate
    predecessors, or is repeated, or when the seven conditions fail on
    the result. Each call checks a new tree, handing each state's parent
    index (``derived.parents``) to the index entry, _tree_at, with no
    input check or name mapping. When the tree's order is s's own, as on
    any closed relation, its as_estructure is s, so every such tree
    shares s's canonical space and the passes kept there.
    """
    d = s.derived
    states, index, parents = d.states, d.index, d.parents
    root, parent = s.root, {}
    for i, x in enumerate(states):
        if x != root:
            above = parents[x]
            if len(above) != 1:
                raise TreeError(
                    f"state {x!r} has {len(above)} immediate predecessors, "
                    f"so the structure is not itself a tree")
            parent[i] = index[above[0]]
    if len(index) < len(states):  # the input check names a repeated state
        _given(states, ())
    return _built(*_tree_at(s, range(len(states)), parent.items()))


def find_trees(s: EStructure, max_count: int | None = None
               ) -> tuple[ExperimentationTree, ...]:
    """Enumerate every experimentation tree of the structure.

    Trees are grown top-down from the root, on ambient indices. Every
    condition but t-root concerns one node and its set of tree children,
    so each state's admissible child sets are computed once: two or more
    of its immediate refinements, pairwise incompatible, such that every
    ambient state strictly refining it is compatible with one of them
    (t-unbiased). That search stops early where no set can be
    admissible: at a state with fewer than two immediate refinements, at
    a refiner compatible with none of them, and past a kid that alone is
    compatible with some refiner. Growth is depth first: each open node
    either stays a leaf or takes one admissible child set with no member
    already in the tree. Every grown tree is then checked on all seven
    conditions by the kernel check_tree runs, _tree_verdict, on its
    parent map and its nodes in declaration order, which the kernel
    checks are top-down; only an order that is not, as in a structure
    declared children first, is read by _shape and checked again. A
    node's t-branching, t-incompat and t-unbiased are judged once per
    distinct (node, kid mask) in the call, since they depend on nothing
    else. The structure's relation must be a closed preorder, as every
    constructor makes it; a root that is not one of its states, an
    unhashable one included, leaves no tree to find.

    Deterministic order, by node count, then the declaration indices of
    the non-root nodes. A node set carries at most one tree: two
    candidate parents of one node are both refined by it, so they are
    compatible and must be nested in the tree, which puts one strictly
    between the node and the other, against immediacy. With max_count
    set (an int, not a bool, and at least 1; TreeError otherwise), trees
    are grown size by size under a node budget, and growth stops at the
    first budget that yields max_count trees.
    """
    if max_count is not None and (not isinstance(max_count, int)
                                  or isinstance(max_count, bool)):
        raise TreeError(f"max_count must be an int, not {max_count!r}")
    if max_count is not None and max_count < 1:
        raise TreeError(f"max_count must be at least 1, not {max_count}")
    d, root = s.derived, _root_index(s)
    if root is None:  # no tree satisfies t-root
        return ()
    child_sets = _child_sets(d)
    most = len(s.states) - 1
    grown: list[dict[int, int]] = []
    for budget in range(1, most + 1) if max_count else (most,):
        grown = _grow(root, child_sets, budget)
        if max_count and len(grown) >= max_count:
            break
    # the root in every node list keeps the order of the non-root nodes
    ranked = sorted([(sorted([root, *parent]), parent) for parent in grown],
                    key=lambda tree: (len(tree[0]), tree[0]))
    judged: dict[tuple[int, int], tuple] = {}
    found: list[ExperimentationTree] = []
    for order, parent in ranked[:max_count]:
        top_down = order
        report, up = _tree_verdict(d, root, order, parent, order, judged)
        if report is None:  # not top-down: read the shape
            top_down = _shape(order, parent.items(), root, parent)[2]
            report, up = _tree_verdict(d, root, order, parent, top_down,
                                       judged)
        if up is None:
            raise TreeError("a grown tree fails "
                            + ", ".join(report.failed_ids)
                            + "; is the relation a closed preorder?")
        found.append(_passed(s, order, parent, top_down, up))
    return tuple(found)


def _child_sets(d: DerivedRelations) -> list[list[tuple[int, ...]]]:
    """For each state i, the sets of tree children it may take, each as
    ambient indices in declaration order: two or more of Y(i), pairwise
    incompatible, meeting every need (the kids compatible with one
    strict refiner of i).

    A depth-first search extends each set in kid order. It finds none at
    once when i has fewer than two kids or some need is empty. A kid
    that alone meets some need is forced: every admissible set holds
    it, so a branch never extends past a forced kid it did not take.
    """
    index, incompat, ups = d.index, d.incompat_rows, d.up
    out: list[list[tuple[int, ...]]] = []
    for i, z in enumerate(d.states):
        sets: list[tuple[int, ...]] = []
        out.append(sets)
        if len(d.immed_sets[z]) < 2:
            continue
        kids = [index[k] for k in d.immed_sets[z]]
        bits = [1 << k for k in kids]
        every = sum(bits)
        needs = {every & ~incompat[y] for y in _bits(d.refiners[i] & ~ups[i])}
        if 0 in needs:
            continue
        rows = [incompat[k] for k in kids]
        forced = [b in needs for b in bits]
        stack: list[tuple[tuple[int, ...], int, int]] = [((), 0, 0)]
        while stack:  # pairwise incompatible subsets, extended in kid order
            chosen, mask, start = stack.pop()
            if len(chosen) >= 2 and all(n & mask for n in needs):
                sets.append(chosen)
            for k in range(start, len(kids)):
                if not mask & ~rows[k]:
                    stack.append((chosen + (kids[k],), mask | bits[k], k + 1))
                if forced[k]:  # a later kid would pass it by
                    break
    return out


def _grow(root: int, child_sets: Sequence[list[tuple[int, ...]]],
          budget: int) -> list[dict[int, int]]:
    """Every tree of 1 to budget non-root nodes, as child -> parent maps
    on ambient indices."""
    out: list[dict[int, int]] = []
    stack: list[tuple[dict[int, int], tuple[int, ...]]] = [({}, (root,))]
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
    """The tree's refinement filtration. TreeError on a malformed tree:
    its nodes go through the one tree-input check (_given) with the
    ambient states as known, and its parent map through the views."""
    _given(t.nodes, (), t.ambient.derived.index.keys())
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
    try:
        remaining = set(element)
    except TypeError:  # a member that is no hashable sample point
        remaining = None
    if remaining is None or not remaining <= universe:
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
