"""Explicit expected-utility representations for consistent tree plans.

Any dominance-consistent total plan on an experimentation tree is
rationalized by an explicitly constructed probability weighting and a 0/1
utility per alternative. The sample points are pairs (leaf sample point,
state): for each tree state x and each alternative a rejected there, walk
from x downward, at every step entering the first declared child whose
choice differs from a; the walk's leaf together with x is the avoidance
point of (x, a). The walk can only get stuck where every child picks a,
which is exactly a dominance violation, so on consistent plans it always
reaches a leaf.

Distinct avoidance points are ordered so states closer to the root come
first, and the i-th point gets raw weight 2/3^(i+1); the total 1 - 3^(-N)
is normalized away, leaving 2*3^(N-1-i)/(3^N - 1). Geometric decay makes
every point outweigh all later points combined, which is what drives
every strict preference below. The checks put the weights, and the
utilities, over one common denominator each and run on the integer
numerators; Fractions appear only in the values they return.

The utility of alternative b at a point (w, x) is 1 when some tree state
refining x and containing w in its event chooses b, else 0. Support must
be restricted to the branch segment below x this way: paying b for
choices made on other branches can hand b the points that were meant to
punish it, and the strict margins break.
"""
from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from .canonical import CanonicalSpace
from .feasibility import (_margin_report, _over_lcm, _plan_key, _rows,
                          build_system, verify_weighting)
from .plans import Plan, PlanError
from .structure import EStructure, StructureError, WitnessReport
from .trees import ExperimentationTree


class RationalizationError(PlanError):
    """The construction's preconditions fail, typically by dominance."""


@dataclass(frozen=True)
class SamplePoint:
    """One point of the product sample space.

    Attributes:
        atom: index into the tree's own canonical sample points.
        state: the tree state whose avoidance walk produced the point.
    """

    atom: int
    state: str


@dataclass(frozen=True)
class ExplicitRepresentation:
    """An atom-level witness given directly, not built by the construction.

    weights is a probability over atom labels; utilities[a] maps atom
    labels to payoffs, with missing atoms read as zero.
    """

    weights: Mapping[str, Fraction]
    utilities: Mapping[str, Mapping[str, Fraction]]


@dataclass(frozen=True)
class Rationalization:
    """The constructed representation for one tree and plan.

    Attributes:
        tree: the experimentation tree.
        plan: the rationalized plan, restricted to the tree.
        points: sample points in weight order.
        raw_weights: 2/3^(i+1) per point, before normalization.
        weights: the normalized probability of each point.
        utilities: alternative -> 0/1 payoff per point, parallel to points.
        avoid: (state, rejected alternative) -> index of its avoidance
            point.
    """

    tree: ExperimentationTree
    plan: Plan
    points: tuple[SamplePoint, ...]
    raw_weights: tuple[Fraction, ...]
    weights: tuple[Fraction, ...]
    utilities: Mapping[str, tuple[int, ...]]
    avoid: Mapping[tuple[str, str], int]

    @property
    def point_labels(self) -> tuple[tuple[str, str], ...]:
        atoms = self.tree.canonical.atoms
        return tuple([(atoms[p.atom][0], p.state) for p in self.points])


def avoiding_branch(tree: ExperimentationTree, plan: Plan,
                    x: str, a: str) -> tuple[str, ...]:
    """Root-to-leaf path through x whose choices below x all differ from a.

    Raises RationalizationError at a dominance violation: a descendant of
    x (or x's own position) where every child picks a.
    """
    if x not in tree.nodes:
        raise RationalizationError(f"{x!r} is not a tree node")
    walks = _walks(tree, plan, a)
    step, end, chosen = walks[x]
    if chosen is None:
        raise _stuck(end, a)
    path = list(tree.path_to_root(x))
    while step is not None:
        path.append(step)
        step = walks[step][0]
    return tuple(path)


def _walks(tree: ExperimentationTree, plan: Plan, a: str
           ) -> dict[str, tuple[str | None, str, int | None]]:
    """The avoidance walk rejecting a from every tree node x, as
    (step, end, chosen).

    step is the first child of x whose choice is not a, None at a leaf or
    where every child chooses a. end is the leaf the walk reaches, or the
    node where it stops because every child there chooses a. chosen holds
    bit j for each alternatives[j] chosen from x down to that leaf, and is
    None when the walk stops short. Entries are built children first, in
    the tree's top-down order reversed, each from the entry of its step.
    """
    choice, children = plan.choice, tree.children
    bit = {b: 1 << j for j, b in enumerate(plan.alternatives)}
    walks: dict[str, tuple[str | None, str, int | None]] = {}
    for x in reversed(tree._top_down):
        mine = bit.get(choice.get(x), 0)
        kids = children[x]
        step = next((k for k in kids if choice.get(k) != a), None)
        if not kids:
            walks[x] = (None, x, mine)
        elif step is None:
            walks[x] = (None, x, None)
        else:
            _, end, below = walks[step]
            walks[x] = (step, end, None if below is None else mine | below)
    return walks


def _stuck(x: str, a: str) -> RationalizationError:
    return RationalizationError(f"every child of {x!r} chooses {a!r}; the "
                                f"plan is dominance-inconsistent there")


def _avoidance(tree: ExperimentationTree, plan: Plan
               ) -> tuple[tuple[tuple[int, str], ...], tuple[int, ...],
                          Mapping[tuple[str, str], int]]:
    """The construction in integers, for a plan deciding every tree node:
    the distinct avoidance points as (atom, state) pairs in weight order,
    each point's choice bits (bit j for each alternatives[j] chosen on its
    walk), and a read-only map (state, rejected alternative) -> index of
    its point.

    The pass is kept on the tree's canonical space, one entry keyed by
    _plan_key at each call, as _rows keeps its rows. That space is the
    tree's own structure's, whose order fixes the parent map, so the
    decision on a structure and construct_sceu on any tree object
    spanning it run the pass once.
    """
    choice, space = plan.choice, tree.canonical
    key = _plan_key(space, plan)
    kept = space.__dict__.get("_avoidance")
    if kept is not None and kept[0] == key:
        return kept[1]
    atom_of = {cls[0]: i for i, cls in enumerate(space.atoms)}
    walks = {a: _walks(tree, plan, a) for a in plan.alternatives}
    seen: dict[tuple[str, str], int] = {}  # (leaf, state) -> choice bits
    avoid_points: dict[tuple[str, str], tuple[str, str]] = {}
    for x in tree.nodes:
        for a in plan.alternatives:
            if a == choice[x]:
                continue
            _, end, chosen = walks[a][x]
            if chosen is None:
                raise _stuck(end, a)
            point = (end, x)
            seen.setdefault(point, chosen)
            avoid_points[x, a] = point

    rank, decl = tree.rank_in_tree, {x: i for i, x in enumerate(tree.nodes)}
    order = sorted(seen, key=lambda p: (rank[p[1]], decl[p[1]], decl[p[0]]))
    index = {p: i for i, p in enumerate(order)}
    kept = space.__dict__["_avoidance"] = key, (
        tuple([(atom_of[leaf], x) for leaf, x in order]),
        tuple([seen[p] for p in order]),
        MappingProxyType({k: index[p] for k, p in avoid_points.items()}))
    return kept[1]


def construct_sceu(tree: ExperimentationTree, plan: Plan) -> Rationalization:
    """Build the weighting and utilities rationalizing a consistent plan.

    The plan must cover every tree node; choices at non-tree states are
    ignored. Dominance violations surface as RationalizationError from
    the avoidance walks. The walks are the integer pass _avoidance keeps
    on the tree's canonical space, so after decide_rationalizable on the
    structure this tree spans, with the same choices, they are that
    decision's, whichever tree object spans it; the witness gets its own
    copy of the pass's index map.
    """
    for x in tree.nodes:
        if x not in plan.choice:
            raise RationalizationError(f"plan does not cover tree node {x!r}")
    if set(plan.choice) != set(tree.nodes):
        plan = plan.restricted_to(tree.nodes)

    points, chosen, avoid = _avoidance(tree, plan)
    n = len(points)
    raw = tuple([Fraction(2, 3 ** (i + 1)) for i in range(n)])
    weights = tuple([Fraction(2 * 3 ** (n - 1 - i), 3 ** n - 1)
                     for i in range(n)])  # raw / (1 - 3^-n)
    utilities = {b: tuple([c >> j & 1 for c in chosen])
                 for j, b in enumerate(plan.alternatives)}
    points = tuple([SamplePoint(*p) for p in points])
    return Rationalization(tree, plan, points, raw, weights, utilities,
                           dict(avoid))


def _tree_fits(t: object) -> bool:
    """Whether a tree's nodes are two or more distinct ambient states with
    the root, each other node's parent a node, its chain reaching the root:
    its cached top-down order, by which its ranks and structure are read,
    says so, and the parent map is read-only, so that order is current."""
    if not (isinstance(t, ExperimentationTree)
            and isinstance(t.ambient, EStructure)
            and isinstance(t.nodes, tuple) and isinstance(t.parent, Mapping)
            and all(isinstance(x, str)
                    for x in [*t.nodes, *t.parent.values()])):
        return False
    return set(t.nodes) <= set(t.ambient.states) and len(t._top_down) > 1


def _own_space(target: EStructure | ExperimentationTree
               ) -> CanonicalSpace | None:
    """The canonical space of a structure, or of a tree's own structure;
    None when that structure fails its axioms."""
    try:
        return target.canonical
    except StructureError:
        return None


def _fits(r: object) -> bool:
    """Whether a constructed witness has the shape its verifier reads."""
    if not (isinstance(r, Rationalization) and _tree_fits(r.tree)
            and isinstance(r.plan, Plan) and isinstance(r.points, Sequence)
            and isinstance(r.utilities, Mapping)
            and isinstance(r.avoid, Mapping)):
        return False
    n, nodes = len(r.points), set(r.tree.nodes)
    tables = [r.weights, *[r.utilities.get(b) for b in r.plan.alternatives]]
    return (all(isinstance(p, SamplePoint) and isinstance(p.atom, int)
                and isinstance(p.state, str) and p.state in nodes
                for p in r.points)
            and all(isinstance(t, Sequence) and len(t) == n
                    and all(isinstance(v, (int, Fraction)) for v in t)
                    for t in tables)
            and all(isinstance(r.avoid.get((x, a)), int)
                    and r.avoid[x, a] in range(n) for x in r.tree.nodes
                    for a in r.plan.alternatives if a != r.plan.choice.get(x)))


def _verify_constructed(r: Rationalization) -> WitnessReport:
    tree, plan, space = r.tree, r.plan, r.tree.canonical
    weights, wden = _over_lcm(r.weights)  # every bound is over wden
    report = _margin_report(
        _rows(space, plan), len(space.atoms), [p.atom for p in r.points],
        weights, wden, [r.utilities[b] for b in plan.alternatives])
    margins, failures = report.margins, list(report.failures)
    later = sum(weights)  # the weight of the points after point i
    for i, w in enumerate(weights):
        later -= w
        if w <= later:
            failures.append(
                f"weight {i} does not outweigh all later points")
            break
    ranks = [tree.rank_in_tree[p.state] for p in r.points]
    if any(a > b for a, b in zip(ranks, ranks[1:])):
        failures.append("points are not ordered by state depth")

    own = dict.fromkeys(tree.nodes, 0)  # weight of the points at x
    for p, w in zip(r.points, weights):
        own[p.state] += w
    deeper = dict.fromkeys(tree.nodes, 0)  # weight strictly below x
    for x in reversed(tree._top_down[1:]):  # children first, as _walks
        deeper[tree.parent[x]] += own[x] + deeper[x]
    for (x, a), m in margins.numerators.items():  # over margins.den
        bound = weights[r.avoid[x, a]] - deeper[x]
        if bound <= 0:
            failures.append(
                f"avoidance point of ({x!r}, {a!r}) does not outweigh "
                f"deeper points")
        elif m * wden < bound * margins.den:
            failures.append(
                f"margin at ({x!r}, {a!r}) falls below its bound")
    return WitnessReport(not failures, margins, tuple(failures),
                         report.total_weight)


def verify_rationalization(
    target: EStructure | ExperimentationTree,
    plan: Plan,
    witness: Rationalization | ExplicitRepresentation,
) -> WitnessReport:
    """Exactly re-check a representation against a structure and plan.

    A constructed Rationalization is checked for its strict margins and
    its structural guarantees (normalization, every point outweighing all
    later ones, depth-ordered points, avoidance bounds). Its margins are
    _margin_report's on the rows of the witness tree's own canonical
    space, which for a spanning tree is its structure's, so the rows
    decide_rationalizable built for the same choices are read again. A
    malformed one fails, as does one whose tree is malformed or whose
    points lie outside the tree's atoms. Its target must be its tree,
    that tree's ambient structure or the tree's own structure
    (as_estructure), and its plan must have the witness's alternatives
    and choices at the tree's nodes: anything else raises PlanError. An
    explicit atom-level witness is checked by verify_weighting; against
    a tree target, on the tree's own structure and the plan restricted
    to its nodes, as a constructed one is; a plan that decides none of
    them raises PlanError. A malformed tree target fails, as does a
    target whose own structure fails the axioms.
    """
    if isinstance(witness, ExplicitRepresentation):
        if not isinstance(target, ExperimentationTree):
            if _own_space(target) is None:
                return WitnessReport(False, failures=("malformed structure",))
        elif not _tree_fits(target) or _own_space(target) is None:
            return WitnessReport(False, failures=("malformed tree",))
        elif plan.choice.keys().isdisjoint(target.nodes):
            raise PlanError("plan decides no node of the tree")
        else:
            target = target.as_estructure
            plan = plan.restricted_to(target.states)
        return verify_weighting(build_system(target, plan), witness.weights,
                                witness.utilities)
    malformed = WitnessReport(False, failures=("not a well-formed witness",))
    if not _fits(witness):
        return malformed
    tree = witness.tree
    if isinstance(target, ExperimentationTree) and (
            (target.nodes, target.parent) != (tree.nodes, tree.parent)):
        raise PlanError("witness was built for a different tree")
    if (witness.plan.choice != {x: plan.choice.get(x) for x in tree.nodes}
            or set(witness.plan.alternatives) != set(plan.alternatives)):
        raise PlanError("witness was built for a different plan")
    space = _own_space(tree)
    if space is None:
        return malformed
    atoms = range(len(space.atoms))
    if not isinstance(target, ExperimentationTree) and (
            target not in (tree.ambient, tree.as_estructure)):
        raise PlanError("witness was built for a different structure")
    if not all(p.atom in atoms for p in witness.points):
        return malformed
    return _verify_constructed(witness)
