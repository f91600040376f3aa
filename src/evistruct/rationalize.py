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
is normalized away. Geometric decay makes every point outweigh all later
points combined, which is what drives every strict preference below.

The utility of alternative b at a point (w, x) is 1 when some tree state
refining x and containing w in its event chooses b, else 0. Support must
be restricted to the branch segment below x this way: paying b for
choices made on other branches can hand b the points that were meant to
punish it, and the strict margins break.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .plans import Plan, PlanError
from .structure import EStructure
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


@dataclass(frozen=True)
class RationalizationReport:
    """Margin table and structural checks for a witness.

    margins holds the exact conditional weighted-utility advantage of the
    chosen alternative over each rival at each covered state; all must be
    strictly positive for the witness to verify.
    """

    verified: bool
    margins: Mapping[tuple[str, str], Fraction]
    failures: tuple[str, ...]
    total_weight: Fraction

    @property
    def min_margin(self) -> Fraction | None:
        return min(self.margins.values(), default=None)


def avoiding_branch(tree: ExperimentationTree, plan: Plan,
                    x: str, a: str) -> tuple[str, ...]:
    """Root-to-leaf path through x whose choices below x all differ from a.

    Raises RationalizationError at a dominance violation: a descendant of
    x (or x's own position) where every child picks a.
    """
    if x not in tree.nodes:
        raise RationalizationError(f"{x!r} is not a tree node")
    path = list(tree.path_to_root(x))
    cur = x
    while True:
        kids = tree.children[cur]
        if not kids:
            return tuple(path)
        step = next((k for k in kids if plan.choice.get(k) != a), None)
        if step is None:
            raise RationalizationError(
                f"every child of {cur!r} chooses {a!r}; the plan is "
                f"dominance-inconsistent there")
        path.append(step)
        cur = step


def construct_sceu(tree: ExperimentationTree, plan: Plan) -> Rationalization:
    """Build the weighting and utilities rationalizing a consistent plan.

    The plan must cover every tree node; choices at non-tree states are
    ignored. Dominance violations surface as RationalizationError from
    the avoidance walks.
    """
    for x in tree.nodes:
        if x not in plan.choice:
            raise RationalizationError(f"plan does not cover tree node {x!r}")
    if set(plan.choice) != set(tree.nodes):
        plan = plan.restricted_to(tree.nodes)

    atom_of = {cls[0]: i for i, cls in enumerate(tree.canonical.atoms)}
    seen: dict[SamplePoint, None] = {}
    avoid_points: dict[tuple[str, str], SamplePoint] = {}
    for x in tree.nodes:
        for a in plan.alternatives:
            if a == plan.choice[x]:
                continue
            leaf = avoiding_branch(tree, plan, x, a)[-1]
            point = SamplePoint(atom_of[leaf], x)
            seen.setdefault(point, None)
            avoid_points[x, a] = point

    rank = tree.rank_in_tree
    decl = {x: i for i, x in enumerate(tree.nodes)}
    atom_decl = {i: decl[cls[0]] for i, cls in enumerate(tree.canonical.atoms)}
    points = tuple(sorted(
        seen, key=lambda p: (rank[p.state], decl[p.state], atom_decl[p.atom])))
    index = {p: i for i, p in enumerate(points)}

    n = len(points)
    raw = tuple([Fraction(2, 3 ** (i + 1)) for i in range(n)])
    total = 1 - Fraction(1, 3 ** n)
    weights = tuple([w / total for w in raw])

    order = tree.order
    events = tree.canonical.events
    utilities = {
        b: tuple([
            1 if any(p.atom in events[x] and (x, p.state) in order
                     and plan.choice[x] == b for x in tree.nodes) else 0
            for p in points])
        for b in plan.alternatives
    }
    avoid = {key: index[pt] for key, pt in avoid_points.items()}
    return Rationalization(tree, plan, points, raw, weights, utilities, avoid)


def _verify_constructed(r: Rationalization) -> RationalizationReport:
    tree = r.tree
    plan = r.plan
    failures: list[str] = []
    total = sum(r.weights, start=Fraction(0))
    if total != 1:
        failures.append(f"weights sum to {total}, not 1")
    for i in range(len(r.weights)):
        if r.weights[i] <= sum(r.weights[i + 1:], start=Fraction(0)):
            failures.append(
                f"weight {i} does not outweigh all later points")
            break
    rank = tree.rank_in_tree
    ranks = [rank[p.state] for p in r.points]
    if any(a > b for a, b in zip(ranks, ranks[1:])):
        failures.append("points are not ordered by state depth")

    events = tree.canonical.events
    strict = {(x, y) for x, y in tree.order if x != y}
    margins: dict[tuple[str, str], Fraction] = {}
    for x in tree.nodes:
        chosen = plan.choice[x]
        ev = events[x]
        for a in plan.alternatives:
            if a == chosen:
                continue
            margin = Fraction(0)
            for i, p in enumerate(r.points):
                if p.atom in ev:
                    margin += r.weights[i] * (
                        r.utilities[chosen][i] - r.utilities[a][i])
            margins[x, a] = margin
            if margin <= 0:
                failures.append(f"no strict preference at {x!r} over {a!r}")
            deeper = sum((r.weights[i]
                          for i, p in enumerate(r.points)
                          if (p.state, x) in strict), start=Fraction(0))
            bound = r.weights[r.avoid[x, a]] - deeper
            if bound <= 0:
                failures.append(
                    f"avoidance point of ({x!r}, {a!r}) does not outweigh "
                    f"deeper points")
            elif margin < bound:
                failures.append(
                    f"margin at ({x!r}, {a!r}) falls below its bound")
    return RationalizationReport(not failures, margins, tuple(failures), total)


def _verify_explicit(s: EStructure, plan: Plan,
                     witness: ExplicitRepresentation) -> RationalizationReport:
    from .canonical import build_canonical

    space = build_canonical(s)
    labels = space.labels
    failures: list[str] = []
    unknown = set(witness.weights) - set(labels)
    if unknown:
        failures.append(f"unknown sample points {sorted(unknown)}")
    weight = {lab: Fraction(witness.weights.get(lab, 0)) for lab in labels}
    total = sum(weight.values(), start=Fraction(0))
    if total != 1:
        failures.append(f"weights sum to {total}, not 1")
    if any(w < 0 for w in weight.values()):
        failures.append("negative weight")

    def payoff(a: str, lab: str) -> Fraction:
        return Fraction(witness.utilities.get(a, {}).get(lab, 0))

    margins: dict[tuple[str, str], Fraction] = {}
    for x in s.states:
        if x not in plan.choice:
            continue
        chosen = plan.choice[x]
        ev = space.events[x]
        for a in plan.alternatives:
            if a == chosen:
                continue
            margin = sum(
                (weight[labels[w]] * (payoff(chosen, labels[w])
                                      - payoff(a, labels[w]))
                 for w in ev), start=Fraction(0))
            margins[x, a] = margin
            if margin <= 0:
                failures.append(f"no strict preference at {x!r} over {a!r}")
    return RationalizationReport(not failures, margins, tuple(failures), total)


def verify_rationalization(
    target: EStructure | ExperimentationTree,
    plan: Plan,
    witness: Rationalization | ExplicitRepresentation,
) -> RationalizationReport:
    """Exactly re-check a representation against a structure and plan.

    A constructed Rationalization is checked for its strict margins and
    its structural guarantees (normalization, every point outweighing all
    later ones, depth-ordered points, avoidance bounds). An explicit
    atom-level witness is checked for normalization and strict margins on
    the structure's canonical events.
    """
    if isinstance(witness, Rationalization):
        tree = witness.tree
        if isinstance(target, ExperimentationTree) and target is not tree \
                and (target.nodes != tree.nodes
                     or target.parent != tree.parent):
            raise PlanError("witness was built for a different tree")
        if witness.plan.choice != {x: plan.choice[x] for x in tree.nodes}:
            raise PlanError("witness was built for a different plan")
        return _verify_constructed(witness)
    if isinstance(target, ExperimentationTree):
        target = target.as_estructure
    return _verify_explicit(target, plan, witness)
