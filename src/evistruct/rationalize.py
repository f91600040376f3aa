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
from typing import Mapping, Sequence

from .feasibility import _normalization, build_system, verify_weighting
from .plans import Plan, PlanError
from .structure import EStructure, WitnessReport
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


def _margins(tree: ExperimentationTree, plan: Plan, atoms: Sequence[int],
             weights: Sequence[Fraction],
             utilities: Mapping[str, Sequence[Fraction]]) -> WitnessReport:
    """Weighted-utility margins of each chosen alternative over its rivals.

    Point i lies in the tree's atom atoms[i], with weight weights[i] and
    payoff utilities[b][i] under alternative b. For each tree node x and
    each rival a of the choice at x, the margin is the sum, over points
    whose atom lies in the event of x, of weight times (chosen payoff minus
    a's payoff). Weight times payoff is summed once per atom and
    alternative, then over each event. The report fails on weights not
    summing to 1, a negative weight, and each margin that is not strictly
    positive.
    """
    total, failures = _normalization(weights)
    events = tree.canonical.events
    mass: dict[str, dict[int, Fraction]] = {}  # alternative -> atom -> sum
    for b in plan.alternatives:
        table = mass[b] = {}
        for atom, w, u in zip(atoms, weights, utilities[b]):
            table[atom] = table.get(atom, 0) + w * u
    margins: dict[tuple[str, str], Fraction] = {}
    for x in tree.nodes:
        chosen = plan.choice[x]
        inside = [atom for atom in events[x] if atom in mass[chosen]]
        for a in plan.alternatives:
            if a == chosen:
                continue
            margin = sum([mass[chosen][atom] - mass[a][atom]
                          for atom in inside], start=Fraction(0))
            margins[x, a] = margin
            if margin <= 0:
                failures.append(f"no strict preference at {x!r} over {a!r}")
    return WitnessReport(not failures, margins, tuple(failures), total)


def _fits(r: object) -> bool:
    """Whether a constructed witness has the shape its verifier reads."""
    if not (isinstance(r, Rationalization)
            and isinstance(r.tree, ExperimentationTree)
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
    tree = r.tree
    report = _margins(tree, r.plan, [p.atom for p in r.points], r.weights,
                      r.utilities)
    margins, failures = report.margins, list(report.failures)
    later = report.total_weight  # the weight of the points after point i
    for i, w in enumerate(r.weights):
        later -= w
        if w <= later:
            failures.append(
                f"weight {i} does not outweigh all later points")
            break
    rank = tree.rank_in_tree
    ranks = [rank[p.state] for p in r.points]
    if any(a > b for a, b in zip(ranks, ranks[1:])):
        failures.append("points are not ordered by state depth")

    deeper = dict.fromkeys(tree.nodes, Fraction(0))  # weight strictly below
    for p, w in zip(r.points, r.weights):
        for x in tree.path_to_root(p.state)[:-1]:
            deeper[x] += w
    for x, a in margins:
        bound = r.weights[r.avoid[x, a]] - deeper[x]
        if bound <= 0:
            failures.append(
                f"avoidance point of ({x!r}, {a!r}) does not outweigh "
                f"deeper points")
        elif margins[x, a] < bound:
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
    later ones, depth-ordered points, avoidance bounds); a malformed one
    fails. An explicit atom-level witness is checked by verify_weighting.
    """
    if isinstance(witness, ExplicitRepresentation):
        if isinstance(target, ExperimentationTree):
            target = target.as_estructure
        return verify_weighting(build_system(target, plan), witness.weights,
                                witness.utilities)
    if not _fits(witness):
        return WitnessReport(False, failures=("not a well-formed witness",))
    tree = witness.tree
    if isinstance(target, ExperimentationTree) and (
            (target.nodes, target.parent) != (tree.nodes, tree.parent)):
        raise PlanError("witness was built for a different tree")
    if witness.plan.choice != {x: plan.choice.get(x) for x in tree.nodes}:
        raise PlanError("witness was built for a different plan")
    return _verify_constructed(witness)
