"""Exact decision of plan rationalizability by linear programming.

A plan is rationalizable when some probability weighting of the sample
points and some utility per alternative make the chosen alternative the
strict conditional-expected-utility maximizer at every domain state. With
g[a][w] standing for utility times weight, the requirement becomes a
homogeneous system of strict linear inequalities in g; scaling freedom
turns each strict inequality into "at least 1", and shifting every
alternative's utility equally at a sample point lets g be taken
nonnegative without loss. Feasibility of

    sum over w in e(x) of (g[chosen][w] - g[a][w]) >= 1,   g >= 0

is therefore equivalent to rationalizability, and a uniform weighting
recovers utilities from any feasible g.

The decision runs one phase-1 simplex with Bland's rule on an
integer-preserving (fraction-free) tableau: rows are kept as integer
multiples of the rational tableau by the basis determinant, so every
step is exact integer arithmetic and nothing is rounded. A tall system,
with many more rows than columns, is decided on its Farkas alternative
instead, by the same loop, whose basis then has one row per column and
one more. On any structure, two twins that choose differently, or a
dominance violation whose state's immediate refinements partition its
event, already give a certificate, read off before the simplex runs. A
plan that none settles, partial or total, on a structure whose states
are pairwise comparable or incompatible (a tree up to twins), needs no
simplex either: by the paper's theorem it is rationalizable exactly
when no decided state is cut off by the choices forced below it, and
the cut certificate or the theorem's witness is read off the
structure's rows directly, with no tree object. Every returned verdict
carries an exactly verified witness: a weighting with utilities, or a
nonnegative row combination proving emptiness.
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from math import lcm
from typing import NamedTuple

from .canonical import CanonicalSpace, build_canonical
from .io import format_rational
from .plans import Plan, PlanError, _check_domain, check_isd_plan
from .structure import DerivedRelations, EStructure, WitnessReport, _bits


class FeasibilityRow(NamedTuple):
    """One strict-dominance constraint.

    Attributes:
        state: domain state the constraint comes from.
        alternative: the rejected alternative it compares against.
        terms: (column, coefficient) for each nonzero coefficient.
    """

    state: str
    alternative: str
    terms: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class FeasibilitySystem:
    """The linearized system for one structure and plan.

    Column j stands for g[alternatives[j // natoms]][atom j % natoms].
    """

    alternatives: tuple[str, ...]
    atoms: tuple[str, ...]
    rows: tuple[FeasibilityRow, ...]

    @property
    def ncols(self) -> int:
        return len(self.alternatives) * len(self.atoms)

    def column_label(self, j: int) -> tuple[str, str]:
        n = len(self.atoms)
        return self.alternatives[j // n], self.atoms[j % n]


@dataclass(frozen=True)
class FeasibilityResult:
    """Verdict plus an exactly verified witness.

    Feasible: weights is a probability over atom labels and utilities maps
    each alternative to a utility per atom label realizing every strict
    preference. Infeasible: certificate lists (state, alternative,
    multiplier) rows whose nonnegative combination has no positive entry
    in any column yet positive total, so no nonnegative g can satisfy all
    rows. path names the code that produced the witness: "simplex"
    (decide_system's phase-1 simplex on the system itself),
    "simplex-dual" (the same simplex on the system's Farkas alternative,
    which decide_system picks for a system with at least four more rows
    than columns), "dominance" (a certificate read off the plan's
    choices, on any structure) or "tree" (the theorem's cut certificate
    or witness for any plan, partial or total, on a structure whose
    states are pairwise comparable or incompatible, a tree up to twins:
    a structure that is itself an experimentation tree, with twins
    added or not). Infeasible plans on such a structure that no
    "dominance" certificate settles, total plans with twins among
    them, get a "tree" certificate, no longer a simplex one.
    """

    feasible: bool
    system: FeasibilitySystem
    weights: Mapping[str, Fraction] | None = None
    utilities: Mapping[str, Mapping[str, Fraction]] | None = None
    certificate: tuple[tuple[str, str, Fraction], ...] | None = None
    path: str = "simplex"


def build_system(s: EStructure, plan: Plan) -> FeasibilitySystem:
    """Linearize the strict-dominance requirements of a plan."""
    _check_domain(s, plan)
    space = build_canonical(s)
    return FeasibilitySystem(plan.alternatives, space.labels,
                             _rows(space, plan))


_UNDECIDED = object()  # a state's entry in _plan_key when not decided


def _plan_key(space: CanonicalSpace, plan: Plan) -> tuple:
    """The key of a pass kept on the space: the alternatives and the
    plan's choice at each of the space's states, in order."""
    choice = plan.choice
    return (tuple(plan.alternatives),
            tuple([choice.get(x, _UNDECIDED) for x in space.events]))


def _rows(space: CanonicalSpace, plan: Plan) -> tuple[FeasibilityRow, ...]:
    """A row per state of the space the plan decides, in the space's
    order, and per rival of its choice; its value at g is the margin.
    Column j * natoms + w stands for g[plan.alternatives[j]][atom w].

    The rows are kept on the space, one entry keyed by _plan_key, read at
    each call: an edit of the plan's choice dict between calls builds
    them again. So build_system and the verifier of a spanning tree's
    witness, whose canonical is the structure's own space, build them
    once. Rows are tuples, so the kept rows are shared as they are.
    """
    key = _plan_key(space, plan)
    kept = space.__dict__.get("_rows")
    if kept is not None and kept[0] == key:
        return kept[1]
    alts, natoms = key[0], len(space.atoms)
    start = {a: i * natoms for i, a in enumerate(alts)}
    rows: list[FeasibilityRow] = []
    for (x, event), chosen in zip(space.events.items(), key[1]):
        if chosen is _UNDECIDED:
            continue
        gain = tuple([(start[chosen] + w, 1) for w in event])
        for a in alts:
            if a == chosen:
                continue
            loss = tuple([(start[a] + w, -1) for w in event])
            rows.append(FeasibilityRow(x, a, gain + loss))
    kept = space.__dict__["_rows"] = key, tuple(rows)
    return kept[1]


# ---------------------------------------------------------------- simplex

def _phase1(rows: Sequence[Sequence[tuple[int, int]]], b: Sequence[int],
            ncols: int):
    """Phase-1 simplex with Bland's rule on an integer-preserving tableau.

    Decides {x >= 0 : Ax >= b} for b >= 0, where row i of A has the
    (column, coefficient) terms rows[i]. The phase-1 tableau is
    [A | -I | I | b], started from the artificial basis, but only
    [A | -I | b] is stored: row operations keep artificial column
    n + m + i the negation of slack column n + i, and its reduced cost is
    D - red[n + i]. Bland's rule scans the artificial columns after all
    others, so it picks the pivots the full tableau would. Every stored
    row, the reduced-cost row included, is D times the rational tableau,
    where D > 0 is the determinant of the basis, so every entry is an
    integer (Edmonds 1967, Bareiss 1968). Ratios are compared by
    cross-multiplication, so the pivots are those of the rational
    tableau. Returns ("feasible", x) with x exact, or ("infeasible", y)
    with y the exact Farkas duals per row: y >= 0, yA <= 0 and yb > 0.
    """
    m = len(rows)
    n = ncols
    width = n + m
    tableau: list[list[int]] = []
    for i, (terms, bi) in enumerate(zip(rows, b)):
        row = [0] * width + [bi]
        for j, c in terms:
            row[j] = c
        row[n + i] = -1
        tableau.append(row)
    basis = list(range(width, width + m))
    red = [-sum(column) for column in zip(*tableau)]
    det = 1

    while True:
        enter = next((j for j in range(width) if red[j] < 0), None)
        if enter is not None:
            column = [row[enter] for row in tableau]
            f = red[enter]
        else:
            slack = next((j for j in range(n, width) if red[j] > det), None)
            if slack is None:
                break
            enter = slack + m
            column = [-row[slack] for row in tableau]
            f = det - red[slack]
        pivot_row = None
        for i, t in enumerate(column):
            if t <= 0:
                continue
            if pivot_row is None:
                pivot_row = i
                continue
            lhs = tableau[i][width] * column[pivot_row]
            rhs = tableau[pivot_row][width] * t
            if lhs < rhs or (lhs == rhs and basis[i] < basis[pivot_row]):
                pivot_row = i
        if pivot_row is None:
            raise RuntimeError("phase-1 objective unbounded")
        prow = tableau[pivot_row]
        p = column[pivot_row]
        for i, row in enumerate(tableau):
            if i != pivot_row:
                tableau[i] = _eliminate(row, prow, column[i], p, det)
        red = _eliminate(red, prow, f, p, det)
        basis[pivot_row] = enter
        det = p

    if red[width] == 0:
        x = [Fraction(0)] * n
        for i, j in enumerate(basis):
            if j < n:
                x[j] = Fraction(tableau[i][width], det)
        return "feasible", x
    return "infeasible", [Fraction(red[n + i], det) for i in range(m)]


def _eliminate(row: list[int], prow: list[int], f: int, p: int,
               det: int) -> list[int]:
    """One row of a fraction-free pivot: (p*row - f*prow) / det, where f is
    the row's entry in the entering column and p the pivot's.

    The division is exact because the result is the new determinant times
    an entry of the new rational tableau.
    """
    if f:
        return [(p * v - f * w) // det for v, w in zip(row, prow)]
    if p == det:
        return row
    return [p * v // det for v in row]


def _over_lcm(values: Iterable[int | Fraction]) -> tuple[list[int], int]:
    """Integer numerators of values over their least common denominator,
    each value's ratio read once."""
    ratios = [v.as_integer_ratio() for v in values]
    den = lcm(*[d for _, d in ratios])
    return [n * (den // d) for n, d in ratios], den


def _row_values(rows: Sequence[FeasibilityRow],
                g: Sequence[int]) -> list[int]:
    """Each row's value at integer g."""
    values = []
    for r in rows:
        value = 0
        for j, c in r.terms:
            value += c * g[j]
        values.append(value)
    return values


def _mass(ncols: int, columns: Sequence[int], weights: Sequence[int],
          pays: Sequence[Sequence[int]]) -> list[int]:
    """g[j * ncols + c]: weight times payoff under alternative j, summed
    over the points i with columns[i] == c; pays[j][i] is that payoff.
    With one point per column in order, as verify_weighting's atoms
    are, there is nothing to sum, and one comprehension builds g."""
    if columns == range(ncols):
        return [w * u for w, u
                in zip(weights * len(pays), chain.from_iterable(pays))]
    g = [0] * (len(pays) * ncols)
    for j, row in enumerate(pays):
        base = j * ncols
        for c, w, u in zip(columns, weights, row):
            g[base + c] += w * u
    return g


class _Margins(Mapping):
    """Margins as integer numerators over one positive denominator, keyed
    (state, rival): a read-only view that builds a Fraction when read."""

    __slots__ = ("numerators", "den")

    def __init__(self, numerators: dict[tuple[str, str], int], den: int):
        self.numerators, self.den = numerators, den

    def __getitem__(self, key: tuple[str, str]) -> Fraction:
        return Fraction(self.numerators[key], self.den)

    def __iter__(self):
        return iter(self.numerators)

    def __len__(self) -> int:
        return len(self.numerators)

    def __repr__(self) -> str:
        return repr(dict(self))


def _margin_report(rows: Sequence[FeasibilityRow], natoms: int,
                   atoms: Sequence[int], weights: Sequence[int], den: int,
                   pays: Sequence[Sequence[int | Fraction]],
                   failures: Sequence[str] = ()) -> WitnessReport:
    """The report of point masses against rows, the one place a margin
    is computed: point i lies in atom atoms[i] of natoms, weighs
    weights[i] / den and pays pays[j][i] under alternative j. Payoffs go
    over their least common denominator, g = weight x payoff is summed
    per atom (_mass), and each row's value at g is a margin, keyed
    (state, rival). The failures are the given ones, weights not summing
    to 1, a negative weight, and one per margin that is not positive.
    """
    total = Fraction(sum(weights), den)
    failures = list(failures)
    if total != 1:
        failures.append(f"weights sum to {total}, not 1")
    if any(w < 0 for w in weights):
        failures.append("negative weight")
    k = len(atoms)
    flat, uden = _over_lcm(chain.from_iterable(pays))
    g = _mass(natoms, atoms, weights,
              [flat[j * k:(j + 1) * k] for j in range(len(pays))])
    values = list(zip(rows, _row_values(rows, g)))
    margins = _Margins({(r.state, r.alternative): m for r, m in values},
                       den * uden)
    failures += [f"no strict preference at {r.state!r} over "
                 f"{r.alternative!r}" for r, m in values if m <= 0]
    return WitnessReport(not failures, margins, tuple(failures), total)


def verify_weighting(system: FeasibilitySystem,
                     weights: Mapping[str, Fraction],
                     utilities: Mapping[str, Mapping[str, Fraction]],
                     ) -> WitnessReport:
    """Exactly check an atom-level weighting and utilities against a system.

    A label missing from a table reads as zero. Every value must be an int
    or a Fraction, every weight label and every label of an alternative's
    utility table an atom, every utility table an alternative's, the
    weights nonnegative with sum 1, and every row's margin, keyed
    (state, rival), strictly positive: _margin_report with one point per
    atom.
    """
    if not (isinstance(weights, Mapping) and isinstance(utilities, Mapping)
            and all(isinstance(utilities.get(a, {}), Mapping)
                    for a in system.alternatives)):
        return WitnessReport(
            False, failures=("weights or utilities are not a table",))
    labels = set(weights).union(*[utilities.get(a, {})
                                  for a in system.alternatives])
    unknown = sorted(labels - set(system.atoms), key=str)
    failures = [f"unknown sample points {unknown}"] if unknown else []
    extra = sorted(set(utilities) - set(system.alternatives), key=str)
    if extra:
        failures.append(f"unknown alternatives {extra}")
    atoms, zeros = system.atoms, repeat(0)
    w = list(map(weights.get, atoms, zeros))
    u = [list(map(utilities.get(alt, {}).get, atoms, zeros))
         for alt in system.alternatives]
    if not all(map(isinstance, chain(w, *u), repeat((int, Fraction)))):
        failures.append("witness value is not rational")
        return WitnessReport(False, failures=tuple(failures))
    return _margin_report(system.rows, len(w), range(len(w)),
                          *_over_lcm(w), u, failures)


def verify_certificate(system: FeasibilitySystem,
                       result: FeasibilityResult) -> WitnessReport:
    """Exactly re-check the witness carried by a result.

    A feasible result's weights and utilities must pass verify_weighting;
    an infeasible one must combine rows nonnegatively into a vector with
    no positive column and positive total multiplier. Anything but a
    system and a result fails.
    """
    if not (isinstance(system, FeasibilitySystem)
            and isinstance(result, FeasibilityResult)):
        return WitnessReport(False, failures=("not a system and a result",))
    if result.feasible is True:
        return verify_weighting(system, result.weights, result.utilities)
    reason = ("feasible is not a bool" if result.feasible is not False
              else _certificate_failure(system, result.certificate))
    return WitnessReport(reason is None, failures=(reason,) if reason else ())


def _certificate_failure(system: FeasibilitySystem,
                         certificate) -> str | None:
    """Why a Farkas certificate fails to prove the system empty, if it does."""
    if not certificate:
        return "missing certificate"
    if not isinstance(certificate, (tuple, list)):
        return "certificate is not a list"
    key = {(r.state, r.alternative): r for r in system.rows}
    for entry in certificate:
        if not (isinstance(entry, (tuple, list)) and len(entry) == 3
                and all(isinstance(label, str) for label in entry[:2])):
            return f"malformed entry {entry!r}"
        state, alt, mult = entry
        if (state, alt) not in key:
            return f"unknown row ({state}, {alt})"
        if not isinstance(mult, (int, Fraction)):
            return f"multiplier {mult!r} is not a nonnegative rational"
        if mult < 0:
            return (f"multiplier {format_rational(mult)} is not a "
                    f"nonnegative rational")
    # one positive scale keeps every sign, which is all that is checked
    mults, _ = _over_lcm([entry[2] for entry in certificate])
    if sum(mults) <= 0:
        return "zero combination"
    combined = [0] * system.ncols
    for (state, alt, _), m in zip(certificate, mults):
        for j, c in key[state, alt].terms:
            combined[j] += m * c
    for j, value in enumerate(combined):
        if value > 0:
            alt, atom = system.column_label(j)
            return f"combination positive on g[{alt}][{atom}]"
    return None


def _result_from_point(system: FeasibilitySystem, g: Sequence[int], den: int,
                       path: str) -> FeasibilityResult:
    """The uniform weighting and the utilities n * g / den, Fractions on
    every route; equal values share one Fraction."""
    n = len(system.atoms)
    weight = Fraction(1, n)
    weights = {atom: weight for atom in system.atoms}
    value = {v: Fraction(n * v, den) for v in set(g)}
    utilities = {
        alt: {atom: value[g[i * n + k]]
              for k, atom in enumerate(system.atoms)}
        for i, alt in enumerate(system.alternatives)
    }
    return FeasibilityResult(True, system, weights=weights,
                             utilities=utilities, path=path)


def _result_from_duals(system: FeasibilitySystem, y: Sequence[Fraction],
                       path: str) -> FeasibilityResult:
    cert = tuple([(r.state, r.alternative, v)
                  for r, v in zip(system.rows, y) if v])
    return FeasibilityResult(False, system, certificate=cert, path=path)


def decide_system(system: FeasibilitySystem) -> FeasibilityResult:
    """Decide a linearized system and return a verified result.

    The phase-1 simplex's basis has one row per constraint of the system
    it runs on. A system {g >= 0 : Ag >= 1} with m rows and n columns is
    empty exactly when its Farkas alternative y >= 0, -A^T y >= 0,
    1^T y >= 1 is feasible, and that system's basis has n + 1 rows. So a
    tall system, m >= n + 4, is decided on the alternative: a feasible y
    is the certificate, and otherwise the loop's own Farkas duals (u, t)
    give the point u/t; the result's path is "simplex-dual". Any other
    system is decided directly, with path "simplex". The two sides cost
    about the same near m = n + 1; the margin of three rows keeps the
    bundled examples' systems, example_t's 12 x 9 the tallest, on the
    direct side, where their printed witnesses stay as they were. All
    arithmetic is on Python integers and Fractions, so nothing is
    rounded, and the witness is checked again by verify_certificate
    before it is returned.
    """
    if not system.rows:
        raise PlanError("system has no constraints; nothing to decide")
    return _verified(_simplex(system, len(system.rows) >= system.ncols + 4))


def _alternative(rows: Sequence[FeasibilityRow], ncols: int):
    """The Farkas alternative of {g >= 0 : Ag >= 1} as _phase1's arguments:
    one row -A^T y >= 0 per column of A, then 1^T y >= 1, over one
    variable y per row of A."""
    transposed: list[list[tuple[int, int]]] = [[] for _ in range(ncols)]
    for i, r in enumerate(rows):
        for j, c in r.terms:
            transposed[j].append((i, -c))
    transposed.append([(i, 1) for i in range(len(rows))])
    return transposed, [0] * ncols + [1], len(rows)


def _simplex(system: FeasibilitySystem, dual: bool) -> FeasibilityResult:
    """The phase-1 verdict and witness for a system, run on the system
    itself or, when dual, on its Farkas alternative."""
    rows, n = system.rows, system.ncols
    if dual:
        verdict, payload = _phase1(*_alternative(rows, n))
        if verdict == "feasible":
            return _result_from_duals(system, payload, "simplex-dual")
        x = [u / payload[n] for u in payload[:n]]  # the duals (u, t) give u/t
    else:
        verdict, payload = _phase1([r.terms for r in rows], [1] * len(rows),
                                   n)
        if verdict == "infeasible":
            return _result_from_duals(system, payload, "simplex")
        x = payload
    g, den = _over_lcm(x)
    if min(_row_values(rows, g)) < den:
        raise RuntimeError("exact simplex returned an invalid point")
    return _result_from_point(system, g, den,
                              "simplex-dual" if dual else "simplex")


def _verified(result: FeasibilityResult) -> FeasibilityResult:
    report = verify_certificate(result.system, result)
    if not report.valid:
        raise RuntimeError(f"{result.path} witness failed its own "
                           f"verification: {report.reason}")
    return result


def decide_rationalizable(s: EStructure, plan: Plan) -> FeasibilityResult:
    """Decide whether any weighting and utilities rationalize the plan.

    The plan's choices alone may prove it infeasible, on any structure
    (_dominance_certificate); the result's path is "dominance". On a
    structure whose states are pairwise comparable or incompatible, a
    tree up to twins, a plan, partial or total, is rationalizable
    exactly when no decided state is cut off: the paper's theorem for
    experimentation trees, with an undecided state free unless its
    children force its choice. Such a plan gets either a cut
    certificate or the theorem's witness, with path "tree"
    (_decide_up_to_twins), and no simplex runs. Every other input goes
    to the simplex of decide_system. Each witness passes
    verify_certificate, in exact arithmetic, before it is returned.
    """
    system = build_system(s, plan)
    certificate = _dominance_certificate(s, plan)
    if certificate:
        return _verified(FeasibilityResult(False, system,
                                           certificate=certificate,
                                           path="dominance"))
    shape = _twin_tree(s.derived)
    if shape is None:
        return decide_system(system)
    return _verified(_decide_up_to_twins(system, s, plan, shape))


def _dominance_certificate(s: EStructure, plan: Plan
                           ) -> tuple[tuple[str, str, Fraction], ...] | None:
    """A Farkas certificate read off the plan's choices, or None.

    Twins, states that each refine the other, have one event, so when x
    picks a and its twin x' picks b, rows (x, b) and (x', a) sum to zero
    in every column: the first such pair in declaration order gives
    ((x, b, 1), (x', a, 1)). Otherwise take the first check_isd_plan
    violation (z, c), z choosing b, whose immediate refinements' events
    are pairwise disjoint with union e(z): row (z, c) plus row (k, b) for
    each refinement k, all choosing c, sums to zero in every column. The
    partition is needed: where two refinements meet, as x1 and x2 do in
    example_t, the sum is positive on their common atoms, and the plan
    may be rationalizable. Events are read off the canonical space the
    system's rows are built from.
    """
    d, states, choice, one = s.derived, s.states, plan.choice, Fraction(1)
    for i, (up, refiners) in enumerate(zip(d.up, d.refiners)):
        twins = up & refiners & -(2 << i)  # the twins j > i
        if twins and states[i] in choice:
            a = choice[states[i]]
            for j in _bits(twins):
                b = choice.get(states[j])
                if b is not None and b != a:
                    return (states[i], b, one), (states[j], a, one)
    events = s.canonical.events
    for z, c in check_isd_plan(s, plan).violations:
        kids = d.immed_sets[z]
        parts = [events[k] for k in kids]
        if (sum(map(len, parts)) == len(events[z])
                and frozenset().union(*parts) == events[z]):
            b = choice[z]
            return ((z, c, one),) + tuple([(k, b, one) for k in kids])
    return None


class _TwinTree(NamedTuple):
    """A structure whose states are pairwise comparable or incompatible,
    read as a tree of twin classes on declaration indices. A class is
    named by its first state; lists indexed by state hold a value at
    each class's name."""

    rep: list[int]  # each state's class
    kids: list[list[int]]  # each class's child classes, in order
    top_down: list[int]  # the classes, each after its parent
    depth: list[int]  # each class's number of ancestor classes


def _twin_tree(d: DerivedRelations) -> _TwinTree | None:
    """The tree of twin classes, or None unless every two states are
    comparable or incompatible: up | refiners | incompat_rows is every
    state, for each one. Then the states a state refines form a chain of
    classes, so its immediate predecessors (parents) are one class,
    whose first state is parents[0], and the classes form a tree under
    the class with no parents. The structure's canonical space is
    verified, so that class is the root's."""
    up, refiners = d.up, d.refiners
    full = (1 << len(up)) - 1
    rep = []
    for u, r, c in zip(up, refiners, d.incompat_rows):
        if u | r | c != full:
            return None
        twins = u & r
        rep.append((twins & -twins).bit_length() - 1)  # _lowest, inlined
    index, parents = d.index, d.parents
    kids: list[list[int]] = [[] for _ in up]
    top_down: list[int] = []
    for i, x in enumerate(d.states):
        if rep[i] == i:
            above = parents[x]
            if above:
                kids[index[above[0]]].append(i)
            else:
                top_down.append(i)
    depth = [0] * len(up)
    for r in top_down:  # grows as it is read: each class's kids go last
        below = depth[r] + 1
        for k in kids[r]:
            depth[k] = below
        top_down += kids[r]
    return _TwinTree(rep, kids, top_down, depth)


def _decide_up_to_twins(system: FeasibilitySystem, s: EStructure,
                        plan: Plan, shape: _TwinTree) -> FeasibilityResult:
    """The verdict and witness, path "tree", for a plan on a tree of
    twin classes that _dominance_certificate found no certificate for,
    so twins that both decide agree and each class has one choice.

    One pass, children first, marks each undecided class forced to c
    when all its child classes are forced to c, and free otherwise (a
    class with no children is free); a decided class is forced to its
    own choice. A decided class whose child classes are all forced to
    one c other than its choice b is cut: the maximal decided classes
    below it choose c and their events partition its event. So for the
    cut with the first deciding state x in declaration order, row
    (x, c) plus row (k, b) for the first deciding state k of each of
    those classes, each with multiplier 1 and the k in declaration
    order, sums to zero in every column: the certificate.

    Otherwise the plan extends top down, each forced class taking its
    forced choice and each free one its parent's (a free root the first
    alternative), to a total plan with no dominance violation, whose
    avoidance construction (_avoidance) rationalizes it. Its points are
    summed per atom into g = weight x utility: margins are linear in g,
    so they keep their signs. Point i weighs 3^(n-1-i), its raw weight
    times 3^n/2, an integer scaling the homogeneous system allows.
    """
    states, alts, get = s.states, tuple(plan.alternatives), plan.choice.get
    position = {a: j for j, a in enumerate(alts)}
    rep, kids, top_down, _ = shape
    picks = [-1] * len(rep)  # each class's choice, -1 when undecided
    decider = [-1] * len(rep)  # each class's first deciding state
    for i, x in enumerate(states):
        j = position.get(get(x, _UNDECIDED), -1)
        if j >= 0 and decider[rep[i]] < 0:
            picks[rep[i]], decider[rep[i]] = j, i
    forced = picks.copy()  # -1 for a free class
    cut = []
    for r in reversed(top_down):
        below = kids[r]
        if not below:
            continue
        c = forced[below[0]]
        for k in below:
            if forced[k] != c:
                c = -1
                break
        if picks[r] < 0:
            forced[r] = c
        elif 0 <= c != picks[r]:
            cut.append(r)
    if cut:
        r = min(cut, key=decider.__getitem__)
        c, b, one = forced[kids[r][0]], alts[picks[r]], Fraction(1)
        found, todo = [], kids[r].copy()
        while todo:  # down through forced undecided classes
            k = todo.pop()
            if picks[k] < 0:
                todo += kids[k]
            else:
                found.append(decider[k])
        return FeasibilityResult(False, system, certificate=(
            (states[decider[r]], alts[c], one),
            *[(states[k], b, one) for k in sorted(found)]), path="tree")
    if forced[top_down[0]] < 0:
        forced[top_down[0]] = 0
    for r in top_down:
        for k in kids[r]:
            if forced[k] < 0:
                forced[k] = forced[r]
    total = [forced[r] for r in rep]
    walks = _avoidance(s, (alts, tuple([alts[c] for c in total])), shape,
                       total)
    chosen = walks.chosen
    n = len(chosen)
    g = _mass(len(system.atoms), walks.atoms,
              [3 ** (n - 1 - i) for i in range(n)],
              [[c >> j & 1 for c in chosen] for j in range(len(alts))])
    return _result_from_point(system, g, 1, "tree")


class _Avoidance(NamedTuple):
    """The avoidance construction in integers for one plan on a tree of
    twin classes, as _avoidance keeps it.

    ends[r][j] is the leaf class the walk rejecting alternatives[j]
    reaches from class r, or the class where it stops because every
    child there chooses it; walked[r][j] holds bit i for each
    alternatives[i] chosen from r down to that leaf, and is -1 when the
    walk stops short. For each state x the plan decides and each rival
    a of its choice, the walk from x's class gives the avoidance point
    (its leaf's atom, x's class). The distinct points are in weight
    order: by the depth of the class, then by declaration of the class
    and of the leaf; atoms and classes list them, chosen their walks'
    bits, and avoid the index of each (x, a)'s point, x in declaration
    order, then a in alternative order. stuck, when some such walk
    stops short, is the first one's (state where it stops, a), and then
    the points and avoid are empty.
    """

    atoms: tuple[int, ...]
    classes: tuple[int, ...]
    chosen: tuple[int, ...]
    avoid: tuple[int, ...]
    stuck: tuple[str, str] | None
    ends: list[list[int]]
    walked: list[list[int]]


def _avoidance(s: EStructure, key: tuple, shape: _TwinTree | None = None,
               picks: list[int] | None = None) -> _Avoidance:
    """The one avoidance pass: the walks and points for the plan that
    key gives in _plan_key's form, on s, a tree of twin classes. Its
    caller may hand in what it has read already: shape, and picks, the
    index of each state's choice in key's alternatives (-1 when
    undecided). Every walk rejecting a steps into the first child class
    in declaration order that does not choose a; one pass, children
    first, builds each class's walks for every rival from its first
    child's and, for the rival that child chooses, from the first child
    choosing otherwise. An undecided state chooses no rival.

    The pass is kept on s's canonical space, one entry keyed by the
    key, read at each call, as _rows keeps its rows: the decision on a
    structure and construct_sceu and avoiding_branch on any tree object
    spanning it, whose own structure is the structure, run it once.
    """
    space = s.canonical
    kept = space.__dict__.get("_avoidance")
    if kept is not None and kept[0] == key:
        return kept[1]
    d = s.derived
    rep, kids, top_down, depth = shape or _twin_tree(d)
    alts = key[0]
    if picks is None:
        position = {a: j for j, a in enumerate(alts)}
        picks = [position.get(a, -1) for a in key[1]]
    rivals = range(len(alts))
    ends: list[list[int]] = [[]] * len(rep)
    walked: list[list[int]] = [[]] * len(rep)
    for r in reversed(top_down):
        mine = 1 << picks[r] if picks[r] >= 0 else 0
        below = kids[r]
        if not below:
            ends[r], walked[r] = [r] * len(alts), [mine] * len(alts)
            continue
        first = below[0]
        end, bits = ends[first], [mine | b for b in walked[first]]
        a = picks[first]
        if a >= 0:  # the walk rejecting a steps past the first child
            end = end.copy()
            other = next((k for k in below if picks[k] != a), None)
            if other is None:
                end[a], bits[a] = r, -1
            else:
                end[a], bits[a] = ends[other][a], mine | walked[other][a]
        ends[r], walked[r] = end, bits
    n = len(rep)
    seen: dict[int, int] = {}  # (depth, class, leaf) as one int -> bits
    at: list[int] = []
    stuck = None
    for x, c in enumerate(picks):
        if c < 0:
            continue
        r = rep[x]
        end, bits, base = ends[r], walked[r], (depth[r] * n + r) * n
        for j in rivals:
            if j == c:
                continue
            if bits[j] < 0:
                stuck = d.states[end[j]], alts[j]
                break
            p = base + end[j]
            seen[p] = bits[j]
            at.append(p)
        if stuck:
            break
    if stuck:
        walks = _Avoidance((), (), (), (), stuck, ends, walked)
    else:
        order = sorted(seen)
        place = {p: i for i, p in enumerate(order)}
        atom = {d.index[cls[0]]: k for k, cls in enumerate(space.atoms)}
        walks = _Avoidance(tuple([atom[p % n] for p in order]),
                           tuple([p // n % n for p in order]),
                           tuple([seen[p] for p in order]),
                           tuple([place[p] for p in at]), None, ends, walked)
    space.__dict__["_avoidance"] = key, walks
    return walks
