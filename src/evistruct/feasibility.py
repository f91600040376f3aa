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
step is exact integer arithmetic and nothing is rounded. Every returned
verdict carries an exactly verified witness: a weighting with utilities,
or a nonnegative row combination proving emptiness.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .canonical import build_canonical
from .plans import Plan, PlanError
from .structure import EStructure


@dataclass(frozen=True)
class FeasibilityRow:
    """One strict-dominance constraint.

    Attributes:
        state: domain state the constraint comes from.
        alternative: the rejected alternative it compares against.
        coeffs: dense coefficient list over the g variables.
    """

    state: str
    alternative: str
    coeffs: tuple[int, ...]


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
    rows.
    """

    feasible: bool
    system: FeasibilitySystem
    weights: Mapping[str, Fraction] | None = None
    utilities: Mapping[str, Mapping[str, Fraction]] | None = None
    certificate: tuple[tuple[str, str, Fraction], ...] | None = None


@dataclass(frozen=True)
class CertificateReport:
    valid: bool
    reason: str | None = None


def build_system(s: EStructure, plan: Plan) -> FeasibilitySystem:
    """Linearize the strict-dominance requirements of a plan."""
    for x in plan.choice:
        if x not in s.states:
            raise PlanError(f"plan state {x!r} is not a state")
    space = build_canonical(s)
    atoms = space.labels
    natoms = len(atoms)
    alts = plan.alternatives
    index = {a: i for i, a in enumerate(alts)}
    rows: list[FeasibilityRow] = []
    for x in s.states:
        if x not in plan.choice:
            continue
        chosen = plan.choice[x]
        event = space.events[x]
        for a in alts:
            if a == chosen:
                continue
            coeffs = [0] * (len(alts) * natoms)
            for w in event:
                coeffs[index[chosen] * natoms + w] += 1
                coeffs[index[a] * natoms + w] -= 1
            rows.append(FeasibilityRow(x, a, tuple(coeffs)))
    return FeasibilitySystem(alts, atoms, tuple(rows))


# ---------------------------------------------------------------- simplex

def _phase1(rows: Sequence[Sequence[int]], ncols: int):
    """Phase-1 simplex with Bland's rule on an integer-preserving tableau.

    Decides {x >= 0 : Ax >= 1} over [A | -I | I | 1], starting from the
    artificial basis. Every stored row, the reduced-cost row included, is
    D times the rational tableau B^-1 [A | -I | I | 1], where D > 0 is the
    determinant of the basis B, so all entries are integers (Edmonds 1967,
    Bareiss 1968). Ratios are compared by cross-multiplication, so the
    pivots are those of the rational tableau. Returns ("feasible", x) with
    x exact, or ("infeasible", y) with y the exact Farkas duals per row.
    """
    m = len(rows)
    n = ncols
    width = n + 2 * m
    tableau: list[list[int]] = []
    for i, coeffs in enumerate(rows):
        row = [*coeffs, *[0] * (2 * m), 1]
        row[n + i] = -1
        row[n + m + i] = 1
        tableau.append(row)
    basis = list(range(n + m, n + 2 * m))
    red = [-sum(column) for column in zip(*tableau)]
    for j in range(n + m, n + 2 * m):
        red[j] += 1
    det = 1

    while True:
        enter = next((j for j in range(width) if red[j] < 0), None)
        if enter is None:
            break
        pivot_row = None
        for i, row in enumerate(tableau):
            t = row[enter]
            if t <= 0:
                continue
            if pivot_row is None:
                pivot_row = i
                continue
            best = tableau[pivot_row]
            lhs = row[width] * best[enter]
            rhs = best[width] * t
            if lhs < rhs or (lhs == rhs and basis[i] < basis[pivot_row]):
                pivot_row = i
        if pivot_row is None:
            raise RuntimeError("phase-1 objective unbounded")
        prow = tableau[pivot_row]
        p = prow[enter]
        for i, row in enumerate(tableau):
            if i != pivot_row:
                tableau[i] = _eliminate(row, prow, enter, p, det)
        red = _eliminate(red, prow, enter, p, det)
        basis[pivot_row] = enter
        det = p

    if red[width] == 0:
        x = [Fraction(0)] * n
        for i, b in enumerate(basis):
            if b < n:
                x[b] = Fraction(tableau[i][width], det)
        return "feasible", x
    return "infeasible", [1 - Fraction(red[n + m + i], det)
                          for i in range(m)]


def _eliminate(row: list[int], prow: list[int], enter: int, p: int,
               det: int) -> list[int]:
    """One row of a fraction-free pivot: (p*row - row[enter]*prow) / det.

    The division is exact because the result is the new determinant times
    an entry of the new rational tableau.
    """
    f = row[enter]
    if f:
        return [(p * v - f * w) // det for v, w in zip(row, prow)]
    if p == det:
        return row
    return [p * v // det for v in row]


def _row_values(system: FeasibilitySystem,
                x: Sequence[Fraction]) -> list[Fraction]:
    return [sum((Fraction(c) * v for c, v in zip(r.coeffs, x) if c),
                start=Fraction(0))
            for r in system.rows]


def verify_certificate(system: FeasibilitySystem,
                       result: FeasibilityResult) -> CertificateReport:
    """Exactly re-check the witness carried by a result.

    A feasible result must make every chosen alternative strictly beat
    every rival in weighted utility; an infeasible one must combine rows
    nonnegatively into a vector with no positive column and positive
    total multiplier.
    """
    if result.feasible:
        weights, utilities = result.weights, result.utilities
        if weights is None or utilities is None:
            return CertificateReport(False, "missing witness")
        for atom in system.atoms:
            if atom not in weights:
                return CertificateReport(False, f"no weight for {atom!r}")
            for alt in system.alternatives:
                if atom not in utilities.get(alt, ()):
                    return CertificateReport(
                        False, f"no utility for {alt!r} at {atom!r}")
        values = [*weights.values(), *(utilities[alt][atom]
                                       for alt in system.alternatives
                                       for atom in system.atoms)]
        if not all(isinstance(v, (int, Fraction)) for v in values):
            return CertificateReport(False, "witness value is not rational")
        total = sum(weights.values())
        if total != 1:
            return CertificateReport(False, f"weights sum to {total}")
        if any(w <= 0 for w in weights.values()):
            return CertificateReport(False, "nonpositive weight")
        for row in system.rows:
            margin = Fraction(0)
            for j, c in enumerate(row.coeffs):
                if c:
                    alt, atom = system.column_label(j)
                    margin += c * weights[atom] * utilities[alt][atom]
            if margin <= 0:
                return CertificateReport(
                    False, f"no strict preference at {row.state!r} "
                           f"against {row.alternative!r}")
        return CertificateReport(True)

    if not result.certificate:
        return CertificateReport(False, "missing certificate")
    key = {(r.state, r.alternative): i for i, r in enumerate(system.rows)}
    y = [Fraction(0)] * len(system.rows)
    for entry in result.certificate:
        if not (isinstance(entry, (tuple, list)) and len(entry) == 3
                and all(isinstance(label, str) for label in entry[:2])):
            return CertificateReport(False, f"malformed entry {entry!r}")
        state, alt, mult = entry
        if (state, alt) not in key:
            return CertificateReport(False, f"unknown row ({state}, {alt})")
        if not isinstance(mult, (int, Fraction)) or mult < 0:
            return CertificateReport(
                False, f"multiplier {mult!r} is not a nonnegative rational")
        y[key[state, alt]] += mult
    if sum(y) <= 0:
        return CertificateReport(False, "zero combination")
    for j in range(system.ncols):
        combined = sum(y[i] * r.coeffs[j] for i, r in enumerate(system.rows))
        if combined > 0:
            alt, atom = system.column_label(j)
            return CertificateReport(
                False, f"combination positive on g[{alt}][{atom}]")
    return CertificateReport(True)


def _result_from_point(system: FeasibilitySystem,
                       x: Sequence[Fraction]) -> FeasibilityResult:
    n = len(system.atoms)
    weight = Fraction(1, n)
    weights = {atom: weight for atom in system.atoms}
    utilities = {
        alt: {atom: n * x[i * n + k] for k, atom in enumerate(system.atoms)}
        for i, alt in enumerate(system.alternatives)
    }
    return FeasibilityResult(True, system, weights=weights,
                             utilities=utilities)


def _result_from_duals(system: FeasibilitySystem,
                       y: Sequence[Fraction]) -> FeasibilityResult:
    cert = tuple([(r.state, r.alternative, v)
                  for r, v in zip(system.rows, y) if v])
    return FeasibilityResult(False, system, certificate=cert)


def decide_system(system: FeasibilitySystem) -> FeasibilityResult:
    """Decide a linearized system and return a verified result.

    Runs the integer-preserving Bland simplex, whose only arithmetic is
    on Python integers and Fractions, so nothing is rounded. The witness
    it yields is checked again by verify_certificate before it is
    returned.
    """
    coeff_rows = [r.coeffs for r in system.rows]
    if not coeff_rows:
        raise PlanError("system has no constraints; nothing to decide")
    verdict, payload = _phase1(coeff_rows, system.ncols)
    if verdict == "feasible":
        if min(_row_values(system, payload)) < 1:
            raise RuntimeError("exact simplex returned an invalid point")
        result = _result_from_point(system, payload)
    else:
        result = _result_from_duals(system, payload)
    report = verify_certificate(system, result)
    if not report.valid:
        raise RuntimeError(f"exact simplex witness failed its own "
                           f"verification: {report.reason}")
    return result


def decide_rationalizable(s: EStructure, plan: Plan) -> FeasibilityResult:
    """Decide whether any weighting and utilities rationalize the plan."""
    return decide_system(build_system(s, plan))
