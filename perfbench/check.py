"""Independent answer checks for the benchmark.

Nothing here calls the package's own verifiers. Constraint rows are
rebuilt from the generator's events: for a tree, the leaves at or below a
node; for a subset family, the subset itself. A returned witness is then
checked in exact rationals against those rows:

* a Farkas certificate needs nonnegative multipliers on known rows, a
  positive total, and no positive entry in any column of y^T A;
* a weighting with utilities needs positive weights summing to 1 and a
  strictly positive margin for the chosen alternative over every rival
  at every covered state.

Each check returns None when the witness holds, else a short reason.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Mapping

Events = Mapping[str, frozenset]


def constraint_rows(events: Events, alternatives, choice: Mapping[str, str]
                    ) -> dict[tuple[str, str], tuple[str, frozenset]]:
    """(state, rejected alternative) -> (chosen alternative, event)."""
    return {(x, a): (chosen, events[x])
            for x, chosen in choice.items()
            for a in alternatives if a != chosen}


def point_of_labels(events: Events, labels) -> dict[str, Hashable] | str:
    """Map atom labels ("x|y" for equivalent maximal states) to points.

    Every member of a label must have the same one-point event, and the
    labels must cover each point exactly once.
    """
    points = frozenset().union(*events.values())
    out: dict[str, Hashable] = {}
    for label in labels:
        members = str(label).split("|")
        if any(m not in events for m in members):
            return f"unknown atom {label!r}"
        seen = {events[m] for m in members}
        if len(seen) != 1 or len(next(iter(seen))) != 1:
            return f"atom {label!r} is not one point"
        out[label] = next(iter(next(iter(seen))))
    if sorted(map(repr, out.values())) != sorted(map(repr, points)):
        return "atoms do not cover the points exactly once"
    return out


def check_farkas(events: Events, alternatives, choice,
                 certificate) -> str | None:
    """y >= 0 on known rows, sum(y) > 0, and y^T A <= 0 in every column."""
    rows = constraint_rows(events, alternatives, choice)
    if not certificate:
        return "empty certificate"
    column: dict[tuple[str, Hashable], Fraction] = {}
    total = Fraction(0)
    for state, alt, mult in certificate:
        if (state, alt) not in rows:
            return f"unknown row ({state}, {alt})"
        mult = Fraction(mult)
        if mult < 0:
            return f"negative multiplier on ({state}, {alt})"
        total += mult
        chosen, event = rows[state, alt]
        for w in event:
            column[chosen, w] = column.get((chosen, w), 0) + mult
            column[alt, w] = column.get((alt, w), 0) - mult
    if total <= 0:
        return "multipliers sum to zero"
    for key, value in column.items():
        if value > 0:
            return f"combination positive on column {key}"
    return None


def check_weighting(events: Events, alternatives, choice,
                    weights: Mapping[Hashable, Fraction],
                    utilities: Mapping[str, Mapping[Hashable, Fraction]]
                    ) -> str | None:
    """Positive weights summing to 1 and a strict margin on every row.

    weights and utilities are keyed by point; a point missing from a
    utility table pays zero.
    """
    if any(Fraction(w) <= 0 for w in weights.values()):
        return "nonpositive weight"
    if sum(map(Fraction, weights.values())) != 1:
        return "weights do not sum to 1"
    for (x, a), (chosen, event) in constraint_rows(
            events, alternatives, choice).items():
        if not event <= weights.keys():
            return f"event of {x!r} leaves the weighted points"
        margin = sum((Fraction(weights[w])
                      * (Fraction(utilities.get(chosen, {}).get(w, 0))
                         - Fraction(utilities.get(a, {}).get(w, 0)))
                      for w in event), Fraction(0))
        if margin <= 0:
            return f"no strict margin at {x!r} over {a!r}"
    return None


def check_result(events: Events, alternatives, choice, result) -> str | None:
    """Check the witness a FeasibilityResult carries, whichever it is."""
    if not result.feasible:
        return check_farkas(events, alternatives, choice, result.certificate)
    if result.weights is None or result.utilities is None:
        return "feasible result without a witness"
    points = point_of_labels(events, result.weights.keys())
    if isinstance(points, str):
        return points
    weights = {points[lab]: w for lab, w in result.weights.items()}
    utilities = {}
    for alt, table in result.utilities.items():
        if not table.keys() <= points.keys():
            return f"utilities of {alt!r} name unknown atoms"
        utilities[alt] = {points[lab]: u for lab, u in table.items()}
    return check_weighting(events, alternatives, choice, weights, utilities)


def check_product_witness(leaves_under: Events, alternatives, choice,
                          leaf_of_point, weights, utilities) -> str | None:
    """Check a constructed tree witness over (leaf, state) points.

    Point i lies in the event of node x when its leaf is under x; the
    weights and each utility table run parallel to the points.
    """
    n = len(weights)
    if len(leaf_of_point) != n or any(len(u) != n
                                      for u in utilities.values()):
        return "points, weights and utilities differ in length"
    if any(leaf not in leaves_under for leaf in leaf_of_point):
        return "a point names an unknown leaf"
    events = {x: frozenset(i for i, leaf in enumerate(leaf_of_point)
                           if leaf in under)
              for x, under in leaves_under.items()}
    return check_weighting(
        events, alternatives, choice, dict(enumerate(weights)),
        {a: dict(enumerate(u)) for a, u in utilities.items()})


def pruning_count(children: Mapping[str, tuple[str, ...]], root: str) -> int:
    """Subtrees that keep the root and, at every kept node, either no
    children or all of them: P(leaf) = 1, P(x) = 1 + prod P(child)."""
    memo: dict[str, int] = {}

    def count(x: str) -> int:
        if x not in memo:
            product = 1
            for k in children[x]:
                product *= count(k)
            memo[x] = 1 + product if children[x] else 1
        return memo[x]

    return count(root)


def family_immediate(events: Events) -> dict[str, set[str]]:
    """State -> its immediate refinements under strict subset order."""
    states = list(events)
    out: dict[str, set[str]] = {x: set() for x in states}
    for z in states:
        below = [y for y in states if events[y] < events[z]]
        for y in below:
            if not any(events[y] < events[u] < events[z] for u in below):
                out[z].add(y)
    return out


def family_rank(events: Events, root: str) -> dict[str, int]:
    """Breadth-first distance from the root along immediate refinements."""
    kids = family_immediate(events)
    rho = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for z in frontier:
            for y in kids[z]:
                if y not in rho:
                    rho[y] = rho[z] + 1
                    nxt.append(y)
        frontier = nxt
    return rho


def family_isd_violations(events: Events, choice) -> set[tuple[str, str]]:
    """Covered states whose immediate refinements are all covered and
    unanimous for an alternative the state does not pick."""
    kids = family_immediate(events)
    out = set()
    for z, pick in choice.items():
        if kids[z] and all(y in choice for y in kids[z]):
            picks = {choice[y] for y in kids[z]}
            if len(picks) == 1 and pick not in picks:
                out.add((z, picks.pop()))
    return out
