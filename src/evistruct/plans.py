"""Contingency plans and dominance across immediate refinements.

A plan fixes a finite set of alternatives and picks one at each state in
its domain. The consistency notion implemented here is a sure-thing
condition over evidence: whenever every immediate refinement of a state is
in the domain and all of them settle on the same alternative, the state
itself must settle on that alternative too. A parallel condition applies
to state-indexed preference relations, where any strict preference
unanimous across a state's immediate refinements must already be held at
the state.

The plan-level and relation-level conditions agree on plans defined
everywhere, via the relation a plan induces (chosen alternative strictly
on top, the rest tied below, indifference off the domain). On partial
plans the relation-level condition is strictly stronger: an undecided
state escapes the plan-level clause but not the relation-level one.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from .structure import EStructure


class PlanError(ValueError):
    """Malformed plan or preference relation."""


_UNDECIDED = object()  # the choice at a state outside a plan's domain


@dataclass(frozen=True)
class Plan:
    """A choice of alternative at each state of a domain.

    Attributes:
        alternatives: at least two distinct alternative labels, in
            declaration order.
        choice: state -> chosen alternative; the domain is its key set.
    """

    alternatives: tuple[str, ...]
    choice: Mapping[str, str]

    def __post_init__(self) -> None:
        try:
            if len(self.alternatives) < 2:
                raise PlanError("need at least two alternatives")
            if len(set(self.alternatives)) != len(self.alternatives):
                raise PlanError("duplicate alternative labels")
            if not self.choice:
                raise PlanError("plan domain is empty")
            for x, a in self.choice.items():
                if a not in self.alternatives:
                    raise PlanError(
                        f"choice {a!r} at {x!r} is not an alternative")
        except (TypeError, AttributeError):
            try:
                len(self.alternatives), set(self.alternatives)
            except TypeError:
                raise PlanError("alternatives must be a collection of "
                                "hashable labels, not "
                                f"{self.alternatives!r}") from None
            raise PlanError("choice must be a mapping of states to "
                            f"alternatives, not {self.choice!r}") from None

    @property
    def domain(self) -> tuple[str, ...]:
        return tuple(self.choice)

    def restricted_to(self, states) -> "Plan":
        keep = set(states)
        kept = {x: a for x, a in self.choice.items() if x in keep}
        return Plan(self.alternatives, kept)


@dataclass(frozen=True)
class IsdReport:
    """Outcome of a dominance check.

    violations holds (state, alternative) pairs for plans and
    (state, preferred, dispreferred) triples for relations.
    """

    violations: tuple[tuple, ...]

    @property
    def consistent(self) -> bool:
        return not self.violations


def _check_domain(s: EStructure, plan: Plan) -> None:
    """Raise PlanError unless every state the plan decides is a state of s."""
    index = s.derived.index
    if not plan.choice.keys() <= index.keys():
        for x in plan.choice:
            if x not in index:
                raise PlanError(f"plan state {x!r} is not a state")


def check_isd_plan(s: EStructure, plan: Plan) -> IsdReport:
    """Dominance check for a plan.

    A state z in the domain is violating when its immediate refinements
    are nonempty, all lie in the domain, all choose one alternative a, and
    the plan picks something else at z. States whose refinements are only
    partly covered by the domain impose no constraint.

    One pass over the states reads each refinement's choice once: the
    first refinement's pick a settles a state that picks a itself or
    whose first refinement is undecided, and otherwise the rest must
    all pick a too.
    """
    _check_domain(s, plan)
    refinements = s.derived.immed_sets
    get = plan.choice.get
    violations: list[tuple] = []
    for z in s.states:
        kids = refinements[z]
        c = get(z, _UNDECIDED)
        if not kids or c is _UNDECIDED:
            continue
        a = get(kids[0], _UNDECIDED)
        if a is _UNDECIDED or a == c:
            continue
        for y in kids[1:]:
            if get(y, _UNDECIDED) != a:
                break
        else:
            violations.append((z, a))
    return IsdReport(tuple(violations))


@dataclass(frozen=True)
class ConditionalPreferenceRelation:
    """A total preorder on alternatives at each covered state.

    Attributes:
        alternatives: the alternative labels.
        tiers: state -> indifference classes, best first; each state's
            tiers must partition the alternatives.
    """

    alternatives: tuple[str, ...]
    tiers: Mapping[str, tuple[frozenset[str], ...]]

    def __post_init__(self) -> None:
        alts = set(self.alternatives)
        for x, levels in self.tiers.items():
            seen: set[str] = set()
            for level in levels:
                if not level or level & seen:
                    raise PlanError(f"tiers at {x!r} are not disjoint")
                seen |= level
            if seen != alts:
                raise PlanError(f"tiers at {x!r} do not cover alternatives")

    def _level(self, x: str, a: str) -> int:
        for i, level in enumerate(self.tiers[x]):
            if a in level:
                return i
        raise PlanError(f"alternative {a!r} missing from tiers at {x!r}")

    def prefers(self, x: str, a: str, b: str) -> bool:
        """Strict preference for a over b at state x."""
        return self._level(x, a) < self._level(x, b)

    def indifferent(self, x: str, a: str, b: str) -> bool:
        return self._level(x, a) == self._level(x, b)


def induced_relation(s: EStructure,
                     plan: Plan) -> ConditionalPreferenceRelation:
    """The relation a plan stands for: its pick strictly beats everything
    else where defined, total indifference elsewhere."""
    rest = tuple(plan.alternatives)
    tiers: dict[str, tuple[frozenset[str], ...]] = {}
    for x in s.states:
        a = plan.choice.get(x)
        if a is None:
            tiers[x] = (frozenset(rest),)
        else:
            tiers[x] = (frozenset({a}), frozenset(r for r in rest if r != a))
    return ConditionalPreferenceRelation(plan.alternatives, tiers)


def check_isd_relation(
    s: EStructure,
    relation: ConditionalPreferenceRelation | None = None,
    *,
    prefers: Callable[[str, str, str], bool] | None = None,
    alternatives: tuple[str, ...] | None = None,
) -> IsdReport:
    """Dominance check for a state-indexed preference relation.

    Accepts either a ConditionalPreferenceRelation or a bare strict
    preference predicate with its alternative labels. A state z is
    violating for the pair (a, b) when z has immediate refinements, every
    one of them strictly prefers a to b, and z does not.
    """
    if relation is not None:
        for x in s.states:
            if x not in relation.tiers:
                raise PlanError(f"relation does not cover state {x!r}")
        prefers = relation.prefers
        alternatives = relation.alternatives
    elif prefers is None or alternatives is None:
        raise PlanError("pass a relation, or prefers with alternatives")
    refinements = s.derived.immed_sets
    violations: list[tuple] = []
    for z in s.states:
        kids = refinements[z]
        if not kids:
            continue
        for a in alternatives:
            for b in alternatives:
                if a == b:
                    continue
                if (all(prefers(y, a, b) for y in kids)
                        and not prefers(z, a, b)):
                    violations.append((z, a, b))
    violations.sort(key=lambda v: (s.derived.index[v[0]], v[1], v[2]))
    return IsdReport(tuple(violations))
