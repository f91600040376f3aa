"""Finite evidential structures.

A structure is a finite set of evidential states carrying a specificity
preorder: ``x wms y`` reads "x is weakly more specific than y", i.e. the
evidence in x is consistent with, and at least as detailed as, the evidence
in y. The least specific state (the empty body of evidence) is the root.

Input gives strict generator pairs; the reflexive-transitive closure is
computed at construction. All derived relations (strict part, equivalence,
immediate specificity, incompatibility) and the rank function are exact and
deterministic: states iterate in declaration order everywhere.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence


class StructureError(ValueError):
    """Malformed structure input or an operation on an invalid structure."""


AXIOM_IDS: tuple[str, ...] = (
    "preorder",
    "root",
    "intermediacy",
    "finite_branching",
    "separation",
)


@dataclass(frozen=True)
class DerivedRelations:
    """Relations derived from the specificity preorder.

    The one computation of the covering relation: every parent, child
    and maximal-state lookup reads it here.

    Attributes:
        sms: strict specificity; (x, y) present when x wms y but not y wms x.
        eqs: equivalence; (x, y) present when x wms y and y wms x.
        immms: immediate specificity; (x, z) present when x sms z and no
            state sits strictly between them.
        immed_sets: for each state z, Y(z): the states immediately more
            specific than z, in declaration order.
        parents: for each state x, the states x is immediately more
            specific than, in declaration order.
        incompat: symmetric irreflexive pairs with no common refinement;
            computed on first access, since most derived structures (tree
            candidates, a tree's own structure) never read it.

    The relation is a finite preorder, so the maximal states are exactly
    those with an empty ``immed_sets`` entry.
    """

    sms: frozenset[tuple[str, str]]
    eqs: frozenset[tuple[str, str]]
    immms: frozenset[tuple[str, str]]
    immed_sets: Mapping[str, tuple[str, ...]]
    parents: Mapping[str, tuple[str, ...]]

    @cached_property
    def incompat(self) -> frozenset[tuple[str, str]]:
        # parents holds every state; sms and eqs make up the relation
        refiners: dict[str, set[str]] = {y: set() for y in self.parents}
        for pairs in (self.sms, self.eqs):
            for w, y in pairs:
                refiners[y].add(w)
        return frozenset([(x, y) for x in refiners for y in refiners
                          if refiners[x].isdisjoint(refiners[y])])


@dataclass(frozen=True)
class ConditionVerdict:
    """One named condition: whether it holds, and a finite witness if not."""

    condition: str
    passed: bool
    witness: tuple | None = None


@dataclass(frozen=True)
class ConditionReport:
    """Verdicts for a fixed list of named conditions, in check order.

    Every check that reports on named conditions returns one: the five
    structure axioms, the canonical-space and embedding conditions, and
    the seven tree conditions.
    """

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


AxiomVerdict = ConditionVerdict
AxiomReport = ConditionReport


@dataclass(frozen=True)
class WitnessReport:
    """What every witness and certificate check returns; margins maps
    (state, rival) to the chosen alternative's advantage over the rival."""

    verified: bool
    margins: Mapping[tuple[str, str], Fraction] = field(default_factory=dict)
    failures: tuple[str, ...] = ()
    total_weight: Fraction = Fraction(0)

    @property
    def valid(self) -> bool:
        return self.verified

    @property
    def reason(self) -> str | None:
        return self.failures[0] if self.failures else None

    @property
    def min_margin(self) -> Fraction | None:
        return min(self.margins.values(), default=None)


CertificateReport = RationalizationReport = WitnessReport


@dataclass(frozen=True)
class RankTable:
    """Rank of every state and one witness chain per state.

    ``rho[x]`` is the length of the shortest immediate-specificity chain
    from x down to the root; ``chains[x]`` is one such chain, starting at x
    and ending at the root, with exactly ``rho[x]`` steps.
    """

    rho: Mapping[str, int]
    chains: Mapping[str, tuple[str, ...]]


@dataclass(frozen=True)
class EStructure:
    """A finite evidential structure.

    Attributes:
        states: all state identifiers, in declaration order.
        root: identifier of the least specific state.
        relation: the closed specificity preorder as a set of (x, y) pairs,
            (x, y) meaning x is weakly more specific than y.
    """

    states: tuple[str, ...]
    root: str
    relation: frozenset[tuple[str, str]]

    @classmethod
    def from_generators(
        cls,
        states: Iterable[str],
        root: str,
        pairs: Iterable[tuple[str, str]],
    ) -> "EStructure":
        """Build a structure from strict generator pairs.

        Each pair (x, y) declares "x strictly more specific than y"; the
        stored relation is the reflexive-transitive closure.
        """
        state_list = list(states)
        if len(set(state_list)) != len(state_list):
            dupes = sorted({s for s in state_list if state_list.count(s) > 1})
            raise StructureError(f"duplicate state id(s): {', '.join(dupes)}")
        if root not in state_list:
            raise StructureError(f"root {root!r} is not a declared state")
        if len(state_list) < 2:
            raise StructureError("at least two states required")
        index = set(state_list)
        pair_list = list(pairs)
        for x, y in pair_list:
            if x not in index or y not in index:
                bad = x if x not in index else y
                raise StructureError(f"unknown state id in pair: {bad!r}")
        return cls(tuple(state_list), root, _closure(state_list, pair_list))

    def wms(self, x: str, y: str) -> bool:
        """True when x is weakly more specific than y."""
        return (x, y) in self.relation

    def matrix(self) -> list[list[bool]]:
        """Dense boolean matrix of the relation in declaration order."""
        return [[(x, y) in self.relation for y in self.states]
                for x in self.states]

    @cached_property
    def derived(self) -> DerivedRelations:
        return derive_relations(self)

    def restrict(self, states: Iterable[str]) -> "EStructure":
        """Sub-structure induced on a subset of states (relation restricted)."""
        kept = set(states)
        keep = [s for s in self.states if s in kept]
        rel = frozenset((x, y) for (x, y) in self.relation
                        if x in kept and y in kept)
        return EStructure(tuple(keep), self.root, rel)


def _closure(nodes: Sequence[str],
             edges: Iterable[tuple[str, str]]) -> frozenset[tuple[str, str]]:
    """Reflexive-transitive closure of the edges over the nodes.

    Every edge must join two of the nodes; (x, y) is in the result when y
    is reachable from x along zero or more edges.
    """
    succ: dict[str, set[str]] = {x: set() for x in nodes}
    for x, y in edges:
        succ[x].add(y)
    closed: set[tuple[str, str]] = set()
    for start in nodes:
        # depth-first reachability gives the closure rooted here
        seen = {start}
        stack = [start]
        while stack:
            for nxt in succ[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        closed.update((start, y) for y in seen)
    return frozenset(closed)


def _first(states: Sequence[str],
           found: Iterable[tuple[str, ...]]) -> tuple[str, ...] | None:
    """The found witness earliest in declaration order (not hash order)."""
    position = {x: i for i, x in enumerate(states)}
    return min(found, key=lambda w: [position[x] for x in w], default=None)


def derive_relations(s: EStructure) -> DerivedRelations:
    """Compute strict/equivalence/immediate/incompatibility relations."""
    rel = s.relation
    sms = frozenset([(x, y) for (x, y) in rel if (y, x) not in rel])
    below: dict[str, set[str]] = {x: set() for x in s.states}
    for x, y in sms:
        below[x].add(y)
    parents: dict[str, tuple[str, ...]] = {}
    immed: dict[str, list[str]] = {z: [] for z in s.states}
    for x in s.states:
        # immediate: strictly below x with no state strictly between
        between = set().union(*[below[y] for y in below[x]])
        parents[x] = tuple([z for z in s.states
                            if z in below[x] and z not in between])
        for z in parents[x]:
            immed[z].append(x)
    return DerivedRelations(
        sms, rel - sms,
        frozenset([(x, z) for x in s.states for z in parents[x]]),
        {z: tuple(kids) for z, kids in immed.items()}, parents)


def check_axioms(s: EStructure) -> ConditionReport:
    """Evaluate the five axioms; failures carry a finite witness each."""
    rel = s.relation
    d = s.derived
    verdicts: list[ConditionVerdict] = []

    witness: tuple | None = None
    for x in s.states:
        if (x, x) not in rel:
            witness = ("not reflexive", x)
            break
    if witness is None:
        found = _first(s.states, ((a, b, c) for a, b in rel for c in s.states
                                  if (b, c) in rel and (a, c) not in rel))
        witness = ("not transitive", *found) if found else None
    # no strict-cycle check: sms excludes every pair whose reverse is in rel
    verdicts.append(ConditionVerdict("preorder", witness is None, witness))

    witness = None
    if len(s.states) < 2:
        witness = ("fewer than two states",)
    else:
        for x in s.states:
            if x != s.root and (x, s.root) not in d.sms:
                witness = (x,)
                break
    verdicts.append(ConditionVerdict("root", witness is None, witness))

    witness = _first(s.states, ((x, z) for x, z in d.sms if not any(
        (y, z) in rel for y in d.parents[x])))
    verdicts.append(ConditionVerdict("intermediacy", witness is None, witness))

    # always holds: each Y(z) is a subset of the finite state set
    verdicts.append(ConditionVerdict("finite_branching", True))

    witness = None
    incompat = d.incompat
    for x in s.states:
        for z in s.states:
            if (x, z) in rel:
                continue
            if not any((y, x) in rel and (y, z) in incompat for y in s.states):
                witness = (x, z)
                break
        if witness:
            break
    verdicts.append(ConditionVerdict("separation", witness is None, witness))

    return ConditionReport(tuple(verdicts))


def rank(s: EStructure) -> RankTable:
    """Shortest immediate-specificity chain lengths, with witness chains.

    Raises StructureError when the structure fails the axioms (rank is then
    not defined on every state).
    """
    report = check_axioms(s)
    if not report.passed:
        raise StructureError(
            "structure fails axioms: " + ", ".join(report.failed_ids))
    d = s.derived
    rho: dict[str, int] = {s.root: 0}
    queue = [s.root]
    for z in queue:  # breadth first from the root; the queue grows as read
        for x in d.immed_sets[z]:
            if x not in rho:
                rho[x] = rho[z] + 1
                queue.append(x)
    missing = [x for x in s.states if x not in rho]
    if missing:
        # unreachable under the axioms; kept as a hard error for safety
        raise StructureError(f"states without a chain to root: {missing}")
    chains: dict[str, tuple[str, ...]] = {s.root: (s.root,)}
    for x in queue[1:]:  # by rank, so each parent's chain comes first
        # witness chain through the earliest-declared minimal-rank parent
        step = next(p for p in d.parents[x] if rho[p] == rho[x] - 1)
        chains[x] = (x,) + chains[step]
    return RankTable(rho, chains)


def rank_level_sets(s: EStructure, n: int) -> frozenset[str]:
    """All states of rank at most n."""
    table = rank(s)
    return frozenset(x for x, r in table.rho.items() if r <= n)
