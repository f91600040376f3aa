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

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping


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

    Attributes:
        sms: strict specificity; (x, y) present when x wms y but not y wms x.
        eqs: equivalence; (x, y) present when x wms y and y wms x.
        immms: immediate specificity; (x, z) present when x sms z and no
            state sits strictly between them.
        incompat: symmetric irreflexive pairs with no common refinement.
        immed_sets: for each state z, the set Y(z) of states immediately
            more specific than z.
    """

    sms: frozenset[tuple[str, str]]
    eqs: frozenset[tuple[str, str]]
    immms: frozenset[tuple[str, str]]
    incompat: frozenset[tuple[str, str]]
    immed_sets: Mapping[str, frozenset[str]]


@dataclass(frozen=True)
class AxiomVerdict:
    axiom: str
    passed: bool
    witness: tuple | None = None


@dataclass(frozen=True)
class AxiomReport:
    """Verdicts for the five structure axioms, with finite failure witnesses."""

    verdicts: tuple[AxiomVerdict, ...]

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def __getitem__(self, axiom: str) -> AxiomVerdict:
        for v in self.verdicts:
            if v.axiom == axiom:
                return v
        raise KeyError(axiom)

    @property
    def failed_ids(self) -> tuple[str, ...]:
        return tuple([v.axiom for v in self.verdicts if not v.passed])


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
        succ: dict[str, set[str]] = {s: set() for s in state_list}
        for x, y in pairs:
            if x not in index or y not in index:
                bad = x if x not in index else y
                raise StructureError(f"unknown state id in pair: {bad!r}")
            succ[x].add(y)
        closed: set[tuple[str, str]] = set()
        for start in state_list:
            # depth-first reachability gives the transitive closure rooted here
            seen = {start}
            stack = [start]
            while stack:
                cur = stack.pop()
                for nxt in succ[cur]:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            closed.update((start, y) for y in seen)
        return cls(tuple(state_list), root, frozenset(closed))

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
        keep = [s for s in self.states if s in set(states)]
        rel = frozenset((x, y) for (x, y) in self.relation
                        if x in set(keep) and y in set(keep))
        return EStructure(tuple(keep), self.root, rel)


def derive_relations(s: EStructure) -> DerivedRelations:
    """Compute strict/equivalence/immediate/incompatibility relations."""
    rel = s.relation
    sms = frozenset((x, y) for (x, y) in rel if (y, x) not in rel)
    eqs = frozenset((x, y) for (x, y) in rel if (y, x) in rel)
    # immediate: strict with no state strictly between
    strict_down: dict[str, set[str]] = {x: set() for x in s.states}
    for x, y in sms:
        strict_down[x].add(y)  # everything x is strictly more specific than
    immms = set()
    for x, z in sms:
        if not any(z in strict_down[y] for y in strict_down[x]):
            immms.add((x, z))
    refiners: dict[str, set[str]] = {x: set() for x in s.states}
    for w, y in rel:
        refiners[y].add(w)
    incompat = frozenset(
        (x, y)
        for x in s.states
        for y in s.states
        if not (refiners[x] & refiners[y])
    )
    immed: dict[str, frozenset[str]] = {
        z: frozenset(x for (x, zz) in immms if zz == z) for z in s.states
    }
    return DerivedRelations(sms, eqs, frozenset(immms), incompat, immed)


def check_axioms(s: EStructure) -> AxiomReport:
    """Evaluate the five axioms; failures carry a finite witness each."""
    rel = s.relation
    d = s.derived
    verdicts: list[AxiomVerdict] = []

    witness: tuple | None = None
    for x in s.states:
        if (x, x) not in rel:
            witness = ("not reflexive", x)
            break
    if witness is None:
        for a, b in rel:
            for c in s.states:
                if (b, c) in rel and (a, c) not in rel:
                    witness = ("not transitive", a, b, c)
                    break
            if witness:
                break
    # strict specificity can never cycle once the relation is a preorder:
    # a two-way strict pair would have landed in eqs, not sms
    if witness is None:
        for x, y in d.sms:
            if (y, x) in d.sms:
                witness = ("strict cycle", x, y)
                break
    verdicts.append(AxiomVerdict("preorder", witness is None, witness))

    witness = None
    if len(s.states) < 2:
        witness = ("fewer than two states",)
    else:
        for x in s.states:
            if x != s.root and (x, s.root) not in d.sms:
                witness = (x,)
                break
    verdicts.append(AxiomVerdict("root", witness is None, witness))

    witness = None
    for x, z in d.sms:
        if not any((x, y) in d.immms and (y, z) in rel for y in s.states):
            witness = (x, z)
            break
    verdicts.append(AxiomVerdict("intermediacy", witness is None, witness))

    witness = None
    for z in s.states:
        if len(d.immed_sets[z]) > len(s.states):
            witness = (z,)
            break
    verdicts.append(AxiomVerdict("finite_branching", witness is None, witness))

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
    verdicts.append(AxiomVerdict("separation", witness is None, witness))

    return AxiomReport(tuple(verdicts))


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
    parents: dict[str, list[str]] = {x: [] for x in s.states}
    for x, y in d.immms:
        parents[x].append(y)
    for x in parents:
        parents[x].sort(key=s.states.index)
    rho: dict[str, int] = {s.root: 0}
    level = 0
    while True:
        grew = False
        for x in s.states:
            if x in rho:
                continue
            if any(p in rho and rho[p] == level for p in parents[x]):
                rho[x] = level + 1
                grew = True
        if not grew:
            break
        level += 1
    missing = [x for x in s.states if x not in rho]
    if missing:
        # unreachable under the axioms; kept as a hard error for safety
        raise StructureError(f"states without a chain to root: {missing}")
    chains: dict[str, tuple[str, ...]] = {s.root: (s.root,)}
    for x in sorted(s.states, key=lambda t: (rho[t], s.states.index(t))):
        if x == s.root:
            continue
        # witness chain through the earliest-declared minimal-rank parent
        step = next(p for p in parents[x] if rho[p] == rho[x] - 1)
        chains[x] = (x,) + chains[step]
    return RankTable(rho, chains)


def rank_level_sets(s: EStructure, n: int) -> frozenset[str]:
    """All states of rank at most n."""
    table = rank(s)
    return frozenset(x for x, r in table.rho.items() if r <= n)
