"""Canonical sample spaces and embedding verification.

The canonical space of a finite structure takes one sample point per
equivalence class of maximally specific states. The event of a state x is
the set of those classes whose members are weakly more specific than x.
For a structure satisfying the five axioms this event map preserves and
reflects both the specificity order (as inclusion) and incompatibility (as
disjointness); both directions are verified, never assumed.

Compactness and clopen-ness of the classical construction are vacuous for
a finite discrete point set and are not materialized here.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping

from .structure import EStructure, StructureError

# field enumeration is exponential in the atom count; anything needing more
# than this many atoms has no business calling the exhaustive verifier
MAX_FIELD_ATOMS = 16

CANONICAL_CONDITION_IDS: tuple[str, ...] = (
    "top", "monotone", "disjoint", "base", "principal", "nonempty",
)


class CanonicalError(StructureError):
    """The computed event map violates a required condition."""


@dataclass(frozen=True)
class CanonicalSpace:
    """Finite canonical sample space.

    Attributes:
        atoms: one entry per sample point; each entry is the tuple of
            equivalent maximally specific states it stands for, in
            declaration order.
        events: state -> set of atom indices whose members refine it.
    """

    atoms: tuple[tuple[str, ...], ...]
    events: Mapping[str, frozenset[int]]

    def atom_label(self, index: int) -> str:
        return "|".join(self.atoms[index])

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple([self.atom_label(i) for i in range(len(self.atoms))])


@dataclass(frozen=True)
class ConditionVerdict:
    condition: str
    passed: bool
    witness: tuple | None = None


@dataclass(frozen=True)
class CanonicalReport:
    verdicts: tuple[ConditionVerdict, ...]

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def __getitem__(self, condition: str) -> ConditionVerdict:
        for v in self.verdicts:
            if v.condition == condition:
                return v
        raise KeyError(condition)

    @property
    def failed_ids(self) -> tuple[str, ...]:
        return tuple([v.condition for v in self.verdicts if not v.passed])


@dataclass(frozen=True)
class EmbeddingReport:
    """Verdicts for the three embedding conditions.

    ``order`` covers root-fullness plus the two-way correspondence of the
    specificity order with inclusion; ``disjoint`` covers incompatibility
    implying empty intersection; ``saturation`` covers each state's event
    being exactly the union of its immediate refinements' events.
    """

    verdicts: tuple[ConditionVerdict, ...]

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    @property
    def failed_ids(self) -> tuple[str, ...]:
        return tuple([v.condition for v in self.verdicts if not v.passed])

    def __getitem__(self, condition: str) -> ConditionVerdict:
        for v in self.verdicts:
            if v.condition == condition:
                return v
        raise KeyError(condition)


def build_canonical(s: EStructure) -> CanonicalSpace:
    """Construct the canonical space and verify it, raising on violation."""
    space = _event_space(s)
    report = verify_canonical(space, s)
    if not report.passed:
        raise CanonicalError(
            "canonical conditions violated: " + ", ".join(report.failed_ids))
    return space


def _event_space(s: EStructure) -> CanonicalSpace:
    """Atoms and event map, with no verification."""
    d = s.derived
    maximal = [x for x in s.states
               if not any((w, x) in d.sms for w in s.states)]
    classes: list[tuple[str, ...]] = []
    assigned: set[str] = set()
    for m in maximal:
        if m in assigned:
            continue
        cls = tuple([x for x in maximal if (x, m) in d.eqs])
        assigned.update(cls)
        classes.append(cls)
    events = {
        x: frozenset(i for i, cls in enumerate(classes)
                     if (cls[0], x) in s.relation)
        for x in s.states
    }
    return CanonicalSpace(tuple(classes), events)


def verify_canonical(space: CanonicalSpace, s: EStructure) -> CanonicalReport:
    """Exhaustively confirm the finite canonical-space conditions."""
    d = s.derived
    ev = space.events
    full = frozenset(range(len(space.atoms)))
    verdicts: list[ConditionVerdict] = []

    witness: tuple | None = None
    if ev[s.root] != full:
        witness = (s.root, tuple(sorted(ev[s.root])))
    verdicts.append(ConditionVerdict("top", witness is None, witness))

    witness = None
    for x in s.states:
        for y in s.states:
            if ((x, y) in s.relation) != (ev[x] <= ev[y]):
                witness = (x, y)
                break
        if witness:
            break
    verdicts.append(ConditionVerdict("monotone", witness is None, witness))

    witness = None
    for x in s.states:
        for y in s.states:
            if ((x, y) in d.incompat) != (not (ev[x] & ev[y])):
                witness = (x, y)
                break
        if witness:
            break
    verdicts.append(ConditionVerdict("disjoint", witness is None, witness))

    # The minimal nonempty elements of the generated field are the classes
    # of sample points with identical membership signature across all
    # events; every field element is a disjoint union of them. That makes
    # the two field conditions checkable without enumerating the field,
    # which has 2^atoms elements in the passing case.
    signature: dict[int, frozenset[str]] = {
        i: frozenset(x for x in s.states if i in ev[x])
        for i in range(len(space.atoms))
    }
    cells: dict[frozenset[str], set[int]] = {}
    for i, sig in signature.items():
        cells.setdefault(sig, set()).add(i)

    # base: a nonempty field element includes some state's event iff every
    # minimal one does
    witness = None
    for cell in sorted(cells.values(), key=sorted):
        member = frozenset(cell)
        if not any(ev[x] <= member for x in s.states):
            witness = (tuple(sorted(member)),)
            break
    verdicts.append(ConditionVerdict("base", witness is None, witness))

    # each ultrafilter of a finite field is the up-set of one of its minimal
    # nonempty elements; they are principal at singletons exactly when every
    # singleton is in the field, i.e. when no two points share a signature
    witness = None
    for i in range(len(space.atoms)):
        if len(cells[signature[i]]) != 1:
            witness = (space.atom_label(i),)
            break
    verdicts.append(ConditionVerdict("principal", witness is None, witness))

    witness = None
    for x in s.states:
        if not ev[x]:
            witness = (x,)
            break
    verdicts.append(ConditionVerdict("nonempty", witness is None, witness))

    return CanonicalReport(tuple(verdicts))


def generated_field(events, atom_count: int) -> set[frozenset[int]]:
    """Field of atom-index sets generated by the given events.

    Enumerates the whole field, so the universe is capped: use the
    signature argument inside verify_canonical for anything larger.
    """
    if atom_count > MAX_FIELD_ATOMS:
        raise CanonicalError(
            f"field enumeration capped at {MAX_FIELD_ATOMS} atoms; "
            f"got {atom_count}")
    full = frozenset(range(atom_count))
    field: set[frozenset[int]] = {frozenset(), full}
    field.update(frozenset(e) for e in events)
    changed = True
    while changed:
        changed = False
        current = list(field)
        for a in current:
            comp = full - a
            if comp not in field:
                field.add(comp)
                changed = True
            for b in current:
                for c in (a | b, a & b):
                    if c not in field:
                        field.add(c)
                        changed = True
    return field


def verify_embedding(
    s: EStructure,
    mapping: Mapping[str, frozenset[Hashable]],
) -> EmbeddingReport:
    """Check an arbitrary event assignment against the embedding conditions.

    mapping may send states to sets over any finite point universe; the
    universe is taken to be the union of all assigned sets.
    """
    for x in s.states:
        if x not in mapping:
            raise StructureError(f"mapping is not total: missing {x!r}")
    d = s.derived
    universe: frozenset[Hashable] = frozenset().union(*mapping.values())
    verdicts: list[ConditionVerdict] = []

    witness: tuple | None = None
    if mapping[s.root] != universe:
        witness = (s.root,)
    if witness is None:
        for x in s.states:
            for y in s.states:
                if ((x, y) in s.relation) != (mapping[x] <= mapping[y]):
                    witness = (x, y)
                    break
            if witness:
                break
    verdicts.append(ConditionVerdict("order", witness is None, witness))

    witness = None
    for x, y in d.incompat:
        if mapping[x] & mapping[y]:
            witness = (x, y)
            break
    verdicts.append(ConditionVerdict("disjoint", witness is None, witness))

    witness = None
    for z in s.states:
        kids = d.immed_sets[z]
        if not kids:
            continue
        union: frozenset[Hashable] = frozenset()
        for x in kids:
            union |= mapping[x]
        if union != mapping[z]:
            witness = (z,)
            break
    verdicts.append(ConditionVerdict("saturation", witness is None, witness))

    return EmbeddingReport(tuple(verdicts))


def product_embedding(
    space: CanonicalSpace, s: EStructure
) -> dict[str, frozenset[tuple[int, str]]]:
    """The event map crossed with the full state set.

    Sends x to events(x) x states, over the point universe atoms x states.
    Useful as the sample-point universe of constructed representations.
    """
    return {
        x: frozenset((i, y) for i in space.events[x] for y in s.states)
        for x in s.states
    }
