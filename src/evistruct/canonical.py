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

from collections.abc import Hashable, Iterable, Mapping, Sequence
from dataclasses import dataclass

from .structure import (ConditionReport, EStructure, StructureError,
                        _bits, _condition_report, _first_pair, _lowest,
                        _union)

# field enumeration is exponential in the atom count; anything needing more
# than this many atoms has no business calling the exhaustive verifier
MAX_FIELD_ATOMS = 16

CANONICAL_CONDITION_IDS: tuple[str, ...] = (
    "top", "monotone", "disjoint", "base", "principal", "nonempty",
)
EMBEDDING_CONDITION_IDS: tuple[str, ...] = ("order", "disjoint", "saturation")


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

    def __getstate__(self) -> dict:
        # the fields alone: feasibility._rows and rationalize._avoidance
        # keep their last passes on the space, which a pickle or a copy
        # leaves out
        return {"atoms": self.atoms, "events": self.events}


def build_canonical(s: EStructure) -> CanonicalSpace:
    """Construct the canonical space and verify it, raising on violation.

    The space is built and verified once per structure and cached on it
    (``EStructure.canonical``), so build_system, a tree's ``canonical``
    and construct_sceu share that one computation. verify_canonical
    itself re-checks whatever space it is given.
    """
    return s.canonical


def _verified_space(s: EStructure) -> CanonicalSpace:
    space = _event_space(s)
    report = verify_canonical(space, s)
    if not report.passed:
        raise CanonicalError(
            "canonical conditions violated: " + ", ".join(report.failed_ids))
    return space


def _event_space(s: EStructure) -> CanonicalSpace:
    """Atoms and event map, with no verification."""
    d = s.derived
    maximal = sum([1 << i for i, x in enumerate(s.states)
                   if not d.immed_sets[x]])
    classes: list[int] = []
    assigned = 0
    for m in _bits(maximal):
        if not assigned >> m & 1:
            classes.append(maximal & d.up[m] & d.refiners[m] | 1 << m)
            assigned |= classes[-1]
    members: list[list[int]] = [[] for _ in s.states]
    for i, cls in enumerate(classes):
        for x in _bits(d.up[_lowest(cls)]):
            members[x].append(i)
    return CanonicalSpace(
        tuple([tuple([s.states[x] for x in _bits(cls)]) for cls in classes]),
        {x: frozenset(members[k]) for k, x in enumerate(s.states)})


def verify_canonical(space: CanonicalSpace,
                     s: EStructure) -> ConditionReport:
    """Exhaustively confirm the finite canonical-space conditions.

    Re-checks the space on every call, comparing events as bitmasks over
    atom indices with the relation's bit rows. A space of the wrong
    shape, or one that gives some state of s no event (built for another
    structure, say) or an event holding anything but atom indices, fails
    every condition.
    """
    ids = CANONICAL_CONDITION_IDS
    if not (isinstance(space, CanonicalSpace)
            and isinstance(space.events, Mapping)
            and isinstance(space.atoms, (tuple, list))
            and all(isinstance(cls, (tuple, list))
                    and all(isinstance(x, str) for x in cls)
                    for cls in space.atoms)):
        return _condition_report(ids, [("not a canonical space",)] * len(ids))
    ev, natoms = space.events, len(space.atoms)
    for x in s.states:
        if not isinstance(ev.get(x), (set, frozenset)):
            return _condition_report(ids, [(x, "no event")] * len(ids))
        if not all(isinstance(i, int) and 0 <= i < natoms for i in ev[x]):
            return _condition_report(ids, [(x, "not atom indices")] * len(ids))
    d, states = s.derived, s.states
    everything = (1 << len(states)) - 1
    events, signature = _point_rows([ev[x] for x in states], natoms)
    top = None if len(ev[s.root]) == natoms else (
        s.root, tuple(sorted(ev[s.root])))
    monotone = _order_mismatch(states, d.up, events, signature)
    # x incompatible with y iff no atom of e(x) is in e(y)
    disjoint = _first_pair(states, [
        row ^ (everything & ~_union(signature, e))
        for row, e in zip(d.incompat_rows, events)])

    # The minimal nonempty elements of the generated field are the classes
    # of sample points with identical membership signature across all
    # events; every field element is a disjoint union of them. That makes
    # the two field conditions checkable without enumerating the field,
    # which has 2^atoms elements in the passing case.
    cells: dict[int, int] = {}  # signature -> its atoms, by first atom
    for i, sig in enumerate(signature):
        cells[sig] = cells.get(sig, 0) | 1 << i

    # base: a nonempty field element includes some state's event iff every
    # minimal one does
    base = next(((tuple([*_bits(cell)]),) for cell in cells.values()
                 if all(e & ~cell for e in events)), None)

    # each ultrafilter of a finite field is the up-set of one of its minimal
    # nonempty elements; they are principal at singletons exactly when every
    # singleton is in the field, i.e. when no two points share a signature
    principal = next(((space.atom_label(i),) for i, sig in
                      enumerate(signature) if cells[sig] != 1 << i), None)

    nonempty = next(((x,) for x in states if not ev[x]), None)
    return _condition_report(
        ids, [top, monotone, disjoint, base, principal, nonempty])


def _point_rows(events: Sequence[Iterable[int]], npoints: int
                ) -> tuple[list[int], list[int]]:
    """Each event as a mask over point indices, and each point's
    signature: the mask over event positions of the events holding it."""
    masks: list[int] = []
    signature = [0] * npoints
    for k, event in enumerate(events):
        mask = 0
        for i in event:
            mask |= 1 << i
            signature[i] |= 1 << k
        masks.append(mask)
    return masks, signature


def _order_mismatch(states: Sequence[str], up: Sequence[int],
                    masks: Sequence[int], signature: Sequence[int]
                    ) -> tuple[str, str] | None:
    """The first pair (x, y) in declaration order on which x wms y (the
    up rows) and the inclusion of x's event in y's (the point rows of
    _point_rows) disagree."""
    everything = (1 << len(states)) - 1
    missing = [everything & ~sig for sig in signature]
    # x wms y iff no point of e(x) is missing from e(y)
    return _first_pair(states, [u ^ (everything & ~_union(missing, e))
                                for u, e in zip(up, masks)])


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
) -> ConditionReport:
    """Check an arbitrary event assignment against the embedding conditions.

    mapping may send states to sets over any finite point universe; the
    universe is taken to be the union of all assigned sets. ``order``
    covers root-fullness plus the two-way correspondence of the
    specificity order with inclusion; ``disjoint`` covers incompatibility
    implying empty intersection; ``saturation`` covers each state's event
    being exactly the union of its immediate refinements' events. A
    mapping that is not a mapping, misses a state, or sends something to
    a value that is not a set, fails every condition.
    """
    ids = EMBEDDING_CONDITION_IDS
    if not isinstance(mapping, Mapping):
        return _condition_report(ids, [("not a mapping",)] * len(ids))
    for x in s.states:
        if x not in mapping:
            return _condition_report(ids, [(x, "no event")] * len(ids))
    for x, event in mapping.items():
        if not isinstance(event, (set, frozenset)):
            return _condition_report(ids, [(x, "not a set")] * len(ids))
    d, states = s.derived, s.states
    universe: frozenset[Hashable] = frozenset().union(*mapping.values())
    point = {p: i for i, p in enumerate(universe)}
    events, signature = _point_rows(
        [[point[p] for p in mapping[x]] for x in states], len(point))
    order = (s.root,) if mapping[s.root] != universe else (
        _order_mismatch(states, d.up, events, signature))
    disjoint = next(((x, states[y]) for k, x in enumerate(states)
                     for y in _bits(d.incompat_rows[k])
                     if events[k] & events[y]), None)
    kids = d.immed_sets
    saturation = next(((z,) for z in states if kids[z] and mapping[z]
                       != frozenset().union(*[mapping[x] for x in kids[z]])),
                      None)
    return _condition_report(ids, [order, disjoint, saturation])


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
