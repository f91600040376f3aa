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
                        _bits, _condition_report, _lowest)

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
    """Construct the canonical space and verify it, raising
    CanonicalError on violation (a root that is not a state included).

    The space is built and verified once per structure and cached on it
    (``EStructure.canonical``), so build_system, a tree's ``canonical``
    and construct_sceu share that one computation. verify_canonical
    itself re-checks whatever space it is given.
    """
    return s.canonical


def _verified_space(s: EStructure) -> CanonicalSpace:
    space, masks, signature = _event_space(s)
    report = _canonical_report(space, s, masks, signature)
    if not report.passed:
        raise CanonicalError(
            "canonical conditions violated: " + ", ".join(report.failed_ids))
    return space


def _event_space(s: EStructure
                 ) -> tuple[CanonicalSpace, list[int], list[int]]:
    """Atoms and event map, unverified, with the events as masks over atom
    indices and each atom's signature, as _point_rows gives them: the up
    row of its class's first member. One pass over the (atom, state)
    incidences fills the masks and each event's atom list, in atom order,
    so no mask is decoded again; a class of one state is named undecoded."""
    d, states = s.derived, s.states
    maximal = sum([1 << i for i, x in enumerate(states)
                   if not d.immed_sets[x]])
    classes: list[int] = []
    assigned = 0
    for m in _bits(maximal):
        if not assigned >> m & 1:
            classes.append(maximal & d.up[m] & d.refiners[m] | 1 << m)
            assigned |= classes[-1]
    signature = [d.up[_lowest(cls)] for cls in classes]
    masks = [0] * len(states)
    members: list[list[int]] = [[] for _ in states]
    for i, sig in enumerate(signature):
        bit = 1 << i
        while sig:  # _bits, inlined
            low = sig & -sig
            x = low.bit_length() - 1
            masks[x] |= bit
            members[x].append(i)
            sig ^= low
    return CanonicalSpace(
        tuple([(states[_lowest(cls)],) if not cls & (cls - 1) else
               tuple([states[x] for x in _bits(cls)]) for cls in classes]),
        dict(zip(states, map(frozenset, members)))
    ), masks, signature


def verify_canonical(space: CanonicalSpace,
                     s: EStructure) -> ConditionReport:
    """Exhaustively confirm the finite canonical-space conditions.

    Re-checks the space on every call: one pass over the states reads
    each event once, checking its indices as it makes the bitmasks over
    atom indices that the build's own check runs on. A space of the
    wrong shape, or one that gives some state of s no event (built for
    another structure, say) or an event holding anything but atom
    indices (plain ints, not bools), fails every condition, with the
    first such state as witness, as does a structure whose root is not
    one of its states.
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
    masks: list[int] = []
    signature = [0] * natoms
    for k, x in enumerate(s.states):  # _point_rows, checking each index
        event = ev.get(x)
        if not isinstance(event, (set, frozenset)):
            return _condition_report(ids, [(x, "no event")] * len(ids))
        mask = 0
        for i in event:
            if type(i) is not int or not 0 <= i < natoms:
                return _condition_report(
                    ids, [(x, "not atom indices")] * len(ids))
            mask |= 1 << i
            signature[i] |= 1 << k
        masks.append(mask)
    return _canonical_report(space, s, masks, signature)


def _canonical_report(space: CanonicalSpace, s: EStructure,
                      masks: list[int], signature: list[int]
                      ) -> ConditionReport:
    """The six conditions on the events as masks over atom indices; a
    root that is not a state fails every one."""
    ids, index = CANONICAL_CONDITION_IDS, s.derived.index
    if s.root not in index:
        return _condition_report(ids, [(s.root, "not a state")] * len(ids))
    root = masks[index[s.root]]
    top = None if root == (1 << len(signature)) - 1 else (
        s.root, tuple(_bits(root)))
    monotone, disjoint, nonempty, fitted = _event_pass(s, masks, signature)
    # the cells (points of one signature) are the generated field's atoms:
    # no need to enumerate its 2^atoms elements
    cells: dict[int, int] = {}  # signature -> its atoms, by first atom
    for i, sig in enumerate(signature):
        cells[sig] = cells.get(sig, 0) | 1 << i
    # base: every nonempty field element includes an event iff every cell does
    base = None if fitted is None else next(
        ((tuple(_bits(cell)),) for sig, cell in cells.items()
         if sig not in fitted), None)
    # every ultrafilter is the up-set of a cell: principal at singletons
    # exactly when no two points share a signature
    principal = next(((space.atom_label(i),) for i, sig in
                      enumerate(signature) if cells[sig] != 1 << i), None)
    return _condition_report(ids, [
        top, monotone, disjoint, base, principal, nonempty])


def _event_pass(s: EStructure, masks: list[int], signature: list[int],
                one_way: bool = False) -> tuple:
    """The one kernel of the order and disjointness conditions: one pass
    over each event's points ANDs and ORs their signatures, the states
    whose events include it and those whose events meet it. Returns the
    first (x, y) on which x wms y and e(x) <= e(y) disagree; the first on
    which incompatible and disjoint disagree (one_way: incompatible yet
    meeting); the first (x,) with e(x) empty; the signatures of the cells
    each holding some event whole, or None when an event is empty."""
    d, states = s.derived, s.states
    everything = (1 << len(states)) - 1
    order = disjoint = empty = None
    fitted: set[int] | None = set()
    for x, (mask, up, incompat) in enumerate(zip(masks, d.up,
                                                 d.incompat_rows)):
        inside, meets, rest = everything, 0, mask
        while rest:  # _bits, inlined: this is the innermost loop
            low = rest & -rest
            row = signature[low.bit_length() - 1]
            inside &= row
            meets |= row
            rest ^= low
        if order is None and up != inside:
            order = (states[x], states[_lowest(up ^ inside)])
        clash = incompat & meets if one_way else incompat ^ everything ^ meets
        if disjoint is None and clash:
            disjoint = (states[x], states[_lowest(clash)])
        if not mask:
            empty, fitted = empty or (states[x],), None
        elif fitted is not None and inside == meets:
            fitted.add(inside)
    return order, disjoint, empty, fitted


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


def verify_embedding(s: EStructure, mapping: Mapping[str, frozenset[Hashable]]
                     ) -> ConditionReport:
    """Check an arbitrary event assignment against the embedding conditions.

    mapping may send states to sets over any finite point universe; the
    universe is taken to be the union of all assigned sets. ``order``
    covers root-fullness plus the two-way correspondence of the
    specificity order with inclusion; ``disjoint`` covers incompatibility
    implying empty intersection; ``saturation`` covers each state's event
    being exactly the union of its immediate refinements' events. A
    mapping that is not a mapping, misses a state, or sends something to
    a value that is not a set, fails every condition, as does a structure
    whose root is not one of its states.
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
    if s.root not in d.index:
        return _condition_report(ids, [(s.root, "not a state")] * len(ids))
    universe: frozenset[Hashable] = frozenset().union(*mapping.values())
    point = {p: i for i, p in enumerate(universe)}
    masks, signature = _point_rows(
        [[point[p] for p in mapping[x]] for x in states], len(point))
    order, disjoint, _, _ = _event_pass(s, masks, signature, one_way=True)
    if mapping[s.root] != universe:
        order = (s.root,)
    index, kids, saturation = d.index, d.immed_sets, None
    for z, mask in zip(states, masks):
        union = 0
        for x in kids[z]:
            union |= masks[index[x]]
        if kids[z] and union != mask:
            saturation = (z,)
            break
    return _condition_report(ids, [order, disjoint, saturation])

