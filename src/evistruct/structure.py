"""Finite evidential structures.

A structure is a finite set of evidential states carrying a specificity
preorder: ``x wms y`` reads "x is weakly more specific than y", i.e. the
evidence in x is consistent with, and at least as detailed as, the evidence
in y. The least specific state (the empty body of evidence) is the root.

Input gives strict generator pairs; the reflexive-transitive closure is
computed at construction. All derived relations (strict part, equivalence,
immediate specificity, incompatibility) and the rank function are exact and
deterministic: states iterate in declaration order everywhere. Derived
relations are held as one bitmask per state over declaration indices.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

if TYPE_CHECKING:
    from .canonical import CanonicalSpace


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
    and maximal-state lookup reads it here. Rows are int bitmasks over
    declaration indices, bit j standing for ``states[j]``. One builder,
    ``_relations``, makes it from a relation's up and refiner rows:
    ``from_generators`` hands it the rows it closed and a contained
    tree's ``as_estructure`` the rows its top-down pass read, each
    seeding the new structure's ``derived``; ``derive_relations`` hands
    it the rows read off any other structure's relation.

    Attributes:
        states: the structure's states; index: each one's position.
        up: per state x, its up-set row: the states y with x wms y.
        refiners: per state y, the states x with x wms y.
        parents: for each state x, the states x is immediately more
            specific than, in declaration order.
        immed_sets: for each state z, Y(z): the states immediately more
            specific than z, in declaration order.

    Built on first access: ``incompat_rows``, per state the states it
    has no common refinement with. The relation is a finite preorder,
    so the maximal states are those with no ``immed_sets``.
    """

    states: tuple[str, ...]
    index: Mapping[str, int]
    up: tuple[int, ...]
    refiners: tuple[int, ...]
    parents: Mapping[str, tuple[str, ...]]
    immed_sets: Mapping[str, tuple[str, ...]]

    @cached_property
    def incompat_rows(self) -> tuple[int, ...]:
        # y meets x when y lies above some refiner of x
        full = (1 << len(self.states)) - 1
        return tuple([full & ~_union(self.up, r) for r in self.refiners])


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


def _condition_report(ids: tuple[str, ...],
                      witnesses: Sequence[tuple | None]) -> ConditionReport:
    """The one builder of a ConditionReport: verdict i, on ids[i], passes
    exactly when witnesses[i] is None; counts that differ raise
    ValueError. Every passing report on one ID tuple is one object."""
    if witnesses.count(None) == len(witnesses) == len(ids):
        return _passing(ids)
    return ConditionReport(tuple([ConditionVerdict(c, w is None, w) for c, w
                                  in zip(ids, witnesses, strict=True)]))


@cache
def _passing(ids: tuple[str, ...]) -> ConditionReport:
    return ConditionReport(tuple([ConditionVerdict(c, True) for c in ids]))


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
        stored relation is the reflexive-transitive closure. The pairs
        are closed on bit rows, and the same rows seed ``derived``.
        """
        try:
            state_list = tuple(states)
            index = {x: i for i, x in enumerate(state_list)}
        except TypeError:  # not iterable, or an unhashable id
            raise StructureError("states must be an iterable of hashable "
                                 f"state ids, not {states!r}") from None
        if len(index) != len(state_list):
            raise _repeated(state_list)
        try:
            declared = root in index
        except TypeError:  # unhashable
            declared = False
        if not declared:
            raise StructureError(f"root {root!r} is not a declared state")
        if len(state_list) < 2:
            raise StructureError("at least two states required")
        try:  # pairs is the list on a bad pair, as given when not iterable
            up = _closed_rows(index, pairs := list(pairs))
        except (TypeError, ValueError, KeyError):
            raise _pair_fault(index, pairs, "pairs") from None
        return cls._seeded(state_list, root, up, index)

    @classmethod
    def _seeded(cls, states: tuple[str, ...], root: str, up: Sequence[int],
                index: Mapping[str, int]) -> "EStructure":
        """The structure on closed up rows over the states' indices (index
        maps each state to its position), with ``derived`` read off the
        same rows: kept in the instance's __dict__, not in a field."""
        pairs: list[tuple[str, str]] = []
        refiners = [0] * len(states)
        for i, x in enumerate(states):
            bit, row = 1 << i, up[i]
            while row:  # _bits, inlined
                low = row & -row
                j = low.bit_length() - 1
                pairs.append((x, states[j]))
                refiners[j] |= bit
                row ^= low
        s = cls(states, root, frozenset(pairs))
        s.__dict__["derived"] = _relations(states, index, up, refiners)
        return s

    def wms(self, x: str, y: str) -> bool:
        """True when x is weakly more specific than y."""
        return (x, y) in self.relation

    def matrix(self) -> list[list[bool]]:
        """Dense boolean matrix of the relation in declaration order."""
        return [[(x, y) in self.relation for y in self.states]
                for x in self.states]

    @cached_property
    def derived(self) -> DerivedRelations:
        """The derived relations, built once; seeded by the constructors
        that hold the relation's rows already."""
        return derive_relations(self)

    @cached_property
    def axioms(self) -> ConditionReport:
        """The five axioms' report, evaluated once (see check_axioms)."""
        return _evaluate_axioms(self)

    @cached_property
    def canonical(self) -> "CanonicalSpace":
        """The verified canonical space, built once (see build_canonical);
        raises CanonicalError when it fails its conditions."""
        from .canonical import _verified_space  # canonical imports this
        return _verified_space(self)


def _bits(mask: int) -> Iterator[int]:
    """The indices of a mask's set bits, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _union(rows: Sequence[int], mask: int) -> int:
    """The union of the rows a mask selects."""
    out = 0
    while mask:  # _bits, inlined: this is the innermost loop
        low = mask & -mask
        out |= rows[low.bit_length() - 1]
        mask ^= low
    return out


def _repeated(states: Sequence) -> StructureError:
    """The error for states that repeat an id."""
    dupes = sorted({str(x) for x in states if states.count(x) > 1})
    return StructureError(f"duplicate state id(s): {', '.join(dupes)}")


def _pair_fault(index: Mapping, pairs, name: str) -> StructureError:
    """The error for the pairs (the argument called name) that reading
    them over the index failed on: not an iterable, or the first item
    that is not an (x, y) pair of hashable ids or names an unknown id."""
    try:
        items = list(pairs)
    except TypeError:
        return StructureError(f"{name} must be an iterable of (x, y) pairs, "
                              f"not {pairs!r}")
    for pair in items:
        try:
            x, y = pair
            unknown = x if x not in index else y if y not in index else None
        except (TypeError, ValueError):
            return StructureError(f"{name} holds {pair!r}, which is not an "
                                  "(x, y) pair of state ids")
        if unknown is not None:
            return StructureError(f"unknown state id in pair: {unknown!r}")
    return StructureError(f"{name} could not be read as (x, y) pairs")


def _closed_rows(index: Mapping[str, int],
                 pairs: Iterable[tuple[str, str]]) -> list[int]:
    """The reflexive-transitive closure of the pairs as up rows over the
    index, whose values are 0 to n - 1: row i has bit j when the j-th
    state is reachable from the i-th along zero or more pairs.

    Each pass replaces every open row, in place and in index order, by
    the union of the rows it selects, until a pass changes none or no
    row is open. A row that selected only itself and closed rows is
    closed after its union. A row's reach at least doubles each pass,
    so a path of length L closes in about log2(L) + 2 passes; when every
    pair points to an earlier state, as a tree declared root first does,
    one pass closes every row.
    """
    up = [1 << i for i in range(len(index))]
    for x, y in pairs:
        up[index[x]] |= 1 << index[y]
    closed, every, changed = 0, (1 << len(up)) - 1, True
    sweep = list(range(len(up)))
    while changed and closed != every:
        changed = False
        for i in sweep:
            bit, row = 1 << i, up[i]
            if closed & bit:
                continue
            wider = _union(up, row)
            if not row & ~(closed | bit):
                closed |= bit
            if wider != row:
                up[i] = wider
                changed = True
        sweep.reverse()
    return up


def _relations(states: tuple[str, ...], index: Mapping[str, int],
               up: Sequence[int], refiners: Sequence[int]
               ) -> DerivedRelations:
    """The one builder of DerivedRelations: the covering relation read
    off a relation's up and refiner rows over the states' indices (index
    maps each state to its position).

    A state's immediate predecessors are the states strictly below it
    that lie strictly below none of the others; the loop clears each
    one's strict down row from the state's in place, bit by bit, and
    reads a lone remaining bit, as every state of a tree but the root
    has, without a bit loop.
    """
    below = [u & ~r for u, r in zip(up, refiners)]  # strictly less specific
    parents: dict[str, tuple[str, ...]] = {}
    immed: dict[str, list[str]] = {z: [] for z in states}
    for i, x in enumerate(states):
        # immediate: strictly below x with no state strictly between
        near = rest = below[i]
        while rest:  # _union and _bits, inlined
            low = rest & -rest
            near &= ~below[low.bit_length() - 1]
            rest ^= low
        if near & (near - 1):  # two or more
            parents[x] = tuple([states[j] for j in _bits(near)])
        else:
            parents[x] = (states[near.bit_length() - 1],) if near else ()
        for z in parents[x]:
            immed[z].append(x)
    return DerivedRelations(
        states, index, tuple(up), tuple(refiners), parents,
        {z: tuple(kids) for z, kids in immed.items()})


def derive_relations(s: EStructure) -> DerivedRelations:
    """The relation's bit rows, read as given (not closed), and the
    covering relation read off them by the one builder. A structure
    from_generators makes is seeded with the same builder's result on
    its closed rows, and a contained tree's as_estructure with the
    result on its top-down rows, so neither calls this.

    Raises StructureError, with from_generators' texts, when the states
    are not a tuple or list of distinct hashable ids or the relation is
    not an iterable of (x, y) pairs of them.
    """
    states = s.states
    try:
        index = {x: i for i, x in enumerate(states)}
    except TypeError:  # not iterable, or an unhashable id
        index = None
    if index is None or not isinstance(states, (tuple, list)):
        raise StructureError("states must be a tuple of hashable state "
                             f"ids, not {states!r}")
    if len(index) != len(states):
        raise _repeated(states)
    up = [0] * len(states)
    refiners = [0] * len(states)
    try:
        for x, y in s.relation:
            i, j = index[x], index[y]
            up[i] |= 1 << j
            refiners[j] |= 1 << i
    except (TypeError, ValueError, KeyError):
        raise _pair_fault(index, s.relation, "relation") from None
    return _relations(states, index, up, refiners)


def check_axioms(s: EStructure) -> ConditionReport:
    """Evaluate the five axioms; failures carry a finite witness each,
    the earliest in declaration order.

    Evaluated once per structure on its bit rows and cached on it
    (``EStructure.axioms``), so rank, rank_level_sets and the CLI's
    guards share the one evaluation.
    """
    return s.axioms


def _evaluate_axioms(s: EStructure) -> ConditionReport:
    """The five axioms in one pass over the states' rows, each taking the
    first witness in declaration order as it goes."""
    d = s.derived
    states, up, refiners, index = s.states, d.up, d.refiners, d.index
    parents, incompat = d.parents, d.incompat_rows
    try:
        root = 1 << index[s.root] if s.root in index else 0
    except TypeError:  # an unhashable root is no state either
        root = 0
    full = (1 << len(states)) - 1
    reflexive = transitive = rooted = intermediacy = separation = None
    for i, x in enumerate(states):
        row = up[i]
        below = row & ~refiners[i]  # strictly less specific than x
        if not row >> i & 1 and reflexive is None:
            reflexive = ("not reflexive", x)
        # x wms b wms c without x wms c: c is in up[b] but not in row
        if _union(up, row) & ~row and transitive is None:
            b = next(j for j in _bits(row) if up[j] & ~row)
            transitive = ("not transitive", x, states[b],
                          states[_lowest(up[b] & ~row)])
        # no strict-cycle check: sms excludes every pair whose reverse
        # is in rel
        if not below & root and rooted is None and x != s.root:
            rooted = (x,)
        # each z strictly below x lies above one of x's parents
        near = 0
        for y in parents[x]:
            near |= 1 << index[y]
        gap = below & ~_union(up, near)
        if gap and intermediacy is None:
            intermediacy = (x, states[_lowest(gap)])
        # each z not above x is incompatible with some refiner of x
        gap = full & ~(row | _union(incompat, refiners[i]))
        if gap and separation is None:
            separation = (x, states[_lowest(gap)])
    return _condition_report(AXIOM_IDS, [
        reflexive or transitive,
        ("fewer than two states",) if len(states) < 2 else rooted,
        intermediacy,
        None,  # always holds: each Y(z) is a subset of the finite state set
        separation])


def rank(s: EStructure) -> RankTable:
    """Shortest immediate-specificity chain lengths, with witness chains.

    Raises StructureError when the structure fails the axioms (rank is then
    not defined on every state). It reads the axiom report cached on
    the structure, so check_axioms and rank evaluate the axioms once.
    """
    report = s.axioms
    if not report.passed:
        raise StructureError(
            "structure fails axioms: " + ", ".join(report.failed_ids))
    d = s.derived
    immed, parents = d.immed_sets, d.parents
    rho: dict[str, int] = {s.root: 0}
    chains: dict[str, tuple[str, ...]] = {}
    queue = [s.root]
    for z in queue:  # breadth first from the root; the queue grows as read
        r = rho[z]
        if r:
            # witness chain through the earliest-declared parent of rank
            # r - 1, which the queue, ordered by rank, has already passed
            for p in parents[z]:
                if rho.get(p) == r - 1:
                    break
            chains[z] = (z,) + chains[p]
        else:
            chains[z] = (z,)
        for x in immed[z]:
            if x not in rho:
                rho[x] = r + 1
                queue.append(x)
    if len(rho) != len(s.states):
        # unreachable under the axioms; kept as a hard error for safety
        missing = [x for x in s.states if x not in rho]
        raise StructureError(f"states without a chain to root: {missing}")
    return RankTable(rho, chains)


def rank_level_sets(s: EStructure, n: int) -> frozenset[str]:
    """All states of rank at most n; StructureError when n is not an int
    (a bool is not one)."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise StructureError(f"n must be an int, not {n!r}")
    table = rank(s)
    return frozenset(x for x, r in table.rho.items() if r <= n)
