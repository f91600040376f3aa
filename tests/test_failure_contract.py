"""The failure contract of the structure, plans, tree and canonical
entry points.

Each row of CONTRACT is one data parameter of an entry point: a call
with every other argument well formed, and the module's named error.
Given any of the malformed values below, the call returns a result or
raises that error, within a second; a Python error such as TypeError,
or a hang, breaks the contract. Arguments that are the package's own
objects (the structure rank_level_sets takes, the space
verify_canonical checks) are typed inputs the caller supplies, not
data, and have no row; the fields of a structure built by hand are
data, and its root has a row for each entry point that reads it.
"""
from __future__ import annotations

import random
import signal

import pytest

from evistruct import (CanonicalError, EStructure, Plan, PlanError,
                       StructureError, TreeError, build_tree, check_axioms,
                       check_tree, find_trees, rank_level_sets,
                       verify_canonical, verify_embedding)

MALFORMED = (None, 5, 2.5, True, "zz", [["x"]], {"a": []}, (1, 2, 3),
             [None], [("a",)], {})


def _drawn(seed: int = 1717, count: int = 40) -> list:
    """Lists and tuples of one to three malformed values or state ids, so
    that some are nearly well formed: a fixed draw, the same every run."""
    rng = random.Random(seed)
    parts = MALFORMED + ("r", "a", ("a", "r"), ("a", "zz"))
    return [rng.choice((list, tuple))(rng.choices(parts, k=rng.randint(1, 3)))
            for _ in range(count)]


VALUES = MALFORMED + tuple(_drawn())

STATES, ROOT, PAIRS = ("r", "a", "b"), "r", (("a", "r"), ("b", "r"))
RELATION = frozenset([(x, x) for x in STATES] + list(PAIRS))
EVENTS = {"r": frozenset({0, 1}), "a": frozenset({0}), "b": frozenset({1})}


def _structure() -> EStructure:
    return EStructure.from_generators(STATES, ROOT, PAIRS)


CONTRACT = {
    "from_generators-states": (
        lambda v: EStructure.from_generators(v, ROOT, PAIRS), StructureError),
    "from_generators-root": (
        lambda v: EStructure.from_generators(STATES, v, PAIRS),
        StructureError),
    "from_generators-pairs": (
        lambda v: EStructure.from_generators(STATES, ROOT, v),
        StructureError),
    "check_axioms-states": (
        lambda v: check_axioms(EStructure(v, ROOT, RELATION)), StructureError),
    "check_axioms-root": (
        lambda v: check_axioms(EStructure(STATES, v, RELATION)),
        StructureError),
    "check_axioms-relation": (
        lambda v: check_axioms(EStructure(STATES, ROOT, v)), StructureError),
    "Plan-alternatives": (lambda v: Plan(v, {"r": "x"}), PlanError),
    "Plan-choice": (lambda v: Plan(("x", "y"), v), PlanError),
    "rank_level_sets-n": (lambda v: rank_level_sets(_structure(), v),
                          StructureError),
    "find_trees-max_count": (
        lambda v: find_trees(_structure(), max_count=v), TreeError),
    "find_trees-root": (
        lambda v: find_trees(EStructure(STATES, v, RELATION)), TreeError),
    "check_tree-root": (
        lambda v: check_tree(EStructure(STATES, v, RELATION), STATES, PAIRS),
        TreeError),
    "build_tree-root": (
        lambda v: build_tree(EStructure(STATES, v, RELATION), STATES, PAIRS),
        TreeError),
    "verify_canonical-root": (
        lambda v: verify_canonical(_structure().canonical,
                                   EStructure(STATES, v, RELATION)),
        CanonicalError),
    "verify_embedding-root": (
        lambda v: verify_embedding(EStructure(STATES, v, RELATION), EVENTS),
        CanonicalError),
}


class _Hang(Exception):
    pass


def _alarm(signum, frame):
    raise _Hang


@pytest.mark.parametrize("entry", sorted(CONTRACT))
def test_malformed_data_gives_a_result_or_the_named_error(entry):
    call, named = CONTRACT[entry]
    broken = []
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        for value in VALUES:
            signal.setitimer(signal.ITIMER_REAL, 1.0)
            try:
                call(value)
            except named:
                pass
            except _Hang:
                broken.append((value, "no answer within 1 s"))
            except Exception as exc:  # the contract is broken
                broken.append((value, f"{type(exc).__name__}: {exc}"))
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert broken == []
