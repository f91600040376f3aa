"""The failure contract of the structure, plans, tree, canonical and
feasibility entry points.

Each row of CONTRACT is one data parameter of an entry point: a call
with every other argument well formed, and the module's named error.
Given any of the malformed values below, the call returns a result or
raises that error, within a second; a Python error such as TypeError,
or a hang, breaks the contract. Arguments that are the package's own
objects (the structure rank_level_sets takes, the space
verify_canonical checks) are typed inputs the caller supplies, not
data, and have no row; the fields of a structure built by hand are
data, and its root has a row for each entry point that reads it. So
decide_rationalizable and build_system, which take a structure and a
plan, and construct_sceu, which takes a tree and a plan, are
typed-only: every argument is the package's own object, checked where
it is made. A witness is data, even inside the package's result
object: verify_weighting's weights and utilities, and the certificate,
weights and utilities of a FeasibilityResult handed to
verify_certificate, each have a row, and a verifier never raises.
"""
from __future__ import annotations

import random
import signal
from fractions import Fraction

import pytest

from evistruct import (CanonicalError, EStructure, FeasibilityResult, Plan,
                       PlanError, StructureError, TreeError, as_tree,
                       build_system, build_tree, check_axioms, check_tree,
                       find_trees, rank_level_sets, verify_canonical,
                       verify_certificate, verify_embedding,
                       verify_weighting)

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
# a relation that is not closed, in which every state has exactly one
# immediate predecessor, so as_tree reads the root only at the tree check
CYCLE = frozenset([(x, x) for x in STATES]
                  + [("a", "r"), ("b", "a"), ("r", "b")])


def _structure() -> EStructure:
    return EStructure.from_generators(STATES, ROOT, PAIRS)


SYSTEM = build_system(_structure(), Plan(("x", "y"),
                                         {"r": "x", "a": "x", "b": "y"}))
WEIGHTS = {"a": Fraction(1, 2), "b": Fraction(1, 2)}
UTILITIES = {"x": {"a": 2}, "y": {"b": 1}}


class _Never(Exception):
    """The named error of a verifier: none, since it returns a report."""


def _verdict(**fields) -> FeasibilityResult:
    """A result on SYSTEM with the given fields, feasible when it holds
    weights or utilities."""
    return FeasibilityResult("certificate" not in fields, SYSTEM, **fields)


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
    "as_tree-root": (
        lambda v: as_tree(EStructure(STATES, v, RELATION)), TreeError),
    "as_tree-root-unclosed": (
        lambda v: as_tree(EStructure(STATES, v, CYCLE)), TreeError),
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
    "verify_weighting-weights": (
        lambda v: verify_weighting(SYSTEM, v, UTILITIES), _Never),
    "verify_weighting-utilities": (
        lambda v: verify_weighting(SYSTEM, WEIGHTS, v), _Never),
    "verify_certificate-certificate": (
        lambda v: verify_certificate(SYSTEM, _verdict(certificate=v)),
        _Never),
    "verify_certificate-weights": (
        lambda v: verify_certificate(SYSTEM, _verdict(
            weights=v, utilities=UTILITIES)), _Never),
    "verify_certificate-utilities": (
        lambda v: verify_certificate(SYSTEM, _verdict(
            weights=WEIGHTS, utilities=v)), _Never),
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


def test_the_witness_rows_vary_one_field_of_a_valid_witness():
    assert verify_weighting(SYSTEM, WEIGHTS, UTILITIES).valid
    assert verify_certificate(SYSTEM, _verdict(weights=WEIGHTS,
                                               utilities=UTILITIES)).valid
