"""Release checklist: every shipping criterion, each timed where required.

Each test carries a ``criterion`` marker; the terminal summary prints one
PASS/FAIL line per criterion number. Criterion 3 is split into one test
per staged design so a single wrong verdict cannot hide the others.
"""
from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from conftest import (arbitrary_plan, consistent_plan, inconsistent_plan,
                      splitting_tree, subset_family_structure)
from evistruct import (ExplicitRepresentation, FeasibilityResult, build_canonical,
                       build_system, build_tree, check_isd_plan, check_tree,
                       construct_sceu, decide_rationalizable, decide_system,
                       find_trees, partitions, rank, verify_canonical,
                       verify_certificate, verify_embedding,
                       verify_rationalization)
from test_feasibility import fm_decide


@pytest.mark.criterion(1, "rank values on the rank fixture")
def test_rank_fixture_values_and_speed(corpus):
    start = time.perf_counter()
    table = rank(corpus["example_c"].structure)
    elapsed = time.perf_counter() - start
    assert table.rho["z"] == 2
    assert table.rho["y"] == 3
    assert elapsed < 0.1


@pytest.mark.criterion(2, "no experimentation tree in the coin-toss fixture")
def test_treeless_fixture_full_enumeration(corpus):
    start = time.perf_counter()
    trees = find_trees(corpus["example_j"].structure)
    elapsed = time.perf_counter() - start
    assert trees == ()
    assert elapsed < 1.0


def _checked_block(corpus, index):
    ws = corpus["example_d"]
    block = ws.trees[index]
    start = time.perf_counter()
    report = check_tree(ws.structure, block.nodes, block.edges)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.1
    return report


@pytest.mark.criterion(3, "staged-design verdicts on the oxide fixture")
def test_first_staged_design_passes(corpus):
    report = _checked_block(corpus, 0)
    assert report.passed, report.failed_ids


@pytest.mark.criterion(3, "staged-design verdicts on the oxide fixture")
def test_second_staged_design_passes(corpus):
    """Required verdict: the second staged design passes all conditions.

    It does not. In the ambient oxide structure the second design's
    deeper nodes sit strictly below states outside the design, which
    breaks the ordering, immediacy, and unbiasedness conditions at once,
    and no reading that keeps the first design passing can also pass
    this one. The project decision record carries the analysis; the
    requirement is kept here as written and left red rather than gamed.
    """
    report = _checked_block(corpus, 1)
    assert report.passed, report.failed_ids


@pytest.mark.criterion(3, "staged-design verdicts on the oxide fixture")
def test_third_staged_design_fails_exactly_two_conditions(corpus):
    report = _checked_block(corpus, 2)
    assert not report.passed
    assert set(report.failed_ids) == {"t-incompat", "t-unbiased"}


@pytest.mark.criterion(4, "dominance-inconsistent yet representable plan")
def test_inconsistent_plan_with_exact_witness(corpus):
    ws = corpus["example_r"]
    isd = check_isd_plan(ws.structure, ws.plan)
    assert not isd.consistent
    assert ("nothing", "b") in isd.violations

    result = decide_rationalizable(ws.structure, ws.plan)
    assert result.feasible
    assert verify_certificate(result.system, result).valid

    witness = ExplicitRepresentation(
        weights={z: Fraction(1, 5)
                 for z in ("z1", "z2", "z3", "z4", "z5")},
        utilities={"a": {"z1": Fraction(1), "z2": Fraction(1),
                         "z3": Fraction(1)},
                   "b": {"z4": Fraction(1), "z5": Fraction(1)}})
    report = verify_rationalization(ws.structure, ws.plan, witness)
    assert report.verified, report.failures
    assert all(m == Fraction(1, 5) for m in report.margins.values())


@pytest.mark.criterion(5, "dominance-consistent yet unrepresentable plan")
def test_consistent_plan_with_refutation_certificate(corpus):
    ws = corpus["example_t"]
    assert check_isd_plan(ws.structure, ws.plan).consistent
    result = decide_rationalizable(ws.structure, ws.plan)
    assert not result.feasible
    assert result.certificate
    assert verify_certificate(result.system, result).valid


@pytest.mark.criterion(6, "construction and decision on random trees")
def test_random_tree_round_trip():
    rng = random.Random(20260819)
    start = time.perf_counter()
    for _ in range(100):
        tree = splitting_tree(rng, max_nodes=40)
        plan = consistent_plan(rng, tree, n_alts=rng.randint(2, 4))
        r = construct_sceu(tree, plan)
        report = verify_rationalization(tree, plan, r)
        assert report.verified, report.failures
    for _ in range(100):
        tree = splitting_tree(rng, max_nodes=40)
        plan = inconsistent_plan(rng, tree, n_alts=rng.randint(2, 4))
        result = decide_rationalizable(tree.as_estructure, plan)
        assert not result.feasible
        assert verify_certificate(result.system, result).valid
    assert time.perf_counter() - start < 60.0


@pytest.mark.criterion(7, "weight laws of every constructed representation")
def test_weight_laws(corpus):
    ws = corpus["example_d"]
    block = ws.trees[0]
    fixture_tree = build_tree(ws.structure, block.nodes, block.edges)
    cases = [(fixture_tree, ws.plan)]
    rng = random.Random(31)
    for _ in range(60):
        tree = splitting_tree(rng, max_nodes=25)
        cases.append((tree, consistent_plan(rng, tree)))
    for tree, plan in cases:
        r = construct_sceu(tree, plan)
        assert sum(r.weights, Fraction(0)) == 1
        for i, w in enumerate(r.weights):
            assert w > sum(r.weights[i + 1:], Fraction(0))
        depth = tree.rank_in_tree
        ranks = [depth[p.state] for p in r.points]
        assert ranks == sorted(ranks)
        assert r.raw_weights[0] == Fraction(2, 3)


@pytest.mark.criterion(8, "simplex agrees with the elimination referee")
def test_simplex_matches_elimination_oracle():
    rng = random.Random(42)
    checked = 0
    outcomes = {True: 0, False: 0}
    for _ in range(130):
        s = subset_family_structure(rng, max_universe=4)
        plan = arbitrary_plan(rng, s, max_alts=3)
        system = build_system(s, plan)
        if not system.rows:
            continue
        assert len(system.atoms) <= 4 and len(system.alternatives) <= 3
        result = decide_system(system)
        fm_feasible, fm_multipliers = fm_decide(system)
        assert result.feasible == fm_feasible
        if not fm_feasible:
            cert = tuple((r.state, r.alternative, v)
                         for r, v in zip(system.rows, fm_multipliers) if v)
            referee = FeasibilityResult(False, system, certificate=cert)
            assert verify_certificate(system, referee).valid
        outcomes[result.feasible] += 1
        checked += 1
    assert checked >= 100
    assert outcomes[True] and outcomes[False]


def _small_structure(rng):
    while True:
        s = subset_family_structure(rng, max_universe=3)
        if len(s.states) <= 10:
            return s


def _audit_structure(s):
    space = build_canonical(s)
    assert verify_canonical(space, s).failed_ids == ()
    assert verify_embedding(s, dict(space.events)).failed_ids == ()
    for tree in find_trees(s, max_count=25):
        for z in tree.nodes:
            kids = tree.children[z]
            if not kids:
                continue
            union: frozenset[int] = frozenset()
            for a in kids:
                assert not union & space.events[a]
                union |= space.events[a]
            assert union == space.events[z]
        assert partitions(tree).is_refinement_chain()


@pytest.mark.criterion(9, "canonical spaces and embeddings verify everywhere")
def test_canonical_and_embedding_audit(corpus):
    for ws in corpus.values():
        _audit_structure(ws.structure)
    rng = random.Random(53)
    for _ in range(500):
        _audit_structure(_small_structure(rng))
