"""Exact feasibility of the linearized representation system."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

import oracles
from conftest import (arbitrary_plan, consistent_plan, inconsistent_plan,
                      splitting_tree, subset_family_structure)
from evistruct import (FeasibilityResult, FeasibilitySystem, Plan, PlanError,
                       build_system, decide_rationalizable, decide_system,
                       verify_certificate)


def fm_decide(system):
    """Independent referee: Fourier-Motzkin on the equivalent strict
    homogeneous system (rows > 0 plus one positivity row per variable)."""
    rows = [list(r.coeffs) for r in system.rows]
    m = len(rows)
    for j in range(system.ncols):
        unit = [Fraction(0)] * system.ncols
        unit[j] = Fraction(1)
        rows.append(unit)
    feasible, multipliers = oracles.fourier_motzkin(rows, system.ncols)
    if feasible:
        return True, None
    return False, multipliers[:m]


class TestSystemShape:
    def test_example_t_rows_and_columns(self, corpus):
        ws = corpus["example_t"]
        system = build_system(ws.structure, ws.plan)
        assert len(system.rows) == 12          # 6 states x 2 rivals
        assert system.ncols == 9               # 3 alternatives x 3 atoms
        assert system.alternatives == ("a", "b", "c")
        assert system.atoms == ("z1", "z2", "z3")
        assert system.column_label(0) == ("a", "z1")
        assert system.column_label(5) == ("b", "z3")

    def test_root_row_coefficients(self, corpus):
        ws = corpus["example_t"]
        system = build_system(ws.structure, ws.plan)
        row = next(r for r in system.rows
                   if r.state == "nothing" and r.alternative == "b")
        # chosen a gets +1 on every atom of the full event, rival b -1
        assert list(row.coeffs) == [1, 1, 1, -1, -1, -1, 0, 0, 0]

    def test_partial_event_row(self, corpus):
        ws = corpus["example_t"]
        system = build_system(ws.structure, ws.plan)
        row = next(r for r in system.rows
                   if r.state == "x1" and r.alternative == "a")
        # e(x1) = {z1, z3}; chosen there is b
        assert list(row.coeffs) == [-1, 0, -1, 1, 0, 1, 0, 0, 0]


class TestCorpusDecisions:
    def test_example_r_is_feasible(self, corpus):
        ws = corpus["example_r"]
        result = decide_rationalizable(ws.structure, ws.plan)
        assert result.feasible
        assert verify_certificate(result.system, result).valid
        assert result.weights == {z: Fraction(1, 5)
                                  for z in ("z1", "z2", "z3", "z4", "z5")}

    def test_example_t_is_infeasible(self, corpus):
        ws = corpus["example_t"]
        result = decide_rationalizable(ws.structure, ws.plan)
        assert not result.feasible
        assert result.certificate
        assert verify_certificate(result.system, result).valid

    def test_example_t_matches_fourier_motzkin(self, corpus):
        ws = corpus["example_t"]
        system = build_system(ws.structure, ws.plan)
        feasible, multipliers = fm_decide(system)
        assert not feasible
        cert = tuple((r.state, r.alternative, v)
                     for r, v in zip(system.rows, multipliers) if v)
        referee = FeasibilityResult(False, system, certificate=cert)
        assert verify_certificate(system, referee).valid

    def test_hand_written_certificate_verifies(self, corpus):
        """Four unit multipliers on (x1,c), (z2,c), (x2,b), (z1,b) combine
        the rows to the zero functional."""
        ws = corpus["example_t"]
        system = build_system(ws.structure, ws.plan)
        cert = (("x1", "c", Fraction(1)), ("x2", "b", Fraction(1)),
                ("z1", "b", Fraction(1)), ("z2", "c", Fraction(1)))
        result = FeasibilityResult(False, system, certificate=cert)
        assert verify_certificate(system, result).valid

    def test_negative_multiplier_rejected(self, corpus):
        ws = corpus["example_t"]
        system = build_system(ws.structure, ws.plan)
        cert = (("x1", "c", Fraction(-1)),)
        result = FeasibilityResult(False, system, certificate=cert)
        report = verify_certificate(system, result)
        assert not report.valid

    def test_unknown_row_rejected(self, corpus):
        ws = corpus["example_t"]
        system = build_system(ws.structure, ws.plan)
        cert = (("zz", "b", Fraction(1)),)
        result = FeasibilityResult(False, system, certificate=cert)
        assert not verify_certificate(system, result).valid

    def test_tampered_feasible_witness_rejected(self, corpus):
        ws = corpus["example_r"]
        result = decide_rationalizable(ws.structure, ws.plan)
        utilities = {a: dict(t) for a, t in result.utilities.items()}
        utilities["a"]["z1"] = -utilities["a"]["z1"] - 1
        tampered = FeasibilityResult(True, result.system,
                                     weights=result.weights,
                                     utilities=utilities)
        assert not verify_certificate(result.system, tampered).valid

    def test_scaled_utilities_still_verify(self, corpus):
        """The margin constraints are homogeneous in the utilities, so a
        positive rational rescaling never flips a verdict."""
        ws = corpus["example_r"]
        result = decide_rationalizable(ws.structure, ws.plan)
        for scale in (Fraction(3, 2), Fraction(1, 7), Fraction(12)):
            scaled = FeasibilityResult(
                True, result.system, weights=result.weights,
                utilities={a: {atom: v * scale for atom, v in t.items()}
                           for a, t in result.utilities.items()})
            assert verify_certificate(result.system, scaled).valid


class TestMalformedFeasibleWitness:
    """A malformed feasible witness fails verification instead of
    raising."""

    def check_rejected(self, corpus, edit):
        result = decide_rationalizable(corpus["example_r"].structure,
                                       corpus["example_r"].plan)
        weights = dict(result.weights)
        utilities = {a: dict(t) for a, t in result.utilities.items()}
        edit(weights, utilities)
        broken = FeasibilityResult(True, result.system, weights=weights,
                                   utilities=utilities)
        report = verify_certificate(result.system, broken)
        assert not report.valid
        assert report.reason

    def test_utilities_missing_an_alternative(self, corpus):
        self.check_rejected(corpus, lambda w, u: u.pop("b"))

    def test_weights_missing_an_atom(self, corpus):
        # the dropped weight moves to z1, so the weights still sum to 1
        self.check_rejected(
            corpus, lambda w, u: w.update(z1=w["z1"] + w.pop("z3")))

    def test_utilities_missing_an_atom(self, corpus):
        self.check_rejected(corpus, lambda w, u: u["a"].pop("z2"))

    def test_weight_that_is_not_rational(self, corpus):
        self.check_rejected(corpus, lambda w, u: w.update(z1=None))


@pytest.mark.parametrize("entry", [
    ("x1", "c", "1"),
    ("x1", "c"),
    (["x1"], "c", Fraction(1)),
])
def test_malformed_certificate_entry_rejected(corpus, entry):
    ws = corpus["example_t"]
    system = build_system(ws.structure, ws.plan)
    result = FeasibilityResult(False, system, certificate=(entry,))
    assert not verify_certificate(system, result).valid


def test_root_only_domain_is_feasible(corpus):
    s = corpus["example_r"].structure
    plan = Plan(("a", "b"), {"nothing": "a"})
    result = decide_rationalizable(s, plan)
    assert result.feasible
    assert verify_certificate(result.system, result).valid


def test_empty_system_rejected():
    system = FeasibilitySystem(("a", "b"), ("w1",), ())
    with pytest.raises(PlanError):
        decide_system(system)


class TestFourierMotzkinAgreement:
    """The simplex and an elimination procedure that shares no code with
    it must agree on every random small system."""

    def test_agreement_on_random_plans(self):
        rng = random.Random(88)
        outcomes = {True: 0, False: 0}
        for _ in range(130):
            s = subset_family_structure(rng, max_universe=4)
            plan = arbitrary_plan(rng, s, max_alts=3)
            system = build_system(s, plan)
            if not system.rows:
                continue
            result = decide_system(system)
            fm_feasible, fm_mult = fm_decide(system)
            assert result.feasible == fm_feasible
            outcomes[result.feasible] += 1
            if not fm_feasible:
                cert = tuple((r.state, r.alternative, v)
                             for r, v in zip(system.rows, fm_mult) if v)
                referee = FeasibilityResult(False, system, certificate=cert)
                assert verify_certificate(system, referee).valid
        assert outcomes[True] > 10 and outcomes[False] > 10


class TestTreePlans:
    def test_consistent_tree_plans_are_feasible(self):
        rng = random.Random(90)
        for _ in range(25):
            t = splitting_tree(rng, max_nodes=16)
            plan = consistent_plan(rng, t)
            result = decide_rationalizable(t.as_estructure, plan)
            assert result.feasible
            assert sum(result.weights.values()) == 1
            assert all(w > 0 for w in result.weights.values())

    def test_inconsistent_tree_plans_are_infeasible(self):
        rng = random.Random(91)
        for _ in range(25):
            t = splitting_tree(rng, max_nodes=16)
            plan = inconsistent_plan(rng, t)
            result = decide_rationalizable(t.as_estructure, plan)
            assert not result.feasible
            assert verify_certificate(result.system, result).valid
