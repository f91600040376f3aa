"""Plans, dominance consistency, and the induced preference relation."""
from __future__ import annotations

import random

import pytest

import oracles
from conftest import (consistent_plan, degraded_structure,
                      inconsistent_plan, splitting_tree,
                      subset_family_structure)
from evistruct import (ConditionalPreferenceRelation, EStructure, Plan,
                       PlanError, check_isd_plan, check_isd_relation,
                       induced_relation)


class TestPlanValidation:
    def test_needs_two_alternatives(self):
        with pytest.raises(PlanError):
            Plan(("a",), {"r": "a"})

    def test_needs_distinct_alternatives(self):
        with pytest.raises(PlanError):
            Plan(("a", "a"), {"r": "a"})

    def test_needs_nonempty_domain(self):
        with pytest.raises(PlanError):
            Plan(("a", "b"), {})

    def test_choices_must_be_alternatives(self):
        with pytest.raises(PlanError):
            Plan(("a", "b"), {"r": "c"})

    @pytest.mark.parametrize("alternatives, choice, message", [
        (("x", "y"), 5,
         "choice must be a mapping of states to alternatives, not 5"),
        (("x", "y"), [("r", "x")], "choice must be a mapping of states to "
         "alternatives, not [('r', 'x')]"),
        (5, {"r": "x"},
         "alternatives must be a collection of hashable labels, not 5"),
        (("x", ["y"]), {"r": "x"}, "alternatives must be a collection of "
         "hashable labels, not ('x', ['y'])"),
        (iter(("x", "y")), {"r": "x"}, "alternatives must be a collection "
         "of hashable labels, not <tuple_iterator"),
    ], ids=["choice-int", "choice-list", "alternatives-int",
            "unhashable-alternative", "alternatives-iterator"])
    def test_malformed_data_raises_a_plan_error(self, alternatives, choice,
                                                message):
        with pytest.raises(PlanError) as caught:
            Plan(alternatives, choice)
        assert str(caught.value).startswith(message)

    def test_restricted_to(self):
        plan = Plan(("a", "b"), {"r": "a", "x": "b", "y": "a"})
        sub = plan.restricted_to(["r", "y"])
        assert sub.domain == ("r", "y")
        assert sub.alternatives == ("a", "b")

    def test_restricted_to_accepts_a_generator(self):
        plan = Plan(("a", "b"), {"r": "a", "x": "b", "y": "a"})
        sub = plan.restricted_to(x for x in ["r", "x", "y"])
        assert sub.choice == plan.choice

    def test_domain_preserves_insertion_order(self):
        plan = Plan(("a", "b"), {"y": "a", "x": "b"})
        assert plan.domain == ("y", "x")


class TestCorpusPlans:
    def test_example_r_violates_at_the_root(self, corpus):
        ws = corpus["example_r"]
        report = check_isd_plan(ws.structure, ws.plan)
        assert not report.consistent
        assert report.violations == (("nothing", "b"),)

    def test_example_t_is_consistent(self, corpus):
        ws = corpus["example_t"]
        assert check_isd_plan(ws.structure, ws.plan).consistent

    def test_example_d_plan_is_consistent_in_the_ambient(self, corpus):
        """The plan covers only the first tree's nodes, so no ambient
        state has all refinements in the domain and nothing constrains."""
        ws = corpus["example_d"]
        assert check_isd_plan(ws.structure, ws.plan).consistent

    def test_oracle_agrees_on_corpus(self, corpus):
        for name in ("example_r", "example_t", "example_d"):
            ws = corpus[name]
            report = check_isd_plan(ws.structure, ws.plan)
            oracle = oracles.isd_plan_oracle(
                ws.structure.states, ws.structure.relation,
                list(ws.plan.domain), dict(ws.plan.choice))
            assert list(report.violations) == oracle

    def test_unknown_domain_state_rejected(self, corpus):
        s = corpus["example_t"].structure
        with pytest.raises(PlanError):
            check_isd_plan(s, Plan(("a", "b"), {"bogus": "a"}))

    def test_the_first_unknown_state_in_plan_order_is_named(self, corpus):
        s = corpus["example_t"].structure
        plan = Plan(("a", "b"), {s.root: "a", "zz": "b", "bogus": "a"})
        with pytest.raises(PlanError,
                           match="^plan state 'zz' is not a state$"):
            check_isd_plan(s, plan)


class TestInducedRelation:
    def test_chosen_is_strictly_top(self):
        s = EStructure.from_generators(
            ["r", "x", "y"], "r", [("x", "r"), ("y", "r")])
        plan = Plan(("a", "b", "c"), {"r": "a", "x": "b"})
        rel = induced_relation(s, plan)
        assert rel.prefers("x", "b", "a")
        assert rel.prefers("x", "b", "c")
        assert rel.indifferent("x", "a", "c")
        assert not rel.prefers("x", "a", "b")

    def test_off_domain_states_are_indifferent(self):
        s = EStructure.from_generators(
            ["r", "x", "y"], "r", [("x", "r"), ("y", "r")])
        plan = Plan(("a", "b"), {"x": "a", "y": "a"})
        rel = induced_relation(s, plan)
        assert rel.indifferent("r", "a", "b")

    def test_tiers_must_partition(self):
        with pytest.raises(PlanError):
            ConditionalPreferenceRelation(
                ("a", "b"), {"r": (frozenset({"a"}),)})

    @pytest.mark.parametrize("tiers", [
        (frozenset(), frozenset({"a", "b"})),
        (frozenset({"a", "b"}), frozenset({"b"})),
    ], ids=["empty tier", "overlapping tiers"])
    def test_tiers_must_be_nonempty_and_disjoint(self, tiers):
        with pytest.raises(PlanError, match="at 'r' are not disjoint"):
            ConditionalPreferenceRelation(("a", "b"), {"r": tiers})

    def test_unknown_alternative_is_a_plan_error(self):
        rel = ConditionalPreferenceRelation(
            ("a", "b"), {"r": (frozenset({"a"}), frozenset({"b"}))})
        with pytest.raises(PlanError,
                           match="alternative 'zz' missing from tiers"):
            rel.prefers("r", "a", "zz")

    def test_relation_must_cover_states(self):
        s = EStructure.from_generators(
            ["r", "x", "y"], "r", [("x", "r"), ("y", "r")])
        rel = ConditionalPreferenceRelation(
            ("a", "b"), {"r": (frozenset({"a", "b"}),)})
        with pytest.raises(PlanError, match="cover"):
            check_isd_relation(s, rel)

    def test_bare_predicate_form(self):
        s = EStructure.from_generators(
            ["r", "x", "y"], "r", [("x", "r"), ("y", "r")])
        report = check_isd_relation(
            s, prefers=lambda z, a, b: a == "a" and b == "b",
            alternatives=("a", "b"))
        assert report.consistent
        with pytest.raises(PlanError):
            check_isd_relation(s)


class TestPlanRelationGap:
    """The plan check and the relation check agree on total plans and
    nowhere else."""

    def test_partial_plan_counterexample(self):
        s = EStructure.from_generators(
            ["nothing", "x1", "x2"], "nothing",
            [("x1", "nothing"), ("x2", "nothing")])
        plan = Plan(("a", "b"), {"x1": "b", "x2": "b"})
        assert check_isd_plan(s, plan).consistent
        report = check_isd_relation(s, induced_relation(s, plan))
        assert not report.consistent
        assert report.violations == (("nothing", "b", "a"),)

    def test_biconditional_on_total_plans(self):
        rng = random.Random(2024)
        seen = {True: 0, False: 0}
        for _ in range(80):
            s = subset_family_structure(rng)
            alts = ("a", "b", "c")[:rng.randint(2, 3)]
            plan = Plan(alts, {x: rng.choice(alts) for x in s.states})
            lhs = check_isd_plan(s, plan).consistent
            rhs = check_isd_relation(s, induced_relation(s, plan)).consistent
            assert lhs == rhs
            seen[lhs] += 1
        assert seen[True] and seen[False]

    def test_relation_consistency_implies_plan_consistency(self):
        rng = random.Random(2025)
        for _ in range(80):
            s = subset_family_structure(rng)
            alts = ("a", "b", "c")[:rng.randint(2, 3)]
            domain = [x for x in s.states if rng.random() < 0.7] or \
                [s.states[0]]
            plan = Plan(alts, {x: rng.choice(alts) for x in domain})
            if check_isd_relation(s, induced_relation(s, plan)).consistent:
                assert check_isd_plan(s, plan).consistent

    def test_relation_check_matches_oracle(self):
        rng = random.Random(2026)
        for _ in range(40):
            s = subset_family_structure(rng)
            alts = ("a", "b")
            domain = [x for x in s.states if rng.random() < 0.7] or \
                [s.states[0]]
            plan = Plan(alts, {x: rng.choice(alts) for x in domain})
            rel = induced_relation(s, plan)
            mine = set(check_isd_relation(s, rel).violations)
            # the oracle's predicate argument reads "a is worse than b"
            oracle = oracles.isd_relation_violations(
                s.states, s.relation, alts,
                lambda x, a, b: rel.prefers(x, b, a))
            assert mine == {(z, b, a) for (z, a, b) in oracle}


class TestGeneratedPlans:
    def test_consistent_generator_is_consistent(self):
        rng = random.Random(31)
        for _ in range(50):
            t = splitting_tree(rng, max_nodes=20)
            plan = consistent_plan(rng, t)
            assert check_isd_plan(t.as_estructure, plan).consistent

    def test_inconsistent_generator_violates(self):
        rng = random.Random(32)
        for _ in range(50):
            t = splitting_tree(rng, max_nodes=20)
            plan = inconsistent_plan(rng, t)
            assert not check_isd_plan(t.as_estructure, plan).consistent

    def test_plan_check_matches_oracle_on_trees(self):
        rng = random.Random(33)
        for _ in range(40):
            t = splitting_tree(rng, max_nodes=20)
            plan = (consistent_plan if rng.random() < 0.5
                    else inconsistent_plan)(rng, t)
            s = t.as_estructure
            assert list(check_isd_plan(s, plan).violations) == \
                oracles.isd_plan_oracle(s.states, s.relation,
                                        list(plan.domain),
                                        dict(plan.choice))

    def test_plan_check_matches_oracle_on_families_and_degraded_draws(self):
        """Total and partial plans of two or three alternatives on subset
        families with twins, and on the degraded structures the bit-row
        core is tested on, relations that are not closed included: the
        violations equal the oracle's, in declaration order."""
        rng = random.Random(34)
        found = partial = 0
        for i in range(400):
            s = degraded_structure(rng) if i % 2 else subset_family_structure(
                rng, max_universe=4, dup_prob=0.5)
            alts = ("x", "y", "z")[:rng.choice((2, 3))]
            keep = 1.0 if rng.random() < 0.4 else 0.7
            choice = {x: rng.choice(alts) for x in s.states
                      if rng.random() < keep}
            if not choice:
                continue
            partial += len(choice) < len(s.states)
            violations = check_isd_plan(s, Plan(alts, choice)).violations
            assert list(violations) == oracles.isd_plan_oracle(
                s.states, s.relation, [x for x in s.states if x in choice],
                choice)
            found += bool(violations)
        assert found > 80 and partial > 100
