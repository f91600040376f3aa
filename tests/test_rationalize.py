"""The explicit geometric-weight construction and its verification."""
from __future__ import annotations

import contextlib
import dataclasses
import pickle
import random
from fractions import Fraction

import pytest

import oracles
from conftest import (consistent_by_rank, consistent_plan,
                      inconsistent_plan, point_margins, splitting_tree,
                      subset_family_structure)
from evistruct import feasibility
from evistruct import (CanonicalError, EStructure, ExperimentationTree,
                       ExplicitRepresentation, Plan, PlanError,
                       RationalizationError, SamplePoint, avoiding_branch,
                       build_tree, check_isd_plan, construct_sceu,
                       decide_rationalizable, find_trees,
                       verify_rationalization)
from evistruct.feasibility import _plan_key


def make_tree(nodes, edges, root):
    s = EStructure.from_generators(nodes, root, edges)
    return build_tree(s, nodes, edges)


@pytest.fixture()
def t1(corpus):
    ws = corpus["example_d"]
    block = ws.trees[0]
    return build_tree(ws.structure, block.nodes, block.edges), ws.plan


class TestFrozenConstruction:
    """Every number of the worked four-node example, end to end."""

    def test_points_in_rank_then_declaration_order(self, t1):
        tree, plan = t1
        r = construct_sceu(tree, plan)
        assert r.point_labels == (("As", "nothing"), ("Sb", "nothing"),
                                  ("As", "As"), ("Sb", "Sb"), ("Ge", "Ge"))

    def test_raw_and_normalized_weights(self, t1):
        tree, plan = t1
        r = construct_sceu(tree, plan)
        assert r.raw_weights == (Fraction(2, 3), Fraction(2, 9),
                                 Fraction(2, 27), Fraction(2, 81),
                                 Fraction(2, 243))
        assert r.weights == (Fraction(81, 121), Fraction(27, 121),
                             Fraction(9, 121), Fraction(3, 121),
                             Fraction(1, 121))
        assert sum(r.weights) == 1

    def test_utilities_are_branch_restricted(self, t1):
        tree, plan = t1
        r = construct_sceu(tree, plan)
        assert r.utilities == {"a": (1, 1, 0, 0, 1),
                               "b": (1, 0, 1, 0, 0),
                               "c": (0, 1, 0, 1, 0)}

    def test_margins(self, t1):
        tree, plan = t1
        r = construct_sceu(tree, plan)
        report = verify_rationalization(tree, plan, r)
        assert report.verified, report.failures
        assert report.margins == {
            ("nothing", "b"): Fraction(19, 121),
            ("nothing", "c"): Fraction(79, 121),
            ("As", "a"): Fraction(9, 121),
            ("As", "c"): Fraction(90, 121),
            ("Sb", "a"): Fraction(3, 121),
            ("Sb", "b"): Fraction(30, 121),
            ("Ge", "b"): Fraction(1, 121),
            ("Ge", "c"): Fraction(1, 121),
        }
        assert report.min_margin == Fraction(1, 121)
        assert report.total_weight == 1

    def test_avoidance_points(self, t1):
        tree, plan = t1
        r = construct_sceu(tree, plan)
        label = dict(enumerate(r.point_labels))
        assert label[r.avoid[("nothing", "b")]] == ("Sb", "nothing")
        assert label[r.avoid[("nothing", "c")]] == ("As", "nothing")
        assert label[r.avoid[("Ge", "b")]] == ("Ge", "Ge")

    def test_support_widening_breaks_a_margin(self, t1):
        """Utilities must pay an alternative only on the branch through
        the sample point. Crediting every weakly-refining chooser, with
        no event restriction, hands b the heavy root points and produces
        an exact negative margin."""
        tree, plan = t1
        r = construct_sceu(tree, plan)
        wide = {
            b: tuple(
                1 if any(plan.choice[x] == b and (x, p.state) in tree.order
                         for x in tree.nodes)
                else 0
                for p in r.points)
            for b in plan.alternatives
        }
        margins = oracles.margins_oracle(
            lambda x: [i for i, p in enumerate(r.points)
                       if p.atom in tree.canonical.events[x]],
            dict(enumerate(r.weights)),
            {b: (lambda vals: (lambda i: Fraction(vals[i])))(wide[b])
             for b in plan.alternatives},
            list(tree.nodes), dict(plan.choice), plan.alternatives)
        assert margins[("nothing", "b")] == Fraction(-8, 121)
        assert margins[("nothing", "c")] == Fraction(-2, 121)


class TestAvoidingBranch:
    def test_three_node_fork(self):
        tree = make_tree(["r", "L", "R"], [("L", "r"), ("R", "r")], "r")
        plan = Plan(("a", "b"), {"r": "a", "L": "a", "R": "b"})
        assert avoiding_branch(tree, plan, "r", "b") == ("r", "L")

    def test_maximally_specific_state_returns_its_own_path(self, t1):
        tree, plan = t1
        assert avoiding_branch(tree, plan, "As", "a") == ("nothing", "As")

    def test_descent_is_leftmost_by_declaration(self):
        nodes = ["r", "u", "v", "ua", "ub", "va", "vb"]
        edges = [("u", "r"), ("v", "r"), ("ua", "u"), ("ub", "u"),
                 ("va", "v"), ("vb", "v")]
        tree = make_tree(nodes, edges, "r")
        plan = Plan(("a", "b"), {x: "a" for x in nodes})
        assert avoiding_branch(tree, plan, "r", "b") == ("r", "u", "ua")

    def test_unknown_state_rejected(self):
        tree = make_tree(["r", "L", "R"], [("L", "r"), ("R", "r")], "r")
        plan = Plan(("a", "b"), {"r": "a", "L": "a", "R": "b"})
        with pytest.raises(RationalizationError, match="tree node"):
            avoiding_branch(tree, plan, "zz", "a")

    def test_stuck_at_dominance_violation(self):
        tree = make_tree(["r", "L", "R"], [("L", "r"), ("R", "r")], "r")
        plan = Plan(("a", "b"), {"r": "b", "L": "a", "R": "a"})
        with pytest.raises(RationalizationError, match="'r'"):
            avoiding_branch(tree, plan, "r", "a")

    def test_branches_avoid_the_rejected_alternative(self):
        rng = random.Random(345)
        for _ in range(30):
            tree = splitting_tree(rng, max_nodes=15)
            plan = consistent_plan(rng, tree)
            for x in tree.nodes:
                for a in plan.alternatives:
                    if a == plan.choice[x]:
                        continue
                    branch = avoiding_branch(tree, plan, x, a)
                    qualifying = oracles.qualifying_branches(
                        tree.nodes, dict(tree.parent), tree.root,
                        tree.order, dict(plan.choice), x, a)
                    assert branch in qualifying


class TestConstructionInvariants:
    def test_three_node_fork_weights(self):
        tree = make_tree(["r", "L", "R"], [("L", "r"), ("R", "r")], "r")
        plan = Plan(("a", "b"), {"r": "a", "L": "a", "R": "b"})
        r = construct_sceu(tree, plan)
        assert len(r.points) == 3
        assert r.weights == (Fraction(9, 13), Fraction(3, 13),
                             Fraction(1, 13))

    def test_weights_match_geometric_oracle(self):
        rng = random.Random(456)
        for _ in range(30):
            tree = splitting_tree(rng, max_nodes=18)
            plan = consistent_plan(rng, tree)
            r = construct_sceu(tree, plan)
            pre, post = oracles.geometric_weights(len(r.points))
            assert list(r.raw_weights) == pre
            assert list(r.weights) == post
            assert r.raw_weights[0] == Fraction(2, 3)

    def test_each_weight_beats_the_tail(self):
        rng = random.Random(567)
        for _ in range(20):
            tree = splitting_tree(rng, max_nodes=18)
            plan = consistent_plan(rng, tree)
            r = construct_sceu(tree, plan)
            for i, w in enumerate(r.weights):
                assert w > sum(r.weights[i + 1:], Fraction(0))

    def test_point_states_have_nondecreasing_rank(self):
        rng = random.Random(678)
        for _ in range(20):
            tree = splitting_tree(rng, max_nodes=18)
            plan = consistent_plan(rng, tree)
            r = construct_sceu(tree, plan)
            ranks = [tree.rank_in_tree[p.state] for p in r.points]
            assert ranks == sorted(ranks)

    def test_partial_plan_rejected(self, t1):
        tree, _ = t1
        partial = Plan(("a", "b"), {"nothing": "a", "As": "b"})
        with pytest.raises(RationalizationError, match="cover"):
            construct_sceu(tree, partial)

    def test_inconsistent_plan_rejected(self):
        tree = make_tree(["r", "L", "R"], [("L", "r"), ("R", "r")], "r")
        plan = Plan(("a", "b"), {"r": "b", "L": "a", "R": "a"})
        with pytest.raises(RationalizationError):
            construct_sceu(tree, plan)

    def test_margins_match_oracle_and_scale_with_weights(self):
        """Rescaling all weights by a positive rational multiplies every
        margin by it, so strict positivity of the margin table does not
        depend on normalization."""
        rng = random.Random(789)
        for _ in range(15):
            tree = splitting_tree(rng, max_nodes=14)
            plan = consistent_plan(rng, tree)
            r = construct_sceu(tree, plan)
            report = verify_rationalization(tree, plan, r)

            def margins_with(weights):
                return oracles.margins_oracle(
                    lambda x: [i for i, p in enumerate(r.points)
                               if p.atom in tree.canonical.events[x]],
                    dict(enumerate(weights)),
                    {b: (lambda t: (lambda i: Fraction(t[i])))(
                        r.utilities[b]) for b in plan.alternatives},
                    list(tree.nodes), dict(plan.choice),
                    plan.alternatives)

            base = margins_with(r.weights)
            assert base == dict(report.margins)
            scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            scaled = margins_with([w * scale for w in r.weights])
            for key, value in base.items():
                assert scaled[key] == value * scale
                assert (scaled[key] > 0) == (value > 0)

    def test_margin_kernel_matches_oracle_on_random_tables(self):
        """Margins, failure texts and their order, with several points per
        atom, negative and unnormalized weights and failing margins."""
        rng = random.Random(4242)
        failing = 0
        for _ in range(40):
            tree = splitting_tree(rng, max_nodes=16)
            plan = consistent_plan(rng, tree)
            natoms = len(tree.canonical.atoms)
            atoms = [rng.randrange(natoms)
                     for _ in range(rng.randint(1, 2 * natoms))]
            weights = [Fraction(rng.randint(-1, 6), rng.randint(1, 5))
                       for _ in atoms]
            utilities = {b: [Fraction(rng.randint(-2, 3)) for _ in atoms]
                         for b in plan.alternatives}
            report = point_margins(tree, plan, atoms, weights, utilities)
            expected = oracles.margins_oracle(
                lambda x: [i for i, atom in enumerate(atoms)
                           if atom in tree.canonical.events[x]],
                dict(enumerate(weights)),
                {b: (lambda t: (lambda i: t[i]))(utilities[b])
                 for b in plan.alternatives},
                list(tree.nodes), dict(plan.choice), plan.alternatives)
            failures = []
            if sum(weights) != 1:
                failures.append(f"weights sum to {sum(weights)}, not 1")
            if any(w < 0 for w in weights):
                failures.append("negative weight")
            failures += [f"no strict preference at {x!r} over {a!r}"
                         for (x, a), m in expected.items() if m <= 0]
            assert list(report.margins.items()) == list(expected.items())
            assert report.failures == tuple(failures)
            failing += any(m <= 0 for m in expected.values())
        assert failing > 10


class TestVerification:
    def test_wrong_tree_rejected(self, t1):
        tree, plan = t1
        r = construct_sceu(tree, plan)
        other = make_tree(["r", "L", "R"], [("L", "r"), ("R", "r")], "r")
        with pytest.raises(PlanError, match="tree"):
            verify_rationalization(other, plan, r)

    def test_wrong_structure_rejected(self, t1, corpus):
        tree, plan = t1
        r = construct_sceu(tree, plan)
        with pytest.raises(PlanError, match="different structure"):
            verify_rationalization(corpus["example_c"].structure, plan, r)

    def test_ambient_and_own_structure_accepted(self, t1):
        tree, plan = t1
        r = construct_sceu(tree, plan)
        assert tree.as_estructure != tree.ambient
        for target in (tree.ambient, tree.as_estructure):
            assert verify_rationalization(target, plan, r).verified

    def test_wrong_plan_rejected(self, t1):
        tree, plan = t1
        r = construct_sceu(tree, plan)
        flipped = Plan(plan.alternatives,
                       {**plan.choice, "Ge": "b"})
        with pytest.raises(PlanError, match="plan"):
            verify_rationalization(tree, flipped, r)

    def test_plan_missing_a_tree_node_rejected(self, t1):
        tree, plan = t1
        r = construct_sceu(tree, plan)
        partial = plan.restricted_to([x for x in tree.nodes if x != "As"])
        with pytest.raises(PlanError, match="different plan"):
            verify_rationalization(tree, partial, r)

    def test_points_out_of_depth_order_fail(self, t1):
        """Two points on one atom trade states, a root point with a
        depth-1 one: the margins stay as they were, but the points are
        no longer in depth order."""
        tree, plan = t1
        r = construct_sceu(tree, plan)
        points = list(r.points)
        assert [(p.atom, tree.rank_in_tree[p.state])
                for p in (points[1], points[3])] == [(1, 0), (1, 1)]
        points[1], points[3] = points[3], points[1]
        report = verify_rationalization(
            tree, plan, dataclasses.replace(r, points=tuple(points)))
        assert report.margins == verify_rationalization(tree, plan,
                                                        r).margins
        assert report.failures == (
            "points are not ordered by state depth",
            "avoidance point of ('nothing', 'b') does not outweigh "
            "deeper points")

    def test_plan_with_other_alternatives_rejected(self):
        """The same choices over one more alternative ask for margins the
        witness has no utilities for: a different plan, not a pass."""
        tree = make_tree(["r", "L", "R"], [("L", "r"), ("R", "r")], "r")
        plan = Plan(("a", "b", "c"), {"r": "a", "L": "a", "R": "b"})
        r = construct_sceu(tree, plan)
        wider = Plan(("a", "b", "c", "zz"), plan.choice)
        with pytest.raises(PlanError, match="different plan"):
            verify_rationalization(tree, wider, r)
        reordered = Plan(("c", "b", "a"), plan.choice)
        assert verify_rationalization(tree, reordered, r).verified

    def test_tree_target_reads_the_plan_on_its_nodes_for_both_kinds(
            self, t1):
        """A choice at a state outside the tree is ignored alike by a
        constructed and by an explicit witness checked on the tree."""
        tree, plan = t1
        assert "AsO5" not in tree.nodes
        wider = Plan(plan.alternatives, {**plan.choice, "AsO5": "a"})
        r = construct_sceu(tree, wider)
        assert verify_rationalization(tree, wider, r).verified
        weights = dict.fromkeys(["As", "Sb", "Ge"], Fraction(1, 3))
        utilities = {"a": {"Ge": 3}, "b": {"As": 1}, "c": {"Sb": 1}}
        report = verify_rationalization(
            tree, wider, ExplicitRepresentation(weights, utilities))
        assert report.verified
        assert {x for x, _ in report.margins} == set(tree.nodes)

    @pytest.mark.parametrize("edit", [
        lambda r: None,
        lambda r: {},
        lambda r: dataclasses.replace(r, weights=r.weights[:-1]),
        lambda r: dataclasses.replace(
            r, utilities={**r.utilities, "a": r.utilities["a"][:-1]}),
        lambda r: dataclasses.replace(
            r, utilities={b: u for b, u in r.utilities.items() if b != "a"}),
        lambda r: dataclasses.replace(
            r, avoid=dict(list(r.avoid.items())[1:])),
        lambda r: dataclasses.replace(r, weights=(None, *r.weights[1:])),
        lambda r: dataclasses.replace(r, points=(*r.points[:-1], SamplePoint(
            99, r.points[-1].state))),
    ], ids=["None", "dict", "short-weights", "short-utilities",
            "missing-alternative", "missing-avoid-key", "None-weight",
            "point-outside-the-atoms"])
    def test_malformed_constructed_witness_fails(self, t1, edit):
        tree, plan = t1
        report = verify_rationalization(tree, plan,
                                        edit(construct_sceu(tree, plan)))
        assert not report.verified
        assert report.failures == ("not a well-formed witness",)

    @pytest.mark.parametrize("in_place", [False, True],
                             ids=["replaced", "in-place"])
    @pytest.mark.parametrize("child, new_parent", [
        ("a", "c"), ("r", "b"), ("d", "zz"), ("d", None), ("b", "c"),
    ], ids=["cycle", "fork-at-root", "parent-not-a-node", "no-parent",
            "still-a-tree-out-of-order"])
    def test_broken_shape_fails_despite_the_cached_order(self, child,
                                                         new_parent,
                                                         in_place):
        """build_tree caches the top-down order it read on the instance.
        A copy made by dataclasses.replace starts without it and reads its
        own shape, so the verifier fails the witness. The tree's parent
        map is a read-only copy, so the same edit in place raises and
        leaves the witness as it was. Hanging b under c keeps a tree, but
        the cached order has b before c. (new_parent None deletes.)"""
        nodes = ["r", "a", "b", "c", "d"]
        edges = [("a", "r"), ("b", "r"), ("c", "a"), ("d", "a")]
        tree = make_tree(nodes, edges, "r")
        assert tree.__dict__["_top_down"] == ("r", "a", "b", "c", "d")
        plan = Plan(("x", "y"), {"r": "x", "a": "x", "b": "y", "c": "x",
                                 "d": "y"})
        r = construct_sceu(tree, plan)
        parent = tree.parent if in_place else dict(tree.parent)
        with (pytest.raises(TypeError) if in_place
              else contextlib.nullcontext()):
            if new_parent is None:
                del parent[child]
            else:
                parent[child] = new_parent
        if in_place:
            assert tree.parent == dict(edges)
            assert verify_rationalization(tree.ambient, plan, r).verified
            return
        broken = dataclasses.replace(tree, parent=parent)
        assert "_top_down" not in broken.__dict__
        r = dataclasses.replace(r, tree=broken)
        report = verify_rationalization(tree.ambient, plan, r)
        assert not report.verified
        assert report.failures == ("not a well-formed witness",)

    def test_frozen_parent_map(self):
        """r(a(c, d), b): hanging d under c leaves c one child. In place
        the edit raises; through dataclasses.replace the edited tree's own
        structure gives c one refinement, so its canonical space fails and
        the witness is not well-formed."""
        tree = make_tree(["r", "a", "b", "c", "d"],
                         [("a", "r"), ("b", "r"), ("c", "a"), ("d", "a")],
                         "r")
        plan = Plan(("x", "y"), {"r": "x", "a": "x", "b": "y", "c": "x",
                                 "d": "y"})
        r = construct_sceu(tree, plan)
        with pytest.raises(TypeError):
            tree.parent["d"] = "c"
        edited = dataclasses.replace(tree, parent={**tree.parent, "d": "c"})
        report = verify_rationalization(tree.ambient, plan,
                                        dataclasses.replace(r, tree=edited))
        assert report.failures == ("not a well-formed witness",)

    def test_parent_map_is_a_copy(self):
        """Editing the mapping a tree was built from leaves the tree."""
        s = EStructure.from_generators(["r", "a", "b"], "r",
                                       [("a", "r"), ("b", "r")])
        given = {"a": "r", "b": "r"}
        tree = ExperimentationTree(s, ("r", "a", "b"), given)
        given["b"] = "a"
        assert tree.parent == {"a": "r", "b": "r"}
        assert dataclasses.replace(tree, parent=None).parent is None

    def test_uniform_weights_fail_the_outweighing_check_once(self, t1):
        tree, plan = t1
        r = construct_sceu(tree, plan)
        n = len(r.points)
        uniform = dataclasses.replace(r, weights=(Fraction(1, n),) * n)
        report = verify_rationalization(tree, plan, uniform)
        assert [f for f in report.failures if "all later" in f] == [
            "weight 0 does not outweigh all later points"]

    @pytest.mark.parametrize("parent", [
        {"As": "Sb", "Sb": "As", "Ge": "nothing"},
        {"As": "zzz", "Sb": "nothing", "Ge": "nothing"},
        None,
    ], ids=["2-cycle", "parent-not-a-node", "None"])
    def test_explicit_witness_on_a_malformed_tree_target_fails(self, t1,
                                                              parent):
        tree, plan = t1
        target = dataclasses.replace(tree, parent=parent)
        witness = ExplicitRepresentation({"As": Fraction(1)}, {})
        report = verify_rationalization(
            target, plan.restricted_to(tree.nodes), witness)
        assert not report.verified
        assert report.failures == ("malformed tree",)

    def test_explicit_witness_on_a_tree_whose_own_structure_fails(self, t1):
        """A tree-shaped target whose own structure fails the axioms, the
        root of example_d with As alone under it, gets a failing report,
        not the CanonicalError its own structure raises."""
        tree, plan = t1
        target = ExperimentationTree(tree.ambient, ("nothing", "As"),
                                     {"As": "nothing"})
        with pytest.raises(CanonicalError):
            target.canonical
        report = verify_rationalization(
            target, plan.restricted_to(target.nodes),
            ExplicitRepresentation({"As": Fraction(1)}, {}))
        assert not report.verified
        assert report.failures == ("malformed tree",)

    def test_explicit_witness_on_a_structure_that_fails_its_axioms(self):
        """A structure target that fails the axioms (c under a alone, so
        separation fails at (a, c)) gets a failing report, not the
        CanonicalError its canonical space raises."""
        s = EStructure.from_generators(
            ["r", "a", "b", "c"], "r", [("a", "r"), ("b", "r"), ("c", "a")])
        with pytest.raises(CanonicalError):
            s.canonical
        witness = ExplicitRepresentation(
            {"c": Fraction(1, 2), "b": Fraction(1, 2)},
            {"x": {"b": Fraction(1)}, "y": {"c": Fraction(1)}})
        report = verify_rationalization(
            s, Plan(("x", "y"), {"r": "x", "a": "y"}), witness)
        assert not report.verified
        assert report.failures == ("malformed structure",)

    def test_explicit_witness_with_a_plan_that_decides_no_tree_node(
            self, t1):
        """AsO5 is no node of block 0, so the plan restricted to the tree
        would be empty: the error names that cause."""
        tree, _ = t1
        assert "AsO5" not in tree.nodes
        plan = Plan(("a", "b", "c"), {"AsO5": "a"})
        with pytest.raises(PlanError, match="^plan decides no node of the "
                                            "tree$"):
            verify_rationalization(
                tree, plan, ExplicitRepresentation({"As": Fraction(1)}, {}))

    def test_explicit_witness_on_a_contained_tree_target(self, t1):
        """Checked against the tree's own structure: its three leaves are
        the atoms, and each node's rows are the margins."""
        tree, plan = t1
        plan = plan.restricted_to(tree.nodes)
        assert plan.choice == {"nothing": "a", "As": "b", "Sb": "c",
                               "Ge": "a"}
        weights = dict.fromkeys(["As", "Sb", "Ge"], Fraction(1, 3))
        utilities = {"a": {"Ge": 3}, "b": {"As": 1}, "c": {"Sb": 1}}
        report = verify_rationalization(
            tree, plan, ExplicitRepresentation(weights, utilities))
        assert report.verified
        assert report.margins[("nothing", "b")] == Fraction(2, 3)
        assert {x for x, _ in report.margins} == set(tree.nodes)
        utilities["a"]["Ge"] = 1  # a ties b and c at the root
        report = verify_rationalization(
            tree, plan, ExplicitRepresentation(weights, utilities))
        assert report.failures == (
            "no strict preference at 'nothing' over 'b'",
            "no strict preference at 'nothing' over 'c'")

    @pytest.mark.parametrize("bad", [None, "x", 0.5])
    def test_explicit_witness_with_non_rational_utility(self, corpus, bad):
        ws = corpus["example_r"]
        witness = ExplicitRepresentation(
            weights={z: Fraction(1, 5)
                     for z in ("z1", "z2", "z3", "z4", "z5")},
            utilities={"a": {"z1": bad}, "b": {"z4": Fraction(1)}})
        report = verify_rationalization(ws.structure, ws.plan, witness)
        assert not report.verified
        assert report.failures == ("witness value is not rational",)

    @pytest.mark.parametrize("bad", [None, "1/5"])
    def test_explicit_witness_with_non_rational_weight(self, corpus, bad):
        ws = corpus["example_r"]
        weights = {z: Fraction(1, 5) for z in ("z1", "z2", "z3", "z4", "z5")}
        weights["z2"] = bad
        witness = ExplicitRepresentation(
            weights=weights, utilities={"a": {"z1": 1}, "b": {"z4": 1}})
        report = verify_rationalization(ws.structure, ws.plan, witness)
        assert not report.verified
        assert report.failures == ("witness value is not rational",)

    @pytest.mark.parametrize("field, bad", [
        ("weights", None), ("weights", [1]),
        ("utilities", None), ("utilities", [1]),
        ("table", None), ("table", [1]),
    ], ids=["weights-None", "weights-list", "utilities-None",
            "utilities-list", "table-None", "table-list"])
    def test_explicit_witness_with_malformed_container(self, corpus, field,
                                                       bad):
        ws = corpus["example_r"]
        weights = {z: Fraction(1, 5) for z in ("z1", "z2", "z3", "z4", "z5")}
        utilities = {"a": {"z1": 1}, "b": {"z4": 1}}
        if field == "weights":
            weights = bad
        elif field == "utilities":
            utilities = bad
        else:
            utilities["a"] = bad
        witness = ExplicitRepresentation(weights, utilities)
        report = verify_rationalization(ws.structure, ws.plan, witness)
        assert not report.verified
        assert report.failures

    def test_explicit_witness_for_example_r(self, corpus):
        ws = corpus["example_r"]
        witness = ExplicitRepresentation(
            weights={z: Fraction(1, 5)
                     for z in ("z1", "z2", "z3", "z4", "z5")},
            utilities={"a": {"z1": Fraction(1), "z2": Fraction(1),
                             "z3": Fraction(1)},
                       "b": {"z4": Fraction(1), "z5": Fraction(1)}})
        report = verify_rationalization(ws.structure, ws.plan, witness)
        assert report.verified
        assert set(report.margins.values()) == {Fraction(1, 5)}
        assert len(report.margins) == 9

    def test_explicit_witness_tampering_detected(self, corpus):
        ws = corpus["example_r"]
        witness = ExplicitRepresentation(
            weights={z: Fraction(1, 5)
                     for z in ("z1", "z2", "z3", "z4", "z5")},
            utilities={"a": {"z1": Fraction(1), "z2": Fraction(1)},
                       "b": {"z4": Fraction(1), "z5": Fraction(1)}})
        report = verify_rationalization(ws.structure, ws.plan, witness)
        assert not report.verified
        assert report.margins[("z3", "b")] == 0

    def test_explicit_witness_must_sum_to_one(self, corpus):
        ws = corpus["example_r"]
        witness = ExplicitRepresentation(
            weights={"z1": Fraction(1, 2)},
            utilities={"a": {"z1": Fraction(1)}, "b": {}})
        report = verify_rationalization(ws.structure, ws.plan, witness)
        assert not report.verified
        assert any("sum" in f for f in report.failures)

    def test_explicit_witness_unknown_atom_label(self, corpus):
        ws = corpus["example_r"]
        witness = ExplicitRepresentation(
            weights={"zz": Fraction(1)},
            utilities={"a": {}, "b": {}})
        report = verify_rationalization(ws.structure, ws.plan, witness)
        assert not report.verified

    def test_random_constructions_all_verify(self):
        rng = random.Random(890)
        for _ in range(40):
            tree = splitting_tree(rng, max_nodes=20)
            plan = consistent_plan(rng, tree)
            r = construct_sceu(tree, plan)
            report = verify_rationalization(tree, plan, r)
            assert report.verified, report.failures

    def test_inconsistent_generator_never_constructs(self):
        rng = random.Random(901)
        for _ in range(30):
            tree = splitting_tree(rng, max_nodes=20)
            plan = inconsistent_plan(rng, tree)
            with pytest.raises(RationalizationError):
                construct_sceu(tree, plan)


def test_one_avoidance_pass_matches_the_per_rival_walks():
    """feasibility._avoidance builds every rival's avoidance walk in one
    pass on indices; the references walk once per rival
    (oracles.avoidance_by_rival) and on names in one pass
    (oracles.avoidance_named, the pass before it went onto indices).
    The points, bits and avoid map, construct_sceu's RationalizationError
    text where a walk stops short, and avoiding_branch at every node
    against every alternative and one rival no node chooses agree, on
    consistent and inconsistent plans with 2 to 4 alternatives on trees
    of up to 80 nodes."""
    rng = random.Random(3311)
    kinds = {"built": 0, "stuck": 0, "branch": 0, "branch stuck": 0}
    for i in range(80):
        tree = splitting_tree(rng, max_nodes=80 if i % 4 == 0 else 24)
        make = consistent_plan if i % 2 else inconsistent_plan
        plan = make(rng, tree, n_alts=rng.randint(2, 4))
        alts, choice = plan.alternatives, plan.choice
        data = (tree._top_down, dict(tree.children), choice, alts)
        leaf_atom = {cls[0]: k for k, cls in enumerate(tree.canonical.atoms)}
        walks = feasibility._avoidance(tree.as_estructure,
                                       _plan_key(tree.canonical, plan))
        try:
            want = oracles.avoidance_by_rival(
                tree.nodes, tree._top_down, dict(tree.children),
                tree.rank_in_tree, choice, alts, leaf_atom)
        except ValueError as error:
            with pytest.raises(ValueError) as named:
                oracles.avoidance_named(tree, plan)
            assert str(named.value) == str(error)
            with pytest.raises(RationalizationError) as info:
                construct_sceu(tree, plan)
            assert str(info.value) == str(error)
            assert walks.atoms == walks.chosen == walks.avoid == ()
            kinds["stuck"] += 1
        else:
            assert oracles.avoidance_named(tree, plan) == want
            nodes = tree.nodes
            rejected = [(x, b) for x in nodes for b in alts
                        if b != choice[x]]
            assert (tuple(zip(walks.atoms, [nodes[r] for r in walks.classes])),
                    walks.chosen, dict(zip(rejected, walks.avoid)),
                    walks.stuck) == (*want, None)
            kinds["built"] += 1
        for x in tree.nodes:
            for a in (*alts, "zz"):
                try:
                    path = oracles.avoiding_branch_by_rival(
                        *data, tree.path_to_root(x), x, a)
                except ValueError as error:
                    with pytest.raises(RationalizationError) as info:
                        avoiding_branch(tree, plan, x, a)
                    assert str(info.value) == str(error)
                    kinds["branch stuck"] += 1
                else:
                    assert avoiding_branch(tree, plan, x, a) == path
                    kinds["branch"] += 1
    assert kinds["built"] == kinds["stuck"] == 40
    assert kinds["branch stuck"] > 100


def test_partial_plans_branch_as_the_walks_did():
    """avoiding_branch on a plan that leaves tree nodes undecided, or
    decides states off a contained tree, walks through an undecided
    node as through one choosing no rival, as the walks on names did."""
    rng = random.Random(3312)
    seen = 0
    for i in range(40):
        if i % 2:
            tree = splitting_tree(rng, max_nodes=20)
        else:
            found = find_trees(subset_family_structure(rng, max_universe=4))
            if not found:
                continue
            tree = rng.choice(found)
        alts = ("a", "b", "c")[:2 + i % 2]
        plan = Plan(alts, {x: rng.choice(alts) for x in tree.ambient.states
                           if rng.random() < 0.7} or {tree.root: "a"})
        for a in alts:
            walks = oracles.walks_named(tree, plan, alts)[a]
            for x in tree.nodes:
                step, end, chosen = walks[x]
                if chosen is None and tree.children[x]:
                    with pytest.raises(RationalizationError) as info:
                        avoiding_branch(tree, plan, x, a)
                    assert f"every child of {end!r}" in str(info.value)
                    continue
                path = list(tree.path_to_root(x))
                while step is not None:
                    path.append(step)
                    step = walks[step][0]
                assert avoiding_branch(tree, plan, x, a) == tuple(path)
                seen += 1
    assert seen > 200


def test_walk_tables_match_the_walk_reference():
    """construct_sceu reads its avoidance walks off one table per
    alternative; oracles.construct_sceu_by_walks walks once per (node,
    rejected alternative). Points, weights, utilities, avoid and the
    error text must agree, on spanning and contained trees."""
    rng = random.Random(1212)
    built = stuck = contained = 0
    for i in range(150):
        if i % 3:
            tree = splitting_tree(rng, max_nodes=20)
        else:  # a tree inside a subset family
            found = find_trees(subset_family_structure(rng, max_universe=4))
            if not found:
                continue
            tree = rng.choice(found)
        alts = ("a", "b", "c", "d")[:rng.randint(2, 4) if i % 3 else 2]
        if i % 3 and i % 4 < 2:  # the generators need parents first
            make = consistent_plan if i % 4 == 0 else inconsistent_plan
            choice = dict(make(rng, tree, n_alts=len(alts)).choice)
        else:  # random choices, and choices off a contained tree
            choice = {x: rng.choice(alts) for x in tree.ambient.states}
        plan = Plan(alts, choice)
        leaf_atom = {cls[0]: k for k, cls in enumerate(tree.canonical.atoms)}
        try:
            want = oracles.construct_sceu_by_walks(
                tree.nodes, tree.root, dict(tree.parent),
                {x: plan.choice[x] for x in tree.nodes}, alts, leaf_atom)
        except ValueError as error:
            with pytest.raises(RationalizationError) as info:
                construct_sceu(tree, plan)
            assert str(info.value) == str(error)
            stuck += 1
            continue
        r = construct_sceu(tree, plan)
        assert ([(p.atom, p.state) for p in r.points], list(r.raw_weights),
                list(r.weights), {b: list(u) for b, u in r.utilities.items()},
                dict(r.avoid)) == want
        built += 1
        contained += tree.nodes != tree.ambient.states
    assert built > 60 and stuck > 30 and contained > 10


def derive(s, tree, plan):
    """One op on a structure and a tree: decide, construct and verify.
    A construction stopped by a dominance violation gives its text."""
    result = decide_rationalizable(s, plan)
    try:
        r = construct_sceu(tree, plan)
    except RationalizationError as error:
        return result, str(error), None
    return result, r, verify_rationalization(tree, plan, r)


def derive_afresh(tree, plan):
    """derive on a new structure and tree with the same states, relation
    and edges, and on a copy of the plan, so nothing kept is read."""
    a = tree.ambient
    s = EStructure(a.states, a.root, a.relation)
    t = build_tree(s, tree.nodes, tuple(tree.parent.items()))
    return derive(s, t, Plan(plan.alternatives, dict(plan.choice)))


class TestKeptPasses:
    """The avoidance pass and the rows are kept on the canonical space,
    each keyed by the plan's choices at the space's states, so a second
    read in one op finds them and any other plan builds its own."""

    def one_node_apart(self, seed):
        rng = random.Random(seed)
        tree = splitting_tree(rng, max_nodes=12, min_nodes=12)
        plan = consistent_plan(rng, tree, n_alts=3)
        other = next(
            p for x in tree.leaves for b in plan.alternatives
            if b != plan.choice[x]
            for p in [Plan(plan.alternatives, {**plan.choice, x: b})]
            if not check_isd_plan(tree.ambient, p).violations)
        return tree, plan, other

    def test_plans_one_node_apart_alternate_on_one_tree(self):
        tree, plan, other = self.one_node_apart(2201)
        s = tree.ambient
        ops = [derive(s, tree, p) for p in (plan, other, plan, other)]
        assert ops[0] != ops[1]
        for p, got in zip((plan, other, plan, other), ops):
            assert got[1].plan == p and got[2].verified
            assert got == derive_afresh(tree, p)

    def test_an_edited_choice_dict_is_derived_again(self):
        tree, plan, other = self.one_node_apart(2202)
        s = tree.ambient
        edited = Plan(plan.alternatives, dict(plan.choice))
        assert derive(s, tree, edited) == derive_afresh(tree, plan)
        (x, b), = other.choice.items() - plan.choice.items()
        edited.choice[x] = b
        got = derive(s, tree, edited)
        assert got == derive_afresh(tree, other)
        assert got[1].utilities != construct_sceu(tree, plan).utilities

    def test_every_op_matches_a_fresh_derivation(self):
        """Runs of plans on one structure and tree each, on spanning
        splitting trees and on trees contained in subset families:
        consistent plans, the same plan edited at one node, and one
        made inconsistent at an inner node."""
        rng = random.Random(2203)
        kinds = {"spanning": 0, "contained": 0, "stuck": 0}
        for i in range(30):
            if i % 3:
                tree = splitting_tree(rng, max_nodes=14)
            else:
                inner = []
                while not inner:
                    inner = [t for t in find_trees(
                        subset_family_structure(rng, 4))
                        if t.as_estructure is not t.ambient]
                tree = rng.choice(inner)
            kinds["spanning" if i % 3 else "contained"] += 1
            alts = ("a", "b", "c", "d")[:2 + i % 3]
            for _ in range(2):
                base = consistent_by_rank(rng, tree, alts)
                x = rng.choice(tree.nodes)
                edited = Plan(alts, {**base.choice, x: rng.choice(alts)})
                z = rng.choice([y for y in tree.nodes if tree.children[y]])
                a, b = rng.sample(alts, 2)
                bad = Plan(alts, {**base.choice, z: b,
                                  **dict.fromkeys(tree.children[z], a)})
                for plan in (base, edited, base, bad, edited):
                    got = derive(tree.ambient, tree, plan)
                    assert got == derive_afresh(tree, plan)
                    kinds["stuck"] += isinstance(got[1], str)
        assert min(kinds.values()) > 5

    def test_editing_a_witness_leaves_the_next_construction_alone(self):
        rng = random.Random(2204)
        tree = splitting_tree(rng, max_nodes=10, min_nodes=10)
        plan = consistent_plan(rng, tree, n_alts=3)
        want = derive_afresh(tree, plan)[1]
        r = construct_sceu(tree, plan)
        r.avoid.clear()
        again = construct_sceu(tree, plan)
        assert again == want and again.avoid is not r.avoid
        assert verify_rationalization(tree, plan, again).verified

    def test_no_field_equality_repr_or_pickle_changes(self):
        """After a full op the structure, its space and its tree compare,
        print, hash and pickle as before it, and loaded copies carry
        nothing kept. Both passes are on the space, and the tree keeps
        no plan-keyed entry. The space holds a dict and the tree a
        read-only map, so only the structure hashes."""
        rng = random.Random(2205)
        tree = splitting_tree(rng, max_nodes=12, min_nodes=12)
        s, space = tree.ambient, tree.ambient.canonical
        s.derived.incompat_rows  # a cache the op fills, not a kept pass
        objects = (s, space, tree)
        before = ([repr(o) for o in objects],
                  [pickle.dumps(o) for o in objects], hash(s))
        plan = consistent_plan(rng, tree, n_alts=3)
        derive(s, tree, plan)
        key = _plan_key(space, plan)

        def plan_keyed(o):
            return [name for name, v in o.__dict__.items()
                    if isinstance(v, tuple) and v[:1] == (key,)]
        assert plan_keyed(space) == ["_rows", "_avoidance"]
        assert plan_keyed(tree) == []
        assert before == ([repr(o) for o in objects],
                          [pickle.dumps(o) for o in objects], hash(s))
        loaded = [pickle.loads(pickle.dumps(o)) for o in objects]
        assert loaded == list(objects)
        assert loaded[0] == EStructure(s.states, s.root, s.relation)
        assert not loaded[1].__dict__.keys() & {"_rows", "_avoidance"}
        assert not loaded[0].canonical.__dict__.keys() & {"_rows",
                                                          "_avoidance"}

    def test_a_copy_of_the_spanning_tree_reads_the_decisions_pass(
            self, monkeypatch):
        """A dataclasses.replace copy of the built spanning tree is a new
        object, but its canonical space is the structure's, where the
        decision, which reads no tree, kept its avoidance pass:
        constructing on the copy after the decision builds no pass
        again, and the witness is the one a fresh op builds."""
        rng = random.Random(2206)
        tree = splitting_tree(rng, max_nodes=12, min_nodes=12)
        plan = consistent_plan(rng, tree, n_alts=3)
        s = EStructure(tree.ambient.states, tree.root, tree.ambient.relation)
        built = build_tree(s, tree.nodes, tuple(tree.parent.items()))
        assert decide_rationalizable(s, plan).path == "tree"
        copy = dataclasses.replace(built)
        assert copy is not built and copy.canonical is s.canonical
        walks = []
        original = feasibility._Avoidance
        monkeypatch.setattr(feasibility, "_Avoidance",
                            lambda *args: walks.append(1) or original(*args))
        r = construct_sceu(copy, plan)
        assert walks == []
        assert verify_rationalization(copy, plan, r).verified
        assert r == dataclasses.replace(derive_afresh(tree, plan)[1],
                                        tree=copy)
