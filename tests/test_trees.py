"""Tree conditions, enumeration, partitions, and event decomposition."""
from __future__ import annotations

import random

import pytest

import oracles
from conftest import splitting_tree, subset_family_structure
from evistruct import (TREE_CONDITION_IDS, EStructure, TreeError, build_tree,
                       build_canonical, check_axioms, check_graph_tree,
                       check_tree, decompose_field_element, find_trees,
                       parse_workspace, partitions)


def test_condition_ids_are_stable():
    assert TREE_CONDITION_IDS == ("t-root", "t-order", "t-parent",
                                  "t-immediate", "t-branching", "t-incompat",
                                  "t-unbiased")
    assert TREE_CONDITION_IDS == oracles.TREE_CONDITIONS


def _block(ws, i):
    return ws.trees[i].nodes, ws.trees[i].edges


class TestExampleD:
    """Three candidate node sets over the shared ambient structure: the
    first is a tree, the other two fail for distinct reasons."""

    def test_t1_passes(self, corpus):
        ws = corpus["example_d"]
        nodes, edges = _block(ws, 0)
        report = check_tree(ws.structure, nodes, edges)
        assert report.passed, report.failed_ids

    def test_t2_fails_order_immediate_unbiased(self, corpus):
        ws = corpus["example_d"]
        nodes, edges = _block(ws, 1)
        report = check_tree(ws.structure, nodes, edges)
        assert set(report.failed_ids) == {"t-order", "t-immediate",
                                          "t-unbiased"}

    def test_t3_fails_exactly_incompat_and_unbiased(self, corpus):
        ws = corpus["example_d"]
        nodes, edges = _block(ws, 2)
        report = check_tree(ws.structure, nodes, edges)
        assert set(report.failed_ids) == {"t-incompat", "t-unbiased"}

    def test_t3_witnesses_name_the_culprits(self, corpus):
        ws = corpus["example_d"]
        nodes, edges = _block(ws, 2)
        report = check_tree(ws.structure, nodes, edges)
        assert "?O5" in report["t-incompat"].witness
        assert "Sb" in report["t-incompat"].witness

    def test_oracle_agrees_on_all_blocks(self, corpus):
        ws = corpus["example_d"]
        s = ws.structure
        for i in range(3):
            nodes, edges = _block(ws, i)
            report = check_tree(s, nodes, edges)
            assert set(report.failed_ids) == oracles.check_tree_oracle(
                s.states, s.root, s.relation, nodes, edges)

    def test_enumeration_finds_eight_trees_including_t1(self, corpus):
        ws = corpus["example_d"]
        s = ws.structure
        found = find_trees(s)
        assert len(found) == 8
        pairs = {(frozenset(t.nodes),
                  frozenset((x, t.parent[x]) for x in t.nodes
                            if x != s.root))
                 for t in found}
        t1, t2 = ws.trees[0], ws.trees[1]
        assert (frozenset(t1.nodes), frozenset(t1.edges)) in pairs
        # T2's own edge set hangs Ge under ??, which the ambient order
        # does not support; its node set only recurs with Ge re-attached
        # to the root
        assert (frozenset(t2.nodes), frozenset(t2.edges)) not in pairs
        assert any(nodes == frozenset(t2.nodes) and
                   ("Ge", "nothing") in edges
                   for nodes, edges in pairs)
        oracle = oracles.enumerate_trees_oracle(s.states, s.root, s.relation)
        assert {(frozenset(n), frozenset(e)) for n, e in oracle} == pairs

    def test_max_count_truncates(self, corpus):
        s = corpus["example_d"].structure
        assert len(find_trees(s, max_count=3)) == 3

    @pytest.mark.parametrize("bound", [0, -1])
    def test_max_count_below_one_rejected(self, corpus, bound):
        with pytest.raises(ValueError, match="max_count"):
            find_trees(corpus["example_d"].structure, max_count=bound)


def test_example_j_has_no_tree(corpus):
    s = corpus["example_j"].structure
    assert find_trees(s) == ()
    assert oracles.enumerate_trees_oracle(s.states, s.root,
                                          s.relation) == []


class TestT2AsItsOwnStructure:
    """The T2 node set is a tree in itself even though it is not one in
    the bundled ambient."""

    @pytest.fixture()
    def t2(self, corpus):
        ws = corpus["example_d"]
        nodes, edges = _block(ws, 1)
        sub = EStructure.from_generators(nodes, "nothing", edges)
        return build_tree(sub, nodes, edges)

    def test_it_is_a_valid_tree_and_structure(self, t2):
        assert check_axioms(t2.ambient).passed
        report = check_tree(t2.ambient, t2.nodes, t2.parent.items())
        assert report.passed

    def test_atoms(self, t2):
        assert t2.canonical.labels == ("AsO5", "SbO5", "Sb?", "Ge", "As?")

    def test_rank_and_depth(self, t2):
        assert t2.rank_in_tree["AsO5"] == 2
        assert t2.depth == 2

    def test_branches(self, t2):
        assert [(b.nodes, b.atom) for b in t2.branches] == [
            (("nothing", "?O5", "AsO5"), 0),
            (("nothing", "?O5", "SbO5"), 1),
            (("nothing", "??", "Sb?"), 2),
            (("nothing", "??", "Ge"), 3),
            (("nothing", "??", "As?"), 4),
        ]

    def test_partition_sequence(self, t2):
        seq = partitions(t2)
        stages = [set(map(frozenset, stage)) for stage in seq.blocks]
        assert stages[0] == {frozenset({0, 1, 2, 3, 4})}
        assert stages[1] == {frozenset({0, 1}), frozenset({2, 3, 4})}
        assert stages[2] == {frozenset({i}) for i in range(5)}
        assert seq.is_refinement_chain

    def test_partitions_match_oracle(self, t2):
        _, oracle_seq = oracles.partitions_oracle(
            t2.nodes, t2.as_estructure.relation, "nothing")
        assert [set(map(frozenset, stage)) for stage in seq_blocks(t2)] == [
            set(stage) for stage in oracle_seq]

    def test_decompose_complement_is_greedy_shallowest(self, t2):
        element = frozenset(range(5)) - t2.canonical.events["AsO5"]
        assert decompose_field_element(t2, element) == ("??", "SbO5")

    def test_all_decompositions_via_oracle(self, t2):
        element = frozenset({1, 2, 3, 4})
        oracle = oracles.decompositions_oracle(
            t2.nodes, t2.as_estructure.relation, element)
        assert set(oracle) == {frozenset({"??", "SbO5"}),
                               frozenset({"As?", "Ge", "Sb?", "SbO5"})}
        mine = decompose_field_element(t2, element)
        assert frozenset(mine) in set(oracle)

    def test_decompose_rejects_unknown_points(self, t2):
        with pytest.raises(TreeError):
            decompose_field_element(t2, frozenset({0, 99}))


def seq_blocks(tree):
    return partitions(tree).blocks


class TestT1AsItsOwnStructure:
    @pytest.fixture()
    def t1(self, corpus):
        ws = corpus["example_d"]
        nodes, edges = _block(ws, 0)
        sub = EStructure.from_generators(nodes, "nothing", edges)
        return build_tree(sub, nodes, edges)

    def test_atoms_and_branches(self, t1):
        assert t1.canonical.labels == ("As", "Sb", "Ge")
        assert len(t1.branches) == 3

    def test_decompose_union_of_two_leaves(self, t1):
        element = (t1.canonical.events["Ge"] | t1.canonical.events["As"])
        assert decompose_field_element(t1, element) == ("As", "Ge")


def test_coin_toss_depth_two():
    nodes = ["e", "H", "T", "HH", "HT", "TH", "TT"]
    edges = [("H", "e"), ("T", "e"), ("HH", "H"), ("HT", "H"),
             ("TH", "T"), ("TT", "T")]
    s = EStructure.from_generators(nodes, "e", edges)
    assert check_axioms(s).passed
    t = build_tree(s, nodes, edges)
    assert t.rank_in_tree["HT"] == 2
    seq = partitions(t)
    assert [len(stage) for stage in seq.blocks] == [1, 2, 4]


class TestGraphChecks:
    def test_disconnected(self):
        report = check_graph_tree(["r", "a", "b"], [("a", "r")], "r")
        assert not report.connected
        assert not report.is_tree

    def test_cycle(self):
        report = check_graph_tree(
            ["r", "a", "b"], [("a", "b"), ("b", "a")], "r")
        assert not report.acyclic
        assert report.witness

    def test_double_parent(self):
        report = check_graph_tree(
            ["r", "a", "b"], [("a", "r"), ("b", "r"), ("b", "a")], "r")
        assert not report.single_parent

    def test_proper_tree(self):
        report = check_graph_tree(["r", "a", "b"],
                                  [("a", "r"), ("b", "r")], "r")
        assert report.is_tree


def test_lopsided_subtree_fails_branching_and_unbiased():
    """Keeping only one of two incompatible outcomes is exactly what the
    unbiasedness condition forbids."""
    s = EStructure.from_generators(
        ["r", "a", "b"], "r", [("a", "r"), ("b", "r")])
    report = check_tree(s, ["r", "a"], [("a", "r")])
    assert set(report.failed_ids) == {"t-branching", "t-unbiased"}


def test_build_tree_raises_with_condition_ids():
    s = EStructure.from_generators(
        ["r", "a", "b"], "r", [("a", "r"), ("b", "r")])
    with pytest.raises(TreeError, match="t-branching"):
        build_tree(s, ["r", "a"], [("a", "r")])


def test_check_tree_rejects_unknown_nodes(corpus):
    s = corpus["example_j"].structure
    with pytest.raises(TreeError, match="zzz"):
        check_tree(s, ["h0t0", "zzz"], [("zzz", "h0t0")])


def test_tree_helpers(corpus):
    ws = corpus["example_d"]
    nodes, edges = _block(ws, 0)
    t = build_tree(ws.structure, nodes, edges)
    assert t.root == "nothing"
    assert t.path_to_root("Ge") == ("nothing", "Ge")
    assert t.children["nothing"] == ("As", "Sb", "Ge")
    assert set(t.leaves) == {"As", "Sb", "Ge"}
    assert ("Ge", "nothing") in t.order


class TestRandomizedTrees:
    def test_splitting_trees_always_pass_all_conditions(self):
        rng = random.Random(777)
        for _ in range(60):
            t = splitting_tree(rng, max_nodes=25)
            s = t.ambient
            report = check_tree(s, t.nodes, t.parent.items())
            assert report.passed
            assert not oracles.check_tree_oracle(
                s.states, s.root, s.relation, t.nodes,
                set(t.parent.items()))

    def test_trees_are_estructures(self):
        rng = random.Random(888)
        for _ in range(40):
            t = splitting_tree(rng, max_nodes=20)
            assert check_axioms(t.as_estructure).passed

    def test_rank_in_tree_matches_oracle(self):
        rng = random.Random(999)
        for _ in range(40):
            t = splitting_tree(rng, max_nodes=25)
            own = t.as_estructure
            assert t.rank_in_tree == oracles.rank_oracle(
                own.states, "n0", own.relation)

    def test_children_events_partition_parent_event(self):
        """Within the ambient canonical space, the immediate subtrees of
        any internal node split its event without loss or overlap."""
        rng = random.Random(1212)
        for _ in range(40):
            t = splitting_tree(rng, max_nodes=25)
            events = build_canonical(t.ambient).events
            for x in t.nodes:
                kids = t.children[x]
                if not kids:
                    continue
                union = frozenset()
                for k in kids:
                    assert not (events[k] & union)
                    union |= events[k]
                assert union == events[x]

    def test_partition_sequences_refine_and_stabilize(self):
        rng = random.Random(1313)
        for _ in range(40):
            t = splitting_tree(rng, max_nodes=25)
            seq = partitions(t)
            assert seq.is_refinement_chain
            n_atoms = len(t.canonical.atoms)
            assert set(map(frozenset, seq.blocks[0])) == {
                frozenset(range(n_atoms))}
            assert set(map(frozenset, seq.blocks[-1])) == {
                frozenset({i}) for i in range(n_atoms)}
            _, oracle_seq = oracles.partitions_oracle(
                t.nodes, t.as_estructure.relation, "n0")
            assert [set(map(frozenset, st)) for st in seq.blocks] == [
                set(st) for st in oracle_seq]

    def test_every_field_element_decomposes_uniquely_maximal(self):
        rng = random.Random(1414)
        for _ in range(25):
            t = splitting_tree(rng, max_nodes=12)
            n_atoms = len(t.canonical.atoms)
            universe = frozenset(range(n_atoms))
            sample = [frozenset(i for i in universe if rng.random() < 0.5)
                      for _ in range(8)]
            for element in sample:
                if not element:
                    continue
                blocks = decompose_field_element(t, element)
                evs = [t.canonical.events[b] for b in blocks]
                union = frozenset().union(*evs) if evs else frozenset()
                assert union == element
                assert sum(len(e) for e in evs) == len(element)
                oracle = oracles.decompositions_oracle(
                    t.nodes, t.as_estructure.relation, element)
                assert frozenset(blocks) in set(oracle)
                # the greedy answer uses the fewest blocks of any
                # decomposition, the laminar-family maximal choice
                assert len(blocks) == min(len(o) for o in oracle)

    def test_find_trees_rediscovers_the_tree_in_itself(self):
        rng = random.Random(1515)
        for _ in range(10):
            t = splitting_tree(rng, max_nodes=9)
            own = t.as_estructure
            found = find_trees(own)
            node_sets = [frozenset(f.nodes) for f in found]
            assert frozenset(t.nodes) in node_sets
