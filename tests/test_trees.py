"""Tree conditions, enumeration, partitions, and event decomposition."""
from __future__ import annotations

import copy
import dataclasses
import gc
import pickle
import random
import weakref
from collections import Counter

import pytest

import oracles
from conftest import consistent_plan, splitting_tree, subset_family_structure
from evistruct import (FIXTURES, TREE_CONDITION_IDS, EStructure,
                       ExperimentationTree, TreeError, as_tree, build_tree,
                       build_canonical, check_axioms, check_graph_tree,
                       check_tree, construct_sceu, decide_rationalizable,
                       decompose_field_element, derive_relations,
                       find_trees, parse_workspace, partitions,
                       verify_rationalization)
from evistruct import feasibility, rationalize, structure, trees
from evistruct.trees import _check_tree


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

    @pytest.mark.parametrize("bound, named", [
        (2.5, "2.5"), ("3", "'3'"), (True, "True")],
        ids=["float", "str", "bool"])
    def test_max_count_that_is_no_int_rejected(self, corpus, bound, named):
        with pytest.raises(ValueError,
                           match=f"^max_count must be an int, not {named}$"):
            find_trees(corpus["example_d"].structure, max_count=bound)


def _node_edge_lists(s, trees):
    return [(t.nodes, tuple([(x, t.parent[x]) for x in t.nodes
                             if x != s.root])) for t in trees]


def test_find_trees_matches_the_subset_search():
    """Growth from the root finds what the brute-force subset search
    finds, in its order, and a max_count bound takes a prefix. Structures
    stay at 10 states or fewer, where the search takes well under a
    second each."""
    rng = random.Random(2024)
    families = [subset_family_structure(rng, max_universe=4)
                for _ in range(150)]
    structures = [s for s in families if len(s.states) <= 10]
    structures += [splitting_tree(rng, max_nodes=10).ambient
                   for _ in range(30)]
    twins_with_trees = several = 0
    for s in structures:
        found = find_trees(s)
        listed = _node_edge_lists(s, found)
        assert listed == oracles.find_trees_by_subsets(
            s.states, s.root, s.relation,
            lambda nodes, edges: check_tree(s, nodes, edges).passed)
        oracle = oracles.enumerate_trees_oracle(s.states, s.root, s.relation)
        assert ({(frozenset(n), frozenset(e)) for n, e in listed}
                == {(frozenset(n), e) for n, e in oracle})
        for m in range(1, len(found) + 2):
            assert find_trees(s, max_count=m) == found[:m]
        # one tree per node set, so parent choices never decide the order
        assert len({t.nodes for t in found}) == len(found)
        twins_with_trees += bool(found) and bool(
            oracles.eqs_pairs(s.relation) - {(x, x) for x in s.states})
        several += len(found) > 2
    # the draws reach trees among equivalence twins and several trees
    assert twins_with_trees > 0 and several > 5


def _oracle_passes(s):
    return lambda nodes, edges: not oracles.check_tree_oracle(
        s.states, s.root, s.relation, nodes, edges)


@pytest.mark.parametrize("kind", ["splitting", "families", "twins"])
def test_find_trees_against_the_subset_search_at_size(kind):
    """The child sets stop early (a state with fewer than two immediate
    refinements, an empty need, a branch past a forced kid), so growth
    is refereed by the brute-force subset search with the oracle's
    check, on 10-, 12- and 14-node splitting trees and on subset
    families with and without twins. Order and trees match, and each
    tree keeps the top-down order its check read: every node after its
    parent, as a fresh read of the shape gives it."""
    rng = random.Random(2710)
    if kind == "splitting":
        structures = []
        for size in (10, 12, 14):
            for _ in range(2):
                t = splitting_tree(rng, max_nodes=size, min_nodes=size)
                while len(t.nodes) != size:
                    t = splitting_tree(rng, max_nodes=size, min_nodes=size)
                structures.append(t.ambient)
    else:
        dup_prob = 0.0 if kind == "families" else 0.6
        structures = [s for s in (subset_family_structure(
            rng, max_universe=4, dup_prob=dup_prob) for _ in range(60))
            if len(s.states) <= 10]
    grown = 0
    for s in structures:
        found = find_trees(s)
        assert _node_edge_lists(s, found) == oracles.find_trees_by_subsets(
            s.states, s.root, s.relation, _oracle_passes(s))
        for t in found:
            top_down = t.__dict__["_top_down"]
            assert top_down == dataclasses.replace(t)._top_down
            place = {x: i for i, x in enumerate(top_down)}
            assert sorted(top_down) == sorted(t.nodes)
            assert all(place[t.parent[x]] < place[x] for x in t.parent)
        grown += len(found)
    assert grown > 20


def test_example_j_has_no_tree(corpus):
    s = corpus["example_j"].structure
    assert find_trees(s) == ()
    assert oracles.enumerate_trees_oracle(s.states, s.root,
                                          s.relation) == []


@pytest.mark.parametrize("bound", [None, 1])
def test_a_root_that_is_no_state_has_no_tree(bound):
    """No tree satisfies t-root when the root is none of the states."""
    s = EStructure(("a", "b"), "r", frozenset({("a", "a"), ("b", "b")}))
    assert find_trees(s, max_count=bound) == ()


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
        assert [b.leaf for b in t2.branches] == [
            "AsO5", "SbO5", "Sb?", "Ge", "As?"]

    def test_partition_sequence(self, t2):
        seq = partitions(t2)
        assert seq.stages == 3
        stages = [set(map(frozenset, stage)) for stage in seq.blocks]
        assert stages[0] == {frozenset({0, 1, 2, 3, 4})}
        assert stages[1] == {frozenset({0, 1}), frozenset({2, 3, 4})}
        assert stages[2] == {frozenset({i}) for i in range(5)}
        assert seq.is_refinement_chain()

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

    def test_decompose_rejects_unhashable_points(self, t2):
        with pytest.raises(TreeError,
                           match="^element mentions unknown sample points$"):
            decompose_field_element(t2, [[0]])


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

    def test_edge_to_a_non_node(self):
        with pytest.raises(TreeError,
                           match=r"edge \('x', 'r'\) mentions a non-node"):
            check_graph_tree(["r"], [("x", "r")], "r")
        with pytest.raises(TreeError, match="mentions a non-node"):
            check_graph_tree(["r", "a"], [("a", "y")], "r")

    def test_duplicate_node(self):
        with pytest.raises(TreeError, match="duplicate tree node 'a'"):
            check_graph_tree(["r", "a", "a"], [("a", "r")], "r")

    def test_unhashable_root(self):
        """A root that is not hashable is named after any node fault; a
        hashable root that is no node fails the report."""
        with pytest.raises(TreeError,
                           match=r"^tree root \['r'\] is not hashable$"):
            check_graph_tree(["r"], [], ["r"])
        with pytest.raises(TreeError, match="duplicate tree node 'r'"):
            check_graph_tree(["r", "r"], [], ["r"])
        assert not check_graph_tree(["r", "a"], [("a", "r")], "x").is_tree


@pytest.mark.parametrize("nodes, edges, message, graph_message", [
    pytest.param(["nothing", "As"], [("As",)],
                 r"^edge \('As',\) is not a \(child, parent\) pair$", None,
                 id="one-tuple-edge"),
    pytest.param(["nothing", "As"], [("As", "nothing", "Sb")],
                 r"^edge \('As', 'nothing', 'Sb'\) is not a \(child, parent\)",
                 None, id="three-tuple-edge"),
    pytest.param(["nothing", "As"], ["As"],
                 r"^edge 'As' is not a \(child, parent\) pair$", None,
                 id="bare-string-edge"),
    pytest.param(["nothing", ["As"]], [],
                 r"^tree node \['As'\] is not a state$", None, id="list-node"),
    pytest.param(["nothing", "zz"], [("As",)],
                 r"^tree node 'zz' is not a state$",
                 r"^edge \('As',\) is not a \(child, parent\) pair$",
                 id="non-state-then-malformed-edge"),
    pytest.param(["nothing", "As", "As"], [("zz", "nothing")],
                 r"^duplicate tree node 'As'$", None,
                 id="duplicate-then-edge-to-non-node"),
    pytest.param(["nothing", ["As"], "zz"], [("As",)],
                 r"^tree node \['As'\] is not a state$", None,
                 id="unhashable-then-non-state"),
    pytest.param(["nothing", "As"], [("zz", "nothing"), ("As",)],
                 r"^edge \('zz', 'nothing'\) mentions a non-node$", None,
                 id="edge-to-non-node-then-malformed-edge"),
])
def test_malformed_tree_input_is_named_as_given(corpus, nodes, edges,
                                                message, graph_message):
    """Input that is not a list of nodes and a list of (child, parent)
    pairs raises TreeError in each public wrapper, naming the edge or
    node as it was given, not a Python error about unpacking or
    hashing. The one tree-input check scans the nodes, then the edges,
    and names the first fault it meets, whatever its kind: check_tree
    and build_tree with the states as known nodes, check_graph_tree
    (graph_message, when it differs) with any hashable node allowed."""
    s = corpus["example_d"].structure
    for call, expected in (
            (lambda: check_tree(s, nodes, edges), message),
            (lambda: build_tree(s, nodes, edges), message),
            (lambda: check_graph_tree(nodes, edges, s.root),
             graph_message or message)):
        with pytest.raises(TreeError, match=expected):
            call()


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda s: check_tree(s, 5, []),
                 r"^tree nodes 5 are not a collection$",
                 id="check_tree-nodes"),
    pytest.param(lambda s: check_tree(s, ["r", "a"], 7),
                 r"^tree edges 7 are not a collection$",
                 id="check_tree-edges"),
    pytest.param(lambda s: check_graph_tree(["r"], 7, "r"),
                 r"^tree edges 7 are not a collection$",
                 id="check_graph_tree-edges"),
    pytest.param(lambda s: build_tree(s, None, []),
                 r"^tree nodes None are not a collection$",
                 id="build_tree-nodes"),
    pytest.param(lambda s: ExperimentationTree(s, None, {}).children,
                 r"^parent map is not a tree of two or more nodes$",
                 id="view-nodes"),
])
def test_tree_input_that_is_no_collection_raises_tree_error(call, message):
    """Nodes or edges that are not collections at all raise TreeError
    naming the argument, not Python's error about iteration; a tree's
    views, which read their input through the same check, raise their
    one message for a parent map that is not a tree."""
    s = EStructure.from_generators(["r", "a", "b"], "r",
                                   [("a", "r"), ("b", "r")])
    with pytest.raises(TreeError, match=message):
        call(s)


def test_list_pairs_read_as_tuples_and_the_search_skips_the_input_check(
        corpus, monkeypatch):
    """A (child, parent) pair may be a list. Every tree entry and view
    that reads caller input reads it through the one check once:
    check_tree, build_tree, check_graph_tree, partitions and the first
    view of a dataclasses.replace copy. as_tree and find_trees hand the
    structure's own indices to the kernel and never call it."""
    ws = corpus["example_d"]
    s, (nodes, edges) = ws.structure, _block(ws, 0)
    assert check_tree(s, nodes, [list(e) for e in edges]) == check_tree(
        s, nodes, edges)
    spanning = splitting_tree(random.Random(3), max_nodes=9).ambient
    t = build_tree(s, nodes, edges)
    calls = []
    given = trees._given
    monkeypatch.setattr(trees, "_given",
                        lambda *args: calls.append(1) or given(*args))

    def count(call):
        calls.clear()
        call()
        return len(calls)

    assert [count(call) for call in (
        lambda: check_tree(s, nodes, edges),
        lambda: build_tree(s, nodes, edges),
        lambda: check_graph_tree(nodes, edges, s.root),
        lambda: as_tree(spanning),
        lambda: partitions(t),
        lambda: dataclasses.replace(t).children,
    )] == [1, 1, 1, 0, 1, 1]
    assert count(lambda: find_trees(s)) == 0 and len(find_trees(s)) == 8


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


def _views_by_parent_map(t):
    """children, leaves, rank_in_tree, depth, each path_to_root and the
    branches' node lists, read off the parent map alone."""
    kids = {x: [] for x in t.nodes}
    for x in t.nodes:
        if x in t.parent:
            kids[t.parent[x]].append(x)
    paths = {}
    for x in t.nodes:
        path = [x]
        while path[-1] != t.root:
            path.append(t.parent[path[-1]])
        paths[x] = tuple(reversed(path))
    rank = {x: len(paths[x]) - 1 for x in t.nodes}
    return ({x: tuple(k) for x, k in kids.items()},
            tuple([x for x in t.nodes if not kids[x]]), rank,
            max(rank.values()), paths,
            sorted(oracles.branches_oracle(t.nodes, t.parent, t.root)))


def _views(t):
    return (dict(t.children), t.leaves, t.rank_in_tree, t.depth,
            {x: t.path_to_root(x) for x in t.nodes},
            sorted([b.nodes for b in t.branches]))


def test_tree_views_equal_parent_map_references(corpus):
    """Every view a tree reads off its own structure equals the one read
    off its parent map: on spanning splitting trees, whose children are
    their structure's immediate refinements themselves, on trees that
    find_trees finds inside subset families, and on example_d's block 0
    with its nodes declared root last. Ranks are keyed in node order,
    and each branch's atom is its leaf's."""
    rng = random.Random(2828)
    spanning = [splitting_tree(rng, max_nodes=30) for _ in range(20)]
    contained = [t for _ in range(40) for t in find_trees(
        subset_family_structure(rng, max_universe=4), max_count=3)]
    ws = corpus["example_d"]
    nodes, edges = _block(ws, 0)
    reversed_root_last = build_tree(ws.structure, nodes[::-1], edges)
    assert reversed_root_last.nodes[-1] == ws.structure.root
    for t in spanning:
        assert t.children is t.ambient.derived.immed_sets
    assert sum(t.as_estructure is not t.ambient for t in contained) > 10
    for t in [*spanning, *contained, reversed_root_last]:
        assert _views(t) == _views_by_parent_map(t)
        assert list(t.rank_in_tree) == list(t.nodes)
        assert all(t.canonical.atoms[b.atom] == (b.leaf,)
                   for b in t.branches)
    assert reversed_root_last.children["nothing"] == ("Ge", "Sb", "As")


class TestAsTree:
    """A whole structure read as a tree through its immediate-refinement
    pairs."""

    def test_splitting_trees_read_back(self):
        rng = random.Random(31)
        for _ in range(10):
            t = splitting_tree(rng, max_nodes=20)
            read = as_tree(t.ambient)
            assert (read.nodes, read.parent) == (t.nodes, t.parent)
            # a tree spanning its structure is that structure
            assert read.as_estructure is t.ambient

    @pytest.mark.parametrize("stem,message", [
        ("example_r", "state 'z4' has 3 immediate predecessors, so the "
                      "structure is not itself a tree"),
        ("example_t", "state 'z3' has 2 immediate predecessors, so the "
                      "structure is not itself a tree"),
    ])
    def test_structures_with_shared_refinements_rejected(self, corpus, stem,
                                                         message):
        with pytest.raises(TreeError) as info:
            as_tree(corpus[stem].structure)
        assert str(info.value) == message

    def test_chain_fails_branching(self):
        s = EStructure.from_generators(["r", "a", "b"], "r",
                                       [("a", "r"), ("b", "a")])
        with pytest.raises(TreeError, match="t-branching"):
            as_tree(s)

    def test_built_spanning_tree_is_the_one_as_tree_reads(self):
        """build_tree on all of a structure's states gives the tree as_tree
        reads, on the structure and on a fresh copy of it, whatever the
        edge order, with the same top-down order."""
        rng = random.Random(1606)
        for _ in range(40):
            s = splitting_tree(rng, max_nodes=40, min_nodes=6).ambient
            s = EStructure(s.states, s.root, s.relation)
            edges = [(x, p) for x in reversed(s.states)
                     for p in s.derived.parents[x]]
            t = build_tree(s, s.states, edges)
            read = as_tree(EStructure(s.states, s.root, s.relation))
            assert t == read and t._top_down == read._top_down
            assert as_tree(s) == t

    @staticmethod
    def named(s):
        """as_tree by names, the reference: the same predecessor check,
        then build_tree on the named (state, parent) edges."""
        parents = s.derived.parents
        others = [x for x in s.states if x != s.root]
        for x in others:
            if len(parents[x]) != 1:
                raise TreeError(
                    f"state {x!r} has {len(parents[x])} immediate "
                    f"predecessors, so the structure is not itself a tree")
        return build_tree(s, s.states, [(x, parents[x][0]) for x in others])

    @staticmethod
    def outcome(read, s):
        """A tree with its top-down order and whether its own structure
        is s, or the TreeError text (a StructureError's, for a repeated
        state that reading the relation rejects)."""
        try:
            t = read(s)
        except structure.StructureError as exc:
            return str(exc)
        return t, t.nodes, dict(t.parent), t._top_down, t.as_estructure is s

    def test_index_route_matches_the_named_route(self):
        """as_tree hands the structure's own indices to the kernel; on
        seeded inputs it gives the tree or the TreeError text that
        build_tree gives on the named parent edges: splitting trees of up
        to 160 nodes, declared in order and shuffled, with twins added (a
        state with no or several immediate predecessors), subset
        families, chains, and hand-built relations that are not closed,
        whose t-order fails."""
        rng = random.Random(3303)
        pool = []
        for i in range(60):
            tree = splitting_tree(rng, max_nodes=160 if i % 4 == 0 else 30)
            s = tree.ambient
            tail = list(s.states[1:])
            rng.shuffle(tail)
            shuffled = EStructure.from_generators(
                [s.root, *tail], s.root, tuple(tree.parent.items()))
            twins = [x for x in s.states[1:] if rng.random() < 0.2]
            twinned = EStructure.from_generators(
                s.states + tuple([x + "q" for x in twins]), s.root,
                [*tree.parent.items(),
                 *[p for x in twins for p in ((x + "q", x), (x, x + "q"))]])
            open_relation = EStructure(s.states, s.root, frozenset(
                [(x, x) for x in s.states] + list(tree.parent.items())))
            pool += [s, shuffled, twinned, open_relation,
                     subset_family_structure(rng, max_universe=4)]
        pool.append(EStructure.from_generators(
            ["r", "a", "b"], "r", [("a", "r"), ("b", "a")]))
        # hand-built: a cycle of single predecessors that misses the
        # root (the closure route), a state below nothing, a root that
        # is no state, a twin of the root, a repeated state
        pool += [EStructure(states, root, frozenset(
            [(x, x) for x in states] + pairs)) for states, root, pairs in [
                (("r", "a", "b", "c"), "r",
                 [("a", "b"), ("b", "c"), ("c", "a")]),
                (("r", "a", "b", "lone"), "r", [("a", "r"), ("b", "r")]),
                (("r", "a", "b"), "zz", [("a", "r"), ("b", "r")]),
                (("r", "rq", "a", "b"), "r",
                 [("rq", "r"), ("r", "rq"), ("a", "r"), ("b", "r"),
                  ("a", "rq"), ("b", "rq")]),
                (("r", "a", "a", "b"), "r", [("a", "r"), ("b", "r")])]]
        texts = Counter()
        for s in pool:
            want = self.outcome(self.named, s)
            assert self.outcome(as_tree, s) == want
            if isinstance(want, str):
                texts[want.split(" ")[0]] += 1
                texts["t-order"] += "t-order" in want
            else:
                texts["passed"] += 1
                assert want[-1]  # a spanning tree's own structure is s
        assert texts["state"] > 20 and texts["tree"] >= 60
        assert texts["t-order"] >= 50 and texts["passed"] >= 120
        assert texts["duplicate"] == 1

    def test_each_as_tree_call_checks_its_tree(self, monkeypatch):
        """The structure keeps no tree: each as_tree call checks the
        seven conditions once, in the kernel, and returns a new tree,
        equal to the last and sharing the structure's canonical space."""
        s = splitting_tree(random.Random(3), min_nodes=8).ambient
        s = EStructure(s.states, s.root, s.relation)
        calls = []
        verdict = trees._tree_verdict
        monkeypatch.setattr(trees, "_tree_verdict",
                            lambda *args: calls.append(1)
                            or verdict(*args))
        t = as_tree(s)
        assert len(calls) == 1
        again = as_tree(s)
        assert again == t and again is not t and len(calls) == 2
        assert again.canonical is t.canonical is s.canonical
        assert again == as_tree(EStructure(s.states, s.root, s.relation))
        assert len(calls) == 3

    def test_structure_and_tree_free_without_the_cycle_collector(self):
        """A structure, a tree build_tree made on it and the tree as_tree
        reads form no reference cycle: with the cycle collector off,
        dropping them frees all three."""
        s = splitting_tree(random.Random(4), min_nodes=8).ambient
        s = EStructure(s.states, s.root, s.relation)
        t = build_tree(s, s.states, [(x, p) for x in s.states
                                     for p in s.derived.parents[x]])
        read = as_tree(s)
        assert read == t and read.canonical is t.canonical is s.canonical
        gone = [weakref.ref(o) for o in (s, t, read)]
        gc.disable()
        try:
            del s, t, read
            assert [ref() for ref in gone] == [None] * 3
        finally:
            gc.enable()

    def test_trees_and_their_structures_pickle(self):
        s = splitting_tree(random.Random(8), min_nodes=8).ambient
        t = as_tree(s)
        for copied in (pickle.loads(pickle.dumps(t)), copy.deepcopy(t)):
            assert copied == t and copied.canonical == t.canonical
            assert as_tree(copied.ambient) == copied
            with pytest.raises(TypeError):
                copied.parent[t.nodes[1]] = t.root
            with pytest.raises(TypeError):
                del copied.parent[t.nodes[1]]

    def test_checked_trees_wrap_their_fresh_parent_map(self, corpus,
                                                       monkeypatch):
        """A tree a check accepts (build_tree, as_tree, find_trees) wraps
        the parent map the check built, with no second copy: it equals,
        reprs and pickles as the tree the public constructor makes from a
        copy of that map, and its map is as read-only. The constructor,
        a pickle's load and dataclasses.replace still copy."""
        copies = []
        post_init = ExperimentationTree.__post_init__
        monkeypatch.setattr(ExperimentationTree, "__post_init__",
                            lambda self: copies.append(1) or post_init(self))
        ws = corpus["example_d"]
        s = splitting_tree(random.Random(9), min_nodes=8).ambient
        s = EStructure(s.states, s.root, s.relation)
        checked = [build_tree(ws.structure, *_block(ws, 0)), as_tree(s),
                   *find_trees(ws.structure)]
        assert copies == [] and len(checked) > 2
        for t in checked:
            made = ExperimentationTree(t.ambient, t.nodes, dict(t.parent))
            assert type(t.parent) is type(made.parent)
            assert t == made and repr(t) == repr(made)
            assert pickle.loads(pickle.dumps(t)) == made
            with pytest.raises(TypeError):
                t.parent[t.nodes[-1]] = t.root
            with pytest.raises(TypeError):
                del t.parent[t.nodes[-1]]
            edited = dataclasses.replace(t, parent=dict(t.parent))
            assert edited == t and edited.parent is not t.parent
        # per tree: the constructor, the pickle's load and the replace
        assert len(copies) == 3 * len(checked)

    def test_contained_tree_seeds_nothing(self, corpus):
        ws = corpus["example_d"]
        fresh = EStructure(ws.structure.states, ws.structure.root,
                           ws.structure.relation)
        with pytest.raises(TreeError) as expected:
            as_tree(fresh)
        build_tree(ws.structure, *_block(ws, 0))
        with pytest.raises(TreeError) as info:
            as_tree(ws.structure)
        assert str(info.value) == str(expected.value)

    def test_contained_tree_keeps_its_own_structure(self, corpus):
        ws = corpus["example_d"]
        t = build_tree(ws.structure, *_block(ws, 0))
        assert t.as_estructure is not ws.structure
        assert t.as_estructure.states == t.nodes

    def test_contained_trees_seed_their_relations(self, corpus):
        """A contained tree's structure holds the relations read off the
        rows its top-down pass built, equal to what derive_relations
        reads off its relation, and its order is the closure of its
        edges."""
        rng = random.Random(2712)
        ws = corpus["example_d"]
        contained = [build_tree(ws.structure, *_block(ws, 0))]
        for _ in range(30):
            s = subset_family_structure(rng, max_universe=4)
            contained += [t for t in find_trees(s) if t.nodes != s.states]
        assert len(contained) > 20
        for t in contained:
            own = t.as_estructure
            assert "derived" in own.__dict__
            assert own.relation == oracles.closure(t.nodes, t.parent.items())
            fresh = EStructure(own.states, own.root, own.relation)
            assert own.derived == derive_relations(fresh)


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

    def test_random_candidates_match_oracle(self):
        """Arbitrary candidates over random subset families: node sets
        that may miss the root, edges that form cycles, give a node two
        parents or skip a level. Every verdict matches the oracle."""
        rng = random.Random(2468)
        failed: set[str] = set()
        passed = 0
        for _ in range(200):
            s = subset_family_structure(rng, max_universe=4)
            immms = oracles.immms_pairs(s.states, s.relation)
            nodes = [x for x in s.states
                     if rng.random() < (0.9 if x == s.root else 0.6)]
            edges = set()
            for x in nodes:
                ups = [p for p in nodes if (x, p) in immms]
                if ups and rng.random() < 0.8:
                    edges.add((x, rng.choice(ups)))
                if rng.random() < 0.2:
                    edges.add((x, rng.choice(nodes)))
            report = check_tree(s, nodes, edges)
            assert set(report.failed_ids) == oracles.check_tree_oracle(
                s.states, s.root, s.relation, nodes, edges)
            failed.update(report.failed_ids)
            passed += report.passed
        # the loop reached every condition and some passing candidates
        assert failed == set(TREE_CONDITION_IDS)
        assert passed > 0

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
            assert seq.is_refinement_chain()
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

    def test_forty_node_splitting_tree_has_every_pruning(self):
        """Out of reach of the subset search (2^39 node subsets)."""
        rng = random.Random(4040)
        t = splitting_tree(rng, min_nodes=40)
        while len(t.nodes) != 40:
            t = splitting_tree(rng, min_nodes=40)
        s = t.ambient
        assert len(find_trees(s)) == oracles.pruning_count(
            s.states, s.root, s.relation) - 1

    def test_find_trees_rediscovers_the_tree_in_itself(self):
        rng = random.Random(1515)
        for _ in range(10):
            t = splitting_tree(rng, max_nodes=9)
            own = t.as_estructure
            found = find_trees(own)
            node_sets = [frozenset(f.nodes) for f in found]
            assert frozenset(t.nodes) in node_sets


def _variants(rng, s, nodes, edges):
    """Edge lists around one tree (nodes, edges) of s: as given; with the
    nodes shuffled and the edges reversed; with two nodes moved under
    other nodes, still a tree; with a redundant transitive edge; with a
    second parent; with a cycle; with a parent for the root; with a node
    dropped; and without the root."""
    root, parent = s.root, dict(edges)
    others = [x for x in nodes if x != root]
    yield nodes, edges
    shuffled = list(nodes)
    rng.shuffle(shuffled)
    yield tuple(shuffled), edges[::-1]

    def above(y, up):
        while y in up:
            y = up[y]
            yield y

    moved = dict(parent)
    for x in rng.sample(others, min(2, len(others))):
        moved[x] = rng.choice([y for y in nodes
                               if y != x and x not in above(y, moved)])
    yield nodes, tuple(moved.items())
    deep = [x for x in others if parent[x] != root]
    if deep:
        x = rng.choice(deep)
        yield nodes, edges + ((x, parent[parent[x]]),)
    x = rng.choice(others)
    yield nodes, edges + ((x, rng.choice([y for y in nodes
                                          if y != parent[x]])),)
    if deep:  # hang x's parent under x
        x = rng.choice(deep)
        yield nodes, tuple([(c, x if c == parent[x] else p)
                            for c, p in edges])
    yield nodes, edges + ((root, rng.choice(others)),)
    x = rng.choice(others)
    yield (tuple([y for y in nodes if y != x]),
           tuple([(c, p) for c, p in edges if x not in (c, p)]))
    yield others, tuple([(c, p) for c, p in edges if p != root])


def _perturbed(rng, s, t):
    """Tree-shaped edits of tree t in s, one each: a wrong parent, a
    non-immediate parent, a sibling clash and a dropped kid."""
    rel, d = s.relation, s.derived
    incompat = oracles.derive_relations_by_sets(s.states, rel)["incompat"]
    parent = dict(t.parent)
    kids = t.children

    def below(x):  # x and its tree descendants
        out = [x]
        for y in out:
            out.extend(kids[y])
        return out

    def edges_of(nodes, up):
        return tuple([(x, up[x]) for x in nodes if x in up])

    others = [x for x in t.nodes if x != s.root]
    x = rng.choice(others)
    wrong = [y for y in t.nodes if (x, y) not in rel and y not in below(x)]
    if wrong:
        yield t.nodes, edges_of(t.nodes, {**parent, x: rng.choice(wrong)})
    deep = [x for x in others if parent[x] != s.root]
    if deep:
        x = rng.choice(deep)
        yield t.nodes, edges_of(t.nodes, {**parent, x: parent[parent[x]]})
    clashes = [(w, z) for z in t.nodes if kids[z] for w in d.immed_sets[z]
               if w not in t.nodes
               and any((w, k) not in incompat for k in kids[z])]
    if clashes:
        w, z = rng.choice(clashes)
        nodes = tuple([y for y in s.states if y in t.nodes or y == w])
        yield nodes, edges_of(nodes, {**parent, w: z})
    wide = [z for z in t.nodes if len(kids[z]) > 1]
    if wide:
        z = rng.choice(wide)
        gone = set(below(rng.choice(kids[z])))
        nodes = tuple([y for y in t.nodes if y not in gone])
        yield nodes, edges_of(nodes, parent)


class TestAgainstPairSetReference:
    """check_tree reads a tree-shaped edge list off its parent map and
    closes any other list; oracles.check_tree_by_pairs closes every list.
    Verdicts and witnesses must agree, a passing check's tree must hang
    each node from the reference's one parent, and a failing check gives
    no tree."""

    @staticmethod
    def compare(s, nodes, edges):
        report, tree = _check_tree(s, tuple(nodes), tuple(edges))
        verdicts, want_parents = oracles.check_tree_by_pairs(
            s.states, s.root, s.relation, nodes, edges)
        assert [(v.condition, v.passed, v.witness)
                for v in report.verdicts] == verdicts
        if report.passed:
            assert dict(tree.parent) == {x: ps[0] for x, ps
                                         in want_parents.items() if ps}
        else:
            assert tree is None
        return report

    def test_seeded_candidates(self):
        rng = random.Random(1111)
        failed: set[str] = set()
        shapes = {True: 0, False: 0}
        passed = 0
        for i in range(90):
            if i % 3:
                t = splitting_tree(rng, max_nodes=16)
            else:  # a tree inside a subset family, maybe among twins
                found = find_trees(subset_family_structure(rng,
                                                           max_universe=4))
                if not found:
                    continue
                t = rng.choice(found)
            s = t.ambient
            edges = tuple([(x, t.parent[x]) for x in t.nodes
                           if x != s.root])
            for nodes, candidate in _variants(rng, s, t.nodes, edges):
                report = self.compare(s, nodes, candidate)
                failed.update(report.failed_ids)
                passed += report.passed
                shapes[check_graph_tree(nodes, candidate, s.root).is_tree] += 1
        assert failed == set(TREE_CONDITION_IDS)
        assert passed > 60 and min(shapes.values()) > 100

    def test_random_candidates_and_corpus_blocks(self, corpus):
        rng = random.Random(2468)
        for _ in range(150):
            s = subset_family_structure(rng, max_universe=4)
            immms = oracles.immms_pairs(s.states, s.relation)
            nodes = [x for x in s.states
                     if rng.random() < (0.9 if x == s.root else 0.6)]
            edges = []
            for x in nodes:
                ups = [p for p in nodes if (x, p) in immms]
                if ups and rng.random() < 0.8:
                    edges.append((x, rng.choice(ups)))
                if rng.random() < 0.2:
                    edges.append((x, rng.choice(nodes)))
            self.compare(s, nodes, edges)
        for ws in corpus.values():
            for block in ws.trees:
                self.compare(ws.structure, block.nodes, block.edges)

    def test_witnesses_at_several_failing_nodes(self):
        """Tree-shaped candidates failing a condition at two or more
        nodes, declared out of name order. t-order and t-immediate name
        the least pair, not the first failing node. t-incompat names the
        first pair at the first failing node: there the third kid is the
        first to meet an earlier one, but the first and fourth kids make
        the first pair, and a later node fails too. Listed with k2 and k3
        first, those two make the first pair."""
        s = EStructure.from_generators(
            ["r", "a", "b", "a1", "a2", "k1", "k2", "k3", "k4", "m14",
             "m23", "p", "q", "pq"], "r",
            [("a", "r"), ("b", "r"), ("a1", "a"), ("a2", "a"),
             *[(k, "b") for k in ("k1", "k2", "k3", "k4")],
             ("m14", "k1"), ("m14", "k4"), ("m23", "k2"), ("m23", "k3"),
             ("p", "k1"), ("q", "k1"), ("pq", "p"), ("pq", "q")])
        nodes = ("r", "a", "b", "a1", "a2", "k1", "k2", "k3", "k4", "p", "q")
        edges = [(x, s.derived.parents[x][0]) for x in nodes[1:]]
        assert check_graph_tree(nodes, edges, s.root).is_tree
        report = self.compare(s, nodes, edges)
        assert report["t-incompat"].witness == ("k1", "k4", "b")
        # the kids in node order, not in declaration order, name the pair
        nodes = ("r", "a", "b", "a1", "a2", "k2", "k3", "k1", "k4", "p", "q")
        report = self.compare(s, nodes, edges)
        assert report["t-incompat"].witness == ("k2", "k3", "b")

        s = EStructure.from_generators(
            ["r", "p", "q", "s1", "s2", "t1", "t2", "w1", "w2"], "r",
            [("p", "r"), ("q", "r"), ("s1", "p"), ("s2", "p"), ("t1", "q"),
             ("t2", "q"), ("w1", "s1"), ("w2", "t1")])
        # s1 under t1 and t2 under p: order and immediacy fail at both
        nodes = ("r", "t2", "q", "p", "t1", "s1", "s2")
        edges = [("q", "r"), ("p", "r"), ("t1", "q"), ("s1", "t1"),
                 ("t2", "p"), ("s2", "p")]
        assert check_graph_tree(nodes, edges, s.root).is_tree
        report = self.compare(s, nodes, edges)
        assert report["t-order"].witness == ("s1", "q")
        assert report["t-immediate"].witness == ("s1", "t1")
        # w1 and w2 each skip a level: immediacy alone fails, at both
        nodes = ("r", "w2", "q", "p", "w1", "s2", "t2")
        edges = [("q", "r"), ("p", "r"), ("w1", "p"), ("s2", "p"),
                 ("w2", "q"), ("t2", "q")]
        assert check_graph_tree(nodes, edges, s.root).is_tree
        report = self.compare(s, nodes, edges)
        assert report["t-order"].passed
        assert report["t-immediate"].witness == ("w1", "p")

    def test_perturbed_tree_shaped_lists(self):
        """Tree-shaped edge lists made from found trees by one edit each,
        all read on the top-down route: a node hung under a state it
        does not refine, under its grandparent, a new kid compatible
        with a sibling, and a kid dropped with its subtree."""
        rng = random.Random(2711)
        structures = [splitting_tree(rng, max_nodes=16).ambient
                      for _ in range(20)]
        structures += [subset_family_structure(rng, max_universe=4)
                       for _ in range(60)]
        failed = Counter()
        for s in structures:
            found = find_trees(s)
            if not found:
                continue
            t = rng.choice(found)
            for nodes, edges in _perturbed(rng, s, t):
                assert check_graph_tree(nodes, edges, s.root).is_tree
                report = self.compare(s, nodes, edges)
                failed.update(report.failed_ids)
        assert {"t-order", "t-immediate", "t-incompat",
                "t-unbiased"} <= {c for c, n in failed.items() if n > 5}

    def test_redundant_transitive_edge_takes_the_closure(self):
        s = EStructure.from_generators(
            ["r", "a", "b", "c", "d"], "r",
            [("a", "r"), ("b", "r"), ("c", "a"), ("d", "a")])
        report = self.compare(s, ["r", "a", "b", "c", "d"],
                              [("a", "r"), ("b", "r"), ("c", "a"),
                               ("d", "a"), ("c", "r")])
        assert report.passed


def test_tree_op_closes_and_derives_once(monkeypatch):
    """One consistent op on a 12-node tree: build the structure and the
    tree, decide, construct and verify. Every tree on the way is read off
    its parent map, so the edges are closed on rows once, for the
    structure itself, and those rows seed its relations: derive_relations
    never runs. The structure keeps no tree, so the kernel checks the
    seven conditions and a shape is read twice: once for the tree
    build_tree accepts, through _check_tree, and once for the equal tree
    as_tree reads for the decision, on indices with no _check_tree. The
    verifier reads the shape the built tree cached. The decision runs
    one walk pass for every alternative, and the construction reads the
    pass it kept on the canonical space both trees share, which is the
    structure's own. build_system builds the rows once, and the verifier
    reads them off that space."""
    rng = random.Random(12)
    tree = splitting_tree(rng, max_nodes=12, min_nodes=12)
    while len(tree.nodes) != 12:
        tree = splitting_tree(rng, max_nodes=12, min_nodes=12)
    plan = consistent_plan(rng, tree, n_alts=3)
    nodes, edges = tree.nodes, tuple(tree.parent.items())
    homes = {"_closed_rows": (structure, trees),
             "derive_relations": (structure,),
             "_shape": (trees,), "_check_tree": (trees,),
             "_tree_verdict": (trees,),
             "_walks": (rationalize,), "FeasibilityRow": (feasibility,)}
    calls = dict.fromkeys(homes, 0)

    def counted(name, original):
        def count(*args):
            calls[name] += 1
            return original(*args)
        return count

    for name, modules in homes.items():
        wrapper = counted(name, getattr(modules[0], name))
        for module in modules:
            monkeypatch.setattr(module, name, wrapper)
    s = EStructure.from_generators(nodes, tree.root, edges)
    t = build_tree(s, nodes, edges)
    result = decide_rationalizable(s, plan)
    r = construct_sceu(t, plan)
    assert result.path == "tree" and result.feasible
    assert verify_rationalization(t, plan, r).verified
    assert calls == {"_closed_rows": 1, "derive_relations": 0, "_shape": 2,
                     "_check_tree": 1, "_tree_verdict": 2, "_walks": 1,
                     "FeasibilityRow": len(result.system.rows)}
    assert len(result.system.rows) == 12 * (len(plan.alternatives) - 1)


def test_found_trees_carry_their_order(monkeypatch):
    """find_trees returns the trees its checks built, each with the
    top-down order its check read: on a 12-node tree's structure, each
    of the four trees found has its shape read once, and reading its
    children reads no shape again."""
    tree = splitting_tree(random.Random(5), max_nodes=12, min_nodes=12)
    s = EStructure.from_generators(tree.nodes, tree.root,
                                   tuple(tree.parent.items()))
    calls = []
    shape = trees._shape
    monkeypatch.setattr(trees, "_shape",
                        lambda *args: calls.append(1) or shape(*args))
    found = find_trees(s)
    for t in found:
        t.children
    assert len(tree.nodes) == 12 and len(found) == 4
    assert len(calls) == 4


def test_every_view_of_a_malformed_tree_raises_tree_error():
    """Each view reads the parent map through its one checked walk, so a
    cyclic map fails every view alike, path_to_root included, which also
    names a node that is not in the tree; partitions names a node that
    is not an ambient state."""
    tree = splitting_tree(random.Random(1), 7, 7)
    assert len(tree.nodes) == 7
    for cycle in ({"n1": "n2", "n2": "n1"},
                  {**tree.parent, "n1": "n2", "n2": "n1"}):
        broken = dataclasses.replace(tree, parent=cycle)
        for view in ("children", "leaves", "as_estructure", "branches",
                     "rank_in_tree", "depth"):
            with pytest.raises(TreeError, match="not a tree"):
                getattr(broken, view)
        with pytest.raises(TreeError, match="not a tree"):
            broken.path_to_root("n1")
    with pytest.raises(TreeError, match="^'zz' is not a tree node$"):
        tree.path_to_root("zz")
    foreign = ExperimentationTree(tree.ambient, ("n0", "zz", "yy"),
                                  {"zz": "n0", "yy": "n0"})
    with pytest.raises(TreeError, match="'zz' is not a state"):
        partitions(foreign)


@pytest.mark.parametrize("view", [
    "children", "leaves", "rank_in_tree", "depth", "as_estructure",
    "branches", "order", "canonical", "partitions",
    "decompose_field_element"])
@pytest.mark.parametrize("nodes, parent", [
    (("nothing", ["As"]), {}), (("nothing", "As"), {"As": ["nothing"]})],
    ids=["list-node", "list-parent"])
def test_every_view_of_an_unhashable_tree_raises_tree_error(
        corpus, view, nodes, parent):
    """A tree built directly on a node or a parent value that is not
    hashable is no tree either: every view raises TreeError, not
    Python's error about hashing."""
    t = ExperimentationTree(corpus["example_d"].structure, nodes, parent)
    read = {"partitions": partitions,
            "decompose_field_element":
                lambda t: decompose_field_element(t, [0])}.get(
        view, lambda t: getattr(t, view))
    with pytest.raises(TreeError):
        read(t)


def test_a_grown_tree_failing_its_check_is_named():
    """find_trees checks every grown tree, so a relation that is not
    transitive (b1 refines a1, a1 refines r, but b1 does not refine r)
    fails the search with the condition named, not with a wrong tree."""
    states = ("r", "a1", "a2", "b1", "b2")
    s = EStructure(states, "r", frozenset(
        [(x, x) for x in states]
        + [("a1", "r"), ("a2", "r"), ("b1", "a1"), ("b2", "a1"),
           ("b2", "r")]))
    with pytest.raises(TreeError, match=r"^a grown tree fails t-order; is "
                       r"the relation a closed preorder\?$"):
        find_trees(s)


def test_found_trees_share_each_node_judgement(monkeypatch):
    """find_trees checks every tree it returns through the kernel
    check_tree runs, and judges t-branching, t-incompat and t-unbiased
    once per distinct (node, child set) across the trees: on a 12-node
    tree's structure, the four trees found hold more (node, kids) pairs
    than the per-node judgement runs, and it runs once for each. Each
    tree got the one shared passing report check_tree gives, and keeps
    the top-down order a dataclasses.replace copy reads again."""
    tree = splitting_tree(random.Random(5), max_nodes=12, min_nodes=12)
    s = EStructure.from_generators(tree.nodes, tree.root,
                                   tuple(tree.parent.items()))
    judged, reports = [], []
    conditions, verdict = trees._node_conditions, trees._tree_verdict
    monkeypatch.setattr(trees, "_node_conditions", lambda d, i, kids, order: (
        judged.append((i, kids)) or conditions(d, i, kids, order)))
    monkeypatch.setattr(trees, "_tree_verdict", lambda *args: (
        lambda out: reports.append(out[0]) or out)(verdict(*args)))
    monkeypatch.setattr(trees, "_check_tree", None)  # never called
    found = find_trees(s)
    index = s.derived.index
    pairs = [(index[x], sum([1 << index[k] for k in t.children[x]]))
             for t in found for x in t.nodes if t.children[x]]
    assert len(tree.nodes) == 12 and len(found) == len(reports) == 4
    assert len(pairs) > len(set(pairs))
    assert sorted(judged) == sorted(set(pairs))
    monkeypatch.undo()
    for t, report in zip(found, reports):
        edges = [(x, t.parent[x]) for x in t.nodes if x != s.root]
        assert report is check_tree(s, t.nodes, edges)
        assert t.__dict__["_top_down"] == dataclasses.replace(t)._top_down


def test_every_tree_check_runs_the_kernel(corpus, monkeypatch):
    """check_tree, build_tree and as_tree on a tree-shaped edge list, and
    find_trees on each tree it returns, all run the one kernel; a list
    with a redundant transitive edge takes the closure route instead."""
    ambient = splitting_tree(random.Random(3), max_nodes=9).ambient
    calls = []
    verdict = trees._tree_verdict
    monkeypatch.setattr(trees, "_tree_verdict",
                        lambda *args: calls.append(1) or verdict(*args))
    ws = corpus["example_d"]
    s, (nodes, edges) = ws.structure, _block(ws, 0)
    check_tree(s, nodes, edges)
    build_tree(s, nodes, edges)
    assert len(calls) == 2
    as_tree(ambient)
    assert len(calls) == 3
    assert len(find_trees(s)) == 8 and len(calls) == 11
    check_tree(s, nodes, [*edges, (nodes[-1], s.root)])
    assert len(calls) == 11


def test_contained_tree_closes_nothing(monkeypatch):
    """A tree inside a larger structure (example_d, block 0) is read off
    its parent map too. Once the structure's relations are derived,
    building the tree, constructing on it and verifying close no edges,
    call no from_generators and run no derive_relations: the tree's own
    structure is seeded from the rows its top-down pass read. A parent
    map with a cycle, one naming a non-node,
    no map at all and a repeated node are no tree, and both views say
    so."""
    ws = parse_workspace(FIXTURES["example_d.est"])
    s = ws.structure
    s.derived  # the ambient relations, derived before counting
    calls = dict.fromkeys(["_closed_rows", "derive_relations",
                           "from_generators"], 0)

    def counted(name, original):
        def count(*args):
            calls[name] += 1
            return original(*args)
        return count

    for name, modules in (("_closed_rows", (structure, trees)),
                          ("derive_relations", (structure,))):
        wrapper = counted(name, getattr(structure, name))
        for module in modules:
            monkeypatch.setattr(module, name, wrapper)
    monkeypatch.setattr(EStructure, "from_generators", classmethod(
        counted("from_generators", EStructure.from_generators.__func__)))
    t = build_tree(s, *_block(ws, 0))
    r = construct_sceu(t, ws.plan)
    assert verify_rationalization(t, ws.plan, r).verified
    assert t.as_estructure is not s
    assert calls == {"_closed_rows": 0, "derive_relations": 0,
                     "from_generators": 0}

    for edit in ({"parent": {**t.parent, "As": "Sb", "Sb": "As"}},
                 {"parent": {**t.parent, "As": "zzz"}}, {"parent": None},
                 {"nodes": (*t.nodes, "As")}):
        broken = dataclasses.replace(t, **edit)
        for view in ("children", "as_estructure"):
            with pytest.raises(TreeError):
                getattr(broken, view)
