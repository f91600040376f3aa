"""Axioms, derived relations, and the shortest-chain rank."""
from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import evistruct
import oracles
from conftest import (degraded_structure, splitting_tree,
                      subset_family_structure)
from evistruct import (AXIOM_IDS, CANONICAL_CONDITION_IDS, CanonicalSpace,
                       ConditionReport, ConditionVerdict, EStructure,
                       StructureError, build_canonical, check_axioms,
                       check_tree, cli, derive_relations, emit_fixtures,
                       rank, rank_level_sets, verify_canonical,
                       verify_embedding)
from evistruct import structure
from evistruct.canonical import _canonical_report, _event_space


def test_axiom_ids_are_stable():
    assert AXIOM_IDS == ("preorder", "root", "intermediacy",
                         "finite_branching", "separation")


class TestConstruction:
    def test_duplicate_state_rejected(self):
        with pytest.raises(StructureError, match="duplicate"):
            EStructure.from_generators(["r", "a", "a"], "r", [("a", "r")])

    def test_unknown_root_rejected(self):
        with pytest.raises(StructureError, match="root"):
            EStructure.from_generators(["a", "b"], "r", [("a", "b")])

    def test_unknown_pair_id_rejected(self):
        with pytest.raises(StructureError, match="unknown state"):
            EStructure.from_generators(["r", "a"], "r", [("a", "zz")])

    def test_single_state_rejected(self):
        with pytest.raises(StructureError, match="two states"):
            EStructure.from_generators(["r"], "r", [])

    @pytest.mark.parametrize("states, root, pairs, message", [
        (5, "r", [],
         "states must be an iterable of hashable state ids, not 5"),
        (["r", ["a"]], "r", [], "states must be an iterable of hashable "
         "state ids, not ['r', ['a']]"),
        (["r", "a"], ["r"], [], "root ['r'] is not a declared state"),
        (["r", "a"], "r", 5,
         "pairs must be an iterable of (x, y) pairs, not 5"),
        (["r", "a"], "r", [("a", "r"), None],
         "pairs holds None, which is not an (x, y) pair of state ids"),
        (["r", "a"], "r", iter([("a",)]),
         "pairs holds ('a',), which is not an (x, y) pair of state ids"),
        (["r", "a"], "r", [(["a"], "r")], "pairs holds (['a'], 'r'), "
         "which is not an (x, y) pair of state ids"),
    ], ids=["states-not-iterable", "unhashable-state", "unhashable-root",
            "pairs-not-iterable", "pair-none", "one-item-pair",
            "unhashable-pair-item"])
    def test_malformed_input_raises_a_named_error(self, states, root, pairs,
                                                  message):
        with pytest.raises(StructureError) as caught:
            EStructure.from_generators(states, root, pairs)
        assert str(caught.value) == message

    @pytest.mark.parametrize("states, relation, message", [
        (("r", "a"), {("a", "zz"), ("a", "a"), ("r", "r")},
         "unknown state id in pair: 'zz'"),
        (("r", "a"), {("a",), ("a", "r")},
         "relation holds ('a',), which is not an (x, y) pair of state ids"),
        (("r", "a", "a"), {("a", "r")}, "duplicate state id(s): a"),
        (("r", "a"), 5, "relation must be an iterable of (x, y) pairs, "
         "not 5"),
        (("r", ["a"]), set(), "states must be a tuple of hashable state "
         "ids, not ('r', ['a'])"),
        ({"r": 0, "a": 1}, set(), "states must be a tuple of hashable "
         "state ids, not {'r': 0, 'a': 1}"),
    ], ids=["unknown-id", "one-item-pair", "repeated-state",
            "relation-not-iterable", "unhashable-state", "states-dict"])
    def test_hand_built_malformed_input_raises_a_named_error(
            self, states, relation, message):
        """Reading a hand-built relation raises from_generators' texts,
        so check_axioms gives no misleading report on a repeated state."""
        s = EStructure(states, "r", relation)
        for read in (derive_relations, check_axioms):
            with pytest.raises(StructureError) as caught:
                read(s)
            assert str(caught.value) == message

    def test_an_unhashable_root_fails_the_root_axiom(self):
        relation = frozenset({("r", "r"), ("a", "a"), ("a", "r")})
        report = check_axioms(EStructure(("r", "a"), ["r"], relation))
        assert "root" in report.failed_ids
        assert _verdicts(report) == _verdicts(
            check_axioms(EStructure(("r", "a"), "zz", relation)))

    def test_closure_is_reflexive_and_transitive(self):
        s = EStructure.from_generators(
            ["r", "a", "b"], "r", [("b", "a"), ("a", "r")])
        assert s.wms("b", "b")
        assert s.wms("b", "r")
        assert not s.wms("r", "b")
        assert s.relation == oracles.closure(
            s.states, [("b", "a"), ("a", "r")])

    def test_matrix_follows_declaration_order(self):
        s = EStructure.from_generators(["r", "a"], "r", [("a", "r")])
        assert s.matrix() == [[True, False], [True, True]]


def _seeded_against_referees(states, root, pairs):
    """from_generators on the pairs, checked against the referees: the
    relation against oracles.closure, and the derived relations it was
    seeded with against derive_relations on a structure that holds the
    closed relation and nothing else."""
    s = EStructure.from_generators(states, root, pairs)
    closed = oracles.closure(states, pairs)
    assert s.relation == closed
    assert "derived" in s.__dict__  # seeded, not derived on first read
    got = s.derived
    want = derive_relations(EStructure(s.states, root, frozenset(closed)))
    assert got == want
    assert list(got.parents) == list(got.immed_sets) == list(s.states)
    assert got.incompat_rows == want.incompat_rows
    return s


class TestRowClosureAgainstReferees:
    """The generator pairs are closed on bit rows, in a few sweeps that
    alternate direction; declaration orders that point every pair
    forward, backward or anywhere take different numbers of sweeps."""

    @staticmethod
    def orders(rng, states, root):
        others = [x for x in states if x != root]
        shuffled = rng.sample(others, len(others))
        return [list(states), [root, *reversed(others)], [root, *shuffled]]

    def test_splitting_trees_in_every_declaration_order(self):
        rng = random.Random(2701)
        for _ in range(40):
            t = splitting_tree(rng, max_nodes=30)
            edges = tuple(t.parent.items())
            for states in self.orders(rng, t.nodes, t.root):
                _seeded_against_referees(states, t.root, edges)

    def test_subset_families_with_and_without_twins(self):
        rng = random.Random(2702)
        for dup_prob in (0.0, 0.2, 1.0):
            for _ in range(25):
                s = subset_family_structure(rng, max_universe=4,
                                            dup_prob=dup_prob)
                pairs = sorted(s.relation - {(x, x) for x in s.states})
                for states in self.orders(rng, s.states, s.root):
                    _seeded_against_referees(states, s.root, pairs)

    def test_generator_cycles(self):
        """A cycle closes to one equivalence class, reached through a
        chain declared backwards, with a second cycle hanging off it."""
        states = ["r", *[f"c{i}" for i in range(6)],
                  *[f"t{i}" for i in range(8)], "d0", "d1"]
        pairs = [(f"c{i}", f"c{(i + 1) % 6}") for i in range(6)]
        pairs += [(f"t{i}", f"t{i + 1}") for i in range(7)]
        pairs += [("t7", "c3"), ("c0", "r"), ("d0", "d1"), ("d1", "d0"),
                  ("d0", "t2")]
        rng = random.Random(2703)
        for states in self.orders(rng, states, "r"):
            s = _seeded_against_referees(states, "r", pairs)
        assert {("c0", "c5"), ("c5", "c0"), ("d1", "r")} <= s.relation

    def test_duplicate_and_reflexive_pairs(self):
        states = ["r", "a", "b", "c", "d"]
        pairs = [("a", "r"), ("a", "r"), ("b", "a"), ("b", "b"),
                 ("r", "r"), ("c", "b"), ("c", "b"), ("d", "d")]
        s = _seeded_against_referees(states, "r", pairs)
        plain = _seeded_against_referees(
            states, "r", [("a", "r"), ("b", "a"), ("c", "b")])
        assert (plain, plain.derived) == (s, s.derived)
        assert s.derived.parents == {"r": (), "a": ("r",), "b": ("a",),
                                     "c": ("b",), "d": ()}

    def test_random_digraphs(self):
        """Any pairs at all, cycles and long paths included: the closure
        is the reachability relation whatever its shape."""
        rng = random.Random(2704)
        for _ in range(60):
            n = rng.randint(2, 18)
            states = [f"v{i}" for i in range(n)]
            pairs = [(rng.choice(states), rng.choice(states))
                     for _ in range(rng.randint(0, 2 * n))]
            _seeded_against_referees(states, states[0], pairs)

    def test_a_long_chain_declared_every_way(self):
        states = [f"k{i}" for i in range(60)]
        pairs = [(f"k{i + 1}", f"k{i}") for i in range(59)]
        rng = random.Random(2705)
        for order in self.orders(rng, states, "k0"):
            s = _seeded_against_referees(order, "k0", pairs)
            assert len(s.relation) == 60 * 61 // 2


class TestExampleC:
    """The branching-history structure where rank order and specificity
    order disagree."""

    def test_axioms_pass(self, corpus):
        s = corpus["example_c"].structure
        report = check_axioms(s)
        assert report.passed, report.failed_ids

    def test_ranks(self, corpus):
        s = corpus["example_c"].structure
        table = rank(s)
        assert table.rho == {
            "nothing": 0, "q": 1, "w": 1,
            "s": 2, "t": 2, "x": 2, "z": 2,
            "u": 3, "y": 3, "v": 4,
        }

    def test_rank_is_not_antimonotone(self, corpus):
        s = corpus["example_c"].structure
        table = rank(s)
        assert s.wms("z", "y") and not s.wms("y", "z")
        assert table.rho["z"] < table.rho["y"]

    def test_z_has_two_immediate_generalizations(self, corpus):
        s = corpus["example_c"].structure
        d = s.derived
        assert "y" in d.parents["z"]
        assert "q" in d.parents["z"]

    def test_chains_are_shortest_immediate_paths(self, corpus):
        s = corpus["example_c"].structure
        d = s.derived
        table = rank(s)
        for x in s.states:
            chain = table.chains[x]
            assert chain[0] == x and chain[-1] == s.root
            assert len(chain) == table.rho[x] + 1
            for a, b in zip(chain, chain[1:]):
                assert b in d.parents[a]

    def test_level_sets_are_cumulative(self, corpus):
        s = corpus["example_c"].structure
        assert rank_level_sets(s, 0) == {"nothing"}
        assert rank_level_sets(s, 1) == {"nothing", "q", "w"}
        assert rank_level_sets(s, 4) == set(s.states)

    @pytest.mark.parametrize("level, named", [
        ("x", "'x'"), (2.5, "2.5"), (True, "True")],
        ids=["str", "float", "bool"])
    def test_level_that_is_no_int_rejected(self, corpus, level, named):
        with pytest.raises(ValueError,
                           match=f"^n must be an int, not {named}$"):
            rank_level_sets(corpus["example_c"].structure, level)

    def test_side_states_carry_separation(self, corpus):
        """Dropping the padding states t, u, v, s breaks exactly the
        separation axiom. The relation among the kept states is closed,
        so it generates itself."""
        s = corpus["example_c"].structure
        kept = [x for x in s.states if x not in {"t", "u", "v", "s"}]
        trimmed = EStructure.from_generators(
            kept, s.root, [(x, y) for x, y in s.relation
                           if x != y and {x, y} <= set(kept)])
        report = check_axioms(trimmed)
        assert report.failed_ids == ("separation",)

    def test_rank_oracle_agrees(self, corpus):
        s = corpus["example_c"].structure
        assert rank(s).rho == oracles.rank_oracle(s.states, s.root,
                                                  s.relation)


class TestExampleJ:
    def test_ranks(self, corpus):
        s = corpus["example_j"].structure
        assert rank(s).rho == {
            "h0t0": 0, "h1t0": 1, "h0t1": 1,
            "h2t0": 2, "h1t1": 2, "h0t2": 2,
        }

    def test_incompatibility(self, corpus):
        s = corpus["example_j"].structure
        d = s.derived
        i, j = d.index["h2t0"], d.index["h0t2"]
        assert d.incompat_rows[i] >> j & 1
        i, j = d.index["h1t0"], d.index["h0t1"]
        assert not d.incompat_rows[i] >> j & 1


def test_two_chain_fails_separation():
    """A root with a single refinement is not an e-structure: nothing
    separates the root from its refinement."""
    s = EStructure.from_generators(["r", "a"], "r", [("a", "r")])
    report = check_axioms(s)
    assert not report.passed
    assert "separation" in report.failed_ids
    with pytest.raises(StructureError):
        rank(s)


def test_every_check_returns_the_one_report_type(corpus):
    ws = corpus["example_d"]
    s = ws.structure
    space = build_canonical(s)
    block = ws.trees[1]
    reports = [check_axioms(s), verify_canonical(space, s),
               verify_embedding(s, space.events),
               check_tree(s, block.nodes, block.edges)]
    assert {type(r) for r in reports} == {ConditionReport}
    assert {type(v) for r in reports for v in r.verdicts} == {ConditionVerdict}
    assert [v.condition for v in reports[0].verdicts] == list(AXIOM_IDS)
    assert reports[3].failures == {c: reports[3][c].witness
                                   for c in reports[3].failed_ids}


def test_each_public_name_is_its_own_object():
    """Every exported name resolves, and no object is exported twice."""
    objects = [getattr(evistruct, name) for name in evistruct.__all__]
    assert len({id(o) for o in objects}) == len(evistruct.__all__)


def test_failing_axiom_reports_carry_witnesses():
    s = EStructure.from_generators(["r", "a"], "r", [("a", "r")])
    report = check_axioms(s)
    verdict = report["separation"]
    assert not verdict.passed
    assert verdict.witness


def test_condition_report_lookup_of_an_unknown_condition_raises():
    report = check_axioms(EStructure.from_generators(["r", "a"], "r",
                                                     [("a", "r")]))
    with pytest.raises(KeyError, match="t-root"):
        report["t-root"]


HASH_SEED_PROBE = """
from evistruct import (CanonicalSpace, EStructure, check_axioms,
                       verify_canonical, verify_embedding)
s = EStructure.from_generators("rabcd", "r", [(x, "r") for x in "abcd"])
print(verify_embedding(s, {x: frozenset({1}) for x in s.states}).failures)
# every state shares atom 0: r's event lies inside a's though r is not
# more specific, and the incompatible a and b meet
space = CanonicalSpace(tuple((x,) for x in "abcd"),
                       {x: frozenset({0}) for x in s.states})
print("canonical", verify_canonical(space, s).failures)
# not closed: a < b < r and c < d < r, and x refines a strict cycle p, q, t
# whose members all sit between x and each other, so x has no parent
pairs = [("a", "b"), ("b", "r"), ("c", "d"), ("d", "r"), ("x", "p"),
         ("x", "q"), ("x", "t"), ("p", "q"), ("q", "t"), ("t", "p")]
states = tuple("rabcdxpqt")
bad = EStructure(states, "r", frozenset([(y, y) for y in states] + pairs))
print(check_axioms(bad).failures)
"""


def test_witnesses_do_not_depend_on_the_hash_seed():
    """Each check reports its earliest witness in declaration order, not
    the first one a set yields, so witnesses are the same under every
    PYTHONHASHSEED."""
    src = str(Path(evistruct.__file__).resolve().parents[1])
    outputs = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        run = subprocess.run([sys.executable, "-c", HASH_SEED_PROBE],
                             env=env, capture_output=True, text=True,
                             timeout=60, check=True)
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
    assert "'disjoint': ('a', 'b')" in outputs[0]
    assert "('not transitive', 'a', 'b', 'r')" in outputs[0]
    assert "'intermediacy': ('x', 'p')" in outputs[0]
    canonical = outputs[0].splitlines()[1]
    assert "'monotone': ('r', 'a')" in canonical
    assert "'disjoint': ('a', 'b')" in canonical


def _verdicts(report):
    return [(v.condition, v.passed, v.witness) for v in report.verdicts]


def _rows(states, pairs):
    """Pairs (x, y) as bit rows over declaration indices: row x holds y."""
    index = {x: i for i, x in enumerate(states)}
    rows = [0] * len(states)
    for x, y in pairs:
        rows[index[x]] |= 1 << index[y]
    return tuple(rows)


def _strict_rows(d):
    """Per state x, the states y with x strictly more specific than y."""
    return tuple([u & ~r for u, r in zip(d.up, d.refiners)])


def _equal_rows(d):
    """Per state x, the states y with x wms y and y wms x."""
    return tuple([u & r for u, r in zip(d.up, d.refiners)])


def _immediate_pairs(d):
    """(x, z) for each state x and each of its parents z."""
    return {(x, z) for x in d.states for z in d.parents[x]}


def _twinned(rng, s):
    """s with an equivalence twin, x + "q", added for about a third of its
    non-root states; the twin of a leaf shares its atom."""
    twins = [x for x in s.states[1:] if rng.random() < 0.3]
    pairs = [p for p in s.relation if p[0] != p[1]] + [
        pair for x in twins for pair in ((x + "q", x), (x, x + "q"))]
    return EStructure.from_generators(
        s.states + tuple([x + "q" for x in twins]), s.root, pairs)


def _perturbed(rng, space):
    """Copies of a space with one atom taken out of every event, two atoms
    merged (an event holding either holds both), an extra atom that only
    the root's event holds, and some atoms moved in or out of events."""
    natoms, events = len(space.atoms), space.events
    drop = rng.randrange(natoms)
    pair = set(rng.sample(range(natoms), 2))
    root = next(x for x, e in events.items() if len(e) == natoms)
    return [
        CanonicalSpace(space.atoms, {x: e - {drop}
                                     for x, e in events.items()}),
        CanonicalSpace(space.atoms, {x: e | pair if e & pair else e
                                     for x, e in events.items()}),
        CanonicalSpace(space.atoms + (("pad",),), {
            **events, root: events[root] | {natoms}}),
        CanonicalSpace(space.atoms, {
            x: e ^ frozenset(i for i in range(natoms) if rng.random() < 0.1)
            for x, e in events.items()}),
    ]


class TestSetBasedReference:
    """The bit-row core against the tuple-lookup loops it replaced
    (oracles.*_by_sets), whole reports at a time, witnesses included."""

    def test_axioms_and_relations_match_witness_for_witness(self):
        rng = random.Random(909)
        failed = set()
        for _ in range(300):
            s = degraded_structure(rng)
            expected = oracles.check_axioms_by_sets(s.states, s.root,
                                                    s.relation)
            assert _verdicts(check_axioms(s)) == expected
            failed.update(c for c, passed, _ in expected if not passed)
            d = derive_relations(s)
            reference = oracles.derive_relations_by_sets(s.states, s.relation)
            assert (_strict_rows(d), _equal_rows(d), d.incompat_rows) == tuple(
                [_rows(s.states, reference[name])
                 for name in ("sms", "eqs", "incompat")])
            assert _immediate_pairs(d) == reference["immms"]
            assert (d.immed_sets, d.parents) == (reference["immed_sets"],
                                                 reference["parents"])
        # the draws fail every axiom that can fail
        assert failed == set(AXIOM_IDS) - {"finite_branching"}

    def test_rank_tables_match_the_oracle(self):
        """rank's rho and chains against the breadth-first oracle on
        subset families with twins and on the degraded draws above; a
        draw that fails the axioms has no rank."""
        rng = random.Random(939)
        ranked = unranked = 0
        for i in range(300):
            s = degraded_structure(rng) if i % 2 else subset_family_structure(
                rng, max_universe=4, dup_prob=0.5)
            if not all(passed for _, passed, _ in oracles.check_axioms_by_sets(
                    s.states, s.root, s.relation)):
                with pytest.raises(StructureError, match="fails axioms"):
                    rank(s)
                unranked += 1
                continue
            table = rank(s)
            assert table.rho == oracles.rank_oracle(s.states, s.root,
                                                    s.relation)
            assert table.chains == oracles.rank_chains_oracle(
                s.states, s.root, s.relation)
            ranked += 1
        assert ranked > 150 and unranked > 50

    @pytest.mark.parametrize("pairs, witness", [
        ([("a", "r")], ("not reflexive", "r")),
        ([("r", "r"), ("a", "a"), ("b", "b"), ("b", "a"), ("a", "r")],
         ("not transitive", "b", "a", "r")),
    ])
    def test_preorder_witnesses_on_unclosed_relations(self, pairs, witness):
        s = EStructure(("r", "a", "b"), "r", frozenset(pairs))
        report = check_axioms(s)
        assert report["preorder"].witness == witness
        assert _verdicts(report) == oracles.check_axioms_by_sets(
            s.states, s.root, s.relation)

    def test_strict_cycle_matches(self):
        states = ("r", "p", "q", "t", "x")
        pairs = [(y, y) for y in states] + [
            ("p", "q"), ("q", "t"), ("t", "p"), ("x", "p"), ("x", "q"),
            ("x", "t")] + [(y, "r") for y in states]
        s = EStructure(states, "r", frozenset(pairs))
        assert _verdicts(check_axioms(s)) == oracles.check_axioms_by_sets(
            s.states, s.root, s.relation)
        d = derive_relations(s)
        reference = oracles.derive_relations_by_sets(s.states, s.relation)
        assert (_strict_rows(d), d.parents, d.incompat_rows) == (
            _rows(s.states, reference["sms"]), reference["parents"],
            _rows(s.states, reference["incompat"]))

    def test_canonical_verdicts_match_witness_for_witness(self):
        rng = random.Random(919)
        failed = set()
        for _ in range(300):
            s = degraded_structure(rng)
            if not all(s.wms(x, x) for x in s.states):
                s = EStructure(s.states, s.root, s.relation | {
                    (x, x) for x in s.states})
            space = _event_space(s)[0]
            if rng.random() < 0.5:  # move some atoms in or out of events
                natoms = len(space.atoms)
                space = CanonicalSpace(space.atoms, {
                    x: e ^ frozenset(i for i in range(natoms)
                                     if rng.random() < 0.1)
                    for x, e in space.events.items()})
            expected = oracles.verify_canonical_by_sets(
                s.states, s.root, s.relation, space.atoms, space.events)
            assert _verdicts(verify_canonical(space, s)) == expected
            failed.update(c for c, passed, _ in expected if not passed)
        assert failed == set(CANONICAL_CONDITION_IDS)

    def test_canonical_verdicts_match_on_trees_with_and_without_twins(self):
        """Splitting trees of up to 80 nodes, some with equivalence twins
        added, so that atoms stand for two states. The build's own check
        on its masks, and verify_canonical on its space and on perturbed
        copies, match the reference witness for witness: an atom taken
        out of every event holding it, two atoms merged into one
        membership, and an atom that only the root holds. The last two
        break base and principal, where the kernel reads each event's
        cell off its lowest point instead of scanning every cell."""
        rng = random.Random(929)
        failed = set()
        for i in range(16):
            s = splitting_tree(rng, max_nodes=80, min_nodes=20).ambient
            if i % 2:
                s = _twinned(rng, s)
            space, masks, signature = _event_space(s)
            expected = oracles.verify_canonical_by_sets(
                s.states, s.root, s.relation, space.atoms, space.events)
            assert _verdicts(_canonical_report(space, s, masks,
                                               signature)) == expected
            assert _verdicts(verify_canonical(space, s)) == expected
            assert all(passed for _, passed, _ in expected)
            for perturbed in _perturbed(rng, space):
                expected = oracles.verify_canonical_by_sets(
                    s.states, s.root, s.relation, perturbed.atoms,
                    perturbed.events)
                assert _verdicts(verify_canonical(perturbed, s)) == expected
                failed.update(c for c, passed, _ in expected if not passed)
        assert failed == set(CANONICAL_CONDITION_IDS)


class TestRandomized:
    def test_generator_output_is_always_valid(self):
        rng = random.Random(101)
        for _ in range(120):
            s = subset_family_structure(rng)
            oracle = oracles.check_axioms_oracle(s.states, s.root,
                                                 s.relation)
            assert all(oracle.values())
            report = check_axioms(s)
            assert report.passed, report.failed_ids

    def test_axiom_verdicts_match_oracle_on_degraded_structures(self):
        """Randomly deleting generator pairs produces structures that can
        fail any axiom; verdicts must match the direct evaluation."""
        rng = random.Random(202)
        disagreements = 0
        for _ in range(120):
            s = subset_family_structure(rng)
            pairs = [p for p in s.relation if p[0] != p[1]]
            kept = [p for p in pairs if rng.random() < 0.7]
            t = EStructure.from_generators(s.states, s.root, kept)
            report = check_axioms(t)
            oracle = oracles.check_axioms_oracle(t.states, t.root,
                                                 t.relation)
            for axiom in AXIOM_IDS:
                assert report[axiom].passed == oracle[axiom], axiom
            if not report.passed:
                disagreements += 1
        assert disagreements > 10  # the loop actually exercised failures

    def test_derived_relations_match_oracle(self):
        rng = random.Random(303)
        for _ in range(60):
            s = subset_family_structure(rng)
            d = derive_relations(s)
            assert _strict_rows(d) == _rows(
                s.states, oracles.sms_pairs(s.relation))
            assert _equal_rows(d) == _rows(s.states,
                                           oracles.eqs_pairs(s.relation))
            immms = oracles.immms_pairs(s.states, s.relation)
            assert _immediate_pairs(d) == immms
            for z in s.states:
                assert set(d.immed_sets[z]) == oracles.children_of(
                    s.states, s.relation, z)
                assert set(d.parents[z]) == {y for x, y in immms if x == z}
                # both lookups list states in declaration order
                for ordered in (d.immed_sets[z], d.parents[z]):
                    assert list(ordered) == [x for x in s.states
                                             if x in ordered]
            assert [x for x in s.states if not d.immed_sets[x]] == \
                oracles.maximal_states(s.states, s.relation)
            assert d.incompat_rows == _rows(s.states, {
                (x, y) for x in s.states for y in s.states
                if oracles.incompatible(s.states, s.relation, x, y)})

    def test_rank_matches_oracle(self):
        rng = random.Random(404)
        for _ in range(60):
            s = subset_family_structure(rng)
            table = rank(s)
            assert table.rho == oracles.rank_oracle(s.states, s.root,
                                                    s.relation)
            for n in range(max(table.rho.values()) + 1):
                assert rank_level_sets(s, n) == oracles.level_set_oracle(
                    s.states, s.root, s.relation, n)

    def test_equivalent_twins_share_rank(self):
        rng = random.Random(505)
        seen_twin = False
        for _ in range(40):
            s = subset_family_structure(rng, dup_prob=0.6)
            table = rank(s)
            for x, y in oracles.eqs_pairs(s.relation):
                if x != y:
                    seen_twin = True
                    assert table.rho[x] == table.rho[y]
        assert seen_twin


def test_axioms_are_evaluated_once_per_structure(monkeypatch, tmp_path,
                                                capsys):
    """check_axioms, rank, rank_level_sets and the CLI's guards read one
    report cached on the structure."""
    evaluated = []
    evaluate = structure._evaluate_axioms
    monkeypatch.setattr(structure, "_evaluate_axioms",
                        lambda s: evaluated.append(s) or evaluate(s))
    s = EStructure.from_generators(
        ["r", "a", "b", "a1", "a2"], "r",
        [("a", "r"), ("b", "r"), ("a1", "a"), ("a2", "a")])
    check_axioms(s)
    rank(s)
    rank_level_sets(s, 1)
    check_axioms(s)
    assert evaluated == [s]
    emit_fixtures(tmp_path)
    for argv in (["rank"], ["canonical"], ["plan", "decide"],
                 ["plan", "isd"]):
        evaluated.clear()
        cli.run(argv + [str(tmp_path / "example_r.est")])
        assert len(evaluated) == 1, argv
    capsys.readouterr()
