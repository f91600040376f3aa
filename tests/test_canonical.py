"""Canonical sample space, its six conditions, and event embeddings."""
from __future__ import annotations

import random

import pytest

import oracles
from conftest import splitting_tree, subset_family_structure
from evistruct import (AXIOM_IDS, CANONICAL_CONDITION_IDS,
                       EMBEDDING_CONDITION_IDS, TREE_CONDITION_IDS,
                       CanonicalError, CanonicalSpace, EStructure,
                       build_canonical, check_axioms,
                       check_tree, verify_canonical, verify_embedding)
from evistruct.canonical import _event_space
from evistruct.structure import _condition_report


def test_condition_ids_are_stable():
    assert CANONICAL_CONDITION_IDS == ("top", "monotone", "disjoint",
                                       "base", "principal", "nonempty")


class TestExampleJ:
    def test_atoms_and_events(self, corpus):
        s = corpus["example_j"].structure
        space = build_canonical(s)
        assert space.atoms == (("h2t0",), ("h1t1",), ("h0t2",))
        assert space.events["h1t0"] == frozenset({0, 1})
        assert space.events["h0t1"] == frozenset({1, 2})
        assert space.events["h0t0"] == frozenset({0, 1, 2})

    def test_field_is_full_power_set(self, corpus):
        s = corpus["example_j"].structure
        space = build_canonical(s)
        field = oracles.field_oracle(space.events.values(),
                                     frozenset(range(len(space.atoms))))
        assert len(field) == 8


def test_example_d_atoms(corpus):
    s = corpus["example_d"].structure
    space = build_canonical(s)
    assert space.atoms == (("Ge",), ("As?",), ("AsO5",), ("SbO5",),
                           ("Sb?",))
    assert space.events["As"] == frozenset({1, 2})
    assert space.events["Sb"] == frozenset({3, 4})


def test_example_r_and_t_atoms(corpus):
    r = corpus["example_r"].structure
    space_r = build_canonical(r)
    assert space_r.labels == ("z1", "z2", "z3", "z4", "z5")
    assert space_r.events["x1"] == frozenset({0, 3, 4})
    t = corpus["example_t"].structure
    space_t = build_canonical(t)
    assert space_t.labels == ("z1", "z2", "z3")
    assert space_t.events["x1"] == frozenset({0, 2})
    assert space_t.events["x2"] == frozenset({1, 2})


class TestVerifyConditions:
    """Targeted violations, one condition at a time where possible."""

    @staticmethod
    def _fork() -> EStructure:
        return EStructure.from_generators(
            ["r", "a", "b"], "r", [("a", "r"), ("b", "r")])

    def test_valid_space_passes(self):
        s = self._fork()
        space = build_canonical(s)
        report = verify_canonical(space, s)
        assert report.passed

    def test_top_violation(self):
        s = self._fork()
        space = CanonicalSpace((("a",), ("b",)),
                               {"r": frozenset({0}), "a": frozenset({0}),
                                "b": frozenset({1})})
        report = verify_canonical(space, s)
        assert "top" in report.failed_ids
        assert report["top"].witness == ("r", (0,))

    def test_monotone_violation(self):
        s = self._fork()
        space = CanonicalSpace((("a",), ("b",)),
                               {"r": frozenset({0, 1}),
                                "a": frozenset({0}),
                                "b": frozenset({0})})
        report = verify_canonical(space, s)
        assert "monotone" in report.failed_ids

    def test_disjoint_violation(self):
        s = self._fork()
        space = CanonicalSpace((("a",), ("b",)),
                               {"r": frozenset({0, 1}),
                                "a": frozenset({0, 1}),
                                "b": frozenset({1})})
        report = verify_canonical(space, s)
        assert "disjoint" in report.failed_ids

    def test_nonempty_violation(self):
        s = self._fork()
        space = CanonicalSpace((("a",), ("b",)),
                               {"r": frozenset({0, 1}),
                                "a": frozenset({0}),
                                "b": frozenset()})
        report = verify_canonical(space, s)
        assert "nonempty" in report.failed_ids
        assert report["nonempty"].witness == ("b",)

    def test_base_violation(self):
        """A signature cell that no event fits inside breaks the base
        condition without touching the principal one."""
        s = EStructure.from_generators(["r", "a"], "r", [("a", "r")])
        space = CanonicalSpace((("a",), ("pad",)),
                               {"r": frozenset({0, 1}),
                                "a": frozenset({0})})
        report = verify_canonical(space, s)
        assert "base" in report.failed_ids
        assert "principal" not in report.failed_ids

    def test_principal_violation(self):
        """Two sample points that no event separates."""
        s = EStructure.from_generators(["r", "a"], "r", [("a", "r")])
        space = CanonicalSpace((("a",), ("pad",)),
                               {"r": frozenset({0, 1}),
                                "a": frozenset({0, 1})})
        report = verify_canonical(space, s)
        assert "principal" in report.failed_ids

    def test_single_refinement_chain_fails_monotone(self):
        """The two-state chain is no e-structure, and its would-be space
        confuses the root with its refinement: a joint regression."""
        s = EStructure.from_generators(["r", "a"], "r", [("a", "r")])
        space = CanonicalSpace((("a",),),
                               {"r": frozenset({0}), "a": frozenset({0})})
        report = verify_canonical(space, s)
        assert report["monotone"].witness == ("r", "a")


@pytest.mark.parametrize("space, shape", [
    pytest.param(lambda corpus: build_canonical(
        corpus["example_j"].structure), ("nothing", "no event"),
        id="space-of-another-structure"),
    pytest.param(lambda corpus: CanonicalSpace((), dict.fromkeys(
        corpus["example_d"].structure.states, 0)), ("nothing", "no event"),
        id="event-not-a-set"),
    pytest.param(lambda corpus: CanonicalSpace((), None),
                 ("not a canonical space",), id="events-None"),
    pytest.param(lambda corpus: None, ("not a canonical space",), id="None"),
])
def test_malformed_space_fails_every_condition(corpus, space, shape):
    report = verify_canonical(space(corpus), corpus["example_d"].structure)
    assert report.failed_ids == CANONICAL_CONDITION_IDS
    assert [v.witness for v in report.verdicts] == [shape] * len(
        CANONICAL_CONDITION_IDS)


@pytest.mark.parametrize("index", [True, -1, 3, "0", 1.0],
                         ids=["bool", "negative", "out-of-range", "str",
                              "float"])
def test_the_first_state_with_a_bad_event_is_the_witness(index):
    """verify_canonical reads the events in state order and names the
    first state whose event is not a set of atom indices (plain ints
    below the atom count) or which has no event, whichever comes first."""
    s = EStructure.from_generators(
        ["r", "a", "b", "c"], "r", [("a", "r"), ("b", "r"), ("c", "r")])
    space = build_canonical(s)
    assert len(space.atoms) == 3
    events = dict(space.events)

    def witnesses(changed):
        report = verify_canonical(
            CanonicalSpace(space.atoms, {**events, **changed}), s)
        assert report.failed_ids == CANONICAL_CONDITION_IDS
        return {v.witness for v in report.verdicts}

    bad = events["a"] | {index}
    assert witnesses({"a": bad}) == {("a", "not atom indices")}
    assert witnesses({"a": bad, "b": None}) == {("a", "not atom indices")}
    assert witnesses({"a": list(events["a"]), "b": bad}) == {
        ("a", "no event")}
    assert witnesses({"c": bad, "b": frozenset({index})}) == {
        ("b", "not atom indices")}
    assert witnesses({"r": bad}) == {("r", "not atom indices")}


def test_one_builder_makes_every_condition_report(corpus):
    """The four checks share one report builder: passing reports of one
    check are one object, every report lists exactly its ID tuple in
    order, and a witness count unlike the ID count is a ValueError."""
    structures = [corpus[k].structure for k in ("example_d", "example_j")]
    spaces = [build_canonical(s) for s in structures]
    grown = splitting_tree(random.Random(1), 7, 7)
    block = corpus["example_d"].trees[0]
    passing = {
        AXIOM_IDS: [check_axioms(s) for s in structures],
        CANONICAL_CONDITION_IDS: [verify_canonical(space, s) for space, s
                                  in zip(spaces, structures)],
        EMBEDDING_CONDITION_IDS: [verify_embedding(s, space.events)
                                  for space, s in zip(spaces, structures)],
        TREE_CONDITION_IDS: [
            check_tree(structures[0], block.nodes, block.edges),
            check_tree(grown.ambient, grown.nodes, grown.parent.items())],
    }
    for ids, (first, second) in passing.items():
        assert first.passed and first is second
        assert tuple([v.condition for v in first.verdicts]) == ids
    s, block = structures[0], corpus["example_d"].trees[1]
    two_chain = EStructure.from_generators(["r", "a"], "r", [("a", "r")])
    failing = {
        AXIOM_IDS: check_axioms(two_chain),
        CANONICAL_CONDITION_IDS: verify_canonical(spaces[1], s),
        EMBEDDING_CONDITION_IDS: verify_embedding(s, None),
        TREE_CONDITION_IDS: check_tree(s, block.nodes, block.edges),
    }
    for ids, report in failing.items():
        assert not report.passed
        assert tuple([v.condition for v in report.verdicts]) == ids
    for witnesses in ([None] * 4, [None] * 6, [("w",), None, None, None]):
        with pytest.raises(ValueError):
            _condition_report(AXIOM_IDS, witnesses)


def test_build_canonical_raises_on_violation():
    s = EStructure.from_generators(["r", "a"], "r", [("a", "r")])
    with pytest.raises(CanonicalError, match="monotone"):
        build_canonical(s)


def _rootless():
    """A structure whose root is none of its states: check_axioms reads
    it and fails root."""
    return EStructure(("a", "b"), "r", frozenset({("a", "a"), ("b", "b")}))


@pytest.mark.parametrize("check, ids", [
    pytest.param(lambda s: verify_canonical(CanonicalSpace(
        (("a",), ("b",)), {"a": frozenset({0}), "b": frozenset({1})}), s),
        CANONICAL_CONDITION_IDS, id="verify_canonical"),
    pytest.param(lambda s: verify_embedding(
        s, {"a": frozenset({1}), "b": frozenset({2})}),
        EMBEDDING_CONDITION_IDS, id="verify_embedding"),
])
def test_a_root_that_is_no_state_fails_every_condition(check, ids):
    s = _rootless()
    assert check_axioms(s).failed_ids == ("root",)
    assert check(s) == _condition_report(ids, [("r", "not a state")]
                                         * len(ids))


def test_build_canonical_raises_on_a_root_that_is_no_state():
    with pytest.raises(CanonicalError, match="top, monotone"):
        build_canonical(_rootless())


def test_generated_field_adds_complements():
    """One event on three atoms: only its complement is new, as unions
    and intersections with the empty set and the whole give nothing."""
    assert oracles.field_oracle([frozenset({0})], frozenset(range(3))) == {
        frozenset(), frozenset({0}), frozenset({1, 2}), frozenset({0, 1, 2})}


class TestEmbedding:
    def test_product_embedding_passes(self, corpus):
        s = corpus["example_j"].structure
        space = build_canonical(s)
        mapping = oracles.product_embedding(s.states, space.events)
        report = verify_embedding(s, mapping)
        assert report.passed, report.failed_ids

    def test_canonical_events_embed(self, corpus):
        s = corpus["example_d"].structure
        space = build_canonical(s)
        report = verify_embedding(s, dict(space.events))
        assert report.passed

    def test_partial_mapping_rejected(self, corpus):
        """A mapping that misses a state fails every condition with the
        witness verify_canonical gives a space with no event for it."""
        s = corpus["example_j"].structure
        space = build_canonical(s)
        mapping = dict(space.events)
        del mapping["h1t1"]
        ids = EMBEDDING_CONDITION_IDS
        assert verify_embedding(s, mapping) == _condition_report(
            ids, [("h1t1", "no event")] * len(ids))

    @pytest.mark.parametrize("malform, shape", [
        pytest.param(lambda events: None, ("not a mapping",), id="None"),
        pytest.param(lambda events: 5, ("not a mapping",), id="int"),
        pytest.param(lambda events: list(events.items()),
                     ("not a mapping",), id="pair-list"),
        pytest.param(lambda events: {x: sorted(e)
                                     for x, e in events.items()},
                     ("nothing", "not a set"), id="list-values"),
        pytest.param(lambda events: {x: len(e) for x, e in events.items()},
                     ("nothing", "not a set"), id="int-values"),
        pytest.param(lambda events: {**events, "extra": None},
                     ("extra", "not a set"), id="extra-key-to-None"),
    ])
    def test_malformed_mapping_fails_every_condition(self, corpus, malform,
                                                     shape):
        s = corpus["example_d"].structure
        mapping = malform(dict(build_canonical(s).events))
        report = verify_embedding(s, mapping)
        assert report.failed_ids == EMBEDDING_CONDITION_IDS
        assert [v.witness for v in report.verdicts] == [shape] * len(
            EMBEDDING_CONDITION_IDS)

    def test_swapped_events_fail_order(self, corpus):
        s = corpus["example_j"].structure
        space = build_canonical(s)
        mapping = dict(space.events)
        mapping["h2t0"], mapping["h0t2"] = mapping["h0t2"], mapping["h2t0"]
        report = verify_embedding(s, mapping)
        assert "order" in report.failed_ids

    def test_inflated_child_fails_disjoint(self):
        s = EStructure.from_generators(
            ["r", "a", "b"], "r", [("a", "r"), ("b", "r")])
        mapping = {"r": frozenset({0, 1}), "a": frozenset({0, 1}),
                   "b": frozenset({1})}
        report = verify_embedding(s, mapping)
        assert "disjoint" in report.failed_ids

    def test_starved_parent_fails_saturation(self):
        s = EStructure.from_generators(
            ["r", "a", "b", "c"], "r",
            [("a", "r"), ("b", "r"), ("c", "r")])
        mapping = {"r": frozenset({0, 1, 2}), "a": frozenset({0}),
                   "b": frozenset({1}), "c": frozenset({2, 3})}
        # c's extra point 3 is missing from the root's set
        report = verify_embedding(s, mapping)
        assert report.failures == {"order": ("r",), "saturation": ("r",)}
        mapping = {"r": frozenset({0, 1, 2, 3}), "a": frozenset({0}),
                   "b": frozenset({1}), "c": frozenset({2})}
        report = verify_embedding(s, mapping)
        assert report.failed_ids == ("saturation",)


class TestRandomized:
    def test_space_matches_oracle(self):
        rng = random.Random(111)
        for _ in range(150):
            s = subset_family_structure(rng)
            space = build_canonical(s)
            atoms = oracles.atoms_oracle(s.states, s.relation)
            assert list(space.atoms) == atoms
            for x in s.states:
                assert space.events[x] == oracles.event_oracle(
                    s.states, s.relation, atoms, x)

    def test_space_and_embedding_verify(self):
        rng = random.Random(222)
        for _ in range(150):
            s = subset_family_structure(rng)
            space = build_canonical(s)
            assert verify_canonical(space, s).passed
            assert verify_embedding(s, dict(space.events)).passed
            assert verify_embedding(s, oracles.product_embedding(
                s.states, space.events)).passed

    def test_monotone_iff_in_both_directions(self):
        rng = random.Random(333)
        for _ in range(60):
            s = subset_family_structure(rng)
            space = build_canonical(s)
            for x in s.states:
                for y in s.states:
                    assert ((x, y) in s.relation) == (
                        space.events[x] <= space.events[y])

    def test_atom_count_tracks_eqs_classes(self):
        rng = random.Random(444)
        for _ in range(60):
            s = subset_family_structure(rng, dup_prob=0.5)
            space = build_canonical(s)
            d = s.derived
            maximal = [x for i, x in enumerate(s.states)
                       if not d.refiners[i] & ~d.up[i]]
            assert sum(len(cls) for cls in space.atoms) == len(maximal)


def test_one_incidence_pass_matches_the_two_pass_build():
    """_event_space fills each state's event mask and its event's atom
    list in one pass over the (atom, state) incidences; the reference,
    oracles.event_space_two_pass, fills the masks and then decodes each
    one. Atoms, masks, signatures and every event agree, the events
    iterating in the same order (it sets the order of a row's terms), on
    subset families drawn as family-decide draws them and on splitting
    trees of up to 160 nodes with and without twins added."""
    rng = random.Random(3344)
    pool = [subset_family_structure(rng, max_universe=2 + i % 3,
                                    dup_prob=0.3) for i in range(300)]
    for i in range(40):
        tree = splitting_tree(rng, max_nodes=160 if i % 4 == 0 else 30)
        s = tree.ambient
        twins = [x for x in s.states if rng.random() < 0.2]
        pool += [s, EStructure.from_generators(
            s.states + tuple([x + "q" for x in twins]), s.root,
            [*tree.parent.items(),
             *[p for x in twins for p in ((x + "q", x), (x, x + "q"))]])]
    long_events = twinned = 0
    for s in pool:
        d = s.derived
        space, masks, signature = _event_space(s)
        atoms, events, *rest = oracles.event_space_two_pass(
            s.states, d.up, d.refiners, d.immed_sets)
        assert (space.atoms, masks, signature) == (atoms, *rest)
        assert [list(space.events[x]) for x in s.states] == [
            list(events[x]) for x in s.states]
        long_events += max(map(len, events.values())) > 40
        twinned += any(len(cls) > 1 for cls in atoms)
    assert long_events >= 5 and twinned > 100


def test_embedding_witnesses_match_the_set_reference():
    """The order check compares point masks with the up rows; the
    reference compares the sets themselves. Mappings are the canonical
    events or the product embedding, some with two events swapped, a
    point added or one taken away."""
    rng = random.Random(909)
    failed: set[str] = set()
    for i in range(150):
        s = subset_family_structure(rng, max_universe=4)
        space = build_canonical(s)
        mapping = (dict(space.events) if i % 2
                   else oracles.product_embedding(s.states, space.events))
        x, y = rng.sample(s.states, 2)
        points = sorted(mapping[s.root])
        if i % 5 == 1:
            mapping[x], mapping[y] = mapping[y], mapping[x]
        elif i % 5 == 2:
            mapping[x] = mapping[x] | {rng.choice(points)}
        elif i % 5 == 3 and len(mapping[x]) > 1:
            mapping[x] = mapping[x] - {rng.choice(sorted(mapping[x]))}
        elif i % 5 == 4:
            mapping[x] = mapping[x] | {"elsewhere"}
        report = verify_embedding(s, mapping)
        assert [(v.condition, v.passed, v.witness)
                for v in report.verdicts] == oracles.verify_embedding_by_sets(
                    s.states, s.root, s.relation, mapping)
        failed.update(report.failed_ids)
    assert failed == set(EMBEDDING_CONDITION_IDS)
