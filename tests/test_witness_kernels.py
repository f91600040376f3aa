"""The integer witness kernels against their Fraction references.

verify_weighting, _certificate_failure, the margin kernel
(feasibility._margin_report) and _verify_constructed put their inputs
over one common denominator and run on integer numerators;
tests/oracles.py keeps the same checks written in Fractions. Every
report must agree field for field, in the same order. A point-level
witness's margins are the rows of the atom-level system.
"""
from __future__ import annotations

import dataclasses
import random
import time
from fractions import Fraction

import pytest

import oracles
from conftest import (arbitrary_plan, consistent_by_rank, consistent_plan,
                      dense_rows, inconsistent_plan, point_margins,
                      splitting_tree, subset_family_structure)
from evistruct import (FeasibilityRow, FeasibilitySystem, WitnessReport,
                       build_system, build_tree, construct_sceu,
                       decide_rationalizable, find_trees, verify_certificate,
                       verify_rationalization)
from evistruct.feasibility import _certificate_failure, verify_weighting
from evistruct.rationalize import _verify_constructed


def fields(report: WitnessReport):
    assert all(type(m) is Fraction for m in report.margins.values())
    assert type(report.total_weight) is Fraction
    return (report.verified, list(report.margins.items()), report.failures,
            report.total_weight)


def oracle_fields(verified, margins, failures, total):
    return verified, list(margins.items()), tuple(failures), total


def constructed_by_fractions(r):
    t = r.tree
    return oracle_fields(*oracles.verify_constructed_by_fractions(
        t.canonical.events, t.nodes, t.root, t.parent, r.plan.choice,
        r.plan.alternatives, [(p.atom, p.state) for p in r.points],
        r.weights, r.utilities, r.avoid))


def rows_of(system):
    return [(r.state, r.alternative, coeffs)
            for r, coeffs in zip(system.rows, dense_rows(system))]


def weighting_by_fractions(system, weights, utilities):
    return oracle_fields(*oracles.verify_weighting_by_fractions(
        rows_of(system), system.atoms, system.alternatives, weights,
        utilities))


def certificate_by_fractions(system, certificate):
    return oracles.certificate_failure_by_fractions(
        rows_of(system), system.atoms, system.alternatives, certificate)


def mixed(rng, value):
    """value times a random positive rational with a small denominator."""
    return value * Fraction(rng.randint(1, 9), rng.randint(1, 12))


def mutations(rng, r):
    """Constructed-witness edits: a zeroed, negated or doubled weight,
    mixed-denominator utilities, and two avoidance indices swapped."""
    i = rng.randrange(len(r.weights))
    for factor in (0, -1, 2):
        weights = list(r.weights)
        weights[i] *= factor
        yield dataclasses.replace(r, weights=tuple(weights))
    yield dataclasses.replace(r, utilities={
        b: tuple([mixed(rng, v) + Fraction(rng.randint(0, 1), 7)
                  for v in u]) for b, u in r.utilities.items()})
    keys = list(r.avoid)
    if len(keys) > 1:
        k1, k2 = rng.sample(keys, 2)
        yield dataclasses.replace(
            r, avoid={**r.avoid, k1: r.avoid[k2], k2: r.avoid[k1]})


class TestAgainstFractionReferences:
    def test_constructed_witnesses_and_their_mutations(self):
        rng = random.Random(1010)
        failing = 0
        for _ in range(60):
            tree = splitting_tree(rng, max_nodes=40)
            plan = consistent_plan(rng, tree, n_alts=rng.randint(2, 4))
            r = construct_sceu(tree, plan)
            want = constructed_by_fractions(r)
            assert want[0]
            assert fields(_verify_constructed(r)) == want
            for edited in mutations(rng, r):
                want = constructed_by_fractions(edited)
                assert fields(_verify_constructed(edited)) == want
                failing += not want[0]
        assert failing > 100

    def test_atom_level_witnesses_with_mixed_denominators(self):
        rng = random.Random(2020)
        checked = failing = 0
        while checked < 80:
            if rng.random() < 0.5:
                tree = splitting_tree(rng, max_nodes=16)
                s = tree.as_estructure
                plan = consistent_plan(rng, tree, n_alts=rng.randint(2, 4))
            else:
                s = subset_family_structure(rng, max_universe=4)
                plan = arbitrary_plan(rng, s, max_alts=3)
            result = decide_rationalizable(s, plan)
            if not result.feasible:
                continue
            weights = dict(result.weights)
            if rng.random() < 0.5:
                weights = {z: mixed(rng, w) for z, w in weights.items()}
            utilities = {a: {z: mixed(rng, u) - rng.randint(0, 1)
                             for z, u in t.items()}
                         for a, t in result.utilities.items()}
            for u in (result.utilities, utilities):
                want = weighting_by_fractions(result.system, weights, u)
                got = verify_weighting(result.system, weights, u)
                assert fields(got) == want
                failing += not want[0]
            checked += 1
        assert failing > 20

    def test_certificates_with_mixed_and_zero_multipliers(self):
        rng = random.Random(3030)
        checked = 0
        reasons = set()
        while checked < 80:
            if rng.random() < 0.5:
                tree = splitting_tree(rng, max_nodes=20)
                s = tree.as_estructure
                plan = inconsistent_plan(rng, tree)
            else:
                s = subset_family_structure(rng, max_universe=4)
                plan = arbitrary_plan(rng, s, max_alts=3)
            result = decide_rationalizable(s, plan)
            if result.feasible:
                continue
            system = result.system
            kind = rng.randrange(3)
            certificate = []
            for x, a, m in result.certificate:
                if kind == 0:  # each row split in two parts, one maybe 0
                    f = Fraction(rng.randint(0, 4), rng.randint(4, 11))
                    certificate += [(x, a, m * f), (x, a, m * (1 - f))]
                else:  # all zero, or each row rescaled on its own
                    certificate.append((x, a, 0 if kind == 1
                                        else mixed(rng, m)))
            if rng.random() < 0.3:
                row = rng.choice(system.rows)
                certificate.append((row.state, row.alternative,
                                    Fraction(rng.randint(1, 5), 7)))
            if rng.random() < 0.2:
                certificate.insert(rng.randrange(len(certificate) + 1),
                                   rng.choice([("nowhere", "a", 1),
                                               (system.rows[0].state,
                                                system.rows[0].alternative,
                                                Fraction(-1, 3)),
                                               ("bad",)]))
            want = certificate_by_fractions(system, certificate)
            assert _certificate_failure(system, certificate) == want
            assert _certificate_failure(system, result.certificate) is None
            reasons.add(want.split(" ")[0] if want else None)
            checked += 1
        assert {None, "zero", "combination"} <= reasons


def atom_level(tree, atoms, weights, utilities):
    """Each atom weighs its points' total weight and pays their weighted
    mean payoff, keyed by atom label."""
    labels = tree.canonical.labels
    w, mass = {}, {b: {} for b in utilities}
    for i, k in enumerate(atoms):
        z = labels[k]
        w[z] = w.get(z, 0) + weights[i]
        for b, pays in utilities.items():
            mass[b][z] = mass[b].get(z, 0) + weights[i] * pays[i]
    return w, {b: {z: m / w[z] for z, m in table.items()}
               for b, table in mass.items()}


def test_point_margins_are_rows_of_the_atom_level_system():
    """The margin kernel on a point-level witness and verify_weighting on
    the tree's own system, at the witness summed per atom, give the same
    margins in the same order and the same verdict: on constructed
    witnesses, and with their utilities rescaled and shifted so that
    some margins fail, on spanning and on contained trees."""
    rng = random.Random(6060)
    checked = contained = failing = 0
    for i in range(120):
        if i % 2:
            tree = splitting_tree(rng, max_nodes=16)
        else:  # a tree inside a subset family, not all of it if one is
            found = find_trees(subset_family_structure(rng, max_universe=4))
            if not found:
                continue
            inner = [t for t in found if t.as_estructure is not t.ambient]
            tree = rng.choice(inner or found)
            contained += tree.as_estructure is not tree.ambient
        alts = ("a", "b", "c", "d")[:rng.randint(2, 4)]
        plan = consistent_by_rank(rng, tree, alts)
        r = construct_sceu(tree, plan)
        atoms = [p.atom for p in r.points]
        shifted = {b: [mixed(rng, v) - rng.randint(0, 1) for v in u]
                   for b, u in r.utilities.items()}
        system = build_system(tree.as_estructure, plan)
        for utilities in (r.utilities, shifted):
            got = point_margins(tree, plan, atoms, r.weights, utilities)
            want = verify_weighting(system, *atom_level(
                tree, atoms, r.weights, utilities))
            assert list(got.margins.items()) == list(want.margins.items())
            assert got.verified == want.verified
            failing += not got.verified
        checked += 1
    assert checked > 90 and contained > 20 and failing > 50


def test_margins_print_as_a_dict():
    """The kernel's margins are a read-only view over integer numerators;
    it prints as the dict of Fractions it stands for."""
    system = FeasibilitySystem(("a", "b"), ("w",),
                               (FeasibilityRow("x", "b", ((0, 1), (1, -1))),))
    report = verify_weighting(system, {"w": 1}, {"a": {"w": Fraction(1, 2)}})
    assert report.verified
    assert repr(report.margins) == "{('x', 'b'): Fraction(1, 2)}"


def test_large_denominators_on_a_160_node_tree():
    """Weights with denominators of hundreds of bits: both verdicts, both
    witnesses, and the margins equal the Fraction references."""
    start = time.process_time()
    rng = random.Random(160)
    tree = splitting_tree(rng, max_nodes=160, min_nodes=160)
    s = tree.as_estructure
    good = consistent_plan(rng, tree, n_alts=4)
    bad = inconsistent_plan(rng, tree, n_alts=4)

    result = decide_rationalizable(s, good)
    assert result.feasible and result.path == "tree"
    report = verify_certificate(result.system, result)
    assert report.verified
    assert fields(report) == weighting_by_fractions(
        result.system, result.weights, result.utilities)
    r = construct_sceu(tree, good)
    assert max(w.denominator for w in r.weights).bit_length() > 300
    report = verify_rationalization(s, good, r)
    assert report.verified
    assert fields(report) == constructed_by_fractions(r)

    result = decide_rationalizable(s, bad)
    assert not result.feasible and result.path == "dominance"
    assert verify_certificate(result.system, result).verified
    assert certificate_by_fractions(result.system, result.certificate) is None
    assert time.process_time() - start < 2


@pytest.fixture()
def built(corpus):
    ws = corpus["example_d"]
    block = ws.trees[0]
    tree = build_tree(ws.structure, block.nodes, block.edges)
    return ws.structure, ws.plan, construct_sceu(tree, ws.plan)


@pytest.mark.parametrize("edit", [
    lambda t: {"nodes": None},
    lambda t: {"nodes": list(t.nodes)},
    lambda t: {"nodes": t.nodes + (t.nodes[-1],)},
    lambda t: {"nodes": t.nodes[1:]},
    lambda t: {"nodes": t.nodes + ("not a state",)},
    lambda t: {"nodes": (t.root,), "parent": {}},
    lambda t: {"parent": dict(list(t.parent.items())[1:])},
    lambda t: {"parent": {**t.parent, t.root: t.nodes[1]}},
    lambda t: {"parent": {**t.parent, t.nodes[1]: "elsewhere"}},
    lambda t: {"parent": {**t.parent, t.nodes[1]: t.nodes[2],
                          t.nodes[2]: t.nodes[1]}},
    lambda t: {"parent": None},
    lambda t: {"ambient": None},
], ids=["nodes-None", "nodes-list", "duplicate-node", "root-missing",
        "unknown-node", "root-only", "parent-missing-node", "root-parent",
        "parent-not-a-node", "two-cycle", "parent-None", "ambient-None"])
def test_broken_tree_gives_a_failing_report(built, edit):
    s, plan, r = built
    tree = dataclasses.replace(r.tree, **edit(r.tree))
    report = verify_rationalization(s, plan, dataclasses.replace(r, tree=tree))
    assert report == WitnessReport(False,
                                   failures=("not a well-formed witness",))


def test_edited_parent_maps_give_reports(built):
    """Seeded edits inside a built tree's parent map, each made on a copy,
    since the map itself is read-only, and put back through
    dataclasses.replace: the verifier reports on every one, and verifies
    only a map equal to the one the witness was built on."""
    s, plan, r = built
    rng = random.Random(1616)
    names = [*r.tree.nodes, "elsewhere"]
    values = [*names, None, 0, ("x",)]
    for _ in range(200):
        parent = dict(r.tree.parent)
        for _ in range(rng.randint(1, 3)):
            key = rng.choice(names)
            if key in parent and rng.random() < 0.3:
                del parent[key]
            else:
                parent[key] = rng.choice(values)
        tree = dataclasses.replace(r.tree, parent=parent)
        report = verify_rationalization(s, plan,
                                        dataclasses.replace(r, tree=tree))
        assert isinstance(report, WitnessReport)
        assert report.verified == (parent == r.tree.parent)


def test_tree_whose_own_structure_fails_its_axioms(built):
    """A well-shaped parent map whose tree is a chain: its own structure
    has a state with one refinement, so its canonical space fails."""
    s, plan, r = built
    chain = dict(zip(r.tree.nodes[1:], r.tree.nodes))
    tree = dataclasses.replace(r.tree, parent=chain)
    report = verify_rationalization(s, plan, dataclasses.replace(r, tree=tree))
    assert report == WitnessReport(False,
                                   failures=("not a well-formed witness",))
