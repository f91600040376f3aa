"""Tests of the benchmark's own parts.

    PYTHONPATH=src python3 -m pytest perfbench -q

They pin the generator copies to the test suite's generators, and check
that the independent checker, the tree-count oracle, the golden table and
the tracer do what the benchmark relies on.
"""
from __future__ import annotations

import gc
import importlib.util
import json
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import evistruct
import check
import gen
import worker
import workloads
from spans import SPAN_NAMES, Tracer
from workloads import GOLDEN, WORKLOADS, cli_commands, command_key

SUITE = Path(__file__).resolve().parent.parent / "tests" / "conftest.py"


@pytest.fixture(scope="module")
def suite():
    """The test suite's generators, loaded without registering them as a
    pytest plugin."""
    spec = importlib.util.spec_from_file_location("suite_generators", SUITE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _criterion6(generators):
    """The release checklist's criterion-6 draws: 100 trees of up to 40
    nodes with consistent plans, then 100 with inconsistent ones."""
    rng = random.Random(20260819)
    out = []
    for make in (generators.consistent_plan, generators.inconsistent_plan):
        for _ in range(100):
            tree = generators.splitting_tree(rng, max_nodes=40)
            out.append((tree, make(rng, tree, n_alts=rng.randint(2, 4))))
    return out


def test_seed_20260819_reproduces_criterion_6(suite):
    want = [(tree.nodes,
             tuple((x, tree.parent[x]) for x in tree.nodes if x != tree.root),
             plan.alternatives, dict(plan.choice))
            for tree, plan in _criterion6(suite)]
    got = [(tree.nodes, tree.edges, plan.alternatives, plan.choice)
           for tree, plan in _criterion6(gen)]
    assert got == want


def test_family_generators_match_the_suite(suite):
    theirs, ours = random.Random(42), random.Random(42)
    for _ in range(60):
        s = suite.subset_family_structure(theirs, max_universe=5)
        plan = suite.arbitrary_plan(theirs, s, max_alts=3)
        family = gen.subset_family_structure(ours, max_universe=5)
        mine = gen.arbitrary_plan(ours, family.states, max_alts=3)
        built = evistruct.EStructure.from_generators(
            family.states, family.root, family.pairs)
        assert built == s
        assert (mine.alternatives, mine.choice) == (plan.alternatives,
                                                   dict(plan.choice))


def _tree_case(seed, consistent):
    rng = random.Random(seed)
    tree = gen.splitting_tree(rng, max_nodes=9, min_nodes=9)
    make = gen.consistent_plan if consistent else gen.inconsistent_plan
    plan = make(rng, tree, n_alts=3)
    s = evistruct.EStructure.from_generators(tree.nodes, tree.root,
                                             tree.edges)
    result = evistruct.decide_rationalizable(
        s, evistruct.Plan(plan.alternatives, plan.choice))
    return tree.leaves_under(), plan, result


def test_checker_accepts_and_rejects_certificates():
    under, plan, result = _tree_case(3, consistent=False)
    assert not result.feasible
    args = (under, plan.alternatives, plan.choice)
    assert check.check_result(*args, result) is None
    scaled = tuple((x, a, 3 * m) for x, a, m in result.certificate)
    assert check.check_farkas(*args, scaled) is None
    negative = ((result.certificate[0][0], result.certificate[0][1],
                 Fraction(-1)),) + result.certificate[1:]
    assert check.check_farkas(*args, negative) is not None
    assert check.check_farkas(*args, ()) is not None
    assert check.check_farkas(*args, result.certificate[:1]) is not None
    assert check.check_farkas(*args, (("n0", "zz", Fraction(1)),)) is not None


def test_checker_accepts_and_rejects_weightings():
    under, plan, result = _tree_case(4, consistent=True)
    assert result.feasible
    args = (under, plan.alternatives, plan.choice)
    assert check.check_result(*args, result) is None
    atom = next(iter(result.weights))
    heavier = dict(result.weights)
    heavier[atom] += 1
    assert check.check_result(*args, replace(result, weights=heavier))
    flat = {a: {lab: Fraction(0) for lab in table}
            for a, table in result.utilities.items()}
    assert check.check_result(*args, replace(result, utilities=flat))
    relabelled = {lab + "x": w for lab, w in result.weights.items()}
    assert check.check_result(*args, replace(result, weights=relabelled))


def test_checker_accepts_and_rejects_constructed_witnesses():
    rng = random.Random(5)
    tree = gen.splitting_tree(rng, max_nodes=12, min_nodes=12)
    plan = gen.consistent_plan(rng, tree, n_alts=3)
    s = evistruct.EStructure.from_generators(tree.nodes, tree.root,
                                             tree.edges)
    t = evistruct.build_tree(s, tree.nodes, tree.edges)
    r = evistruct.construct_sceu(
        t, evistruct.Plan(plan.alternatives, plan.choice))
    leaves = [leaf for leaf, _ in r.point_labels]
    args = (tree.leaves_under(), plan.alternatives, plan.choice, leaves)
    assert check.check_product_witness(*args, r.weights, r.utilities) is None
    swapped = {a: tuple(1 - u for u in us) for a, us in r.utilities.items()}
    assert check.check_product_witness(*args, r.weights, swapped)
    assert check.check_product_witness(*args, r.weights[:-1], r.utilities)


def test_pruning_count_matches_find_trees():
    rng = random.Random(7)
    for _ in range(40):
        tree = gen.splitting_tree(rng, max_nodes=11, min_nodes=5)
        s = evistruct.EStructure.from_generators(tree.nodes, tree.root,
                                                 tree.edges)
        expected = check.pruning_count(tree.children(), tree.root) - 1
        assert len(evistruct.find_trees(s)) == expected


def test_family_oracles_match_the_package():
    rng = random.Random(11)
    for _ in range(40):
        family = gen.subset_family_structure(rng, max_universe=5)
        plan = gen.arbitrary_plan(rng, family.states, max_alts=3)
        s = evistruct.EStructure.from_generators(
            family.states, family.root, family.pairs)
        assert dict(evistruct.rank(s).rho) == check.family_rank(
            family.events, family.root)
        report = evistruct.check_isd_plan(
            s, evistruct.Plan(plan.alternatives, plan.choice))
        assert set(report.violations) == check.family_isd_violations(
            family.events, plan.choice)


def test_golden_table_covers_every_command():
    table = json.loads(GOLDEN.read_text(encoding="utf-8"))
    keys = [command_key(argv) for argv in cli_commands()]
    assert len(keys) == len(set(keys)) == 84
    assert set(table) == set(keys)
    assert all(v["exit"] in (0, 1, 2) for v in table.values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    first = WORKLOADS[name](7, tmp_path / "a")
    second = WORKLOADS[name](7, tmp_path / "b")
    other = WORKLOADS[name](8, tmp_path / "c")
    assert first.cases == second.cases
    assert first.cases != other.cases


def test_tracer_nests_spans_and_restores_functions(tmp_path):
    original = evistruct.feasibility.build_canonical
    tracer = Tracer()
    tracer.install()
    try:
        assert evistruct.feasibility.build_canonical is not original
        tracer.op = 0
        rng = random.Random(2)
        tree = gen.splitting_tree(rng, max_nodes=8, min_nodes=8)
        plan = gen.inconsistent_plan(rng, tree, n_alts=2)
        s = evistruct.EStructure.from_generators(tree.nodes, tree.root,
                                                 tree.edges)
        evistruct.decide_rationalizable(
            s, evistruct.Plan(plan.alternatives, plan.choice))
    finally:
        tracer.uninstall()
    assert evistruct.feasibility.build_canonical is original
    summary = tracer.summary(ops=1)
    assert set(f"{n}.calls" for n in SPAN_NAMES) <= set(summary)
    assert summary["feasibility.decide_rationalizable.calls"] == 1
    assert summary["feasibility.build_system.calls"] == 1
    assert summary["canonical.build_canonical.calls"] == 1
    # decide_system re-checks its own answer through verify_certificate
    assert summary["feasibility.verify_certificate.calls"] == 1
    names = [SPAN_NAMES[k] for k in tracer.names]
    parent = {SPAN_NAMES[tracer.names[i]]: tracer.parents[i]
              for i in range(len(names))}
    assert names[parent["feasibility.build_system"]] == \
        "feasibility.decide_rationalizable"
    assert names[parent["canonical.build_canonical"]] == \
        "feasibility.build_system"
    total = sum(tracer.ends[i] - tracer.starts[i]
                for i in range(len(names)) if tracer.parents[i] < 0)
    self_total = sum(v for k, v in summary.items() if k.endswith("self_ms"))
    assert self_total == pytest.approx(1000.0 * total, rel=1e-6)
    tracer.write(tmp_path / "spans.tsv")
    lines = (tmp_path / "spans.tsv").read_text().splitlines()
    assert lines[0] == "name\tstart\tend\tparent\top"
    assert [line.split("\t")[0] for line in lines[1:]] == names


def test_traced_run_writes_its_spans(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(workloads, "WORK", tmp_path)
    monkeypatch.setattr(worker, "WORK", tmp_path)
    argv = ["--workload", "tree-search", "--seed", "1", "--seconds", "2",
            "--trace", "1"]
    try:
        assert worker.main(argv) == 0
    finally:
        gc.unfreeze()  # the worker freezes its inputs, here the test's
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert report["failed"] == 0
    ops = report["metrics"]["trace.ops"]
    assert ops >= 1
    lines = (tmp_path / "spans-tree-search-1.tsv").read_text().splitlines()
    finds = [line for line in lines if line.startswith("trees.find_trees\t")]
    assert len(finds) == ops
    assert [p.name for p in tmp_path.iterdir()] == ["spans-tree-search-1.tsv"]
