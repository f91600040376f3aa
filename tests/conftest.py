"""Shared fixtures and seeded random generators for the test suite.

The generators are designed so validity holds by construction: subset
families over a small universe always satisfy the five structure axioms,
and trees grown by splitting leaves always satisfy all seven tree
conditions. Tests still cross-check both claims against the oracles.
"""
from __future__ import annotations

import itertools
import random

import pytest

from evistruct import (EStructure, ExperimentationTree, Plan, build_tree,
                       emit_fixtures, parse_workspace)
from evistruct.feasibility import _margin_report, _over_lcm, _rows

ALPHABET = ("a", "b", "c", "d")

_CRITERIA: dict[str, tuple[int, str, str]] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "criterion(num, title): one clause of the release checklist")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    mark = item.get_closest_marker("criterion")
    if mark is not None:
        _CRITERIA[item.nodeid] = (mark.args[0], mark.args[1], report.outcome)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    rollup: dict[int, tuple[bool, str]] = {}
    for num, title, outcome in _CRITERIA.values():
        ok, _ = rollup.get(num, (True, title))
        rollup[num] = (ok and outcome == "passed", title)
    terminalreporter.section("release checklist")
    for num in sorted(rollup):
        ok, title = rollup[num]
        terminalreporter.write_line(
            f"criterion {num}: {'PASS' if ok else 'FAIL'} - {title}")


@pytest.fixture(scope="session")
def corpus(tmp_path_factory):
    """The bundled example files, parsed once per session, keyed by stem."""
    directory = tmp_path_factory.mktemp("corpus")
    paths = emit_fixtures(directory)
    return {p.stem: parse_workspace(p.read_text(encoding="utf-8"))
            for p in paths}


def subset_family_structure(rng: random.Random, max_universe: int = 5,
                            keep_prob: float = 0.45,
                            dup_prob: float = 0.2) -> EStructure:
    """Random valid structure: a subset family over a small universe.

    The family always contains the universe (the root) and every
    singleton and is ordered by strict inclusion, which yields all five
    axioms; with probability dup_prob a non-root state gets an
    equivalence twin so eqs classes are exercised.
    """
    k = rng.randint(2, max_universe)
    points = tuple(range(k))
    universe = frozenset(points)
    chosen = [universe] + [frozenset({p}) for p in points]
    for r in range(2, k):
        for combo in itertools.combinations(points, r):
            if rng.random() < keep_prob:
                chosen.append(frozenset(combo))
    label = {s: ("root" if s == universe else
                 "s" + "".join(str(p) for p in sorted(s)))
             for s in chosen}
    pairs = [(label[a], label[b])
             for a in chosen for b in chosen if a < b]
    names = [label[s] for s in chosen]
    for s in chosen:
        if s != universe and rng.random() < dup_prob:
            twin = label[s] + "q"
            names.append(twin)
            pairs.append((twin, label[s]))
            pairs.append((label[s], twin))
    tail = names[1:]
    rng.shuffle(tail)
    return EStructure.from_generators([names[0]] + tail, "root", pairs)


def degraded_structure(rng: random.Random) -> EStructure:
    """A subset family whose relation lost some pairs, either closed again
    (from_generators) or left as it is: not transitive, and at times not
    reflexive or holding strict cycles."""
    s = subset_family_structure(rng, max_universe=4)
    pairs = [p for p in s.relation if rng.random() < 0.8]
    if rng.random() < 0.3:
        return EStructure.from_generators(
            s.states, s.root, [p for p in pairs if p[0] != p[1]])
    pairs += [(y, x) for x, y in pairs if rng.random() < 0.05]
    return EStructure(s.states, s.root, frozenset(pairs))


def subset_lattice(k: int) -> EStructure:
    """Every nonempty subset of k points as a state, smaller sets more
    specific; the full set is the root "s01..." and the k singletons are
    the atoms."""
    sets = [frozenset(c) for r in range(k, 0, -1)
            for c in itertools.combinations(range(k), r)]
    label = {s: "s" + "".join(str(p) for p in sorted(s)) for s in sets}
    covers = [(label[s - {p}], label[s]) for s in sets if len(s) > 1
              for p in s]
    return EStructure.from_generators([label[s] for s in sets],
                                      label[sets[0]], covers)


def splitting_tree(rng: random.Random, max_nodes: int = 40,
                   min_nodes: int = 3) -> ExperimentationTree:
    """Random experimentation tree grown by splitting leaves 2-4 ways."""
    target = rng.randint(min_nodes, max_nodes)
    nodes = ["n0"]
    edges: list[tuple[str, str]] = []
    leaves = ["n0"]
    while len(nodes) + 2 <= target:
        parent = leaves.pop(rng.randrange(len(leaves)))
        width = min(rng.randint(2, 4), target - len(nodes))
        for _ in range(width):
            child = f"n{len(nodes)}"
            nodes.append(child)
            edges.append((child, parent))
            leaves.append(child)
    s = EStructure.from_generators(nodes, "n0", edges)
    return build_tree(s, nodes, edges)


def consistent_plan(rng: random.Random, tree: ExperimentationTree,
                    n_alts: int | None = None) -> Plan:
    """Random total plan on the tree with no dominance violations.

    Built bottom-up: whenever a node's children end up unanimous, the
    node is forced to the same pick, which is exactly the consistency
    condition.
    """
    alts = ALPHABET[:n_alts or rng.randint(2, 4)]
    choice: dict[str, str] = {}
    for x in reversed(tree.nodes):
        kids = tree.children[x]
        picks = {choice[k] for k in kids}
        if len(picks) == 1:
            choice[x] = next(iter(picks))
        else:
            choice[x] = rng.choice(alts)
    return Plan(alts, {x: choice[x] for x in tree.nodes})


def consistent_by_rank(rng: random.Random, tree: ExperimentationTree,
                       alts: tuple[str, ...]) -> Plan:
    """A random total plan with no dominance violations, chosen bottom-up
    by tree rank, so the nodes may come in any order."""
    choice: dict[str, str] = {}
    for x in sorted(tree.nodes, key=tree.rank_in_tree.__getitem__,
                    reverse=True):
        picks = {choice[k] for k in tree.children[x]}
        choice[x] = picks.pop() if len(picks) == 1 else rng.choice(alts)
    return Plan(alts, choice)


def inconsistent_plan(rng: random.Random, tree: ExperimentationTree,
                      n_alts: int | None = None) -> Plan:
    """Random total plan with at least one dominance violation."""
    base = consistent_plan(rng, tree, n_alts)
    alts = base.alternatives
    internal = [x for x in tree.nodes if tree.children[x]]
    z = rng.choice(internal)
    unanimous = rng.choice(alts)
    contrary = rng.choice([a for a in alts if a != unanimous])
    choice = dict(base.choice)
    for k in tree.children[z]:
        choice[k] = unanimous
    choice[z] = contrary
    return Plan(alts, {x: choice[x] for x in tree.nodes})


def arbitrary_plan(rng: random.Random, s: EStructure,
                   max_alts: int = 3, full_prob: float = 0.5) -> Plan:
    """Random plan with arbitrary choices and a random domain."""
    alts = ALPHABET[:rng.randint(2, max_alts)]
    if rng.random() < full_prob:
        domain = list(s.states)
    else:
        size = rng.randint(1, len(s.states))
        domain = rng.sample(list(s.states), size)
        domain = [x for x in s.states if x in set(domain)]
    return Plan(alts, {x: rng.choice(alts) for x in domain})


def dense_rows(system) -> list[list[int]]:
    """Each row of a feasibility system as a dense coefficient list."""
    out = []
    for r in system.rows:
        coeffs = [0] * system.ncols
        for j, c in r.terms:
            coeffs[j] = c
        out.append(coeffs)
    return out


def point_margins(tree, plan, atoms, weights, utilities):
    """The margin kernel on a point-level witness on a tree: point i in
    the tree's atom atoms[i], with weight weights[i] and payoff
    utilities[b][i] under alternative b."""
    space = tree.canonical
    return _margin_report(_rows(space, plan), len(space.atoms), atoms,
                          *_over_lcm(weights),
                          [utilities[b] for b in plan.alternatives])
