"""Seeded input generators that emit plain data only.

These are copies of the generators in ``tests/conftest.py``. They make the
same draws from ``random.Random`` in the same order, so a seed yields the
same trees, structures and plans as the test suite, but they return node
lists, edge pairs, subset maps and choice dicts instead of package
objects. The benchmark hands this data to the package inside each timed
op, and keeps the generator's own view (children, events) for checking
the answers.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

ALPHABET = ("a", "b", "c", "d")


@dataclass(frozen=True)
class PlainTree:
    """A splitting tree: nodes in creation order, child -> parent edges."""

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    @property
    def root(self) -> str:
        return self.nodes[0]

    def children(self) -> dict[str, tuple[str, ...]]:
        kids: dict[str, list[str]] = {x: [] for x in self.nodes}
        for c, p in self.edges:
            kids[p].append(c)
        return {x: tuple(v) for x, v in kids.items()}

    def leaves_under(self) -> dict[str, frozenset[str]]:
        """Each node's event: the leaves at or below it."""
        kids = self.children()
        below: dict[str, frozenset[str]] = {}
        for x in reversed(self.nodes):
            below[x] = (frozenset().union(*(below[k] for k in kids[x]))
                        if kids[x] else frozenset({x}))
        return below


@dataclass(frozen=True)
class PlainFamily:
    """A subset-family structure: each state names a subset of points."""

    states: tuple[str, ...]
    root: str
    pairs: tuple[tuple[str, str], ...]
    events: dict[str, frozenset[int]]


@dataclass(frozen=True)
class PlainPlan:
    alternatives: tuple[str, ...]
    choice: dict[str, str]


def subset_family_structure(rng: random.Random, max_universe: int = 5,
                            keep_prob: float = 0.45,
                            dup_prob: float = 0.2,
                            min_universe: int = 2) -> PlainFamily:
    """Subset family over a small universe, ordered by strict inclusion.

    Always holds the universe (the root) and every singleton; with
    probability dup_prob a non-root state gets an equivalence twin.
    min_universe only narrows the first draw; at its default the draws
    match the suite's generator.
    """
    k = rng.randint(min_universe, max_universe)
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
    events = {label[s]: s for s in chosen}
    for s in chosen:
        if s != universe and rng.random() < dup_prob:
            twin = label[s] + "q"
            names.append(twin)
            events[twin] = s
            pairs.append((twin, label[s]))
            pairs.append((label[s], twin))
    tail = names[1:]
    rng.shuffle(tail)
    return PlainFamily(tuple([names[0]] + tail), "root", tuple(pairs), events)


def splitting_tree(rng: random.Random, max_nodes: int = 40,
                   min_nodes: int = 3) -> PlainTree:
    """Tree grown by splitting random leaves 2-4 ways."""
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
    return PlainTree(tuple(nodes), tuple(edges))


def consistent_plan(rng: random.Random, tree: PlainTree,
                    n_alts: int | None = None) -> PlainPlan:
    """Total plan with no dominance violation, built bottom-up."""
    alts = ALPHABET[:n_alts or rng.randint(2, 4)]
    kids = tree.children()
    choice: dict[str, str] = {}
    for x in reversed(tree.nodes):
        picks = {choice[k] for k in kids[x]}
        if len(picks) == 1:
            choice[x] = next(iter(picks))
        else:
            choice[x] = rng.choice(alts)
    return PlainPlan(alts, {x: choice[x] for x in tree.nodes})


def inconsistent_plan(rng: random.Random, tree: PlainTree,
                      n_alts: int | None = None) -> PlainPlan:
    """Total plan with at least one dominance violation."""
    base = consistent_plan(rng, tree, n_alts)
    alts = base.alternatives
    kids = tree.children()
    internal = [x for x in tree.nodes if kids[x]]
    z = rng.choice(internal)
    unanimous = rng.choice(alts)
    contrary = rng.choice([a for a in alts if a != unanimous])
    choice = dict(base.choice)
    for k in kids[z]:
        choice[k] = unanimous
    choice[z] = contrary
    return PlainPlan(alts, {x: choice[x] for x in tree.nodes})


def arbitrary_plan(rng: random.Random, states: tuple[str, ...],
                   max_alts: int = 3, full_prob: float = 0.5,
                   min_alts: int = 2) -> PlainPlan:
    """Plan with arbitrary choices over a random domain.

    min_alts only narrows the first draw; at its default the draws match
    the suite's generator.
    """
    alts = ALPHABET[:rng.randint(min_alts, max_alts)]
    if rng.random() < full_prob:
        domain = list(states)
    else:
        size = rng.randint(1, len(states))
        domain = rng.sample(list(states), size)
        domain = [x for x in states if x in set(domain)]
    return PlainPlan(alts, {x: rng.choice(alts) for x in domain})

