"""Brute-force reference implementations used to pin expected test values.

Everything in this module favors directness over speed and is written
against plain data (state ids as strings, relations as sets of pairs,
rationals as fractions.Fraction). Nothing here imports the package under
test; the test modules cross-check package output against these.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product


# ---------------------------------------------------------------------------
# relation plumbing
# ---------------------------------------------------------------------------

def closure(states, pairs):
    """Reflexive-transitive closure of generator pairs over `states`.

    Returns a set of (x, y) meaning "x is weakly more specific than y".
    """
    states = list(states)
    rel = {(x, x) for x in states}
    rel.update((a, b) for a, b in pairs)
    changed = True
    while changed:
        changed = False
        for a, b in list(rel):
            for c, d in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    return rel


def sms_pairs(rel):
    return {(x, y) for (x, y) in rel if (y, x) not in rel}


def eqs_pairs(rel):
    return {(x, y) for (x, y) in rel if (y, x) in rel}


def immms_pairs(states, rel):
    strict = sms_pairs(rel)
    out = set()
    for x, z in strict:
        if not any((x, y) in strict and (y, z) in strict for y in states):
            out.add((x, z))
    return out


def children_of(states, rel, z):
    """Y(z): states immediately more specific than z."""
    return {x for (x, zz) in immms_pairs(states, rel) if zz == z}


def maximal_states(states, rel):
    strict = sms_pairs(rel)
    return [x for x in states if not any((w, x) in strict for w in states)]


def incompatible(states, rel, x, y):
    """No common refinement: nothing is weakly more specific than both."""
    return not any((w, x) in rel and (w, y) in rel for w in states)


def check_axioms_oracle(states, root, rel):
    """Direct quantifier evaluation of the five axioms. Returns dict id -> bool."""
    states = list(states)
    strict = sms_pairs(rel)
    # (1) preorder: closure construction guarantees reflexive+transitive;
    # well-foundedness = no sms-cycle, automatic since sms is a strict order
    # on the finite quotient; still check reflexivity/transitivity directly.
    reflexive = all((x, x) in rel for x in states)
    transitive = all(
        (a, d) in rel
        for (a, b) in rel
        for (c, d) in rel
        if b == c
    )
    acyclic = all(not ((x, y) in strict and (y, x) in strict)
                  for x in states for y in states)
    ax1 = reflexive and transitive and acyclic
    # (2) every non-root state strictly more specific than root; >= 2 states
    ax2 = len(states) >= 2 and all(
        (x, root) in strict for x in states if x != root)
    # (3) every sms pair has an immediate step off its specific end
    imm = immms_pairs(states, rel)
    ax3 = all(
        any((x, y) in imm and (y, z) in rel for y in states)
        for (x, z) in strict
    )
    # (4) finite immediate-refinement sets: trivial on finite carriers
    ax4 = all(len(children_of(states, rel, z)) <= len(states) for z in states)
    # (5) separation: not(x wms z) implies some y wms x with y incompat z
    ax5 = all(
        any((y, x) in rel and incompatible(states, rel, y, z) for y in states)
        for x in states for z in states
        if (x, z) not in rel
    )
    return {"preorder": ax1, "root": ax2, "intermediacy": ax3,
            "finite_branching": ax4, "separation": ax5}


def rank_oracle(states, root, rel):
    """Shortest immms-chain length to root, by breadth-first search."""
    imm = immms_pairs(states, rel)
    dist = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for y in frontier:
            for (x, z) in imm:
                if z == y and x not in dist:
                    dist[x] = dist[y] + 1
                    nxt.append(x)
        frontier = nxt
    return dist


def rank_chains_oracle(states, root, rel):
    """Each ranked state's witness chain: the state, then the chain of
    its earliest-declared immediate generalization one rank lower."""
    rho = rank_oracle(states, root, rel)
    imm = immms_pairs(states, rel)
    chains = {root: (root,)}
    for x in sorted(rho, key=rho.get):  # lower ranks first
        if x != root:
            step = next(y for y in states
                        if (x, y) in imm and rho.get(y) == rho[x] - 1)
            chains[x] = (x,) + chains[step]
    return chains


def level_set_oracle(states, root, rel, n):
    dist = rank_oracle(states, root, rel)
    return {x for x, d in dist.items() if d <= n}



# ---------------------------------------------------------------------------
# set-based reference copies of the package's relation core
#
# derive_relations_by_sets, check_axioms_by_sets and verify_canonical_by_sets
# are the tuple-lookup loops the package ran before it stored the relation
# as one bitmask per state. They return plain data: verdicts as
# (condition, passed, witness) triples in check order, so a test can
# compare whole reports, witnesses included.
# ---------------------------------------------------------------------------

def _first_in_order(states, found):
    """The found witness earliest in declaration order (not hash order)."""
    position = {x: i for i, x in enumerate(states)}
    return min(found, key=lambda w: [position[x] for x in w], default=None)


def derive_relations_by_sets(states, rel):
    """sms, eqs, immms, immed_sets, parents and incompat, from pair sets."""
    sms = frozenset([(x, y) for (x, y) in rel if (y, x) not in rel])
    below = {x: set() for x in states}
    for x, y in sms:
        below[x].add(y)
    parents = {}
    immed = {z: [] for z in states}
    for x in states:
        between = set().union(*[below[y] for y in below[x]])
        parents[x] = tuple([z for z in states
                            if z in below[x] and z not in between])
        for z in parents[x]:
            immed[z].append(x)
    refiners = {y: set() for y in states}
    for w, y in rel:
        refiners[y].add(w)
    incompat = frozenset([(x, y) for x in refiners for y in refiners
                          if refiners[x].isdisjoint(refiners[y])])
    return {"sms": sms, "eqs": frozenset(rel) - sms,
            "immms": frozenset([(x, z) for x in states for z in parents[x]]),
            "immed_sets": {z: tuple(kids) for z, kids in immed.items()},
            "parents": parents, "incompat": incompat}


def check_axioms_by_sets(states, root, rel):
    """The five axiom verdicts with witnesses, as (id, passed, witness)."""
    d = derive_relations_by_sets(states, rel)
    verdicts = []

    witness = None
    for x in states:
        if (x, x) not in rel:
            witness = ("not reflexive", x)
            break
    if witness is None:
        found = _first_in_order(states, (
            (a, b, c) for a, b in rel for c in states
            if (b, c) in rel and (a, c) not in rel))
        witness = ("not transitive", *found) if found else None
    verdicts.append(("preorder", witness is None, witness))

    witness = None
    if len(states) < 2:
        witness = ("fewer than two states",)
    else:
        for x in states:
            if x != root and (x, root) not in d["sms"]:
                witness = (x,)
                break
    verdicts.append(("root", witness is None, witness))

    witness = _first_in_order(states, ((x, z) for x, z in d["sms"] if not any(
        (y, z) in rel for y in d["parents"][x])))
    verdicts.append(("intermediacy", witness is None, witness))

    verdicts.append(("finite_branching", True, None))

    witness = None
    for x in states:
        for z in states:
            if (x, z) in rel:
                continue
            if not any((y, x) in rel and (y, z) in d["incompat"]
                       for y in states):
                witness = (x, z)
                break
        if witness:
            break
    verdicts.append(("separation", witness is None, witness))
    return verdicts


# ---------------------------------------------------------------------------
# canonical space
# ---------------------------------------------------------------------------

def atoms_oracle(states, rel):
    """Equivalence classes of maximal states, ordered by first declaration."""
    states = list(states)
    eqs = eqs_pairs(rel)
    maxs = maximal_states(states, rel)
    classes = []
    seen = set()
    for m in maxs:
        if m in seen:
            continue
        cls = tuple(x for x in states if (x, m) in eqs and (m, x) in eqs and x in maxs)
        seen.update(cls)
        classes.append(cls)
    return classes


def event_oracle(states, rel, atoms, x):
    """Indices of atoms whose members are weakly more specific than x."""
    return frozenset(
        i for i, cls in enumerate(atoms) if (cls[0], x) in rel)


def event_space_two_pass(states, up, refiners, immed_sets):
    """The canonical atoms, events, event masks and atom signatures as the
    package built them before one pass over the (atom, state) incidences
    filled the masks and the events together: first every state's mask
    over the atoms' signatures (the up row of the class's first member),
    then each mask decoded, low bit first, into its frozenset. up and
    refiners are the bit rows by declaration index, immed_sets each
    state's immediate refinements."""
    def bits(mask):
        return [i for i in range(mask.bit_length()) if mask >> i & 1]

    maximal = sum([1 << i for i, x in enumerate(states) if not immed_sets[x]])
    classes, assigned = [], 0
    for m in bits(maximal):
        if not assigned >> m & 1:
            classes.append(maximal & up[m] & refiners[m] | 1 << m)
            assigned |= classes[-1]
    signature = [up[bits(cls)[0]] for cls in classes]
    masks = [0] * len(states)
    for i, sig in enumerate(signature):
        for x in bits(sig):
            masks[x] |= 1 << i
    atoms = tuple([tuple([states[x] for x in bits(cls)]) for cls in classes])
    events = {x: frozenset(bits(mask)) for x, mask in zip(states, masks)}
    return atoms, events, masks, signature


def field_oracle(event_sets, universe):
    """Field of sets generated by `event_sets` over frozenset `universe`."""
    field = {frozenset(), frozenset(universe)}
    field.update(frozenset(e) for e in event_sets)
    changed = True
    while changed:
        changed = False
        for a in list(field):
            comp = frozenset(universe) - a
            if comp not in field:
                field.add(comp)
                changed = True
            for b in list(field):
                for c in (a | b, a & b):
                    if c not in field:
                        field.add(c)
                        changed = True
    return field


def product_embedding(states, events):
    """The event map crossed with the states: x goes to events[x] x
    states, over the point universe atoms x states. An embedding that is
    not the canonical event map, for verify_embedding to pass."""
    return {x: frozenset((i, y) for i in events[x] for y in states)
            for x in states}


CANONICAL_CONDITIONS = ("top", "monotone", "disjoint", "base", "principal",
                        "nonempty")


def verify_canonical_by_sets(states, root, rel, atoms, events):
    """The six canonical-space verdicts with witnesses, as
    (id, passed, witness), for atoms (tuples of state ids) and events
    (state -> set of atom indices) that give every state a set."""
    ev = events
    incompat = derive_relations_by_sets(states, rel)["incompat"]
    full = frozenset(range(len(atoms)))
    verdicts = []

    witness = None
    if ev[root] != full:
        witness = (root, tuple(sorted(ev[root])))
    verdicts.append(("top", witness is None, witness))

    witness = None
    for x in states:
        for y in states:
            if ((x, y) in rel) != (ev[x] <= ev[y]):
                witness = (x, y)
                break
        if witness:
            break
    verdicts.append(("monotone", witness is None, witness))

    witness = None
    for x in states:
        for y in states:
            if ((x, y) in incompat) != (not (ev[x] & ev[y])):
                witness = (x, y)
                break
        if witness:
            break
    verdicts.append(("disjoint", witness is None, witness))

    signature = {i: frozenset(x for x in states if i in ev[x])
                 for i in range(len(atoms))}
    cells = {}
    for i, sig in signature.items():
        cells.setdefault(sig, set()).add(i)

    witness = None
    for cell in sorted(cells.values(), key=sorted):
        member = frozenset(cell)
        if not any(ev[x] <= member for x in states):
            witness = (tuple(sorted(member)),)
            break
    verdicts.append(("base", witness is None, witness))

    witness = None
    for i in range(len(atoms)):
        if len(cells[signature[i]]) != 1:
            witness = ("|".join(atoms[i]),)
            break
    verdicts.append(("principal", witness is None, witness))

    witness = None
    for x in states:
        if not ev[x]:
            witness = (x,)
            break
    verdicts.append(("nonempty", witness is None, witness))
    return verdicts


def verify_embedding_by_sets(states, root, rel, mapping):
    """verify_embedding's verdicts and witnesses, comparing the mapped
    sets pair by pair in declaration order."""
    d = derive_relations_by_sets(states, rel)
    kids = d["immed_sets"]
    universe = frozenset().union(*mapping.values())
    witnesses = [
        (root,) if mapping[root] != universe else next(
            ((x, y) for x in states for y in states
             if ((x, y) in rel) != (mapping[x] <= mapping[y])), None),
        next(((x, y) for x in states for y in states
              if (x, y) in d["incompat"] and mapping[x] & mapping[y]), None),
        next(((z,) for z in states if kids[z] and mapping[z]
              != frozenset().union(*[mapping[x] for x in kids[z]])), None),
    ]
    return [(c, w is None, w)
            for c, w in zip(("order", "disjoint", "saturation"), witnesses)]


# ---------------------------------------------------------------------------
# trees
# ---------------------------------------------------------------------------

TREE_CONDITIONS = ("t-root", "t-order", "t-parent", "t-immediate",
                   "t-branching", "t-incompat", "t-unbiased")


def check_tree_oracle(states, root, rel, nodes, edges):
    """Direct evaluation of the seven conditions. Returns set of failing ids."""
    nodes = list(nodes)
    edges = set(edges)
    failed = set()
    if root not in nodes or len(nodes) < 2:
        failed.add("t-root")
    order = closure(nodes, edges)           # the tree preorder
    if not all(p in rel for p in order):
        failed.add("t-order")
    strict = sms_pairs(order)
    timm = immms_pairs(nodes, order)
    for x in nodes:
        if x == root:
            continue
        if len([y for (xx, y) in timm if xx == x]) != 1:
            failed.add("t-parent")
    ambient_imm = immms_pairs(states, rel)
    if not all(p in ambient_imm for p in timm):
        failed.add("t-immediate")
    maximal_in_t = {x for x in nodes
                    if not any((w, x) in strict for w in nodes)}
    for x in nodes:
        if x in maximal_in_t:
            continue
        kids = [y for (y, xx) in timm if xx == x]
        if len(kids) < 2:
            failed.add("t-branching")
        for y, z in combinations(kids, 2):
            if not incompatible(states, rel, y, z):
                failed.add("t-incompat")
    ambient_strict = sms_pairs(rel)
    for x in nodes:
        if x in maximal_in_t:
            continue
        kids = [y for (y, xx) in timm if xx == x]
        for z in states:
            if (z, x) not in ambient_strict:
                continue
            ok = any((v, z) in rel and (v, w) in rel
                     for v in states for w in kids)
            if not ok:
                failed.add("t-unbiased")
    return failed


def check_tree_by_pairs(states, root, rel, nodes, edges):
    """check_tree with its witnesses, on pair sets: the tree order is the
    closure of the edges, whatever their shape, and the tree's immediate
    predecessors and children are derived from that order.

    Returns the verdicts as (condition, passed, witness) triples, in
    TREE_CONDITIONS order, and each node's immediate tree predecessors.
    """
    nodes = list(nodes)
    ambient = derive_relations_by_sets(states, rel)
    incompat = ambient["incompat"]
    order = closure(nodes, edges)
    tree = derive_relations_by_sets(nodes, order)
    parents, kids = tree["parents"], tree["immed_sets"]
    witnesses = [
        ("root missing",) if root not in nodes
        else ("fewer than two nodes",) if len(nodes) < 2 else None,
        next(((x, y) for x, y in sorted(order) if (x, y) not in rel), None),
        next(((x, len(parents[x])) for x in nodes
              if x != root and len(parents[x]) != 1), None),
        next(((x, z) for x, z in sorted((x, z) for x in nodes
                                        for z in parents[x])
              if z not in ambient["parents"][x]), None),
        next(((x, 1) for x in nodes if len(kids[x]) == 1), None),
        next(((x, y, z) for z in nodes for x, y in combinations(kids[z], 2)
              if (x, y) not in incompat), None),
        next(((z, x) for x in nodes if kids[x] for z in states
              if (z, x) in ambient["sms"]
              and all((z, w) in incompat for w in kids[x])), None),
    ]
    verdicts = [(c, w is None, w) for c, w in zip(TREE_CONDITIONS, witnesses)]
    return verdicts, parents


def enumerate_trees_oracle(states, root, rel, limit=None):
    """All (nodes, edges) passing the seven conditions; exhaustive with the
    one sound pruning that parents must be ambient-immms (necessary by
    t-immediate)."""
    states = list(states)
    ambient_imm = immms_pairs(states, rel)
    others = [s for s in states if s != root]
    found = []
    for r in range(1, len(others) + 1):
        for extra in combinations(others, r):
            node_set = [root] + list(extra)
            choices = []
            feasible = True
            for x in extra:
                parents = [y for y in node_set
                           if (x, y) in ambient_imm]
                if not parents:
                    feasible = False
                    break
                choices.append((x, parents))
            if not feasible:
                continue
            def assignments(i, acc):
                if i == len(choices):
                    yield tuple(acc)
                    return
                x, parents = choices[i]
                for p in parents:
                    yield from assignments(i + 1, acc + [(x, p)])
            for edges in assignments(0, []):
                if not check_tree_oracle(states, root, rel, node_set, edges):
                    found.append((tuple(node_set), frozenset(edges)))
                    if limit is not None and len(found) >= limit:
                        return found
    return found


def find_trees_by_subsets(states, root, rel, passes):
    """Every (nodes, edges) candidate that `passes`, in the order the
    package documents for find_trees: node subsets by size then
    declaration order, then parent choices in declaration order.

    The brute-force search find_trees once ran: every subset of non-root
    states crossed with every choice of ambient immediate parent inside
    it. `passes(nodes, edges)` decides a candidate; edges run child ->
    parent in node order.
    """
    states = list(states)
    immms = immms_pairs(states, rel)
    others = [x for x in states if x != root]
    found = []
    for size in range(1, len(others) + 1):
        for subset in combinations(others, size):
            members = set(subset) | {root}
            nodes = tuple(x for x in states if x in members)
            candidates = [[p for p in states if p in members
                           and (x, p) in immms] for x in subset]
            for assign in product(*candidates):
                edges = tuple(zip(subset, assign))
                if passes(nodes, edges):
                    found.append((nodes, edges))
    return found


def tree_at_by_shape(trees, s, order, edges, judged=None):
    """The seven-condition entry on ambient indices (trees._tree_at) as
    it ran when every tree-shaped edge list had its shape read before
    the kernel ran: _shape gives the parent map and top-down order, and
    the kernel checks the conditions on that order. Any other list
    takes the row closure of its edges. Returns the report and the
    passed tree, or None.

    trees is the package's tree module, handed in, so that this module
    imports nothing of the package; judged is the kernel's memo, a new
    one when not given.
    """
    d, root = s.derived, s.root
    r = trees._root_index(s)
    shape, parent, top_down = trees._shape(order, edges, r)
    if shape.is_tree and top_down:
        report, up = trees._tree_verdict(d, r, order, parent, top_down,
                                         {} if judged is None else judged)
        if up is None:
            return report, None
        return report, trees._passed(s, order, parent, top_down, up)
    states = d.states
    nodes = tuple([states[i] for i in order])
    local = {x: i for i, x in enumerate(nodes)}
    t = trees.EStructure._seeded(nodes, root, trees._closed_rows(
        local, [(states[c], states[p]) for c, p in edges]), local)
    parents, immed = t.derived.parents, t.derived.immed_sets
    t_root = (("root missing",) if r is None or root not in local else
              ("fewer than two nodes",) if len(nodes) < 2 else None)
    t_order = min(t.relation - s.relation, default=None)
    t_parent = next(((x, len(parents[x])) for x in nodes
                     if x != root and len(parents[x]) != 1), None)
    t_immediate = min([(x, z) for x in nodes for z in parents[x]
                       if z not in d.parents[x]], default=None)
    kids = {i: sum([1 << d.index[k] for k in immed[x]])
            for i, x in zip(order, nodes)}
    witnesses = [t_root, t_order, t_parent, t_immediate,
                 *trees._judge_nodes(d, order, kids, {})]
    report = trees._condition_report(trees.TREE_CONDITION_IDS, witnesses)
    if any(witnesses):
        return report, None
    return report, trees.ExperimentationTree._adopt(
        s, nodes, {x: parents[x][0] for x in nodes if x != root})


def find_trees_by_shape(trees, s):
    """find_trees as it ran when each grown tree had its shape read
    before the kernel ran: the same growth, then every grown tree,
    ranked by node count and node indices, checked by tree_at_by_shape
    with one memo for the search. trees is the package's tree module."""
    d, root = s.derived, trees._root_index(s)
    if root is None:
        return ()
    grown = trees._grow(root, trees._child_sets(d), len(s.states) - 1)
    ranked = sorted([(sorted([root, *parent]), parent) for parent in grown],
                    key=lambda tree: (len(tree[0]), tree[0]))
    judged, found = {}, []
    for order, parent in ranked:
        report, tree = tree_at_by_shape(trees, s, order, parent.items(),
                                        judged)
        if tree is None:
            raise trees.TreeError("a grown tree fails "
                                  + ", ".join(report.failed_ids))
        found.append(tree)
    return tuple(found)


def pruning_count(states, root, rel):
    """Subtrees that keep the root and, at every kept node, either none
    or all of its immediate refinements: P(x) = 1 at a maximal state,
    else 1 + the product of P over them. On a structure that is itself a
    tree of splits, these are its experimentation trees plus the root
    alone."""
    immms = immms_pairs(states, rel)

    def count(x):
        ways = 1
        kids = [y for y, z in immms if z == x]
        for k in kids:
            ways *= count(k)
        return 1 + ways if kids else 1

    return count(root)


def graph_tree_oracle(nodes, edges, root):
    """(connected, acyclic) of the undirected parent graph, plus a cycle
    witness when one exists."""
    adj = {n: set() for n in nodes}
    for c, p in edges:
        adj[c].add(p)
        adj[p].add(c)
    seen = {root}
    stack = [(root, None)]
    cycle = None
    while stack:
        n, parent = stack.pop()
        for m in adj[n]:
            if m == parent:
                continue
            if m in seen:
                cycle = (n, m)
            else:
                seen.add(m)
                stack.append((m, n))
    connected = seen == set(nodes)
    return connected, cycle is None, cycle


def branches_oracle(nodes, parent, root):
    """Root-to-leaf node lists, one per leaf (node that is nobody's parent)."""
    kids = {n: [] for n in nodes}
    for c, p in parent.items():
        kids[p].append(c)
    leaves = [n for n in nodes if not kids[n]]
    out = []
    for leaf in leaves:
        path = [leaf]
        while path[-1] != root:
            path.append(parent[path[-1]])
        out.append(tuple(reversed(path)))
    return out


def partitions_oracle(nodes, rel_t, root):
    """Partition sequence over the tree's own canonical atoms, by definition:
    block for x at stage n iff rank(x) == n, or rank(x) < n and x maximal."""
    dist = rank_oracle(nodes, root, rel_t)
    atoms = atoms_oracle(nodes, rel_t)
    maxs = set(maximal_states(nodes, rel_t))
    depth = max(dist.values())
    seq = []
    for n in range(depth + 1):
        blocks = set()
        for x in nodes:
            if dist[x] == n or (dist[x] < n and x in maxs):
                blocks.add(event_oracle(nodes, rel_t, atoms, x))
        seq.append(blocks)
    return atoms, seq


def decompositions_oracle(nodes, rel_t, element):
    """All antichains of tree nodes whose events are pairwise disjoint and
    union exactly to `element` (a frozenset of atom indices)."""
    atoms = atoms_oracle(nodes, rel_t)
    evs = {x: event_oracle(nodes, rel_t, atoms, x) for x in nodes}
    nodes = list(nodes)
    out = []
    for r in range(0, len(nodes) + 1):
        for combo in combinations(nodes, r):
            union = frozenset()
            ok = True
            for x in combo:
                if evs[x] & union:
                    ok = False
                    break
                union |= evs[x]
            if ok and union == element:
                out.append(frozenset(combo))
    return out


# ---------------------------------------------------------------------------
# plans and ISD
# ---------------------------------------------------------------------------

def isd_plan_oracle(states, rel, domain, zeta):
    """Violations of the plan consistency rule, by direct evaluation."""
    violations = []
    for z in domain:
        kids = children_of(states, rel, z)
        if not kids or not kids <= set(domain):
            continue
        prescribed = {zeta[x] for x in kids}
        if len(prescribed) == 1:
            a = prescribed.pop()
            if zeta[z] != a:
                violations.append((z, a))
    return violations


def dominance_certificate_by_events(states, events, choice):
    """The certificate decide_rationalizable reads off a plan's choices,
    found from the canonical events alone, or None.

    events maps each state to its frozenset of atoms; choice maps the
    plan's domain to its picks. Twins are states with equal events: the
    first pair (x, y) in declaration order that both choose, x picking a
    and y picking b != a, gives ((x, b, 1), (y, a, 1)). Otherwise the
    immediate refinements of z are the states whose events lie strictly
    inside e(z) with no event strictly between; at the first z in
    declaration order that chooses b, whose refinements all choose one c
    != b, and whose refinements' events are pairwise disjoint with union
    e(z), the certificate is (z, c, 1) and (k, b, 1) per refinement k.
    """
    one = Fraction(1)
    for i, x in enumerate(states):
        for y in states[i + 1:]:
            if (events[x] == events[y] and x in choice and y in choice
                    and choice[x] != choice[y]):
                return (x, choice[y], one), (y, choice[x], one)
    for z in states:
        if z not in choice:
            continue
        inside = [y for y in states if events[y] < events[z]]
        kids = [y for y in inside
                if not any(events[y] < events[w] for w in inside)]
        if not kids or any(k not in choice for k in kids):
            continue
        picks = {choice[k] for k in kids}
        if len(picks) != 1 or picks == {choice[z]}:
            continue
        covered: set = set()
        disjoint = True
        for k in kids:
            disjoint = disjoint and not covered & events[k]
            covered |= events[k]
        if disjoint and covered == events[z]:
            return ((z, picks.pop(), one),) + tuple(
                (k, choice[z], one) for k in kids)
    return None


def isd_relation_violations(states, rel, alternatives, strict_pref):
    """Violations of the relation consistency rule, by direct evaluation.

    strict_pref(x, a, b) -> bool meaning "a is strictly worse than b at x".
    Returns (z, a, b) triples where strict dominance of b over a on every
    immediate refinement of z fails to propagate to z itself.
    """
    violations = []
    for z in states:
        kids = children_of(states, rel, z)
        if not kids:
            continue
        for a in alternatives:
            for b in alternatives:
                if a == b:
                    continue
                if all(strict_pref(x, a, b) for x in kids):
                    if not strict_pref(z, a, b):
                        violations.append((z, a, b))
    return violations


# ---------------------------------------------------------------------------
# linear feasibility: Fourier-Motzkin elimination over exact rationals
# ---------------------------------------------------------------------------

def fourier_motzkin(rows, nvars):
    """Decide feasibility of a homogeneous system of strict inequalities.

    rows: list of coefficient lists (length nvars, Fractions); each row
    asserts sum(c_i * v_i) > 0. Returns (feasible, multipliers) where, when
    infeasible, multipliers is a nonnegative combination of the ORIGINAL
    rows summing to the zero functional (with at least one positive weight).
    """
    m = len(rows)
    # carry multipliers: each working row is (coeffs, lam) with lam a vector
    # over the original rows such that coeffs == lam . original_rows
    work = [([Fraction(c) for c in row],
             [Fraction(1) if j == i else Fraction(0) for j in range(m)])
            for i, row in enumerate(rows)]

    def scaled(row):
        # normalize to make duplicates comparable; scaling a strict
        # inequality by a positive rational changes nothing
        coeffs, lam = row
        top = max((abs(c) for c in coeffs if c), default=None)
        if top is None:
            return row
        return [c / top for c in coeffs], [v / top for v in lam]

    def dedup(rows_in):
        seen = {}
        for row in map(scaled, rows_in):
            key = tuple(row[0])
            if key not in seen:
                seen[key] = row
        return list(seen.values())

    work = dedup(work)
    remaining = list(range(nvars))
    while remaining:
        zero_row = next((r for r in work if all(c == 0 for c in r[0])), None)
        if zero_row is not None:
            return False, zero_row[1]

        def growth(v):
            p = sum(1 for r in work if r[0][v] > 0)
            n = sum(1 for r in work if r[0][v] < 0)
            return p * n - p - n

        v = min(remaining, key=growth)
        remaining.remove(v)
        pos = [r for r in work if r[0][v] > 0]
        neg = [r for r in work if r[0][v] < 0]
        new = [r for r in work if r[0][v] == 0]
        for cp, lp in pos:
            for cn, ln in neg:
                a, b = cp[v], -cn[v]
                coeffs = [b * cp[k] + a * cn[k] for k in range(nvars)]
                lam = [b * lp[k] + a * ln[k] for k in range(m)]
                new.append((coeffs, lam))
        work = dedup(new)
    for coeffs, lam in work:
        # all variables eliminated: a surviving row claims 0 > 0
        assert all(c == 0 for c in coeffs)
        return False, lam
    return True, None


def phase1_full_tableau(rows, ncols, b=None, entering=None):
    """Phase-1 simplex with Bland's rule over the whole tableau
    [A | -I | I | b], the artificial block stored.

    rows: one list of (column, coefficient) terms per row of A; b: the
    right-hand side, all ones when None. Decides {x >= 0 : Ax >= b} on an
    integer-preserving tableau (every stored row is the basis determinant
    D times the rational tableau). Returns ("feasible", x) or
    ("infeasible", y) with y the Farkas duals per row, both as Fractions.
    Each entering column is appended to entering when it is a list.
    """
    m = len(rows)
    n = ncols
    width = n + 2 * m
    b = [1] * m if b is None else b
    tableau = []
    for i, terms in enumerate(rows):
        row = [0] * width + [b[i]]
        for j, c in terms:
            row[j] = c
        row[n + i] = -1
        row[n + m + i] = 1
        tableau.append(row)
    basis = list(range(n + m, n + 2 * m))
    red = [-sum(column) for column in zip(*tableau)]
    for j in range(n + m, n + 2 * m):
        red[j] += 1
    det = 1

    def eliminate(row, prow, enter, p):
        f = row[enter]
        return [(p * v - f * w) // det for v, w in zip(row, prow)]

    while True:
        enter = next((j for j in range(width) if red[j] < 0), None)
        if enter is None:
            break
        if entering is not None:
            entering.append(enter)
        pivot_row = None
        for i, row in enumerate(tableau):
            t = row[enter]
            if t <= 0:
                continue
            if pivot_row is None:
                pivot_row = i
                continue
            best = tableau[pivot_row]
            lhs = row[width] * best[enter]
            rhs = best[width] * t
            if lhs < rhs or (lhs == rhs and basis[i] < basis[pivot_row]):
                pivot_row = i
        if pivot_row is None:
            raise RuntimeError("phase-1 objective unbounded")
        prow = tableau[pivot_row]
        p = prow[enter]
        for i, row in enumerate(tableau):
            if i != pivot_row:
                tableau[i] = eliminate(row, prow, enter, p)
        red = eliminate(red, prow, enter, p)
        basis[pivot_row] = enter
        det = p

    if red[width] == 0:
        x = [Fraction(0)] * n
        for i, j in enumerate(basis):
            if j < n:
                x[j] = Fraction(tableau[i][width], det)
        return "feasible", x
    return "infeasible", [1 - Fraction(red[n + m + i], det)
                          for i in range(m)]


def margins_oracle(event_of, weights, utilities, domain, zeta, alternatives):
    """Exact strict-preference margins for every (x, a != zeta(x)).

    event_of: state -> iterable of point keys; weights: point -> Fraction;
    utilities: alt -> (point -> Fraction). Returns dict (x, a) -> Fraction
    margin = integral of f_zeta(x) minus integral of f_a over the event.
    """
    out = {}
    for x in domain:
        ev = list(event_of(x))
        for a in alternatives:
            if a == zeta[x]:
                continue
            lhs = sum((weights[p] * utilities[zeta[x]](p) for p in ev),
                      Fraction(0))
            rhs = sum((weights[p] * utilities[a](p) for p in ev), Fraction(0))
            out[(x, a)] = lhs - rhs
    return out


# ---------------------------------------------------------------------------
# constructive rationalization helpers
# ---------------------------------------------------------------------------

def geometric_weights(n):
    """Pre-normalization weights 2*3^-k for k=1..n and the renormalizer."""
    pre = [Fraction(2, 3 ** k) for k in range(1, n + 1)]
    renorm = 1 / (1 - Fraction(1, 3 ** n))
    return pre, [w * renorm for w in pre]


def qualifying_branches(nodes, parent, root, rel, zeta, x, a):
    """All branches through x on which no node weakly more specific than x
    prescribes a. `rel` is the tree's own closed order."""
    out = []
    for br in branches_oracle(nodes, parent, root):
        if x not in br:
            continue
        if all(zeta[y] != a for y in br if (y, x) in rel):
            out.append(br)
    return out


def construct_sceu_by_walks(nodes, root, parent, choice, alternatives,
                            leaf_atom):
    """construct_sceu with one avoidance walk per (node, rejected
    alternative), in node order then alternative order: from the node
    down, always into the first child in node order whose choice is not
    the rejected one. leaf_atom maps each leaf to its atom index.

    Returns (points as (atom, state) pairs, raw weights, weights,
    utilities, avoid); raises ValueError with construct_sceu's text where
    a walk finds every child choosing the rejected alternative.
    """
    kids = {x: [y for y in nodes if parent.get(y) == x] for x in nodes}

    def path_to_root(x):
        path = [x]
        while path[-1] != root:
            path.append(parent[path[-1]])
        return path[::-1]

    rank = {x: len(path_to_root(x)) - 1 for x in nodes}
    chosen_below, avoid_points = {}, {}
    for x in nodes:
        for a in alternatives:
            if a == choice[x]:
                continue
            walk = [x]
            while kids[walk[-1]]:
                step = next((k for k in kids[walk[-1]] if choice[k] != a),
                            None)
                if step is None:
                    raise ValueError(
                        f"every child of {walk[-1]!r} chooses {a!r}; the "
                        f"plan is dominance-inconsistent there")
                walk.append(step)
            point = (leaf_atom[walk[-1]], x)
            chosen_below.setdefault(point, {choice[y] for y in walk})
            avoid_points[x, a] = point
    position = {x: i for i, x in enumerate(nodes)}
    leaf_of = {atom: leaf for leaf, atom in leaf_atom.items()}
    points = sorted(chosen_below, key=lambda p: (
        rank[p[1]], position[p[1]], position[leaf_of[p[0]]]))
    raw, weights = geometric_weights(len(points))
    utilities = {b: [1 if b in chosen_below[p] else 0 for p in points]
                 for b in alternatives}
    avoid = {key: points.index(p) for key, p in avoid_points.items()}
    return points, raw, weights, utilities, avoid


def walks_by_rival(top_down, children, choice, alternatives, a):
    """The avoidance walk rejecting a from every tree node, one rival per
    call, as the package built it before its one pass for every rival:
    node -> (step, end, chosen). step is the first child whose choice is
    not a (None at a leaf or where every child chooses a), end the leaf
    reached or the node where the walk stops, chosen the bits (bit j for
    alternatives[j]) chosen from the node down to the leaf, None when the
    walk stops short. top_down lists each node after its parent."""
    bit = {b: 1 << j for j, b in enumerate(alternatives)}
    walks = {}
    for x in reversed(top_down):
        mine = bit.get(choice.get(x), 0)
        kids = children[x]
        step = next((k for k in kids if choice.get(k) != a), None)
        if not kids:
            walks[x] = (None, x, mine)
        elif step is None:
            walks[x] = (None, x, None)
        else:
            _, end, below = walks[step]
            walks[x] = (step, end, None if below is None else mine | below)
    return walks


def _stuck_text(x, a):
    return (f"every child of {x!r} chooses {a!r}; the plan is "
            f"dominance-inconsistent there")


def avoidance_by_rival(nodes, top_down, children, rank, choice,
                       alternatives, leaf_atom):
    """The integer construction from one walks_by_rival call per
    alternative: the points as (atom, state) in weight order, each
    point's choice bits, and (state, rival) -> point index. Raises
    ValueError with the package's text at the first stuck walk, in node
    order, then alternative order."""
    walks = {a: walks_by_rival(top_down, children, choice, alternatives, a)
             for a in alternatives}
    seen, avoid_points = {}, {}
    for x in nodes:
        for a in alternatives:
            if a == choice[x]:
                continue
            _, end, chosen = walks[a][x]
            if chosen is None:
                raise ValueError(_stuck_text(end, a))
            seen.setdefault((end, x), chosen)
            avoid_points[x, a] = (end, x)
    position = {x: i for i, x in enumerate(nodes)}
    order = sorted(seen, key=lambda p: (rank[p[1]], position[p[1]],
                                        position[p[0]]))
    return (tuple((leaf_atom[leaf], x) for leaf, x in order),
            tuple(seen[p] for p in order),
            {key: order.index(p) for key, p in avoid_points.items()})


def avoiding_branch_by_rival(top_down, children, choice, alternatives,
                             path_to_x, x, a):
    """The root-to-leaf path through x (path_to_x runs from the root to
    x) whose steps below x follow walks_by_rival's walk rejecting a;
    ValueError with the package's text where that walk stops."""
    walks = walks_by_rival(top_down, children, choice, alternatives, a)
    step, end, chosen = walks[x]
    if chosen is None:
        raise ValueError(_stuck_text(end, a))
    path = list(path_to_x)
    while step is not None:
        path.append(step)
        step = walks[step][0]
    return tuple(path)


def decide_on_tree_by_construction(atoms, alternatives, choice, children,
                                   violations, points, utilities):
    """The verdict and witness of a total plan on a tree-shaped
    structure, as read off construct_sceu.

    violations are check_isd_plan's; children maps each state to its
    immediate refinements. At the first violation (z, c) the certificate
    is row (z, c) and row (k, choice[z]) for each child k, each with
    multiplier 1. Otherwise points (atom index, state) and utilities (per
    alternative, a payoff per point) are construct_sceu's: point i weighs
    3^(n-1-i), and g[b][atom] sums weight times payoff under b over the
    points in that atom. The weighting is uniform over atoms, and the
    utility of b at an atom is natoms times g[b][atom].

    Returns (feasible, weights, utilities, certificate, path) as the
    fields of the result: path is "dominance" for a certificate and
    "tree" for a witness.
    """
    if violations:
        z, c = violations[0]
        certificate = ((z, c, Fraction(1)),) + tuple(
            (k, choice[z], Fraction(1)) for k in children[z])
        return False, None, None, certificate, "dominance"
    n, natoms = len(points), len(atoms)
    g = {b: [0] * natoms for b in alternatives}
    for i, (atom, _) in enumerate(points):
        for b in alternatives:
            g[b][atom] += 3 ** (n - 1 - i) * utilities[b][i]
    weights = {label: Fraction(1, natoms) for label in atoms}
    pays = {b: {label: Fraction(natoms * g[b][k])
                for k, label in enumerate(atoms)} for b in alternatives}
    return True, weights, pays, None, "tree"


# ---------------------------------------------------------------------------
# witness checks in Fractions: the references for the integer kernels
# ---------------------------------------------------------------------------
# Each returns (verified, margins, failures, total_weight), margins a dict
# in the order the package reports them, except certificate_failure_by_
# fractions, which returns the first reason a certificate fails, or None.

def _normalization_by_fractions(weights):
    total = sum(weights, start=Fraction(0))
    failures = [] if total == 1 else [f"weights sum to {total}, not 1"]
    if any(w < 0 for w in weights):
        failures.append("negative weight")
    return total, failures


def margins_by_fractions(events, nodes, choice, alternatives, atoms,
                         weights, utilities):
    """Margins of the chosen alternative over each rival at each node:
    point i lies in atom atoms[i] with weight weights[i] and payoff
    utilities[b][i]; events maps a node to its atoms."""
    total, failures = _normalization_by_fractions(weights)
    mass = {}
    for b in alternatives:
        table = mass[b] = {}
        for atom, w, u in zip(atoms, weights, utilities[b]):
            table[atom] = table.get(atom, 0) + w * u
    margins = {}
    for x in nodes:
        chosen = choice[x]
        inside = [atom for atom in events[x] if atom in mass[chosen]]
        for a in alternatives:
            if a == chosen:
                continue
            margin = sum([mass[chosen][atom] - mass[a][atom]
                          for atom in inside], start=Fraction(0))
            margins[x, a] = margin
            if margin <= 0:
                failures.append(f"no strict preference at {x!r} over {a!r}")
    return not failures, margins, failures, total


def verify_constructed_by_fractions(events, nodes, root, parent, choice,
                                    alternatives, points, weights,
                                    utilities, avoid):
    """A constructed witness's margins and structural guarantees; points
    are (atom, state) pairs, avoid maps (state, rival) to a point index."""
    def path_to_root(x):
        path = [x]
        while path[-1] != root:
            path.append(parent[path[-1]])
        return path[::-1]

    _, margins, failures, total = margins_by_fractions(
        events, nodes, choice, alternatives, [atom for atom, _ in points],
        weights, utilities)
    later = total
    for i, w in enumerate(weights):
        later -= w
        if w <= later:
            failures.append(
                f"weight {i} does not outweigh all later points")
            break
    ranks = [len(path_to_root(state)) for _, state in points]
    if any(a > b for a, b in zip(ranks, ranks[1:])):
        failures.append("points are not ordered by state depth")
    deeper = dict.fromkeys(nodes, Fraction(0))
    for (_, state), w in zip(points, weights):
        for x in path_to_root(state)[:-1]:
            deeper[x] += w
    for x, a in margins:
        bound = weights[avoid[x, a]] - deeper[x]
        if bound <= 0:
            failures.append(
                f"avoidance point of ({x!r}, {a!r}) does not outweigh "
                f"deeper points")
        elif margins[x, a] < bound:
            failures.append(
                f"margin at ({x!r}, {a!r}) falls below its bound")
    return not failures, margins, failures, total


def verify_weighting_by_fractions(rows, atoms, alternatives, weights,
                                  utilities):
    """An atom-level weighting against rows (state, rival, coeffs), the
    columns running over alternatives, then atoms. A weight label or a
    label in an alternative's utility table that is no atom, and a table
    for no alternative, fail."""
    labels = set(weights)
    for alt in alternatives:
        labels |= set(utilities.get(alt, {}))
    unknown = sorted(labels - set(atoms), key=str)
    failures = [f"unknown sample points {unknown}"] if unknown else []
    extra = sorted(set(utilities) - set(alternatives), key=str)
    if extra:
        failures.append(f"unknown alternatives {extra}")
    w = [weights.get(atom, 0) for atom in atoms]
    u = [utilities.get(alt, {}).get(atom, 0)
         for alt in alternatives for atom in atoms]
    if not all(isinstance(v, (int, Fraction)) for v in (*w, *u)):
        failures.append("witness value is not rational")
        return False, {}, failures, Fraction(0)
    total, more = _normalization_by_fractions(w)
    failures += more
    g = [x * v for x, v in zip(w * len(alternatives), u)]
    margins = {}
    for state, rival, coeffs in rows:
        margin = sum([c * v for c, v in zip(coeffs, g) if c],
                     start=Fraction(0))
        margins[state, rival] = margin
        if margin <= 0:
            failures.append(
                f"no strict preference at {state!r} over {rival!r}")
    return not failures, margins, failures, total


def certificate_failure_by_fractions(rows, atoms, alternatives, certificate):
    """Why a Farkas certificate over rows (state, rival, coeffs) fails to
    prove them empty, or None."""
    if not certificate:
        return "missing certificate"
    if not isinstance(certificate, (tuple, list)):
        return "certificate is not a list"
    key = {(state, rival): coeffs for state, rival, coeffs in rows}
    total = 0
    combined = [0] * (len(alternatives) * len(atoms))
    for entry in certificate:
        if not (isinstance(entry, (tuple, list)) and len(entry) == 3
                and all(isinstance(label, str) for label in entry[:2])):
            return f"malformed entry {entry!r}"
        state, alt, mult = entry
        if (state, alt) not in key:
            return f"unknown row ({state}, {alt})"
        if not isinstance(mult, (int, Fraction)):
            return f"multiplier {mult!r} is not a nonnegative rational"
        if mult < 0:
            q = Fraction(mult)
            return (f"multiplier {q.numerator}/{q.denominator} is not a "
                    f"nonnegative rational")
        total += mult
        for j, c in enumerate(key[state, alt]):
            combined[j] += mult * c
    if total <= 0:
        return "zero combination"
    for j, value in enumerate(combined):
        if value > 0:
            alt, atom = alternatives[j // len(atoms)], atoms[j % len(atoms)]
            return f"combination positive on g[{alt}][{atom}]"
    return None
