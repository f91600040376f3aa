"""Exact feasibility of the linearized representation system."""
from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import pytest

import oracles
from conftest import (arbitrary_plan, consistent_plan, dense_rows,
                      inconsistent_plan, splitting_tree,
                      subset_family_structure, subset_lattice)
from evistruct import (CanonicalSpace, EStructure, ExplicitRepresentation,
                       FeasibilityResult, FeasibilityRow, FeasibilitySystem,
                       Plan, PlanError, TreeError, WitnessReport, as_tree,
                       build_canonical, build_system, canonical,
                       check_axioms, check_isd_plan, construct_sceu,
                       decide_rationalizable, decide_system, feasibility,
                       find_trees, verify_canonical, verify_certificate,
                       verify_rationalization)


def fm_decide(system):
    """Independent referee: Fourier-Motzkin on the equivalent strict
    homogeneous system (rows > 0 plus one positivity row per variable)."""
    rows = dense_rows(system)
    m = len(rows)
    for j in range(system.ncols):
        unit = [Fraction(0)] * system.ncols
        unit[j] = Fraction(1)
        rows.append(unit)
    feasible, multipliers = oracles.fourier_motzkin(rows, system.ncols)
    if feasible:
        return True, None
    return False, multipliers[:m]


def side_of(system):
    """The path decide_system's shape rule picks: the Farkas alternative
    when the system has at least four more rows than columns."""
    tall = len(system.rows) >= system.ncols + 4
    return "simplex-dual" if tall else "simplex"


def oracle_certificate(s, plan):
    """oracles.dominance_certificate_by_events on the oracle's own
    canonical events of s."""
    atoms = oracles.atoms_oracle(s.states, s.relation)
    events = {x: oracles.event_oracle(s.states, s.relation, atoms, x)
              for x in s.states}
    return oracles.dominance_certificate_by_events(s.states, events,
                                                   plan.choice)


def both_sides(system):
    """The simplex run on the system itself and on its Farkas alternative,
    each witness checked by verify_certificate."""
    results = [feasibility._simplex(system, dual) for dual in (False, True)]
    assert [r.path for r in results] == ["simplex", "simplex-dual"]
    assert all(verify_certificate(system, r).valid for r in results)
    return results


class TestSystemShape:
    def test_example_t_rows_and_columns(self, corpus):
        ws = corpus["example_t"]
        system = build_system(ws.structure, ws.plan)
        assert len(system.rows) == 12          # 6 states x 2 rivals
        assert system.ncols == 9               # 3 alternatives x 3 atoms
        assert system.alternatives == ("a", "b", "c")
        assert system.atoms == ("z1", "z2", "z3")
        assert system.column_label(0) == ("a", "z1")
        assert system.column_label(5) == ("b", "z3")

    def test_root_row_coefficients(self, corpus):
        ws = corpus["example_t"]
        system = build_system(ws.structure, ws.plan)
        row = next(dense for r, dense in zip(system.rows, dense_rows(system))
                   if r.state == "nothing" and r.alternative == "b")
        # chosen a gets +1 on every atom of the full event, rival b -1
        assert row == [1, 1, 1, -1, -1, -1, 0, 0, 0]

    def test_partial_event_row(self, corpus):
        ws = corpus["example_t"]
        system = build_system(ws.structure, ws.plan)
        row = next(dense for r, dense in zip(system.rows, dense_rows(system))
                   if r.state == "x1" and r.alternative == "a")
        # e(x1) = {z1, z3}; chosen there is b
        assert row == [-1, 0, -1, 1, 0, 1, 0, 0, 0]


class TestCorpusDecisions:
    def test_example_r_is_feasible(self, corpus):
        ws = corpus["example_r"]
        result = decide_rationalizable(ws.structure, ws.plan)
        assert result.feasible
        assert verify_certificate(result.system, result).valid
        assert result.weights == {z: Fraction(1, 5)
                                  for z in ("z1", "z2", "z3", "z4", "z5")}

    def test_example_t_is_infeasible(self, corpus):
        ws = corpus["example_t"]
        result = decide_rationalizable(ws.structure, ws.plan)
        assert not result.feasible
        assert result.certificate
        assert verify_certificate(result.system, result).valid

    def test_example_t_matches_fourier_motzkin(self, corpus):
        ws = corpus["example_t"]
        system = build_system(ws.structure, ws.plan)
        feasible, multipliers = fm_decide(system)
        assert not feasible
        cert = tuple((r.state, r.alternative, v)
                     for r, v in zip(system.rows, multipliers) if v)
        referee = FeasibilityResult(False, system, certificate=cert)
        assert verify_certificate(system, referee).valid

    def test_hand_written_certificate_verifies(self, corpus):
        """Four unit multipliers on (x1,c), (z2,c), (x2,b), (z1,b) combine
        the rows to the zero functional."""
        ws = corpus["example_t"]
        system = build_system(ws.structure, ws.plan)
        cert = (("x1", "c", Fraction(1)), ("x2", "b", Fraction(1)),
                ("z1", "b", Fraction(1)), ("z2", "c", Fraction(1)))
        result = FeasibilityResult(False, system, certificate=cert)
        assert verify_certificate(system, result).valid

    def test_combination_positive_on_a_column_names_it(self, corpus):
        ws = corpus["example_t"]
        system = build_system(ws.structure, ws.plan)
        cert = (("x1", "c", Fraction(1)),)
        result = FeasibilityResult(False, system, certificate=cert)
        report = verify_certificate(system, result)
        assert not report.valid
        assert report.reason == "combination positive on g[b][z1]"

    def test_all_zero_multipliers_rejected(self, corpus):
        ws = corpus["example_t"]
        system = build_system(ws.structure, ws.plan)
        cert = (("x1", "c", Fraction(0)), ("x2", "b", 0))
        result = FeasibilityResult(False, system, certificate=cert)
        report = verify_certificate(system, result)
        assert not report.valid
        assert report.reason == "zero combination"

    def test_row_listed_twice_sums_its_multipliers(self, corpus):
        ws = corpus["example_t"]
        system = build_system(ws.structure, ws.plan)
        cert = (("x1", "c", Fraction(1, 2)), ("x2", "b", Fraction(1)),
                ("z1", "b", Fraction(1)), ("x1", "c", Fraction(1, 2)),
                ("z2", "c", Fraction(1)))
        result = FeasibilityResult(False, system, certificate=cert)
        assert verify_certificate(system, result).valid

    def test_negative_multiplier_rejected(self, corpus):
        ws = corpus["example_t"]
        system = build_system(ws.structure, ws.plan)
        cert = (("x1", "c", Fraction(-1)),)
        result = FeasibilityResult(False, system, certificate=cert)
        report = verify_certificate(system, result)
        assert not report.valid

    def test_unknown_row_rejected(self, corpus):
        ws = corpus["example_t"]
        system = build_system(ws.structure, ws.plan)
        cert = (("zz", "b", Fraction(1)),)
        result = FeasibilityResult(False, system, certificate=cert)
        assert not verify_certificate(system, result).valid

    def test_tampered_feasible_witness_rejected(self, corpus):
        ws = corpus["example_r"]
        result = decide_rationalizable(ws.structure, ws.plan)
        utilities = {a: dict(t) for a, t in result.utilities.items()}
        utilities["a"]["z1"] = -utilities["a"]["z1"] - 1
        tampered = FeasibilityResult(True, result.system,
                                     weights=result.weights,
                                     utilities=utilities)
        assert not verify_certificate(result.system, tampered).valid

    def test_scaled_utilities_still_verify(self, corpus):
        """The margin constraints are homogeneous in the utilities, so a
        positive rational rescaling never flips a verdict."""
        ws = corpus["example_r"]
        result = decide_rationalizable(ws.structure, ws.plan)
        for scale in (Fraction(3, 2), Fraction(1, 7), Fraction(12)):
            scaled = FeasibilityResult(
                True, result.system, weights=result.weights,
                utilities={a: {atom: v * scale for atom, v in t.items()}
                           for a, t in result.utilities.items()})
            assert verify_certificate(result.system, scaled).valid


class TestMalformedFeasibleWitness:
    """A malformed feasible witness fails verification instead of
    raising."""

    def check_rejected(self, corpus, edit):
        result = decide_rationalizable(corpus["example_r"].structure,
                                       corpus["example_r"].plan)
        weights = dict(result.weights)
        utilities = {a: dict(t) for a, t in result.utilities.items()}
        edit(weights, utilities)
        broken = FeasibilityResult(True, result.system, weights=weights,
                                   utilities=utilities)
        report = verify_certificate(result.system, broken)
        assert not report.valid
        assert report.reason

    def test_utilities_missing_an_alternative(self, corpus):
        self.check_rejected(corpus, lambda w, u: u.pop("b"))

    def test_weights_missing_an_atom(self, corpus):
        # the dropped weight moves to z1, so the weights still sum to 1
        self.check_rejected(
            corpus, lambda w, u: w.update(z1=w["z1"] + w.pop("z3")))

    def test_utilities_missing_an_atom(self, corpus):
        self.check_rejected(corpus, lambda w, u: u["a"].pop("z2"))

    def test_weight_that_is_not_rational(self, corpus):
        self.check_rejected(corpus, lambda w, u: w.update(z1=None))


@pytest.mark.parametrize("entry", [
    ("x1", "c", "1"),
    ("x1", "c"),
    (["x1"], "c", Fraction(1)),
])
def test_malformed_certificate_entry_rejected(corpus, entry):
    ws = corpus["example_t"]
    system = build_system(ws.structure, ws.plan)
    result = FeasibilityResult(False, system, certificate=(entry,))
    assert not verify_certificate(system, result).valid


@pytest.mark.parametrize("mult, shown", [
    (-2, "-2/1"), (Fraction(-3, 6), "-1/2"), ("-1", "'-1'"), (0.5, "0.5"),
])
def test_bad_multiplier_is_named(corpus, mult, shown):
    """A negative int or Fraction is named as n/d, as the CLI prints
    every rational; any other value by its repr."""
    ws = corpus["example_t"]
    system = build_system(ws.structure, ws.plan)
    result = FeasibilityResult(False, system,
                               certificate=(("x1", "c", mult),))
    assert verify_certificate(system, result).failures == (
        f"multiplier {shown} is not a nonnegative rational",)


@pytest.mark.parametrize("fields", [
    {"certificate": 5},
    {"weights": 5},
    {"utilities": 5},
    {"utilities": {"a": 5}},
], ids=["certificate", "weights", "utilities", "utility-table"])
def test_malformed_witness_container_rejected(corpus, fields):
    ws = corpus["example_t" if "certificate" in fields else "example_r"]
    result = decide_rationalizable(ws.structure, ws.plan)
    broken = dataclasses.replace(result, **fields)
    report = verify_certificate(result.system, broken)
    assert not report.valid
    assert report.reason


@pytest.mark.parametrize("feasible", ["yes", 1, 1.0])
def test_feasible_flag_that_is_not_a_bool_rejected(corpus, feasible):
    result = decide_rationalizable(corpus["example_r"].structure,
                                   corpus["example_r"].plan)
    broken = dataclasses.replace(result, feasible=feasible)
    report = verify_certificate(result.system, broken)
    assert not report.valid
    assert report.reason == "feasible is not a bool"


def both_verdicts(s, plan, result, weights, utilities):
    """(verified, margins, failures) from each entry point that checks an
    atom-level witness."""
    witness = dataclasses.replace(result, weights=weights,
                                  utilities=utilities)
    reports = [verify_certificate(result.system, witness),
               verify_rationalization(
                   s, plan, ExplicitRepresentation(weights, utilities))]
    assert {type(r) for r in reports} == {WitnessReport}
    return [(r.verified, dict(r.margins), r.failures) for r in reports]


class TestOneAtomLevelRule:
    """verify_certificate and verify_rationalization apply the same rule to
    the same atom-level witness."""

    def test_entry_points_agree_on_seeded_witnesses(self):
        rng = random.Random(606)
        feasible = mutated_pass = mutated_fail = 0
        for _ in range(60):
            s = subset_family_structure(rng, max_universe=4)
            plan = arbitrary_plan(rng, s, max_alts=3)
            result = decide_rationalizable(s, plan)
            if not result.feasible:
                continue
            feasible += 1
            weights = dict(result.weights)
            utilities = {a: dict(t) for a, t in result.utilities.items()}
            first, second = both_verdicts(s, plan, result, weights, utilities)
            assert first == second and first[0]
            atom = rng.choice(result.system.atoms)
            alt = rng.choice(result.system.alternatives)
            zeroed = {**weights, atom: Fraction(0)}
            dropped = {z: w for z, w in weights.items() if z != atom}
            negated = {**utilities,
                       alt: {**utilities[alt], atom: -utilities[alt][atom]}}
            for w, u in ((zeroed, utilities), (dropped, utilities),
                         (weights, negated)):
                first, second = both_verdicts(s, plan, result, w, u)
                assert first == second
                if first[0]:
                    mutated_pass += 1
                else:
                    mutated_fail += 1
        assert feasible > 20 and mutated_pass and mutated_fail

    def test_zero_weights_and_omitted_atoms_are_accepted(self, corpus):
        """A probability may put no mass on an atom: strict margins already
        force positive weight wherever a choice is made."""
        s = corpus["example_r"].structure
        plan = Plan(("a", "b"), {"x1": "b"})
        result = decide_rationalizable(s, plan)
        weights = {"z1": Fraction(0), "z2": Fraction(1, 2), "z3": Fraction(0),
                   "z4": Fraction(1, 2), "z5": Fraction(0)}
        utilities = {"b": {"z4": Fraction(1)}}
        for w in (weights, {"z2": Fraction(1, 2), "z4": Fraction(1, 2)}):
            first, second = both_verdicts(s, plan, result, w, utilities)
            assert first == second == (True, {("x1", "a"): Fraction(1, 2)},
                                       ())

    def test_old_report_names_are_aliases(self):
        """valid and reason, older names for verified and the first
        failure, stay on the one report."""
        report = WitnessReport(False, failures=("first", "second"))
        assert (report.valid, report.reason) == (False, "first")
        assert WitnessReport(True).reason is None


def test_root_only_domain_is_feasible(corpus):
    s = corpus["example_r"].structure
    plan = Plan(("a", "b"), {"nothing": "a"})
    result = decide_rationalizable(s, plan)
    assert result.feasible
    assert verify_certificate(result.system, result).valid


def test_empty_system_rejected():
    system = FeasibilitySystem(("a", "b"), ("w1",), ())
    with pytest.raises(PlanError):
        decide_system(system)


class TestFourierMotzkinAgreement:
    """The simplex, on either side, and an elimination procedure that
    shares no code with it must agree on every random small system."""

    def test_agreement_on_random_plans(self):
        rng = random.Random(88)
        outcomes = {True: 0, False: 0}
        for _ in range(130):
            s = subset_family_structure(rng, max_universe=4)
            plan = arbitrary_plan(rng, s, max_alts=3)
            system = build_system(s, plan)
            if not system.rows:
                continue
            result = decide_system(system)
            assert result.path == side_of(system)
            primal, dual = both_sides(system)
            fm_feasible, fm_mult = fm_decide(system)
            assert (result.feasible == primal.feasible == dual.feasible
                    == fm_feasible)
            outcomes[result.feasible] += 1
            if not fm_feasible:
                cert = tuple((r.state, r.alternative, v)
                             for r, v in zip(system.rows, fm_mult) if v)
                referee = FeasibilityResult(False, system, certificate=cert)
                assert verify_certificate(system, referee).valid
        assert outcomes[True] > 10 and outcomes[False] > 10


class TestFullTableauReference:
    """_phase1 stores [A | -I | b] and reads the artificial block off the
    slack block; oracles.phase1_full_tableau stores all of
    [A | -I | I | b]. Both must return the same verdict and the same
    exact point or duals, on a system and on its Farkas alternative."""

    @staticmethod
    def systems(corpus):
        rng = random.Random(404)
        for _ in range(120):
            s = subset_family_structure(rng, max_universe=4)
            yield build_system(s, arbitrary_plan(rng, s, max_alts=3))
        for _ in range(20):
            tree = splitting_tree(rng, max_nodes=24)
            yield build_system(tree.ambient,
                               arbitrary_plan(rng, tree.ambient, max_alts=3))
        for ws in corpus.values():
            if ws.plan is not None:
                yield build_system(ws.structure, ws.plan)

    def test_lean_loop_matches_the_full_tableau(self, corpus):
        checked = pivots = artificial = 0
        for system in self.systems(corpus):
            if not system.rows:
                continue
            m, n = len(system.rows), system.ncols
            direct = ([r.terms for r in system.rows], [1] * m, n)
            for rows, b, ncols in (direct, feasibility._alternative(
                    system.rows, n)):
                entering: list[int] = []
                assert (feasibility._phase1(rows, b, ncols)
                        == oracles.phase1_full_tableau(rows, ncols, b,
                                                       entering=entering))
                pivots += len(entering)
                artificial += sum(j >= ncols + len(rows) for j in entering)
            checked += 1
        # an artificial column that left the basis comes back in a few of
        # these draws, so the branch that reads it off the slack runs
        assert checked > 120 and pivots > 1000 and artificial > 0


class TestFarkasSide:
    """decide_system runs a system with m rows and n columns on its Farkas
    alternative, whose basis has n + 1 rows, when m >= n + 4."""

    @staticmethod
    def lattice_plan(k, seed):
        s = subset_lattice(k)
        rng = random.Random(seed)
        return s, Plan(("a", "b", "c"),
                       {x: rng.choice("abc") for x in s.states})

    def test_lattice_plan_is_decided_on_the_farkas_side(self):
        s, plan = self.lattice_plan(6, 6)
        result = decide_system(build_system(s, plan))
        assert (len(result.system.rows), result.system.ncols) == (126, 18)
        assert result.path == "simplex-dual"
        assert verify_certificate(result.system, result).valid

    def test_both_sides_agree_on_lattice_plans(self):
        for seed in range(3):
            s, plan = self.lattice_plan(5, seed)
            system = build_system(s, plan)
            assert (len(system.rows), system.ncols) == (62, 15)
            primal, dual = both_sides(system)
            assert not primal.feasible and not dual.feasible
        # a plan on the lattice's singletons alone is rationalizable
        plan = Plan(("a", "b"), {f"s{p}": "ab"[p % 2] for p in range(5)})
        primal, dual = both_sides(build_system(s, plan))
        assert primal.feasible and dual.feasible

    @pytest.mark.parametrize("m, path", [(5, "simplex"),
                                         (6, "simplex-dual")])
    @pytest.mark.parametrize("feasible", [True, False])
    def test_shape_rule_boundary(self, m, path, feasible):
        """Two columns: m = n + 3 rows stay on the system, m = n + 4 go to
        the alternative, and either side returns a verified witness."""
        prefer_a = ((0, 1), (1, -1))
        prefer_b = ((0, -1), (1, 1))
        rows = [FeasibilityRow(f"x{i}", "b", prefer_a) for i in range(m - 1)]
        rows.append(FeasibilityRow("y", "a" if feasible else "b",
                                   prefer_a if feasible else prefer_b))
        system = FeasibilitySystem(("a", "b"), ("w",), tuple(rows))
        result = decide_system(system)
        assert (result.path, result.feasible) == (path, feasible)
        assert verify_certificate(system, result).valid


class TestTreePlans:
    def test_consistent_tree_plans_are_feasible(self):
        rng = random.Random(90)
        for _ in range(25):
            t = splitting_tree(rng, max_nodes=16)
            plan = consistent_plan(rng, t)
            result = decide_rationalizable(t.as_estructure, plan)
            assert result.feasible and result.path == "tree"
            assert sum(result.weights.values()) == 1
            assert all(w > 0 for w in result.weights.values())

    def test_inconsistent_tree_plans_are_infeasible(self):
        rng = random.Random(91)
        for _ in range(25):
            t = splitting_tree(rng, max_nodes=16)
            plan = inconsistent_plan(rng, t)
            result = decide_rationalizable(t.as_estructure, plan)
            assert not result.feasible and result.path == "dominance"
            assert verify_certificate(result.system, result).valid


class TestTreeTheorem:
    """A total plan on a structure that is itself an experimentation tree
    is decided by dominance consistency, not by the simplex; the simplex,
    run on the same system, must reach the same verdict."""

    @staticmethod
    def agree(s, plan):
        fast = decide_rationalizable(s, plan)
        simplex = decide_system(build_system(s, plan))
        assert (fast.path, simplex.path) == (
            "tree" if fast.feasible else "dominance", side_of(simplex.system))
        assert fast.feasible == simplex.feasible
        assert fast.feasible == check_isd_plan(s, plan).consistent
        assert verify_certificate(fast.system, fast).valid
        assert verify_certificate(simplex.system, simplex).valid
        return fast

    def test_agreement_on_splitting_trees(self):
        rng = random.Random(2027)
        verdicts = {True: 0, False: 0}
        for i in range(36):
            tree = splitting_tree(rng, max_nodes=40)
            n_alts = 2 + i % 3
            if i % 3 == 2:
                plan = arbitrary_plan(rng, tree.ambient, max_alts=n_alts,
                                      full_prob=1.0)
            else:
                make = consistent_plan if i % 3 == 0 else inconsistent_plan
                plan = make(rng, tree, n_alts=n_alts)
            verdicts[self.agree(tree.ambient, plan).feasible] += 1
        assert verdicts[True] > 5 and verdicts[False] > 5

    def test_agreement_on_subset_families_that_are_trees(self):
        rng = random.Random(7)
        trees = 0
        for _ in range(150):
            s = subset_family_structure(rng, max_universe=3)
            plan = arbitrary_plan(rng, s, full_prob=1.0)
            try:
                as_tree(s)
            except TreeError:
                result = decide_rationalizable(s, plan)
                certificate = oracle_certificate(s, plan)
                if certificate:
                    assert (result.path, result.certificate) == (
                        "dominance", certificate)
                else:
                    assert result.path == side_of(result.system)
                continue
            self.agree(s, plan)
            trees += 1
        assert 10 < trees < 140

    def test_partial_plans_on_trees_take_the_simplex(self):
        rng = random.Random(12)
        for _ in range(20):
            tree = splitting_tree(rng, max_nodes=14)
            full = consistent_plan(rng, tree)
            dropped = rng.choice(tree.nodes)
            plan = full.restricted_to(
                [x for x in tree.nodes if x != dropped])
            result = decide_rationalizable(tree.ambient, plan)
            assert result.path == side_of(result.system)
            assert verify_certificate(result.system, result).valid

    @pytest.mark.parametrize("stem", ["example_d", "example_r", "example_t"])
    def test_corpus_plans_take_the_simplex(self, corpus, stem):
        ws = corpus[stem]
        assert decide_rationalizable(ws.structure, ws.plan).path == "simplex"

    def test_certificate_is_the_first_violation_and_its_children(self):
        s = EStructure.from_generators(
            ["r", "u", "v", "u1", "u2"], "r",
            [("u", "r"), ("v", "r"), ("u1", "u"), ("u2", "u")])
        plan = Plan(("a", "b"),
                    {"r": "a", "u": "b", "v": "a", "u1": "a", "u2": "a"})
        result = decide_rationalizable(s, plan)
        assert result.certificate == (("u", "a", 1), ("u1", "b", 1),
                                      ("u2", "b", 1))
        assert result.path == "dominance"

    def test_consistent_witness_has_uniform_positive_weights(self):
        rng = random.Random(5)
        tree = splitting_tree(rng, max_nodes=20)
        result = decide_rationalizable(tree.ambient,
                                       consistent_plan(rng, tree))
        assert result.feasible and result.path == "tree"
        n = len(result.system.atoms)
        assert result.weights == dict.fromkeys(result.system.atoms,
                                               Fraction(1, n))

    def test_route_matches_the_construction_reference(self):
        """The tree route reads its witness off the integer avoidance pass
        it shares with construct_sceu; oracles.decide_on_tree_by_
        construction reads it off construct_sceu's witness, as the route
        did before. The results must agree field for field, and
        construct_sceu must agree with the walk reference."""
        rng = random.Random(1515)
        cases = []
        for i in range(60):  # splitting trees, 2 to 4 alternatives
            tree = splitting_tree(rng, max_nodes=24)
            make = consistent_plan if i % 2 == 0 else inconsistent_plan
            cases.append((tree.ambient, make(rng, tree, n_alts=2 + i % 3)))
        families = 0
        while families < 40:  # subset families that are trees
            s = subset_family_structure(rng, max_universe=4)
            try:
                as_tree(s)
            except TreeError:
                continue
            cases.append((s, arbitrary_plan(rng, s, max_alts=4,
                                            full_prob=1.0)))
            families += 1
        verdicts = {True: 0, False: 0}
        for s, plan in cases:
            result = decide_rationalizable(s, plan)
            assert result.path == ("tree" if result.feasible else "dominance")
            violations = check_isd_plan(s, plan).violations
            points = utilities = None
            if not violations:
                r = construct_sceu(as_tree(s), plan)
                points = [(p.atom, p.state) for p in r.points]
                utilities = r.utilities
                leaf_atom = {cls[0]: k for k, cls in
                             enumerate(r.tree.canonical.atoms)}
                assert (points, list(r.raw_weights), list(r.weights),
                        {b: list(u) for b, u in utilities.items()},
                        dict(r.avoid)) == oracles.construct_sceu_by_walks(
                    s.states, s.root, dict(r.tree.parent), plan.choice,
                    plan.alternatives, leaf_atom)
            want = oracles.decide_on_tree_by_construction(
                result.system.atoms, plan.alternatives, plan.choice,
                s.derived.immed_sets, violations, points, utilities)
            assert (result.feasible, result.weights, result.utilities,
                    result.certificate, result.path) == want
            verdicts[result.feasible] += 1
        assert min(verdicts.values()) > 25


class TestDominanceCertificates:
    """Two twins that choose differently, or a dominance violation at a
    state whose immediate refinements partition its event, settle an
    infeasible plan on any structure before the simplex runs."""

    def test_campaign_matches_the_event_oracle(self):
        rng = random.Random(2121)
        cases = []
        for _ in range(300):
            s = subset_family_structure(rng, max_universe=4)
            cases.append((s, arbitrary_plan(rng, s, max_alts=3)))
        for _ in range(60):
            s = splitting_tree(rng, max_nodes=16).ambient
            cases.append((s, arbitrary_plan(rng, s, max_alts=3)))
        kinds = {"twin": 0, "violation": 0}
        for s, plan in cases:
            result = decide_rationalizable(s, plan)
            simplex = decide_system(build_system(s, plan))
            assert result.feasible == simplex.feasible
            certificate = oracle_certificate(s, plan)
            if certificate is None:
                assert result.path != "dominance"
                continue
            assert result.path == "dominance"
            assert result.certificate == certificate
            assert verify_certificate(result.system, result).valid
            kinds["twin" if len(certificate) == 2 else "violation"] += 1
        assert min(kinds.values()) > 20

    def test_twins_that_disagree_give_two_rows(self):
        # s0 and s0q each refine the other; s1 picks a as s0 does
        s = EStructure.from_generators(
            ["root", "s0", "s1", "s0q"], "root",
            [("s0", "root"), ("s1", "root"), ("s0q", "s0"), ("s0", "s0q")])
        plan = Plan(("a", "b"), {"root": "a", "s0": "a", "s1": "a",
                                 "s0q": "b"})
        result = decide_rationalizable(s, plan)
        assert (result.path, result.certificate) == (
            "dominance", (("s0", "b", 1), ("s0q", "a", 1)))

    def test_only_the_theorem_witness_asks_as_tree(self, monkeypatch):
        """A certificate is read off the plan's choices without as_tree,
        for twins and for a violation on a tree alike; as_tree is asked
        once, for a consistent total plan, to build the theorem's
        witness."""
        calls = []
        monkeypatch.setattr(feasibility, "as_tree",
                            lambda *args: calls.append(1) or as_tree(*args))
        twins = EStructure.from_generators(
            ["root", "s0", "s1", "s0q"], "root",
            [("s0", "root"), ("s1", "root"), ("s0q", "s0"), ("s0", "s0q")])
        plan = Plan(("a", "b"), {"root": "a", "s0": "a", "s1": "b",
                                 "s0q": "b"})
        result = decide_rationalizable(twins, plan)
        assert (result.path, result.certificate) == (
            "dominance", (("s0", "b", 1), ("s0q", "a", 1)))
        assert calls == []
        tree = EStructure.from_generators(
            ["r", "u", "v", "u1", "u2"], "r",
            [("u", "r"), ("v", "r"), ("u1", "u"), ("u2", "u")])
        bad = Plan(("a", "b"),
                   {"r": "a", "u": "b", "v": "a", "u1": "a", "u2": "a"})
        result = decide_rationalizable(tree, bad)
        assert (result.path, result.certificate) == (
            "dominance", (("u", "a", 1), ("u1", "b", 1), ("u2", "b", 1)))
        assert calls == []
        good = Plan(("a", "b"), {**bad.choice, "u": "a"})
        result = decide_rationalizable(tree, good)
        assert (result.path, result.feasible) == ("tree", True)
        assert calls == [1]

    def test_first_partitioning_violation_on_a_structure_that_is_no_tree(
            self):
        """s1 has two parents, so as_tree rejects the structure. The
        root's violation is skipped, as its refinements s01 and s12 meet
        in s1; s01's refinements s0 and s1 partition its event."""
        s = EStructure.from_generators(
            ["root", "s01", "s12", "s0", "s1", "s2"], "root",
            [("s01", "root"), ("s12", "root"), ("s0", "s01"),
             ("s1", "s01"), ("s1", "s12"), ("s2", "s12")])
        with pytest.raises(TreeError):
            as_tree(s)
        plan = Plan(("a", "b", "c"), {"root": "c", "s01": "a", "s12": "a",
                                      "s0": "b", "s1": "b", "s2": "a"})
        assert check_isd_plan(s, plan).violations == (("root", "a"),
                                                      ("s01", "b"))
        result = decide_rationalizable(s, plan)
        assert (result.path, result.certificate) == (
            "dominance", (("s01", "b", 1), ("s0", "a", 1), ("s1", "a", 1)))

    def test_partial_plan_on_a_tree_with_its_refinements_decided(self):
        s = EStructure.from_generators(
            ["r", "u", "v", "u1", "u2"], "r",
            [("u", "r"), ("v", "r"), ("u1", "u"), ("u2", "u")])
        plan = Plan(("a", "b"), {"u": "b", "u1": "a", "u2": "a"})
        result = decide_rationalizable(s, plan)
        assert (result.path, result.certificate) == (
            "dominance", (("u", "a", 1), ("u1", "b", 1), ("u2", "b", 1)))
        # with u2 undecided, u is no violation and the simplex decides
        result = decide_rationalizable(s, plan.restricted_to(["u", "u1"]))
        assert (result.path, result.feasible) == ("simplex", True)


@pytest.mark.parametrize("path", ["tree", "simplex", "simplex-dual"])
def test_witness_values_are_fractions_on_every_route(corpus, path):
    if path == "tree":
        rng = random.Random(5)
        tree = splitting_tree(rng, max_nodes=10, min_nodes=10)
        result = decide_rationalizable(tree.ambient,
                                       consistent_plan(rng, tree, n_alts=3))
    elif path == "simplex":
        result = decide_rationalizable(corpus["example_r"].structure,
                                       corpus["example_r"].plan)
    else:
        prefer_a = ((0, 1), (1, -1))
        rows = [FeasibilityRow(f"x{i}", "b", prefer_a) for i in range(6)]
        result = decide_system(FeasibilitySystem(("a", "b"), ("w",),
                                                 tuple(rows)))
    assert (result.path, result.feasible) == (path, True)
    values = [*result.weights.values(),
              *[v for table in result.utilities.values()
                for v in table.values()]]
    assert values and all(type(v) is Fraction for v in values)


def test_canonical_space_is_built_once_per_structure(monkeypatch):
    """decide_rationalizable and construct_sceu on a tree-shaped structure
    share one build and one verification of its canonical space, while
    the public verify_canonical re-checks on every call. A verification
    is a run of the one kernel, _event_pass, which the build's own check
    and verify_canonical both reach."""
    built, verified = [], []
    event_space = canonical._event_space
    event_pass = canonical._event_pass
    monkeypatch.setattr(canonical, "_event_space",
                        lambda s: built.append(s) or event_space(s))
    monkeypatch.setattr(canonical, "_event_pass",
                        lambda s, *rows, **kw: verified.append(s)
                        or event_pass(s, *rows, **kw))
    s = EStructure.from_generators(
        ["r", "u", "v", "u1", "u2"], "r",
        [("u", "r"), ("v", "r"), ("u1", "u"), ("u2", "u")])
    plan = Plan(("a", "b"),
                {"r": "a", "u": "a", "v": "b", "u1": "a", "u2": "b"})
    result = decide_rationalizable(s, plan)
    assert result.feasible and result.path == "tree"
    construct_sceu(as_tree(s), plan)
    build_canonical(s)
    assert (built, verified) == ([s], [s])
    canonical.verify_canonical(build_canonical(s), s)
    assert verified == [s, s]


def _example_t_shape():
    """r over x1 and x2; x0 below both, x3 below x1 only, x4 below x2
    only: example_t's shape with six states."""
    return EStructure.from_generators(
        ["r", "x0", "x1", "x2", "x3", "x4"], "r",
        [("x1", "r"), ("x2", "r"), ("x0", "x1"), ("x0", "x2"),
         ("x3", "x1"), ("x4", "x2")])


def test_six_state_plan_is_inconsistent_yet_rationalizable():
    """Dominance consistency is not necessary: the smallest such plan."""
    s = _example_t_shape()
    assert check_axioms(s).passed
    plan = Plan(("a", "b"), {"r": "a", "x0": "b", "x1": "b", "x2": "b",
                             "x3": "a", "x4": "a"})
    assert check_isd_plan(s, plan).violations == (("r", "b"),)
    # x1 and x2 meet in x0, so the violation at r is no certificate
    assert oracle_certificate(s, plan) is None
    result = decide_rationalizable(s, plan)
    assert (len(result.system.rows), result.system.ncols) == (6, 6)
    assert result.feasible and result.path == "simplex"
    assert verify_certificate(result.system, result).valid


def test_contained_trees_decide_by_consistency():
    """Claim (iii) on trees strictly inside their structure: a plan on the
    tree's nodes is rationalizable on the ambient structure iff it is
    rationalizable on the tree iff it is consistent on the tree."""
    rng = random.Random(7)
    verdicts = {True: 0, False: 0}
    for _ in range(200):
        s = subset_family_structure(rng, max_universe=3)
        for tree in find_trees(s):
            if len(tree.nodes) == len(s.states):
                continue
            for k in range(4):
                alts = ("a", "b", "c")[:rng.randint(2, 3)]
                choice: dict[str, str] = {}
                # bottom up; k == 0 keeps every unanimous node consistent
                for x in sorted(tree.nodes,
                                key=lambda x: -tree.rank_in_tree[x]):
                    picks = {choice[y] for y in tree.children[x]}
                    choice[x] = (picks.pop() if k == 0 and len(picks) == 1
                                 else rng.choice(alts))
                plan = Plan(alts, choice)
                consistent = check_isd_plan(tree.as_estructure,
                                            plan).consistent
                ambient = decide_rationalizable(s, plan)
                own = decide_rationalizable(tree.as_estructure, plan)
                assert ambient.feasible == own.feasible == consistent
                assert verify_certificate(ambient.system, ambient).valid
                assert verify_certificate(own.system, own).valid
                verdicts[consistent] += 1
    assert verdicts[True] > 100 and verdicts[False] > 30


def _example_r(corpus):
    ws = corpus["example_r"]
    return ws.structure, build_canonical(ws.structure), \
        decide_rationalizable(ws.structure, ws.plan)


@pytest.mark.parametrize("check", [
    pytest.param(lambda s, space, result: verify_canonical(
        CanonicalSpace(None, space.events), s), id="canonical-atoms-None"),
    pytest.param(lambda s, space, result: verify_canonical(
        CanonicalSpace(space.atoms, {**space.events,
                                     s.root: frozenset({"a"})}), s),
        id="canonical-event-of-strings"),
    pytest.param(lambda s, space, result: verify_canonical(
        CanonicalSpace(space.atoms, {**space.events,
                                     s.root: frozenset({-1})}), s),
        id="canonical-negative-index"),
    pytest.param(lambda s, space, result: verify_canonical(
        CanonicalSpace(space.atoms, {**space.events,
                                     s.root: frozenset({99})}), s),
        id="canonical-index-past-the-atoms"),
    pytest.param(lambda s, space, result: verify_certificate(
        result.system, None), id="certificate-result-None"),
    pytest.param(lambda s, space, result: verify_certificate(None, result),
                 id="certificate-system-None"),
])
def test_verifiers_fail_malformed_input_without_raising(corpus, check):
    report = check(*_example_r(corpus))
    passed = report.passed if hasattr(report, "passed") else report.valid
    assert passed is False
