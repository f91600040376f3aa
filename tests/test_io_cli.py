"""Workspace file parsing, serialization, and the command-line front end."""
from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from collections.abc import Mapping
from fractions import Fraction
from pathlib import Path

import pytest

import evistruct
import oracles
from conftest import (arbitrary_plan, consistent_plan,
                      subset_family_structure, splitting_tree)
from evistruct import (FIXTURES, CanonicalSpace, ConditionReport, ParseError,
                       TreeBlock, WitnessReport, Workspace, build_canonical,
                       build_tree, construct_sceu, decide_rationalizable,
                       emit_fixtures, format_rational, format_workspace,
                       parse_rational, parse_workspace, verify_canonical,
                       verify_certificate, verify_rationalization)
from evistruct import cli

TWO_CHAIN = "root r\nstate a\npair a r\n"
FORK = "root r\nstate L\nstate R\npair L r\npair R r\n"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli_corpus")
    emit_fixtures(directory)
    return directory


@pytest.fixture(scope="module")
def est(fixture_dir):
    def path_of(stem: str) -> str:
        return str(fixture_dir / f"{stem}.est")
    return path_of


def run_json(capsys, argv):
    code = cli.run(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestParsing:
    def test_fixture_files_are_emitted_byte_for_byte(self, tmp_path):
        written = emit_fixtures(tmp_path / "fx")
        assert [p.name for p in written] == sorted(FIXTURES)
        for path in written:
            assert path.read_text(encoding="utf-8") == FIXTURES[path.name]

    @pytest.mark.parametrize("bad", [None, 5, ["fx"]])
    def test_fixtures_need_a_path(self, bad):
        with pytest.raises(ValueError, match="is not a path"):
            emit_fixtures(bad)

    def test_corpus_round_trips(self, corpus):
        for ws in corpus.values():
            again = parse_workspace(format_workspace(ws))
            assert again == ws

    def test_random_workspaces_round_trip(self):
        rng = random.Random(11)
        for _ in range(15):
            s = subset_family_structure(rng)
            ws = Workspace(s, (), arbitrary_plan(rng, s))
            assert parse_workspace(format_workspace(ws)) == ws

    def test_tree_block_workspaces_round_trip(self):
        rng = random.Random(22)
        for _ in range(10):
            tree = splitting_tree(rng, max_nodes=12)
            block = TreeBlock(tree.nodes,
                              tuple((x, tree.parent[x]) for x in tree.nodes
                                    if x != tree.root))
            ws = Workspace(tree.as_estructure, (block,),
                           consistent_plan(rng, tree))
            assert parse_workspace(format_workspace(ws)) == ws

    def test_serialization_is_idempotent(self, corpus):
        for ws in corpus.values():
            text = format_workspace(ws)
            assert format_workspace(parse_workspace(text)) == text

    @pytest.mark.parametrize("text,message", [
        ("root r\nstate a\nstate a\n", "line 3: state 'a' declared twice"),
        ("root r\npair r q\n", "line 2: unknown state 'q'"),
        ("root r\nroot r\n", "line 2: root declared twice"),
        ("root r\nroot\n", "line 2: root takes one id"),
        ("state a\n", "no root declared"),
        ("root r\ntree {\n  node r\n", "unterminated tree block"),
        ("root r\n}\n", "line 2: '}' outside a tree block"),
        ("root r\nfrobnicate x\n", "line 2: unknown directive 'frobnicate'"),
        ("root r\ntree {\n  node r\n  node r\n}\n",
         "line 4: node 'r' repeated in tree block"),
        ("root r\nstate s\ntree {\n  node r\n  edge r s\n}\n",
         "line 5: edge end 's' is not a node of this tree block"),
        ("root r\ntree {\n  state q\n}\n",
         "line 3: only node/edge lines may appear in a tree block"),
        ("root r\ntree [\n", "line 2: expected 'tree {'"),
        ("root r\nalts a\n", "line 2: need at least two alternatives"),
        ("root r\nalts a a\n", "line 2: duplicate alternative"),
        ("root r\nalts a b\nalts a b\n", "line 3: alts declared twice"),
        ("root r\nchoose r a\n", "line 2: choose before alts"),
        ("root r\nalts a b\nchoose r a\nchoose r b\n",
         "line 4: choice at 'r' already made"),
        ("root r\nalts a b\nchoose r c\n",
         "line 3: 'c' is not among the alternatives"),
        ("root r\nalts a b\nchoose q a\n", "line 3: unknown state 'q'"),
        ("root r\nstate s\npair s r\nalts a b\n",
         "alts declared but no choices made"),
        (5, "workspace text must be a str, not int"),
        (b"root r\n", "workspace text must be a str, not bytes"),
    ])
    def test_parse_errors_carry_line_numbers(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_workspace(text)
        assert message in str(err.value)

    def test_comments_and_blank_lines_are_skipped(self):
        ws = parse_workspace(
            "# header\n\nroot r\n  # indented comment\nstate s\npair s r\n")
        assert ws.structure.states == ("r", "s")
        assert ws.plan is None and ws.trees == ()


class TestRationals:
    def test_parse_accepts_strings_and_ints(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational("5/1") == Fraction(5)
        assert parse_rational("7") == Fraction(7)
        assert parse_rational(-2) == Fraction(-2)

    @pytest.mark.parametrize("bad", [True, False, 1.5, "abc", "1/0", None,
                                     [1]])
    def test_parse_rejects_non_rationals(self, bad):
        with pytest.raises(ParseError, match="not a rational"):
            parse_rational(bad)

    def test_format_always_writes_a_slash(self):
        assert format_rational(Fraction(81, 121)) == "81/121"
        assert format_rational(5) == "5/1"
        assert parse_rational(format_rational(Fraction(-3, 7))) \
            == Fraction(-3, 7)

    @pytest.mark.parametrize("bad", [None, "1/2", 2.5, True, False, [1]])
    def test_format_rejects_non_rationals(self, bad):
        """Only an int or a Fraction prints; a bool is rejected, as
        parse_rational rejects one, and a string or float is not read."""
        with pytest.raises(ValueError, match="not a rational"):
            format_rational(bad)


class TestStructureCommands:
    def test_check_passes_on_corpus_file(self, capsys, est):
        code, data = run_json(capsys, ["check", est("example_c")])
        assert code == 0
        assert data["passed"] is True
        assert set(data["axioms"]) == {"preorder", "root", "intermediacy",
                                       "finite_branching", "separation"}
        assert all(data["axioms"].values())
        assert data["root"] == "nothing"
        assert data["witnesses"] == {}

    def test_check_reports_separation_failure(self, capsys, tmp_path):
        path = tmp_path / "two.est"
        path.write_text(TWO_CHAIN, encoding="utf-8")
        code, data = run_json(capsys, ["check", str(path)])
        assert code == 1
        assert data["passed"] is False
        assert data["axioms"]["separation"] is False
        assert data["witnesses"]["separation"]

    def test_check_text_verdict_line(self, capsys, est):
        assert cli.run(["check", est("example_c")]) == 0
        out = capsys.readouterr().out
        assert out.rstrip().splitlines()[-1] == "e-structure"
        assert "separation: pass" in out

    def test_rank_table_is_frozen(self, capsys, est):
        code, data = run_json(capsys, ["rank", est("example_c")])
        assert code == 0
        assert data["rho"] == {"nothing": 0, "q": 1, "w": 1, "s": 2,
                               "t": 2, "x": 2, "z": 2, "u": 3, "y": 3,
                               "v": 4}
        assert data["chains"]["v"] == ["v", "y", "x", "w", "nothing"]

    def test_rank_refuses_invalid_structure(self, capsys, tmp_path):
        path = tmp_path / "two.est"
        path.write_text(TWO_CHAIN, encoding="utf-8")
        code, data = run_json(capsys, ["rank", str(path)])
        assert code == 1
        assert "error" in data

    def test_canonical_atoms_and_events(self, capsys, est):
        code, data = run_json(capsys, ["canonical", est("example_j")])
        assert code == 0
        assert data["atoms"] == [["h2t0"], ["h1t1"], ["h0t2"]]
        assert data["events"]["h1t0"] == [0, 1]
        assert data["events"]["h0t0"] == [0, 1, 2]

    def test_canonical_guards_axioms(self, capsys, tmp_path):
        path = tmp_path / "two.est"
        path.write_text(TWO_CHAIN, encoding="utf-8")
        code, data = run_json(capsys, ["canonical", str(path)])
        assert code == 1
        assert data["passed"] is False


class TestTreeCommands:
    def test_find_lists_every_tree(self, capsys, est):
        code, data = run_json(capsys, ["trees", "find", est("example_d")])
        assert code == 0
        assert data["count"] == 8
        found = {(frozenset(t["nodes"]),
                  frozenset(tuple(e) for e in t["edges"]))
                 for t in data["trees"]}
        assert (frozenset({"nothing", "As", "Sb", "Ge"}),
                frozenset({("As", "nothing"), ("Sb", "nothing"),
                           ("Ge", "nothing")})) in found

    def test_find_respects_max(self, capsys, est):
        code, data = run_json(capsys, ["trees", "find", est("example_d"),
                                       "--max", "3"])
        assert code == 0
        assert data["count"] == 3

    @pytest.mark.parametrize("bound", ["0", "-1"])
    def test_find_rejects_max_below_one(self, capsys, est, bound):
        assert cli.run(["trees", "find", est("example_d"),
                        "--max", bound]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1

    def test_find_reports_treeless_structure(self, capsys, est):
        code, data = run_json(capsys, ["trees", "find", est("example_j")])
        assert code == 1
        assert data["count"] == 0
        assert data["message"] == "no experimentation tree"

    def test_check_blocks_of_corpus_file(self, capsys, est):
        code, data = run_json(capsys, ["trees", "check", est("example_d")])
        assert code == 1
        assert data["passed"] is False
        by_label = {c["tree"]: c for c in data["checks"]}
        assert by_label["block 0"]["passed"] is True
        assert by_label["block 1"]["failed"] == ["t-order", "t-immediate",
                                                 "t-unbiased"]
        assert by_label["block 2"]["failed"] == ["t-incompat", "t-unbiased"]

    def test_check_single_block(self, capsys, est):
        code, data = run_json(capsys, ["trees", "check", est("example_d"),
                                       "--block", "0"])
        assert code == 0
        assert data["passed"] is True
        assert len(data["checks"]) == 1

    def test_check_block_out_of_range(self, capsys, est):
        assert cli.run(["trees", "check", est("example_d"),
                        "--block", "5"]) == 2
        assert "out of range" in capsys.readouterr().err

    def test_check_text_failure_lines(self, capsys, est):
        assert cli.run(["trees", "check", est("example_d")]) == 1
        out = capsys.readouterr().out
        assert "block 0: pass" in out
        assert "block 1: fail (t-order, t-immediate, t-unbiased)" in out

    def test_check_inline_nodes_and_edges(self, capsys, est):
        code, data = run_json(capsys, [
            "trees", "check", est("example_d"),
            "--nodes", "nothing,As,Sb,Ge",
            "--edges", "As=nothing,Sb=nothing,Ge=nothing"])
        assert code == 0
        assert data["checks"][0]["tree"] == "command line"

    def test_check_inline_edges_skip_empty_items(self, capsys, est):
        """An empty item, as a trailing comma leaves, is no edge."""
        code, data = run_json(capsys, [
            "trees", "check", est("example_d"),
            "--nodes", "nothing,As,Sb,Ge",
            "--edges", "As=nothing,,Sb=nothing, ,Ge=nothing,"])
        assert code == 0
        assert data["checks"][0]["passed"] is True

    def test_check_inline_subtree_fails_conditions(self, capsys, tmp_path):
        path = tmp_path / "fork.est"
        path.write_text(FORK, encoding="utf-8")
        code, data = run_json(capsys, ["trees", "check", str(path),
                                       "--nodes", "r,L",
                                       "--edges", "L=r"])
        assert code == 1
        assert "t-branching" in data["checks"][0]["failed"]

    def test_check_unknown_node_is_usage_error(self, capsys, est):
        assert cli.run(["trees", "check", est("example_d"),
                        "--nodes", "nothing,zzz"]) == 2
        assert "zzz" in capsys.readouterr().err

    def test_check_malformed_edge_argument(self, capsys, est):
        assert cli.run(["trees", "check", est("example_d"),
                        "--nodes", "nothing,As",
                        "--edges", "As-nothing"]) == 2
        assert "child=parent" in capsys.readouterr().err

    def test_check_needs_blocks_or_nodes(self, capsys, est):
        assert cli.run(["trees", "check", est("example_j")]) == 2
        assert "nothing to check" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        pytest.param(["--edges", "As=nothing"], "--edges needs --nodes",
                     id="edges-without-nodes"),
        pytest.param(["--nodes", "nothing,As,Sb,Ge", "--block", "1"],
                     "not both", id="block-with-nodes"),
    ])
    def test_check_rejects_flags_it_would_ignore(self, capsys, est, flags,
                                                 message):
        assert cli.run(["trees", "check", est("example_d"), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [captured.err.strip()]
        assert captured.err.startswith("error: ") and message in captured.err


class TestPlanCommands:
    def test_isd_flags_root_violation(self, capsys, est):
        code, data = run_json(capsys, ["plan", "isd", est("example_r")])
        assert code == 1
        assert data["consistent"] is False
        assert data["violations"] == [["nothing", "b"]]

    def test_isd_violation_text(self, capsys, est):
        assert cli.run(["plan", "isd", est("example_r")]) == 1
        out = capsys.readouterr().out
        assert out.rstrip() == ("violation at nothing: immediate "
                                "refinements unanimously choose b")

    def test_isd_consistent_plan(self, capsys, est):
        code, data = run_json(capsys, ["plan", "isd", est("example_t")])
        assert code == 0
        assert data == {"consistent": True, "violations": []}

    def test_isd_requires_a_plan(self, capsys, est):
        assert cli.run(["plan", "isd", est("example_c")]) == 2
        assert "declares no plan" in capsys.readouterr().err

    def test_decide_feasible_uniform_weights(self, capsys, est):
        code, data = run_json(capsys, ["plan", "decide", est("example_r")])
        assert code == 0
        assert data["feasible"] is True
        assert data["verified"] is True
        assert data["weights"] == {z: "1/5"
                                   for z in ("z1", "z2", "z3", "z4", "z5")}

    def test_decide_infeasible_with_certificate(self, capsys, est):
        code, data = run_json(capsys, ["plan", "decide", est("example_t")])
        assert code == 1
        assert data["feasible"] is False
        assert data["verified"] is True
        assert data["certificate"]
        for state, alt, mult in data["certificate"]:
            assert parse_rational(mult) > 0
            assert alt in ("a", "b", "c")

    def test_decide_has_no_method_option(self, capsys, est):
        assert cli.run(["plan", "decide", est("example_r"),
                        "--method", "exact"]) == 2
        assert "--method" in capsys.readouterr().err

    def test_isd_guards_axioms(self, capsys, tmp_path):
        path = tmp_path / "unseparated.est"
        path.write_text("root nothing\nstate x\nstate y\n"
                        "pair x nothing\npair y x\n"
                        "alts a b\nchoose nothing a\nchoose x a\n"
                        "choose y a\n", encoding="utf-8")
        assert cli.run(["plan", "isd", str(path)]) == 1
        assert capsys.readouterr().out == ("not an e-structure; failing "
                                           "axioms: separation\n")

    def test_rationalize_frozen_representation(self, capsys, est):
        code, data = run_json(capsys, ["plan", "rationalize",
                                       est("example_d")])
        assert code == 0
        assert data["points"] == [["As", "nothing"], ["Sb", "nothing"],
                                  ["As", "As"], ["Sb", "Sb"], ["Ge", "Ge"]]
        assert data["weights"] == ["81/121", "27/121", "9/121", "3/121",
                                   "1/121"]
        assert data["rawWeights"] == ["2/3", "2/9", "2/27", "2/81", "2/243"]
        assert data["utilities"] == {"a": [1, 1, 0, 0, 1],
                                     "b": [1, 0, 1, 0, 0],
                                     "c": [0, 1, 0, 1, 0]}
        assert data["avoid"] == {"As|a": 2, "As|c": 2, "Ge|b": 4,
                                 "Ge|c": 4, "Sb|a": 3, "Sb|b": 3,
                                 "nothing|b": 1, "nothing|c": 0}
        v = data["verification"]
        assert v["verified"] is True
        assert v["minMargin"] == "1/121"
        assert v["margins"]["nothing|b"] == "19/121"
        assert v["failures"] == []

    def test_rationalize_needs_tree_shape(self, capsys, est):
        code, data = run_json(capsys, ["plan", "rationalize",
                                       est("example_t")])
        assert code == 1
        assert "not itself a tree" in data["error"]

    @pytest.mark.parametrize("choices, message", [
        ("choose r x\nchoose a y\nchoose b y\n",
         "every child of 'r' chooses 'y'; the plan is "
         "dominance-inconsistent there"),
        ("choose r x\nchoose a y\n", "plan does not cover tree node 'b'"),
    ], ids=["dominance", "partial"])
    def test_rationalize_reports_a_plan_it_cannot_rationalize(
            self, capsys, tmp_path, choices, message):
        path = tmp_path / "fork.est"
        path.write_text("root r\nstate a\nstate b\npair a r\npair b r\n"
                        "alts x y\n" + choices, encoding="utf-8")
        code, data = run_json(capsys, ["plan", "rationalize", str(path)])
        assert code == 1
        assert data == {"error": message}


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_closed_stdout_keeps_the_exit_code(est, fmt):
    """A reader that has gone away costs the output, not the verdict."""
    argv = [sys.executable, "-m", "evistruct.cli", "trees", "check",
            est("example_d"), "--format", fmt]
    env = {**os.environ,
           "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    expected = subprocess.run(argv, env=env, capture_output=True,
                              timeout=60).returncode
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = subprocess.run(argv, env=env, stdout=write_end,
                             stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write_end)
    assert expected == 1  # block 1 of example_d fails its conditions
    assert run.returncode == expected
    assert run.stderr == b""


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_plan_short_of_a_tree_node_fails_both_commands_alike(
        capsys, tmp_path, fmt):
    """plan rationalize and verify of a product-form witness read one
    file whose plan leaves tree node b undecided: both exit 1 with one
    error, a fault of the file's plan, not of the witness."""
    path = tmp_path / "fork.est"
    path.write_text("root r\nstate a\nstate b\npair a r\npair b r\n"
                    "alts x y\nchoose r x\nchoose a y\n", encoding="utf-8")
    witness = tmp_path / "witness.json"
    witness.write_text(json.dumps({"points": [["a", "r"]], "weights": ["1"],
                                   "utilities": {"x": [0], "y": [1]}}),
                       encoding="utf-8")
    message = "plan does not cover tree node 'b'"
    want = json.dumps({"error": message}, indent=2) if fmt == "json" else (
        message)
    for argv in (["plan", "rationalize", str(path)],
                 ["verify", str(path), str(witness)]):
        assert cli.run(argv + ["--format", fmt]) == 1
        assert capsys.readouterr() == (want + "\n", "")


class TestVerifyCommand:
    def witness_path(self, tmp_path, payload):
        path = tmp_path / "witness.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def test_atom_level_witness_verifies(self, capsys, est, tmp_path):
        witness = self.witness_path(tmp_path, {
            "weights": {z: "1/5" for z in ("z1", "z2", "z3", "z4", "z5")},
            "utilities": {"a": {"z1": "1", "z2": "1", "z3": "1"},
                          "b": {"z4": "1", "z5": "1"}},
        })
        code, data = run_json(capsys, ["verify", est("example_r"), witness])
        assert code == 0
        assert data["verified"] is True
        assert set(data["margins"].values()) == {"1/5"}
        assert len(data["margins"]) == 9

    def test_atom_level_tampering_is_caught(self, capsys, est, tmp_path):
        witness = self.witness_path(tmp_path, {
            "weights": {z: "1/5" for z in ("z1", "z2", "z3", "z4", "z5")},
            "utilities": {"a": {"z1": "1", "z2": "1"},
                          "b": {"z4": "1", "z5": "1"}},
        })
        code, data = run_json(capsys, ["verify", est("example_r"), witness])
        assert code == 1
        assert data["verified"] is False
        assert data["margins"]["z3|b"] == "0/1"

    def test_product_witness_round_trips_from_rationalize(
            self, capsys, est, tmp_path):
        code, built = run_json(capsys, ["plan", "rationalize",
                                        est("example_d")])
        assert code == 0
        witness = self.witness_path(tmp_path, {
            "points": built["points"],
            "weights": built["weights"],
            "utilities": built["utilities"],
        })
        code, data = run_json(capsys, ["verify", est("example_d"), witness])
        assert code == 0
        assert data["verified"] is True
        assert data["margins"] == built["verification"]["margins"]

    def test_three_verifiers_agree_on_random_tree_plans(self, capsys,
                                                        tmp_path):
        """The constructed witness's own margins, the margins `verify`
        computes for the product-form JSON that `plan rationalize` emits,
        and the oracle's margins over events read off the tree order are
        the same table."""
        rng = random.Random(4242)
        for k in range(12):
            tree = splitting_tree(rng, max_nodes=16)
            plan = consistent_plan(rng, tree)
            path = tmp_path / f"tree{k}.est"
            text = format_workspace(Workspace(tree.ambient, (), plan))
            path.write_text(text, encoding="utf-8")
            code, built = run_json(capsys, ["plan", "rationalize", str(path)])
            assert code == 0
            witness = self.witness_path(tmp_path, built)
            code, checked = run_json(capsys, ["verify", str(path), witness])
            assert code == 0

            r = construct_sceu(tree, plan)
            report = verify_rationalization(tree, plan, r)
            leaf = [cls[0] for cls in tree.canonical.atoms]
            oracle = oracles.margins_oracle(
                lambda x: [i for i, p in enumerate(r.points)
                           if (leaf[p.atom], x) in tree.ambient.relation],
                dict(enumerate(r.weights)),
                {b: (lambda vals: (lambda i: vals[i]))(r.utilities[b])
                 for b in plan.alternatives},
                list(tree.nodes), dict(plan.choice), plan.alternatives)
            via_cli = {tuple(key.split("|")): parse_rational(value)
                       for key, value in checked["margins"].items()}
            assert dict(report.margins) == via_cli == oracle
            assert min(oracle.values()) > 0

    def test_product_witness_bad_total_weight(self, capsys, est, tmp_path):
        code, built = run_json(capsys, ["plan", "rationalize",
                                        est("example_d")])
        built["weights"][0] = "80/121"
        witness = self.witness_path(tmp_path, {
            "points": built["points"],
            "weights": built["weights"],
            "utilities": built["utilities"],
        })
        code, data = run_json(capsys, ["verify", est("example_d"), witness])
        assert code == 1
        assert any("sum" in f for f in data["failures"])

    def test_product_witness_unknown_atom(self, capsys, est, tmp_path):
        witness = self.witness_path(tmp_path, {
            "points": [["Xx", "nothing"]],
            "weights": ["1/1"],
            "utilities": {"a": ["1"], "b": ["0"], "c": ["0"]},
        })
        assert cli.run(["verify", est("example_d"), witness]) == 2
        assert "unknown sample point" in capsys.readouterr().err

    def test_atom_level_unknown_labels_fail(self, capsys, est, tmp_path):
        """A table for an alternative the plan lacks and a label in a's
        table that is no atom each fail, in JSON and in text."""
        payload = json.loads((PERFBENCH / "witnesses"
                              / "example_r_atoms.json").read_text())
        payload["utilities"]["zz"] = {"nope": "9"}
        payload["utilities"]["a"]["typo"] = "1"
        witness = self.witness_path(tmp_path, payload)
        failures = ["unknown sample points ['typo']",
                    "unknown alternatives ['zz']"]
        code, data = run_json(capsys, ["verify", est("example_r"), witness])
        assert (code, data["verified"], data["failures"]) == (1, False,
                                                              failures)
        assert cli.run(["verify", est("example_r"), witness]) == 1
        assert capsys.readouterr().out.splitlines()[-3:] == [
            *failures, "not verified"]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_product_witness_unknown_alternative(self, capsys, est, tmp_path,
                                                 fmt):
        """A utility list for an alternative the plan lacks is malformed
        input, as a missing one is, whatever its length."""
        payload = json.loads((PERFBENCH / "witnesses"
                              / "example_d_product.json").read_text())
        payload["utilities"]["zz"] = ["7"]
        witness = self.witness_path(tmp_path, payload)
        assert cli.run(["verify", est("example_d"), witness,
                        "--format", fmt]) == 2
        assert capsys.readouterr() == (
            "", "error: utilities name unknown alternative 'zz'\n")

    @pytest.mark.parametrize("field, value, message", [
        ("utilities", [["1", "1", "0", "0", "1"]], "'utilities'"),
        ("weights", {"As": "1/2"}, "'weights'"),
        ("points", [[["As"], "nothing"]], "bad point"),
    ])
    def test_product_witness_malformed_field(self, capsys, est, tmp_path,
                                             field, value, message):
        code, built = run_json(capsys, ["plan", "rationalize",
                                        est("example_d")])
        payload = {"points": built["points"], "weights": built["weights"],
                   "utilities": built["utilities"], field: value}
        witness = self.witness_path(tmp_path, payload)
        assert cli.run(["verify", est("example_d"), witness]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert message in captured.err
        assert len(captured.err.splitlines()) == 1

    def test_product_witness_point_state_outside_the_tree(
            self, capsys, est, tmp_path):
        code, built = run_json(capsys, ["plan", "rationalize",
                                        est("example_d")])
        points = [*built["points"][:-1], [*built["points"][-1][:-1], "zz"]]
        witness = self.witness_path(tmp_path, {
            "points": points, "weights": built["weights"],
            "utilities": built["utilities"]})
        assert cli.run(["verify", est("example_d"), witness]) == 2
        assert capsys.readouterr().err == (
            "error: point state 'zz' is not a tree node\n")

    def test_product_witness_on_a_structure_that_is_no_tree(
            self, capsys, est):
        witness = str(PERFBENCH / "witnesses" / "example_d_product.json")
        code, data = run_json(capsys, ["verify", est("example_t"), witness])
        assert code == 1
        assert data == {"error": "state 'z3' has 2 immediate predecessors, "
                                 "so the structure is not itself a tree"}

    @pytest.mark.parametrize("stem", sorted(
        name[:-len(".est")] for name, text in FIXTURES.items()
        if parse_workspace(text).plan is not None))
    def test_decide_output_verifies_for_every_fixture_with_a_plan(
            self, capsys, est, tmp_path, stem):
        """What plan decide --format json prints, a weighting or a
        certificate, is a witness verify accepts as it stands."""
        code, decided = run_json(capsys, ["plan", "decide", est(stem)])
        assert code == (0 if decided["feasible"] else 1)
        witness = self.witness_path(tmp_path, decided)
        code, data = run_json(capsys, ["verify", est(stem), witness])
        assert (code, data["verified"], data["failures"]) == (0, True, [])

    def test_decide_output_verifies_on_every_route(self, capsys, tmp_path):
        """Seeded plans on subset families reach every route label, and
        the simplex both ways; each decision's JSON, piped into verify,
        verifies."""
        rng = random.Random(1313)
        routes = set()
        path = tmp_path / "family.est"
        for _ in range(40):
            s = subset_family_structure(rng, max_universe=4)
            plan = arbitrary_plan(rng, s)
            path.write_text(format_workspace(Workspace(s, (), plan)),
                            encoding="utf-8")
            result = decide_rationalizable(s, plan)
            routes.add((result.path, result.feasible))
            code, decided = run_json(capsys, ["plan", "decide", str(path)])
            assert code == (0 if result.feasible else 1)
            witness = self.witness_path(tmp_path, decided)
            code, data = run_json(capsys, ["verify", str(path), witness])
            assert (code, data["verified"]) == (0, True), result.path
        assert routes >= {("dominance", False), ("tree", True),
                          ("simplex", True), ("simplex", False),
                          ("simplex-dual", False)}

    @pytest.mark.parametrize("edit, failure", [
        pytest.param(lambda rows: [[*rows[0][:2], "0"], *rows[1:]],
                     "combination positive on g[b][z1]", id="zeroed"),
        pytest.param(lambda rows: [[x, a, "0"] for x, a, _ in rows],
                     "zero combination", id="all-zeroed"),
        pytest.param(lambda rows: rows[1:],
                     "combination positive on g[b][z1]", id="dropped"),
        pytest.param(lambda rows: [*rows, ["nope", "a", "1/1"]],
                     "unknown row (nope, a)", id="unknown"),
        pytest.param(lambda rows: [], "missing certificate", id="empty"),
        pytest.param(lambda rows: [[x, a, "-1"] for x, a, _ in rows],
                     "multiplier -1/1 is not a nonnegative rational",
                     id="negated"),
        pytest.param(lambda rows: [*rows[:-1], [*rows[-1][:2], "-3/6"]],
                     "multiplier -1/2 is not a nonnegative rational",
                     id="last-negative"),
    ])
    def test_certificate_that_proves_nothing_fails(
            self, capsys, est, tmp_path, edit, failure):
        code, decided = run_json(capsys, ["plan", "decide",
                                          est("example_t")])
        assert code == 1
        witness = self.witness_path(
            tmp_path, {"certificate": edit(decided["certificate"])})
        code, data = run_json(capsys, ["verify", est("example_t"), witness])
        assert (code, data) == (1, {"verified": False, "margins": {},
                                    "failures": [failure]})

    def test_negative_multiplier_prints_as_a_rational(self, capsys, est,
                                                       tmp_path):
        """The text output names a bad multiplier in the n/d form every
        other number takes, not as Python's repr."""
        code, decided = run_json(capsys, ["plan", "decide",
                                          est("example_t")])
        witness = self.witness_path(tmp_path, {"certificate": [
            [x, a, "-1"] for x, a, _ in decided["certificate"]]})
        assert cli.run(["verify", est("example_t"), witness]) == 1
        assert capsys.readouterr().out == (
            "multiplier -1/1 is not a nonnegative rational\n"
            "not verified\n")

    @pytest.mark.parametrize("certificate, message", [
        ({"x1": "1"}, None),
        (["x1a1"], None),
        ([["x1", "a"]], None),
        ([["x1", 2, "1"]], None),
        ([["x1", "a", "one"]], "not a rational: 'one'"),
        ([["x1", "a", 0.5]], "not a rational: 0.5"),
    ])
    def test_malformed_certificate_is_a_usage_error(
            self, capsys, est, tmp_path, certificate, message):
        witness = self.witness_path(tmp_path, {"certificate": certificate})
        assert cli.run(["verify", est("example_t"), witness]) == 2
        assert capsys.readouterr().err == "error: " + (
            f"malformed certificate: {message}" if message else
            "witness 'certificate' must list [state, alternative, "
            "rational] entries") + "\n"

    def test_witness_must_be_json_object(self, capsys, est, tmp_path):
        witness = self.witness_path(tmp_path, [1, 2])
        assert cli.run(["verify", est("example_r"), witness]) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_witness_with_invalid_json(self, capsys, est, tmp_path):
        path = tmp_path / "witness.json"
        path.write_text("{not json", encoding="utf-8")
        assert cli.run(["verify", est("example_r"), str(path)]) == 2

    def test_witness_file_missing(self, capsys, est, tmp_path):
        assert cli.run(["verify", est("example_r"),
                        str(tmp_path / "absent.json")]) == 2

    def test_empty_witness_object(self, capsys, est, tmp_path):
        witness = self.witness_path(tmp_path, {})
        assert cli.run(["verify", est("example_r"), witness]) == 2
        assert "neither" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_empty_weights_are_an_atom_level_witness(self, capsys, est,
                                                     tmp_path, fmt):
        """A 'weights' key makes an atom-level witness even when its
        table is empty: it is verified, and fails, rather than being
        taken for a file with no witness at all."""
        witness = self.witness_path(tmp_path, {"weights": {},
                                               "utilities": {}})
        code = cli.run(["verify", est("example_r"), witness,
                        "--format", fmt])
        out = capsys.readouterr().out
        assert code == 1
        if fmt == "json":
            assert json.loads(out)["failures"][0] == (
                "weights sum to 0, not 1")
        else:
            assert "weights sum to 0, not 1\n" in out
            assert out.endswith("not verified\n")

    @pytest.mark.parametrize("payload, message", [
        ({"utilities": {"b": []}},
         "witness utility table for 'b' must map each atom to a rational"),
        ({"weights": {"z1": "1"}, "utilities": {"a": {}, "b": "1"}},
         "witness utility table for 'b' must map each atom to a rational"),
        ({"weights": {}, "utilities": ["a"]},
         "witness 'utilities' must map each alternative to a table"),
        ({"weights": ["1"]},
         "witness 'weights' must map each atom to a rational"),
        ({"weights": {"z1": "x"}}, "malformed witness: not a rational: 'x'"),
    ])
    def test_malformed_atom_level_tables_are_named(
            self, capsys, est, tmp_path, payload, message):
        witness = self.witness_path(tmp_path, payload)
        assert cli.run(["verify", est("example_r"), witness]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestInvocation:
    def test_no_arguments_is_usage_error(self, capsys):
        assert cli.run([]) == 2
        capsys.readouterr()

    def test_unknown_command_is_usage_error(self, capsys):
        assert cli.run(["frobnicate"]) == 2
        capsys.readouterr()

    def test_help_exits_cleanly(self, capsys):
        assert cli.run(["--help"]) == 0
        assert "evistruct" in capsys.readouterr().out

    def test_missing_input_file(self, capsys, tmp_path):
        assert cli.run(["check", str(tmp_path / "absent.est")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_parse_error_reports_path_and_line(self, capsys, tmp_path):
        path = tmp_path / "bad.est"
        path.write_text("root r\nstate r\n", encoding="utf-8")
        assert cli.run(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert "bad.est" in err and "line 2" in err

    def test_fixtures_subcommand_writes_corpus(self, capsys, tmp_path):
        target = tmp_path / "fx"
        code, data = run_json(capsys, ["fixtures", str(target)])
        assert code == 0
        assert sorted(p.split("/")[-1] for p in data["written"]) \
            == sorted(FIXTURES)
        for name, text in FIXTURES.items():
            assert (target / name).read_text(encoding="utf-8") == text

    def test_json_output_is_deterministic(self, capsys, est):
        outs = []
        for _ in range(2):
            assert cli.run(["rank", est("example_c"),
                            "--format", "json"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]


SEPARATION_FAILS = ("root r\nstate a\nstate b\nstate c\npair a r\n"
                    "pair b r\npair c a\nalts x y\nchoose r x\nchoose a y\n")


@pytest.mark.parametrize("case, want", [
    ("fixtures into a regular file", 2), ("structure not UTF-8", 2),
    ("witness not UTF-8", 2), ("witness nested too deep", 2),
    ("verify on a structure failing separation", 1)])
def test_inputs_that_raised_exit_by_the_contract(capsys, tmp_path, case,
                                                 want):
    """Each of these once left run() as a traceback. Malformed input
    exits 2 with one error: line; a structure failing its axioms stops
    verify at the axiom guard, as it stops the plan commands."""
    regular, raw = tmp_path / "F", tmp_path / "raw"
    regular.write_text("x", encoding="utf-8")
    raw.write_bytes(b"\xff\xfe")
    deep, est = tmp_path / "deep.json", tmp_path / "sep.est"
    deep.write_text("[" * 5000, encoding="utf-8")
    est.write_text(SEPARATION_FAILS, encoding="utf-8")
    witness = tmp_path / "witness.json"
    witness.write_text(json.dumps({
        "weights": {"c": "1/2", "b": "1/2"},
        "utilities": {"x": {"b": 1}, "y": {"c": 1}}}), encoding="utf-8")
    argv = {"fixtures into a regular file": ["fixtures", str(regular / "d")],
            "structure not UTF-8": ["check", str(raw)],
            "witness not UTF-8": ["verify", str(est), str(raw)],
            "witness nested too deep": ["verify", str(est), str(deep)],
            "verify on a structure failing separation":
                ["verify", str(est), str(witness)]}[case]
    assert cli.run(argv + ["--format", "json"]) == want
    captured = capsys.readouterr()
    if want == 2:
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")
    else:
        assert captured.err == ""
        data = json.loads(captured.out)
        assert data["passed"] is False
        assert data["axioms"]["separation"] is False


SUBCOMMANDS = (["check"], ["rank"], ["canonical"], ["trees", "find"],
               ["trees", "check"], ["plan", "isd"], ["plan", "decide"],
               ["plan", "rationalize"])
SWAPS = (None, 0, -1, 1.5, True, "x", "1/0", "nothing", [], ["x"], {},
         {"a": 1})


def _mutate_text(rng, text):
    """One line drop, line swap, truncation or token swap."""
    lines = text.splitlines()
    kind = rng.randrange(4)
    if kind == 2:
        return text[:rng.randrange(len(text) + 1)]
    if kind == 0 and lines:
        del lines[rng.randrange(len(lines))]
    elif kind == 1 and lines:
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == 3:
        tokens = text.split()
        i = rng.randrange(len(lines)) if lines else 0
        parts = lines[i].split() if lines else []
        if parts and tokens:
            parts[rng.randrange(len(parts))] = rng.choice(tokens)
            lines[i] = " ".join(parts)
    return "\n".join(lines) + "\n"


def _mutate_value(rng, value):
    """One type swap, deletion or insertion, somewhere inside value. Any
    Mapping is edited as a dict copy, so a tree's read-only parent map is
    edited inside, not only swapped whole."""
    if isinstance(value, Mapping) and value and rng.random() < 0.7:
        value, key = dict(value), rng.choice(sorted(value, key=str))
        kind = rng.randrange(3)
        if kind == 0:
            del value[key]
        elif kind == 1:
            value[key] = _mutate_value(rng, value[key])
        else:
            value[f"{key}x"] = rng.choice(SWAPS)
        return value
    if isinstance(value, (list, tuple)) and value and rng.random() < 0.7:
        items, i = list(value), rng.randrange(len(value))
        kind = rng.randrange(3)
        if kind == 0:
            del items[i]
        elif kind == 1:
            items[i] = _mutate_value(rng, items[i])
        else:
            items.insert(i, rng.choice(SWAPS))
        return type(value)(items)
    return rng.choice(SWAPS)


class TestTotalityCampaign:
    """Seeded mutations of fixture texts, verify witnesses and library
    witnesses: every CLI run exits 0, 1 or 2 with nothing on stderr but
    error: lines, and every library verifier returns a report."""

    @staticmethod
    def run_cli(capsys, argv):
        code = cli.run(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2), argv
        assert all(line.startswith("error:")
                   for line in err.splitlines()), err
        return code

    def test_mutated_fixture_texts(self, capsys, tmp_path):
        """Each mutated text also goes to verify with a fixture witness,
        and about one in ten has bytes that are not UTF-8 spliced in,
        which every command rejects as malformed. The splices and the
        witnesses are drawn from their own generator."""
        rng, splice = random.Random(4242), random.Random(2424)
        witnesses = sorted(str(p) for p in (PERFBENCH / "witnesses").glob(
            "*.json"))
        path = tmp_path / "mutated.est"
        spliced = 0
        for _ in range(800):
            text = FIXTURES[rng.choice(sorted(FIXTURES))]
            for _ in range(rng.randint(1, 3)):
                text = _mutate_text(rng, text)
            data, broken = text.encode(), splice.random() < 0.1
            if broken:
                i = splice.randrange(len(data) + 1)
                data = (data[:i] + splice.choice([b"\xff", b"\xc3",
                                                  b"\xe2\x82"]) + data[i:])
            path.write_bytes(data)
            spliced += broken
            codes = {self.run_cli(capsys, rng.choice(SUBCOMMANDS) + [
                str(path), "--format", rng.choice(["text", "json"])]),
                self.run_cli(capsys, ["verify", str(path),
                                      splice.choice(witnesses)])}
            assert not broken or codes == {2}
        assert spliced > 50

    def test_mutated_witness_files(self, capsys, est, tmp_path):
        witnesses = []
        for stem, command, want in (("example_d", "rationalize", 0),
                                    ("example_r", "decide", 0),
                                    ("example_t", "decide", 1)):
            code, data = run_json(capsys, ["plan", command, est(stem)])
            assert code == want
            keep = ("points", "weights", "utilities", "certificate")
            witnesses.append((stem, {k: v for k, v in data.items()
                                     if k in keep}))
        rng = random.Random(2424)
        path = tmp_path / "witness.json"
        for _ in range(500):
            stem, data = rng.choice(witnesses)
            for _ in range(rng.randint(1, 3)):
                data = _mutate_value(rng, data)
            path.write_text(json.dumps(data), encoding="utf-8")
            self.run_cli(capsys, ["verify", est(stem), str(path)])

    def test_mutated_library_witnesses(self, corpus):
        ws = corpus["example_d"]
        tree = build_tree(ws.structure, ws.trees[0].nodes,
                          ws.trees[0].edges)
        built = construct_sceu(tree, ws.plan)
        results = [decide_rationalizable(corpus[stem].structure,
                                         corpus[stem].plan)
                   for stem in ("example_d", "example_r", "example_t")]
        space = build_canonical(ws.structure)
        rng = random.Random(2442)
        for _ in range(1000):
            times = rng.randint(1, 3)
            kind = rng.randrange(4)
            if kind == 0:  # the constructed witness's own fields
                name = rng.choice(["points", "raw_weights", "weights",
                                   "utilities", "avoid"])
                value = getattr(built, name)
                for _ in range(times):
                    value = _mutate_value(rng, value)
                witness = dataclasses.replace(built, **{name: value})
                report = verify_rationalization(tree, ws.plan, witness)
            elif kind == 1:
                result = rng.choice(results)
                name = rng.choice(["feasible", "weights", "utilities",
                                   "certificate"])
                value = getattr(result, name)
                for _ in range(times):
                    value = _mutate_value(rng, value)
                tampered = dataclasses.replace(result, **{name: value})
                report = verify_certificate(result.system, tampered)
            elif kind == 2:
                events = dict(space.events)
                for _ in range(times):
                    events = _mutate_value(rng, events)
                report = verify_canonical(
                    CanonicalSpace(space.atoms, events), ws.structure)
            else:
                atoms = space.atoms
                for _ in range(times):
                    atoms = _mutate_value(rng, atoms)
                report = verify_canonical(
                    CanonicalSpace(atoms, space.events), ws.structure)
            assert isinstance(report, (ConditionReport, WitnessReport))

    def test_mutated_witness_trees(self, corpus):
        ws = corpus["example_d"]
        tree = build_tree(ws.structure, ws.trees[0].nodes,
                          ws.trees[0].edges)
        built = construct_sceu(tree, ws.plan)
        rng = random.Random(2244)
        failed = edited_inside = 0
        for _ in range(300):
            name = rng.choice(["ambient", "nodes", "parent"])
            value = getattr(tree, name)
            for _ in range(rng.randint(1, 3)):
                value = _mutate_value(rng, value)
            edited_inside += (name == "parent" and isinstance(value, dict)
                              and bool(value.keys() & tree.parent.keys()))
            witness = dataclasses.replace(
                built, tree=dataclasses.replace(tree, **{name: value}))
            report = verify_rationalization(ws.structure, ws.plan, witness)
            assert isinstance(report, WitnessReport)
            failed += not report.verified
        assert failed > 250
        assert edited_inside > 30  # the read-only parent map, edited inside


def test_cli_output_matches_the_golden_table(capsys, tmp_path, monkeypatch):
    """Every command of the benchmark's golden table, run in-process from a
    directory holding the bundled fixtures and the benchmark's witness
    files, gives the recorded exit code and the same stdout bytes."""
    golden = json.loads(
        (PERFBENCH / "golden.json").read_text(encoding="utf-8"))
    emit_fixtures(tmp_path)
    for witness in (PERFBENCH / "witnesses").glob("*.json"):
        shutil.copyfile(witness, tmp_path / witness.name)
    monkeypatch.chdir(tmp_path)
    assert len(golden) == 84
    mismatches = []
    for command, want in sorted(golden.items()):
        code = cli.run(command.split(" "))
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        if (code, digest) != (want["exit"], want["stdout_sha256"]):
            mismatches.append(command)
    assert mismatches == []


# ------------------------------------------------- modules per process

MODULES = ("canonical", "feasibility", "io", "plans", "rationalize",
           "structure", "trees")
START = ("io", "plans", "structure")


def _fresh(code: str, *args: str, cwd=None) -> subprocess.CompletedProcess:
    """Run code in a new interpreter that imports the package from src/
    (and the benchmark's modules from perfbench/)."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(root / "src"), str(PERFBENCH)])}
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=60)


_LOADED = ("sorted(m.split('.', 1)[1] for m in sys.modules "
           "if m.startswith('evistruct.'))")

_RUN_CLI = f"""
import runpy, sys
sys.argv[0] = "evistruct"
try:
    runpy.run_module("evistruct.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
print(" ".join({_LOADED}), file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize("argv, added", [
    pytest.param("check example_t.est", (), id="check"),
    pytest.param("rank example_j.est", (), id="rank"),
    pytest.param("plan isd example_t.est", (), id="plan-isd"),
    pytest.param("fixtures written", (), id="fixtures"),
    pytest.param("canonical example_c.est", ("canonical",), id="canonical"),
    pytest.param("trees find example_t.est", ("trees",), id="trees-find"),
    pytest.param("trees check example_d.est", ("trees",),
                 id="trees-check"),
    pytest.param("plan decide example_t.est",
                 ("canonical", "feasibility"), id="plan-decide"),
    pytest.param("plan rationalize example_d.est", MODULES,
                 id="plan-rationalize"),
    pytest.param("verify example_d.est example_d_product.json", MODULES,
                 id="verify-product"),
    pytest.param("verify example_r.est example_r_atoms.json", MODULES,
                 id="verify-atoms"),
])
def test_each_subcommand_loads_only_the_modules_it_runs(
        capsys, tmp_path, monkeypatch, argv, added):
    """A CLI process starts on io, plans and structure; a subcommand adds
    the modules its handler runs, and gives the exit code and output of
    the same command run in-process."""
    emit_fixtures(tmp_path)
    for witness in (PERFBENCH / "witnesses").glob("*.json"):
        shutil.copyfile(witness, tmp_path / witness.name)
    run = _fresh(_RUN_CLI, *argv.split(), cwd=tmp_path)
    *_, loaded = run.stderr.splitlines()
    assert loaded.split() == sorted({*START, *added})
    monkeypatch.chdir(tmp_path)
    assert cli.run(argv.split()) == run.returncode
    assert capsys.readouterr().out == run.stdout


def test_a_bare_import_loads_no_module():
    run = _fresh(f"import sys, evistruct\nprint({_LOADED})\n"
                 "print(evistruct.__version__)")
    assert run.stdout.split("\n")[:2] == ["[]", "0.1.0"]


@pytest.mark.parametrize("first", ["FeasibilityResult", "Plan", *MODULES])
def test_first_use_of_a_name_loads_the_whole_namespace(first):
    """Whichever exported name or module name comes first, all seven
    modules load and every name of __all__ is the one object each module
    namespace holding it binds, so its defining module's (which
    test_source.py pins to exactly one module); the fresh process reads
    the __all__ this one does."""
    run = _fresh(f"""
import sys, evistruct
getattr(evistruct, {first!r})
print({_LOADED})
spaces = [vars(sys.modules["evistruct." + stem]) for stem in {MODULES!r}]
mismatched = [name for name in evistruct.__all__
              if {{id(space[name]) for space in spaces if name in space}}
              != {{id(getattr(evistruct, name))}}]
print(mismatched, len(evistruct.__all__))
""")
    assert run.stdout.splitlines() == [repr(list(MODULES)),
                                       f"[] {len(evistruct.__all__)}"]


def test_star_import_and_dir_give_all_of_all():
    run = _fresh(f"""
import sys, evistruct
listed = dir(evistruct)
print({_LOADED})
print(sorted(set(evistruct.__all__) - set(listed)))
namespace = {{}}
exec("from evistruct import *", namespace)
print(sorted(set(namespace) - {{"__builtins__"}})
      == sorted(evistruct.__all__))
""")
    assert run.stdout.splitlines() == ["[]", "[]", "True"]


def test_an_unknown_name_is_missing_and_loads_nothing():
    run = _fresh(f"""
import sys, evistruct
for name in ("no_such_name", "cli", "__wrapped__"):
    try:
        getattr(evistruct, name)
    except AttributeError as exc:
        print(exc)
print({_LOADED})
""")
    assert run.stdout.splitlines() == [
        "module 'evistruct' has no attribute 'no_such_name'",
        "module 'evistruct' has no attribute 'cli'",
        "module 'evistruct' has no attribute '__wrapped__'",
        "[]"]


def test_the_benchmark_tracer_installs_on_the_lazy_namespace():
    """The tracer reads every layer's module from sys.modules after the
    worker's one package import and its own import of the CLI: loading
    the whole namespace on first use is what keeps them all there."""
    run = _fresh("""
import evistruct
from evistruct import FeasibilityResult
from spans import Tracer
original = evistruct.find_trees
tracer = Tracer()
tracer.install()
wrapped = evistruct.find_trees is not original
tracer.uninstall()
print(wrapped, evistruct.find_trees is original)
""")
    assert run.stderr == ""
    assert run.stdout.splitlines() == ["True True"]
