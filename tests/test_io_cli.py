"""Workspace file parsing, serialization, and the command-line front end."""
from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from conftest import (arbitrary_plan, consistent_plan,
                      subset_family_structure, splitting_tree)
from evistruct import (FIXTURES, ParseError, TreeBlock, Workspace,
                       emit_fixtures, format_rational, format_workspace,
                       load_structure, parse_rational, parse_workspace)
from evistruct import cli

TWO_CHAIN = "root r\nstate a\npair a r\n"
FORK = "root r\nstate L\nstate R\npair L r\npair R r\n"


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

    def test_load_structure_drops_plan_and_blocks(self):
        ws = parse_workspace(FIXTURES["example_d.est"])
        assert load_structure(FIXTURES["example_d.est"]) == ws.structure

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
