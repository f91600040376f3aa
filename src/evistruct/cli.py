"""Command-line front end.

Exit codes follow one contract everywhere: 0 means the queried property
holds or the construction succeeded, 1 means the property fails (the
output carries witnesses), 2 means the input or usage was malformed.
Every subcommand takes --format json|text; output bytes are
deterministic for fixed input and flags.

run() alone turns a command's outcome into output and an exit code.
Each handler returns (code, payload, lines); a helper that ends a
command early raises _Outcome carrying that triple, and _UsageError is
the one path to exit 2.

A process starts on io, plans and structure, which every subcommand
reads; each handler imports the rest of what it runs (canonical, trees,
feasibility, rationalize) when it runs, so check, rank and plan isd
never load the simplex or the SCEU construction. Names used only in
annotations are imported under TYPE_CHECKING.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .io import (ParseError, Workspace, emit_fixtures, format_rational,
                 parse_rational, parse_workspace)
from .plans import Plan, PlanError, check_isd_plan
from .structure import (EStructure, StructureError, WitnessReport,
                        check_axioms, rank)

if TYPE_CHECKING:
    from .rationalize import ExplicitRepresentation
    from .trees import ExperimentationTree


class _UsageError(Exception):
    """Problems with input or invocation; mapped to exit code 2."""


_Result = tuple[int, dict, list[str]]  # (exit code, payload, text lines)


class _Outcome(Exception):
    """A command's (code, payload, lines), raised by a helper that ends
    the command early; run() emits it as it does a handler's return."""


def _error(exc: Exception) -> _Outcome:
    """The outcome of a command stopped by exc: exit 1, its message as
    the payload's "error" and as the one text line."""
    return _Outcome(1, {"error": str(exc)}, [str(exc)])


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc


def _load(path: str) -> Workspace:
    try:
        return parse_workspace(_read(path))
    except ParseError as exc:
        raise _UsageError(f"{path}: {exc}") from exc


def _emit(args, payload: dict, lines: list[str]) -> None:
    try:
        if args.format == "json":
            print(json.dumps(payload, indent=2))
        else:
            for line in lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: send the rest, and the flush at exit, to the
        # null device, so the exit code still carries the verdict
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _target_tree(w: Workspace) -> ExperimentationTree:
    """The tree a plan command operates on.

    The first tree block when the file has one; otherwise the whole
    structure read as a tree through its immediate-refinement pairs.
    """
    from .trees import TreeError, as_tree, build_tree
    s = w.structure
    try:
        if w.trees:
            block = w.trees[0]
            return build_tree(s, block.nodes, block.edges)
        return as_tree(s)
    except TreeError as exc:
        raise _error(exc) from exc


def _guard_axioms(s: EStructure) -> None:
    report = check_axioms(s)
    if not report.passed:
        failed = ", ".join(report.failed_ids)
        raise _Outcome(1, {"passed": False, "axioms": {
            v.condition: v.passed for v in report.verdicts}},
            [f"not an e-structure; failing axioms: {failed}"])


def _plan_input(args) -> tuple[Workspace, Plan,
                              dict | ExplicitRepresentation | tuple | None]:
    """The preamble of the plan commands and verify: the workspace, its
    plan and verify's witness (None for the others), then the axiom
    guard: usage errors that need nothing from the structure come first."""
    w = _load(args.file)
    if w.plan is None:
        raise _UsageError("the file declares no plan (alts/choose lines)")
    witness = _read_witness(args.witness) if "witness" in args else None
    _guard_axioms(w.structure)
    return w, w.plan, witness


# ------------------------------------------------------------- commands

def _cmd_check(args) -> _Result:
    s = _load(args.file).structure
    report = check_axioms(s)
    payload = {
        "states": list(s.states),
        "root": s.root,
        "wms": s.matrix(),
        "axioms": {v.condition: v.passed for v in report.verdicts},
        "passed": report.passed,
        "witnesses": {v.condition: [str(part) for part in v.witness]
                      for v in report.verdicts
                      if not v.passed and v.witness},
    }
    lines = []
    for v in report.verdicts:
        line = f"{v.condition}: {'pass' if v.passed else 'fail'}"
        if not v.passed and v.witness:
            line += "  (" + ", ".join(str(p) for p in v.witness) + ")"
        lines.append(line)
    lines.append("e-structure" if report.passed else "not an e-structure")
    return 0 if report.passed else 1, payload, lines


def _cmd_rank(args) -> _Result:
    s = _load(args.file).structure
    try:
        table = rank(s)
    except StructureError as exc:
        raise _error(exc) from exc
    payload = {
        "rho": {x: table.rho[x] for x in s.states},
        "chains": {x: list(table.chains[x]) for x in s.states},
    }
    lines = [f"rho({x}) = {table.rho[x]}  chain: "
             + " -> ".join(table.chains[x]) for x in s.states]
    return 0, payload, lines


def _cmd_canonical(args) -> _Result:
    from .canonical import build_canonical
    s = _load(args.file).structure
    _guard_axioms(s)
    space = build_canonical(s)
    payload = {
        "atoms": [list(cls) for cls in space.atoms],
        "events": {x: sorted(space.events[x]) for x in s.states},
    }
    lines = [f"atom {i}: {space.atom_label(i)}"
             for i in range(len(space.atoms))]
    lines += [f"e({x}) = {{" + ", ".join(map(str, sorted(space.events[x])))
              + "}" for x in s.states]
    return 0, payload, lines


def _cmd_trees_find(args) -> _Result:
    from .trees import find_trees
    s = _load(args.file).structure
    try:
        trees = find_trees(s, max_count=args.max)
    except ValueError as exc:
        raise _UsageError(f"--max: {exc}") from exc
    payload = {
        "count": len(trees),
        "trees": [{"nodes": list(t.nodes),
                   "edges": [[x, t.parent[x]] for x in t.nodes
                             if x != s.root]}
                  for t in trees],
    }
    if not trees:
        payload["message"] = "no experimentation tree"
        return 1, payload, ["no experimentation tree"]
    lines = [f"found {len(trees)} experimentation tree(s)"]
    for i, t in enumerate(trees):
        edges = " ".join(f"{x}<-{t.parent[x]}" for x in t.nodes
                         if x != s.root)
        lines.append(f"tree {i}: nodes " + " ".join(t.nodes)
                     + ("; edges " + edges if edges else ""))
    return 0, payload, lines


def _parse_edge_list(raw: str) -> list[tuple[str, str]]:
    edges = []
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise _UsageError(
                f"bad edge {item!r}; expected child=parent")
        child, parent = item.split("=", 1)
        edges.append((child.strip(), parent.strip()))
    return edges


def _cmd_trees_check(args) -> _Result:
    from .trees import TreeError, check_tree
    if args.nodes is None and args.edges is not None:
        raise _UsageError("--edges needs --nodes")
    if args.nodes is not None and args.block is not None:
        raise _UsageError("give --block or --nodes, not both")
    w = _load(args.file)
    s = w.structure
    checks: list[tuple[str, list[str], list[tuple[str, str]]]] = []
    if args.nodes is not None:
        nodes = [t.strip() for t in args.nodes.split(",") if t.strip()]
        edges = _parse_edge_list(args.edges) if args.edges else []
        checks.append(("command line", nodes, edges))
    else:
        blocks = list(enumerate(w.trees))
        if args.block is not None:
            if not 0 <= args.block < len(w.trees):
                raise _UsageError(
                    f"--block {args.block} out of range; file has "
                    f"{len(w.trees)} tree block(s)")
            blocks = [(args.block, w.trees[args.block])]
        if not blocks:
            raise _UsageError(
                "nothing to check: no tree blocks in the file and no "
                "--nodes given")
        checks = [(f"block {i}", list(b.nodes), list(b.edges))
                  for i, b in blocks]

    results = []
    lines = []
    all_pass = True
    for label, nodes, edges in checks:
        try:
            report = check_tree(s, nodes, edges)
        except TreeError as exc:
            raise _UsageError(str(exc)) from exc
        all_pass = all_pass and report.passed
        results.append({
            "tree": label,
            "passed": report.passed,
            "failed": list(report.failed_ids),
            "witnesses": {c: [str(p) for p in wit] if wit else []
                          for c, wit in report.failures.items()},
        })
        if report.passed:
            lines.append(f"{label}: pass")
        else:
            lines.append(f"{label}: fail ({', '.join(report.failed_ids)})")
            for c, wit in report.failures.items():
                if wit:
                    lines.append(f"  {c}: "
                                 + ", ".join(str(p) for p in wit))
    return 0 if all_pass else 1, {"checks": results, "passed": all_pass}, lines


def _cmd_plan_isd(args) -> _Result:
    w, plan, _ = _plan_input(args)
    report = check_isd_plan(w.structure, plan)
    payload = {
        "consistent": report.consistent,
        "violations": [list(v) for v in report.violations],
    }
    if report.consistent:
        lines = ["consistent"]
    else:
        lines = [f"violation at {z}: immediate refinements unanimously "
                 f"choose {a}" for z, a in report.violations]
    return 0 if report.consistent else 1, payload, lines


def _cmd_plan_decide(args) -> _Result:
    from .feasibility import decide_rationalizable, verify_certificate
    w, plan, _ = _plan_input(args)
    result = decide_rationalizable(w.structure, plan)
    verified = verify_certificate(result.system, result).valid
    if result.feasible:
        payload = {
            "feasible": True,
            "weights": {atom: format_rational(v)
                        for atom, v in result.weights.items()},
            "utilities": {alt: {atom: format_rational(v)
                                for atom, v in table.items()}
                          for alt, table in result.utilities.items()},
            "verified": verified,
        }
        lines = ["feasible"]
        lines += [f"p({atom}) = {format_rational(v)}"
                  for atom, v in result.weights.items()]
        for alt, table in result.utilities.items():
            lines.append(f"f_{alt}: " + " ".join(
                f"{atom}={format_rational(v)}" for atom, v in table.items()))
        lines.append(f"witness verified: {verified}")
        return 0, payload, lines
    payload = {
        "feasible": False,
        "certificate": [[state, alt, format_rational(mult)]
                        for state, alt, mult in result.certificate],
        "verified": verified,
    }
    lines = ["infeasible"]
    lines += [f"multiplier {format_rational(m)} on constraint "
              f"({state}, {alt})" for state, alt, m in result.certificate]
    lines.append(f"certificate verified: {verified}")
    return 1, payload, lines


def _cmd_plan_rationalize(args) -> _Result:
    from .rationalize import (RationalizationError, construct_sceu,
                              verify_rationalization)
    w, plan, _ = _plan_input(args)
    tree = _target_tree(w)
    try:
        r = construct_sceu(tree, plan)
    except RationalizationError as exc:
        raise _error(exc) from exc
    report = verify_rationalization(tree, plan, r)
    atoms = tree.canonical.atoms
    margins = {f"{x}|{a}": format_rational(m)
               for (x, a), m in report.margins.items()}
    payload = {
        "points": [[*atoms[p.atom], p.state] for p in r.points],
        "weights": [format_rational(v) for v in r.weights],
        "rawWeights": [format_rational(v) for v in r.raw_weights],
        "utilities": {alt: list(vals) for alt, vals in r.utilities.items()},
        "avoid": {f"{x}|{a}": idx for (x, a), idx in sorted(r.avoid.items())},
        "verification": {
            "verified": report.verified,
            "minMargin": format_rational(report.min_margin),
            "margins": margins,
            "failures": list(report.failures),
        },
    }
    lines = []
    for i, p in enumerate(r.points):
        lines.append(f"point {i}: ({'|'.join(atoms[p.atom])}, {p.state}) "
                     f"weight {format_rational(r.weights[i])}")
    for alt, vals in r.utilities.items():
        lines.append(f"f_{alt}: " + " ".join(map(str, vals)))
    lines.append(f"verified: {report.verified}, min margin "
                 f"{format_rational(report.min_margin)}")
    return 0 if report.verified else 1, payload, lines


def _read_witness(path: str) -> dict | ExplicitRepresentation | tuple:
    """verify's witness file: an ExplicitRepresentation for the
    atom-level form, the JSON object itself for the product form, whose
    points _verify_product reads against the target tree, and the
    (state, alternative, Fraction) rows of the certificate form."""
    from .rationalize import ExplicitRepresentation
    try:
        data = json.loads(_read(path))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise _UsageError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise _UsageError("witness file must hold a JSON object")
    if "points" in data:
        return data
    if "certificate" in data:  # as plan decide --format json prints it
        rows = data["certificate"]
        if not (isinstance(rows, list) and all(
                isinstance(row, list) and len(row) == 3
                and all(isinstance(label, str) for label in row[:2])
                for row in rows)):
            raise _UsageError("witness 'certificate' must list "
                              "[state, alternative, rational] entries")
        try:
            return tuple([(x, a, parse_rational(m)) for x, a, m in rows])
        except ParseError as exc:
            raise _UsageError(f"malformed certificate: {exc}") from exc
    utilities = data.get("utilities", {})
    if not isinstance(utilities, dict):
        raise _UsageError("witness 'utilities' must map each alternative "
                          "to a table")
    for alt, table in utilities.items():
        if not isinstance(table, dict):
            raise _UsageError(f"witness utility table for {alt!r} must map "
                              f"each atom to a rational")
    if "weights" not in data:
        raise _UsageError("witness has neither 'points', 'weights' "
                          "nor 'certificate'")
    weights = data["weights"]
    if not isinstance(weights, dict):
        raise _UsageError("witness 'weights' must map each atom to a "
                          "rational")
    try:
        return ExplicitRepresentation(
            {atom: parse_rational(v) for atom, v in weights.items()},
            {alt: {atom: parse_rational(v) for atom, v in table.items()}
             for alt, table in utilities.items()})
    except ParseError as exc:
        raise _UsageError(f"malformed witness: {exc}") from exc


def _verify_product(tree: ExperimentationTree, plan,
                    data) -> WitnessReport:
    from .feasibility import _margin_report, _over_lcm, _rows
    space = tree.canonical
    atom_index = {cls: i for i, cls in enumerate(space.atoms)}
    node_set = set(tree.nodes)
    for x in tree.nodes:
        if x not in plan.choice:  # the file's fault, as plan rationalize's
            raise _error(PlanError(f"plan does not cover tree node {x!r}"))
    raw_points = data.get("points")
    if not isinstance(raw_points, list) or not raw_points:
        raise _UsageError("witness 'points' must be a nonempty list")
    points: list[int] = []  # the atom of each point
    for entry in raw_points:
        if (not isinstance(entry, list) or len(entry) < 2
                or not all(isinstance(part, str) for part in entry)):
            raise _UsageError(f"bad point {entry!r}")
        members, state = tuple(entry[:-1]), entry[-1]
        if members not in atom_index:
            raise _UsageError(f"unknown sample point {entry[:-1]!r}")
        if state not in node_set:
            raise _UsageError(f"point state {state!r} is not a tree node")
        points.append(atom_index[members])
    weights = data.get("weights", [])
    utilities = data.get("utilities", {})
    if not isinstance(weights, list):
        raise _UsageError("witness 'weights' must be a list")
    if not (isinstance(utilities, dict)
            and all(isinstance(vals, list) for vals in utilities.values())):
        raise _UsageError("witness 'utilities' must map each alternative "
                          "to a list")
    try:
        weights = [parse_rational(v) for v in weights]
        utilities = {alt: [parse_rational(v) for v in vals]
                     for alt, vals in utilities.items()}
    except ParseError as exc:
        raise _UsageError(str(exc)) from exc
    if len(weights) != len(points):
        raise _UsageError("weights and points differ in length")
    for alt in plan.alternatives:
        if alt not in utilities:
            raise _UsageError(f"utilities missing alternative {alt!r}")
        if len(utilities[alt]) != len(points):
            raise _UsageError(f"utility table for {alt!r} has wrong length")
    for alt in utilities:
        if alt not in plan.alternatives:
            raise _UsageError(f"utilities name unknown alternative {alt!r}")

    return _margin_report(_rows(space, plan), len(space.atoms), points,
                          *_over_lcm(weights),
                          [utilities[alt] for alt in plan.alternatives])


def _cmd_verify(args) -> _Result:
    from .rationalize import ExplicitRepresentation, verify_rationalization
    w, plan, witness = _plan_input(args)
    if isinstance(witness, ExplicitRepresentation):
        report = verify_rationalization(w.structure, plan, witness)
    elif isinstance(witness, tuple):
        from .feasibility import (FeasibilityResult, build_system,
                                  verify_certificate)
        system = build_system(w.structure, plan)
        report = verify_certificate(system, FeasibilityResult(
            False, system, certificate=witness))
    else:
        report = _verify_product(_target_tree(w), plan, witness)
    payload = {
        "verified": report.verified,
        "margins": {f"{x}|{a}": format_rational(m)
                    for (x, a), m in report.margins.items()},
        "failures": list(report.failures),
    }
    lines = [f"margin {x}|{a} = {format_rational(m)}"
             for (x, a), m in report.margins.items()]
    lines += list(report.failures)
    lines.append("verified" if report.verified else "not verified")
    return 0 if report.verified else 1, payload, lines


def _cmd_fixtures(args) -> _Result:
    try:
        written = [str(p) for p in emit_fixtures(args.dir)]
    except OSError as exc:
        raise _UsageError(f"cannot write {args.dir}: {exc}") from exc
    return 0, {"written": written}, written


def _build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "text"), default="text",
                     help="output format (default: text)")

    parser = argparse.ArgumentParser(
        prog="evistruct",
        description="Evidential structures: axioms, ranks, canonical "
                    "sample spaces, experimentation trees, and exact "
                    "rationalization of plans.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[fmt],
                       help="verify the five structure axioms")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("rank", parents=[fmt],
                       help="shortest-chain rank of every state")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_rank)

    p = sub.add_parser("canonical", parents=[fmt],
                       help="canonical sample space and event map")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_canonical)

    trees = sub.add_parser("trees", help="experimentation tree commands")
    tsub = trees.add_subparsers(dest="subcommand", required=True)
    p = tsub.add_parser("find", parents=[fmt],
                        help="enumerate experimentation trees")
    p.add_argument("file")
    p.add_argument("--max", type=int, default=None,
                   help="stop after this many trees")
    p.set_defaults(handler=_cmd_trees_find)
    p = tsub.add_parser("check", parents=[fmt],
                        help="check the seven tree conditions")
    p.add_argument("file")
    p.add_argument("--nodes", help="comma-separated node ids, checked "
                   "in place of the file's tree blocks")
    p.add_argument("--edges", help="comma-separated child=parent pairs "
                   "among the --nodes")
    p.add_argument("--block", type=int, default=None,
                   help="check only this tree block of the file (0-based)")
    p.set_defaults(handler=_cmd_trees_check)

    plan = sub.add_parser("plan", help="plan commands")
    psub = plan.add_subparsers(dest="subcommand", required=True)
    p = psub.add_parser("isd", parents=[fmt],
                        help="dominance consistency of the file's plan")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_plan_isd)
    p = psub.add_parser("decide", parents=[fmt],
                        help="decide rationalizability exactly")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_plan_decide)
    p = psub.add_parser("rationalize", parents=[fmt],
                        help="construct an explicit representation")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_plan_rationalize)

    p = sub.add_parser("verify", parents=[fmt],
                       help="re-check an externally supplied rationalization")
    p.add_argument("file")
    p.add_argument("witness", help="JSON witness file")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("fixtures", parents=[fmt],
                       help="write the bundled example corpus")
    p.add_argument("dir", nargs="?", default="fixtures")
    p.set_defaults(handler=_cmd_fixtures)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        code, payload, lines = args.handler(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _Outcome as exc:
        code, payload, lines = exc.args
    _emit(args, payload, lines)
    return code


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(main())
