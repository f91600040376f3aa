"""Command-line front end.

Exit codes follow one contract everywhere: 0 means the queried property
holds or the construction succeeded, 1 means the property fails (the
output carries witnesses), 2 means the input or usage was malformed.
Every subcommand takes --format json|text; output bytes are
deterministic for fixed input and flags.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .canonical import CanonicalError, build_canonical
from .feasibility import decide_rationalizable, verify_certificate
from .io import (ParseError, Workspace, emit_fixtures, format_rational,
                 parse_rational, parse_workspace)
from .plans import PlanError, check_isd_plan
from .rationalize import (ExplicitRepresentation, RationalizationError,
                          construct_sceu, verify_rationalization)
from .structure import StructureError, check_axioms, rank
from .trees import (ExperimentationTree, TreeError, build_tree, check_tree,
                    find_trees)


class _UsageError(Exception):
    """Problems with input or invocation; mapped to exit code 2."""


def _load(path: str) -> Workspace:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc
    try:
        return parse_workspace(text)
    except ParseError as exc:
        raise _UsageError(f"{path}: {exc}") from exc


def _require_plan(w: Workspace):
    if w.plan is None:
        raise _UsageError("the file declares no plan (alts/choose lines)")
    return w.plan


def _emit(args, payload: dict, lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


def _target_tree(w: Workspace) -> ExperimentationTree:
    """The tree a plan command operates on.

    The first tree block when the file has one; otherwise the whole
    structure read as a tree through its immediate-refinement pairs.
    """
    s = w.structure
    if w.trees:
        block = w.trees[0]
        return build_tree(s, block.nodes, block.edges)
    d = s.derived
    edges = []
    for x in s.states:
        if x == s.root:
            continue
        parents = [p for p in s.states if (x, p) in d.immms]
        if len(parents) != 1:
            raise TreeError(
                f"state {x!r} has {len(parents)} immediate predecessors, "
                f"so the structure is not itself a tree")
        edges.append((x, parents[0]))
    return build_tree(s, s.states, edges)


def _guard_axioms(args, s) -> int | None:
    report = check_axioms(s)
    if report.passed:
        return None
    failed = ", ".join(report.failed_ids)
    _emit(args, {"passed": False, "axioms": {v.axiom: v.passed
                                             for v in report.verdicts}},
          [f"not an e-structure; failing axioms: {failed}"])
    return 1


# ------------------------------------------------------------- commands

def _cmd_check(args) -> int:
    s = _load(args.file).structure
    report = check_axioms(s)
    payload = {
        "states": list(s.states),
        "root": s.root,
        "wms": s.matrix(),
        "axioms": {v.axiom: v.passed for v in report.verdicts},
        "passed": report.passed,
        "witnesses": {v.axiom: [str(part) for part in v.witness]
                      for v in report.verdicts
                      if not v.passed and v.witness},
    }
    lines = []
    for v in report.verdicts:
        line = f"{v.axiom}: {'pass' if v.passed else 'fail'}"
        if not v.passed and v.witness:
            line += "  (" + ", ".join(str(p) for p in v.witness) + ")"
        lines.append(line)
    lines.append("e-structure" if report.passed else "not an e-structure")
    _emit(args, payload, lines)
    return 0 if report.passed else 1


def _cmd_rank(args) -> int:
    s = _load(args.file).structure
    try:
        table = rank(s)
    except StructureError as exc:
        _emit(args, {"error": str(exc)}, [str(exc)])
        return 1
    payload = {
        "rho": {x: table.rho[x] for x in s.states},
        "chains": {x: list(table.chains[x]) for x in s.states},
    }
    lines = [f"rho({x}) = {table.rho[x]}  chain: "
             + " -> ".join(table.chains[x]) for x in s.states]
    _emit(args, payload, lines)
    return 0


def _cmd_canonical(args) -> int:
    s = _load(args.file).structure
    guard = _guard_axioms(args, s)
    if guard is not None:
        return guard
    try:
        space = build_canonical(s)
    except CanonicalError as exc:
        _emit(args, {"error": str(exc)}, [str(exc)])
        return 1
    payload = {
        "atoms": [list(cls) for cls in space.atoms],
        "events": {x: sorted(space.events[x]) for x in s.states},
    }
    lines = [f"atom {i}: {space.atom_label(i)}"
             for i in range(len(space.atoms))]
    lines += [f"e({x}) = {{" + ", ".join(map(str, sorted(space.events[x])))
              + "}" for x in s.states]
    _emit(args, payload, lines)
    return 0


def _cmd_trees_find(args) -> int:
    w = _load(args.file)
    s = w.structure
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
    if trees:
        lines = [f"found {len(trees)} experimentation tree(s)"]
        for i, t in enumerate(trees):
            edges = " ".join(f"{x}<-{t.parent[x]}" for x in t.nodes
                             if x != s.root)
            lines.append(f"tree {i}: nodes " + " ".join(t.nodes)
                         + ("; edges " + edges if edges else ""))
        _emit(args, payload, lines)
        return 0
    payload["message"] = "no experimentation tree"
    _emit(args, payload, ["no experimentation tree"])
    return 1


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


def _cmd_trees_check(args) -> int:
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
    _emit(args, {"checks": results, "passed": all_pass}, lines)
    return 0 if all_pass else 1


def _cmd_plan_isd(args) -> int:
    w = _load(args.file)
    plan = _require_plan(w)
    guard = _guard_axioms(args, w.structure)
    if guard is not None:
        return guard
    try:
        report = check_isd_plan(w.structure, plan)
    except PlanError as exc:
        raise _UsageError(str(exc)) from exc
    payload = {
        "consistent": report.consistent,
        "violations": [list(v) for v in report.violations],
    }
    if report.consistent:
        lines = ["consistent"]
    else:
        lines = [f"violation at {z}: immediate refinements unanimously "
                 f"choose {a}" for z, a in report.violations]
    _emit(args, payload, lines)
    return 0 if report.consistent else 1


def _cmd_plan_decide(args) -> int:
    w = _load(args.file)
    s = w.structure
    plan = _require_plan(w)
    guard = _guard_axioms(args, s)
    if guard is not None:
        return guard
    try:
        result = decide_rationalizable(s, plan)
    except PlanError as exc:
        raise _UsageError(str(exc)) from exc
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
        _emit(args, payload, lines)
        return 0
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
    _emit(args, payload, lines)
    return 1


def _cmd_plan_rationalize(args) -> int:
    w = _load(args.file)
    s = w.structure
    plan = _require_plan(w)
    guard = _guard_axioms(args, s)
    if guard is not None:
        return guard
    try:
        tree = _target_tree(w)
    except TreeError as exc:
        _emit(args, {"error": str(exc)}, [str(exc)])
        return 1
    try:
        r = construct_sceu(tree, plan)
    except RationalizationError as exc:
        _emit(args, {"error": str(exc)}, [str(exc)])
        return 1
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
    _emit(args, payload, lines)
    return 0 if report.verified else 1


def _verify_product(tree: ExperimentationTree, plan, data):
    atoms = tree.canonical.atoms
    atom_index = {cls: i for i, cls in enumerate(atoms)}
    node_set = set(tree.nodes)
    for x in tree.nodes:
        if x not in plan.choice:
            raise _UsageError(f"plan does not cover tree node {x!r}")
    raw_points = data.get("points")
    if not isinstance(raw_points, list) or not raw_points:
        raise _UsageError("witness 'points' must be a nonempty list")
    points: list[tuple[int, str]] = []
    for entry in raw_points:
        if (not isinstance(entry, list) or len(entry) < 2
                or not all(isinstance(part, str) for part in entry)):
            raise _UsageError(f"bad point {entry!r}")
        members, state = tuple(entry[:-1]), entry[-1]
        if members not in atom_index:
            raise _UsageError(f"unknown sample point {entry[:-1]!r}")
        if state not in node_set:
            raise _UsageError(f"point state {state!r} is not a tree node")
        points.append((atom_index[members], state))
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

    failures = []
    total = sum(weights, start=Fraction(0))
    if total != 1:
        failures.append(f"weights sum to {total}, not 1")
    if any(v < 0 for v in weights):
        failures.append("negative weight")
    events = tree.canonical.events
    margins: dict[str, Fraction] = {}
    for x in tree.nodes:
        chosen = plan.choice[x]
        ev = events[x]
        for a in plan.alternatives:
            if a == chosen:
                continue
            margin = sum((w * (utilities[chosen][i] - utilities[a][i])
                          for i, ((atom, _state), w)
                          in enumerate(zip(points, weights))
                          if atom in ev), start=Fraction(0))
            margins[f"{x}|{a}"] = margin
            if margin <= 0:
                failures.append(f"no strict preference at {x!r} over {a!r}")
    verified = not failures
    payload = {
        "verified": verified,
        "margins": {k: format_rational(v) for k, v in margins.items()},
        "failures": failures,
    }
    lines = [f"margin {k} = {format_rational(v)}" for k, v in margins.items()]
    lines += failures
    lines.append("verified" if verified else "not verified")
    return verified, payload, lines


def _cmd_verify(args) -> int:
    w = _load(args.file)
    plan = _require_plan(w)
    try:
        data = json.loads(Path(args.witness).read_text(encoding="utf-8"))
    except OSError as exc:
        raise _UsageError(f"cannot read {args.witness}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _UsageError(f"{args.witness}: {exc}") from exc
    if not isinstance(data, dict):
        raise _UsageError("witness file must hold a JSON object")

    if "points" in data:
        try:
            tree = _target_tree(w)
        except TreeError as exc:
            _emit(args, {"error": str(exc)}, [str(exc)])
            return 1
        verified, payload, lines = _verify_product(tree, plan, data)
        _emit(args, payload, lines)
        return 0 if verified else 1

    try:
        weights = {atom: parse_rational(v)
                   for atom, v in data.get("weights", {}).items()}
        utilities = {alt: {atom: parse_rational(v)
                           for atom, v in table.items()}
                     for alt, table in data.get("utilities", {}).items()}
    except (ParseError, AttributeError) as exc:
        raise _UsageError(f"malformed witness: {exc}") from exc
    if not weights:
        raise _UsageError("witness has neither 'points' nor 'weights'")
    witness = ExplicitRepresentation(weights, utilities)
    report = verify_rationalization(w.structure, plan, witness)
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
    _emit(args, payload, lines)
    return 0 if report.verified else 1


def _cmd_fixtures(args) -> int:
    written = emit_fixtures(args.dir)
    _emit(args, {"written": [str(p) for p in written]},
          [str(p) for p in written])
    return 0


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
    p.add_argument("--nodes", help="comma-separated node ids")
    p.add_argument("--edges", help="comma-separated child=parent pairs")
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
        return args.handler(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(main())
