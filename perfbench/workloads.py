"""The four benchmark workloads.

A workload generates a pool of plain-data cases from its seed (this is
set-up), then runs one op per case, cycling through the pool. ``op``
holds every package call and is the only part that is timed, by the
workload's ``clock`` (CPU seconds); ``check`` compares what the op
returned with answers the benchmark knows on its own and returns None,
or a reason when the op failed.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import resource
import shutil
import sys
import time
from pathlib import Path

import evistruct

import check
import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
GOLDEN = HERE / "golden.json"
WITNESSES = HERE / "witnesses"


@contextlib.contextmanager
def scratch_dir(name: str):
    """A fresh directory ``.perfbench-work/<name>`` in the checkout,
    removed on exit, with ``.perfbench-work`` too if nothing else is left
    in it."""
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

# fractional part of j * golden ratio: a low-discrepancy sequence, so any
# prefix of the pool spreads its sizes evenly over the ladder
_PHI = 0.6180339887498949


def _ladder(j: int, low: int, high: int) -> int:
    return low + int((j * _PHI) % 1.0 * (high - low + 1))


class TreeDecide:
    """Criterion-6 trees and plans: decide, then construct and verify.

    Cases come in pairs on one rung of a size ladder: a consistent plan,
    then an inconsistent one, so the two kinds alternate. Rungs alternate
    between 3 alternatives on trees of 6 to 18 nodes and 4 alternatives
    on trees of 6 to 12 nodes, sizes laid out evenly. Both halves then
    cost about the same per op, which keeps the median and the p90 from
    swinging with the seed.
    """

    name = "tree-decide"
    clock = staticmethod(time.process_time)
    pool_size = 320

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.cases = []
        for i in range(self.pool_size):
            j = i // 2
            alts = 3 + j % 2
            nodes = _ladder(j // 2, 6, 18 if alts == 3 else 12)
            tree = gen.splitting_tree(rng, max_nodes=nodes, min_nodes=nodes)
            make = gen.consistent_plan if i % 2 == 0 else gen.inconsistent_plan
            plan = make(rng, tree, n_alts=alts)
            self.cases.append((tree, plan, i % 2 == 0, tree.leaves_under()))

    @staticmethod
    def op(case):
        tree, plan, consistent, _ = case
        s = evistruct.EStructure.from_generators(tree.nodes, tree.root,
                                                 tree.edges)
        t = evistruct.build_tree(s, tree.nodes, tree.edges)
        p = evistruct.Plan(plan.alternatives, plan.choice)
        result = evistruct.decide_rationalizable(s, p)
        report = evistruct.verify_certificate(result.system, result)
        witness = verified = None
        if consistent:
            witness = evistruct.construct_sceu(t, p)
            verified = evistruct.verify_rationalization(t, p, witness)
        return result, report, witness, verified

    @staticmethod
    def check(case, outcome) -> str | None:
        tree, plan, consistent, under = case
        result, report, witness, verified = outcome
        if result.feasible != consistent:
            return f"verdict feasible={result.feasible}, known {consistent}"
        if not report.valid:
            return f"verify_certificate rejected: {report.reason}"
        problem = check.check_result(under, plan.alternatives, plan.choice,
                                     result)
        if problem or not consistent:
            return problem
        if not verified.verified:
            return f"verify_rationalization rejected: {verified.failures}"
        return check.check_product_witness(
            under, plan.alternatives, plan.choice,
            [leaf for leaf, _ in witness.point_labels], witness.weights,
            witness.utilities)


class FamilyDecide:
    """Subset-family structures with arbitrary plans: every layer but trees.

    Ops cycle through ten cells: a universe of 2 or 3 points with 2 or 3
    alternatives, or of 4 points with 2, and a plan on every state or on
    a random part of them. The seed draws the subsets, twins, domains and
    choices. Four points with three alternatives are left out: their
    systems cost up to 0.5 s, half of all op time went to that one
    twelfth of the ops, and their long tail moved ops_per_s and the p90
    by a tenth between seeds.
    """

    name = "family-decide"
    clock = staticmethod(time.process_time)
    pool_size = 6000
    cells = tuple((points, alts, full)
                  for points, alts in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2))
                  for full in (True, False))

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.cases = []
        for i in range(self.pool_size):
            points, alts, full = self.cells[i % len(self.cells)]
            family = gen.subset_family_structure(
                rng, min_universe=points, max_universe=points)
            plan = gen.arbitrary_plan(rng, family.states, min_alts=alts,
                                      max_alts=alts,
                                      full_prob=1.0 if full else 0.0)
            self.cases.append((family, plan))

    @staticmethod
    def op(case):
        family, plan = case
        s = evistruct.EStructure.from_generators(family.states, family.root,
                                                 family.pairs)
        axioms = evistruct.check_axioms(s)
        ranks = evistruct.rank(s)
        space = evistruct.build_canonical(s)
        canonical = evistruct.verify_canonical(space, s)
        embedding = evistruct.verify_embedding(s, family.events)
        p = evistruct.Plan(plan.alternatives, plan.choice)
        isd = evistruct.check_isd_plan(s, p)
        result = evistruct.decide_rationalizable(s, p)
        report = evistruct.verify_certificate(result.system, result)
        return axioms, ranks, canonical, embedding, isd, result, report

    @staticmethod
    def check(case, outcome) -> str | None:
        family, plan = case
        axioms, ranks, canonical, embedding, isd, result, report = outcome
        if not axioms.passed:
            return f"axioms failed: {axioms.failed_ids}"
        if dict(ranks.rho) != check.family_rank(family.events, family.root):
            return "rank differs from the subset-order distances"
        if not canonical.passed:
            return f"canonical space failed: {canonical.failed_ids}"
        if not embedding.passed:
            return f"subset embedding failed: {embedding.failed_ids}"
        if set(isd.violations) != check.family_isd_violations(
                family.events, plan.choice):
            return "dominance violations differ from the subset oracle"
        if not report.valid:
            return f"verify_certificate rejected: {report.reason}"
        return check.check_result(family.events, plan.alternatives,
                                  plan.choice, result)


class TreeSearch:
    """find_trees on the structure of a splitting tree of 10, 12 or 14
    nodes.

    Sizes cycle through 10, 12 and 14 so every run sees the same mix; the
    tree of each size is drawn again until it has exactly that many
    nodes. One call costs about twice as much per added node and, at one
    size, varies with the tree's shape, so sizes two nodes apart keep the
    p50 inside the 12-node trees and the p90 inside the 14-node ones, a
    third of all ops. With every size from 10 to 14 only a fifth of the
    ops had 14 nodes and the p90 moved by a tenth or more between seeds.
    """

    name = "tree-search"
    clock = staticmethod(time.process_time)
    pool_size = 300
    sizes = (10, 12, 14)

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.cases = []
        for i in range(self.pool_size):
            nodes = self.sizes[i % len(self.sizes)]
            while True:
                tree = gen.splitting_tree(rng, max_nodes=nodes,
                                          min_nodes=nodes)
                if len(tree.nodes) == nodes:
                    break
            expected = check.pruning_count(tree.children(), tree.root) - 1
            self.cases.append((tree, expected))

    @staticmethod
    def op(case):
        tree, _ = case
        s = evistruct.EStructure.from_generators(tree.nodes, tree.root,
                                                 tree.edges)
        return evistruct.find_trees(s)

    @staticmethod
    def check(case, outcome) -> str | None:
        _, expected = case
        if len(outcome) != expected:
            return f"found {len(outcome)} trees, prunings give {expected}"
        return None


def cli_commands() -> list[tuple[str, ...]]:
    """Every subcommand on every bundled fixture, in both formats."""
    subcommands = (("check",), ("rank",), ("canonical",), ("trees", "find"),
                   ("trees", "check"), ("plan", "isd"), ("plan", "decide"),
                   ("plan", "rationalize"))
    out = []
    for fmt in ("text", "json"):
        for fixture in sorted(evistruct.FIXTURES):
            for sub in subcommands:
                out.append((*sub, fixture, "--format", fmt))
        out.append(("verify", "example_r.est", "example_r_atoms.json",
                    "--format", fmt))
        out.append(("verify", "example_d.est", "example_d_product.json",
                    "--format", fmt))
    return out


def children_cpu() -> float:
    """CPU seconds used so far by this process's finished children."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def command_key(argv) -> str:
    return " ".join(argv)


def write_fixtures(workdir: Path) -> None:
    evistruct.emit_fixtures(workdir)
    for witness in WITNESSES.glob("*.json"):
        shutil.copyfile(witness, workdir / witness.name)


class CliFixtures:
    """One ``python -m evistruct.cli`` process per op, run one at a time.

    The pool is the full command table in an order shuffled by the seed.
    An op's time is the CPU time of its process, read from this process's
    finished children. Under tracing the same argv goes to ``cli.run`` in
    this process with stdout and stderr captured, so the spans land in
    this process, and the op is timed by this process's CPU time.
    """

    name = "cli-fixtures"

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        write_fixtures(workdir)
        self.golden = (json.loads(GOLDEN.read_text(encoding="utf-8"))
                       if GOLDEN.exists() else {})
        self.cases = cli_commands()
        random.Random(seed).shuffle(self.cases)
        self.in_process = False

    def clock(self) -> float:
        return time.process_time() if self.in_process else children_cpu()

    def op(self, argv):
        # imported here, so that the set-up of the other workloads loads
        # neither the CLI nor the process machinery
        if self.in_process:
            from evistruct import cli

            out, err = io.StringIO(), io.StringIO()
            with contextlib.chdir(self.workdir), \
                    contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.run(list(argv))
            return code, out.getvalue().encode(), err.getvalue().encode()
        import subprocess

        done = subprocess.run([sys.executable, "-m", "evistruct.cli", *argv],
                              cwd=self.workdir, capture_output=True,
                              check=False)
        return done.returncode, done.stdout, done.stderr

    def check(self, argv, outcome) -> str | None:
        code, stdout, stderr = outcome
        want = self.golden[command_key(argv)]
        if b"Traceback" in stderr:
            return "traceback on stderr"
        if code != want["exit"]:
            return f"exit {code}, golden {want['exit']}"
        if hashlib.sha256(stdout).hexdigest() != want["stdout_sha256"]:
            return "stdout differs from the golden table"
        return None


WORKLOADS = {w.name: w for w in (TreeDecide, FamilyDecide, TreeSearch,
                                 CliFixtures)}
