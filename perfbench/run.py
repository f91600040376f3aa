"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload tree-decide --seed 1 --seconds 30 \
        --trace 0

Run from anywhere; the package is taken from ``src`` next to this
directory. Set-up time is the median over several fresh processes of the
CPU time each uses from spawn to the moment it has imported the package,
generated its seeded inputs and written its fixtures, at the reference
speed of the op times. The measuring process is one more of those; it
then runs the workload (see ``worker.py``) and reports back here. Metric
names and units come from ``BENCHMARK.json``.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones. Any failure to run exits non-zero without a result.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ("tree-decide", "family-decide", "tree-search", "cli-fixtures")
SETUP_SAMPLES = 4
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def metric_units(kind: str) -> dict[str, str]:
    """Name to unit of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def start_worker(argv: list[str]) -> tuple[subprocess.Popen, float]:
    """Spawn a worker and wait for its ready line; return it and the CPU
    seconds it used from spawn to ready, at the reference speed."""
    proc = subprocess.Popen([sys.executable, str(WORKER), *argv],
                            stdout=subprocess.PIPE, env=child_env(),
                            cwd=ROOT, text=True)
    word, _, setup = proc.stdout.readline().partition(" ")
    if word != "ready":
        finish(proc, 10.0)
        raise BenchError(f"worker did not get ready (exit {proc.returncode})")
    return proc, float(setup)


def finish(proc: subprocess.Popen, timeout: float) -> str:
    """Collect the rest of a worker's output, killing it past timeout."""
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    return out


def measure(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    base = ["--workload", workload, "--seed", str(seed)]
    setup_only = base + ["--seconds", "0", "--setup-only"]
    # the first start compiles bytecode; it is a build step, not set-up
    finish(start_worker(setup_only)[0], DEADLINE_S)
    setups = []
    for _ in range(SETUP_SAMPLES):
        proc, ready = start_worker(setup_only)
        finish(proc, DEADLINE_S)
        setups.append(ready)
    proc, ready = start_worker(base + ["--seconds", str(seconds),
                                       "--trace", str(trace)])
    setups.append(ready)
    out = finish(proc, DEADLINE_S - (time.perf_counter() - start))
    report = json.loads(out.strip().splitlines()[-1])
    values = report["metrics"]
    values["setup_s"] = statistics.median(setups)
    units = metric_units("per_layer" if trace else "end_to_end")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    print(f"{workload} seed {seed}: {report['attempted']} ops, "
          f"{report['failed']} failed", file=sys.stderr)
    return {"correct": report["failed"] == 0,
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=20260819)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "evistruct" / "__init__.py").is_file():
        print(f"error: no evistruct package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
