"""One workload in one process: set up, signal ready, then measure.

Run by ``run.py``; the package is imported from the checkout's ``src``.
Prints ``ready`` once set-up is done (imports, seeded inputs, fixtures),
then, unless ``--setup-only``, one JSON line of raw metric values.

Untraced, every end-to-end value comes from the op loop: latency is the
CPU time (user plus system) of the package calls of one op, read from the
workload's own clock, and the benchmark's own answer checks run outside
it. Between ops the loop times a fixed piece of exact arithmetic (see
``calibrate``), and each op's time is reported at a reference speed: its
CPU time times ``REFERENCE_CALIBRATION_S`` over the mean of the two sums
around the op. Set-up time is reported the same way. Traced, the first
half of the remaining time runs ops under the tracer, and the second
half runs the same ops untraced to give the tracing overhead. The raw
spans are written to ``.perfbench-work/spans-<workload>-<seed>.tsv`` in
the checkout.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction

from evistruct import FeasibilityResult

from workloads import WORK, WORKLOADS, children_cpu, scratch_dir

MAX_REPORTED_FAILURES = 5
CALIBRATION_TERMS = 400
SETUP_CALIBRATIONS = 15
# Times are reported as if the calibration sum took exactly this long.
# The machine the benchmark was built on (2 vCPUs, Python 3.11.7) runs
# the sum in 0.92 to 1.1 ms in its fast state, so the reported times read
# close to its CPU times at full speed.
REFERENCE_CALIBRATION_S = 0.001


def calibrate() -> float:
    """CPU seconds of a fixed harmonic sum in Fractions, about a
    millisecond at full speed.

    The host this was built on switches, for seconds and at times for a
    whole run, between a fast state and one where the same code takes
    about 1.6 times the CPU time; wall time and CPU time move together,
    so it is not time stolen from the process. Timed next to an op, this
    sum tells how fast the host ran the op. It uses only the standard
    library, so no change to the package moves it.
    """
    t0 = time.process_time()
    total = Fraction(0)
    for k in range(1, CALIBRATION_TERMS):
        total += Fraction(1, k)
    return time.process_time() - t0


def setup_speed() -> float:
    """Median time of the calibration sum over a short burst."""
    return statistics.median(calibrate() for _ in range(SETUP_CALIBRATIONS))


class OpLoop:
    """Runs ops in pool order and keeps latencies and failures."""

    def __init__(self, workload, tracer=None, observe=None):
        self.workload = workload
        self.tracer = tracer
        self.observe = observe
        # per attempted op: CPU seconds (None if it raised), and the mean
        # time of the calibration sums before and after it
        self.latencies: list[float | None] = []
        self.speeds: list[float] = []
        self.attempted = 0
        self.failed = 0

    def run(self, deadline: float | None = None,
            count: int | None = None) -> None:
        cases, clock = self.workload.cases, self.workload.clock
        before = calibrate()
        i = 0
        while (i < count) if count is not None else \
                (time.perf_counter() < deadline):
            case = cases[i % len(cases)]
            if self.tracer is not None:
                self.tracer.op = i
            self.attempted += 1
            latency = None
            try:
                t0 = clock()
                outcome = self.workload.op(case)
                latency = clock() - t0
                problem = self.workload.check(case, outcome)
            except Exception:  # a raising op is a failed op; keep measuring
                problem = traceback.format_exc()
            after = calibrate()
            self.latencies.append(latency)
            self.speeds.append((before + after) / 2)
            before = after
            if problem is not None:
                self.failed += 1
                if self.failed <= MAX_REPORTED_FAILURES:
                    print(f"op {i} failed: {problem}", file=sys.stderr)
            elif self.observe is not None:
                self.observe(outcome)
            i += 1

    def scales(self) -> list[float]:
        """Per op, the factor that takes its CPU time to the reference
        speed."""
        return [REFERENCE_CALIBRATION_S / speed for speed in self.speeds]

    def scaled(self) -> list[float]:
        """Each completed op's CPU seconds at the reference speed."""
        return [lat * scale for lat, scale in zip(self.latencies,
                                                  self.scales())
                if lat is not None]


class FeasibilityCounts:
    """Sizes read off every FeasibilityResult an op returns."""

    def __init__(self):
        self.rows_max = 0
        self.cols_max = 0
        self.supports: list[int] = []
        self.bits_max = 0

    def __call__(self, outcome) -> None:
        for item in outcome if isinstance(outcome, tuple) else ():
            if isinstance(item, FeasibilityResult):
                self._add(item)

    def _add(self, result: FeasibilityResult) -> None:
        self.rows_max = max(self.rows_max, len(result.system.rows))
        self.cols_max = max(self.cols_max, result.system.ncols)
        values: list[Fraction] = []
        if result.feasible:
            values += result.weights.values()
            for table in result.utilities.values():
                values += table.values()
        else:
            self.supports.append(len(result.certificate))
            values += (mult for _, _, mult in result.certificate)
        for q in map(Fraction, values):
            self.bits_max = max(self.bits_max, q.numerator.bit_length(),
                                q.denominator.bit_length())

    def metrics(self) -> dict[str, float]:
        return {
            "feasibility.rows_max": self.rows_max,
            "feasibility.cols_max": self.cols_max,
            "feasibility.cert_support_mean": (
                statistics.fmean(self.supports) if self.supports else 0.0),
            "feasibility.witness_bits_max": self.bits_max,
        }


def spawn_ms(code: str) -> float:
    """CPU milliseconds of one ``python -c code`` process, at the
    reference speed."""
    import subprocess  # loaded late, as set-up of most workloads needs none

    speed, cpu = calibrate(), children_cpu()
    subprocess.run([sys.executable, "-c", code], check=True)
    cpu = children_cpu() - cpu
    speed = (speed + calibrate()) / 2
    return 1000.0 * cpu * REFERENCE_CALIBRATION_S / speed


def startup_costs(repeats: int = 5) -> dict[str, float]:
    """Bare interpreter start, and importing the CLI on top of it."""
    bare, with_cli = [], []
    for _ in range(repeats):
        bare.append(spawn_ms("pass"))
        with_cli.append(spawn_ms("import evistruct.cli"))
    process = statistics.median(bare)
    return {"cli.process_ms": process,
            "cli.import_ms": statistics.median(with_cli) - process}


def untraced(workload, seconds: float) -> tuple[OpLoop, dict[str, float]]:
    loop = OpLoop(workload)
    loop.run(deadline=time.perf_counter() + seconds)
    lat = loop.scaled()
    who = (resource.RUSAGE_CHILDREN if workload.name == "cli-fixtures"
           else resource.RUSAGE_SELF)
    metrics = {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": 1000.0 * statistics.median(lat),
        "op_p90_ms": 1000.0 * statistics.quantiles(lat, n=10)[8],
        "ok_rate": (loop.attempted - loop.failed) / loop.attempted,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    return loop, metrics


def traced(workload, seconds: float, spans_path
           ) -> tuple[list[OpLoop], dict[str, float]]:
    from spans import Tracer  # it loads evistruct.cli, which set-up must not

    start = time.perf_counter()
    metrics = startup_costs()
    if workload.name == "cli-fixtures":
        workload.in_process = True
    half = (seconds - (time.perf_counter() - start)) / 2
    tracer = Tracer()
    counts = FeasibilityCounts()
    with_trace = OpLoop(workload, tracer, counts)
    tracer.install()
    try:
        with_trace.run(deadline=time.perf_counter() + max(half, 1.0))
    finally:
        tracer.uninstall()
    ops = with_trace.attempted
    without = OpLoop(workload)
    without.run(count=ops)
    tracer.write(spans_path)
    print(f"spans written to {spans_path}", file=sys.stderr)
    metrics.update(tracer.summary(ops, with_trace.scales()))
    metrics.update(counts.metrics())
    metrics["trace.ops"] = ops
    metrics["trace.ops_per_s"] = ops / sum(with_trace.scaled())
    metrics["trace.untraced_ops_per_s"] = ops / sum(without.scaled())
    return [with_trace, without], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # the host's speed is sampled before and after building the inputs;
    # the first sample is not set-up work, so its CPU time is taken off
    t0 = time.process_time()
    before = setup_speed()
    sampling = time.process_time() - t0
    with scratch_dir(f"{args.workload}-{os.getpid()}") as workdir:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        # the CPU seconds this process has used since it was started,
        # less the first speed sample
        setup = time.process_time() - sampling
        speed = (before + setup_speed()) / 2
        print(f"ready {setup * REFERENCE_CALIBRATION_S / speed!r}",
              flush=True)
        # keep the input pool out of the cyclic collector's scans, so that
        # its size does not add to the ops' time
        gc.freeze()
        if args.setup_only:
            return 0
        if args.trace:
            spans_path = WORK / f"spans-{args.workload}-{args.seed}.tsv"
            loops, metrics = traced(workload, args.seconds, spans_path)
        else:
            loop, metrics = untraced(workload, args.seconds)
            loops = [loop]
    print(json.dumps({
        "attempted": sum(loop.attempted for loop in loops),
        "failed": sum(loop.failed for loop in loops),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
