#!/usr/bin/env python3
"""powres benchmark: run one seeded workload, check it, print one JSON result.

Run from the root of a powres checkout; the package is imported from src/:

    python3 perfbench/run.py --workload sweep_k --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all              # every workload
    python3 perfbench/run.py --workload queries --trace 1

--trace 0 times operations in a closed loop until --seconds of them have
run and prints the end-to-end metrics.  --trace 1 replays a fixed number of
operations, first untraced and then under the span tracer, and prints the
per-layer metrics and the tracing overhead.  Every output is checked
(check.py).  A metadata line precedes the result, which is the last line
of standard output.  README.md explains the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from time import perf_counter_ns

import check
import clock
import spans
from workloads import WORKLOADS, SweepOp

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 1
SETUP_REPEATS = 7

# name -> (unit, better); the order is the order printed.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "cases_per_s": ("1/s", "higher"),
    "query_p50_ms": ("ms", "lower"),
    "query_p90_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# Timed in a fresh interpreter: the import plus the first cold call, which
# builds the trial-prime table up to 10**6; then the reference loop.
SETUP_CODE = """\
import statistics, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import powres, powres.cli
powres.compute_k(powres.build_prime_context(10009), 3)
elapsed = time.perf_counter() - start
sys.path.insert(0, sys.argv[2])
import clock
print(elapsed, statistics.median(clock.loop_ns() for _ in range(5)))
"""


def load_powres():
    if not (SRC / "powres" / "__init__.py").is_file():
        raise SystemExit(f"error: no powres package under {SRC}; "
                         "run from the root of a powres checkout")
    sys.path.insert(0, str(SRC))
    import powres
    import powres.cli
    return powres


def git_commit() -> str:
    """HEAD's commit read from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return "unknown"


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


@dataclass
class Tally:
    latencies_ns: list[int] = field(default_factory=list)
    # clock.loop_ns() taken right before each timed operation.
    loop_ns: list[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    cases: int = 0
    # (p, n) of every completed sweep case when a replay needs them; not
    # kept otherwise, so that the list does not weigh on peak_rss_mb.
    swept: list[tuple[int, int]] | None = None

    @property
    def busy_s(self) -> float:
        return sum(self.latencies_ns) * 1e-9


class Runner:
    """Executes and checks one workload's operations against powres."""

    def __init__(self, powres, name: str, reference: list):
        self.powres = powres
        self.workload = WORKLOADS[name]
        self.csv_path = str(OUT / f"{name}.csv")
        # Fingerprints of this workload's first operations on DEFAULT_SEED.
        self.reference = reference

    def execute(self, op):
        """The timed part: what a user of powres waits for."""
        powres = self.powres
        if isinstance(op, SweepOp):
            config = powres.SweepConfig(p_min=op.p_min, p_max=op.p_max,
                                        **self.workload.sweep)
            records = powres.run_sweep(config)
            powres.write_records(records, self.csv_path)
            return records
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = powres.cli.main(list(op.argv))
        return rc, buf.getvalue()

    def errors(self, index: int, op, output) -> list[str]:
        if isinstance(op, SweepOp):
            found = check.sweep_errors(op, self.workload.sweep, output,
                                       self.csv_path)
        else:
            found = check.query_errors(op, *output)
        if not found and index < len(self.reference):
            found = check.reference_errors(op, output, self.reference[index])
        return found

    def run(self, ops, tally: Tally,
            stop_after_s: float | None = None) -> Tally:
        """Run (index, op) pairs, each checked outside its timed span."""
        for index, op in ops:
            tally.attempted += 1
            loop = clock.loop_ns()
            start = perf_counter_ns()
            try:
                output = self.execute(op)
                tally.latencies_ns.append(perf_counter_ns() - start)
                tally.loop_ns.append(loop)
                found = self.errors(index, op, output)
            except Exception:
                found = [f"{op.key()} raised:\n{traceback.format_exc()}"]
                output = None
            if found:
                tally.failed += 1
                print(f"FAILED op {index}: " + "\n  ".join(found[:5]),
                      file=sys.stderr)
            elif isinstance(op, SweepOp):
                tally.cases += len(output)
                if tally.swept is not None:
                    tally.swept.extend((r.p, r.n) for r in output)
            else:
                tally.cases += 1
            if stop_after_s is not None and tally.busy_s >= stop_after_s:
                break
        return tally

    def replay_cases(self, cases: list[tuple[int, int]], tally: Tally) -> None:
        """Run a pooled sweep's cases in-process, so the tracer sees them."""
        with_expsums = self.workload.sweep["with_expsums"]
        for p, n in cases:
            record = self.powres.run_case(p, n, with_expsums=with_expsums)
            if record.k != check.least_cover(p, n):
                tally.failed += 1
                print(f"FAILED replay ({p},{n}): k={record.k}",
                      file=sys.stderr)


def measure_setup() -> tuple[list[float], list[float]]:
    """Raw and contention-scaled set-up times, one per fresh interpreter."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE)],
            capture_output=True, text=True, check=True, cwd=ROOT, timeout=120)
        elapsed, loop = map(float, done.stdout.split())
        raw.append(elapsed)
        scaled.append(elapsed * clock.REF_NS / loop)
    return raw, scaled


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest of its ended children's."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def timings(lat_ms: list[float], cases: int, setup: list[float]) -> dict:
    lat_ms = lat_ms or [0.0]
    return {
        "setup_s": statistics.median(setup),
        "cases_per_s": cases * 1e3 / sum(lat_ms) if cases else 0.0,
        "query_p50_ms": percentile(lat_ms, 50),
        "query_p90_ms": percentile(lat_ms, 90),
    }


def end_to_end(runner: Runner, seed: int, seconds: float):
    ops = enumerate(runner.workload.operations(seed))
    tally = runner.run(ops, Tally(), stop_after_s=seconds)
    # Read before measure_setup starts children, so that only pool workers
    # count in RUSAGE_CHILDREN.
    rss = peak_rss_mb()
    setup_raw, setup = measure_setup()
    raw_ms = [ns * 1e-6 for ns in tally.latencies_ns]
    scaled_ms = [ms * f for ms, f in
                 zip(raw_ms, clock.scale_factors(tally.loop_ns))]
    metrics = timings(scaled_ms, tally.cases, setup) | {"peak_rss_mb": rss}
    raw = timings(raw_ms, tally.cases, setup_raw) | {
        "loop_ms": statistics.median(tally.loop_ns or [0]) * 1e-6}
    samples = {"setup_s": len(setup), "query_ms": len(tally.latencies_ns),
               "cases": tally.cases, "busy_s": tally.busy_s, "raw": raw}
    return tally, metrics, END_TO_END, samples


def traced(runner: Runner, seed: int):
    ops = list(islice(enumerate(runner.workload.operations(seed)),
                      runner.workload.trace_ops))
    plain, tally = Tally(), Tally(swept=[])
    tracer = spans.Tracer(runner.powres)
    # Each operation runs untraced and traced, alternating which goes first,
    # so that warm-up and drifting machine load fall on both sides alike.
    for j, op in enumerate(ops):
        for with_trace in ((False, True) if j % 2 == 0 else (True, False)):
            if with_trace:
                with tracer:
                    runner.run([op], tally)
            else:
                runner.run([op], plain)
    if runner.workload.workers > 1:
        with tracer:
            runner.replay_cases(tally.swept, tally)
    tally.attempted += plain.attempted
    tally.failed += plain.failed
    metrics = spans.layer_metrics(tracer.spans, runner.workload.workers)
    metrics["trace.overhead_frac"] = tally.busy_s / plain.busy_s - 1.0
    tracer.dump(OUT / f"spans-{runner.workload.name}-{seed}.jsonl")
    samples = {"ops": len(ops), "spans": len(tracer.spans),
               "replayed_cases": len(tally.swept)
               if runner.workload.workers > 1 else 0}
    return tally, metrics, spans.PER_LAYER, samples


def run_one(powres, name: str, seed: int, seconds: float,
            trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    reference = []
    if seed == DEFAULT_SEED:
        reference = json.loads(REFERENCE.read_text())[name]
    runner = Runner(powres, name, reference)
    if trace:
        tally, values, units, samples = traced(runner, seed)
    else:
        tally, values, units, samples = end_to_end(runner, seed, seconds)
    meta = {
        "workload": name, "seed": seed, "trace": int(trace),
        "seconds": seconds, "commit": git_commit(),
        "python": platform.python_version(), "cpu_count": os.cpu_count(),
        "workers": runner.workload.workers, "samples": samples,
        "failed_frac": tally.failed / max(tally.attempted, 1),
    }
    print(json.dumps({"meta": meta}))
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": values[key], "unit": unit}
                    for key, (unit, _) in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    powres = load_powres()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_one(powres, name, args.seed, args.seconds,
                         bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
