"""Span tracer for the benchmark's traced run (--trace 1).

Tracer wraps powres's public functions in every module namespace that binds
them, including the names sweep.py and cli.py import directly, so calls
made inside the library are seen as well as the benchmark's own.  Each call
leaves one span (name, start_ns, end_ns, parent index, info) in memory; the
spans are written out once, when the run ends.  A layer's self time is its
spans' duration minus the time covered by their direct children.

Forked pool workers inherit the wrappers but record nothing: their spans
would die with them.  The runner replays a pooled sweep's cases in-process
instead (see run.py), so per-case layers are measured the same way at any
worker count.
"""

from __future__ import annotations

import functools
import json
import math
import os
from collections import Counter, defaultdict
from time import perf_counter_ns

TRACED = (
    "modmath.build_prime_context", "modmath.factorize",
    "residues.power_residue_subgroup", "residues.roots_of_unity_subgroup",
    "residues.compute_k", "residues.principal_nth_root",
    "residues.nth_root_solutions",
    "expsums.expsum_profile", "expsums.empirical_delta",
    "expsums.orthogonality_decomposition",
    "sweep.enumerate_cases", "sweep.run_case", "sweep.run_sweep",
    "sweep.write_records",
    "cli.main",
)

# What a span keeps from its call, for the counts and ratios below.
INFO = {
    "residues.compute_k": lambda args, r: (r.p, r.n, r.k),
    "expsums.expsum_profile":
        lambda args, r: (r.p, r.subgroup_order, r.parseval_residual),
    "residues.principal_nth_root": lambda args, r: args[0].p,
    "sweep.run_case": lambda args, r: r.p,
}

# name -> (unit, better); the order is the order printed.
PER_LAYER = {
    "residues.compute_k.self_s": ("s", "lower"),
    "residues.power_residue_subgroup.self_s": ("s", "lower"),
    "residues.x_scanned": ("count", "lower"),
    "residues.ns_per_x": ("ns", "lower"),
    "residues.useful_mark_ratio": ("ratio", "higher"),
    "expsums.expsum_profile.self_s": ("s", "lower"),
    "expsums.phase_evals": ("count", "lower"),
    "expsums.ns_per_phase": ("ns", "lower"),
    "expsums.parseval_rel_residual_max": ("ratio", "lower"),
    "expsums.orthogonality_decomposition.self_s": ("s", "lower"),
    "residues.principal_nth_root.self_s": ("s", "lower"),
    "residues.bsgs_table_entries": ("count", "lower"),
    "modmath.build_prime_context.calls": ("count", "lower"),
    "modmath.build_prime_context.self_s": ("s", "lower"),
    "modmath.factorize.calls": ("count", "lower"),
    "modmath.factorize.self_s": ("s", "lower"),
    "sweep.enumerate_cases.s": ("s", "lower"),
    "sweep.ctx_per_prime": ("ratio", "lower"),
    "sweep.write_records.s": ("s", "lower"),
    "sweep.run_sweep.s": ("s", "lower"),
    "sweep.run_case.busy_s": ("s", "lower"),
    "sweep.worker_busy_frac": ("ratio", "higher"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


class Tracer:
    """Context manager that patches powres while it is active."""

    def __init__(self, powres):
        self.spans: list = []
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._modules = [powres] + [getattr(powres, m) for m in
                                    ("modmath", "residues", "expsums",
                                     "sweep", "cli")]
        self._patched: list = []

    def __enter__(self) -> "Tracer":
        for name in TRACED:
            module, attr = name.split(".")
            original = getattr(self._modules[0], module).__dict__[attr]
            wrapper = self._wrap(name, original)
            for m in self._modules:
                if m.__dict__.get(attr) is original:
                    setattr(m, attr, wrapper)
                    self._patched.append((m, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        spans, stack, pid = self.spans, self._stack, self._pid
        info = INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != pid:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent,
                                None if info is None or result is None
                                else info(args, result))

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(spans: list, workers: int) -> dict[str, float]:
    """Per-layer totals over `spans`; ratios over empty layers read 0."""
    total = defaultdict(int)
    self_ns = defaultdict(int)
    calls = Counter()
    for name, start, end, parent, _ in spans:
        total[name] += end - start
        self_ns[name] += end - start
        calls[name] += 1
        if parent >= 0:
            self_ns[spans[parent][0]] -= end - start

    def infos(name):
        return [s[4] for s in spans if s[0] == name and s[4] is not None]

    def ratio(a, b):
        return a / b if b else 0.0

    ks = infos("residues.compute_k")
    x_scanned = sum(k for _, _, k in ks)
    profiles = infos("expsums.expsum_profile")
    phases = sum(p - 1 for p, _, _ in profiles)

    def under_case(span):
        while span[3] >= 0:
            span = spans[span[3]]
            if span[0] == "sweep.run_case":
                return True
        return False

    ctx_in_cases = sum(1 for s in spans
                       if s[0] == "modmath.build_prime_context"
                       and under_case(s))
    # A sweep runs its cases in (p, n) order, so each prime of each sweep
    # starts one run of equal p in the sequence of run_case spans.
    case_primes = infos("sweep.run_case")
    primes_swept = sum(1 for i, p in enumerate(case_primes)
                       if i == 0 or p != case_primes[i - 1])
    s = 1e-9
    return {
        "residues.compute_k.self_s": self_ns["residues.compute_k"] * s,
        "residues.power_residue_subgroup.self_s":
            self_ns["residues.power_residue_subgroup"] * s,
        "residues.x_scanned": x_scanned,
        "residues.ns_per_x": ratio(self_ns["residues.compute_k"], x_scanned),
        "residues.useful_mark_ratio":
            ratio(sum((p - 1) // n for p, n, _ in ks), 2 * x_scanned),
        "expsums.expsum_profile.self_s": self_ns["expsums.expsum_profile"] * s,
        "expsums.phase_evals": phases,
        "expsums.ns_per_phase":
            ratio(self_ns["expsums.expsum_profile"], phases),
        "expsums.parseval_rel_residual_max":
            max((r / (p * d) for p, d, r in profiles), default=0.0),
        "expsums.orthogonality_decomposition.self_s":
            self_ns["expsums.orthogonality_decomposition"] * s,
        "residues.principal_nth_root.self_s":
            self_ns["residues.principal_nth_root"] * s,
        "residues.bsgs_table_entries":
            sum(math.isqrt(p - 2) + 1
                for p in infos("residues.principal_nth_root")),
        "modmath.build_prime_context.calls":
            calls["modmath.build_prime_context"],
        "modmath.build_prime_context.self_s":
            self_ns["modmath.build_prime_context"] * s,
        "modmath.factorize.calls": calls["modmath.factorize"],
        "modmath.factorize.self_s": self_ns["modmath.factorize"] * s,
        "sweep.enumerate_cases.s": total["sweep.enumerate_cases"] * s,
        "sweep.ctx_per_prime":
            ratio(ctx_in_cases, primes_swept),
        "sweep.write_records.s": total["sweep.write_records"] * s,
        "sweep.run_sweep.s": total["sweep.run_sweep"] * s,
        "sweep.run_case.busy_s": total["sweep.run_case"] * s,
        "sweep.worker_busy_frac":
            ratio(total["sweep.run_case"], workers * total["sweep.run_sweep"]),
        "cli.self_s": self_ns["cli.main"] * s,
    }
