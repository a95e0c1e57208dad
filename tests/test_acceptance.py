"""End-to-end acceptance checks, one test per release criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s) and then
asserts, so the suite doubles as a human-readable report.  Tolerances are
fixed here, not configurable: exact rational arithmetic where the claim is
exact, documented float tolerances where accumulation is involved.
"""

import cmath
import math
import random
from math import fsum

from oracles import brute_force_k, odd_divisors
from powres import (SweepConfig, build_prime_context, compute_k,
                    expsum_profile, fit_exponent, harmonic_bound_check,
                    interval_bound, nth_root_solutions,
                    orthogonality_decomposition, phase_table, run_sweep,
                    sweep, write_records)
from powres.expsums import _dirichlet
from powres.modmath import primes_between


def report(num, name, ok, detail=""):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}{detail}")
    assert ok, f"criterion {num} failed: {name}{detail}"


def contexts_up_to(p_max):
    for p in primes_between(5, p_max):
        yield build_prime_context(p)


def test_criterion_01_sandwich_bounds_full_range():
    violations = 0
    cases = 0
    for ctx in contexts_up_to(10**4):
        for n in odd_divisors(ctx.p - 1):
            if n < 3:
                continue
            cases += 1
            result = compute_k(ctx, n)
            if not (result.lower <= result.k < result.upper_exclusive):
                violations += 1
    report(1, "covering sandwich over all p <= 10^4", violations == 0,
           f" ({cases} cases, {violations} violations)")


def test_criterion_02_oracle_equivalence():
    mismatches = 0
    cases = 0
    for ctx in contexts_up_to(1999):
        for n in odd_divisors(ctx.p - 1):
            cases += 1
            if compute_k(ctx, n).k != brute_force_k(ctx, n):
                mismatches += 1
    report(2, "incremental vs definitional k for p < 2000",
           mismatches == 0, f" ({cases} cases, {mismatches} mismatches)")


def test_criterion_03_root_solution_sets():
    rng = random.Random(1203)
    primes = primes_between(5, 10**4 - 1)
    bad = 0
    for _ in range(200):
        p = rng.choice(primes)
        ctx = build_prime_context(p)
        n = rng.choice(odd_divisors(p - 1))
        m = pow(rng.randrange(1, p), n, p)
        roots = nth_root_solutions(ctx, n, m)
        scan = {x for x in range(1, p) if pow(x, n, p) == m}
        if len(roots) != n or roots != scan \
                or any(pow(x, n, p) != m for x in roots):
            bad += 1
    report(3, "root sets match the brute-force filter", bad == 0,
           f" (200 triples, {bad} mismatches)")


def test_criterion_04_parseval_identity():
    worst = 0.0
    for p in (101, 1009, 5003):
        table = phase_table(build_prime_context(p))
        for n in odd_divisors(p - 1):
            profile = expsum_profile(table, n)
            worst = max(worst, profile.parseval_residual / (p * n))
    report(4, "Parseval identity sum |S|^2 = p|H|", worst < 1e-8,
           f" (worst relative residual {worst:.3e})")


def test_criterion_05_kernel_closed_form_and_envelope():
    worst_gap = 0.0
    envelope_ok = True
    for p in (97, 499, 997):
        for K in sorted({1, int(p**0.7), (p - 1) // 2}):
            for r in range(p):
                value = _dirichlet(p, r, K)
                terms = [cmath.exp(-2j * math.pi * r * x / p)
                         for x in range(-K, K + 1) if x != 0]
                direct = complex(fsum(t.real for t in terms),
                                 fsum(t.imag for t in terms))
                worst_gap = max(worst_gap, abs(value - direct))
                if r >= 1 and abs(value) > interval_bound(p, r, K) + 1e-12:
                    envelope_ok = False
    ok = worst_gap < 1e-9 and envelope_ok
    report(5, "interval kernel vs direct summation and envelope", ok,
           f" (worst |closed - direct| = {worst_gap:.3e})")


def test_criterion_06_reconstruction_identity():
    rng = random.Random(607)
    primes = primes_between(5, 10**4)
    worst = 0.0
    for _ in range(100):
        p = rng.choice(primes)
        ctx = build_prime_context(p)
        n = rng.choice(odd_divisors(p - 1))
        m = pow(rng.randrange(1, p), n, p)
        K = rng.randrange(1, (p - 1) // 2 + 1)
        result = orthogonality_decomposition(ctx, n, m, K)
        worst = max(worst, abs(result.reconstruction - result.exact_count))
    report(6, "orthogonality reconstruction of the interval count",
           worst < 1e-4, f" (100 cases, worst residual {worst:.3e})")


def test_criterion_07_subtrivial_maximum():
    worst = 0.0
    for p in (101, 1009, 5003):
        table = phase_table(build_prime_context(p))
        divisors = [d for d in range(2, p - 1) if (p - 1) % d == 0]
        for d in divisors:
            profile = expsum_profile(table, d)
            worst = max(worst, profile.max_magnitude / d)
    report(7, "max |S|/|H| strictly below 1 on proper subgroups",
           worst < 1.0, f" (worst ratio 1 - {1.0 - worst:.3e})")


def test_criterion_08_growth_trend_slope():
    config = SweepConfig(p_min=10**3, p_max=10**5, epsilon=1 / 3,
                         n_policy="largest_odd_divisor", workers=8)
    records = run_sweep(config)
    fit = fit_exponent(records)
    report(8, "log-log growth slope of k below 1", fit.slope < 1.0,
           f" (slope {fit.slope:.4f}, r^2 {fit.r_squared:.4f}, "
           f"{fit.n_points} points)")


def test_criterion_09_sweep_determinism(tmp_path, monkeypatch):
    # start the pool although p <= 500 is below the work it would repay
    monkeypatch.setattr(sweep, "_POOL_MIN_WORK", 0)
    blobs = {}
    for fmt in ("csv", "jsonl"):
        for workers in (1, 8):
            config = SweepConfig(p_min=5, p_max=500, with_expsums=True,
                                 workers=workers)
            path = str(tmp_path / f"{fmt}-{workers}.out")
            write_records(run_sweep(config), path, fmt)
            blobs[(fmt, workers)] = open(path, "rb").read()
    ok = (blobs[("csv", 1)] == blobs[("csv", 8)]
          and blobs[("jsonl", 1)] == blobs[("jsonl", 8)])
    report(9, "byte-identical sweep output across worker counts", ok)


def test_criterion_10_harmonic_majorization():
    failures = 0
    for p in primes_between(5, 10**4):
        lhs, rhs, ok = harmonic_bound_check(p)
        if not ok:
            failures += 1
    report(10, "harmonic sum of 1/||r/p|| within 2p(1 + ln((p-1)/2))",
           failures == 0, f" ({failures} failures)")
