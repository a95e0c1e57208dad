import concurrent.futures
import csv
import functools
import hashlib
import json
import math
import multiprocessing
import os
import pickle
import stat
import subprocess
import sys
import threading
from collections import Counter
from fractions import Fraction

import pytest

from oracles import odd_divisors
from powres import (SIEVE_CAP, DecompositionResult, EmptyRange,
                    ExpSumProfile, FitResult, KResult, ScaleLimit,
                    SweepConfig, SweepRecord, build_prime_context, compute_k,
                    enumerate_cases, fit_exponent, modmath, read_records,
                    run_case, run_sweep, sweep, write_records)
from powres.cli import main
from powres.expsums import empirical_delta, expsum_profile, phase_table
from powres.sweep import CSV_COLUMNS, FORMATS


def make_record(p, k, n=3):
    return SweepRecord(p=p, n=n, k=k)


@pytest.fixture
def fake_pool(monkeypatch):
    """Replace the process pool by one that runs its tasks in-process, after
    a pickle round trip of the tasks and their results as a real pool makes;
    the returned list collects the size of each pool constructed."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            fn, jobs = pickle.loads(pickle.dumps((fn, list(zip(*iterables)))))
            return pickle.loads(pickle.dumps([fn(*job) for job in jobs]))

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    return sizes


def two_usable_cpus(monkeypatch):
    """Let a sweep start two workers on any machine."""
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


def test_odd_divisors():
    # the list the all_odd_divisors policy reads, from factorize's output
    def listed(m):
        return sweep._odd_divisors_of(modmath.factorize(m))

    assert listed(12) == [1, 3]
    assert listed(1) == [1]
    assert listed(2**10) == [1]
    assert listed(45) == [1, 3, 5, 9, 15, 45]
    for m in (12, 360, 1998):
        assert listed(m) == [d for d in range(1, m + 1, 2) if m % d == 0]


def test_enumerate_cases_examples():
    assert enumerate_cases(SweepConfig(p_min=13, p_max=13)) == [(13, 3)]
    assert enumerate_cases(SweepConfig(p_min=7, p_max=7)) == [(7, 3)]
    assert enumerate_cases(SweepConfig(p_min=7, p_max=7, epsilon=0.99)) == []


def test_enumerate_cases_empty_range():
    with pytest.raises(EmptyRange):
        enumerate_cases(SweepConfig(p_min=8, p_max=10))
    with pytest.raises(EmptyRange):
        enumerate_cases(SweepConfig(p_min=100, p_max=50))


def test_enumerate_cases_policies():
    # p = 31: odd divisors of 30 are 1, 3, 5, 15
    base = dict(p_min=31, p_max=31)
    assert enumerate_cases(SweepConfig(**base)) == [(31, 3), (31, 5), (31, 15)]
    assert enumerate_cases(SweepConfig(**base, n_min=1)) == \
        [(31, 1), (31, 3), (31, 5), (31, 15)]
    assert enumerate_cases(
        SweepConfig(**base, n_policy="largest_odd_divisor")) == [(31, 15)]
    assert enumerate_cases(
        SweepConfig(**base, n_policy="fixed_n", fixed_n=5)) == [(31, 5)]
    assert enumerate_cases(
        SweepConfig(**base, n_policy="fixed_n", fixed_n=7)) == []
    # epsilon filter: 31**0.5 ~ 5.57 keeps only n = 15
    assert enumerate_cases(SweepConfig(**base, epsilon=0.5)) == [(31, 15)]


def test_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(p_min=4, p_max=10)
    with pytest.raises(ValueError):
        SweepConfig(p_min=5, p_max=10, epsilon=1.0)
    with pytest.raises(ValueError):
        SweepConfig(p_min=5, p_max=10, workers=0)
    with pytest.raises(ValueError):
        SweepConfig(p_min=5, p_max=10, n_policy="bogus")
    with pytest.raises(ValueError):
        SweepConfig(p_min=5, p_max=10, n_policy="fixed_n")


def test_config_rejects_bad_sizes():
    SweepConfig(p_min=5, p_max=SIEVE_CAP)
    with pytest.raises(ScaleLimit):
        SweepConfig(p_min=5, p_max=SIEVE_CAP + 1)
    with pytest.raises(ValueError):
        SweepConfig(p_min=5, p_max=10, n_min=0)
    # fixed_n reaches pow(x, n, p) as given, so it must be an int; a bool
    # would be written as True/true in the n column
    for bad in (4, 0, -3, 3.0, 15.0, True, "3", Fraction(3)):
        with pytest.raises(ValueError, match="positive odd integer"):
            SweepConfig(p_min=5, p_max=10, n_policy="fixed_n", fixed_n=bad)
    for policy in ("all_odd_divisors", "largest_odd_divisor"):
        with pytest.raises(ValueError, match="fixed_n"):
            SweepConfig(p_min=29, p_max=31, n_policy=policy, fixed_n=5)
    # a float or bool size is refused when the config is built, before a
    # sieve or a pool could meet it
    for field, bad in (("workers", 1.5), ("p_min", 5.5), ("p_max", 50.0),
                       ("n_min", 2.5), ("workers", True)):
        values = {"p_min": 5, "p_max": 50, field: bad}
        with pytest.raises(ValueError, match=f"{field} must be an int"):
            SweepConfig(**values)
    # a truthy string would switch expsums on; these epsilons would escape
    # the range check as TypeError
    for bad in ("no", 1, None):
        with pytest.raises(ValueError, match="with_expsums must be a bool"):
            SweepConfig(p_min=5, p_max=60, with_expsums=bad)
    for bad in ("0.5", None, 0.5j, True, Fraction(1, 3)):
        with pytest.raises(ValueError, match="epsilon must be an int or"):
            SweepConfig(p_min=5, p_max=60, epsilon=bad)
    SweepConfig(p_min=5, p_max=60, epsilon=0)


def old_case_ns(p, config):
    """The derivation before each policy named its n: every odd divisor of
    p - 1 (from the trial-division oracle), cut to the policy, then the
    n_min and epsilon filters."""
    candidates = odd_divisors(p - 1)
    if config.n_policy == "largest_odd_divisor":
        candidates = candidates[-1:]
    elif config.n_policy == "fixed_n":
        candidates = [n for n in candidates if n == config.fixed_n]
    kept = [n for n in candidates if n >= config.n_min]
    if config.epsilon > 0.0:
        kept = [n for n in kept if n > p**config.epsilon]
    return kept


def test_case_ns_equals_the_filtered_divisor_list():
    policies = [dict(n_policy="all_odd_divisors"),
                dict(n_policy="largest_odd_divisor")]
    policies += [dict(n_policy="fixed_n", fixed_n=n)
                 for n in (1, 3, 5, 9, 15, 45, 105)]
    configs = [SweepConfig(p_min=5, p_max=20000, n_min=n_min,
                           epsilon=epsilon, **policy)
               for policy in policies for n_min in (1, 3)
               for epsilon in (0.0, 1 / 3)]
    cases = Counter()
    for p in modmath.primes_between(5, 20000):
        ctx = modmath.PrimeContext(p)
        for config in configs:
            ns = sweep._case_ns(ctx, config)
            assert ns == old_case_ns(p, config), (p, config)
            cases[config.n_policy] += len(ns)
    # every policy keeps cases, so the comparison is not vacuous
    assert min(cases.values()) > 1000


def test_run_sweep_single_cases():
    records = run_sweep(SweepConfig(p_min=13, p_max=13))
    assert len(records) == 1
    rec = records[0]
    assert (rec.p, rec.n, rec.k) == (13, 3, 2)
    assert rec.normalized == 1.0
    assert rec.lower == 2 and rec.upper_exclusive == Fraction(13, 3)
    records = run_sweep(SweepConfig(p_min=7, p_max=7))
    assert records[0].k == 1 and records[0].normalized == 1.0


def test_run_sweep_orders_and_bounds():
    records = run_sweep(SweepConfig(p_min=5, p_max=200))
    keys = [(r.p, r.n) for r in records]
    assert keys == sorted(keys)
    for rec in records:
        assert rec.k is not None
        assert rec.normalized >= 1.0
        assert rec.lower <= rec.k < rec.upper_exclusive


def test_run_sweep_skips_capped_cases(monkeypatch):
    monkeypatch.setenv("POWRES_ENUM_CAP", "1")
    records = run_sweep(SweepConfig(p_min=11, p_max=11))  # (11, 5), |R| = 2
    assert len(records) == 1
    rec = records[0]
    assert rec.k is None and rec.skip_reason is not None
    assert rec.normalized is None


def test_run_case_expsum_statistics():
    rec = run_case(13, 3, with_expsums=True)
    assert rec.max_expsum_ratio is not None and 0 < rec.max_expsum_ratio < 1
    assert rec.delta_emp is not None and rec.delta_emp > 0
    plain = run_case(13, 3)
    assert plain.max_expsum_ratio is None and plain.delta_emp is None


def test_record_delta_equals_the_profile_delta():
    # delta_emp is derived from the stored ratio, p and n; it must read
    # what empirical_delta reads off the profile, None at |H| = 1
    records = run_sweep(SweepConfig(p_min=5, p_max=400, n_min=1,
                                    with_expsums=True))
    assert any(rec.n == 1 for rec in records)
    for rec in records:
        table = phase_table(modmath.PrimeContext(rec.p))
        assert rec.delta_emp == empirical_delta(expsum_profile(table, rec.n))


def test_worker_counts_agree_in_memory(monkeypatch):
    monkeypatch.setattr(sweep, "_POOL_MIN_WORK", 0)
    cfg1 = SweepConfig(p_min=5, p_max=300, with_expsums=True, workers=1)
    cfg3 = SweepConfig(p_min=5, p_max=300, with_expsums=True, workers=3)
    assert run_sweep(cfg1) == run_sweep(cfg3)


def test_pool_workers_see_the_environment_cap(monkeypatch):
    monkeypatch.setattr(sweep, "_POOL_MIN_WORK", 0)
    monkeypatch.setenv("POWRES_ENUM_CAP", "2")
    runs = [run_sweep(SweepConfig(p_min=5, p_max=200, workers=workers))
            for workers in (1, 2)]
    assert runs[0] == runs[1]
    assert any(r.k is None for r in runs[0])
    assert any(r.k is not None for r in runs[0])


@pytest.mark.skipif("forkserver" not in multiprocessing.get_all_start_methods(),
                    reason="no forkserver start method here")
def test_forkserver_workers_take_the_parent_cap(monkeypatch):
    # A forkserver's workers inherit the server's environment, fixed when
    # the server started, not the parent's at the time of the sweep.
    monkeypatch.setattr(sweep, "_POOL_MIN_WORK", 0)
    two_usable_cpus(monkeypatch)
    forkserver = functools.partial(
        concurrent.futures.ProcessPoolExecutor,
        mp_context=multiprocessing.get_context("forkserver"))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", forkserver)
    pooled = SweepConfig(p_min=5, p_max=400, workers=2)
    serial = pooled.replace(workers=1)
    monkeypatch.delenv("POWRES_ENUM_CAP", raising=False)
    run_sweep(pooled)  # starts the server, if no earlier sweep did
    for cap, skips in (("8", 61), (None, 0)):  # no n = 3 case skips
        if cap is None:
            monkeypatch.delenv("POWRES_ENUM_CAP")
        else:
            monkeypatch.setenv("POWRES_ENUM_CAP", cap)
        records = run_sweep(serial)
        assert sum(rec.k is None for rec in records) == skips
        assert run_sweep(pooled) == records, cap


def test_one_context_and_one_factorisation_per_prime(monkeypatch, fake_pool):
    # a pooled sweep lists the cases too, and its tasks get the contexts
    monkeypatch.setattr(sweep, "_POOL_MIN_WORK", 0)
    two_usable_cpus(monkeypatch)
    calls = Counter()

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    for module, name in ((modmath, "factorize"), (sweep, "PrimeContext")):
        count(module, name)
    primes = modmath.primes_between(5, 2000)
    # only the list of all odd divisors reads the factors of p - 1
    for policy, factorisations in (
            (dict(n_policy="all_odd_divisors"), len(primes)),
            (dict(n_policy="largest_odd_divisor"), 0),
            (dict(n_policy="fixed_n", fixed_n=15), 0)):
        config = SweepConfig(p_min=5, p_max=2000, workers=1, **policy)
        pooled = config.replace(workers=2)
        for run, cfg in ((run_sweep, config), (enumerate_cases, config),
                         (run_sweep, pooled)):
            calls.clear()
            run(cfg)
            assert calls == Counter(PrimeContext=len(primes),
                                    factorize=factorisations), (policy, cfg)
    # the phase table's g reads the factors that came with each context
    calls.clear()
    run_sweep(SweepConfig(p_min=5, p_max=2000, with_expsums=True, workers=2))
    assert calls == Counter(PrimeContext=len(primes), factorize=len(primes))
    assert fake_pool == [2, 2, 2, 2]


def recorded_contexts(monkeypatch):
    """The contexts the sweep builds from now on, in order."""
    made = []
    real = sweep.PrimeContext

    def recorded(p):
        made.append(real(p))
        return made[-1]
    monkeypatch.setattr(sweep, "PrimeContext", recorded)
    return made


def test_k_only_sweep_searches_no_root_and_tests_no_primality(monkeypatch):
    tested = []
    real_is_prime = modmath.is_prime

    def counted(m):
        tested.append(m)
        return real_is_prime(m)
    monkeypatch.setattr(modmath, "is_prime", counted)
    made = recorded_contexts(monkeypatch)
    run_sweep(SweepConfig(p_min=5, p_max=2000, workers=1))
    assert [ctx.p for ctx in made] == modmath.primes_between(5, 2000)
    assert all("factors" in ctx.__dict__ for ctx in made)
    assert not any("g" in ctx.__dict__ for ctx in made)
    # Below 2**16 factorize splits p - 1 by trial division alone, so any
    # is_prime call would be a second proof of a sieve prime.
    assert tested == []


def test_largest_odd_divisor_factors_only_for_the_phase_table(monkeypatch):
    config = SweepConfig(p_min=5, p_max=3000, n_min=5, epsilon=0.3,
                         n_policy="largest_odd_divisor")
    primes_with_cases = {p for p, _ in enumerate_cases(config)}
    assert 0 < len(primes_with_cases) < len(modmath.primes_between(5, 3000))
    made = recorded_contexts(monkeypatch)
    run_sweep(config)
    assert not any("factors" in ctx.__dict__ for ctx in made)
    made.clear()
    run_sweep(config.replace(with_expsums=True))
    assert [ctx.p for ctx in made] == modmath.primes_between(5, 3000)
    # g, and through it p - 1's factors, is read for the phase table alone
    assert {ctx.p for ctx in made
            if "factors" in ctx.__dict__} == primes_with_cases


def test_one_phase_table_per_prime_with_cases(monkeypatch):
    calls = Counter()
    real_table = sweep.phase_table

    def counted(ctx, **kwargs):
        calls[ctx.p] += 1
        return real_table(ctx, **kwargs)
    monkeypatch.setattr(sweep, "phase_table", counted)
    config = SweepConfig(p_min=5, p_max=2000, n_min=5, with_expsums=True)
    primes_with_cases = {p for p, _ in enumerate_cases(config)}
    made = recorded_contexts(monkeypatch)
    records = run_sweep(config)
    assert len(primes_with_cases) < len(modmath.primes_between(5, 2000))
    assert calls == Counter(primes_with_cases)
    # one context per prime, so each root search runs once
    assert [ctx.p for ctx in made] == modmath.primes_between(5, 2000)
    assert {ctx.p for ctx in made if "g" in ctx.__dict__} == primes_with_cases
    assert all(r.max_expsum_ratio is not None for r in records)
    calls.clear()
    run_sweep(config.replace(with_expsums=False))
    assert not calls


def test_pool_size_is_bounded_by_primes_and_cpus(monkeypatch, fake_pool):
    # The fake executor runs map in-process, so no process is ever started.
    monkeypatch.setattr(sweep, "_POOL_MIN_WORK", 0)
    # where there is no affinity set, the machine's CPU count bounds the pool
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    serial = run_sweep(SweepConfig(p_min=5, p_max=50))
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    pooled = run_sweep(SweepConfig(p_min=5, p_max=50, workers=100000))
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    run_sweep(SweepConfig(p_min=5, p_max=20, workers=100000))  # 6 primes
    run_sweep(SweepConfig(p_min=5, p_max=50, workers=3))
    assert fake_pool == [4, 6, 3]
    assert pooled == serial


def estimate(config):
    return sweep._work(list(sweep._cases(sweep._primes(config), config)),
                       config.with_expsums)


def test_pool_starts_only_above_the_work_estimate(monkeypatch, fake_pool):
    two_usable_cpus(monkeypatch)
    largest = dict(epsilon=1 / 3, n_policy="largest_odd_divisor", workers=2)
    fixed = dict(p_min=5, n_policy="fixed_n", fixed_n=15, workers=2)
    # (config, POWRES_ENUM_CAP, pool sizes).  Growth windows have many
    # primes with |R| of a few units each, and the parent's work per prime
    # is not counted; cases the cap skips count nothing either.
    windows = (
        (SweepConfig(p_min=150000, p_max=160000, **largest), None, []),
        (SweepConfig(p_min=1000, p_max=50000, **largest), None, []),
        (SweepConfig(p_max=20000, **fixed), "64", []),
        (SweepConfig(p_min=4000, p_max=7000, workers=2), None, [2]),
        (SweepConfig(p_max=60000, **fixed), "2000", [2]),  # 345 of 747 skip
    )
    for config, cap, sizes in windows:
        if cap is None:
            monkeypatch.delenv("POWRES_ENUM_CAP", raising=False)
        else:
            monkeypatch.setenv("POWRES_ENUM_CAP", cap)
        assert (estimate(config) >= sweep._POOL_MIN_WORK) == bool(sizes)
        fake_pool.clear()
        serial = run_sweep(config.replace(workers=1))
        assert run_sweep(config) == serial
        assert fake_pool == sizes, config


def test_bad_cap_fails_alike_at_any_worker_count(monkeypatch, fake_pool):
    two_usable_cpus(monkeypatch)
    no_cases = SweepConfig(p_min=5, p_max=50, n_policy="fixed_n",
                           fixed_n=9999)
    # an n = 3 case reads no cap: neither the lattice nor W reads it
    cubes = no_cases.replace(fixed_n=3)
    uncapped = run_sweep(cubes)
    monkeypatch.setenv("POWRES_ENUM_CAP", "abc")
    for workers in (1, 2):
        assert run_sweep(no_cases.replace(workers=workers)) == []
        assert run_sweep(cubes.replace(workers=workers)) == uncapped
        with pytest.raises(ValueError, match="POWRES_ENUM_CAP"):
            run_sweep(SweepConfig(p_min=5, p_max=50, workers=workers))
    assert fake_pool == []


def test_work_estimate_counts_expsum_work_by_p():
    # |R| is a few units per case, but each phase table and profile covers
    # p - 1 phases: with expsums this sweep runs over a second in-process
    config = SweepConfig(p_min=50000, p_max=51000, epsilon=1 / 3,
                         n_policy="largest_odd_divisor")
    assert estimate(config) < sweep._POOL_MIN_WORK
    assert estimate(config.replace(with_expsums=True)) >= (
        sweep._POOL_MIN_WORK)


def test_real_pool_starts_once_above_the_threshold(monkeypatch):
    two_usable_cpus(monkeypatch)
    started = []
    real = concurrent.futures.ProcessPoolExecutor

    def counted(max_workers, **kwargs):
        started.append(max_workers)
        return real(max_workers=max_workers, **kwargs)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counted)
    config = SweepConfig(p_min=2000, p_max=6000, workers=2)
    assert estimate(config) >= sweep._POOL_MIN_WORK
    pooled = run_sweep(config)
    assert started == [2]
    assert pooled == run_sweep(config.replace(workers=1))
    assert started == [2]


def test_pool_size_is_bounded_by_the_usable_cpus(monkeypatch):
    # One usable CPU on a machine of many: a pool would only contend for it.
    monkeypatch.setattr(sweep, "_POOL_MIN_WORK", 0)

    def no_pool(max_workers, **kwargs):
        raise AssertionError(f"pool of {max_workers} started on one CPU")
    serial = run_sweep(SweepConfig(p_min=5, p_max=50))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    pinned = run_sweep(SweepConfig(p_min=5, p_max=50, workers=2))
    assert pinned == serial


FOOTPRINT = """\
import contextlib, io, json, os, sys
before = set(sys.modules)
import powres, powres.cli
loaded = set(sys.modules) - before
watched = ("concurrent.futures", "multiprocessing", "secrets", "hashlib",
           "dataclasses", "inspect", "statistics", "fractions", "decimal")
report = {"on_import": [name for name in watched if name in loaded]}


def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = powres.cli.main(list(argv))
    return status, out.getvalue()


# fractions loads for the bounds line of a human compute, statistics for
# the fit in a sweep's summary
report["compute"] = run("compute", "13", "3")
report["fractions"] = "fractions" in sys.modules
report["sweep"] = run("sweep", "--p-max", "100", "--json", "--out",
                      sys.argv[1])
report["statistics"] = "statistics" in sys.modules
cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count() or 1)
if cpus >= 2:
    powres.sweep._POOL_MIN_WORK = 0
    config = powres.SweepConfig(p_min=5, p_max=200, workers=2)
    pooled = powres.run_sweep(config)
    report["pool_loaded"] = "concurrent.futures.process" in sys.modules
    report["same"] = pooled == powres.run_sweep(
        powres.SweepConfig(p_min=5, p_max=200, workers=1))
print(json.dumps(report))
"""


def test_import_loads_the_pool_machinery_only_when_a_pool_starts(tmp_path):
    # Measured against the modules loaded before the import, so whatever
    # site loads at start-up does not count.
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT,
                           str(tmp_path / "sweep.csv")],
                          capture_output=True, text=True, env=dict(os.environ))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["on_import"] == []
    status, out = report["compute"]
    assert status == 0 and "bounds: 2 <= k < 13/3" in out
    assert report["fractions"]
    status, out = report["sweep"]
    assert status == 0 and isinstance(json.loads(out)["slope"], float)
    assert report["statistics"]
    if "pool_loaded" not in report:
        pytest.skip("one usable CPU: no pool starts; the import check passed")
    assert report["pool_loaded"]
    assert report["same"]


def test_fit_exponent_linear():
    records = [make_record(p, p) for p in (11, 101, 1009, 10007)]
    fit = fit_exponent(records)
    assert abs(fit.slope - 1.0) < 1e-12
    assert abs(fit.r_squared - 1.0) < 1e-12
    assert fit.n_points == 4


def test_fit_exponent_sqrt_growth():
    records = [make_record(p, math.isqrt(p))
               for p in range(1000, 100001, 997)]
    fit = fit_exponent(records)
    assert abs(fit.slope - 0.5) < 0.05


def test_fit_exponent_matches_polyfit_oracle():
    import numpy as np
    records = [make_record(p, (p * 7) // 100 + 3) for p in (11, 97, 997, 9973)]
    fit = fit_exponent(records)
    xs = [math.log(r.p) for r in records]
    ys = [math.log(r.k) for r in records]
    slope, intercept = np.polyfit(xs, ys, 1)
    assert abs(fit.slope - slope) < 1e-9
    assert abs(fit.intercept - intercept) < 1e-9


def test_fit_exponent_insufficient_data():
    assert fit_exponent([make_record(11, 3)]) is None
    assert fit_exponent([make_record(11, 3), make_record(11, 4)]) is None
    skipped = SweepRecord(p=13, n=3, k=None, skip_reason="cap")
    assert fit_exponent([skipped, make_record(11, 3)]) is None


def test_fit_result_shape():
    fit = fit_exponent([make_record(p, p // 2) for p in (11, 101, 1009)])
    assert isinstance(fit, FitResult)
    assert 0.0 <= fit.r_squared <= 1.0


def test_write_records_csv_layout(tmp_path):
    path = str(tmp_path / "records.csv")
    write_records([], path, "csv")
    assert open(path, encoding="utf-8").read() == ",".join(CSV_COLUMNS) + "\n"
    records = run_sweep(SweepConfig(p_min=13, p_max=13))
    write_records(records, path, "csv")
    lines = open(path, encoding="utf-8").read().splitlines()
    assert lines[1] == "13,3,2,2,1,13,3,1.0,,,"


def _oracle_bytes(records, fmt):
    """write_records' bytes, with the bound cells taken from Fractions."""
    rows = []
    for rec in records:
        bounds = [None] * 4
        if rec.k is not None:
            lower = Fraction(rec.p - 1, 2 * rec.n)
            upper = Fraction((rec.n - 1) * rec.p, 2 * rec.n)
            bounds = [lower.numerator, lower.denominator,
                      upper.numerator, upper.denominator]
        rows.append([rec.p, rec.n, rec.k, *bounds, rec.normalized,
                     rec.max_expsum_ratio, rec.delta_emp, None])
    if fmt == "csv":
        return "".join(",".join("" if v is None else str(v) for v in row)
                       + "\n" for row in [CSV_COLUMNS, *rows]).encode()
    return "".join(json.dumps({**dict(zip(CSV_COLUMNS, row)),
                               "skip_reason": rec.skip_reason}) + "\n"
                   for row, rec in zip(rows, records)).encode()


def test_rows_match_a_fraction_oracle(tmp_path, monkeypatch):
    sweeps = [run_sweep(SweepConfig(p_min=5, p_max=600, n_min=1,
                                    with_expsums=True)),
              run_sweep(SweepConfig(p_min=200000, p_max=210000,
                                    n_policy="largest_odd_divisor",
                                    epsilon=1 / 3))]
    monkeypatch.setenv("POWRES_ENUM_CAP", "64")
    sweeps.append(run_sweep(SweepConfig(p_min=5, p_max=1000,
                                        with_expsums=True)))
    assert any(rec.n == 1 and rec.upper_exclusive == 0 for rec in sweeps[0])
    assert any(rec.skip_reason for rec in sweeps[2])
    for records in sweeps:
        for fmt in FORMATS:
            path = tmp_path / f"rows.{fmt}"
            write_records(records, str(path), fmt)
            assert path.read_bytes() == _oracle_bytes(records, fmt), fmt


def test_exact_fields_match_a_fraction_oracle():
    for p, n in ((13, 1), (601, 1), (13, 3), (601, 5), (601, 75),
                 (1621, 45)):
        result = compute_k(build_prime_context(p), n)
        lower = Fraction(p - 1, 2 * n)
        upper = Fraction((n - 1) * p, 2 * n)
        assert sweep.exact_fields(result) == {
            "p": p, "n": n, "k": result.k,
            "lower_num": lower.numerator, "lower_den": lower.denominator,
            "upper_num": upper.numerator, "upper_den": upper.denominator}


# SHA-256 of k-only sweep outputs at an earlier commit; their rows hold no
# float that libm computes, so the bytes are the same on every Python
PINNED_SWEEPS = (
    (["--p-min", "1000", "--p-max", "20000", "--policy",
      "largest_odd_divisor", "--epsilon", "0.3333"],
     "9d4037fab8672b12a41af5db196ac8205e1b9b573c21f80cf1793bdaf05b7be6"),
    (["--p-max", "3000", "--n-min", "1"],
     "9c298e70decbc70ce90e760386a77d8b868baa8e9a192d2385f8a22b44e95dbd"),
    (["--p-max", "3000", "--n-min", "1", "--format", "jsonl"],
     "7064605720a67b0dce4bbd702a1c64e7b92a3cdbad13f98ae0f5765140b7417e"),
)


@pytest.mark.parametrize("args, digest", PINNED_SWEEPS)
def test_default_sweep_bytes_are_pinned(tmp_path, capsys, args, digest):
    out = tmp_path / "out"
    assert main(["sweep", *args, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_write_records_lf_endings(tmp_path):
    path = str(tmp_path / "records.csv")
    write_records(run_sweep(SweepConfig(p_min=5, p_max=50)), path, "csv")
    raw = open(path, "rb").read()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_round_trip_both_formats(tmp_path, monkeypatch):
    records = run_sweep(SweepConfig(p_min=5, p_max=100, with_expsums=True))
    # include a skipped row
    monkeypatch.setenv("POWRES_ENUM_CAP", "2")
    records = records + list(run_sweep(SweepConfig(p_min=13, p_max=13)))
    for fmt in ("csv", "jsonl"):
        path = str(tmp_path / f"records.{fmt}")
        write_records(records, path, fmt)
        parsed = read_records(path, fmt)
        expected = records
        if fmt == "csv":  # reason column is JSONL-only
            expected = [r.replace(skip_reason=None)
                        for r in records]
        assert parsed == expected


def test_read_records_derives_the_bounds_instead_of_reading_them(tmp_path):
    records = run_sweep(SweepConfig(p_min=5, p_max=100, with_expsums=True))
    edits = {"lower_num": 999, "upper_den": 7, "normalized": 0.5}
    path = tmp_path / "edited.csv"
    write_records(records, str(path), "csv")
    rows = list(csv.DictReader(path.read_text().splitlines()))
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows({**row, **edits} for row in rows)
    assert read_records(str(path), "csv") == records
    path = tmp_path / "edited.jsonl"
    write_records(records, str(path), "jsonl")
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    path.write_text("".join(json.dumps({**row, **edits}) + "\n"
                            for row in rows))
    parsed = read_records(str(path), "jsonl")
    assert parsed == records
    assert [r.lower for r in parsed] == [r.lower for r in records]


def test_result_types_store_only_what_was_computed():
    def names(cls):
        return list(cls._fields)
    assert names(KResult) == ["p", "n", "k"]
    assert names(SweepRecord) == ["p", "n", "k", "max_expsum_ratio",
                                  "skip_reason"]
    assert names(ExpSumProfile) == ["p", "g", "subgroup_order",
                                    "coset_values"]
    assert "reconstruction" not in names(DecompositionResult)


@pytest.mark.parametrize("fmt", FORMATS)
def test_read_records_ignores_filled_timing_cells(tmp_path, monkeypatch, fmt):
    # Earlier versions could fill the elapsed_ms column with whole-millisecond
    # timings; such files read back as the same records as with it empty.
    records = run_sweep(SweepConfig(p_min=5, p_max=100, with_expsums=True))
    monkeypatch.setenv("POWRES_ENUM_CAP", "1")
    records += run_sweep(SweepConfig(p_min=11, p_max=11))  # (11, 5) skips
    assert records[-1].skip_reason is not None
    empty, timed = tmp_path / f"empty.{fmt}", tmp_path / f"timed.{fmt}"
    write_records(records, str(empty), fmt)
    with pytest.raises(TypeError):
        write_records(records, str(timed), fmt, with_timings=True)
    if fmt == "csv":
        rows = list(csv.DictReader(empty.read_text().splitlines()))
        with timed.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, CSV_COLUMNS, lineterminator="\n")
            writer.writeheader()
            writer.writerows({**row, "elapsed_ms": i % 3}
                             for i, row in enumerate(rows))
    else:
        rows = [json.loads(line) for line in empty.read_text().splitlines()]
        timed.write_text("".join(json.dumps({**row, "elapsed_ms": i % 3})
                                 + "\n" for i, row in enumerate(rows)))
    assert timed.read_bytes() != empty.read_bytes()
    assert read_records(str(timed), fmt) == read_records(str(empty), fmt)


def test_write_records_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        write_records([], str(tmp_path / "x"), "xml")
    with pytest.raises(ValueError):
        read_records(str(tmp_path / "x"), "xml")


def test_write_records_refuses_an_empty_path(tmp_path, monkeypatch):
    # An empty path would resolve to the working directory; its temp file
    # would land beside it, in tmp_path.
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path / "sub")
    with pytest.raises(ValueError, match="''"):
        write_records([run_case(13, 3)], "")
    assert [f.name for f in tmp_path.iterdir()] == ["sub"]
    assert list((tmp_path / "sub").iterdir()) == []


def test_identical_configs_identical_bytes(tmp_path, monkeypatch):
    monkeypatch.setattr(sweep, "_POOL_MIN_WORK", 0)
    cfg = SweepConfig(p_min=5, p_max=300, with_expsums=True)
    paths = []
    for i, workers in enumerate((1, 3)):
        path = str(tmp_path / f"run{i}.jsonl")
        run = cfg.replace(workers=workers)
        write_records(run_sweep(run), path, "jsonl")
        paths.append(path)
    blobs = [open(p, "rb").read() for p in paths]
    assert blobs[0] == blobs[1]


def test_concurrent_writers_to_one_path_leave_one_whole_file(tmp_path):
    outputs = []
    for i, rows in enumerate((20000, 15000)):
        records = [make_record(5 + j, 1, n=1) for j in range(rows)]
        write_records(records, str(tmp_path / f"alone{i}.csv"))
        outputs.append((records, (tmp_path / f"alone{i}.csv").read_bytes()))
    target = tmp_path / "shared.csv"
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(3):
            start = threading.Barrier(2)
            errors = []

            def write(records):
                start.wait(timeout=10)
                try:
                    write_records(records, str(target))
                except Exception as exc:
                    errors.append(exc)
            threads = [threading.Thread(target=write, args=(records,))
                       for records, _ in outputs]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            assert target.read_bytes() in {blob for _, blob in outputs}
            assert list(tmp_path.glob("*.tmp")) == []
    finally:
        sys.setswitchinterval(interval)


def test_failed_write_keeps_earlier_file(tmp_path):
    path = tmp_path / "records.jsonl"
    write_records(run_sweep(SweepConfig(p_min=13, p_max=13)), str(path),
                  "jsonl")
    before = path.read_bytes()
    # the second row cannot be serialized, so the write fails partway
    unwritable = SweepRecord(p=17, n=1, k=8, max_expsum_ratio=1j)
    good = run_sweep(SweepConfig(p_min=5, p_max=50))
    with pytest.raises(TypeError):
        write_records([good[0], unwritable], str(path), "jsonl")
    assert path.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["records.jsonl"]


def test_write_records_never_follows_a_planted_temp_name(tmp_path,
                                                        monkeypatch):
    fixed = b"planted!"
    monkeypatch.setattr(os, "urandom", lambda nbytes: fixed[:nbytes])
    victim = tmp_path / "victim.txt"
    victim.write_bytes(b"victim")
    link = tmp_path / f"{fixed.hex()}.tmp"
    link.symlink_to(victim)
    records = run_sweep(SweepConfig(p_min=13, p_max=13))
    for existing in (b"earlier", None):
        out = tmp_path / "out.csv"
        if existing is not None:
            out.write_bytes(existing)
        with pytest.raises(OSError):
            write_records(records, str(out))
        assert victim.read_bytes() == b"victim"
        assert link.is_symlink() and os.readlink(link) == str(victim)
        if existing is not None:
            assert not out.is_symlink() and out.read_bytes() == existing
            out.unlink()
        assert sorted(f.name for f in tmp_path.iterdir()) == \
            sorted([link.name, victim.name])


def test_write_records_keeps_the_mode_of_a_rewritten_file(tmp_path):
    records = run_sweep(SweepConfig(p_min=13, p_max=13))
    # a new file gets what a plain open for writing would give it
    plain = tmp_path / "plain.csv"
    open(plain, "w").close()
    new = tmp_path / "new.csv"
    write_records(records, str(new))
    assert new.stat().st_mode == plain.stat().st_mode
    for mode in (0o600, 0o640, 0o444):
        out = tmp_path / f"{mode:o}.csv"
        out.write_bytes(b"earlier")
        out.chmod(mode)
        write_records(records, str(out))
        assert stat.S_IMODE(out.stat().st_mode) == mode
        assert out.read_bytes() == new.read_bytes()


def test_write_records_to_a_long_file_name(tmp_path):
    # the name fits the file system, and the temp name must not outgrow it
    out = str(tmp_path / ("a" * 240 + ".csv"))
    records = run_sweep(SweepConfig(p_min=5, p_max=50))
    sweep.check_destination(out)
    write_records(records, out)
    assert read_records(out) == records
    assert [f.name for f in tmp_path.iterdir()] == [os.path.basename(out)]


def test_write_records_through_fifo_and_symlink(tmp_path):
    records = run_sweep(SweepConfig(p_min=13, p_max=13))
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    chunks = []
    reader = threading.Thread(target=lambda: chunks.append(fifo.read_bytes()),
                              daemon=True)
    reader.start()
    write_records(records, str(fifo), "csv")
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert fifo.is_fifo()
    assert chunks[0].startswith(b"p,n,k,")
    target = tmp_path / "real.csv"
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    write_records(records, str(link), "csv")
    assert link.is_symlink()
    assert target.read_bytes() == chunks[0]
