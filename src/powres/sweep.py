"""Batch (p, n) sweeps: case enumeration, parallel runs, persistence, fits.

A sweep walks primes in [p_min, p_max], pairs each with odd divisors n of
p - 1 under the configured policy and the n > p**epsilon hypothesis filter,
computes k(p, n) (optionally with subgroup-sum statistics) per case, and
fits ln k against ln p by least squares.

Work is partitioned per prime.  The sweep builds each prime's context and
lists its cases in ascending n, factoring p - 1 only to list all odd
divisors; one task per prime then runs them, finds g only for a phase
table, and checks that k(p, n') <= k(p, n) whenever n | n' among its
cases.  The tasks run in a process pool only when more than one worker
may run and the sweep's work estimate (see _work) reaches
_POOL_MIN_WORK; below it they run in-process whatever the worker count,
since starting the pool would cost more than it saves.  A pool task gets
its prime's context, factors included, and case list, each worker takes
the parent's enumeration cap when the pool starts, whatever the start
method, and results are joined in prime order, so output files are
byte-identical for any worker count.  The pool machinery
(concurrent.futures and multiprocessing) is imported only when a pool
starts, so importing the package or running a sweep in-process does not
load it.
"""

from __future__ import annotations

import csv
import errno
import json
import math
import os
import re
import stat
from functools import partial
from itertools import starmap

from .errors import EmptyRange, InvariantViolation, ScaleLimit
from .expsums import _delta, expsum_profile, phase_table
from .modmath import (SIEVE_CAP, PrimeContext, build_prime_context,
                      primes_between)
from .record import Record
from .residues import (_CAP_VAR, KResult, _bound_cells, _enum_cap,
                       _inherit_cap, chowla_london_bounds, compute_k)

# Fraction is read here only by type checkers (see residues.py).
TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction

N_POLICIES = ("all_odd_divisors", "largest_odd_divisor", "fixed_n")

FORMATS = ("csv", "jsonl")

CSV_COLUMNS = ("p", "n", "k", "lower_num", "lower_den", "upper_num",
               "upper_den", "normalized", "max_expsum_ratio", "delta_emp",
               "elapsed_ms")

# The work estimate of run_sweep (see _work), in units of one element of a
# case's residue subgroup R, which costs a k scan about 0.4-0.7 us (2-CPU
# Xeon, Python 3.11).  A phase table or profile costs about 1/_EXPSUM_DIVISOR
# unit per phase.  Below _POOL_MIN_WORK units, about 80-90 ms in-process, a
# 2-worker pool started with fork does not repay its start-up, which
# includes importing the pool machinery (about 20 ms) in a fresh process.
# Timed in fresh interpreters on [2000, p_max] windows, alternating runs,
# medians of 20: W 165k took 54 ms in-process and 71 ms pooled, W 239k 77
# and 80 ms, W 333k 109 and 97 ms.  With that import already paid the
# crossover lay near 100k-135k.  A forkserver pool lost at every W tried,
# up to 493k.
_EXPSUM_DIVISOR = 4
_POOL_MIN_WORK = 250_000

_FD_PATH = re.compile(r"/(?:dev|proc/self)/fd/(\d+)")
_STD_PATHS = {"/dev/stdout": 1, "/dev/stderr": 2}


class SweepConfig(Record):
    """Immutable sweep parameters; validated on construction.

    Bad values, including a p_min, p_max, n_min, workers or fixed_n that is
    not an int (a bool or a float among them), an epsilon that is not an
    int or a float (a bool among them) and a with_expsums that is not a
    bool, raise ValueError; a p_max above SIEVE_CAP raises ScaleLimit
    before the prime sieve is allocated.
    """

    def __init__(self, p_min: int, p_max: int, n_min: int = 3,
                 epsilon: float = 0.0, n_policy: str = "all_odd_divisors",
                 fixed_n: int | None = None, with_expsums: bool = False,
                 workers: int = 1) -> None:
        self.__dict__.update(p_min=p_min, p_max=p_max, n_min=n_min,
                             epsilon=epsilon, n_policy=n_policy,
                             fixed_n=fixed_n, with_expsums=with_expsums,
                             workers=workers)
        for name in ("p_min", "p_max", "n_min", "workers"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"{name} must be an int, got {value!r}")
        if type(self.with_expsums) is not bool:
            raise ValueError(
                f"with_expsums must be a bool, got {self.with_expsums!r}")
        eps = self.epsilon
        if not isinstance(eps, (int, float)) or isinstance(eps, bool):
            raise ValueError(f"epsilon must be an int or a float, got {eps!r}")
        if self.p_max > SIEVE_CAP:
            raise ScaleLimit(
                f"p_max = {self.p_max} exceeds the sieve cap {SIEVE_CAP}")
        if self.p_min < 5:
            raise ValueError(f"p_min must be >= 5, got {self.p_min}")
        if self.n_min < 1:
            raise ValueError(f"n_min must be >= 1, got {self.n_min}")
        if not 0.0 <= eps < 1.0:
            raise ValueError(f"epsilon must be in [0, 1), got {eps}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.n_policy not in N_POLICIES:
            raise ValueError(f"unknown n_policy {self.n_policy!r}")
        if (self.fixed_n is None) == (self.n_policy == "fixed_n"):
            raise ValueError(f"fixed_n = {self.fixed_n} with n_policy "
                             f"{self.n_policy!r}: n_policy 'fixed_n' needs "
                             "fixed_n, and no other policy reads it")
        n = self.fixed_n
        if n is not None and (type(n) is not int or n < 1 or n % 2 == 0):
            raise ValueError(
                f"fixed_n must be a positive odd integer, got {n!r}")


class SweepRecord(Record):
    """One (p, n) row as measured; k and the fields derived from it when
    read (lower, upper_exclusive, normalized) are None when skipped, and
    delta_emp, derived from max_expsum_ratio, is None without it."""

    def __init__(self, p: int, n: int, k: int | None,
                 max_expsum_ratio: float | None = None,
                 skip_reason: str | None = None) -> None:
        self.__dict__.update(p=p, n=n, k=k, max_expsum_ratio=max_expsum_ratio,
                             skip_reason=skip_reason)

    @property
    def lower(self) -> Fraction | None:
        return (None if self.k is None
                else chowla_london_bounds(self.p, self.n)[0])

    @property
    def upper_exclusive(self) -> Fraction | None:
        return (None if self.k is None
                else chowla_london_bounds(self.p, self.n)[1])

    @property
    def normalized(self) -> float | None:
        return None if self.k is None else self.k * 2 * self.n / (self.p - 1)

    @property
    def delta_emp(self) -> float | None:
        ratio = self.max_expsum_ratio
        return None if ratio is None else _delta(ratio, self.p, self.n)


class FitResult(Record):
    """Ordinary least squares of log k on log p."""

    def __init__(self, slope: float, intercept: float, r_squared: float,
                 n_points: int) -> None:
        self.__dict__.update(slope=slope, intercept=intercept,
                             r_squared=r_squared, n_points=n_points)


def _odd_divisors_of(factors) -> list[int]:
    divisors = [1]
    for q, e in factors:
        if q == 2:
            continue
        divisors = [d * q**i for d in divisors for i in range(e + 1)]
    return sorted(divisors)


def _case_ns(ctx: PrimeContext, config: SweepConfig) -> list[int]:
    m = ctx.p - 1
    if config.n_policy == "largest_odd_divisor":
        candidates = [m // (m & -m)]
    elif config.n_policy == "fixed_n":
        candidates = [config.fixed_n] if m % config.fixed_n == 0 else []
    else:
        candidates = _odd_divisors_of(ctx.factors)
    floor = ctx.p**config.epsilon if config.epsilon > 0.0 else 0
    return [n for n in candidates if n >= config.n_min and n > floor]


def _primes(config: SweepConfig) -> list[int]:
    primes = primes_between(config.p_min, config.p_max)
    if not primes:
        raise EmptyRange(f"no primes in [{config.p_min}, {config.p_max}]")
    return primes


def _cases(primes: list[int], config: SweepConfig):
    """Each prime's context and its ascending case ns, built lazily."""
    return ((ctx, _case_ns(ctx, config)) for ctx in map(PrimeContext, primes))


def enumerate_cases(config: SweepConfig) -> list[tuple[int, int]]:
    """All (p, n) pairs under the policy and hypothesis filters, sorted.

    Raises EmptyRange when the prime range itself is empty; filters that
    merely reject every divisor yield an empty list instead.
    """
    return [(ctx.p, n) for ctx, ns in _cases(_primes(config), config)
            for n in ns]


def _check_monotone(records: list[SweepRecord]) -> None:
    """k(p, n') <= k(p, n) whenever n | n' among one prime's computed
    cases: each coset of the order-2n' subgroup is a union of cosets of
    the order-2n one, so its least member is no smaller."""
    done = [rec for rec in records if rec.k is not None]
    for i, coarse in enumerate(done):
        for fine in done[i + 1:]:
            if fine.n % coarse.n == 0 and fine.k > coarse.k:
                raise InvariantViolation(
                    f"k not monotone at p={coarse.p}: k(n={fine.n}) = "
                    f"{fine.k} > k(n={coarse.n}) = {coarse.k}")


def _prime_records(ctx: PrimeContext, ns: list[int],
                   with_expsums: bool) -> list[SweepRecord]:
    """The records of one prime's ascending cases ns, in order: a k each,
    a skip where its scan would pass the cap, and a profile from at most
    one shared phase table (none without expsums, without cases or above
    the cap).  They are checked against each other by _check_monotone."""
    try:
        table = phase_table(ctx) if with_expsums and ns else None
    except ScaleLimit:
        table = None
    records = []
    for n in ns:
        try:
            k = compute_k(ctx, n).k
        except ScaleLimit as exc:
            records.append(SweepRecord(ctx.p, n, None, skip_reason=str(exc)))
            continue
        ratio = None if table is None else expsum_profile(table, n).max_ratio
        records.append(SweepRecord(ctx.p, n, k, max_expsum_ratio=ratio))
    _check_monotone(records)
    return records


def run_case(p: int, n: int, *, with_expsums: bool = False) -> SweepRecord:
    """Compute one sweep record; cap overruns become skip records."""
    return _prime_records(build_prime_context(p), [n], with_expsums)[0]


def _work(cases: list[tuple[PrimeContext, list[int]]],
          with_expsums: bool) -> int:
    """W, the work of a sweep's cases that a pool worker would take over.

    W sums |R| = (p - 1)/n over the cases that scan, n != 3, whose |R|
    fits the enumeration cap and, with expsums, (p - 1)/_EXPSUM_DIVISOR for
    the phase table and for each profile of a prime whose p - 1 fits it.
    An n = 3 case, found on the cube-root lattice, and what the cap skips
    cost next to nothing, and the parent's own work per prime is not
    counted: a pool does not take it over.
    """
    # read only where a scan or a phase table would read it too (ns holds
    # distinct n), so that a bad cap fails alike at any worker count
    cap = (_enum_cap() if any(ns and (with_expsums or ns != [3])
                              for _, ns in cases) else 0)
    work = 0
    for ctx, ns in cases:
        m = ctx.p - 1
        work += sum(m // n for n in ns if n != 3 and m // n <= cap)
        if with_expsums and ns and m <= cap:
            work += (len(ns) + 1) * m // _EXPSUM_DIVISOR
    return work


def run_sweep(config: SweepConfig) -> list[SweepRecord]:
    """One record per enumerated case, ordered by (p, n).

    Per-case cap failures are recorded as skips and never abort the sweep.
    The primes of the window come from its sieve, so none is tested again.

    At most config.workers processes run the sweep, and no more than it
    has primes or than there are CPUs this process may run on.  A pool is
    started only when that leaves two or more and the work estimate W
    (see _work) reaches _POOL_MIN_WORK; otherwise the sweep runs
    in-process.  The choice reads the config, its primes, the enumeration
    cap and the CPU count, never a clock, and either way the records are
    the same.
    """
    primes = _primes(config)
    cases = _cases(primes, config)
    # the CPUs this process may run on, where the platform says which
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(config.workers, len(primes), cpus)
    if workers > 1:
        cases = list(cases)
        if _work(cases, config.with_expsums) < _POOL_MIN_WORK:
            workers = 1
    task = partial(_prime_records, with_expsums=config.with_expsums)
    if workers == 1:
        per_prime = starmap(task, cases)
    else:
        from concurrent.futures import ProcessPoolExecutor
        chunk = max(1, len(cases) // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers, initializer=_inherit_cap,
                                 initargs=(os.environ.get(_CAP_VAR),)) as pool:
            per_prime = list(pool.map(task, *zip(*cases), chunksize=chunk))
    return [rec for records in per_prime for rec in records]


def fit_exponent(records: list[SweepRecord]) -> FitResult | None:
    """OLS of log k on log p over the completed records.

    None when the line is undefined: fewer than two completed records, or
    all of them at one p.  The slope is a growth exponent only when the
    cases hold |R| = (p - 1)/n (or log n / log p) fixed.  Under the
    largest-odd-divisor policy |R| is the 2-power part of p - 1, so the
    slope tracks that valuation instead.
    """
    from statistics import StatisticsError, linear_regression
    done = [rec for rec in records if rec.k is not None]
    for rec in done:
        if rec.k < 1:  # only a hand-built or read record can hold one
            raise InvariantViolation(
                f"log k of (p={rec.p}, n={rec.n}) needs k >= 1, got {rec.k}")
    points = [(math.log(rec.p), math.log(rec.k)) for rec in done]
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    try:
        slope, intercept = linear_regression(xs, ys)
    except StatisticsError:
        return None
    mean_y = math.fsum(ys) / len(ys)
    ss_tot = math.fsum((y - mean_y) ** 2 for y in ys)
    ss_res = math.fsum((y - (slope * x + intercept)) ** 2
                       for x, y in points)
    r_squared = 1.0 if ss_tot == 0.0 else max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return FitResult(slope=slope, intercept=intercept,
                     r_squared=r_squared, n_points=len(points))


def _exact_cells(rec: SweepRecord | KResult) -> list[int | None]:
    if rec.k is None:
        return [rec.p, rec.n, None, None, None, None, None]
    return [rec.p, rec.n, rec.k, *_bound_cells(rec.p, rec.n)]


def exact_fields(rec: SweepRecord | KResult) -> dict[str, int | None]:
    """p, n, k and the sandwich bounds as exact numerator/denominator pairs
    (None when k is): the leading fields of a sweep row and of compute."""
    return dict(zip(CSV_COLUMNS, _exact_cells(rec)))


def _row(rec: SweepRecord) -> list[object]:
    """The cells of one record in CSV_COLUMNS order, None where absent;
    the one row builder of both formats."""
    return [*_exact_cells(rec), rec.normalized, rec.max_expsum_ratio,
            rec.delta_emp, None]


def _write_rows(fh, records: list[SweepRecord], fmt: str) -> None:
    if fmt == "csv":
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(map(_row, records))  # None writes as ""
    else:
        for rec in records:
            obj = dict(zip(CSV_COLUMNS, _row(rec)))
            obj["skip_reason"] = rec.skip_reason
            fh.write(json.dumps(obj) + "\n")


def _descriptor(path: str) -> int | None:
    """The descriptor path names (/dev/stdout, /dev/fd/N, ...) or None."""
    where = os.path.abspath(path)
    named = _FD_PATH.fullmatch(where)
    return int(named[1]) if named else _STD_PATHS.get(where)


def check_destination(path: str) -> None:
    """Raise, before a sweep runs, the OSError that writing to path would
    meet; a device or FIFO is not opened, as a FIFO waits for a reader."""
    fd = _descriptor(path)
    if fd is not None:
        os.fstat(fd)
    elif os.path.isdir(path or "."):  # an empty path is the working directory
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    elif os.path.isfile(path) or not os.path.exists(path):
        from tempfile import TemporaryFile
        TemporaryFile(dir=os.path.dirname(os.path.realpath(path))).close()


def write_records(records: list[SweepRecord], path: str,
                  fmt: str = "csv") -> None:
    """Persist records as CSV or JSONL (UTF-8, LF line endings).

    Absent optionals serialize as empty CSV cells / JSON nulls.  The last
    column, a per-case timing slot that nothing fills, is always empty; it
    keeps the layout fixed.  JSONL rows carry an extra skip_reason key
    (null for completed cases) that CSV omits.

    A regular file is written to a temporary file beside it, created
    exclusively under a short random name, which takes the file's mode and
    then replaces it in one step: a write that fails or is interrupted
    leaves any earlier file as it was and no partial file behind.  A
    device, a FIFO or a path naming an open descriptor (/dev/stdout,
    /dev/stderr, /dev/fd/N, /proc/self/fd/N) is written directly, the last
    through the descriptor itself: it may lead to a regular file, such as
    the target of a shell redirection, that must not be replaced.  An
    empty path is refused with ValueError before anything is opened.
    """
    if fmt not in FORMATS:
        raise ValueError(f"format must be 'csv' or 'jsonl', got {fmt!r}")
    if not path:
        raise ValueError(f"path must name a file, got {path!r}")
    fd = _descriptor(path)
    exists = os.path.exists(path)
    if fd is not None or (exists and not os.path.isfile(path)):
        with open(path if fd is None else os.dup(fd), "w", encoding="utf-8",
                  newline="") as fh:
            _write_rows(fh, records, fmt)
        return
    target = os.path.realpath(path)
    tmp = os.path.join(os.path.dirname(target), f"{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8", newline="")
    try:
        with fh:
            if exists:
                os.chmod(tmp, stat.S_IMODE(os.stat(target).st_mode))
            _write_rows(fh, records, fmt)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _record_from_fields(values: dict[str, object]) -> SweepRecord:
    """The stored fields of one row; the derived columns are not read."""
    def _get(key: str, cast):
        v = values.get(key)
        return None if v is None or v == "" else cast(v)

    return SweepRecord(
        p=int(values["p"]), n=int(values["n"]), k=_get("k", int),
        max_expsum_ratio=_get("max_expsum_ratio", float),
        skip_reason=_get("skip_reason", str))


def read_records(path: str, fmt: str = "csv") -> list[SweepRecord]:
    """Parse a file produced by write_records back into records; the bound,
    normalized and delta_emp columns are not read, as each record derives
    them, and a timing cell is ignored even when it is filled."""
    if fmt not in FORMATS:
        raise ValueError(f"format must be 'csv' or 'jsonl', got {fmt!r}")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = (csv.DictReader(fh) if fmt == "csv"
                else (json.loads(line) for line in fh if line.strip()))
        return [_record_from_fields(row) for row in rows]
