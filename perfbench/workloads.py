"""Seeded workload generators for the powres benchmark.

Nothing here imports powres: the inputs are made from the seed with the
standard library alone, so the program under test never shapes its own
workload.  Why each workload exists is recorded in README.md.

Every workload is an endless stream of operations.  Operation j takes its
sizes (window position; query p, n and the discrete log of m) from point j
of a low-discrepancy sequence whose start is drawn from the seed.  Any
prefix of that stream covers the bands evenly, so a run that stops on a
clock measures the same mix of sizes whatever the seed, and the seed still
moves every window and query.
"""

from __future__ import annotations

import math
import random
import zlib
from dataclasses import dataclass, field

# Miller-Rabin witnesses that are exact for every n < 3.3 * 10**24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    for q in _MR_BASES:
        if m % q == 0:
            return m == q
    d = m - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def prime_factors(m: int) -> dict[int, int]:
    """Trial division; quick enough for m up to about 2**36."""
    found: dict[int, int] = {}
    q = 2
    while q * q <= m:
        while m % q == 0:
            found[q] = found.get(q, 0) + 1
            m //= q
        q += 1 if q == 2 else 2
    if m > 1:
        found[m] = found.get(m, 0) + 1
    return found


def odd_divisors(m: int) -> list[int]:
    """Ascending odd divisors of m."""
    divisors = [1]
    for q, e in prime_factors(m).items():
        if q != 2:
            divisors = [d * q**i for d in divisors for i in range(e + 1)]
    return sorted(divisors)


def primes_in(lo: int, hi: int) -> list[int]:
    """Primes in [lo, hi] by a byte sieve."""
    if hi < 2:
        return []
    sieve = bytearray([1]) * (hi + 1)
    sieve[0] = sieve[1] = 0
    for q in range(2, math.isqrt(hi) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytearray(len(range(q * q, hi + 1, q)))
    return [p for p in range(max(lo, 2), hi + 1) if sieve[p]]


@dataclass(frozen=True)
class SweepOp:
    """One `run_sweep` + `write_records` call over [p_min, p_max]."""

    p_min: int
    p_max: int

    def key(self) -> list:
        return ["sweep", self.p_min, self.p_max]


@dataclass(frozen=True)
class QueryOp:
    """One in-process `cli.main(argv)` call; argv ends with --json."""

    argv: tuple[str, ...]

    def key(self) -> list:
        return ["query", *self.argv]


def _points(rng: random.Random, dims: int):
    """Roberts' R_d sequence frac(u + j * alpha) from a seeded start u.

    phi_d is the root of x**(d+1) = x + 1 and alpha_i = phi_d**-(i+1); for
    d = 1 this is the golden-ratio rotation.  Every prefix of the sequence
    fills [0, 1)**d evenly.
    """
    phi = 2.0
    for _ in range(60):
        phi = (1.0 + phi) ** (1.0 / (dims + 1))
    alpha = [phi ** -(i + 1) for i in range(dims)]
    u = [rng.random() for _ in range(dims)]
    while True:
        yield u
        u = [(a + b) % 1.0 for a, b in zip(u, alpha)]


def _windows(rng: random.Random, lo: int, hi: int, width: int):
    for (x,) in _points(rng, 1):
        start = lo + int(x * (hi - lo - width))
        yield SweepOp(start, start + width)


def _log_uniform(x: float, lo: float, hi: float) -> int:
    return int(math.exp(math.log(lo) + x * (math.log(hi) - math.log(lo))))


def _next_prime(m: int) -> int:
    m |= 1
    while not is_prime(m):
        m += 2
    return m


def _prime_and_divisor(rng: random.Random, lo: float, hi: float, divisors,
                       dims: int = 2):
    """(p, n, rest): p log-uniform in [lo, hi], n one of divisors(p).

    p, n and the `dims - 2` further coordinates in `rest` come from one
    point, so that the sizes that set a query's cost are spread evenly in
    any prefix of the stream.
    """
    for x, y, *rest in _points(rng, dims):
        p = _next_prime(_log_uniform(x, lo, hi))
        ns = divisors(p)
        if ns:
            yield p, ns[int(y * len(ns))], rest


def _least_primitive_root(p: int) -> int:
    quotients = [(p - 1) // q for q in prime_factors(p - 1)]
    g = 2
    while any(pow(g, t, p) == 1 for t in quotients):
        g += 1
    return g


def _odd_divisors_from_3(p: int) -> list[int]:
    return [n for n in odd_divisors(p - 1) if n >= 3]


def _small_odd_divisors(p: int) -> list[int]:
    # Small n keeps the n printed roots cheap; BSGS cost grows with p.
    return [n for n in range(3, 1000, 2) if (p - 1) % n == 0]


def _divisor_queries(rng: random.Random, kind: str):
    for p, n, _ in _prime_and_divisor(rng, 3e4, 3e5, _odd_divisors_from_3):
        yield (kind, str(p), str(n))


def _decompose_queries(rng: random.Random):
    for p, n, _ in _prime_and_divisor(rng, 1e4, 4e4, _odd_divisors_from_3):
        m = pow(rng.randrange(1, p), n, p)
        yield ("decompose", str(p), str(n), str(m),
               str(rng.randint(1, (p - 1) // 2)))


def _roots_queries(rng: random.Random):
    # m = g**(n*t) for the least primitive root g, so the discrete log that
    # baby-step giant-step finds, and with it the number of giant steps, is
    # spread evenly by the point's third coordinate z.
    for p, n, (z,) in _prime_and_divisor(rng, 2.0**30, 2.0**34,
                                         _small_odd_divisors, dims=3):
        t = int(z * ((p - 1) // n))
        m = pow(_least_primitive_root(p), n * t, p)
        yield ("roots", str(p), str(n), str(m))


def _queries(seed: int):
    rngs = [random.Random(seed * 1009 + tag) for tag in range(4)]
    streams = [_divisor_queries(rngs[0], "compute"),
               _divisor_queries(rngs[1], "expsum"),
               _decompose_queries(rngs[2]), _roots_queries(rngs[3])]
    while True:
        for stream in streams:
            yield QueryOp(next(stream) + ("--json",))


@dataclass(frozen=True)
class Workload:
    name: str
    # SweepConfig fields shared by every window; empty for the query loop.
    sweep: dict = field(default_factory=dict)
    # Windows of `width` are drawn from primes in `band`.
    band: tuple[int, int] = (0, 0)
    width: int = 0
    # Operations replayed, untraced then traced, by a --trace 1 run; fixed
    # so that the traced counts repeat exactly between commits.
    trace_ops: int = 40

    @property
    def workers(self) -> int:
        return self.sweep.get("workers", 1)

    def operations(self, seed: int):
        """The endless operation stream for `seed`."""
        if not self.sweep:
            return _queries(seed)
        rng = random.Random(seed * 1009 + zlib.crc32(self.name.encode()))
        return _windows(rng, *self.band, self.width)


# Why each workload exists, and which layer it stresses: README.md.
WORKLOADS = {w.name: w for w in (
    Workload("sweep_k", band=(2000, 15000), width=60, trace_ops=150,
             sweep=dict(n_policy="all_odd_divisors", with_expsums=False,
                        workers=1)),
    Workload("sweep_expsums", band=(1000, 5000), width=40, trace_ops=150,
             sweep=dict(n_policy="all_odd_divisors", with_expsums=True,
                        workers=1)),
    Workload("growth", band=(1000, 300000), width=10000, trace_ops=40,
             sweep=dict(n_policy="largest_odd_divisor", epsilon=1.0 / 3.0,
                        with_expsums=False, workers=2)),
    Workload("queries", trace_ops=100),
)}
