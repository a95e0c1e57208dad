"""Exact 64-bit-range modular arithmetic, primality, factorization, primitive roots.

factorize() trial-divides below 2**8 and splits the rest by Pollard rho with
Floyd's cycle check; its worst case, a semiprime of two 31-bit primes near
the 2**62 cap, takes about 50 ms.

powers() is the one walk start * base**j mod p over a coset of F_p^*.

Moduli are capped at 2**62: every product of two reduced residues then fits
in a 124-bit intermediate, which CPython's arbitrary-precision integers handle
exactly.  Larger moduli are rejected up front instead of silently degrading.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cached_property
from itertools import compress
from math import gcd, isqrt

from .errors import InvariantViolation, NotPrime, ScaleLimit, TooSmall
from .record import Record

MODULUS_CAP = 1 << 62

# Largest p_max of a sweep.  Its window [p_min, p_max] is sieved alone, with
# one byte per integer of the window plus the list of its primes; the base
# primes up to isqrt(SIEVE_CAP) = 2**14 are negligible.  The widest window,
# [5, 2**28], takes 256 MiB of sieve plus about 0.6 GB for the list of its
# 1.5 * 10**7 primes.
SIEVE_CAP = 1 << 28

# Witness set deterministic for every n < 3.3 * 10**24 (covers the full
# 64-bit range), so the test below is exact, never probabilistic.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_TRIAL_BOUND = 1 << 8  # needs no prime table; rho takes the rest


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin primality check, exact below 2**62."""
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
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def primes_between(lo: int, hi: int) -> list[int]:
    """All primes in [lo, hi], by a byte sieve of that window alone.

    The window is crossed off by the primes up to isqrt(hi), found by the
    same sieve, so its memory follows hi - lo, not hi.
    """
    lo = max(lo, 2)
    if hi < lo:
        return []
    sieve = bytearray([1]) * (hi - lo + 1)
    for q in primes_between(2, isqrt(hi)):
        start = max(q * q, -(-lo // q) * q)
        sieve[start - lo :: q] = bytes(len(range(start, hi + 1, q)))
    return list(compress(range(lo, hi + 1), sieve))


def powers(base: int, p: int, start: int = 1) -> Iterator[int]:
    """start, start*base, start*base**2, ... mod p: one product per step."""
    r = start
    while True:
        yield r
        r = r * base % p


def _rho_factor(n: int) -> int:
    """Nontrivial factor of composite n by Pollard rho with Floyd's cycle
    check: x -> x*x + c from x = 2, one gcd per step.

    c runs 1, 2, ... in order, so repeated runs split n identically.
    """
    for c in range(1, 1000):
        x = y = 2
        g = 1
        while g == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            g = gcd(x - y, n)
        if g < n:
            return g
    raise InvariantViolation(f"rho parameter schedule exhausted for {n}")


def factorize(m: int) -> list[tuple[int, int]]:
    """Prime factorization of m >= 1 as [(prime, exponent), ...], ascending.

    Trial division by 2 and the odd q below 2**8, then deterministic
    Pollard rho (_rho_factor, Floyd's cycle check) for what remains.
    Returns [] for m == 1.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    found: dict[int, int] = {}
    c = m
    q = 2
    while q < _TRIAL_BOUND and q * q <= c:
        if c % q == 0:
            e = 0
            while c % q == 0:
                c //= q
                e += 1
            found[q] = e
        q += 1 if q == 2 else 2
    # No prime below q divides c, so a divisor of c below q*q is prime.
    stack = [c] if c > 1 else []
    while stack:
        v = stack.pop()
        if v < q * q or is_prime(v):
            found[v] = found.get(v, 0) + 1
        else:
            f = _rho_factor(v)
            stack += (f, v // f)
    return sorted(found.items())


class PrimeContext(Record):
    """A prime p >= 5; p - 1's factors and the least primitive root g are
    derived from p when first read, then kept.

    The caller proves p prime: build_prime_context for input, the window
    sieve for the primes of a sweep.  Safe to share across workers.
    """

    def __init__(self, p: int) -> None:
        self.__dict__.update(p=p)

    @cached_property
    def factors(self) -> tuple[tuple[int, int], ...]:
        return tuple(factorize(self.p - 1))

    @cached_property
    def g(self) -> int:
        """Candidates 2, 3, ... are tested in order via g**((p-1)/q) != 1
        for each prime q | p - 1, so g is the least on every machine."""
        p = self.p
        quotients = [(p - 1) // q for q, _ in self.factors]
        g = 2
        while any(pow(g, t, p) == 1 for t in quotients):
            g += 1
        return g


def build_prime_context(p: int) -> PrimeContext:
    """The context of a p from input, proved prime by is_prime; raises
    ScaleLimit (p >= 2**62), then NotPrime, then TooSmall (p < 5)."""
    if p >= MODULUS_CAP:
        raise ScaleLimit(f"p must be below 2**62, got {p}")
    if not is_prime(p):
        raise NotPrime(f"p is not prime (got {p})")
    if p < 5:
        raise TooSmall(f"p must be >= 5, got {p}")
    return PrimeContext(p)
