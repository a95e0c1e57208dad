"""Multiplicative subgroups, n-th roots, and the covering number k(p, n).

k(p, n) is the least k such that the n-th powers of +-1, +-2, ..., +-k hit
every non-zero n-th power residue mod p.  Throughout, n must be a positive
odd divisor of p - 1: oddness makes (-x)**n = -(x**n), which is what lets a
single magnitude x cover a symmetric pair of residues.
"""

from __future__ import annotations

import os
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, repeat
from math import gcd, isqrt

from .errors import (BadN, BadResidue, InvariantViolation, NotEnumerated,
                     NotResidue)
from .modmath import PrimeContext, powers, primes_between

ENUM_CAP_DEFAULT = 1 << 22
_CAP_VAR = "POWRES_ENUM_CAP"


def _enum_cap() -> int:
    """The enumeration cap, POWRES_ENUM_CAP (default 2**22; not a positive
    integer raises ValueError), read from the environment here and nowhere
    else, on every call; a pool worker's is its parent's, which
    _inherit_cap sets.  It bounds R, the n roots, the baby-step table, and
    the p - 1 phases of the expsum table and of the decomposition terms.
    """
    raw = os.environ.get(_CAP_VAR, str(ENUM_CAP_DEFAULT))
    cap = int(raw) if raw.isdecimal() else 0
    if cap < 1:
        raise ValueError(f"{_CAP_VAR} must be a positive integer, got {raw!r}")
    return cap


def _inherit_cap(raw: str | None) -> None:
    """A pool worker's initializer: raw, the parent's setting of _CAP_VAR
    or None where it has none, replaces the worker's own, which under
    forkserver is the server's, fixed when the server started."""
    os.environ.pop(_CAP_VAR, None)
    if raw is not None:
        os.environ[_CAP_VAR] = raw


def _require_enumerable(count: int, what: str) -> None:
    """The one size guard: call it before building a container whose size
    the input sets, so an oversized request fails before it allocates."""
    cap = _enum_cap()
    if count > cap:
        raise NotEnumerated(
            f"{what} would hold {count} entries, above the cap {cap}")


def _require_valid_n(p: int, n: int) -> None:
    if type(n) is not int or n < 1:
        raise BadN(f"n must be a positive int, got {n!r}")
    if n % 2 == 0:
        raise BadN(f"n must be odd, got {n}")
    if (p - 1) % n != 0:
        raise BadN(f"n must divide p - 1 = {p - 1}, got {n}")


def _subgroup_of_order(ctx: PrimeContext, d: int, start: int = 1, *,
                       what: str = "subgroup") -> tuple[int, ...]:
    """start * w**j mod p for j = 0..d-1, w = g**((p-1)/d): the subgroup of
    order d | p - 1 in generator order, or its coset through start."""
    p = ctx.p
    _require_enumerable(d, what)
    return tuple(islice(powers(pow(ctx.g, (p - 1) // d, p), p, start), d))


def roots_of_unity_subgroup(ctx: PrimeContext, n: int) -> tuple[int, ...]:
    """The order-n subgroup of n-th roots of unity mod p."""
    _require_valid_n(ctx.p, n)
    return _subgroup_of_order(ctx, n)


def power_residue_subgroup(ctx: PrimeContext, n: int) -> tuple[int, ...]:
    """The subgroup {x**n : x in F_p^*} of order (p - 1)/n, generated by g**n."""
    _require_valid_n(ctx.p, n)
    return _subgroup_of_order(ctx, (ctx.p - 1) // n)


def is_nth_residue(ctx: PrimeContext, n: int, m: int) -> bool:
    """Order criterion: m is an n-th power residue iff m**((p-1)/n) == 1."""
    _require_valid_n(ctx.p, n)
    m %= ctx.p
    if m == 0:
        raise BadResidue("m must be non-zero mod p")
    return pow(m, (ctx.p - 1) // n, ctx.p) == 1


def _pohlig_hellman_log(ctx: PrimeContext, target: int) -> int:
    """The t in [0, p - 1) with g**t == target mod p, g = ctx.g, by
    Pohlig-Hellman over ctx.factors.

    For each q**e exactly dividing p - 1, t mod q**e is found one base-q
    digit at a time: digit k solves gamma**d == (target * g**-x)**((p-1) /
    q**(k+1)), x = t mod q**k, by baby-step giant-step in the order-q
    subgroup of gamma = g**((p-1)/q).  Its table of isqrt(q - 1) + 1 entries
    is built once per q and serves all e digits; the values mod q**e are
    joined by CRT.  t is checked against pow(g, t, p) before it is returned,
    so a false g or factor list raises InvariantViolation, not a wrong t.

    Loops kept inline: via modmath.powers, giant steps ran slower at 2**33+17.
    """
    p, g = ctx.p, ctx.g
    t, mod = 0, 1
    for q, e in ctx.factors:
        gamma = pow(g, (p - 1) // q, p)
        steps = isqrt(q - 1) + 1
        table: dict[int, int] = {}
        cur = 1
        for j in range(steps):
            table[cur] = j
            cur = cur * gamma % p
        giant = pow(gamma, q - steps, p)
        x, qk = 0, 1
        for _ in range(e):
            cur = pow(target * pow(g, -x, p), (p - 1) // (qk * q), p)
            for i in range(steps):
                j = table.get(cur)
                if j is not None:
                    break
                cur = cur * giant % p
            else:
                raise InvariantViolation(
                    f"no discrete log of {target} to base {g}")
            x += (i * steps + j) * qk
            qk *= q
        t += mod * ((x - t) * pow(mod, -1, qk) % qk)
        mod *= qk
    if pow(g, t, p) != target:
        raise InvariantViolation(
            f"discrete log {t} of {target} to base {g} does not check")
    return t


def principal_nth_root(ctx: PrimeContext, n: int, m: int) -> int:
    """One solution x0 of x**n == m mod p, chosen canonically.

    With m = g**t (t found by Pohlig-Hellman), n divides t and
    x0 = g**(t/n).  The largest baby-step table has isqrt(q - 1) + 1
    entries for the largest prime q | p - 1; a table above the enumeration
    cap is refused before any is built, rather than falling back to
    probabilistic root extraction.
    """
    if not is_nth_residue(ctx, n, m):
        raise NotResidue(f"{m} is not an n-th power residue mod {ctx.p}")
    _require_enumerable(isqrt(ctx.factors[-1][0] - 1) + 1, "baby-step table")
    t = _pohlig_hellman_log(ctx, m % ctx.p)
    if t % n != 0:
        raise InvariantViolation(
            f"log of a residue is not divisible by n = {n} (t = {t})")
    return pow(ctx.g, t // n, ctx.p)


def _root_coset(ctx: PrimeContext, n: int, x0: int) -> set[int]:
    """All n solutions of x**n == x0**n: {x0 * g**((p-1)j/n) : j = 0..n-1}."""
    roots = set(_subgroup_of_order(ctx, n, x0, what="root coset"))
    if len(roots) != n:
        raise InvariantViolation(f"found {len(roots)} roots, expected {n}")
    return roots


def nth_root_solutions(ctx: PrimeContext, n: int, m: int) -> set[int]:
    """All n solutions of x**n == m mod p: {x0 * g**((p-1)j/n) : j = 0..n-1}."""
    return _root_coset(ctx, n, principal_nth_root(ctx, n, m))


@dataclass(frozen=True)
class KResult:
    """k(p, n); its sandwich bounds are derived from p and n when read.

    lower = (p-1)/(2n) and upper_exclusive = (1/2 - 1/(2n)) * p, exact
    rationals.  For n >= 3 the sandwich lower <= k < upper_exclusive is a
    theorem, so construction (dataclasses.replace too) refuses a k outside
    it with InvariantViolation; at n = 1 the upper bound degenerates to 0
    and is not checked.
    """

    p: int
    n: int
    k: int

    def __post_init__(self) -> None:
        p, n, k = self.p, self.n, self.k  # the sandwich times 2n
        if n >= 3 and not p - 1 <= 2 * n * k < (n - 1) * p:
            raise InvariantViolation(
                f"bound violation at (p={p}, n={n}): k = {k}")

    @property
    def lower(self) -> Fraction:
        return chowla_london_bounds(self.p, self.n)[0]

    @property
    def upper_exclusive(self) -> Fraction:
        return chowla_london_bounds(self.p, self.n)[1]


def _bound_cells(p: int, n: int) -> tuple[int, int, int, int]:
    """The numerators and denominators, in lowest terms, of the sandwich
    bounds (p-1)/(2n) and (n-1)p/(2n): integers only, no Fraction."""
    _require_valid_n(p, n)
    lower, upper, den = p - 1, (n - 1) * p, 2 * n
    g, h = gcd(lower, den), gcd(upper, den)
    return lower // g, den // g, upper // h, den // h


def chowla_london_bounds(p: int, n: int) -> tuple[Fraction, Fraction]:
    """Exact rationals ((p-1)/(2n), (1/2 - 1/(2n)) * p); no floating point."""
    lower_num, lower_den, upper_num, upper_den = _bound_cells(p, n)
    return Fraction(lower_num, lower_den), Fraction(upper_num, upper_den)


# Least prime factor of each x below its length, 0 at primes (and at 0 and 1).
# Shared by every compute_k of the process, it only grows, and no result
# depends on it: (x/q)**n * q**n is x**n for any factor q of x.
_LEAST_FACTOR: list[int] = [0, 0]


def _least_factors(size: int) -> list[int]:
    """The shared least-factor table, grown to cover x < size by slice
    assignment over the primes up to isqrt(size - 1) in descending order,
    so the least prime writes last."""
    table = _LEAST_FACTOR
    old = len(table)
    if old >= size:
        return table
    table.extend(repeat(0, size - old))
    for q in reversed(primes_between(2, isqrt(size - 1))):
        start = max(q * q, -(-old // q) * q)
        table[start:size:q] = [q] * len(range(start, size, q))
    return table


def compute_k(ctx: PrimeContext, n: int) -> KResult:
    """Least k whose signed n-th powers cover every n-th power residue.

    Scans x = 1, 2, ... and marks the folded residue min(r, p - r) of
    r = x**n: n is odd, so p - r = (-x)**n, and the n-th power residues
    pair up into |R|/2 folded values, |R| = (p - 1)/n.  The scan stops at
    the exact covering index, the first x at which all |R|/2 are marked.
    x -> x**n is multiplicative, so a composite x with least prime factor
    q may take r = (x/q)**n * q**n mod p from stored powers; the scan runs
    in three regimes.  Below 2|R| every r is stored, and only x = 1 and
    a prime x take a modular exponentiation.  From 2|R| up to stop, the
    largest power of two <= 4|R|, a composite x still finds both factors
    stored (q <= x/q <= x/2 < 2|R|) and nothing more is stored; a prime x
    takes an exponentiation.  From stop on every x takes one.  The shared
    least-factor table is grown to stop, and never past it, before the
    scan starts.  Memory is O(|R|), with |R| within the enumeration
    cap: at most 2|R| stored powers, a table of at most 4|R| entries (for
    the largest |R| scanned in the process), and marks in a bytearray of
    (p + 1)/2 <= 16|R| + 1 bytes when n <= 32, in a dict of at most |R|/2
    keys otherwise.  The KResult refuses a k outside the sandwich.
    """
    p = ctx.p
    _require_valid_n(p, n)
    size = (p - 1) // n
    _require_enumerable(size, "residue subgroup")
    keep = 2 * size
    stop = 1 << ((4 * size).bit_length() - 1)
    h = p // 2
    marks = bytearray(h + 1) if n <= 32 else defaultdict(int)
    unmarked = size // 2
    least = _least_factors(stop)
    stored = [0]
    for x in range(1, keep):
        q = least[x]
        r = stored[x // q] * stored[q] % p if q else pow(x, n, p)
        stored.append(r)
        if r > h:
            r = p - r
        if not marks[r]:
            marks[r] = 1
            unmarked -= 1
            if not unmarked:
                break
    if unmarked:
        for x in range(keep, stop):
            q = least[x]
            r = stored[x // q] * stored[q] % p if q else pow(x, n, p)
            if r > h:
                r = p - r
            if not marks[r]:
                marks[r] = 1
                unmarked -= 1
                if not unmarked:
                    break
    while unmarked:
        x += 1
        r = pow(x, n, p)
        if r > h:
            r = p - r
        if not marks[r]:
            marks[r] = 1
            unmarked -= 1
    return KResult(p=p, n=n, k=x)
