"""Multiplicative subgroups, n-th roots, and the covering number k(p, n).

k(p, n) is the least k such that the n-th powers of +-1, +-2, ..., +-k hit
every non-zero n-th power residue mod p.  Throughout, n must be a positive
odd divisor of p - 1: oddness makes (-x)**n = -(x**n), which is what lets a
single magnitude x cover a symmetric pair of residues.

compute_k finds k(p, 3) on the lattice of cube roots of unity mod p, in
exact integers, O(log p) steps and O(1) memory and under no cap; every
other n takes an O(k) scan, which checks the cap itself.
"""

from __future__ import annotations

import os
from collections import defaultdict
from itertools import islice, repeat
from math import gcd, isqrt

from .errors import (BadN, BadResidue, InvariantViolation, NotEnumerated,
                     NotResidue)
from .modmath import PrimeContext, powers, primes_between
from .record import Record

# Fraction is read here only by type checkers, which take TYPE_CHECKING as
# true; it is imported where a bound is built, so importing powres does not
# load fractions.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction

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


class KResult(Record):
    """k(p, n); its sandwich bounds are derived from p and n when read.

    lower = (p-1)/(2n) and upper_exclusive = (1/2 - 1/(2n)) * p, exact
    rationals.  For n >= 3 the sandwich lower <= k < upper_exclusive is a
    theorem, and so is k < (q - 1)p/(2q) for q the least prime factor of
    n, since k(p, n) <= k(p, q) when q | n; the two agree at prime n.
    Construction (replace too) refuses a k that breaks either with
    InvariantViolation; at n = 1 the upper bound degenerates to 0 and
    neither is checked.
    """

    def __init__(self, p: int, n: int, k: int) -> None:
        self.__dict__.update(p=p, n=n, k=k)
        if n < 3:
            return
        if not p - 1 <= 2 * n * k < (n - 1) * p:  # the sandwich times 2n
            raise InvariantViolation(
                f"bound violation at (p={p}, n={n}): k = {k}")
        # (q - 1)/(2q) >= 1/3, so only 3k >= p needs q; the bound fails
        # exactly when q <= p/(p - 2k), so no larger divisor is tried, and
        # q = n when none is found restates the sandwich
        if 3 * k >= p:
            q = next((d for d in range(3, min(p // (p - 2 * k), isqrt(n)) + 1,
                                       2) if n % d == 0), n)
            if 2 * q * k >= (q - 1) * p:
                raise InvariantViolation(
                    f"bound violation at (p={p}, n={n}): k = {k} >= "
                    f"(q - 1)p/(2q), q = {q}")

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
    from fractions import Fraction
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


def _triangle_points(p: int, u: tuple[int, int], v: tuple[int, int],
                     low: int):
    """The points (a, b) = i*u + j*v of the lattice with basis u, v, of
    determinant +-p, in the triangle a >= low, b >= low, a + b <= p - low.

    i runs over the rows that the triangle's corners span; each row's
    range of j is cut by the three sides, with exact floor and ceiling
    division.
    """
    (u1, u2), (v1, v2) = u, v
    s = (u1 * v2 - u2 * v1) // p  # +-1
    # (x, y) = i*u + j*v has i = s*(x*v2 - y*v1)/p, j = s*(y*u1 - x*u2)/p
    corners = ((low, low), (p - 2 * low, low), (low, p - 2 * low))
    ii = [s * (x * v2 - y * v1) for x, y in corners]
    jj = [s * (y * u1 - x * u2) for x, y in corners]
    # each side as c*j >= r - d*i: a >= low, b >= low, -(a + b) >= low - p
    sides = ((v1, u1, low), (v2, u2, low), (-v1 - v2, -u1 - u2, low - p))
    for i in range(-(-min(ii) // p), max(ii) // p + 1):
        lo, hi = -(-min(jj) // p), max(jj) // p
        for c, d, r in sides:
            r -= d * i
            if c > 0:
                lo = max(lo, -(-r // c))
            elif c < 0:
                hi = min(hi, r // c)
            elif r > 0:
                hi = lo - 1
        for j in range(lo, hi + 1):
            yield i * u1 + j * v1, i * u2 + j * v2


def _lattice_k3(p: int) -> int:
    """k(p, 3) from the lattice L = {(a, b) : b == w*a mod p} of a primitive
    cube root of unity w, in exact integers and O(1) memory; finding w and
    the reduction take O(log p) steps, the triangle O(1).

    The coset of x in F_p^*/mu_6 is +-{x, xw, xw**2} and xw**2 == -x - xw,
    so k(p, 3) is the largest f(a, b) = min(||a||, ||b||, ||a + b||) over
    L, ||y|| the distance from y to pZ.  Mod p and up to negation, every
    point with f >= V lies in the triangle T_V: a >= V, b >= V,
    a + b <= p - V, where f = min(a, b, p - a - b).  L is reduced by
    Lagrange-Gauss to a basis u, v; V is the best f over the 5 x 5 points
    of basis coefficients nearest h = (p/3, p/3), a deep hole of L; then
    every point of T_V is visited.  V is some point's f, so it only chooses
    where to look: T_V holds every best point.  No g and no factors of
    p - 1 are read.  The shortest vector u of L has u1**2 + u1*u2 + u2**2
    == p, which is checked.

    T_V holds O(1) points, with no cap needed.  L maps to itself under
    (a, b) -> (b, -a - b), and u with its image is a basis of norm form p,
    so |u| <= |v| <= sqrt(2p), while |u|**2 >= 2p/3.  The floored
    coefficients of h lie within 1 of the real ones, so the box holds the
    rounding of h, at most (|u| + |v|)/2 <= sqrt(2p) from h; hence V >=
    p/3 - 2 sqrt(p), and T_V has diameter sqrt(2) (p - 3V) <= 6 sqrt(2p).
    Points of L are |u| apart, so T_V holds at most (12 sqrt(3) + 1)**2 <
    475 of them, over at most 13 rows of _triangle_points.
    """
    e = (p - 1) // 3
    x = 2
    while (w := pow(x, e, p)) == 1:
        x += 1
    u1, u2, v1, v2 = 1, w, 0, p
    nu = 1 + w * w
    while True:  # Lagrange-Gauss: subtract the nearest multiple of u from v
        m = (2 * (u1 * v1 + u2 * v2) + nu) // (2 * nu)
        v1, v2 = v1 - m * u1, v2 - m * u2
        nv = v1 * v1 + v2 * v2
        if nv >= nu:
            break
        u1, u2, v1, v2, nu = v1, v2, u1, u2, nv
    if u1 * u1 + u1 * u2 + u2 * u2 != p:
        raise InvariantViolation(
            f"reduced vector ({u1}, {u2}) of the cube-root lattice mod {p} "
            f"has norm form {u1 * u1 + u1 * u2 + u2 * u2}, not p")
    s = (u1 * v2 - u2 * v1) // p  # +-1, as in _triangle_points
    i0, j0 = s * (v2 - v1) // 3, s * (u1 - u2) // 3  # near (p/3, p/3)
    best = 0
    for i in range(i0 - 2, i0 + 3):
        for j in range(j0 - 2, j0 + 3):
            a, b = i * u1 + j * v1, i * u2 + j * v2
            a, b, c = a % p, b % p, -(a + b) % p
            best = max(best, min(a, p - a, b, p - b, c, p - c))
    return max(min(a, b, p - a - b)
               for a, b in _triangle_points(p, (u1, u2), (v1, v2), best))


def _scan_k(ctx: PrimeContext, n: int) -> int:
    """k(p, n) by scanning x = 1, 2, ... for the first x at which the
    signed n-th powers cover every n-th power residue.

    Marks the folded residue min(r, p - r) of r = x**n: n is odd, so
    p - r = (-x)**n, and the n-th power residues pair up into |R|/2 folded
    values, |R| = (p - 1)/n.  x -> x**n is multiplicative, so a composite x
    with least prime factor q may take r = (x/q)**n * q**n mod p from
    stored powers; the scan runs in three regimes.  Below 2|R| every r is
    stored, and only x = 1 and a prime x take a modular exponentiation.
    From 2|R| up to stop, the largest power of two <= 4|R|, a composite x
    still finds both factors stored (q <= x/q <= x/2 < 2|R|) and nothing
    more is stored; a prime x takes an exponentiation.  From stop on every
    x takes one.  The shared least-factor table is grown to stop, and never
    past it, before the scan starts.  Memory is O(|R|): at most 2|R|
    stored powers, a table of at most 4|R| entries (for the largest |R|
    scanned in the process), and marks in a bytearray of
    (p + 1)/2 <= 16|R| + 1 bytes when n <= 32, in a dict of at most |R|/2
    keys otherwise.  The caller checks n; the scan checks the cap on |R|
    itself, before it allocates anything.
    """
    p = ctx.p
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
    return x


def compute_k(ctx: PrimeContext, n: int) -> KResult:
    """Least k whose signed n-th powers cover every n-th power residue.

    n = 3 takes _lattice_k3, O(log p) steps and O(1) memory, which reads
    neither the cap nor the least-factor table.  Every other n takes _scan_k, the O(k)
    scan with O(|R|) memory, |R| = (p - 1)/n, which refuses an |R| above
    the cap.  The KResult refuses a k outside the sandwich or at or above
    (q - 1)p/(2q), q the least prime factor of n.
    """
    p = ctx.p
    _require_valid_n(p, n)
    return KResult(p=p, n=n, k=_lattice_k3(p) if n == 3 else _scan_k(ctx, n))
