"""Naive oracles that the tests check the package against.

Each one recomputes its quantity from the definition and shares no code
with the path it checks: the covering number by rescanning every prefix,
a subgroup sum term by term, and odd divisors by trial division.  Import
them as `from oracles import ...`; pytest puts this directory on sys.path.
"""

from math import cos, fsum, pi, sin

from powres import InvariantViolation
from powres.residues import _require_valid_n


def brute_force_k(ctx, n: int) -> int:
    """Definitional oracle for k(p, n): naive, no shared state with compute_k.

    For each candidate k the set {x**n mod p : 1 <= |x| <= k} is rebuilt
    from scratch and compared against the full residue set.  Quadratic by
    design; intended for p < 10**5.
    """
    _require_valid_n(ctx.p, n)
    p = ctx.p
    target = {pow(x, n, p) for x in range(1, p)}
    for k in range(1, (p - 1) // 2 + 1):
        hit = {pow(x, n, p) for x in range(1, k + 1)}
        hit |= {pow(p - x, n, p) for x in range(1, k + 1)}
        if len(hit) == len(target):
            return k
    raise InvariantViolation("k = (p-1)/2 did not cover the residue set")


def subgroup_expsum(p: int, H: tuple[int, ...], a: int) -> complex:
    """S(a, H) = sum of e(a*h/p) over the enumerated subgroup H of F_p^*."""
    a %= p
    angles = [2.0 * pi * ((a * h) % p) / p for h in H]
    return complex(fsum(map(cos, angles)), fsum(map(sin, angles)))


def odd_divisors(m: int) -> list[int]:
    """Ascending odd divisors of m >= 1, by trial division up to sqrt(m)."""
    small, large = [], []
    d = 1
    while d * d <= m:
        if m % d == 0:
            small.append(d)
            if d * d != m:
                large.append(m // d)
        d += 1
    return [d for d in small + large[::-1] if d % 2]
