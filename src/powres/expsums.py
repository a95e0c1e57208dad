"""Exponential sums over multiplicative subgroups and interval kernels.

S(a, H) = sum_{h in H} e(a*h/p) with e(x) = exp(2*pi*i*x).  S is constant on
cosets a*H (reindexing h -> h'*h), so a profile stores one value per coset.
With a = g**i and H = <g**m>, m = (p-1)/|H|, the products a*h are g**(i+m*t)
and S(g**i, H) is the Gauss period sum_t E[i + m*t] of the table
E[j] = e(g**j/p).  Since -1 = g**((p-1)/2), E[j + (p-1)/2] = conj(E[j]), so
the table keeps only its first half: (p-1)/2 phase evaluations per prime,
shared by every n, instead of the O(p*|H|) full scan.

Every phase is reduced exactly in integer arithmetic before its single
trigonometric evaluation: g**j mod p is read off modmath.powers, the walk
that also lists decomposition frequencies, so no angle recurrence can
drift.  Coset sums are not all correctly rounded.  When d = |H| is odd
and d*d <= p, the d table entries of a coset are added plainly, row by
row; recursive summation of d terms errs by at most (d-1)*2**-53 times
the sum of their moduli (Jeannerod and Rump, 2013), so each component of
such a sum carries at most d*(d-1)*2**-53 < p*2**-53 of rounding: below
5e-10 for every p <= 2**22, the default cap, beside the 1e-9 relative
tolerance of the benchmark's reference values.  Every other coset sum,
where d rows would be many and short, goes through math.fsum.
"""

from __future__ import annotations

import math
from array import array
from functools import cached_property
from itertools import cycle, islice, repeat
from math import cos, fsum, pi, sin
from operator import add, indexOf, mul, sub, truediv

from .errors import BadN, BadRadius, InvariantViolation, ZeroFrequency
from .modmath import PrimeContext, powers
from .record import Record
from .residues import _require_enumerable, _root_coset, principal_nth_root


def _check_radius(p: int, K: int) -> None:
    if type(K) is not int or K < 1 or K > (p - 1) // 2:
        raise BadRadius(f"K must be an integer in [1, {(p - 1) // 2}], got {K}")


class PhaseTable(Record):
    """cos and sin of 2*pi*r/p for r = g**j mod p, j = 0..(p-1)/2 - 1.

    The second half of the table is the conjugate of the first, since
    g**(j + (p-1)/2) = -g**j; one table serves the profile of every
    subgroup of F_p^*.
    """

    def __init__(self, p: int, g: int, cos: array, sin: array) -> None:
        self.__dict__.update(p=p, g=g, cos=cos, sin=sin)


# Entries of the phase table built, and cosets of a row-summed profile
# accumulated, per C-level pass: enough to amortise each pass, few enough
# that the pass's intermediate lists stay small beside the table.
_BLOCK = 4096


def phase_table(ctx: PrimeContext) -> PhaseTable:
    """Build the half table of e(g**j/p), r = g**j read off modmath.powers.

    The walk is read in blocks of _BLOCK residues, each mapped to its
    angles (2.0*pi*r)/p, rounded as that expression is for a single r,
    and then to their cos and sin; no entry depends on the block size.
    An entry errs only by the two roundings of its angle and by libm's
    cos or sin.  The table stands for all p - 1 phases, so p - 1 must fit
    the cap.
    """
    p = ctx.p
    _require_enumerable(p - 1, "phase table")  # before g factors p - 1
    cos_t, sin_t = array("d"), array("d")
    walk = islice(powers(ctx.g, p), (p - 1) // 2)
    while block := list(islice(walk, _BLOCK)):
        angles = list(map(truediv, map(mul, repeat(2.0 * pi), block),
                          repeat(p)))
        cos_t.fromlist(list(map(cos, angles)))
        sin_t.fromlist(list(map(sin, angles)))
    return PhaseTable(p=p, g=ctx.g, cos=cos_t, sin=sin_t)


class ExpSumProfile(Record):
    """Per-coset values of S(a, H); its statistics are derived when read.

    coset_values[i] is S on the coset of g**i, i < (p-1)/|H|, which by coset
    constancy covers every a in F_p^*.  max_magnitude is max |S(a)| over
    a != 0; argmax_a, derived when read, is g**i at its first coset i, so
    for odd |H|, whose cosets of a and -a hold exact conjugates, the lower
    of the pair.  parseval_residual is the absolute defect
    |sum_{a=0}^{p-1} |S(a)|^2 - p*|H||, where the a = 0 term |H|^2 is
    included even though the maximum excludes it.  max_ratio is
    max|S|/|H|, the quantity the covering bounds are stated in.
    """

    def __init__(self, p: int, g: int, subgroup_order: int,
                 coset_values: tuple[complex, ...]) -> None:
        self.__dict__.update(p=p, g=g, subgroup_order=subgroup_order,
                             coset_values=coset_values)

    @cached_property
    def max_magnitude(self) -> float:
        return max(map(abs, self.coset_values))

    @property
    def max_ratio(self) -> float:
        return self.max_magnitude / self.subgroup_order

    @property
    def argmax_a(self) -> int:
        i = indexOf(map(abs, self.coset_values), self.max_magnitude)
        return pow(self.g, i, self.p)

    @property
    def parseval_residual(self) -> float:
        d = self.subgroup_order
        squares = fsum(abs(s) ** 2 for s in self.coset_values)
        return abs(d * squares + float(d * d) - self.p * d)


def expsum_profile(table: PhaseTable, d: int) -> ExpSumProfile:
    """Evaluate S once per coset of the order-d subgroup.

    With m = (p-1)/d and h = (p-1)/2, coset i sums the table slice [i::m]
    plus the conjugate of the slice [(i+h) % m::m].  For odd d that second
    coset is the coset of -g**i, whose value is the exact conjugate, so
    only half the cosets are summed; for even d the two slices coincide
    and S is real.

    For odd d the half table is d rows of length c = m/2, and row r holds
    cosets i + c*(r % 2): the real part of coset i is column i summed over
    all rows, its imaginary part the same column with the odd rows
    subtracted.  When d*d <= p those columns are added plainly, row after
    row over _BLOCK cosets at a time, each component within
    d*(d-1)*2**-53 of the exact sum of its entries (module docstring).
    Otherwise, and for even d, each slice is summed by fsum, correctly
    rounded.
    """
    p, g, cos_t, sin_t = table.p, table.g, table.cos, table.sin
    if type(d) is not int or d < 1 or (p - 1) % d:
        raise BadN(f"d must be an int dividing p - 1 = {p - 1}, got {d!r}")
    m = (p - 1) // d
    c = (p - 1) // 2 % m  # coset of -1: m/2 for odd d, 0 for even d
    sums: list[complex] = [0j] * m
    if c and d * d <= p:
        for lo in range(0, c, _BLOCK):
            hi = min(lo + _BLOCK, c)
            re, im = cos_t[lo:hi], sin_t[lo:hi]
            for r in range(1, d):
                at = r * c
                re = list(map(add, re, cos_t[at + lo:at + hi]))
                im = list(map(sub if r % 2 else add, im,
                              sin_t[at + lo:at + hi]))
            sums[lo:hi] = map(complex, re, im)
            sums[lo + c:hi + c] = map(complex.conjugate, sums[lo:hi])
    else:
        for i in range(c or m):
            j = i + c
            s = complex(fsum(cos_t[i::m]) + fsum(cos_t[j::m]),
                        fsum(sin_t[i::m]) - fsum(sin_t[j::m]))
            sums[i] = s
            if c:
                sums[j] = s.conjugate()
    return ExpSumProfile(p=p, g=g, subgroup_order=d, coset_values=tuple(sums))


def empirical_delta(profile: ExpSumProfile) -> float | None:
    """Exponent -ln(max|S|/|H|) / (3 ln p) read off a measured profile.

    Inverts the shape of the subgroup-sum bound on observed data; a
    diagnostic to report, never an assertion against the non-effective
    constant in the bound itself.  None when |H| = 1, which pins
    max|S|/|H| at 1 and leaves no exponent to read.
    """
    return _delta(profile.max_ratio, profile.p, profile.subgroup_order)


def _delta(max_ratio: float, p: int, d: int) -> float | None:
    """empirical_delta from a profile's max|S|/|H|, p and |H| = d, for a
    profile that is no longer held."""
    if d < 2:
        return None
    return -math.log(max_ratio) / (3.0 * math.log(p))


def _dirichlet(p: int, r: int, K: int) -> float:
    """D(r, K) = sum over 1 <= |x| <= K of e(-r*x/p), real by +-x pairing,
    for 0 <= r < p and a checked K: sin((2K+1)*pi*r/p) / sin(pi*r/p) - 1,
    or 2K at r = 0, with (2K+1)*r reduced mod 2p in integers first."""
    if r == 0:
        return float(2 * K)
    t = (2 * K + 1) * r % (2 * p)
    return sin(pi * t / p) / sin(pi * r / p) - 1.0


def interval_bound(p: int, r: int, K: int) -> float:
    """Provable envelope min(2K, 1/(2*||r/p||) + 1) for |D(r, K)|.

    ||r/p|| = min(r, p - r)/p is the distance from r/p to the nearest
    integer; it controls the incomplete geometric sum away from r = 0.
    """
    _check_radius(p, K)
    r %= p
    if r == 0:
        raise ZeroFrequency("||r/p|| = 0 at r = 0; use the trivial bound 2K")
    dist = min(r, p - r) / p
    return min(2.0 * K, 1.0 / (2.0 * dist) + 1.0)


def harmonic_bound_check(p: int) -> tuple[float, float, bool]:
    """Direct sum of 1/||r/p|| over r = 1..p-1 against 2p(1 + ln((p-1)/2)).

    The left side equals 2p * H_{(p-1)/2} by the r <-> p - r symmetry, so
    the logarithmic majorization must hold for every p >= 5; both sides are
    returned for reporting.
    """
    lhs = fsum(p / min(r, p - r) for r in range(1, p))
    rhs = 2.0 * p * (1.0 + math.log((p - 1) / 2.0))
    return lhs, rhs, lhs <= rhs


class DecompositionResult(Record):
    """Orthogonality split of the root count over 1 <= |x| <= K.

    exact_count is computed independently from the root set; main_term is
    (n/p) * 2K and error_term the r = 1..p-1 frequency sum, so in exact
    arithmetic their sum, reconstruction, equals exact_count.  m is
    reduced mod p.
    """

    def __init__(self, m: int, K: int, exact_count: int, main_term: float,
                 error_term: float) -> None:
        self.__dict__.update(m=m, K=K, exact_count=exact_count,
                             main_term=main_term, error_term=error_term)

    @property
    def reconstruction(self) -> float:
        return self.main_term + self.error_term


def orthogonality_decomposition(ctx: PrimeContext, n: int, m: int,
                                K: int) -> DecompositionResult:
    """Split the interval root count into its main and error terms.

    count = (1/p) * sum_{r=1}^{p} S(r*x0, H) * D(r, K): the r = p term is
    the main term (n/p)*2K.  The rest walks r = x0**-1 * g**j, so r*x0 =
    g**j and S is the profile value of coset j mod (p-1)/n.  The pairing
    r <-> p - r conjugates both factors, so the error sum is real; its
    imaginary residue is checked to be tiny.  p - 1 must fit the
    enumeration cap, checked before root finding builds its table.
    """
    _check_radius(ctx.p, K)
    p = ctx.p
    _require_enumerable(p - 1, "decomposition sum")
    x0 = principal_nth_root(ctx, n, m)
    coset_values = expsum_profile(phase_table(ctx), n).coset_values
    real_parts, imag_parts = [], []
    frequencies = islice(powers(ctx.g, p, pow(x0, -1, p)), p - 1)
    for r, s_val in zip(frequencies, cycle(coset_values)):
        d_val = _dirichlet(p, r, K)
        real_parts.append(s_val.real * d_val)
        imag_parts.append(s_val.imag * d_val)
    error_term = fsum(real_parts) / p
    imag_residue = fsum(imag_parts) / p
    if not abs(imag_residue) < 1e-6:
        raise InvariantViolation(
            f"error sum has imaginary part {imag_residue:.3e}, not ~0")
    main_term = (n / p) * 2.0 * K
    # a root s meets 1 <= |x| <= K as s or as s - p, never both (2K < p)
    exact = sum(1 for s in _root_coset(ctx, n, x0) if s <= K or p - s <= K)
    return DecompositionResult(m=m % p, K=K, exact_count=exact,
                               main_term=main_term, error_term=error_term)
