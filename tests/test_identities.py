"""Exact identities of k(p, n), checked against compute_k and the sweep.

Write h = (p - 1)/2 and mu_2n for the subgroup of order 2n of F_p^*.
- Coset form: k(p, n) is the largest, over the cosets of mu_2n, of the
  least x in [1, h] in the coset.  Two x share a coset exactly when their
  2n-th powers agree, which is the scan's stopping rule without folding.
- Monotone in n: if n | n', each coset of mu_2n' is a union of cosets of
  mu_2n, so k(p, n') <= k(p, n).
- Closed forms: |R| = 2 gives k = 1; |R| = 4 means p = 5 (mod 8), where 2
  is a non-residue, so k = 2.
"""

import random
from collections import Counter
from itertools import accumulate, repeat

from oracles import odd_divisors
from powres import PrimeContext, SweepConfig, compute_k, run_sweep


def primes_below(limit):
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for q in range(2, int(limit**0.5) + 1):
        if sieve[q]:
            sieve[q * q::q] = bytes(len(range(q * q, limit, q)))
    return [p for p in range(limit) if sieve[p]]


def primitive_root(p):
    """The least generator of F_p^*, by trial division of p - 1."""
    m, qs, q = p - 1, [], 2
    while q * q <= m:
        if m % q == 0:
            qs.append(q)
            while m % q == 0:
                m //= q
        q += 1
    qs += [m] if m > 1 else []
    return next(g for g in range(2, p)
                if all(pow(g, (p - 1) // q, p) != 1 for q in qs))


def coset_form_k(walk, n):
    """k from the walk [g**j mod p for j in range(p - 1)] by the coset
    form.  x = g**j lies in the coset j mod c of mu_2n, c = (p - 1)/(2n).
    -1 is in mu_2n, so each coset is closed under x -> p - x and its least
    element is its least x in [1, h]."""
    c = len(walk) // (2 * n)
    return max(map(min, (walk[i::c] for i in range(c))))


def test_coset_form_matches_compute_k():
    primes = random.Random(16).sample(
        [p for p in primes_below(10**5) if p >= 5], 40)
    cases = 0
    for p in primes:
        g = primitive_root(p)
        walk = list(accumulate(repeat(g, p - 2), lambda x, _: x * g % p,
                               initial=1))
        ctx = PrimeContext(p)
        for n in range(3, p, 2):
            if (p - 1) % n == 0:
                k = coset_form_k(walk, n)
                assert k <= (p - 1) // 2
                assert compute_k(ctx, n).k == k, (p, n)
                cases += 1
    assert cases > 200


def test_k_is_monotone_along_divisor_chains():
    pairs = 0
    for p in primes_below(3000)[2:]:
        ctx = PrimeContext(p)
        ks = {n: compute_k(ctx, n).k for n in odd_divisors(p - 1)}
        for n, k in ks.items():
            for n2, k2 in ks.items():
                if n2 % n == 0:
                    assert k2 <= k, (p, n, n2)
                    pairs += n2 != n
    assert pairs > 3000


def test_two_and_four_residues_fix_k():
    # Under the growth policy |R| is the 2-power part of p - 1: 2 exactly
    # when p = 3 (mod 4), 4 exactly when p = 5 (mod 8).
    records = run_sweep(SweepConfig(p_min=5, p_max=3 * 10**5, n_min=1,
                                     n_policy="largest_odd_divisor"))
    primes = primes_below(3 * 10**5)[2:]
    assert [rec.p for rec in records] == primes
    checked = Counter()
    for rec in records:
        size = (rec.p - 1) // rec.n
        if size in (2, 4):
            assert rec.k == size // 2, (rec.p, rec.n)
            checked[size] += 1
    assert checked == Counter({2: sum(p % 4 == 3 for p in primes),
                               4: sum(p % 8 == 5 for p in primes)})
