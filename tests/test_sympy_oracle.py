"""sympy as an independent oracle for factoring, primitive roots, discrete
logs and roots."""

import random

import pytest

from oracles import odd_divisors
from powres import build_prime_context, factorize, nth_root_solutions
from powres.modmath import primes_between
from powres.residues import _pohlig_hellman_log

sympy = pytest.importorskip("sympy")
from sympy.ntheory import (discrete_log, factorint,  # noqa: E402
                           nthroot_mod, primitive_root)

PRIMES = primes_between(5, 3000)


def test_factorize_matches_factorint():
    rng = random.Random(2024)
    values = list(range(1, 3001)) + [rng.randrange(2, 1 << 62)
                                     for _ in range(200)]
    # q**2, q*q' and 2*q around the trial-division bound 2**8
    near_bound = (251, 257, 263, 269)
    values += [q * r for q in near_bound for r in (2,) + near_bound]
    values.append(2**61 - 1)
    for m in values:
        assert factorize(m) == sorted(factorint(m).items()), m


def test_primitive_root_matches_sympy():
    for p in PRIMES:
        assert build_prime_context(p).g == primitive_root(p), p


def test_root_sets_match_nthroot_mod():
    rng = random.Random(7)
    for p in PRIMES:
        ctx = build_prime_context(p)
        for n in odd_divisors(p - 1):
            m = pow(rng.randrange(1, p), n, p)
            expected = set(nthroot_mod(m, n, p, all_roots=True))
            assert nth_root_solutions(ctx, n, m) == expected, (p, n, m)


def test_discrete_log_matches_sympy():
    rng = random.Random(11)
    # every p < 3000, a safe prime, p - 1 = 2**16, 2 * 3 * 7**3 * 487, and
    # 2**61 - 1, whose p - 1 has largest prime factor 1321
    for p in PRIMES + [1073742623, 65537, 1002247, 2**61 - 1]:
        ctx = build_prime_context(p)
        for m in (1, p - 1, rng.randrange(1, p)):
            assert _pohlig_hellman_log(ctx, m) == \
                discrete_log(p, m, ctx.g), (p, m)
