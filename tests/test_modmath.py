import random
from itertools import islice

import pytest

from powres import (MODULUS_CAP, NotPrime, PrimeContext, ScaleLimit,
                    TooSmall, build_prime_context, factorize, is_prime)
from powres.modmath import powers, primes_between


def multiplicative_order(a, p):
    value, order = a % p, 1
    while value != 1:
        value = value * a % p
        order += 1
    return order


def test_is_prime_examples():
    assert not is_prime(1)
    assert is_prime(7919)
    assert not is_prime(7917)  # digit sum 24 -> divisible by 3


def test_is_prime_agrees_with_sieve_to_one_million():
    limit = 10**6
    prime_set = set(primes_between(2, limit - 1))
    for m in range(limit):
        assert is_prime(m) == (m in prime_set), m


def test_is_prime_handles_strong_pseudoprime_candidates():
    # Carmichael numbers and near-misses around the base set
    for m in (561, 1105, 1729, 2465, 2821, 6601, 8911, 3215031751):
        assert not is_prime(m)
    assert is_prime(2**61 - 1)  # Mersenne prime within the cap


def test_primes_between_matches_is_prime():
    windows = [(-5, 100), (0, 1), (1, 2), (2, 2), (2, 30),  # p_min <= 2
               (97, 97), (91, 91), (4, 4), (1, 1),  # p_min = p_max
               (25, 49), (49, 121), (121, 169), (289, 289), (961, 1369),
               (120, 170), (50, 40)]  # prime squares on the edges
    windows += [(lo, lo + w) for lo in range(0, 3000, 97)
                for w in (0, 1, 60, 999)]
    for lo, hi in windows:
        assert primes_between(lo, hi) == \
            [q for q in range(lo, hi + 1) if is_prime(q)], (lo, hi)


def test_factorize_examples():
    assert factorize(1) == []
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(7918) == [(2, 1), (37, 1), (107, 1)]


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)


def reconstruct(factors):
    value = 1
    for q, e in factors:
        value *= q**e
    return value


def test_factorize_round_trips_small_range():
    for m in range(1, 10**5 + 1):
        factors = factorize(m)
        assert reconstruct(factors) == m
        assert factors == sorted(factors)


def test_factorize_round_trips_random_62bit():
    rng = random.Random(62)
    for _ in range(10**3):
        m = rng.randrange(2, MODULUS_CAP)
        factors = factorize(m)
        assert reconstruct(factors) == m
        assert all(is_prime(q) for q, _ in factors)


def test_factorize_is_deterministic_on_hard_semiprimes():
    # both factors above the trial-division bound, so rho must fire
    a, b = 1_000_003, 1_000_033
    assert factorize(a * b) == [(a, 1), (b, 1)]
    assert factorize(a * a) == [(a, 2)]
    # the hardest split the 2**62 cap allows: two 31-bit primes
    assert factorize(2147483647 * 2147483629) == [(2147483629, 1),
                                                  (2147483647, 1)]
    # p - 1 of the prime 108086689020307399: a 54-bit semiprime for rho
    assert factorize(108086689020307398) == [(2, 1), (3, 1), (134217757, 1),
                                             (134218069, 1)]


def test_build_prime_context_examples():
    ctx = build_prime_context(7)
    assert (ctx.p, ctx.factors, ctx.g) == (7, ((2, 1), (3, 1)), 3)
    ctx = build_prime_context(13)
    assert (ctx.p, ctx.factors, ctx.g) == (13, ((2, 2), (3, 1)), 2)
    # the walk of modmath.powers past one full period, against pow
    for base, start in ((ctx.g, 1), (ctx.g, 7), (1, 5), (12, 3)):
        walk = list(islice(powers(base, 13, start), 30))
        assert walk == [start * pow(base, j, 13) % 13 for j in range(30)]


def test_context_stores_p_and_derives_the_rest_when_read():
    assert PrimeContext._fields == ("p",)
    ctx = PrimeContext(13)
    assert ctx.__dict__ == {"p": 13}
    assert ctx.g == 2
    assert ctx.__dict__ == {"p": 13, "factors": ((2, 2), (3, 1)), "g": 2}
    for p in primes_between(5, 20000):
        built, derived = build_prime_context(p), PrimeContext(p)
        assert (derived.factors, derived.g) == (built.factors, built.g), p


def test_build_prime_context_rejections():
    with pytest.raises(NotPrime):
        build_prime_context(9)
    with pytest.raises(TooSmall):
        build_prime_context(3)
    with pytest.raises(ScaleLimit):
        build_prime_context(2**62 + 1)


def test_primitive_root_is_least_and_has_full_order():
    for p in primes_between(5, 2000):
        ctx = build_prime_context(p)
        assert multiplicative_order(ctx.g, p) == p - 1
        for candidate in range(2, ctx.g):
            assert multiplicative_order(candidate, p) < p - 1


def test_primitive_root_factor_quotient_criterion_wide_range():
    for p in primes_between(5, 10**5):
        ctx = build_prime_context(p)
        assert reconstruct(ctx.factors) == p - 1
        assert all(is_prime(q) for q, _ in ctx.factors)
        assert pow(ctx.g, p - 1, p) == 1
        assert all(pow(ctx.g, (p - 1) // q, p) != 1 for q, _ in ctx.factors)
