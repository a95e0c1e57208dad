import cmath
import math
import random
import tracemalloc
from itertools import islice
from math import fsum

import pytest
from hypothesis import given, settings, strategies as st

from oracles import odd_divisors, subgroup_expsum
from powres import (BadN, BadRadius, NotEnumerated, NotResidue, ScaleLimit,
                    ZeroFrequency, build_prime_context, empirical_delta,
                    expsum_profile, harmonic_bound_check, interval_bound,
                    orthogonality_decomposition, phase_table,
                    power_residue_subgroup, roots_of_unity_subgroup)
from powres.expsums import _dirichlet
from powres.modmath import powers, primes_between
from powres.residues import _subgroup_of_order

PRIMES_SMALL = primes_between(5, 499)


def all_divisors(m):
    return [d for d in range(1, m + 1) if m % d == 0]


def direct_interval_sum(p, r, K):
    """Term-by-term oracle for D(r, K), via raw complex exponentials."""
    terms = [cmath.exp(-2j * math.pi * r * x / p)
             for x in range(-K, K + 1) if x != 0]
    return complex(fsum(t.real for t in terms), fsum(t.imag for t in terms))


def test_expsum_at_zero_is_order(ctx13):
    H = roots_of_unity_subgroup(ctx13, 3)
    assert abs(subgroup_expsum(13, H, 0) - 3) < 1e-12


def test_expsum_full_group_is_minus_one(ctx13):
    full = power_residue_subgroup(ctx13, 1)
    for a in range(1, 13):
        assert abs(subgroup_expsum(13, full, a) - (-1)) < 1e-9


def test_expsum_two_term_value(ctx13):
    # {1, p-1} at a = 1: e(1/13) + e(12/13) = 2 cos(2 pi / 13),
    # frozen from a 40-digit evaluation
    H2 = _subgroup_of_order(ctx13, 2)
    value = subgroup_expsum(13, H2, 1)
    assert abs(value.real - 1.7709120513064198) < 1e-13
    assert abs(value.imag) < 1e-13


def test_expsum_requires_enumeration(ctx13, monkeypatch):
    monkeypatch.setenv("POWRES_ENUM_CAP", "1")
    with pytest.raises(NotEnumerated):
        roots_of_unity_subgroup(ctx13, 3)


def test_phase_terms_have_unit_modulus(ctx13):
    H = roots_of_unity_subgroup(ctx13, 3)
    for h in H:
        assert abs(abs(cmath.exp(2j * math.pi * h / 13)) - 1.0) < 1e-12


def test_profile_examples(ctx7, ctx13):
    assert abs(expsum_profile(phase_table(ctx7), 1).max_magnitude
               - 1.0) < 1e-12
    assert abs(expsum_profile(phase_table(ctx13), 12).max_magnitude
               - 1.0) < 1e-9
    H = roots_of_unity_subgroup(ctx13, 3)
    profile = expsum_profile(phase_table(ctx13), 3)
    assert len(profile.coset_values) == 4
    # oracle: direct evaluation over every a = 1..12
    direct_max = max(abs(subgroup_expsum(13, H, a)) for a in range(1, 13))
    assert abs(profile.max_magnitude - direct_max) < 1e-12


TABLE_PRIMES = (7, 13, 31, 97, 101, 257, 1009)


def test_phase_table_profile_matches_direct_sums():
    for p in TABLE_PRIMES:
        ctx = build_prime_context(p)
        table = phase_table(ctx)
        assert len(table.cos) == len(table.sin) == (p - 1) // 2
        for j in range((p - 1) // 2):
            angle = 2.0 * math.pi * pow(ctx.g, j, p) / p
            assert table.cos[j] == math.cos(angle), (p, j)
            assert table.sin[j] == math.sin(angle), (p, j)
        for d in all_divisors(p - 1):
            H = _subgroup_of_order(ctx, d)
            assert H == tuple(pow(ctx.g, j * (p - 1) // d, p)
                              for j in range(d))
            profile = expsum_profile(table, d)
            values = profile.coset_values
            assert len(values) == (p - 1) // d
            assert all(type(s) is complex for s in values), (p, d)
            first = [abs(s) for s in values].index(profile.max_magnitude)
            assert profile.argmax_a == pow(ctx.g, first, p)
            for a, s in zip(powers(ctx.g, p), values):
                assert abs(s - subgroup_expsum(p, H, a)) < 1e-10 * d, (p, d, a)


def test_phase_table_conjugate_cosets_are_exact():
    for p in TABLE_PRIMES:
        table = phase_table(build_prime_context(p))
        h = (p - 1) // 2
        for d in all_divisors(p - 1):
            profile = expsum_profile(table, d)
            values = profile.coset_values
            m = len(values)
            if d % 2:
                # coset (i + h) % m holds -g**i: S(-a) = conj(S(a)) exactly
                for i in range(m):
                    assert values[(i + h) % m] == values[i].conjugate()
                # argmax_a is the first maximum, the lower coset of its pair
                first = min(i for i in range(m)
                            if abs(values[i]) == profile.max_magnitude)
                assert profile.argmax_a == pow(table.g, first, p)
            else:
                assert all(s.imag == 0.0 for s in values), (p, d)


def test_profile_holds_one_complex_per_coset():
    # about 48 B per coset: one tuple slot and one complex
    p = 100003
    table = phase_table(build_prime_context(p))
    tracemalloc.start()
    try:
        profile = expsum_profile(table, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(profile.coset_values) == (p - 1) // 3
    assert peak < 64 * (p - 1) // 3, peak


ROWS_P = 100003  # p - 1 = 2 * 3 * 7 * 2381


def fsum_profile(table, d):
    """Oracle for an odd d: every coset summed by fsum from its d entries
    of the full table E[j] = e(g**j/p), read off the half table."""
    p, h = table.p, (table.p - 1) // 2
    m = (p - 1) // d

    def entry(j):
        if j < h:
            return table.cos[j], table.sin[j]
        return table.cos[j - h], -table.sin[j - h]

    values = []
    for i in range(m):
        terms = [entry(i + m * t) for t in range(d)]
        values.append(complex(fsum(x for x, _ in terms),
                              fsum(y for _, y in terms)))
    return values


def test_row_summed_profiles_match_fsum_and_direct_sums():
    # d = 3 and d = 7 have c = m/2 = 16667 and 7143 cosets per row, more
    # than one block of the row sums; d = 21 has 2381, less than one
    p = ROWS_P
    ctx = build_prime_context(p)
    table = phase_table(ctx)
    rng = random.Random(5)
    for d in (3, 7, 21):
        assert d * d <= p
        profile = expsum_profile(table, d)
        values = profile.coset_values
        m = (p - 1) // d
        c = m // 2
        assert len(values) == m
        # the rows path's d*(d-1)*2**-53 per component, plus at most
        # 2**-53 * d for the rounding of the oracle's own fsum
        bound = d * d * 2.0**-53
        for s, ref in zip(values, fsum_profile(table, d)):
            assert abs(s.real - ref.real) <= bound, (d, s, ref)
            assert abs(s.imag - ref.imag) <= bound, (d, s, ref)
        for i in range(c):
            assert values[i + c] == values[i].conjugate(), (d, i)
        H = _subgroup_of_order(ctx, d)
        reps = list(islice(powers(ctx.g, p), m))
        for i in rng.sample(range(m), 40) + [0, c - 1, c, m - 1]:
            direct = subgroup_expsum(p, H, reps[i])
            assert abs(values[i] - direct) < 1e-10 * d, (d, i)
        direct_max = max(abs(subgroup_expsum(p, H, a)) for a in reps)
        assert abs(profile.max_magnitude - direct_max) < 1e-10 * d, d


def test_phase_table_is_built_in_blocks():
    # about 25 B per entry: the two arrays and one block of the walk;
    # whole-table lists of the walk and its angles took 121
    p = ROWS_P
    ctx = build_prime_context(p)
    ctx.g  # the search for g is not the table's
    tracemalloc.start()
    try:
        table = phase_table(ctx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    entries = (p - 1) // 2
    assert len(table.cos) == len(table.sin) == entries
    assert peak < 32 * entries, peak / entries


def test_phase_table_cap_and_bad_order(ctx13, monkeypatch):
    monkeypatch.setenv("POWRES_ENUM_CAP", "12")
    assert len(phase_table(ctx13).cos) == 6
    monkeypatch.setenv("POWRES_ENUM_CAP", "11")
    with pytest.raises(NotEnumerated):
        phase_table(ctx13)
    monkeypatch.delenv("POWRES_ENUM_CAP")
    table = phase_table(ctx13)
    for d in (0, 5, 24, True, 3.0):
        with pytest.raises(BadN):
            expsum_profile(table, d)


def test_profile_covers_every_unit_value(ctx13):
    H = roots_of_unity_subgroup(ctx13, 3)
    profile = expsum_profile(phase_table(ctx13), 3)
    by_coset = {}
    for a, s in zip(powers(ctx13.g, 13), profile.coset_values):
        for h in H:
            by_coset[a * h % 13] = s
    assert set(by_coset) == set(range(1, 13))
    for a in range(1, 13):
        assert abs(by_coset[a] - subgroup_expsum(13, H, a)) < 1e-10


def test_parseval_small_primes():
    for p in (13, 31, 101):
        table = phase_table(build_prime_context(p))
        for d in all_divisors(p - 1):
            profile = expsum_profile(table, d)
            assert profile.parseval_residual / (p * d) < 1e-8, (p, d)


def test_coset_constancy():
    rng = random.Random(7)
    for p in (13, 101, 257):
        ctx = build_prime_context(p)
        for d in (2,) + tuple(odd_divisors(p - 1)[1:]):
            if (p - 1) % d:
                continue
            H = _subgroup_of_order(ctx, d)
            for _ in range(5):
                a = rng.randrange(1, p)
                h = rng.choice(H)
                assert abs(subgroup_expsum(p, H, a)
                           - subgroup_expsum(p, H, a * h % p)) < 1e-10


def test_conjugate_symmetry():
    for p in (13, 97):
        ctx = build_prime_context(p)
        for d in all_divisors(p - 1):
            H = _subgroup_of_order(ctx, d)
            for a in range(1, p):
                s = subgroup_expsum(p, H, a)
                s_neg = subgroup_expsum(p, H, p - a)
                assert abs(s_neg - s.conjugate()) < 1e-10
                if p - 1 in H:
                    assert abs(abs(s_neg) - abs(s)) < 1e-10


def test_strict_subtriviality_all_proper_subgroups():
    for p in primes_between(5, 101):
        table = phase_table(build_prime_context(p))
        for d in all_divisors(p - 1):
            if d < 2 or d > p - 2:
                continue
            profile = expsum_profile(table, d)
            assert profile.max_magnitude <= d
            assert profile.max_magnitude / d < 1.0, (p, d)


def test_empirical_delta_formula(ctx13):
    profile = expsum_profile(phase_table(ctx13), 3)
    delta = empirical_delta(profile)
    assert delta > 0
    expected = -math.log(profile.max_magnitude / 3) / (3 * math.log(13))
    assert abs(delta - expected) < 1e-15
    assert profile.max_ratio == profile.max_magnitude / 3
    assert empirical_delta(expsum_profile(
        phase_table(build_prime_context(7)), 1)) is None


def test_empirical_delta_synthetic_inversion():
    # ratio = p**(-3*delta) must invert back to delta
    from powres import ExpSumProfile
    p, d = 1009, 7
    for delta in (0.0, 0.1, 0.25):
        value = complex(d * p**(-3 * delta))
        profile = ExpSumProfile(p=p, g=11, subgroup_order=d,
                                coset_values=(value,))
        assert abs(empirical_delta(profile) - delta) < 1e-12


def test_interval_expsum_examples():
    assert _dirichlet(13, 0, 3) == complex(6, 0)
    for r in range(1, 13):
        assert abs(_dirichlet(13, r, 6) - (-1)) < 1e-10
    expected = math.sin(7 * math.pi / 13) / math.sin(math.pi / 13) - 1
    value = _dirichlet(13, 1, 3)
    assert abs(value.real - expected) < 1e-12
    assert value.imag == 0.0


def test_interval_expsum_radius_validation(ctx13):
    # the kernel's callers check K, before any other work
    for K in (0, 7, True, 3.0):
        with pytest.raises(BadRadius):
            interval_bound(13, 1, K)
        with pytest.raises(BadRadius):
            orthogonality_decomposition(ctx13, 3, 8, K)


@given(st.sampled_from(primes_between(5, 997)),
       st.data())
@settings(max_examples=60, deadline=None)
def test_interval_closed_form_matches_direct(p, data):
    r = data.draw(st.integers(0, p - 1))
    K = data.draw(st.sampled_from(
        sorted({1, min(int(p**0.7), (p - 1) // 2), (p - 1) // 2})))
    value = _dirichlet(p, r, K)
    direct = direct_interval_sum(p, r, K)
    assert abs(value - direct) < 1e-9


def test_interval_bound_examples():
    assert interval_bound(13, 1, 1) == 2.0  # 2K branch
    assert abs(interval_bound(13, 6, 6) - 25 / 12) < 1e-15
    with pytest.raises(ZeroFrequency):
        interval_bound(13, 13, 3)
    with pytest.raises(ZeroFrequency):
        interval_bound(13, 0, 3)


def test_interval_bound_envelopes_kernel():
    for p in (13, 97):
        for K in (1, 3, (p - 1) // 2):
            for r in range(1, p):
                assert abs(_dirichlet(p, r, K)) <= \
                    interval_bound(p, r, K) + 1e-12


def test_harmonic_bound_examples():
    lhs, rhs, ok = harmonic_bound_check(5)
    assert abs(lhs - 15.0) < 1e-9
    assert abs(rhs - 10 * (1 + math.log(2))) < 1e-12
    assert ok
    lhs, rhs, ok = harmonic_bound_check(7)
    assert abs(lhs - 2 * (7 + 7 / 2 + 7 / 3)) < 1e-9
    assert abs(rhs - 14 * (1 + math.log(3))) < 1e-12
    assert ok


def test_harmonic_terms_symmetric():
    p = 101
    for r in range(1, p):
        assert min(r, p - r) == min(p - r, r)
        assert abs(p / min(r, p - r) - p / min(p - r, r)) == 0.0


def exact_count(ctx, n, m, K):
    return orthogonality_decomposition(ctx, n, m, K).exact_count


def test_count_solutions_examples(ctx13):
    assert exact_count(ctx13, 3, 8, 2) == 1
    assert exact_count(ctx13, 3, 8, 6) == 3
    assert exact_count(ctx13, 3, 1, 6) == 3
    with pytest.raises(NotResidue):
        exact_count(ctx13, 3, 2, 3)
    with pytest.raises(BadRadius):
        exact_count(ctx13, 3, 8, 0)


def test_count_matches_signed_scan():
    rng = random.Random(99)
    for _ in range(30):
        p = rng.choice(PRIMES_SMALL)
        ctx = build_prime_context(p)
        n = rng.choice(odd_divisors(p - 1))
        m = pow(rng.randrange(1, p), n, p)
        K = rng.randrange(1, (p - 1) // 2 + 1)
        direct = sum(1 for x in range(-K, K + 1)
                     if x != 0 and pow(x % p, n, p) == m)
        assert exact_count(ctx, n, m, K) == direct


def test_decomposition_examples(ctx13):
    result = orthogonality_decomposition(ctx13, 3, 8, 6)
    assert result.exact_count == 3
    assert abs(result.main_term - 36 / 13) < 1e-12
    assert abs(result.reconstruction - 3) < 1e-6
    result = orthogonality_decomposition(ctx13, 3, 8, 2)
    assert result.exact_count == 1
    assert abs(result.reconstruction - 1) < 1e-6


def test_decomposition_full_interval_counts_all_roots():
    for p, n in ((13, 3), (31, 5), (101, 25)):
        ctx = build_prime_context(p)
        m = pow(3, n, p)
        result = orthogonality_decomposition(ctx, n, m, (p - 1) // 2)
        assert result.exact_count == n
        assert abs(result.reconstruction - n) < 1e-6


def test_decomposition_respects_caps(ctx13, monkeypatch):
    monkeypatch.setenv("POWRES_ENUM_CAP", "2")
    with pytest.raises(ScaleLimit):
        orthogonality_decomposition(ctx13, 3, 8, 6)
