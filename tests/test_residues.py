import random
from collections import defaultdict
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from oracles import brute_force_k, odd_divisors
from powres import (BadN, BadResidue, InvariantViolation, KResult,
                    NotEnumerated, NotResidue, PrimeContext, ScaleLimit,
                    SweepConfig, build_prime_context, chowla_london_bounds,
                    compute_k, is_nth_residue, nth_root_solutions,
                    power_residue_subgroup, principal_nth_root,
                    roots_of_unity_subgroup, run_sweep, write_records)
from powres import residues
from powres.modmath import is_prime, primes_between
from powres.residues import _pohlig_hellman_log, _root_coset

PRIMES_2000 = primes_between(5, 1999)


def powers_scan(p, n):
    """Brute-force n-th power residue set."""
    return {pow(x, n, p) for x in range(1, p)}


def roots_scan(p, n, m):
    """Brute-force root filter for x**n == m mod p."""
    return {x for x in range(1, p) if pow(x, n, p) == m}


case_strategy = st.builds(
    lambda p, seed: (p, random.Random(seed)),
    st.sampled_from(PRIMES_2000), st.integers(0, 2**32))


def test_roots_of_unity_subgroup_examples(ctx7, ctx13):
    H = roots_of_unity_subgroup(ctx13, 3)
    assert len(H) == 3
    assert set(H) == {1, 3, 9}
    assert roots_of_unity_subgroup(ctx7, 1) == (1,)
    with pytest.raises(BadN):
        roots_of_unity_subgroup(ctx13, 6)
    with pytest.raises(BadN):
        roots_of_unity_subgroup(ctx13, 5)  # 5 does not divide 12
    with pytest.raises(BadN):
        roots_of_unity_subgroup(ctx13, -3)
    for n in (True, 3.0):  # a bool or a float is not an int n
        with pytest.raises(BadN):
            roots_of_unity_subgroup(ctx13, n)


def test_power_residue_subgroup_examples(ctx7, ctx11, ctx13):
    R = power_residue_subgroup(ctx13, 3)
    assert len(R) == 4
    assert set(R) == {1, 5, 8, 12}
    assert set(power_residue_subgroup(ctx7, 3)) == {1, 6}
    assert set(power_residue_subgroup(ctx11, 5)) == {1, 10}


def test_enumeration_cap_leaves_elements_unset(ctx13, monkeypatch):
    monkeypatch.setenv("POWRES_ENUM_CAP", "2")
    with pytest.raises(NotEnumerated):
        roots_of_unity_subgroup(ctx13, 3)


@given(case_strategy)
@settings(max_examples=80, deadline=None)
def test_subgroup_closure_and_membership(case):
    p, rng = case
    ctx = build_prime_context(p)
    n = rng.choice(odd_divisors(p - 1))
    for elems, order in ((roots_of_unity_subgroup(ctx, n), n),
                         (power_residue_subgroup(ctx, n), (p - 1) // n)):
        assert len(elems) == order == len(set(elems))
        assert 1 in elems
        sample = rng.sample(elems, min(8, len(elems)))
        for a in sample:
            for b in sample:
                assert a * b % p in set(elems)
    # -1 always lands in the power-residue subgroup: (p-1)/n is even
    assert p - 1 in set(power_residue_subgroup(ctx, n))


def test_power_residue_subgroup_matches_scan():
    for p in (7, 11, 13, 31, 97):
        ctx = build_prime_context(p)
        for n in odd_divisors(p - 1):
            assert set(power_residue_subgroup(ctx, n)) == \
                powers_scan(p, n)


def test_is_nth_residue_examples(ctx13):
    assert is_nth_residue(ctx13, 3, 1)
    assert is_nth_residue(ctx13, 3, 5)  # 7**3 == 5 mod 13
    assert not is_nth_residue(ctx13, 3, 2)
    with pytest.raises(BadResidue):
        is_nth_residue(ctx13, 3, 0)
    with pytest.raises(BadN):
        is_nth_residue(ctx13, 4, 3)


def test_nth_root_solutions_examples(ctx13):
    assert nth_root_solutions(ctx13, 3, 8) == {2, 5, 6}
    assert nth_root_solutions(ctx13, 3, 1) == {1, 3, 9}
    with pytest.raises(NotResidue):
        nth_root_solutions(ctx13, 3, 2)


def test_principal_root_is_canonical(ctx13):
    # m = 1 = g**0, so the principal root is g**0 = 1
    assert principal_nth_root(ctx13, 3, 1) == 1
    x0 = principal_nth_root(ctx13, 3, 8)
    assert pow(x0, 3, 13) == 8


def test_bsgs_cap_rejects_large_moduli(monkeypatch):
    # 23 - 1 = 2 * 11: the order-11 table holds isqrt(10) + 1 = 4 entries
    ctx23 = build_prime_context(23)
    logs = []
    monkeypatch.setattr(residues, "_pohlig_hellman_log",
                        lambda ctx, target: logs.append(target))
    monkeypatch.setenv("POWRES_ENUM_CAP", "3")
    with pytest.raises(ScaleLimit):
        nth_root_solutions(ctx23, 1, 5)
    monkeypatch.setenv("POWRES_ENUM_CAP", "2")
    with pytest.raises(NotEnumerated):
        nth_root_solutions(ctx23, 1, 1)
    assert logs == []  # refused before any table was built


def bsgs_log(p, g, target):
    """Oracle: baby-step giant-step over all of F_p^*, one table of
    isqrt(p - 2) + 1 entries; the t in [0, p - 1) with g**t == target."""
    m = isqrt(p - 2) + 1
    table = {}
    cur = 1
    for j in range(m):
        table[cur] = j
        cur = cur * g % p
    giant = pow(g, p - 1 - m, p)
    cur = target
    for i in range(m):
        j = table.get(cur)
        if j is not None:
            return i * m + j
        cur = cur * giant % p
    raise AssertionError(f"no discrete log of {target} to base {g}")


def test_log_matches_full_group_bsgs_on_every_small_unit():
    for p in primes_between(5, 500):
        ctx = build_prime_context(p)
        for m in range(1, p):
            assert _pohlig_hellman_log(ctx, m) == bsgs_log(p, ctx.g, m), (p, m)


def test_log_matches_full_group_bsgs_on_hard_cases():
    rng = random.Random(14)
    cases = (
        1019, 10007, 1073742623, 1073743739,  # safe primes p = 2q + 1
        65537,  # p - 1 = 2**16: sixteen digits of one base-2 log
        1459, 1002247,  # p - 1 = 2 * 3**6 and 2 * 3 * 7**3 * 487
    )
    for p in cases:
        ctx = build_prime_context(p)
        targets = [1, p - 1, ctx.g, pow(ctx.g, -1, p)]
        targets += [rng.randrange(1, p) for _ in range(20)]
        for m in targets:
            assert _pohlig_hellman_log(ctx, m) == bsgs_log(p, ctx.g, m), (p, m)


def test_log_at_a_mersenne_prime_beyond_full_group_bsgs():
    # 2**61 - 2 = 2 * 3**2 * 5**2 * 7 * 11 * 13 * 31 * 41 * 61 * 151 * 331
    # * 1321: a full-group table would hold 1518500250 entries
    p = 2**61 - 1
    ctx = build_prime_context(p)
    assert ctx.factors[-1] == (1321, 1)
    rng = random.Random(61)
    for _ in range(20):
        m = rng.randrange(1, p)
        t = _pohlig_hellman_log(ctx, m)
        assert 0 <= t < p - 1 and pow(ctx.g, t, p) == m
        s = rng.randrange(p - 1)
        assert _pohlig_hellman_log(ctx, pow(ctx.g, s, p)) == s


def test_log_refuses_an_answer_that_does_not_check():
    # a factor list without 3 gives t mod 4 only: 1 for 6 = 2**5 mod 13
    fake = PrimeContext(13)
    fake.__dict__["factors"] = ((2, 2),)
    assert fake.g == 2
    with pytest.raises(InvariantViolation, match="does not check"):
        _pohlig_hellman_log(fake, 6)


def test_root_count_invariant_fires_on_a_false_primitive_root(ctx13):
    # 12 has order 2 mod 13, so its powers give 1 root where 3 are due
    fake = PrimeContext(13)
    fake.__dict__["g"] = 12
    with pytest.raises(InvariantViolation, match="found 1 roots, expected 3"):
        _root_coset(fake, 3, 1)


def test_root_sets_match_scan_exhaustively_small():
    for p in primes_between(5, 199):
        ctx = build_prime_context(p)
        for n in odd_divisors(p - 1):
            for m in powers_scan(p, n):
                roots = nth_root_solutions(ctx, n, m)
                assert len(roots) == n
                assert all(pow(x, n, p) == m for x in roots)
                assert roots == roots_scan(p, n, m)


@given(case_strategy)
@settings(max_examples=60, deadline=None)
def test_root_sets_match_scan_sampled(case):
    p, rng = case
    ctx = build_prime_context(p)
    n = rng.choice(odd_divisors(p - 1))
    m = pow(rng.randrange(1, p), n, p)
    roots = nth_root_solutions(ctx, n, m)
    assert len(roots) == n
    assert roots == roots_scan(p, n, m)


def test_compute_k_examples(ctx7, ctx11, ctx13):
    assert compute_k(ctx7, 3).k == 1
    assert compute_k(ctx13, 3).k == 2
    assert compute_k(ctx11, 5).k == 1


def test_compute_k_n1_is_half_group(ctx13):
    result = compute_k(ctx13, 1)
    assert result.k == 6
    for p in (17, 101, 499):
        assert compute_k(build_prime_context(p), 1).k == (p - 1) // 2


def test_compute_k_cap(ctx13, monkeypatch, tmp_path):
    monkeypatch.setenv("POWRES_ENUM_CAP", "3")
    with pytest.raises(ScaleLimit):
        compute_k(build_prime_context(31), 5)  # |R| = 6
    # k(p, 3) allocates nothing, so no cap refuses it
    cubes = SweepConfig(p_min=5, p_max=3000, n_policy="fixed_n", fixed_n=3)
    monkeypatch.delenv("POWRES_ENUM_CAP")
    write_records(run_sweep(cubes), str(tmp_path / "uncapped.jsonl"), "jsonl")
    monkeypatch.setenv("POWRES_ENUM_CAP", "1")
    assert compute_k(ctx13, 3).k == 2
    records = run_sweep(cubes)
    assert records and all(rec.k is not None for rec in records)
    write_records(records, str(tmp_path / "capped.jsonl"), "jsonl")
    assert (tmp_path / "capped.jsonl").read_bytes() == \
        (tmp_path / "uncapped.jsonl").read_bytes()


def test_brute_force_k_examples(ctx7, ctx13):
    assert brute_force_k(ctx7, 3) == 1
    assert brute_force_k(ctx13, 3) == 2
    assert brute_force_k(ctx13, 1) == 6
    with pytest.raises(BadN):
        brute_force_k(ctx13, 4)


def test_oracle_equivalence_small_range():
    for p in primes_between(5, 299):
        ctx = build_prime_context(p)
        for n in odd_divisors(p - 1):
            assert compute_k(ctx, n).k == brute_force_k(ctx, n), (p, n)


def k_by_direct_scan(p, n):
    """k(p, n) by the direct set scan: add x**n and p - x**n, x = 1, 2, ...,
    until the set holds all (p - 1)/n residues."""
    size = (p - 1) // n
    covered = set()
    x = 0
    while len(covered) < size:
        x += 1
        r = pow(x, n, p)
        covered.add(r)
        covered.add(p - r)
    return x


def test_compute_k_matches_direct_scan_on_every_odd_n():
    for p in primes_between(300, 3000):
        ctx = build_prime_context(p)
        for n in odd_divisors(p - 1):
            assert compute_k(ctx, n).k == k_by_direct_scan(p, n), (p, n)


def test_compute_k_both_mark_containers(monkeypatch):
    sparse = []

    class CountedMarks(defaultdict):
        def __init__(self, default):
            sparse.append(1)
            super().__init__(default)

    monkeypatch.setattr(residues, "defaultdict", CountedMarks)
    # n <= 32 marks a bytearray, n > 32 a dict
    for p, n, is_sparse in ((67, 33, True), (199, 33, True), (311, 31, False),
                            (311, 155, True)):
        before = len(sparse)
        assert compute_k(build_prime_context(p), n).k == \
            k_by_direct_scan(p, n), (p, n)
        assert len(sparse) - before == is_sparse, (p, n)


def test_compute_k_past_the_stored_powers():
    # k >= 2|R|: the scan runs on beyond the stored powers
    for p, n in ((233, 29), (241, 15), (487, 9)):
        k = compute_k(build_prime_context(p), n).k
        assert k >= 2 * (p - 1) // n
        assert k == k_by_direct_scan(p, n), (p, n)


# (p, n) with k in each regime of the scan that compute_k runs at n != 3:
# below 2|R|, in [2|R|, stop) with stop the largest power of two <= 4|R|,
# and from stop on
SCAN_REGIME_CASES = (
    ((13, 3), (311, 31), (10009, 3)),
    ((233, 29), (241, 15), (487, 9)),
    ((701, 25), (883, 63), (1021, 17), (1399, 233), (1621, 45)),
)


def _scan_stop(p, n):
    return 1 << ((4 * (p - 1) // n).bit_length() - 1)


@pytest.mark.parametrize("regime", range(3))
def test_compute_k_in_each_scan_regime(monkeypatch, regime):
    for p, n in SCAN_REGIME_CASES[regime]:
        monkeypatch.setattr(residues, "_LEAST_FACTOR", [0, 0])
        k = residues._scan_k(build_prime_context(p), n)
        assert k == k_by_direct_scan(p, n), (p, n)
        size, stop = (p - 1) // n, _scan_stop(p, n)
        assert stop & (stop - 1) == 0 and 2 * size < stop <= 4 * size
        assert [k < 2 * size, 2 * size <= k < stop, stop <= k] == \
            [i == regime for i in range(3)], (p, n, k)
        assert len(residues._LEAST_FACTOR) <= stop, (p, n)


def test_compute_k_takes_pow_only_at_primes_below_stop(monkeypatch):
    # x = 1 and each prime x below stop take one pow, as does every x from
    # stop on; a composite below stop reads the stored powers
    calls = []

    def counted(*args):
        calls.append(args)
        return pow(*args)

    monkeypatch.setattr(residues, "pow", counted, raising=False)
    for cases in SCAN_REGIME_CASES:
        for p, n in cases:
            monkeypatch.setattr(residues, "_LEAST_FACTOR", [0, 0])
            ctx = build_prime_context(p)
            calls.clear()
            k = residues._scan_k(ctx, n)
            stop = _scan_stop(p, n)
            expected = (1 + len(primes_between(2, min(k, stop - 1)))
                        + max(0, k - stop + 1))
            assert len(calls) == expected, (p, n, k)


def test_compute_k_from_a_reset_table(monkeypatch):
    monkeypatch.setattr(residues, "_LEAST_FACTOR", [0, 0])
    p, n = 100003, 7
    assert compute_k(build_prime_context(p), n).k == k_by_direct_scan(p, n)
    size = len(residues._LEAST_FACTOR)
    assert size & (size - 1) == 0 and size <= 4 * (p - 1) // n


def test_compute_k_large_cases():
    for p, n in ((1000003, 3), (100003, 7), (1999891, 1215)):
        assert compute_k(build_prime_context(p), n).k == \
            k_by_direct_scan(p, n), (p, n)


PRIMES_1_MOD_3 = [p for p in primes_between(7, 3 * 10**4) if p % 3 == 1]


def test_lattice_k3_matches_the_scan():
    # the scan is the oracle of the n = 3 path on every p = 1 (mod 3) here
    for p in PRIMES_1_MOD_3:
        ctx = build_prime_context(p)
        assert compute_k(ctx, 3).k == residues._scan_k(ctx, 3), p


def test_lattice_k3_reads_no_factors_no_g_and_no_table(monkeypatch):
    monkeypatch.setattr(residues, "_LEAST_FACTOR", [0, 0])
    # 12582853 has |R| = 4194284, the largest n = 3 case the default cap
    # allows; its k is the scan's, which is too slow to rerun here
    for p, k in ((7, 1), (13, 2), (10009, 3282), (12582853, 4192546)):
        ctx = PrimeContext(p)
        assert compute_k(ctx, 3).k == k, p
        assert "factors" not in ctx.__dict__ and "g" not in ctx.__dict__, p
    assert residues._LEAST_FACTOR == [0, 0]


def test_lattice_k3_gap_lies_in_the_measured_band():
    # A conjecture, checked on this finite range only: p/3 - k(p, 3) lies
    # between sqrt(p)/3 and 2 sqrt(p)/3, so p <= (p - 3k)**2 <= 4p.  Here
    # (p - 3k)/sqrt(p) spans [1.009, 1.99998].
    lo, hi = 2.0, 1.0
    for p in PRIMES_1_MOD_3:
        if p >= 100:
            gap = p - 3 * residues._lattice_k3(p)
            assert p <= gap * gap <= 4 * p, p
            lo, hi = min(lo, gap / p**0.5), max(hi, gap / p**0.5)
    assert 1.0 < lo < 1.01 and 1.999 < hi < 2.0


def test_lattice_k3_visits_a_bounded_triangle_up_to_2_62(monkeypatch):
    # The _lattice_k3 docstring proves that T_V holds fewer than 475
    # points whatever p.  A conjecture, checked on these seeded samples
    # only: it holds exactly the 3-orbit of the best point, and
    # p <= (p - 3k)**2 <= 4p, as in the band test above.
    rng = random.Random(20191)
    real = residues._triangle_points
    counts = []

    def counted(*args):
        points = list(real(*args))
        counts.append(len(points))
        return iter(points)
    monkeypatch.setattr(residues, "_triangle_points", counted)
    for lo in (10**9, 10**12, 10**15, 10**18, 2**61):
        for _ in range(200):
            p = rng.randrange(lo // 6 * 6 + 1, min(2 * lo, 2**62), 6)
            while not is_prime(p):
                p += 6
            gap = p - 3 * residues._lattice_k3(p)
            assert p <= gap * gap <= 4 * p, p
            assert counts.pop() == 3, p


def test_triangle_points_match_a_scan_of_the_triangle():
    # every lattice point of a >= V, b >= V, a + b <= p - V, sides
    # included, for p <= 241 under three bases of one lattice: (1, w),
    # (0, p), the two swapped (determinant -p) and a skewed one, u - v and
    # 3v - 2u.  The sides matter here, though not to k: each best point's
    # orbit under (a, b) -> (b, p - a - b) meets T_V off any one side.
    for p in PRIMES_1_MOD_3[:25]:
        w = next(y for x in range(2, p)
                 if (y := pow(x, (p - 1) // 3, p)) != 1)
        u, v = (1, w), (0, p)
        bases = ((u, v), (v, u), ((1, w - p), (-2, 3 * p - 2 * w)))
        for low in range(1, p // 3 + 1):
            inside = {(a, w * a % p) for a in range(low, p - 2 * low + 1)
                      if low <= w * a % p <= p - low - a}
            for basis in bases:
                found = list(residues._triangle_points(p, *basis, low))
                assert sorted(found) == sorted(inside), (p, basis, low)


def test_least_factor_table_matches_trial_division(monkeypatch):
    def least_factor(x):
        q = 2
        while q * q <= x:
            if x % q == 0:
                return q
            q += 1
        return 0

    expected = [least_factor(x) for x in range(1 << 12)]
    for steps in ((1 << 12,), (5, 100, 1 << 12)):
        monkeypatch.setattr(residues, "_LEAST_FACTOR", [0, 0])
        for size in steps:
            table = residues._least_factors(size)
        assert table[:1 << 12] == expected, steps


def test_chowla_london_bounds_examples():
    assert chowla_london_bounds(13, 3) == (Fraction(2), Fraction(13, 3))
    assert chowla_london_bounds(7, 3) == (Fraction(1), Fraction(7, 3))
    # n = 1 degenerates the upper bound; kept out of the verification suite
    assert chowla_london_bounds(7, 1) == (Fraction(3), Fraction(0))
    for n in (4, True, 3.0):
        with pytest.raises(BadN):
            chowla_london_bounds(13, n)


def test_bounds_are_exact_rationals():
    lower, upper = chowla_london_bounds(101, 5)
    assert lower == Fraction(100, 10) == 10
    assert upper == Fraction(2, 5) * 101


def test_sandwich_holds_for_all_small_cases():
    for p in primes_between(5, 499):
        ctx = build_prime_context(p)
        for n in odd_divisors(p - 1):
            result = compute_k(ctx, n)
            assert 1 <= result.k <= (p - 1) // 2
            if n >= 3:
                assert result.lower <= result.k < result.upper_exclusive


def test_kresult_refuses_a_k_outside_the_sandwich():
    # (p, n) = (13, 3): 2 <= k < 13/3
    def build(k, n=3):
        return KResult(p=13, n=n, k=k)

    for k in (1, 5):
        with pytest.raises(InvariantViolation, match="bound violation"):
            build(k)
    for k in (2, 3, 4):
        assert build(k).k == k
    # n = 1: the upper bound degenerates to 0 and is not checked
    assert build(6, n=1).k == 6
    assert build(6, n=1).upper_exclusive == 0


def least_prime_factor(n):
    return next(d for d in range(2, n + 1) if n % d == 0)


def test_kresult_refuses_k_at_the_least_factor_bound():
    # every sweep case below 2 * 10**4 keeps k < (q - 1)p/(2q), q the least
    # prime factor of n; for composite n, that bound's first k is refused
    # although the sandwich at n allows it, and the k before it is kept
    records = run_sweep(SweepConfig(p_min=5, p_max=2 * 10**4))
    refused = 0
    for rec in records:
        p, n, k = rec.p, rec.n, rec.k
        q = least_prime_factor(n)
        assert 2 * q * k < (q - 1) * p, (p, n, k)
        first = -(-(q - 1) * p // (2 * q))
        if q < n:
            assert 2 * n * first < (n - 1) * p
            with pytest.raises(InvariantViolation, match=f"q = {q}$"):
                KResult(p=p, n=n, k=first)
            assert KResult(p=p, n=n, k=first - 1).k == first - 1
            refused += 1
    assert len(records) > 10**4 and refused > 5000


@given(case_strategy)
@settings(max_examples=40, deadline=None)
def test_signed_power_multisets_mirror(case):
    p, rng = case
    ctx = build_prime_context(p)
    n = rng.choice(odd_divisors(p - 1))
    k = compute_k(ctx, n).k
    negatives = sorted(pow(p - x, n, p) for x in range(1, k + 1))
    mirrored = sorted(p - pow(x, n, p) for x in range(1, k + 1))
    assert negatives == mirrored


def test_cover_index_keys_satisfy_residue_criterion(ctx13):
    subgroup = power_residue_subgroup(ctx13, 3)
    for m in subgroup:
        assert pow(m, (13 - 1) // 3, 13) == 1
