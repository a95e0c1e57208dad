"""Output checks for the powres benchmark; independent of powres itself.

Every operation is checked on every seed against invariants recomputed here
with the standard library: the exact case list of a sweep window, the exact
Chowla-London bounds and the sandwich for n >= 3, k as the least covering
index, x**n == m for each of the n roots, |reconstruction - exact_count| <
1e-6 and the Parseval relative residual.  On the default seed each
operation's exact integers must also match reference.json, taken at the
commit that defined the benchmark, and its floats must agree within
FLOAT_REL_TOL.

Each function returns a list of error strings; an empty list means correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from fractions import Fraction

from workloads import QueryOp, SweepOp, odd_divisors, prime_factors, primes_in

# Floats differ between correct kernels only by rounding (a Gauss-period
# subgroup sum agrees with the direct sum to about 2e-12), so they are
# compared within this relative tolerance, never byte for byte.
FLOAT_REL_TOL = 1e-9
PARSEVAL_REL_TOL = 1e-9
RECONSTRUCTION_TOL = 1e-6


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= FLOAT_REL_TOL * max(1.0, abs(a), abs(b))


def least_cover(p: int, n: int) -> int:
    """k(p, n) by counting distinct +-x**n until all (p-1)/n residues appear.

    Marks come in pairs {r, p - r}, so r is new exactly when p - r is.
    """
    size = (p - 1) // n
    seen = bytearray(p)
    count = x = 0
    while count < size:
        x += 1
        r = pow(x, n, p)
        if not seen[r]:
            seen[r] = seen[p - r] = 1
            count += 2
    return x


def _bounds_errors(p: int, n: int, k: int, lower: Fraction,
                   upper: Fraction) -> list[str]:
    errors = []
    want_lower = Fraction(p - 1, 2 * n)
    want_upper = Fraction((n - 1) * p, 2 * n)
    if (lower, upper) != (want_lower, want_upper):
        errors.append(f"({p},{n}) bounds [{lower}, {upper}) != "
                      f"[{want_lower}, {want_upper})")
    if n >= 3 and not want_lower <= k < want_upper:
        errors.append(f"({p},{n}) k={k} breaks the sandwich")
    if k != least_cover(p, n):
        errors.append(f"({p},{n}) k={k} is not the least covering index")
    return errors


def _parseval_floor(p: int, n: int) -> float:
    """Parseval: the mean of |S(a)|**2 over a != 0 is (p*n - n*n)/(p - 1)."""
    return math.sqrt((p * n - n * n) / (p - 1))


def expected_cases(op: SweepOp, sweep: dict) -> list[tuple[int, int]]:
    """The (p, n) pairs a sweep over op's window must produce, sorted."""
    cases = []
    for p in primes_in(op.p_min, op.p_max):
        ns = odd_divisors(p - 1)
        if sweep["n_policy"] == "largest_odd_divisor":
            ns = ns[-1:]
        ns = [n for n in ns if n >= 3]
        epsilon = sweep.get("epsilon", 0.0)
        if epsilon > 0.0:
            ns = [n for n in ns if n > p**epsilon]
        cases.extend((p, n) for n in ns)
    return cases


def sweep_errors(op: SweepOp, sweep: dict, records: list,
                 csv_path: str) -> list[str]:
    got = [(r.p, r.n) for r in records]
    want = expected_cases(op, sweep)
    if got != want:
        return [f"window {op.p_min}..{op.p_max}: {len(got)} cases, "
                f"expected {len(want)}"]
    errors = []
    for r in records:
        if r.k is None:
            errors.append(f"({r.p},{r.n}) skipped: {r.skip_reason}")
            continue
        errors += _bounds_errors(r.p, r.n, r.k, r.lower, r.upper_exclusive)
        if not _close(r.normalized, r.k * 2 * r.n / (r.p - 1)):
            errors.append(f"({r.p},{r.n}) normalized={r.normalized}")
        if not sweep["with_expsums"]:
            if r.max_expsum_ratio is not None:
                errors.append(f"({r.p},{r.n}) expsum ratio without expsums")
            continue
        ratio = r.max_expsum_ratio
        if ratio is None or not (
                _parseval_floor(r.p, r.n) / r.n * (1 - FLOAT_REL_TOL)
                <= ratio < 1.0):
            errors.append(f"({r.p},{r.n}) max|S|/|H| = {ratio}")
        elif not _close(r.delta_emp, -math.log(ratio) / (3 * math.log(r.p))):
            errors.append(f"({r.p},{r.n}) delta_emp = {r.delta_emp}")
    with open(csv_path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    if [(int(row[0]), int(row[1]), int(row[2])) for row in rows] != \
            [(r.p, r.n, r.k) for r in records]:
        errors.append(f"{csv_path} does not hold the returned records")
    return errors


def _subgroup_generator(p: int, n: int) -> int:
    """An element of order exactly n in F_p^* (n | p - 1)."""
    for y in range(2, p):
        w = pow(y, (p - 1) // n, p)
        if all(pow(w, n // q, p) != 1 for q in prime_factors(n)):
            return w
    raise ValueError(f"no element of order {n} mod {p}")


def _compute_errors(p: int, n: int, out: dict) -> list[str]:
    if (out["p"], out["n"]) != (p, n):
        return [f"compute answered for ({out['p']},{out['n']})"]
    errors = _bounds_errors(p, n, out["k"],
                            Fraction(out["lower_num"], out["lower_den"]),
                            Fraction(out["upper_num"], out["upper_den"]))
    if out["sandwich"] != "pass":
        errors.append(f"({p},{n}) sandwich reported {out['sandwich']}")
    return errors


def _expsum_errors(p: int, n: int, out: dict) -> list[str]:
    errors = []
    top = out["max_magnitude"]
    if out["subgroup_order"] != n:
        errors.append(f"expsum ({p},{n}) |H| = {out['subgroup_order']}")
    if out["parseval_residual"] > PARSEVAL_REL_TOL * p * n:
        errors.append(f"expsum ({p},{n}) Parseval residual "
                      f"{out['parseval_residual']}")
    if not _parseval_floor(p, n) * (1 - FLOAT_REL_TOL) <= top < n:
        errors.append(f"expsum ({p},{n}) max|S| = {top} out of range")
    if not _close(out["max_ratio"], top / n):
        errors.append(f"expsum ({p},{n}) max_ratio = {out['max_ratio']}")
    if not _close(out["delta_emp"], -math.log(top / n) / (3 * math.log(p))):
        errors.append(f"expsum ({p},{n}) delta_emp = {out['delta_emp']}")
    a, w = out["argmax_a"], _subgroup_generator(p, n)
    angles, h = [], 1
    for _ in range(n):
        angles.append(2 * math.pi * (a * h % p) / p)
        h = h * w % p
    at_a = abs(complex(math.fsum(map(math.cos, angles)),
                       math.fsum(map(math.sin, angles))))
    if not _close(at_a, top):
        errors.append(f"expsum ({p},{n}) |S({a})| = {at_a}, reported {top}")
    return errors


def _decompose_errors(p: int, n: int, m: int, K: int, out: dict) -> list[str]:
    errors = []
    powers = (pow(x, n, p) for x in range(1, K + 1))
    exact = sum((r == m) + (p - r == m) for r in powers)
    if (out["m"], out["K"], out["exact_count"]) != (m, K, exact):
        errors.append(f"decompose ({p},{n},{m},{K}) exact_count "
                      f"{out['exact_count']} != {exact}")
    if abs(out["reconstruction"] - exact) >= RECONSTRUCTION_TOL:
        errors.append(f"decompose ({p},{n},{m},{K}) reconstruction "
                      f"{out['reconstruction']}")
    if not _close(out["main_term"], 2 * K * n / p):
        errors.append(f"decompose ({p},{n},{m},{K}) main term "
                      f"{out['main_term']}")
    return errors


def _roots_errors(p: int, n: int, m: int, out: dict) -> list[str]:
    roots, h = out["roots"], out["h_generator"]
    if len(set(roots)) != n or any(pow(x, n, p) != m for x in roots):
        return [f"roots ({p},{n},{m}): not {n} distinct solutions"]
    errors = []
    if out["x0"] not in roots:
        errors.append(f"roots ({p},{n},{m}): x0 {out['x0']} not a root")
    if h != pow(out["g"], (p - 1) // n, p) or any(
            pow(h, n // q, p) == 1 for q in prime_factors(n)) or \
            pow(h, n, p) != 1:
        errors.append(f"roots ({p},{n},{m}): h = {h} is not of order {n}")
    return errors


def query_errors(op: QueryOp, rc: int, stdout: str) -> list[str]:
    if rc != 0:
        return [f"{' '.join(op.argv)}: exit code {rc}"]
    kind, *args = op.argv[:-1]
    out = json.loads(stdout)
    nums = [int(a) for a in args]
    if kind == "compute":
        return _compute_errors(*nums, out)
    if kind == "expsum":
        return _expsum_errors(*nums, out)
    if kind == "decompose":
        return _decompose_errors(*nums, out)
    return _roots_errors(*nums, out)


def fingerprint(op, output) -> list:
    """[digest of the exact integers, floats] of one operation's output."""
    if isinstance(op, SweepOp):
        ints = [[r.p, r.n, r.k, r.lower.numerator, r.lower.denominator,
                 r.upper_exclusive.numerator, r.upper_exclusive.denominator]
                for r in output]
        floats = [math.fsum(getattr(r, f) or 0.0 for r in output)
                  for f in ("normalized", "max_expsum_ratio", "delta_emp")]
    else:
        out = json.loads(output[1])
        kind = op.argv[0]
        int_keys, float_keys = {
            "compute": (("k", "lower_num", "lower_den", "upper_num",
                         "upper_den"), ()),
            "expsum": (("subgroup_order",),
                       ("max_magnitude", "max_ratio", "delta_emp")),
            "decompose": (("m", "K", "exact_count"),
                          ("main_term", "error_term", "reconstruction")),
            "roots": (("roots", "x0", "g", "h_generator"), ()),
        }[kind]
        ints = [out[key] for key in int_keys]
        floats = [out[key] for key in float_keys]
    blob = json.dumps([op.key(), ints]).encode()
    return [hashlib.sha256(blob).hexdigest()[:16], floats]


def reference_errors(op, output, want: list) -> list[str]:
    digest, floats = fingerprint(op, output)
    if digest != want[0]:
        return [f"{op.key()}: exact outputs differ from the reference"]
    if len(floats) != len(want[1]) or not all(
            _close(a, b) for a, b in zip(floats, want[1])):
        return [f"{op.key()}: floats {floats} differ from {want[1]}"]
    return []
