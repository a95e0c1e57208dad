"""Invariant checks are explicit raises, so they still fire under python -O.

Each check is reached by breaking one of its inputs in a child interpreter
started with -O, where every plain `assert` is compiled away.
"""

import json
import os
import subprocess
import sys

SCRIPT = r"""
import json
import sys

from powres import (InvariantViolation, PrimeContext, build_prime_context,
                    expsums, orthogonality_decomposition, principal_nth_root,
                    residues, run_case, sweep)

caught = {}


def check(name, call):
    try:
        call()
    except InvariantViolation as exc:
        caught[name] = str(exc)


ctx = build_prime_context(13)

# n | t: a discrete log that n does not divide
real_log = residues._pohlig_hellman_log
residues._pohlig_hellman_log = lambda ctx, target: 1
check("n_divides_t", lambda: principal_nth_root(ctx, 3, 8))
residues._pohlig_hellman_log = real_log

# root count: 12 has order 2 mod 13, so its "n-th roots of unity" collapse
fake = PrimeContext(13)
fake.__dict__["g"] = 12
check("root_count", lambda: residues._root_coset(fake, 3, 1))

# discrete log: 8 is not a power of the false primitive root 12
check("bsgs_log", lambda: principal_nth_root(fake, 3, 8))

# norm form: 5 is not a cube root of unity mod 13, so the shortest vector
# of the lattice (1, 5), (0, 13) does not have u1**2 + u1*u2 + u2**2 = 13
residues.pow = lambda x, e, m: 5
check("norm_form", lambda: residues.compute_k(ctx, 3))
del residues.pow

# least factor: k = 11 at (p, n) = (31, 15) lies inside the sandwich
# [1, 217/15) but reaches 31/3, the bound (q - 1)p/(2q) of q = 3 | 15
check("least_factor", lambda: residues.KResult(p=31, n=15, k=11))

# sandwich: a k below the lower bound (p - 1)/(2n)
real_k = sweep.compute_k
sweep.compute_k = lambda ctx, n, **kw: real_k(ctx, n, **kw).replace(k=0)
check("sandwich", lambda: run_case(13, 3))

# monotone: k(31, 15) = 1 raised to 9, inside its sandwich [1, 217/15)
# but above k(31, 3) = 8, although 3 divides 15
sweep.compute_k = lambda ctx, n, **kw: (
    real_k(ctx, n, **kw).replace(k=9) if n == 15
    else real_k(ctx, n, **kw))
check("monotone", lambda: sweep.run_sweep(sweep.SweepConfig(p_min=31,
                                                            p_max=31)))
sweep.compute_k = real_k

# log k: the fit takes log k of each completed record, and k = 0 has none
check("log_k", lambda: sweep.fit_exponent([
    sweep.SweepRecord(p=13, n=3, k=1), sweep.SweepRecord(p=31, n=3, k=0)]))

# imaginary residue: purely imaginary subgroup sums cannot cancel
real_profile = expsums.expsum_profile
expsums.expsum_profile = lambda table, d: real_profile(table, d).replace(
    coset_values=(1j,) * ((table.p - 1) // d))
check("imaginary_residue", lambda: orthogonality_decomposition(ctx, 3, 8, 6))
expsums.expsum_profile = real_profile

print(json.dumps({"optimize": sys.flags.optimize, "caught": caught}))
"""


def test_invariants_raise_under_python_O():
    proc = subprocess.run([sys.executable, "-O", "-c", SCRIPT],
                          capture_output=True, text=True, env=dict(os.environ))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["optimize"] == 1
    assert sorted(doc["caught"]) == ["bsgs_log", "imaginary_residue",
                                     "least_factor", "log_k", "monotone",
                                     "n_divides_t", "norm_form", "root_count",
                                     "sandwich"]
    assert doc["caught"]["monotone"] == (
        "k not monotone at p=31: k(n=15) = 9 > k(n=3) = 8")
    assert doc["caught"]["norm_form"].endswith("has norm form 19, not p")
    assert doc["caught"]["least_factor"] == (
        "bound violation at (p=31, n=15): k = 11 >= (q - 1)p/(2q), q = 3")
