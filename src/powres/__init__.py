"""Covering numbers of n-th power residues modulo a prime.

Core quantities: for an odd n | p - 1, k(p, n) is the least k such that the
n-th powers of +-1, ..., +-k yield every non-zero n-th power residue mod p.
The package computes k exactly, checks it against the elementary
Chowla-London sandwich, evaluates the subgroup exponential sums that drive
its sublinear growth, and runs batch sweeps that fit the least-squares
slope of ln k against ln p.
"""

from .errors import (BadN, BadRadius, BadResidue, EmptyRange,
                     InvariantViolation, NotEnumerated, NotPrime, NotResidue,
                     PowresError, ScaleLimit, TooSmall, ZeroFrequency)
from .expsums import (DecompositionResult, ExpSumProfile, PhaseTable,
                      empirical_delta, expsum_profile, harmonic_bound_check,
                      interval_bound, orthogonality_decomposition,
                      phase_table)
from .modmath import (MODULUS_CAP, SIEVE_CAP, PrimeContext,
                      build_prime_context, factorize, is_prime)
from .residues import (ENUM_CAP_DEFAULT, KResult, chowla_london_bounds,
                       compute_k, is_nth_residue, nth_root_solutions,
                       power_residue_subgroup, principal_nth_root,
                       roots_of_unity_subgroup)
from .sweep import (CSV_COLUMNS, FitResult, SweepConfig, SweepRecord,
                    enumerate_cases, fit_exponent, read_records, run_case,
                    run_sweep, write_records)

__version__ = "0.1.0"
