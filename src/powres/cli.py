"""Command-line surface: one subcommand per operation, human or JSON output.

Exit codes are stable: 0 success, 1 domain error, 2 usage error (including
empty ranges and an --out that cannot be written), 3 scale-cap error; each
package error type names its own in exit_code.  JSON
mode writes the data document to stdout and keeps diagnostics on stderr, so
pipelines never see mixed streams.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import PowresError, ScaleLimit
from .expsums import (empirical_delta, expsum_profile,
                      orthogonality_decomposition, phase_table)
from .modmath import build_prime_context, powers
from .residues import (_require_valid_n, _root_coset, compute_k,
                       principal_nth_root)
from .sweep import (FORMATS, N_POLICIES, SweepConfig, check_destination,
                    exact_fields, fit_exponent, run_sweep, write_records)


def _emit(args, payload: dict, human_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        for line in human_lines:
            print(line)


def cmd_compute(args) -> int:
    ctx = build_prime_context(args.p)
    result = compute_k(ctx, args.n)
    sandwich = "skipped" if args.n == 1 else "pass"
    payload = {**exact_fields(result), "sandwich": sandwich}
    lines = [
        f"k({result.p}, {result.n}) = {result.k}",
        f"bounds: {result.lower} <= k < {result.upper_exclusive}",
        "sandwich: SKIPPED (upper bound degenerates at n = 1)"
        if sandwich == "skipped" else f"sandwich: {sandwich.upper()}",
    ]
    _emit(args, payload, lines)
    return 0


def cmd_roots(args) -> int:
    ctx = build_prime_context(args.p)
    x0 = principal_nth_root(ctx, args.n, args.m)
    roots = sorted(_root_coset(ctx, args.n, x0))
    h_gen = pow(ctx.g, (ctx.p - 1) // args.n, ctx.p)
    m = args.m % ctx.p
    payload = {"p": ctx.p, "n": args.n, "m": m, "roots": roots,
               "x0": x0, "g": ctx.g, "h_generator": h_gen}
    lines = [
        f"solutions of x^{args.n} = {m} (mod {ctx.p}): "
        + "{" + ", ".join(map(str, roots)) + "}",
        f"x0 = {x0}, g = {ctx.g}, subgroup generator = {h_gen}",
    ]
    _emit(args, payload, lines)
    return 0


def cmd_expsum(args) -> int:
    ctx = build_prime_context(args.p)
    _require_valid_n(ctx.p, args.n)
    profile = expsum_profile(phase_table(ctx), args.n)
    delta = empirical_delta(profile)
    payload = {
        "p": profile.p, "n": args.n, "subgroup_order": profile.subgroup_order,
        "max_magnitude": profile.max_magnitude, "max_ratio": profile.max_ratio,
        "argmax_a": profile.argmax_a, "delta_emp": delta,
        "parseval_residual": profile.parseval_residual,
    }
    lines = [
        f"max |S(a)| over a != 0: {profile.max_magnitude:.12g} "
        f"(at a = {profile.argmax_a})",
        f"max |S| / |H| = {profile.max_ratio:.12g}",
        f"delta_emp = {'n/a' if delta is None else format(delta, '.12g')}",
        f"parseval residual = {profile.parseval_residual:.6g}",
    ]
    if args.profile:  # render the cosets only in the form _emit prints
        cosets = zip(powers(ctx.g, ctx.p), profile.coset_values)
        if args.json:
            payload["cosets"] = [{"a": a, "re": s.real, "im": s.imag,
                                  "magnitude": abs(s)} for a, s in cosets]
        else:
            lines.append("cosets:")
            lines.extend(f"  a = {a:>8}  |S| = {abs(s):.12g}"
                         for a, s in cosets)
    _emit(args, payload, lines)
    return 0


def cmd_decompose(args) -> int:
    ctx = build_prime_context(args.p)
    result = orthogonality_decomposition(ctx, args.n, args.m, args.K)
    residual = abs(result.reconstruction - result.exact_count)
    payload = {
        "p": ctx.p, "n": args.n, "m": result.m, "K": result.K,
        "exact_count": result.exact_count, "main_term": result.main_term,
        "error_term": result.error_term,
        "reconstruction": result.reconstruction, "residual": residual,
    }
    lines = [
        f"exact count of roots with |x| <= {result.K}: {result.exact_count}",
        f"main term     = {result.main_term:.12g}",
        f"error term    = {result.error_term:.12g}",
        f"reconstruction = {result.reconstruction:.12g}",
        f"residual      = {residual:.3e}",
    ]
    _emit(args, payload, lines)
    return 0


def cmd_sweep(args) -> int:
    config = SweepConfig(p_min=args.p_min, p_max=args.p_max,
                         n_min=args.n_min, epsilon=args.epsilon,
                         n_policy=args.policy, fixed_n=args.fixed_n,
                         with_expsums=args.with_expsums, workers=args.workers)
    try:
        check_destination(args.out)
    except OSError as exc:
        raise ValueError(f"cannot write --out {args.out}: {exc.strerror}")
    records = run_sweep(config)
    try:
        write_records(records, args.out, args.format)
    except OSError as exc:
        raise ValueError(f"cannot write --out {args.out}: {exc.strerror}")
    completed = [r for r in records if r.k is not None]
    skipped = len(records) - len(completed)
    fit = fit_exponent(records)
    slope, r2 = (None, None) if fit is None else (fit.slope, fit.r_squared)
    norms = [r.normalized for r in completed]
    payload = {
        "cases": len(records), "completed": len(completed),
        "skipped": skipped, "slope": slope, "r_squared": r2,
        "normalized_min": min(norms) if norms else None,
        "normalized_max": max(norms) if norms else None,
        "out": args.out, "format": args.format,
    }
    lines = [
        f"cases: {len(records)} ({skipped} skipped)",
        f"fitted slope of ln k vs ln p: "
        + ("n/a" if slope is None else f"{slope:.4f} (r^2 = {r2:.4f})"),
        f"normalized k*2n/(p-1): "
        + ("n/a" if not norms else f"[{min(norms):.4f}, {max(norms):.4f}]"),
        f"wrote {len(records)} records to {args.out} ({args.format})",
    ]
    if args.with_expsums:
        ratios = [r.max_expsum_ratio for r in completed
                  if r.max_expsum_ratio is not None]
        payload["max_expsum_ratio_min"] = min(ratios) if ratios else None
        payload["max_expsum_ratio_max"] = max(ratios) if ratios else None
        lines.append("max|S|/|H|: " + (
            "n/a" if not ratios
            else f"[{min(ratios):.4f}, {max(ratios):.4f}]"))
    _emit(args, payload, lines)
    return 0


def cmd_verify(args) -> int:
    config = SweepConfig(p_min=5, p_max=args.p_max)
    records = run_sweep(config)
    for r in records:
        if r.k is None:
            raise ScaleLimit(f"case p={r.p} n={r.n} was not checked: "
                             f"{r.skip_reason}")
    # A k outside the sandwich fails in its KResult: InvariantViolation, exit 1.
    payload = {"p_max": args.p_max, "cases": len(records), "ok": True,
               "violations": []}
    _emit(args, payload, [f"all {len(records)} cases pass"])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powres",
        description="Covering numbers of n-th power residues modulo a prime, "
                    "subgroup exponential sums, and batch growth sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, *ints):
        # a subcommand: its int positionals, then --json
        p = sub.add_parser(name, help=summary)
        for arg in ints:
            p.add_argument(arg, type=int)
        p.add_argument("--json", action="store_true",
                       help="emit a JSON document on stdout")
        p.set_defaults(func=func)
        return p

    command("compute", cmd_compute, "compute k(p, n) with bounds", "p", "n")
    command("roots", cmd_roots, "all n solutions of x^n = m mod p",
            "p", "n", "m")
    p_expsum = command("expsum", cmd_expsum,
                       "subgroup exponential-sum maximum and profile",
                       "p", "n")
    p_expsum.add_argument("--profile", action="store_true",
                          help="also dump per-coset magnitudes")
    command("decompose", cmd_decompose,
            "orthogonality split of the root count in |x| <= K",
            "p", "n", "m", "K")

    p_sweep = command("sweep", cmd_sweep, "batch-run cases and persist records")
    p_sweep.add_argument("--p-min", type=int, default=5)
    p_sweep.add_argument("--p-max", type=int, required=True)
    p_sweep.add_argument("--n-min", type=int, default=3)
    p_sweep.add_argument("--epsilon", type=float, default=0.0)
    p_sweep.add_argument("--policy", choices=N_POLICIES,
                         default="all_odd_divisors")
    p_sweep.add_argument("--fixed-n", type=int, default=None)
    p_sweep.add_argument("--with-expsums", action="store_true")
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--format", choices=FORMATS, default="csv")
    p_sweep.add_argument("--workers", type=int, default=1)

    p_verify = command(
        "verify", cmd_verify,
        "check the covering sandwich for every case up to p-max")
    p_verify.add_argument("--p-max", type=int, required=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PowresError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
