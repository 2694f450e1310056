"""Command line front end: `qcat <command> ... [--format csv|json]`.

Commands map one-to-one onto library calls and print either plot-ready CSV
rows or a JSON envelope {command, params, rows, schema_version}.  Output is
deterministic: identical invocations produce byte-identical bytes.  Numbers
are exact where the library is exact (integers in full, rationals as "p/q"
strings); floats are printed to 12 significant digits.  Integers beyond
2^53 are JSON-encoded as decimal strings so consumers that parse JSON
numbers as doubles cannot silently lose digits.

Exit codes: 0 success, 2 usage or validation error, 3 domain error (the
requested quotient is not a polynomial, or a value left float range).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from typing import Any, Sequence, TextIO

from .exactnum import bernoulli_table
from .limitlaw import (
    GecoParams,
    catalan_geco_params,
    condition_ratio,
    exact_standardized_mgf,
    ks_distance_to_normal,
    log_mgf_truncated,
    mcatalan_geco_params,
    power_sum_diff,
    tail_series,
)
from .moments import QuotientSpec, dist_summary, general_moments_closed, preset
from .polyq import FAMILIES, NotPolynomial, get_family, iter_family, q_catalan, quotient_poly
from .shape import scan_family

SCHEMA_VERSION = "1"
INT_AS_STRING_LIMIT = 2 ** 53
# Largest t grid `normality` accepts: 4001 points, i.e. --grid-step >= 0.001.
GRID_MAX_POINTS = 4001

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3


class UsageError(ValueError):
    """Bad arguments detected after argparse: exit code 2."""


def _fmt_float(x: float) -> str:
    return f"{x:.12g}"


def _json_value(v: Any) -> Any:
    if v is None or isinstance(v, (str, bool)):
        return v
    if isinstance(v, int):
        return str(v) if abs(v) >= INT_AS_STRING_LIMIT else v
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, float):
        return float(_fmt_float(v))
    raise TypeError(f"cannot encode {type(v)!r}")


def _csv_cell(v: Any) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return _fmt_float(v)
    return str(v)


def _emit(
    command: str,
    params: dict[str, Any],
    columns: Sequence[str],
    rows: Sequence[dict[str, Any]],
    fmt: str,
    out: TextIO,
) -> None:
    if fmt == "json":
        envelope = {
            "command": command,
            "params": {k: _json_value(v) for k, v in params.items()},
            "rows": [
                {col: _json_value(row.get(col)) for col in columns} for row in rows
            ],
            "schema_version": SCHEMA_VERSION,
        }
        out.write(json.dumps(envelope, indent=2))
        out.write("\n")
    else:
        out.write(",".join(columns) + "\n")
        for row in rows:
            out.write(",".join(_csv_cell(row.get(col)) for col in columns) + "\n")


def _check_m(family: str, m: int | None) -> None:
    """Reject --m for a family without it; the library checks the rest."""
    if m is not None and not FAMILIES[family].takes_m:
        takers = "/".join(name for name, f in FAMILIES.items() if f.takes_m)
        raise UsageError(f"--m only applies to --family {takers}, not {family!r}")


def _cmd_coeffs(args: argparse.Namespace, out: TextIO) -> int:
    _check_m(args.family, args.m)
    p = get_family(args.family, args.m).build(args.n, args.m)
    rows = [{"k": k, "coeff": c} for k, c in enumerate(p.coeffs)]
    params = {"family": args.family, "n": args.n, "m": args.m}
    _emit("coeffs", params, ["k", "coeff"], rows, args.format, out)
    return EXIT_OK


def _cmd_moments(args: argparse.Namespace, out: TextIO) -> int:
    if not 1 <= args.n_from <= args.n_to:
        raise UsageError(f"need 1 <= --n-from <= --n-to, got {args.n_from}..{args.n_to}")
    _check_m(args.family, args.m)
    rows = []
    members = iter_family(args.family, args.n_from, args.n_to, args.m)
    for n, p in zip(range(args.n_from, args.n_to + 1), members):
        s = dist_summary(p)
        if n == 1:  # every family is the constant 1, which has no exponent lists
            c_mean, c_var = Fraction(0), Fraction(0)
        else:
            c_mean, c_var = general_moments_closed(preset(args.family, n, args.m))
        rows.append(
            {
                "n": n,
                "degree": s.degree,
                "mass": s.mass,
                "mean": s.mean,
                "variance": s.variance,
                "closed_mean": c_mean,
                "closed_variance": c_var,
                "match": s.mean == c_mean and s.variance == c_var,
            }
        )
    params = {
        "family": args.family,
        "n_from": args.n_from,
        "n_to": args.n_to,
        "m": args.m,
    }
    columns = [
        "n", "degree", "mass", "mean", "variance",
        "closed_mean", "closed_variance", "match",
    ]
    _emit("moments", params, columns, rows, args.format, out)
    return EXIT_OK


def _t_grid_half(step: float) -> int:
    """Grid points on each side of t = 0 for --grid-step, checked against
    GRID_MAX_POINTS before anything is allocated."""
    if not (math.isfinite(step) and step > 0):
        raise UsageError(f"--grid-step must be a positive finite number, got {step}")
    half = 2.0 / step + 1e-9
    if half >= GRID_MAX_POINTS // 2 + 1:
        raise UsageError(
            f"--grid-step {step} would need more than {GRID_MAX_POINTS} t points; "
            f"use a step of at least {2.0 / (GRID_MAX_POINTS // 2)}"
        )
    return int(half)


def _t_grid(step: float) -> list[float]:
    count = _t_grid_half(step)
    return [round(i * step, 12) for i in range(-count, count + 1)]


def _cmd_normality(args: argparse.Namespace, out: TextIO) -> int:
    if args.n < 2:
        raise UsageError(f"normality needs --n >= 2, got {args.n}")
    if args.K < 2:
        raise UsageError(f"need --K >= 2, got {args.K}")
    grid = _t_grid(args.grid_step)
    p = q_catalan(args.n)
    spec = preset("catalan", args.n)
    table = bernoulli_table(args.K + 10)
    s = dist_summary(p)
    mu, sigma = float(s.mean), s.sigma
    rows: list[dict[str, Any]] = [{"kind": "ks", "ks": ks_distance_to_normal(p)}]
    for t in grid:
        exact = exact_standardized_mgf(p, t)
        drift = mu * t / sigma
        trunc = math.exp(log_mgf_truncated(spec, t, args.K, table) - drift)
        tail = tail_series(args.n, t, args.K, table)
        rows.append(
            {
                "kind": "mgf",
                "t": t,
                "mgf_exact": exact,
                "mgf_normal": math.exp(t * t / 2.0),
                "mgf_truncated": trunc,
                "mgf_residual": abs(exact - trunc),
                "series_k1": tail.leading_term,
                "series_tail": tail.tail_value,
                "tail_delta": tail.truncation_delta,
            }
        )
    for k, c in enumerate(p.coeffs):
        z = (k - mu) / sigma
        rows.append(
            {
                "kind": "density",
                "t": None,
                "k": k,
                "z": z,
                "density": sigma * c / s.mass,
                "normal_density": math.exp(-z * z / 2.0) / math.sqrt(2.0 * math.pi),
            }
        )
    params = {"n": args.n, "K": args.K, "grid_step": args.grid_step}
    columns = [
        "kind", "t", "ks", "mgf_exact", "mgf_normal", "mgf_truncated",
        "mgf_residual", "series_k1", "series_tail", "tail_delta",
        "k", "z", "density", "normal_density",
    ]
    _emit("normality", params, columns, rows, args.format, out)
    return EXIT_OK


def _workers_from_env() -> int:
    raw = os.environ.get("QCAT_THREADS", "1")
    try:
        w = int(raw)
    except ValueError:
        raise UsageError(f"QCAT_THREADS must be an integer, got {raw!r}") from None
    return max(1, w)


def _cmd_shape(args: argparse.Namespace, out: TextIO) -> int:
    _check_m(args.family, args.m)
    reports = scan_family(
        args.family, args.n_from, args.n_to, m=args.m, workers=_workers_from_env()
    )
    rows = [
        {
            "n": r.n,
            "degree": r.degree,
            "interior_unimodal": r.interior_unimodal,
            "first_unimodality_violation": r.first_unimodality_violation,
            "min_logconcave_t": r.min_logconcave_t,
            "first_lc_violation_at_t0": r.first_lc_violation_at_t0,
        }
        for r in reports
    ]
    params = {
        "family": args.family,
        "n_from": args.n_from,
        "n_to": args.n_to,
        "m": args.m,
    }
    columns = [
        "n", "degree", "interior_unimodal", "first_unimodality_violation",
        "min_logconcave_t", "first_lc_violation_at_t0",
    ]
    _emit("shape", params, columns, rows, args.format, out)
    return EXIT_OK


def _parse_int_list(raw: str, flag: str) -> tuple[int, ...]:
    try:
        vals = tuple(int(part) for part in raw.split(","))
    except ValueError:
        raise UsageError(f"{flag} expects comma-separated integers, got {raw!r}") from None
    if not vals:
        raise UsageError(f"{flag} must not be empty")
    return vals


def _general_spec(args: argparse.Namespace) -> tuple[QuotientSpec, int, GecoParams | None]:
    """Resolve the quotient, the size n used in the envelope, and the
    envelope itself (None when no bound applies)."""
    explicit = [args.alpha, args.beta, args.gamma]
    if any(v is not None for v in explicit) and not all(v is not None for v in explicit):
        raise UsageError("--alpha, --beta, --gamma must be given together")
    if args.preset is not None:
        if args.a is not None or args.b is not None:
            raise UsageError("give either --preset or --a/--b, not both")
        if args.n is None:
            raise UsageError("--preset requires --n")
        spec = preset(args.preset, args.n, args.m)
        n = args.n
        if all(v is not None for v in explicit):
            params = GecoParams(args.alpha, args.beta, args.gamma)
        elif FAMILIES[args.preset].takes_m:  # the m-Catalan envelope
            params = mcatalan_geco_params(args.m)
        else:
            params = catalan_geco_params()
        return spec, n, params
    if args.a is None or args.b is None:
        raise UsageError("give --a and --b together, or use --preset")
    spec = QuotientSpec(
        a=_parse_int_list(args.a, "--a"), b=_parse_int_list(args.b, "--b")
    )
    n = len(spec.a) + 1
    params = None
    if all(v is not None for v in explicit):
        params = GecoParams(args.alpha, args.beta, args.gamma)
    return spec, n, params


def _cmd_general(args: argparse.Namespace, out: TextIO) -> int:
    if args.K < 2:
        raise UsageError(f"need --K >= 2, got {args.K}")
    spec, n, geco = _general_spec(args)
    p = quotient_poly(spec)
    c_mean, c_var = general_moments_closed(spec)
    rows: list[dict[str, Any]] = [
        {"kind": "coeff", "k": k, "coeff": c} for k, c in enumerate(p.coeffs)
    ]
    moment_row: dict[str, Any] = {
        "kind": "moment",
        "closed_mean": c_mean,
        "closed_variance": c_var,
    }
    if all(c >= 0 for c in p.coeffs):
        s = dist_summary(p)
        moment_row.update(
            mass=s.mass,
            mean=s.mean,
            variance=s.variance,
            match=s.mean == c_mean and s.variance == c_var,
        )
    rows.append(moment_row)
    if power_sum_diff(spec, 1) > 0:
        for k in range(2, args.K + 1):
            ratio = condition_ratio(spec, k)
            row: dict[str, Any] = {"kind": "ratio", "k": k, "ratio": ratio}
            if geco is not None:
                bound = geco.bound(n, k)
                row["bound"] = bound
                row["ok"] = ratio < bound
            rows.append(row)
    params = {
        "preset": args.preset,
        "n": args.n,
        "m": args.m,
        "a": ",".join(map(str, spec.a)),
        "b": ",".join(map(str, spec.b)),
        "K": args.K,
        "alpha": None if geco is None else geco.alpha,
        "beta": None if geco is None else geco.beta,
        "gamma": None if geco is None else geco.gamma,
    }
    columns = [
        "kind", "k", "coeff", "mass", "mean", "variance", "closed_mean",
        "closed_variance", "match", "ratio", "bound", "ok",
    ]
    _emit("general", params, columns, rows, args.format, out)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcat",
        description="Coefficient polynomials of q-Catalan families: "
        "exact coefficients, moments, normal-limit diagnostics, shape scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--format", choices=("csv", "json"), default="csv")

    sp = sub.add_parser("coeffs", help="coefficients of one family member")
    sp.add_argument("--family", choices=tuple(FAMILIES), required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, default=None)
    add_format(sp)
    sp.set_defaults(func=_cmd_coeffs)

    sp = sub.add_parser("moments", help="exact vs closed-form moments over an n range")
    sp.add_argument("--family", choices=tuple(FAMILIES), required=True)
    sp.add_argument("--n-from", type=int, required=True)
    sp.add_argument("--n-to", type=int, required=True)
    sp.add_argument("--m", type=int, default=None)
    add_format(sp)
    sp.set_defaults(func=_cmd_moments)

    sp = sub.add_parser("normality", help="normal-limit diagnostics for q-Catalan at one n")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--K", type=int, default=30, help="series truncation depth")
    sp.add_argument(
        "--grid-step", type=float, default=0.5,
        help=f"t grid spacing on [-2, 2], at most {GRID_MAX_POINTS} points",
    )
    add_format(sp)
    sp.set_defaults(func=_cmd_normality)

    sp = sub.add_parser("shape", help="unimodality / log-concavity scan over an n range")
    sp.add_argument("--family", choices=tuple(FAMILIES), required=True)
    sp.add_argument("--n-from", type=int, required=True)
    sp.add_argument("--n-to", type=int, required=True)
    sp.add_argument("--m", type=int, default=None)
    add_format(sp)
    sp.set_defaults(func=_cmd_shape)

    sp = sub.add_parser("general", help="arbitrary quotient of binomial products")
    sp.add_argument("--a", default=None, help="comma-separated numerator exponents")
    sp.add_argument("--b", default=None, help="comma-separated denominator exponents")
    sp.add_argument("--preset", choices=tuple(FAMILIES), default=None)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument("--K", type=int, default=10, help="largest ratio index k")
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--beta", type=float, default=None)
    sp.add_argument("--gamma", type=float, default=None)
    add_format(sp)
    sp.set_defaults(func=_cmd_general)

    return parser


def main(argv: Sequence[str] | None = None, out: TextIO | None = None) -> int:
    out = sys.stdout if out is None else out
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, out)
    except NotPolynomial as exc:
        print(f"qcat: error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OverflowError as exc:
        print(f"qcat: error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (UsageError, ValueError) as exc:
        print(f"qcat: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
