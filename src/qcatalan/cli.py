"""Command line front end: `qcat <command> ... [--format csv|json]`.

Commands map one-to-one onto library calls and print either plot-ready CSV
rows or a JSON envelope {command, params, rows, schema_version}.  Output is
deterministic: identical invocations produce byte-identical bytes.  Numbers
are exact where the library is exact (integers in full, rationals as "p/q"
strings); floats are printed to 12 significant digits.  Integers beyond
2^53 are JSON-encoded as decimal strings so consumers that parse JSON
numbers as doubles cannot silently lose digits.  Each cell is encoded by
its exact type (None, bool, int, float, str or Fraction), and the JSON
params take the same encoders as the rows.  Options are spelled in full:
an abbreviation such as --bet for --beta is a usage error.

Exit codes: 0 success, 1 the reader closed stdout before the output ended
(`qcat ... | head -1`; nothing is written to stderr), 2 usage or validation
error (including a quotient whose numerator exponents sum past
polyq.SUM_LIMIT, --K past K_MAX, and a `normality` grid whose mgf work
passes MGF_WORK_MAX), 3 domain error: any ArithmeticError, such as a
quotient that is not a polynomial, a value that left float range, or a
construction that failed its own checks.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Iterable, Iterator, Sequence, TextIO

from .exactnum import bernoulli_table
from .limitlaw import (
    GecoParams,
    StandardizedLaw,
    catalan_geco_params,
    condition_ratios,
    mcatalan_geco_params,
    series_coefficients,
    series_terms,
    split_tail,
)
from .moments import QuotientSpec, dist_summary, general_moments_closed, preset
from .polyq import FAMILIES, get_family, iter_family, q_catalan, quotient_poly
from .shape import scan_family

SCHEMA_VERSION = "1"
INT_AS_STRING_LIMIT = 2 ** 53
# Rows encoded and joined into one write by the table writer.
BLOCK_ROWS = 2 ** 10
# Largest t grid `normality` accepts: 4001 points, i.e. --grid-step >= 0.001.
GRID_MAX_POINTS = 4001
# Largest --K.  `normality` sums the series to K + 10 terms, and t^(2k) at
# |t| = 2 leaves float range past k = 511; `general` takes time growing
# with K^2.
K_MAX = 500
# Largest mgf work `normality` accepts: distinct |t| on the grid times the
# n(n - 1) + 1 support points of q_catalan(n), one float term each, about
# 0.53 us apiece (2^25 is about 18 s).  --n 100 --grid-step 0.001 (19.8M)
# stays legal.
MGF_WORK_MAX = 2 ** 25
# The float options.  argparse reads a negative number written with an
# exponent (-1e-3) as an unknown flag, so main joins each of these options
# to the token after it (--beta -1e-3 becomes --beta=-1e-3).  The parsers
# take options by their full names only, the rule this join matches by.
FLOAT_FLAGS = ("--alpha", "--beta", "--gamma", "--grid-step")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3


class UsageError(ValueError):
    """Bad arguments detected after argparse: exit code 2."""


def _fmt_float(x: float) -> str:
    return f"{x:.12g}"


def _json_int(v: int) -> str:
    if -INT_AS_STRING_LIMIT < v < INT_AS_STRING_LIMIT:
        return int.__repr__(v)
    return f'"{int.__repr__(v)}"'


def _json_float(v: float) -> str:
    if math.isfinite(v):
        return float.__repr__(float(_fmt_float(v)))
    raise OverflowError(f"cannot write the non-finite value {v} as JSON")


def _bool_text(v: bool) -> str:
    return "true" if v else "false"


# Cell encoders by exact type, at C speed where one exists: the types the
# commands write, each as json.dumps would write its JSON value (integers
# past 2^53 and Fractions as strings, floats at 12 significant digits).
# None is written before the lookup, as null or an empty CSV cell.
_JSON_CELLS: dict[type, Callable[[Any], str]] = {
    bool: _bool_text,
    int: _json_int,
    float: _json_float,
    str: encode_basestring_ascii,
    Fraction: lambda v: encode_basestring_ascii(str(v)),
}
_CSV_CELLS: dict[type, Callable[[Any], str]] = {
    bool: _bool_text,
    int: int.__repr__,
    float: _fmt_float,
    str: str,
    Fraction: Fraction.__str__,
}


def _row_blocks(rows: Iterable[dict[str, Any]]) -> Iterator[list[dict[str, Any]]]:
    it = iter(rows)
    while block := list(itertools.islice(it, BLOCK_ROWS)):
        yield block


def _json_blocks(columns: Sequence[str], rows: Iterable[dict[str, Any]]) -> list[str]:
    """The rows as json.dumps(indent=2) lays them out inside the envelope's
    "rows" array, joined in blocks of BLOCK_ROWS rows; joined by commas,
    the blocks give the array's contents."""
    # Each cell is its column's '\n      "col": ' prefix and the value.
    keys = [
        ("," if i else "") + "\n      " + encode_basestring_ascii(col) + ": "
        for i, col in enumerate(columns)
    ]
    nulls = [key + "null" for key in keys]
    close = "\n    }" if columns else "}"
    cells = _JSON_CELLS.__getitem__
    return [
        ",".join([
            "\n    {"
            + "".join([
                null if v is None else key + cells(type(v))(v)
                for key, null, v in zip(keys, nulls, map(row.get, columns))
            ])
            + close
            for row in block
        ])
        for block in _row_blocks(rows)
    ]


def _emit(
    command: str,
    params: dict[str, Any],
    columns: Sequence[str],
    rows: Sequence[dict[str, Any]],
    fmt: str,
    out: TextIO,
) -> None:
    """Write the table as CSV, or as the JSON envelope in the bytes of
    json.dumps(envelope, indent=2) + "\n".  JSON is encoded whole before its
    first write, so a value it cannot encode leaves `out` empty; CSV is
    written as it is encoded, BLOCK_ROWS rows at a time."""
    if fmt == "json":
        fields = ",".join([
            "\n    " + encode_basestring_ascii(k) + ": "
            + ("null" if v is None else _JSON_CELLS[type(v)](v))
            for k, v in params.items()
        ])
        blocks = _json_blocks(columns, rows)
        out.write(
            '{\n  "command": ' + encode_basestring_ascii(command)
            + ',\n  "params": ' + ("{" + fields + "\n  }" if fields else "{}")
            + ',\n  "rows": ['
        )
        for i, block in enumerate(blocks):
            out.write("," + block if i else block)
        out.write("\n  ]" if blocks else "]")
        out.write(f',\n  "schema_version": {encode_basestring_ascii(SCHEMA_VERSION)}\n}}\n')
    else:
        out.write(",".join(columns) + "\n")
        cells = _CSV_CELLS.__getitem__
        for block in _row_blocks(rows):
            out.write("".join([
                ",".join([
                    "" if v is None else cells(type(v))(v)
                    for v in map(row.get, columns)
                ])
                + "\n"
                for row in block
            ]))


def _check_m(family: str, m: int | None) -> None:
    """Reject --m for a family without it; the library checks the rest."""
    if m is not None and not FAMILIES[family].takes_m:
        takers = "/".join(name for name, f in FAMILIES.items() if f.takes_m)
        raise UsageError(f"--m only applies to the {takers} family, not {family!r}")


def _cmd_coeffs(args: argparse.Namespace, out: TextIO) -> int:
    _check_m(args.family, args.m)
    p = get_family(args.family, args.m).build(args.n, args.m)
    rows = [{"k": k, "coeff": c} for k, c in enumerate(p.coeffs)]
    params = {"family": args.family, "n": args.n, "m": args.m}
    _emit("coeffs", params, ["k", "coeff"], rows, args.format, out)
    return EXIT_OK


def _cmd_moments(args: argparse.Namespace, out: TextIO) -> int:
    _check_m(args.family, args.m)
    rows = []
    members = iter_family(args.family, args.n_from, args.n_to, args.m)
    exponents = FAMILIES[args.family].exponents
    for n, p in zip(range(args.n_from, args.n_to + 1), members):
        s = dist_summary(p)
        # sums and power sums, hence the closed forms, ignore cancellation
        c_mean, c_var = general_moments_closed(QuotientSpec(*exponents(n, args.m)))
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


def _check_K(K: int) -> None:
    if not 2 <= K <= K_MAX:
        raise UsageError(f"need 2 <= --K <= {K_MAX}, got {K}")


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


def _check_mgf_work(n: int, grid: Sequence[float]) -> None:
    """Refuse a grid on which the mgf of q_catalan(n) would take more than
    MGF_WORK_MAX terms: one per distinct |t| and support point."""
    work = (len(grid) // 2 + 1) * (n * (n - 1) + 1)
    if work > MGF_WORK_MAX:
        raise UsageError(
            f"--n {n} on a grid of {len(grid)} t points needs {work} mgf terms, "
            f"more than {MGF_WORK_MAX}; use a smaller --n or a larger --grid-step"
        )


def _cmd_normality(args: argparse.Namespace, out: TextIO) -> int:
    if args.n < 2:
        raise UsageError(f"normality needs --n >= 2, got {args.n}")
    _check_K(args.K)
    grid = _t_grid(args.grid_step)
    _check_mgf_work(args.n, grid)
    p = q_catalan(args.n)
    law = StandardizedLaw(p)
    mu, sigma, mass = law.mu, law.sigma, law.summary.mass
    # Closed-form drift of log_mgf_truncated, and one coefficient list that
    # serves both the K-term truncation and the 10-term convergence check.
    spec = preset("catalan", args.n)
    mean, variance = general_moments_closed(spec)
    c_mean, c_root = float(mean), math.sqrt(float(variance))
    coeffs = series_coefficients(spec, args.K + 10, bernoulli_table(args.K + 10))
    rows: list[dict[str, Any]] = [{"kind": "ks", "ks": law.ks()}]
    for t, exact in zip(grid, law.mgf_grid(grid)):
        terms = series_terms(coeffs, t)
        drift = mu * t / sigma
        trunc = math.exp(c_mean * t / c_root + math.fsum(terms[: args.K]) - drift)
        tail, delta = split_tail(terms, args.K)
        rows.append(
            {
                "kind": "mgf",
                "t": t,
                "mgf_exact": exact,
                "mgf_normal": math.exp(t * t / 2.0),
                "mgf_truncated": trunc,
                "mgf_residual": abs(exact - trunc),
                "series_k1": terms[0],
                "series_tail": tail,
                "tail_delta": delta,
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
                "density": sigma * c / mass,
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


def _cmd_shape(args: argparse.Namespace, out: TextIO) -> int:
    _check_m(args.family, args.m)
    reports = scan_family(args.family, args.n_from, args.n_to, m=args.m)
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
        _check_m(args.preset, args.m)
        get_family(args.preset, args.m).check_size(args.n, args.m)
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
    if args.n is not None or args.m is not None:
        raise UsageError("--n and --m only apply with --preset")
    spec = QuotientSpec(
        a=_parse_int_list(args.a, "--a"), b=_parse_int_list(args.b, "--b")
    )
    n = len(spec.a) + 1
    params = None
    if all(v is not None for v in explicit):
        params = GecoParams(args.alpha, args.beta, args.gamma)
    return spec, n, params


def _cmd_general(args: argparse.Namespace, out: TextIO) -> int:
    _check_K(args.K)
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
    if min(p.coeffs, default=0) >= 0:
        s = dist_summary(p)
        moment_row.update(
            mass=s.mass,
            mean=s.mean,
            variance=s.variance,
            match=s.mean == c_mean and s.variance == c_var,
        )
    rows.append(moment_row)
    if c_var > 0:  # S_1 = 12 var > 0, so the ratios S_k / S_1^k are defined
        for k, ratio in enumerate(condition_ratios(spec, args.K), 2):
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
        allow_abbrev=False,
        description="Coefficient polynomials of q-Catalan families: "
        "exact coefficients, moments, normal-limit diagnostics, shape scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, help: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=help, allow_abbrev=False)

    def add_format(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--format", choices=("csv", "json"), default="csv")

    sp = add_command("coeffs", "coefficients of one family member")
    sp.add_argument("--family", choices=tuple(FAMILIES), required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, default=None)
    add_format(sp)
    sp.set_defaults(func=_cmd_coeffs)

    sp = add_command("moments", "exact vs closed-form moments over an n range")
    sp.add_argument("--family", choices=tuple(FAMILIES), required=True)
    sp.add_argument("--n-from", type=int, required=True)
    sp.add_argument("--n-to", type=int, required=True)
    sp.add_argument("--m", type=int, default=None)
    add_format(sp)
    sp.set_defaults(func=_cmd_moments)

    sp = add_command("normality", "normal-limit diagnostics for q-Catalan at one n")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument(
        "--K", type=int, default=30, help=f"series truncation depth, 2..{K_MAX}"
    )
    sp.add_argument(
        "--grid-step", type=float, default=0.5,
        help=f"t grid spacing on [-2, 2], at most {GRID_MAX_POINTS} points and "
        f"at most {MGF_WORK_MAX} mgf terms (distinct |t| times n(n-1)+1)",
    )
    add_format(sp)
    sp.set_defaults(func=_cmd_normality)

    sp = add_command("shape", "unimodality / log-concavity scan over an n range")
    sp.add_argument("--family", choices=tuple(FAMILIES), required=True)
    sp.add_argument("--n-from", type=int, required=True)
    sp.add_argument("--n-to", type=int, required=True)
    sp.add_argument("--m", type=int, default=None)
    add_format(sp)
    sp.set_defaults(func=_cmd_shape)

    sp = add_command("general", "arbitrary quotient of binomial products")
    sp.add_argument("--a", default=None, help="comma-separated numerator exponents")
    sp.add_argument("--b", default=None, help="comma-separated denominator exponents")
    sp.add_argument("--preset", choices=tuple(FAMILIES), default=None)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument(
        "--K", type=int, default=10, help=f"largest ratio index k, 2..{K_MAX}"
    )
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--beta", type=float, default=None)
    sp.add_argument("--gamma", type=float, default=None)
    add_format(sp)
    sp.set_defaults(func=_cmd_general)

    return parser


def _join_float_values(argv: Sequence[str]) -> list[str]:
    """argv with each FLOAT_FLAGS option joined to the token after it."""
    joined: list[str] = []
    for token in argv:
        if joined and joined[-1] in FLOAT_FLAGS:
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv: Sequence[str] | None = None, out: TextIO | None = None) -> int:
    out = sys.stdout if out is None else out
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_float_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, out)
    except ArithmeticError as exc:
        print(f"qcat: error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (UsageError, ValueError) as exc:
        print(f"qcat: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe fails here, inside the try
    except BrokenPipeError:
        # The reader is gone.  Point stdout at devnull, as the signal module
        # documentation advises, so the flush at shutdown cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    run()
