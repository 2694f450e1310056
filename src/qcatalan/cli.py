"""Command line front end: `qcat <command> ... [--format csv|json]`.

Commands map one-to-one onto library calls and print either plot-ready CSV
rows or a JSON envelope {command, params, rows, schema_version}.  Output is
deterministic: identical invocations produce byte-identical bytes.  Numbers
are exact where the library is exact (integers in full, rationals as "p/q"
strings); floats are printed to 12 significant digits.  Integers beyond
2^53 are JSON-encoded as decimal strings so consumers that parse JSON
numbers as doubles cannot silently lose digits.  Rows are typed by kind
(coeff, moment, ratio, ks, mgf, density, a moments row, a shape row): a
kind fixes each cell's column and type (bool, int, float, str or
Fraction).  Every kind is written one way, a block of rows at a time taken
as columns, through one template per format that its declaration fixes: a
plain kind's cells may be null, an indexed kind's never are.  Coefficient
rows, and the density rows of `normality`, are computed from the
coefficient list one block at a time as they are written, so peak memory
is the list plus one block of encoded rows.  Every `normality` number is
the law's (StandardizedLaw): the KS distance, the mgf rows, and the
density columns with the check that they are finite; this module declares
their cells only.  Every other row, and the row of the widest coefficient,
is computed and encoded before the first write, so an error leaves stdout
empty by that order.  The JSON params take the same cell encoders as the
rows.  Options are spelled in full: an abbreviation such as --bet for
--beta is a usage error.

Exit codes: 0 success, 1 the reader closed stdout before the output ended
(`qcat ... | head -1`; nothing is written to stderr), 2 usage or validation
error: argparse's refusals and any ValueError, from the argv checks here
(--K past K_MAX, a `normality` grid past GRID_MAX_POINTS or MGF_WORK_MAX,
an integer list that does not parse, options that do not go together),
from the library call that judges a value (family, m, n, a quotient past
polyq.SUM_LIMIT) or from the writer (an integer past the digit limit
PYTHONINTMAXSTRDIGITS sets), 3 domain error: any ArithmeticError, such as
a quotient that is not a polynomial, a value that left float range, or a
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
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence, TextIO

from .limitlaw import (
    GecoParams,
    StandardizedLaw,
    catalan_geco_params,
    condition_ratios,
    mcatalan_geco_params,
)
from .moments import dist_summary, general_moments_closed
from .polyq import FAMILIES, QuotientSpec, get_family, iter_family, preset, q_catalan, quotient_poly
from .shape import scan_family

SCHEMA_VERSION = "1"
INT_AS_STRING_LIMIT = 2 ** 53
# Rows encoded and joined into one write by the table writer.
BLOCK_ROWS = 2 ** 8
# Largest t grid `normality` accepts: 4001 points, i.e. --grid-step >= 0.001.
GRID_MAX_POINTS = 4001
# Largest --K.  `normality` sums the series to K + 10 terms, and t^(2k) at
# |t| = 2 leaves float range past k = 511; `general` takes time growing
# with K^2.
K_MAX = 500
# Largest mgf work `normality` accepts: distinct |t| on the grid times the
# n(n - 1) + 1 support points of q_catalan(n), one float term each, about
# 0.2 us apiece with its share of the sort (2^25 is about 7 s).  --n 100
# --grid-step 0.001 (19.8M) stays legal and takes 3-4 s.  The default grid
# admits n <= 2591, but q_catalan(n) passes polyq.SUM_LIMIT from n = 1673
# on, so there normality stops at 1672 (a build of minutes).
MGF_WORK_MAX = 2 ** 25
# The float options.  argparse reads a negative number written with an
# exponent (-1e-3) as an unknown flag, so main joins each of these options
# to the token after it (--beta -1e-3 becomes --beta=-1e-3).  The parsers
# take options by their full names only, the rule this join matches by.
FLOAT_FLAGS = ("--alpha", "--beta", "--gamma", "--grid-step")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3


def _json_int(v: int) -> str:
    if -INT_AS_STRING_LIMIT < v < INT_AS_STRING_LIMIT:
        return int.__repr__(v)
    return f'"{int.__repr__(v)}"'


def _json_float(v: float) -> str:
    if math.isfinite(v):
        return float.__repr__(float(_CSV_SLOTS[float] % v))
    raise OverflowError(f"cannot write the non-finite value {v} as JSON")


def _bool_text(v: bool) -> str:
    return "true" if v else "false"


# JSON cell encoders by type, at C speed where one exists: the types the
# commands write, each as json.dumps would write its JSON value (integers
# past 2^53 and Fractions as strings, floats as the value of their CSV text).
# A JSON template writes each encoded cell with %s.
_JSON_CELLS: dict[type, Callable[[Any], str]] = {
    bool: _bool_text,
    int: _json_int,
    float: _json_float,
    str: encode_basestring_ascii,
    Fraction: lambda v: encode_basestring_ascii(str(v)),
}
# A CSV template writes each cell type by its own %-conversion: %d gives the
# digits of int.__repr__, %.12g a float to 12 significant digits (the one
# place that format is written), and %s the text of str and Fraction.__str__.
# Only a bool goes through an encoder first.
_CSV_SLOTS: dict[type, str] = {bool: "%s", int: "%d", float: "%.12g", str: "%s", Fraction: "%s"}
_CSV_CELLS: dict[type, Callable[[Any], str]] = {bool: _bool_text}


class RowKind(NamedTuple):
    """One kind of table row.

    `name` is the text of the row's "kind" cell, None in a table without
    that column.  `cells` are the (column, type) pairs of its other cells in
    column order, and a row is the tuple of their values, None for a null.
    An indexed kind's rows are a coefficient list instead, and its first
    cell, k, is a row's position.  `indexed` gives its other cells: called
    with a block's positions (a range) and its coefficients, it returns
    their columns, none of which holds a null.  `_coefficients` makes a
    coefficient list its own rows.
    """

    name: str | None
    cells: tuple[tuple[str, type], ...]
    indexed: Callable[[range, Sequence[int]], Sequence[Iterable[Any]]] | None = None


def _coefficients(ks: range, block: Sequence[int]) -> tuple[Sequence[int]]:
    """The one column after k of a coefficient row: the coefficient."""
    return (block,)


def _shape(
    columns: Sequence[str], kind: RowKind, fmt: str
) -> tuple[str, list[Callable[[Any], str] | None]]:
    """The %-format template of the rows of `kind`, and the encoder each of
    its cell columns goes through first, None for one the template writes
    itself.

    A plain kind's cells may be null, so each is written with %s, by an
    encoder that gives null (JSON) or empty text (CSV) for None and
    otherwise the text of its type's own encoder or slot.  An indexed
    kind's cells are never null and keep their type's slot and encoder,
    but for its position k: a list position is below polyq.SUM_LIMIT + 1,
    far below 2^53, so JSON writes it with %d as CSV does.  The "kind" cell
    and the columns the kind lacks are fixed text."""
    json = fmt == "json"
    null = "null" if json else ""
    slots, encoders = {}, []
    for i, (col, t) in enumerate(kind.cells):
        if json and not (kind.indexed and i == 0):
            slot, encode = "%s", _JSON_CELLS[t]
        else:
            slot, encode = _CSV_SLOTS[t], _CSV_CELLS.get(t)
        if not kind.indexed:
            text = encode or slot.__mod__
            slot, encode = "%s", lambda v, text=text: null if v is None else text(v)
        slots[col] = slot
        encoders.append(encode)
    texts = []
    for col in columns:
        if col in slots:
            texts.append(slots[col])
        elif col == "kind" and kind.name is not None:
            name = encode_basestring_ascii(kind.name) if json else kind.name
            texts.append(name.replace("%", "%%"))
        else:
            texts.append(null)
    if not json:
        return ",".join(texts) + "\n", encoders
    body = ",".join([
        "\n      " + encode_basestring_ascii(col).replace("%", "%%") + ": " + text
        for col, text in zip(columns, texts)
    ])
    return "\n    {" + body + ("\n    }" if columns else "}"), encoders


def _blocks(columns: Sequence[str], kind: RowKind, rows: Sequence[Any], fmt: str) -> Iterator[str]:
    """The rows encoded and joined, BLOCK_ROWS rows to a block: by commas in
    JSON (the "rows" array's separator), end to end in CSV.

    The kind's declaration fixes its one template and its encoders, built
    before the first block (see _shape).  Each block is taken as columns:
    an indexed kind's are the range of the block's positions beside the
    columns `kind.indexed` makes of them and the block's coefficients, so
    its rows exist one block at a time.  Each column with an encoder goes
    through it once, and the template writes the block in one pass."""
    join = ",".join if fmt == "json" else "".join
    template, encoders = _shape(columns, kind, fmt)
    for start in range(0, len(rows), BLOCK_ROWS):
        block = rows[start : start + BLOCK_ROWS]
        if kind.indexed:
            ks = range(start, start + len(block))
            cols = [ks, *kind.indexed(ks, block)]
        else:
            cols = list(zip(*block))
        cells = [col if f is None else map(f, col) for f, col in zip(encoders, cols)]
        # a kind without cells has no column to zip: each row is ()
        yield join(map(template.__mod__, zip(*cells) if cells else [()] * len(block)))


def _emit(
    command: str,
    params: dict[str, Any],
    columns: Sequence[str],
    parts: Sequence[tuple[RowKind, Sequence[Any]]],
    fmt: str,
    out: TextIO,
) -> None:
    """Write the table as CSV, or as the JSON envelope in the bytes of
    json.dumps(envelope, indent=2) + "\n".

    `parts` holds (kind, rows) pairs in output order, each encoded by
    _blocks.  An indexed part streams from its coefficient list, each block
    of rows computed and encoded as it is written, so peak memory is the
    list plus one block.  The commands compute every other row before
    calling here, and those few rows are encoded, with the params, before
    the first write.  So is the row of each stream's widest coefficient: an
    int cell fails only past the interpreter's limit on int digits, and then
    the widest fails, with a ValueError that names the limit.  A cell that
    cannot be encoded (that, or a non-finite float in JSON) therefore leaves
    `out` empty by the order of the work, not by buffering; a stream's float
    cells are checked to be finite before this is called, by the function
    that computes them (StandardizedLaw.density_columns for density rows).
    """
    json = fmt == "json"
    try:
        blocks = [
            _blocks(columns, kind, rows, fmt) if kind.indexed
            else list(_blocks(columns, kind, rows, fmt))
            for kind, rows in parts
        ]
        for kind, rows in parts:
            if kind.indexed and rows:  # the widest coefficient's row fails first, if any does
                next(_blocks(columns, kind, [max(max(rows), -min(rows))], fmt))
        fields = ",".join([
            "\n    " + encode_basestring_ascii(k) + ": "
            + ("null" if v is None else _JSON_CELLS[type(v)](v))
            for k, v in params.items()
        ]) if json else ""
    except ValueError:
        # the one ValueError a cell encoder raises: an int, or a Fraction's
        # numerator or denominator, past the interpreter's limit on the
        # digits it converts to text
        raise ValueError(
            f"an integer to write has more than {sys.get_int_max_str_digits()} digits, "
            "the interpreter's limit on converting an integer to text; the "
            "environment variable PYTHONINTMAXSTRDIGITS sets that limit (0 removes it)"
        ) from None
    if json:
        out.write(
            '{\n  "command": ' + encode_basestring_ascii(command)
            + ',\n  "params": ' + ("{" + fields + "\n  }" if fields else "{}")
            + ',\n  "rows": ['
        )
        sep = ""
        for block in itertools.chain.from_iterable(blocks):
            out.write(sep)
            out.write(block)
            sep = ","
        out.write("\n  ]" if sep else "]")
        out.write(f',\n  "schema_version": {encode_basestring_ascii(SCHEMA_VERSION)}\n}}\n')
    else:
        out.write(",".join(columns) + "\n")
        for block in itertools.chain.from_iterable(blocks):
            out.write(block)


def _columns(kind: RowKind) -> list[str]:
    """The columns of a table of one kind."""
    return [col for col, _ in kind.cells]


def _emit_range(
    command: str, kind: RowKind, rows: Sequence[Any], args: argparse.Namespace, out: TextIO
) -> int:
    """Write the table of a range command (moments, shape): one row of `kind`
    per family member n_from..n_to."""
    params = {"family": args.family, "n_from": args.n_from, "n_to": args.n_to, "m": args.m}
    _emit(command, params, _columns(kind), [(kind, rows)], args.format, out)
    return EXIT_OK


_COEFF = RowKind("coeff", (("k", int), ("coeff", int)), _coefficients)


def _cmd_coeffs(args: argparse.Namespace, out: TextIO) -> int:
    p = get_family(args.family, args.m).build(args.n, args.m)
    params = {"family": args.family, "n": args.n, "m": args.m}
    _emit("coeffs", params, _columns(_COEFF), [(_COEFF, p.coeffs)], args.format, out)
    return EXIT_OK


_MOMENTS = RowKind(None, (
    ("n", int), ("degree", int), ("mass", int), ("mean", Fraction), ("variance", Fraction),
    ("closed_mean", Fraction), ("closed_variance", Fraction), ("match", bool),
))


def _cmd_moments(args: argparse.Namespace, out: TextIO) -> int:
    rows = []
    members = iter_family(args.family, args.n_from, args.n_to, args.m)
    exponents = FAMILIES[args.family].exponents
    for n, p in zip(range(args.n_from, args.n_to + 1), members):
        s = dist_summary(p)
        # sums and power sums, hence the closed forms, ignore cancellation
        c_mean, c_var = general_moments_closed(QuotientSpec(*exponents(n, args.m)))
        match = s.mean == c_mean and s.variance == c_var
        rows.append((n, s.degree, s.mass, s.mean, s.variance, c_mean, c_var, match))
    return _emit_range("moments", _MOMENTS, rows, args, out)


def _check_K(K: int) -> None:
    if not 2 <= K <= K_MAX:
        raise ValueError(f"need 2 <= --K <= {K_MAX}, got {K}")


def _t_grid(step: float) -> list[float]:
    """The t grid on [-2, 2] for --grid-step, its size checked against
    GRID_MAX_POINTS before anything is allocated."""
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"--grid-step must be a positive finite number, got {step}")
    half = 2.0 / step + 1e-9
    if half >= GRID_MAX_POINTS // 2 + 1:
        raise ValueError(
            f"--grid-step {step} would need more than {GRID_MAX_POINTS} t points; "
            f"use a step of at least {2.0 / (GRID_MAX_POINTS // 2)}"
        )
    count = int(half)
    return [round(i * step, 12) for i in range(-count, count + 1)]


def _check_mgf_work(n: int, grid: Sequence[float]) -> None:
    """Refuse a grid on which the mgf of q_catalan(n) would take more than
    MGF_WORK_MAX terms: one per distinct |t| and support point."""
    work = (len(grid) // 2 + 1) * (n * (n - 1) + 1)
    if work > MGF_WORK_MAX:
        raise ValueError(
            f"--n {n} on a grid of {len(grid)} t points needs {work} mgf terms, "
            f"more than {MGF_WORK_MAX}; use a smaller --n or a larger --grid-step"
        )


_KS = RowKind("ks", (("ks", float),))
_MGF = RowKind("mgf", tuple((col, float) for col in (
    "t", "mgf_exact", "mgf_normal", "mgf_truncated", "mgf_residual",
    "series_k1", "series_tail", "tail_delta",
)))
# The density rows' cells; the law gives the columns after k
# (StandardizedLaw.density_columns).
_DENSITY_CELLS = (("k", int), ("z", float), ("density", float), ("normal_density", float))
_NORMALITY_COLUMNS = [
    "kind", "t", "ks", "mgf_exact", "mgf_normal", "mgf_truncated",
    "mgf_residual", "series_k1", "series_tail", "tail_delta",
    "k", "z", "density", "normal_density",
]


def _cmd_normality(args: argparse.Namespace, out: TextIO) -> int:
    _check_K(args.K)
    grid = _t_grid(args.grid_step)
    _check_mgf_work(args.n, grid)
    spec = preset("catalan", args.n)  # the judge of n >= 2
    p = q_catalan(args.n)
    law = StandardizedLaw(p)
    density = RowKind("density", _DENSITY_CELLS, law.density_columns())
    params = {"n": args.n, "K": args.K, "grid_step": args.grid_step}
    parts = [(_KS, [(law.ks(),)]), (_MGF, law.mgf_rows(spec, args.K, grid)), (density, p.coeffs)]
    _emit("normality", params, _NORMALITY_COLUMNS, parts, args.format, out)
    return EXIT_OK


# A shape report without its family, whose first field it is.
_SHAPE = RowKind(None, (
    ("n", int), ("degree", int), ("interior_unimodal", bool),
    ("first_unimodality_violation", int), ("min_logconcave_t", int),
    ("first_lc_violation_at_t0", int),
))


def _cmd_shape(args: argparse.Namespace, out: TextIO) -> int:
    reports = scan_family(args.family, args.n_from, args.n_to, m=args.m)
    return _emit_range("shape", _SHAPE, [r[1:] for r in reports], args, out)


def _parse_int_list(raw: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in raw.split(","))
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated integers, got {raw!r}") from None


def _general_spec(args: argparse.Namespace) -> tuple[QuotientSpec, int, GecoParams | None]:
    """Resolve the quotient, the size n used in the envelope, and the
    envelope itself (None when no bound applies)."""
    explicit = [args.alpha, args.beta, args.gamma]
    given = sum(v is not None for v in explicit)
    if given not in (0, 3):
        raise ValueError("--alpha, --beta, --gamma must be given together")
    params = GecoParams(*explicit) if given else None
    if args.preset is not None:
        if args.a is not None or args.b is not None:
            raise ValueError("give either --preset or --a/--b, not both")
        if args.n is None:
            raise ValueError("--preset requires --n")
        fam = get_family(args.preset, args.m)
        fam.check_size(args.n, args.m)
        if params is None:  # the family's own envelope
            params = mcatalan_geco_params(args.m) if fam.takes_m else catalan_geco_params()
        return preset(args.preset, args.n, args.m), args.n, params
    if args.a is None or args.b is None:
        raise ValueError("give --a and --b together, or use --preset")
    if args.n is not None or args.m is not None:
        raise ValueError("--n and --m only apply with --preset")
    spec = QuotientSpec(
        a=_parse_int_list(args.a, "--a"), b=_parse_int_list(args.b, "--b")
    )
    return spec, len(spec.a) + 1, params


_MOMENT = RowKind("moment", (
    ("mass", int), ("mean", Fraction), ("variance", Fraction),
    ("closed_mean", Fraction), ("closed_variance", Fraction), ("match", bool),
))
_RATIO = RowKind("ratio", (("k", int), ("ratio", float), ("bound", float), ("ok", bool)))
_GENERAL_COLUMNS = [
    "kind", "k", "coeff", "mass", "mean", "variance", "closed_mean",
    "closed_variance", "match", "ratio", "bound", "ok",
]


def _cmd_general(args: argparse.Namespace, out: TextIO) -> int:
    _check_K(args.K)
    spec, n, geco = _general_spec(args)
    p = quotient_poly(spec)
    c_mean, c_var = general_moments_closed(spec)
    moment: tuple[Any, ...] = (None, None, None, c_mean, c_var, None)
    if min(p.coeffs, default=0) >= 0:
        s = dist_summary(p)
        match = s.mean == c_mean and s.variance == c_var
        moment = (s.mass, s.mean, s.variance, c_mean, c_var, match)
    ratios = []
    if c_var > 0:  # S_1 = 12 var > 0, so the ratios S_k / S_1^k are defined
        for k, ratio in enumerate(condition_ratios(spec, args.K), 2):
            if geco is None:
                ratios.append((k, ratio, None, None))
            else:
                bound = geco.bound(n, k)
                ratios.append((k, ratio, bound, ratio < bound))
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
    parts = [(_COEFF, p.coeffs), (_MOMENT, [moment]), (_RATIO, ratios)]
    _emit("general", params, _GENERAL_COLUMNS, parts, args.format, out)
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

    def add_range_command(name: str, help: str, func: Callable[..., int]) -> None:
        sp = add_command(name, help)
        sp.add_argument("--family", choices=tuple(FAMILIES), required=True)
        sp.add_argument("--n-from", type=int, required=True)
        sp.add_argument("--n-to", type=int, required=True)
        sp.add_argument("--m", type=int, default=None)
        add_format(sp)
        sp.set_defaults(func=func)

    sp = add_command("coeffs", "coefficients of one family member")
    sp.add_argument("--family", choices=tuple(FAMILIES), required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, default=None)
    add_format(sp)
    sp.set_defaults(func=_cmd_coeffs)

    add_range_command("moments", "exact vs closed-form moments over an n range", _cmd_moments)

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

    add_range_command("shape", "unimodality / log-concavity scan over an n range", _cmd_shape)

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
    except ValueError as exc:
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
