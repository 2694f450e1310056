"""The benchmark's workloads: seeded `qcat` command lists and output checks.

Every check here is the benchmark's own arithmetic.  Nothing is imported
from `qcatalan`, so a defect in the program cannot also hide in its judge.
In particular the exit code expected from `qcat general` comes from the
cyclotomic criterion below, never from the library.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("sweep", "normality", "general")
DEFAULT_SEED = 0

# Every t grid in the workloads runs over [-2, 2] at this step: 41 points.
GRID_STEP = 0.1
GRID_POINTS = 41

# The seed moves the first normality command's n inside this window; the
# cost scales with the degree n(n-1), so the window stays at +-1.7%.
NORMALITY_N_WINDOW = (119, 120, 121)

# Shape of the seeded random Gaussian-binomial products in `general`: the
# seed picks how FACTOR_SUM binomial factors split over PRODUCT_FACTORS
# Gaussian binomials and how the degree splits, while the total degree stays
# near PRODUCT_DEGREE, so every product costs about the same to build.
RANDOM_PRODUCTS = 3
PRODUCT_FACTORS = 3
FACTOR_SUM = 30
PRODUCT_DEGREE = 3000

# a = (61..120), b = (1..59, 59): 59 divides only 118 among the a_i but
# appears twice in b, so the quotient is not a polynomial.
REJECT_A = tuple(range(61, 121))
REJECT_B = tuple(range(1, 60)) + (59,)

EXIT_OK = 0
EXIT_DOMAIN = 3


@dataclass(frozen=True)
class Command:
    """One `qcat` invocation: its arguments, the QCAT_THREADS value it runs
    with, and the exit code a correct program returns."""

    argv: tuple[str, ...]
    threads: int = 1
    expect_exit: int = EXIT_OK

    @property
    def key(self) -> str:
        return " ".join(("qcat",) + self.argv)


SETUP = Command(("coeffs", "--family", "catalan", "--n", "1"))


def is_polynomial(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Whether prod(1 - q^a_i) / prod(1 - q^b_i) is a polynomial.

    (1 - q^m) is the product of the cyclotomic polynomials Phi_d over d | m,
    so the quotient is a polynomial exactly when every Phi_d occurs at least
    as often upstairs: #{i : d | a_i} >= #{i : d | b_i} for every d.
    """
    return all(
        sum(x % d == 0 for x in a) >= sum(x % d == 0 for x in b)
        for d in range(1, max(b, default=0) + 1)
    )


def _general(a: tuple[int, ...], b: tuple[int, ...], K: int = 30) -> Command:
    expect = EXIT_OK if is_polynomial(a, b) else EXIT_DOMAIN
    argv = ("general", "--a", ",".join(map(str, a)), "--b", ",".join(map(str, b)), "--K", str(K))
    return Command(argv, expect_exit=expect)


def random_binomial_product(rng: random.Random) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Exponents of a seeded product of Gaussian binomials [N_j choose k_j].

    [N choose k] = prod_{i=1..k} (1 - q^(N-k+i)) / (1 - q^i), so the factor
    lists are concatenations of those ranges.  The k_j split FACTOR_SUM and
    the degrees k_j (N_j - k_j) split PRODUCT_DEGREE, both at random.
    """
    cuts = sorted(rng.sample(range(5, FACTOR_SUM - 4), PRODUCT_FACTORS - 1))
    ks = [hi - lo for lo, hi in zip([0] + cuts, cuts + [FACTOR_SUM])]
    weights = [rng.uniform(1.0, 2.0) for _ in ks]
    a: list[int] = []
    b: list[int] = []
    for k, w in zip(ks, weights):
        rest = max(1, round(PRODUCT_DEGREE * w / sum(weights) / k))
        a.extend(range(rest + 1, rest + k + 1))
        b.extend(range(1, k + 1))
    return tuple(a), tuple(b)


def commands(workload: str, seed: int, nproc: int) -> list[Command]:
    """The command list of one pass of `workload` at `seed`.

    The seed fixes the order of the commands and, per workload, the inputs
    that vary: n inside NORMALITY_N_WINDOW, and the random products in
    `general`.  QCAT_THREADS is never set above nproc.
    """
    rng = random.Random(f"{workload}:{seed}")
    step = str(GRID_STEP)
    if workload == "sweep":
        cmds = [
            Command(("moments", "--family", "catalan", "--n-from", "2", "--n-to", "100")),
            Command(("moments", "--family", "catalan2", "--n-from", "2", "--n-to", "80")),
            Command(("shape", "--family", "catalan", "--n-from", "2", "--n-to", "100"),
                    threads=min(2, nproc)),
            Command(("shape", "--family", "mcatalan", "--m", "3", "--n-from", "2", "--n-to", "50")),
        ]
    elif workload == "normality":
        n = rng.choice(NORMALITY_N_WINDOW)
        cmds = [
            Command(("normality", "--n", str(n), "--K", "30", "--grid-step", step)),
            Command(("normality", "--n", "60", "--K", "60", "--grid-step", step,
                     "--format", "json")),
        ]
    elif workload == "general":
        cmds = [
            Command(("general", "--preset", "catalan", "--n", "200", "--K", "30",
                     "--format", "json")),
            Command(("general", "--preset", "mcatalan", "--m", "3", "--n", "60", "--K", "30")),
            _general(REJECT_A, REJECT_B),
        ]
        cmds += [_general(*random_binomial_product(rng)) for _ in range(RANDOM_PRODUCTS)]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng.shuffle(cmds)
    return cmds


# -- output checks ------------------------------------------------------------

def _flags(argv: tuple[str, ...]) -> dict[str, str]:
    """`--name value` pairs of a command line (every qcat flag takes a value)."""
    return dict(zip(argv[1::2], argv[2::2]))


def _rows(stdout: bytes, fmt: str) -> list[dict[str, str]]:
    """Output rows as dicts of strings; JSON nulls become '' like empty CSV cells."""
    text = stdout.decode("utf-8")
    if fmt == "json":
        return [
            {k: "" if v is None else str(v).lower() if isinstance(v, bool) else str(v)
             for k, v in row.items()}
            for row in json.loads(text)["rows"]
        ]
    return list(csv.DictReader(io.StringIO(text)))


def _family_degree(family: str, n: int, m: int) -> int:
    if family == "catalan":
        return n * (n - 1)
    if family == "catalan2":
        return (n - 1) ** 2
    return (m - 1) * n * (n - 1)


def _check_range(rows, flags, problems) -> None:
    lo, hi = int(flags["--n-from"]), int(flags["--n-to"])
    if [int(r["n"]) for r in rows] != list(range(lo, hi + 1)):
        problems.append(f"rows do not cover n = {lo}..{hi}")
        return
    m = int(flags.get("--m", 0))
    for r in rows:
        n = int(r["n"])
        if int(r["degree"]) != _family_degree(flags["--family"], n, m):
            problems.append(f"n={n}: degree {r['degree']} is wrong")


def _check_normality(rows, flags, problems) -> None:
    n = int(flags["--n"])
    kinds = [r["kind"] for r in rows]
    degree = n * (n - 1)
    if kinds != ["ks"] + ["mgf"] * GRID_POINTS + ["density"] * (degree + 1):
        problems.append("row kinds or counts are wrong")
        return
    if not 0.0 <= float(rows[0]["ks"]) <= 1.0:
        problems.append(f"ks {rows[0]['ks']} outside [0, 1]")
    for i, r in enumerate(rows[1:1 + GRID_POINTS]):
        t = float(r["t"])
        if not math.isclose(t, -2.0 + GRID_STEP * i, abs_tol=1e-9):
            problems.append(f"t grid point {i} is {t}")
        if not math.isclose(float(r["mgf_normal"]), math.exp(t * t / 2.0), rel_tol=1e-11):
            problems.append(f"mgf_normal wrong at t = {t}")
        if not float(r["mgf_exact"]) > 0.0:
            problems.append(f"mgf_exact not positive at t = {t}")
    if [int(r["k"]) for r in rows[1 + GRID_POINTS:]] != list(range(degree + 1)):
        problems.append("density rows do not cover k = 0..degree")


def _general_lists(flags: dict[str, str]) -> tuple[list[int], list[int]]:
    if "--preset" not in flags:
        return [int(x) for x in flags["--a"].split(",")], [int(x) for x in flags["--b"].split(",")]
    n = int(flags["--n"])
    base = (int(flags["--m"]) - 1) * n if flags["--preset"] == "mcatalan" else n
    return list(range(base + 2, base + n + 1)), list(range(2, n + 1))


def _check_general(rows, flags, problems) -> None:
    a, b = _general_lists(flags)
    coeffs = [int(r["coeff"]) for r in rows if r["kind"] == "coeff"]
    if len(coeffs) != sum(a) - sum(b) + 1:
        problems.append(f"{len(coeffs)} coefficients, expected degree {sum(a) - sum(b)} + 1")
    if coeffs != coeffs[::-1]:
        problems.append("coefficients are not palindromic")
    if sum(coeffs) != Fraction(math.prod(a), math.prod(b)):
        problems.append("coefficient sum differs from prod(a)/prod(b)")
    ratios = [r for r in rows if r["kind"] == "ratio"]
    if len(ratios) != int(flags["--K"]) - 1:
        problems.append(f"{len(ratios)} ratio rows, expected K - 1")


def check_output(cmd: Command, exit_code: int, stdout: bytes) -> list[str]:
    """Problems with one invocation's result; an empty list means correct.

    An expected exit 3 is a success when nothing was written to stdout.
    """
    if exit_code != cmd.expect_exit:
        return [f"exit {exit_code}, expected {cmd.expect_exit}"]
    if exit_code != EXIT_OK:
        return ["output written despite the error exit"] if stdout else []
    flags = _flags(cmd.argv)
    try:
        rows = _rows(stdout, flags.get("--format", "csv"))
        problems = [] if rows else ["no rows"]
        command = cmd.argv[0]
        # `moments` has a match cell on every row, `general` on its moment row.
        matches = [r.get("match", "") for r in rows if command == "moments" or r.get("kind") == "moment"]
        if command in ("moments", "general") and (not matches or set(matches) != {"true"}):
            problems.append("a match column is not true")
        if command in ("moments", "shape"):
            _check_range(rows, flags, problems)
        elif command == "normality":
            _check_normality(rows, flags, problems)
        elif command == "general":
            _check_general(rows, flags, problems)
        elif command == "coeffs":
            n = int(flags["--n"])
            if len(rows) != _family_degree(flags["--family"], n, int(flags.get("--m", 0))) + 1:
                problems.append("coefficient count is wrong")
    except (ValueError, KeyError, TypeError) as exc:
        problems = [f"unparseable output: {exc!r}"]
    return problems
