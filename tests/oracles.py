"""Slow reference routes kept as test oracles.

Each function here recomputes everything it needs on every call, exactly as
the library did before it prepared t-independent work once
(`StandardizedLaw`, `ExponentLaw.series`) and before Bernoulli numbers came
from tangent numbers.  Tests compare the fast routes against these with
`==`, so a change in any float expression of the fast routes shows.

The quotient routes build at full length, as the library did before its
construction kernel decided polynomiality from the cyclotomic ledger and
built half of each quotient: `sequential_quotient` with one checked linear
pass per factor, `is_polynomial_by_division` by long division of the full
products.  `paired_passes` plans a quotient's passes from sorted cancelled
lists, as the kernel did before it held one signed exponent multiset, and
`elementwise_schedule` orders such a plan one copy of each exponent at a
time, as the kernel did before it held its plan as multisets; it finds
divisors by testing every candidate up to x, and it keeps that kernel's
shortcut of no content test after the last up, where the kernel now
walks the content too and, the ledger having passed, runs the same
downs in the same order.
`copying_mul_one_minus_qpow`, `copying_mul_one_plus_qpow` and
`copying_div_one_minus_qpow` are the kernel's three linear passes as they
were before they rewrote their list in place: each returns a new list and
leaves its argument as it was.

`central_moment` sums (k - mean)^r c_k over every coefficient in
Fractions, without the raw power sums the library expands around the
mean.

`interior_unimodal` tests every candidate peak, the definition the scanner
in `shape` shortcuts with one pass, and `interior_unimodal_loop` is that
pass one k at a time, as it was before it compared the coefficients in two
maps.  `dist_summary` and `lc_violations` read every coefficient, as the
library did before it read a palindrome by its head c_0..c_{d//2}.

`emit` is the generic table writer that `cli._emit`'s row kinds replace:
one dict per row, every cell looked up by column and encoded by its value,
the generic `json` encoder on the whole envelope, and one CSV line per
row, with cell encoders of its own.  `cli._emit` writes typed rows from
one template per row shape and streams coefficient and density rows;
tests compare the two byte for byte.  `density_rows` builds every density
row of `qcat normality` in one loop, as the command did before its
density rows were computed a block at a time.

Nothing here imports a private name of `qcatalan`, so an oracle never
shares a helper with the code it checks: `power_sum` is the naive S_k,
and `json_value` and `csv_cell` are the writer's generic encoders.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from collections import Counter
from fractions import Fraction
from typing import Any, Sequence, TextIO

from qcatalan.cli import SCHEMA_VERSION
from qcatalan.exactnum import BernoulliTable
from qcatalan.limitlaw import StandardizedLaw, TailReport
from qcatalan.moments import DistSummary, general_moments_closed
from qcatalan.polyq import IntPoly, NonzeroRemainder, QuotientSpec, poly_div_exact, poly_mul, preset


def bernoulli_by_recurrence(max_k: int) -> tuple[Fraction, ...]:
    """B_0 .. B_{2*max_k} by the defining recurrence
    B_m = -1/(m+1) * sum_{j<m} binomial(m+1, j) B_j, O(max_k^2) Fractions."""
    vals = [Fraction(1)]
    for m in range(1, 2 * max_k + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * vals[j]
        vals.append(-acc / (m + 1))
    return tuple(vals)


def power_sum(spec: QuotientSpec, k: int) -> int:
    """S_k = sum(a_i^{2k}) - sum(b_i^{2k}) from the definition."""
    return sum(x ** (2 * k) for x in spec.a) - sum(x ** (2 * k) for x in spec.b)


def log_mgf_terms(spec: QuotientSpec, t: float, K: int, table: BernoulliTable) -> list[float]:
    """The k = 1..K expansion terms at t, every power sum from scratch."""
    var = Fraction(power_sum(spec, 1), 12)
    terms = []
    for k in range(1, K + 1):
        coeff = table[2 * k] * power_sum(spec, k) / (2 * k * math.factorial(2 * k) * var ** k)
        terms.append(float(coeff) * t ** (2 * k))
    return terms


def log_mgf_truncated(spec: QuotientSpec, t: float, K: int, table: BernoulliTable) -> float:
    terms = log_mgf_terms(spec, t, K, table)
    mean, variance = general_moments_closed(spec)
    drift = float(mean) * t / math.sqrt(float(variance))
    return drift + math.fsum(terms)


def tail_series(n: int, t: float, K: int, table: BernoulliTable) -> TailReport:
    """The K-term tail and its move over 10 more terms; the table must
    hold B_0..B_{2(K+10)}."""
    terms = log_mgf_terms(preset("catalan", n), t, K + 10, table)
    tail = math.fsum(terms[1:K])
    return TailReport(
        n=n, t=t, K=K, tail_value=tail, leading_term=terms[0],
        truncation_delta=abs(math.fsum(terms[1:]) - tail),
    )


def dist_summary(coeffs: Sequence[int]) -> DistSummary:
    """Mass, mean and variance of the coefficient law from the raw power
    sums over every coefficient; ValueError for an empty list or a negative
    coefficient."""
    if not coeffs:
        raise ValueError("zero polynomial carries no distribution")
    if min(coeffs) < 0:
        raise ValueError("negative coefficient; not a distribution")
    mass = 0
    s1 = 0
    s2 = 0
    for k, c in enumerate(coeffs):
        mass += c
        kc = k * c
        s1 += kc
        s2 += k * kc
    mean = Fraction(s1, mass)
    variance = Fraction(s2, mass) - mean * mean
    return DistSummary(mass=mass, mean=mean, variance=variance, degree=len(coeffs) - 1)


def central_moment(coeffs: Sequence[int], r: int) -> Fraction:
    """sum (k - mean)^r c_k / mass in Fractions, straight from the
    definition, for a nonnegative list with positive mass."""
    mass = sum(coeffs)
    mean = Fraction(sum(k * c for k, c in enumerate(coeffs)), mass)
    return sum((Fraction(k) - mean) ** r * c for k, c in enumerate(coeffs)) / mass


def lc_violations(coeffs: Sequence[int]) -> list[int]:
    """Every k in [1, d-1] with c_k^2 < c_{k-1} c_{k+1}, ascending."""
    return [
        k for k in range(1, len(coeffs) - 1)
        if coeffs[k] * coeffs[k] < coeffs[k - 1] * coeffs[k + 1]
    ]


def exact_standardized_mgf(p: IntPoly, t: float) -> float:
    """E[e^{tX*}] by log-sum-exp, one dist_summary and one log per
    coefficient on every call."""
    summary = dist_summary(p.coeffs)
    mu = float(summary.mean)
    sigma = summary.sigma
    pairs = [(k, c) for k, c in enumerate(p.coeffs) if c > 0]
    logs = [t * (k - mu) / sigma + math.log(c) for k, c in pairs]
    top = max(logs)
    ln_e = top + math.log(math.fsum(math.exp(v - top) for v in logs)) - math.log(summary.mass)
    return math.exp(ln_e)


def _normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def ks_distance_to_normal(p: IntPoly) -> float:
    summary = dist_summary(p.coeffs)
    mu = float(summary.mean)
    sigma = summary.sigma
    mass = summary.mass
    best = 0.0
    cum = 0
    for k, c in enumerate(p.coeffs):
        if c == 0:
            continue
        phi = _normal_cdf((k - mu) / sigma)
        lo = cum / mass
        cum += c
        hi = cum / mass
        best = max(best, abs(phi - lo), abs(hi - phi))
    return best


def interior_unimodal(coeffs: Sequence[int]) -> tuple[bool, int | None]:
    """shape.interior_unimodal from the definition.  The interior
    c_1..c_{d-1} is weakly unimodal when, for some peak j, it weakly rises
    up to c_j and weakly falls after it.  Otherwise the answer names the
    first k with a strict rise c_k > c_{k-1} after a strict fall somewhere
    in the interior before it."""
    last = len(coeffs) - 2
    for j in range(1, last + 1):
        rises = all(coeffs[i] <= coeffs[i + 1] for i in range(1, j))
        falls = all(coeffs[i] >= coeffs[i + 1] for i in range(j, last))
        if rises and falls:
            return True, None
    for k in range(2, last + 1):
        fell = any(coeffs[i] < coeffs[i - 1] for i in range(2, k))
        if fell and coeffs[k] > coeffs[k - 1]:
            return False, k
    raise AssertionError("a sequence that is not unimodal has a rise after a fall")


def interior_unimodal_loop(cs: Sequence[int], palindromic: bool) -> tuple[bool, int | None]:
    """shape._interior_unimodal one k at a time: a palindrome is scanned up
    to its middle and its last strict fall mirrors to d - fall + 1."""
    d = len(cs) - 1
    fell = 0  # index of the last strict fall so far
    for k in range(2, d // 2 + 1 if palindromic else d):
        if cs[k] > cs[k - 1]:
            if fell:
                return False, k
        elif cs[k] < cs[k - 1]:
            fell = k
    if fell and palindromic:
        return False, d - fell + 1
    return True, None


def _mul_one_minus_qpow(c: list[int], k: int) -> list[int]:
    n = len(c)
    if k >= n:
        return c + [0] * (k - n) + [-x for x in c]
    return c[:k] + [hi - lo for hi, lo in zip(c[k:], c)] + [-x for x in c[n - k:]]


def _div_one_minus_qpow(c: list[int], k: int) -> list[int]:
    n = len(c)
    if n <= k:
        raise NonzeroRemainder(f"cannot divide degree {n - 1} by (1 - q^{k})")
    out = [0] * n
    for r in range(k):
        out[r::k] = itertools.accumulate(c[r::k])
    if any(out[n - k:]):
        raise NonzeroRemainder(f"division by (1 - q^{k}) is not exact")
    return out[:n - k]


def copying_mul_one_minus_qpow(c: list[int], k: int, size: int) -> list[int]:
    """c * (1 - q^k) modulo q^size, for len(c) <= size <= len(c) + k."""
    ext = c + [0] * (size - len(c))
    return ext[:k] + list(map(operator.sub, ext[k:], c))


def copying_mul_one_plus_qpow(c: list[int], k: int, size: int) -> list[int]:
    """c * (1 + q^k) modulo q^size, for len(c) <= size <= len(c) + k."""
    ext = c + [0] * (size - len(c))
    return ext[:k] + list(map(operator.add, ext[k:], c))


def copying_div_one_minus_qpow(c: list[int], k: int, size: int) -> list[int]:
    """c / (1 - q^k) modulo q^size, for size <= len(c): one prefix sum per
    residue class mod k."""
    out = c[:size]
    for r in range(min(k, size)):
        out[r::k] = itertools.accumulate(out[r::k])
    return out


def sequential_quotient(a, b) -> list[int]:
    """prod(1 - q^a_i) / prod(1 - q^b_i) at full length: the whole
    numerator, then one division pass per denominator factor, largest first,
    each checked for a remainder (NonzeroRemainder)."""
    c = [1]
    for x in sorted(a):
        c = _mul_one_minus_qpow(c, x)
    for x in sorted(b, reverse=True):
        c = _div_one_minus_qpow(c, x)
    return c


def paired_passes(a, b) -> tuple[list[int], list[int], list[int]]:
    """The passes (pairs, ups, downs) of prod(1 - q^a_i) / prod(1 - q^b_i)
    from sorted lists, as the kernel planned them before it held its
    exponents as one signed multiset: common entries of a and b cancel,
    leaving the ups and the downs ascending; then every down d, largest
    first, whose double 2d is still among the ups becomes the pair 1 + q^d
    and takes that up along.  pairs and the remaining ups come ascending,
    the remaining downs largest first."""
    ca, cb = Counter(a), Counter(b)
    ups, downs = sorted((ca - cb).elements()), sorted((cb - ca).elements())
    left = Counter(ups)
    pairs, rest = [], []
    for d in reversed(downs):
        if left[2 * d]:
            left[2 * d] -= 1
            pairs.append(d)
        else:
            rest.append(d)
    pairs.reverse()
    return pairs, sorted(left.elements()), rest


def _all_divisors(x: int) -> list[int]:
    return [d for d in range(1, x + 1) if x % d == 0]


def elementwise_schedule(plan, content: Counter) -> list[tuple[int, int]]:
    """The passes of a plan (pairs, ups, downs) as `paired_passes` lists
    it, in the order the kernel runs them, as (k, kind) with kind 0 for
    1 + q^k, 1 for 1 - q^k and -1 for a division by 1 - q^k; content, the
    power of each Phi_d in the product the passes start from, is not
    modified.  The pairs run first, then the ups, and after each up but
    the last every waiting down, largest first, one copy at a time, once
    every divisor of it has positive content; what still waits runs after
    the last up."""
    pairs, ups, downs = plan
    order = [(d, 0) for d in pairs]
    pending = downs
    if len(ups) > 1:
        content = content.copy()
        for d in pairs:
            content.update(_all_divisors(2 * d))
            content.subtract(_all_divisors(d))
        waiting = [(d, _all_divisors(d)) for d in downs]
        for u in ups[:-1]:
            order.append((u, 1))
            content.update(_all_divisors(u))
            held = []
            for d, divs in waiting:
                if all(content[x] > 0 for x in divs):
                    content.subtract(divs)
                    order.append((d, -1))
                else:
                    held.append((d, divs))
            waiting = held
        pending = [d for d, _ in waiting]
    order.extend((u, 1) for u in ups[-1:])
    order.extend((d, -1) for d in pending)
    return order


def _binomial_product(xs) -> IntPoly:
    out = IntPoly([1])
    for x in xs:
        out = poly_mul(out, IntPoly([1] + [0] * (x - 1) + [-1]))
    return out


def is_polynomial_by_division(a, b) -> bool:
    """Whether the full numerator product divides by the full denominator
    product, by long division."""
    try:
        poly_div_exact(_binomial_product(a), _binomial_product(b))
    except NonzeroRemainder:
        return False
    return True


def density_rows(p: IntPoly) -> list[tuple[int, float, float, float]]:
    """The density rows of `qcat normality` for p, (k, z, density, normal
    density) at every k, all built in one loop before any is written."""
    law = StandardizedLaw(p)
    mu, sigma, mass = law.mu, law.sigma, law.summary.mass
    scale = 1 << max(0, mass.bit_length() - 1023)
    scaled_mass = mass / scale
    rows = []
    for k, c in enumerate(p.coeffs):
        z = (k - mu) / sigma
        normal = math.exp(-z * z / 2.0) / math.sqrt(2.0 * math.pi)
        rows.append((k, z, sigma * (c / scale) / scaled_mass, normal))
    return rows


def json_value(v: Any) -> Any:
    """The JSON value of a cell: integers past 2^53 and Fractions as
    strings, floats rounded to 12 significant digits."""
    if v is None or isinstance(v, (str, bool)):
        return v
    if isinstance(v, int):
        return str(v) if abs(v) >= 2 ** 53 else v
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, float):
        if not math.isfinite(v):
            raise OverflowError(f"cannot write the non-finite value {v} as JSON")
        return float(f"{v:.12g}")
    raise TypeError(f"cannot encode {type(v)!r}")


def csv_cell(v: Any) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def emit(
    command: str,
    params: dict[str, Any],
    columns: Sequence[str],
    rows: Sequence[dict[str, Any]],
    fmt: str,
    out: TextIO,
) -> None:
    """CSV, or the envelope {command, params, rows, schema_version} as
    json.dumps(envelope, indent=2) + "\n"."""
    if fmt == "json":
        envelope = {
            "command": command,
            "params": {k: json_value(v) for k, v in params.items()},
            "rows": [
                {col: json_value(row.get(col)) for col in columns} for row in rows
            ],
            "schema_version": SCHEMA_VERSION,
        }
        out.write(json.dumps(envelope, indent=2) + "\n")
    else:
        out.write(",".join(columns) + "\n")
        for row in rows:
            out.write(",".join(csv_cell(row.get(col)) for col in columns) + "\n")
