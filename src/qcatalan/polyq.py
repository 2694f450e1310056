"""Dense polynomial arithmetic over arbitrary-precision integers, plus
constructors for q-integers, Gaussian binomials, and the q-Catalan families.

A polynomial is stored as a tuple of signed big-integer coefficients, index k
holding the coefficient of q^k.  Intermediates of long division go negative,
so coefficients are signed even though every finished q-object (q-integer,
Gaussian binomial, q-Catalan of any flavor) ends up with nonnegative
coefficients, a palindromic profile, and coefficient sum equal to the value
of its defining expression at q = 1.

The workhorse operations multiply and divide by a binomial (1 - q^k) in one
linear pass each, using

    [k] = 1 + q + ... + q^(k-1) = (1 - q^k) / (1 - q).

Multiplying by (1 - q^k) is a shifted subtraction; dividing by it is a
strided prefix sum.  Every q-Catalan constructor therefore costs
O(n * degree) coefficient operations instead of the O(n * degree^2) of naive
convolution, which matters once degrees reach ~14000 around n = 120.

FAMILIES is the one registry of named families.  iter_family sweeps a
family over a range of n, stepping each member from the previous one in a
few such passes instead of the ~2n a rebuild takes.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

if TYPE_CHECKING:
    from .moments import QuotientSpec

__all__ = [
    "FAMILIES",
    "Family",
    "IntPoly",
    "NonzeroRemainder",
    "NotPolynomial",
    "poly_mul",
    "poly_div_exact",
    "qint",
    "gaussian_binomial",
    "q_catalan",
    "q_catalan_via_binomial",
    "q_catalan_second",
    "q_catalan_general",
    "get_family",
    "iter_family",
    "quotient_poly",
    "major_index_histogram",
]

MAJOR_INDEX_MAX_N = 14


class NonzeroRemainder(ArithmeticError):
    """Polynomial division left a nonzero remainder."""


class NotPolynomial(ArithmeticError):
    """A quotient of binomial products has no polynomial value."""


def _poly_str(coeffs: Sequence[int], max_terms: int = 8) -> str:
    if not coeffs:
        return "0"
    parts = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        if k == 0:
            parts.append(str(c))
        else:
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            sign = "-" if c < 0 else ""
            var = "q" if k == 1 else f"q^{k}"
            parts.append(f"{sign}{mag}{var}" if not parts else f"{'-' if c < 0 else '+'} {mag}{var}")
    if len(parts) > max_terms:
        head = " ".join(parts[: max_terms // 2])
        tail = parts[-1].lstrip("+- ")
        return f"{head} ... + {tail}"
    return " ".join(parts)


@dataclass(frozen=True, init=False, repr=False)
class IntPoly:
    """Immutable dense polynomial with exact integer coefficients.

    The zero polynomial is the empty coefficient tuple; its degree is
    undefined and asking for it raises.  Trailing zero coefficients are
    trimmed on construction, so the trailing stored coefficient is nonzero
    whenever the polynomial is nonzero.
    """

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        if not self.coeffs:
            raise ValueError("degree of the zero polynomial is undefined")
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> int:
        if k < 0:
            raise IndexError("coefficient index must be nonnegative")
        return self.coeffs[k] if k < len(self.coeffs) else 0

    def evaluate(self, x):
        """Evaluate at x by Horner's rule; exact for int/Fraction arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def is_palindromic(self) -> bool:
        return bool(self.coeffs) and self.coeffs == self.coeffs[::-1]

    def __neg__(self) -> IntPoly:
        return IntPoly(-c for c in self.coeffs)

    def __add__(self, other: int | IntPoly) -> IntPoly:
        oc = (other,) if isinstance(other, int) else other.coeffs
        return IntPoly(a + b for a, b in itertools.zip_longest(self.coeffs, oc, fillvalue=0))

    __radd__ = __add__

    def __sub__(self, other: int | IntPoly) -> IntPoly:
        oc = (other,) if isinstance(other, int) else other.coeffs
        return IntPoly(a - b for a, b in itertools.zip_longest(self.coeffs, oc, fillvalue=0))

    def __mul__(self, other: int | IntPoly) -> IntPoly:
        if isinstance(other, int):
            return IntPoly(c * other for c in self.coeffs)
        return poly_mul(self, other)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"IntPoly({_poly_str(self.coeffs)})"


def poly_mul(p: IntPoly, r: IntPoly) -> IntPoly:
    """Coefficient convolution; degree adds (zero absorbs)."""
    if p.is_zero() or r.is_zero():
        return IntPoly()
    pc, rc = p.coeffs, r.coeffs
    out = [0] * (len(pc) + len(rc) - 1)
    for i, a in enumerate(pc):
        if a == 0:
            continue
        for j, b in enumerate(rc):
            out[i + j] += a * b
    return IntPoly(out)


def poly_div_exact(p: IntPoly, d: IntPoly) -> IntPoly:
    """Exact quotient p / d over the integers.

    Long division from the top coefficient; raises NonzeroRemainder when no
    integer-coefficient quotient with zero remainder exists.
    """
    if d.is_zero():
        raise ValueError("division by the zero polynomial")
    if p.is_zero():
        return IntPoly()
    dc = d.coeffs
    if len(p.coeffs) < len(dc):
        raise NonzeroRemainder("divisor degree exceeds dividend degree")
    rem = list(p.coeffs)
    lead = dc[-1]
    quot = [0] * (len(rem) - len(dc) + 1)
    for i in range(len(rem) - 1, len(dc) - 2, -1):
        c = rem[i]
        if c == 0:
            continue
        qc, leftover = divmod(c, lead)
        if leftover:
            raise NonzeroRemainder(f"leading coefficient {c} not divisible by {lead}")
        shift = i - len(dc) + 1
        quot[shift] = qc
        for j, dcoef in enumerate(dc):
            rem[shift + j] -= qc * dcoef
    if any(rem):
        raise NonzeroRemainder("division is not exact")
    return IntPoly(quot)


# -- linear passes for (1 - q^k) factors ------------------------------------

def _mul_one_minus_qpow(c: list[int], k: int) -> list[int]:
    """Multiply a coefficient list by (1 - q^k) in one pass."""
    n = len(c)
    if k >= n:
        return c + [0] * (k - n) + [-x for x in c]
    return c[:k] + [hi - lo for hi, lo in zip(c[k:], c)] + [-x for x in c[n - k:]]

def _div_one_minus_qpow(c: list[int], k: int) -> list[int]:
    """Exactly divide a coefficient list by (1 - q^k).

    Per residue class mod k the quotient is a prefix sum, which runs at C
    speed through itertools.accumulate.  The top k running sums must come
    out zero, otherwise the division has a remainder.
    """
    n = len(c)
    if n <= k:
        raise NonzeroRemainder(f"cannot divide degree {n - 1} by (1 - q^{k})")
    out = [0] * n
    for r in range(k):
        out[r::k] = itertools.accumulate(c[r::k])
    if any(out[n - k:]):
        raise NonzeroRemainder(f"division by (1 - q^{k}) is not exact")
    return out[:n - k]

def _mul_qint(c: list[int], m: int) -> list[int]:
    """Multiply by [m] = (1 - q^m)/(1 - q)."""
    if m == 1:
        return c
    return _div_one_minus_qpow(_mul_one_minus_qpow(c, m), 1)

def _div_qint(c: list[int], m: int) -> list[int]:
    """Divide by [m]; exact or NonzeroRemainder."""
    if m == 1:
        return c
    return _div_one_minus_qpow(_mul_one_minus_qpow(c, 1), m)


def _binomial_product_quotient(a: Iterable[int], b: Iterable[int]) -> list[int]:
    """Coefficients of prod(1 - q^a_i) / prod(1 - q^b_i), fast path.

    Builds the full numerator, then divides the binomial factors out one at
    a time.  Each step is exact precisely when the final quotient is a
    polynomial: any subproduct of the denominator divides the numerator once
    the full denominator does, because cyclotomic factor multiplicities only
    shrink when factors are removed.
    """
    c = [1]
    for ai in sorted(a):
        c = _mul_one_minus_qpow(c, ai)
    for bi in sorted(b, reverse=True):
        c = _div_one_minus_qpow(c, bi)
    return c


def _cancel_common(a: Iterable[int], b: Iterable[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Drop exponents appearing in both multisets; those factors cancel."""
    ca, cb = Counter(a), Counter(b)
    common = ca & cb
    return tuple(sorted((ca - common).elements())), tuple(sorted((cb - common).elements()))


def _require_nonnegative(c: list[int], what: str) -> list[int]:
    """Return c, or raise ArithmeticError if a coefficient is negative.

    Every finished q-Catalan-type member has nonnegative coefficients, so a
    negative one means the construction itself went wrong.
    """
    if c and min(c) < 0:
        raise ArithmeticError(f"{what} has a negative coefficient; construction is broken")
    return c


def _check_factor_list(name: str, vals: tuple[int, ...]) -> None:
    if any(v < 1 for v in vals):
        raise ValueError(f"{name} entries must be positive integers, got {vals}")


# -- q-object constructors ----------------------------------------------------

def qint(k: int) -> IntPoly:
    """The q-integer [k] = 1 + q + ... + q^(k-1); rejects k < 1."""
    if k < 1:
        raise ValueError(f"q-integer index must be >= 1, got {k}")
    return IntPoly([1] * k)


def gaussian_binomial(n: int, k: int) -> IntPoly:
    """Gaussian binomial [n choose k]_q.

    Built by interleaved multiply-by-[n-k+i] / divide-by-[i] passes for
    i = 1..k; each partial product is itself a Gaussian binomial, so every
    division is exact.  Result is palindromic of degree k(n-k) with
    nonnegative coefficients summing to binomial(n, k).
    """
    if n < 0 or k < 0 or k > n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    c = [1]
    for i in range(1, k + 1):
        c = _mul_qint(c, n - k + i)
        c = _div_qint(c, i)
    return IntPoly(c)


def q_catalan(n: int) -> IntPoly:
    """q-Catalan polynomial via the product of [n+i]/[i] for i = 2..n.

    Degree n(n-1), palindromic, coefficients sum to the Catalan number.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n == 1:
        return IntPoly([1])
    c = _binomial_product_quotient(range(n + 2, 2 * n + 1), range(2, n + 1))
    return IntPoly(_require_nonnegative(c, f"q_catalan({n})"))


def q_catalan_via_binomial(n: int) -> IntPoly:
    """q-Catalan polynomial as [2n choose n]_q divided by [n+1].

    Independent construction route; must agree with q_catalan exactly.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    c = _div_qint(list(gaussian_binomial(2 * n, n).coeffs), n + 1)
    return IntPoly(_require_nonnegative(c, f"q_catalan_via_binomial({n})"))


def q_catalan_second(n: int) -> IntPoly:
    """The second q-analog of the Catalan numbers: [2]/[2n] * [2n choose n-1]_q.

    Degree (n-1)^2, palindromic, coefficient sum is again the Catalan number.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    c = list(gaussian_binomial(2 * n, n - 1).coeffs)
    c = _mul_qint(c, 2)
    c = _div_qint(c, 2 * n)
    return IntPoly(_require_nonnegative(c, f"q_catalan_second({n})"))


def q_catalan_general(n: int, m: int) -> IntPoly:
    """Generalized (m-)Catalan polynomial: product of [(m-1)n+i]/[i], i = 2..n.

    Coefficients sum to binomial(mn, n)/((m-1)n + 1); m = 2 recovers
    q_catalan(n).
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    if n == 1:
        return IntPoly([1])
    base = (m - 1) * n
    c = _binomial_product_quotient(range(base + 2, base + n + 1), range(2, n + 1))
    return IntPoly(_require_nonnegative(c, f"q_catalan_general({n}, {m})"))


# -- the family registry and incremental sweeps --------------------------------

@dataclass(frozen=True)
class Family:
    """One named family of q-Catalan analogs.

    build(n, m) is the from-scratch constructor.  exponents(n, m) gives,
    for n >= 2, multisets a and b with member(n) = prod(1 - q^a_i) /
    prod(1 - q^b_i), before common entries are cancelled.  At n = 1 every
    family is the constant 1 and has no exponent lists.  takes_m marks the
    families parameterized by m >= 2.
    """

    name: str
    takes_m: bool
    build: Callable[[int, int | None], IntPoly]
    exponents: Callable[[int, int | None], tuple[list[int], list[int]]]


def _mcatalan_exponents(n: int, m: int) -> tuple[list[int], list[int]]:
    base = (m - 1) * n
    return list(range(base + 2, base + n + 1)), list(range(2, n + 1))


# The builders are looked up when called, not bound here, so wrappers
# installed on this module's functions see every build.
FAMILIES: dict[str, Family] = {
    f.name: f
    for f in (
        Family(
            "catalan",
            False,
            lambda n, m: q_catalan(n),
            lambda n, m: (list(range(n + 2, 2 * n + 1)), list(range(2, n + 1))),
        ),
        Family(
            "catalan2",
            False,
            lambda n, m: q_catalan_second(n),
            lambda n, m: ([2] + list(range(n + 2, 2 * n)), [1] + list(range(2, n))),
        ),
        Family(
            "mcatalan",
            True,
            lambda n, m: q_catalan_general(n, m),
            _mcatalan_exponents,
        ),
    )
}


def get_family(name: str, m: int | None = None) -> Family:
    """The registry entry for name, after checking that m suits it.

    m is required (and must be >= 2) for families that take it; families
    that do not take m ignore it.
    """
    fam = FAMILIES.get(name)
    if fam is None:
        raise ValueError(f"unknown family {name!r}; choose from {tuple(FAMILIES)}")
    if fam.takes_m and (m is None or m < 2):
        raise ValueError(f"family {name!r} needs m >= 2, got {m}")
    return fam


def iter_family(
    name: str, n_from: int, n_to: int, m: int | None = None
) -> Iterator[IntPoly]:
    """Members n_from..n_to of a named family, in order, one at a time.

    The member at n_from is built from scratch; each later member is
    stepped from the one before.  With lists a(n), b(n) from the registry,

        member(n+1) = member(n) * prod(1 - q^u) / prod(1 - q^d),
        u = a(n+1) + b(n),  d = b(n+1) + a(n),  common entries cancelled,

    which for catalan is C_n (1 - q^(2n+1))(1 - q^(2n+2)) /
    ((1 - q^(n+1))(1 - q^(n+2))): 4 linear passes against about 2n for a
    rebuild.  The multiplies come first, so every division is exact by the
    cyclotomic argument of _binomial_product_quotient.  A step that needs
    at least as many passes as a rebuild (m-Catalan with m >= n, roughly)
    rebuilds instead.  Only the current member is held.  Bad arguments
    raise here, before any member is built.
    """
    fam = get_family(name, m)
    if not 1 <= n_from <= n_to:
        raise ValueError(f"need 1 <= n_from <= n_to, got {n_from}..{n_to}")
    return _sweep(fam, n_from, n_to, m)


def _step_factors(prev, cur) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Exponents (ups, downs) taking the member with lists prev to the one
    with lists cur, or None when that costs at least as many passes as a
    rebuild or either side has no lists."""
    if prev is None or cur is None:
        return None
    ups, downs = _cancel_common(cur[0] + prev[1], cur[1] + prev[0])
    if len(ups) + len(downs) >= sum(map(len, _cancel_common(*cur))):
        return None
    return ups, downs


def _sweep(fam: Family, n_from: int, n_to: int, m: int | None) -> Iterator[IntPoly]:
    c: list[int] = []
    prev = None  # exponent lists of member n - 1
    for n in range(n_from, n_to + 1):
        cur = fam.exponents(n, m) if n > 1 else None
        step = _step_factors(prev, cur)
        if step is None:
            p = fam.build(n, m)
            c = list(p.coeffs)
        else:
            ups, downs = step
            for u in ups:
                c = _mul_one_minus_qpow(c, u)
            for d in reversed(downs):
                c = _div_one_minus_qpow(c, d)
            p = IntPoly(_require_nonnegative(c, f"{fam.name} member n={n}"))
        yield p
        prev = cur


def quotient_poly(spec: "QuotientSpec") -> IntPoly:
    """Polynomial value of prod(1 - q^a_i) / prod(1 - q^b_i), if one exists.

    Fast path: full numerator, then one linear division pass per denominator
    factor.  If a pass leaves a remainder, fall back to a single long
    division of the full numerator by the full denominator; a remainder
    there means the quotient genuinely is not a polynomial and
    NotPolynomial is raised.
    """
    a, b = tuple(spec.a), tuple(spec.b)
    if len(a) != len(b):
        raise ValueError(f"sequence lengths differ: {len(a)} vs {len(b)}")
    _check_factor_list("a", a)
    _check_factor_list("b", b)
    try:
        return IntPoly(_binomial_product_quotient(a, b))
    except NonzeroRemainder:
        pass
    num = [1]
    for ai in a:
        num = _mul_one_minus_qpow(num, ai)
    den = [1]
    for bi in b:
        den = _mul_one_minus_qpow(den, bi)
    try:
        return poly_div_exact(IntPoly(num), IntPoly(den))
    except NonzeroRemainder as exc:
        raise NotPolynomial(f"quotient of a={a} by b={b} is not a polynomial") from exc


def major_index_histogram(n: int) -> IntPoly:
    """Distribution of the major index over ballot words, by brute force.

    Enumerates every binary word of length 2n with n zeros, n ones, and
    every prefix holding at least as many zeros as ones; the major index is
    the sum of the 1-indexed positions i with w_i > w_{i+1}.  With this
    convention the histogram matches q_catalan(n) coefficient for
    coefficient (the reversed 1/0 convention gives a shifted histogram and
    fails that cross-check).

    Exhaustive enumeration, so n is capped at 14 (~2.7M words).
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > MAJOR_INDEX_MAX_N:
        raise ValueError(f"exhaustive enumeration capped at n = {MAJOR_INDEX_MAX_N}, got {n}")
    hist = [0] * (n * (n - 1) + 1)
    total = 2 * n

    def walk(zeros: int, ones: int, last: int, maj: int) -> None:
        pos = zeros + ones
        if pos == total:
            hist[maj] += 1
            return
        if zeros < n:
            # appending 0 after a 1 is a descent at position pos
            walk(zeros + 1, ones, 0, maj + (pos if last == 1 else 0))
        if ones < zeros:
            walk(zeros, ones + 1, 1, maj)

    walk(0, 0, 0, 0)
    return IntPoly(hist)
