"""Exact moments of coefficient distributions and their closed forms.

A polynomial with nonnegative coefficients c_0..c_d is read as the
(unnormalized) distribution of a random variable X with P(X = k)
proportional to c_k.  Everything is computed with Fraction, so equality
against closed forms is literal equality, not a tolerance check.

For a quotient of binomial products prod(1 - q^{a_i}) / prod(1 - q^{b_i})
the mean and variance have closed forms in the exponent multisets alone:

    mean = sum(a_i - b_i) / 2,     variance = S_1 / 12,

and for the q-Catalan family (a_i = n+i, b_i = i for i = 2..n) these
specialize to mean n(n-1)/2 and variance n(n^2-1)/6.

S_k = sum(a_i^{2k} - b_i^{2k}) are the even power sums.  ExponentLaw is the
one place they are computed, in one sweep of count-weighted powers
e[x] x^{2k} over the distinct exponents x, with e[x] = #a - #b, so S_0 = 0
comes out of the counts: it gives the closed mean and variance, the ratios
S_k/S_1^k and the series of the log-mgf, and the functions of `limitlaw`
that take a spec read them from it.

The exponent multisets themselves, QuotientSpec and the family presets,
belong to `polyq`, which judges and builds them; this module only reads
them.
"""

from __future__ import annotations

import collections
import itertools
import math
import operator
from fractions import Fraction
from typing import NamedTuple

from .exactnum import bernoulli_table, log_sinh_series_coeff
from .polyq import IntPoly, QuotientSpec
from .polyq import preset  # noqa: F401  bench/tracer.py LAYERS reads moments.preset

__all__ = [
    "DistSummary",
    "dist_summary",
    "central_moment",
    "catalan_moments_closed",
    "general_moments_closed",
    "ExponentLaw",
]


class DistSummary(NamedTuple):
    """Exact mass, mean, and variance of a coefficient distribution."""

    mass: int
    mean: Fraction
    variance: Fraction
    degree: int

    @property
    def sigma(self) -> float:
        return math.sqrt(float(self.variance))


def _check_distribution(p: IntPoly) -> bool:
    """Raise ValueError unless p is nonzero with nonnegative coefficients,
    and return whether p is palindromic.  A palindrome's head
    c_0..c_{d//2} holds every coefficient, so only the head is read."""
    if p.is_zero():
        raise ValueError("zero polynomial carries no distribution")
    cs = p.coeffs
    palindromic = p.is_palindromic()
    if min(itertools.islice(cs, len(cs) // 2 + 1) if palindromic else cs) < 0:
        raise ValueError("negative coefficient; not a distribution")
    return palindromic


def dist_summary(p: IntPoly) -> DistSummary:
    """Mass, mean, and variance of the coefficient distribution of p.

    Every input is read in full, in one pass of three chained prefix sums.
    With y = d - k their last values are A = sum c_k, B = sum (y + 1) c_k
    and C = sum (y + 1)(y + 2)/2 c_k, so sum y c_k = B - A and
    sum y^2 c_k = 2C - 3B + A.  The first two chains end at differences of
    the third's last three values, the only ones kept.  All exact; sigma on
    the returned summary is the only float.
    """
    _check_distribution(p)
    chained = itertools.accumulate(itertools.accumulate(itertools.accumulate(p.coeffs)))
    # the third chain's last three values; zeros stand in before its first
    before_last, last, c = collections.deque(itertools.chain((0, 0, 0), chained), maxlen=3)
    b = c - last
    mass = b - (last - before_last)
    y_mean = Fraction(b - mass, mass)
    variance = Fraction(2 * c - 3 * b + mass, mass) - y_mean * y_mean
    return DistSummary(mass=mass, mean=p.degree - y_mean, variance=variance, degree=p.degree)


def central_moment(p: IntPoly, r: int) -> Fraction:
    """Exact r-th central moment, 1 <= r <= 8.

    The raw power sums S_j = sum k^j c_k are each summed at C speed; the
    central moment is then the usual binomial expansion around the mean.
    r = 1 is identically zero and r = 2 repeats the variance, both useful
    as checks.
    """
    if not 1 <= r <= 8:
        raise ValueError(f"need 1 <= r <= 8, got {r}")
    _check_distribution(p)
    cs = p.coeffs
    ks = range(len(cs))
    raw = [sum(map(operator.mul, map(pow, ks, itertools.repeat(j)), cs)) for j in range(r + 1)]
    mass = raw[0]
    mean = Fraction(raw[1], mass)
    acc = Fraction(0)
    for j in range(r + 1):
        acc += math.comb(r, j) * Fraction(raw[j], mass) * (-mean) ** (r - j)
    return acc


def catalan_moments_closed(n: int) -> tuple[Fraction, Fraction]:
    """Closed-form (mean, variance) of the q-Catalan coefficient law:
    n(n-1)/2 and n(n^2-1)/6."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return Fraction(n * (n - 1), 2), Fraction(n * (n * n - 1), 6)


class ExponentLaw:
    """What the exponents of spec alone say about its coefficient law, up
    to k_max: the closed mean sum(a - b)/2 and variance S_1/12 (Fractions),
    and sums[k] = S_k = sum(a_i^{2k}) - sum(b_i^{2k}) for k = 0..k_max,
    exact.

    The spec is counted once into its signed multiset, e[x] = #a - #b for
    each distinct exponent x, so S_k = sum(e[x] x^{2k}).  One running-power
    sweep over that one list gives every S_k: it starts at the counts, whose
    sum is S_0 = 0 because a and b have the same length, and each next list
    is the last times the squares x^2, one C-speed map per k.  Repeated
    exponents and those on both sides cost one entry.
    """

    def __init__(self, spec: QuotientSpec, k_max: int):
        if k_max < 0:
            raise ValueError(f"need k_max >= 0, got {k_max}")
        counts = collections.Counter(spec.a)
        counts.subtract(spec.b)
        squares, powers = list(map(operator.mul, counts, counts)), list(counts.values())
        sums = [sum(powers)]
        for _ in range(max(k_max, 1)):  # S_1 is swept at k_max = 0 too, for the variance
            sums.append(sum(powers := list(map(operator.mul, powers, squares))))
        self.k_max = k_max
        self.sums = sums[: k_max + 1]
        self.mean = Fraction(sum(spec.a) - sum(spec.b), 2)
        self.variance = Fraction(sums[1], 12)

    def ratios(self) -> list[float]:
        """The normalized power-sum ratios S_k / S_1^k for k = 2..k_max.

        Each is one int/int true division, which is correctly rounded and
        raises OverflowError only when the ratio itself leaves float range.
        Requires k_max >= 2 and S_1 > 0, i.e. positive variance.
        """
        if self.k_max < 2:
            raise ValueError(f"need k_max >= 2, got {self.k_max}")
        sums = self.sums
        if sums[1] <= 0:
            raise ValueError(f"S_1 = {sums[1]} <= 0; ratio undefined")
        return [sums[k] / sums[1] ** k for k in range(2, self.k_max + 1)]

    def series(self) -> list[float]:
        """Float values of the t^{2k} coefficients B_{2k} S_k / (2k (2k)! var^k)
        of the standardized log-mgf, k = 1..k_max.

        One bernoulli_table(k_max) gives B_2..B_{2 k_max}; each coefficient
        is an exact rational until its one float conversion, so a list built
        once serves every t.  Requires k_max >= 1 and S_1 > 0.
        """
        var = self.variance
        if var <= 0:
            raise ValueError(f"S_1 = {12 * var} <= 0; standardization undefined")
        table = bernoulli_table(self.k_max)
        return [
            float(log_sinh_series_coeff(k, table) * self.sums[k] / var ** k)
            for k in range(1, self.k_max + 1)
        ]


def general_moments_closed(spec: QuotientSpec) -> tuple[Fraction, Fraction]:
    """Closed-form (mean, variance) for any quotient spec:
    sum(a - b)/2 and S_1/12; see ExponentLaw."""
    law = ExponentLaw(spec, 1)
    return law.mean, law.variance
