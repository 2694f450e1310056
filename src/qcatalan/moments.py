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

S_k = sum(a_i^{2k} - b_i^{2k}) are the even power sums.  power_sums is the
one place they are computed: the variance here, and the ratios and the
series of `limitlaw`, all read them from it.

The exponent multisets themselves, QuotientSpec and the family presets,
belong to `polyq`, which judges and builds them; this module only reads
them.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import NamedTuple, Sequence

from .polyq import IntPoly, QuotientSpec
from .polyq import preset  # noqa: F401  bench/tracer.py LAYERS reads moments.preset

__all__ = [
    "DistSummary",
    "dist_summary",
    "central_moment",
    "catalan_moments_closed",
    "general_moments_closed",
    "power_sums",
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


def _raw_sums(cs: Sequence[int], r: int) -> list[int]:
    """The raw power sums sum_k k^j c_k for j = 0..r, exact, each summed at
    C speed."""
    ks = range(len(cs))
    return [sum(map(operator.mul, map(pow, ks, itertools.repeat(j)), cs)) for j in range(r + 1)]


def dist_summary(p: IntPoly) -> DistSummary:
    """Mass, mean, and variance of the coefficient distribution of p.

    mass = sum c_k, mean = sum k c_k / mass, and the variance is the second
    central moment.  A palindrome of degree d is read by its head: the mean
    is d/2, and pairing k with d - k gives the variance
    sum_{k<d/2} (d - 2k)^2 c_k / (2 mass), summed at C speed.  Other input
    is read in full, through the raw sums of _raw_sums.  All exact; sigma
    on the returned summary is the only float.
    """
    palindromic = _check_distribution(p)
    cs, d = p.coeffs, p.degree
    if palindromic:
        gaps = range(d, 0, -2)  # d - 2k for every k < d/2
        half = len(gaps)
        mass = 2 * sum(itertools.islice(cs, half)) + (cs[half] if d % 2 == 0 else 0)
        s2 = sum(map(operator.mul, map(operator.mul, gaps, gaps), cs))
        variance = Fraction(s2, 2 * mass)
        return DistSummary(mass=mass, mean=Fraction(d, 2), variance=variance, degree=d)
    mass, s1, s2 = _raw_sums(cs, 2)
    mean = Fraction(s1, mass)
    variance = Fraction(s2, mass) - mean * mean
    return DistSummary(mass=mass, mean=mean, variance=variance, degree=d)


def central_moment(p: IntPoly, r: int) -> Fraction:
    """Exact r-th central moment, 1 <= r <= 8.

    The raw power sums S_j = sum k^j c_k come from _raw_sums; the central
    moment is then the usual binomial expansion around the mean.  r = 1 is
    identically zero and r = 2 repeats the variance, both useful as checks.
    """
    if not 1 <= r <= 8:
        raise ValueError(f"need 1 <= r <= 8, got {r}")
    _check_distribution(p)
    raw = _raw_sums(p.coeffs, r)
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


def power_sums(spec: QuotientSpec, k_max: int) -> list[int]:
    """S_0..S_k_max with S_k = sum(a_i^{2k}) - sum(b_i^{2k}), exact, in one
    sweep; S_0 = 0 because a and b have the same length.

    Incremental squaring: each exponent list is walked once with one big-int
    multiply per k, which keeps 30-term sweeps over thousand-entry specs
    comfortably under a second.
    """
    if k_max < 0:
        raise ValueError(f"need k_max >= 0, got {k_max}")
    out = [0] * (k_max + 1)
    for xs, sign in ((spec.a, 1), (spec.b, -1)):
        for x in xs:
            sq = x * x
            p = 1
            for k in range(1, k_max + 1):
                p *= sq
                out[k] += sign * p
    return out


def general_moments_closed(spec: QuotientSpec) -> tuple[Fraction, Fraction]:
    """Closed-form (mean, variance) for any quotient spec:
    sum(a - b)/2 and S_1/12."""
    return Fraction(sum(spec.a) - sum(spec.b), 2), Fraction(power_sums(spec, 1)[1], 12)
