"""Exact moments of coefficient distributions and their closed forms.

A polynomial with nonnegative coefficients c_0..c_d is read as the
(unnormalized) distribution of a random variable X with P(X = k)
proportional to c_k.  Everything is computed with Fraction, so equality
against closed forms is literal equality, not a tolerance check.

For a quotient of binomial products prod(1 - q^{a_i}) / prod(1 - q^{b_i})
the mean and variance have closed forms in the exponent multisets alone:

    mean = sum(a_i - b_i) / 2,     variance = sum(a_i^2 - b_i^2) / 12,

and for the q-Catalan family (a_i = n+i, b_i = i for i = 2..n) these
specialize to mean n(n-1)/2 and variance n(n^2-1)/6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .polyq import IntPoly, _cancel_common, get_family

__all__ = [
    "QuotientSpec",
    "DistSummary",
    "dist_summary",
    "central_moment",
    "catalan_moments_closed",
    "general_moments_closed",
    "preset",
]

@dataclass(frozen=True)
class QuotientSpec:
    """Exponent multisets of a quotient prod(1-q^a_i) / prod(1-q^b_i).

    Both tuples must have the same length and positive entries; a and b are
    multisets, so repeats are meaningful and order is not.
    """

    a: tuple[int, ...]
    b: tuple[int, ...]
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(int(x) for x in self.a))
        object.__setattr__(self, "b", tuple(int(x) for x in self.b))
        if len(self.a) != len(self.b):
            raise ValueError(f"sequence lengths differ: {len(self.a)} vs {len(self.b)}")
        for name, vals in (("a", self.a), ("b", self.b)):
            if any(v < 1 for v in vals):
                raise ValueError(f"{name} entries must be positive integers, got {vals}")


@dataclass(frozen=True)
class DistSummary:
    """Exact mass, mean, and variance of a coefficient distribution."""

    mass: int
    mean: Fraction
    variance: Fraction
    degree: int

    @property
    def sigma(self) -> float:
        return math.sqrt(float(self.variance))


def _check_distribution(p: IntPoly) -> None:
    if p.is_zero():
        raise ValueError("zero polynomial carries no distribution")
    if any(c < 0 for c in p.coeffs):
        raise ValueError("negative coefficient; not a distribution")


def dist_summary(p: IntPoly) -> DistSummary:
    """Mass, mean, and variance of the coefficient distribution of p.

    mass = sum c_k, mean = sum k c_k / mass, and the variance comes from the
    second raw moment.  All exact; sigma on the returned summary is the only
    float.
    """
    _check_distribution(p)
    mass = 0
    s1 = 0
    s2 = 0
    for k, c in enumerate(p.coeffs):
        mass += c
        kc = k * c
        s1 += kc
        s2 += k * kc
    mean = Fraction(s1, mass)
    variance = Fraction(s2, mass) - mean * mean
    return DistSummary(mass=mass, mean=mean, variance=variance, degree=p.degree)


def central_moment(p: IntPoly, r: int) -> Fraction:
    """Exact r-th central moment, 1 <= r <= 8.

    One pass accumulates the raw power sums S_j = sum k^j c_k; the central
    moment is then the usual binomial expansion around the mean.  r = 1 is
    identically zero and r = 2 repeats the variance, both useful as checks.
    """
    if not 1 <= r <= 8:
        raise ValueError(f"need 1 <= r <= 8, got {r}")
    _check_distribution(p)
    raw = [0] * (r + 1)
    for k, c in enumerate(p.coeffs):
        if c == 0:
            continue
        term = c
        raw[0] += term
        for j in range(1, r + 1):
            term *= k
            raw[j] += term
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


def general_moments_closed(spec: QuotientSpec) -> tuple[Fraction, Fraction]:
    """Closed-form (mean, variance) for any quotient spec:
    sum(a - b)/2 and sum(a^2 - b^2)/12."""
    s1 = sum(spec.a) - sum(spec.b)
    s2 = sum(x * x for x in spec.a) - sum(x * x for x in spec.b)
    return Fraction(s1, 2), Fraction(s2, 12)


def preset(name: str, n: int, m: int | None = None) -> QuotientSpec:
    """A registry family at size n as a quotient spec, common pairs cancelled.

    catalan:  a = (n+2 .. 2n),        b = (2 .. n)
    catalan2: a = (2, n+2 .. 2n-1),   b = (1, 2 .. n-1), then cancellation;
              for n >= 3 this leaves a = (n+2 .. 2n-1), b = (1, 3, 4 .. n-1)
              and quotient_poly of it equals q_catalan_second(n)
    mcatalan: a = ((m-1)n+2 .. (m-1)n+n), b = (2 .. n), requires m >= 2

    The lists come from polyq.FAMILIES.  All presets need n >= 2 (at n = 1
    every family is the constant 1 and the factor lists would be empty).
    """
    fam = get_family(name, m)
    if n < 2:
        raise ValueError(f"presets need n >= 2, got {n}")
    a, b = _cancel_common(*fam.exponents(n, m))
    label = f"{name}(n={n},m={m})" if fam.takes_m else f"{name}(n={n})"
    return QuotientSpec(a=a, b=b, label=label)
