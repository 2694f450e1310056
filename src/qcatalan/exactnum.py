"""Bernoulli numbers and the series coefficients of ln(sinh(x/2)/(x/2)).

Everything here is exact rational arithmetic on stdlib Fraction values
(always reduced, positive denominator, unbounded precision), except the two
float diagnostics at the bottom whose job is to gauge how fast the exact
coefficients decay.

The expansion this module serves:

    ln(sinh(x/2)/(x/2)) = sum_{k>=1} B_{2k} / (2k (2k)!) * x^{2k}

with B_j the Bernoulli numbers in the B_1 = -1/2 convention.  The size of
the coefficients is governed by |B_{2k}| ~ 2 (2k)! / (2 pi)^{2k}, so the
k-th coefficient behaves like 2 / (2k (2 pi)^{2k}) and the series converges
geometrically on |x| < 2 pi.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .polyq import _Frozen

__all__ = [
    "BernoulliTable",
    "bernoulli_table",
    "log_sinh_series_coeff",
    "bernoulli_asymptotic",
    "bernoulli_tail_partial_sums",
]


class BernoulliTable(_Frozen):
    """Bernoulli numbers B_0 .. B_max_index as exact fractions; table[j] is B_j."""

    __slots__ = ("values",)
    values: tuple[Fraction, ...]

    def __init__(self, values: tuple[Fraction, ...]):
        object.__setattr__(self, "values", values)

    @property
    def max_index(self) -> int:
        return len(self.values) - 1

    def __getitem__(self, j: int) -> Fraction:
        if not 0 <= j <= self.max_index:
            raise IndexError(f"B_{j} not tabulated; table holds B_0..B_{self.max_index}")
        return self.values[j]


def bernoulli_table(max_k: int) -> BernoulliTable:
    """Tabulate B_0 .. B_{2*max_k} from the tangent numbers.

    The tangent numbers T_1..T_max_k come from the integer recurrence of
    Brent & Harvey ("Fast computation of Bernoulli, Tangent and Secant
    numbers", 2011), O(max_k^2) small big-int operations, and then

        B_{2k} = (-1)^{k-1} 2k T_k / (4^k (4^k - 1)),

    with B_0 = 1, B_1 = -1/2 and every odd index from 3 on equal to zero.
    Only the even indices cost anything; B_200 takes about a millisecond.
    """
    if max_k < 1:
        raise ValueError(f"need max_k >= 1, got {max_k}")
    tangent = [0, 1] + [0] * (max_k - 1)  # tangent[k] = T_k, index 0 unused
    for k in range(2, max_k + 1):
        tangent[k] = (k - 1) * tangent[k - 1]
    for k in range(2, max_k + 1):
        for j in range(k, max_k + 1):
            tangent[j] = (j - k) * tangent[j - 1] + (j - k + 2) * tangent[j]
    vals: list[Fraction] = [Fraction(1), Fraction(-1, 2)]
    for k in range(1, max_k + 1):
        four = 4 ** k
        b = Fraction(2 * k * tangent[k], four * (four - 1))
        vals += [b if k % 2 else -b, Fraction(0)]
    vals.pop()  # the table ends at B_{2*max_k}
    return BernoulliTable(tuple(vals))


def log_sinh_series_coeff(k: int, table: BernoulliTable) -> Fraction:
    """Exact x^{2k} coefficient of ln(sinh(x/2)/(x/2)): B_{2k}/(2k (2k)!)."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if 2 * k > table.max_index:
        raise ValueError(f"table holds B_0..B_{table.max_index}, need B_{2 * k}")
    return table[2 * k] / (2 * k * math.factorial(2 * k))


def bernoulli_asymptotic(k: int) -> float:
    """Leading asymptotic size of |B_{2k}|: 2 (2k)! / (2 pi)^{2k}.

    Evaluated in the log domain via lgamma so the factorial never overflows
    an intermediate; the final value itself can still exceed float range for
    k around 90 and beyond.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return math.exp(math.log(2.0) + math.lgamma(2 * k + 1) - 2 * k * math.log(2 * math.pi))


def bernoulli_tail_partial_sums(K: int, table: BernoulliTable) -> tuple[float, float]:
    """Float partial sums of |B_{2k}| / (2k (2k)!) splitting odd and even k.

    Returns (sum over odd k with 3 <= k <= K, sum over even k with
    2 <= k <= K).  Purely diagnostic: both shrink geometrically, which is
    what makes short truncations of the log-MGF expansion trustworthy.
    """
    if K < 2:
        raise ValueError(f"need K >= 2, got {K}")
    if 2 * K > table.max_index:
        raise ValueError(f"table holds B_0..B_{table.max_index}, need B_{2 * K}")
    # sizes[i] belongs to k = i + 2, so odd k sit at odd i
    sizes = [float(abs(log_sinh_series_coeff(k, table))) for k in range(2, K + 1)]
    return math.fsum(sizes[1::2]), math.fsum(sizes[::2])
