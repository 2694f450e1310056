"""The control family: Gaussian binomials, whose answers are proven.

[m+n choose n]_q = prod_{i=1..n} (1 - q^(m+i)) / (1 - q^i) is a quotient
the kernel builds like any other, and each layer has a theorem about it,
so these checks do not lean on the layer's own oracle:

- Sylvester (1878): the coefficients are unimodal.
- Mann & Whitney (1947): the coefficient law is that of their U statistic,
  with mean mn/2 and variance mn(m+n+1)/12.
- Every numerator factor starts at degree m + 1, so modulo q^(m+1) the
  quotient is prod_{i=1..n} 1 / (1 - q^i), partitions into parts <= n:
  coefficient k is p(k), the number of partitions of k, for k <= min(m, n).
- p(k)^2 > p(k-1) p(k+1) for every k > 25 and fails at k = 25 (DeSalvo &
  Pak, Ramanujan J. 2015), so the log-concavity trim depth is at least 25
  once min(m, n) >= 26.  That it is exactly 25 is measured, not proven.
"""

import functools
from fractions import Fraction

from test_partition_heads import K_MAX, partition_counts

from qcatalan.moments import dist_summary
from qcatalan.polyq import QuotientSpec, quotient_poly
from qcatalan.shape import interior_unimodal, min_logconcave_t

# (m, n): the squares, and two rectangles
BOXES = [(n, n) for n in range(2, 61)] + [(40, 80), (30, 150)]
PARTITIONS = partition_counts(range(1, K_MAX + 1))


@functools.cache
def box(m, n):
    return quotient_poly(QuotientSpec(a=range(m + 1, m + n + 1), b=range(1, n + 1)))


def test_partition_numbers():
    assert PARTITIONS[:11] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert PARTITIONS[25] ** 2 < PARTITIONS[24] * PARTITIONS[26]
    assert all(PARTITIONS[k] ** 2 > PARTITIONS[k - 1] * PARTITIONS[k + 1] for k in range(26, 100))


def test_gaussian_binomials_are_unimodal():
    for m, n in BOXES:
        assert interior_unimodal(box(m, n)) == (True, None), (m, n)


def test_gaussian_binomials_have_the_mann_whitney_moments():
    for m, n in BOXES:
        s = dist_summary(box(m, n))
        assert (s.mean, s.variance) == (Fraction(m * n, 2), Fraction(m * n * (m + n + 1), 12)), (m, n)


def test_gaussian_binomial_heads_are_partition_numbers():
    for m, n in BOXES:
        head = min(m, n) + 1
        assert list(box(m, n).coeffs[:head]) == PARTITIONS[:head], (m, n)


def test_gaussian_binomials_trim_at_the_last_partition_failure():
    for m, n in BOXES:
        if min(m, n) >= 26:
            assert min_logconcave_t(box(m, n)) == 25, (m, n)
