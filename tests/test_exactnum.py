"""Bernoulli table and log-sinh series coefficients."""

import math
from fractions import Fraction

import pytest

from qcatalan.exactnum import (
    bernoulli_asymptotic,
    bernoulli_table,
    bernoulli_tail_partial_sums,
    log_sinh_series_coeff,
)

from oracles import bernoulli_by_recurrence

TABLE = bernoulli_table(40)


def test_known_values():
    assert TABLE[0] == 1
    assert TABLE[1] == Fraction(-1, 2)
    assert TABLE[2] == Fraction(1, 6)
    assert TABLE[4] == Fraction(-1, 30)
    assert TABLE[12] == Fraction(-691, 2730)


def test_odd_indices_vanish():
    assert all(TABLE[j] == 0 for j in range(3, TABLE.max_index, 2))


def test_even_signs_alternate():
    for k in range(1, 20):
        assert (TABLE[2 * k] > 0) == (k % 2 == 1)


def test_tangent_route_equals_recurrence_through_b200():
    for max_k in (1, 2, 3, 100):
        assert bernoulli_table(max_k).values == bernoulli_by_recurrence(max_k)


def test_defining_recurrence_residual():
    # sum_{j=0}^{m} binomial(m+1, j) B_j = 0 for every m >= 1
    for m in range(1, TABLE.max_index + 1):
        acc = sum(math.comb(m + 1, j) * TABLE[j] for j in range(m + 1))
        assert acc == 0


def test_table_bounds():
    assert TABLE.max_index == 80
    with pytest.raises(IndexError):
        TABLE[81]
    with pytest.raises(IndexError):
        TABLE[-1]
    with pytest.raises(ValueError):
        bernoulli_table(0)


def test_log_sinh_coeffs():
    assert log_sinh_series_coeff(1, TABLE) == Fraction(1, 24)
    assert log_sinh_series_coeff(2, TABLE) == Fraction(-1, 2880)
    k = 7
    assert log_sinh_series_coeff(k, TABLE) == TABLE[2 * k] / (2 * k * math.factorial(2 * k))
    with pytest.raises(ValueError):
        log_sinh_series_coeff(0, TABLE)
    with pytest.raises(ValueError):
        log_sinh_series_coeff(41, TABLE)


def test_series_sums_to_log_sinh():
    x = 0.5
    partial = math.fsum(
        float(log_sinh_series_coeff(k, TABLE)) * x ** (2 * k) for k in range(1, 11)
    )
    direct = math.log(math.sinh(x / 2) / (x / 2))
    assert abs(partial - direct) < 1e-12


def _asymptotic_ratio(k):
    return float(abs(TABLE[2 * k])) / bernoulli_asymptotic(k)


def test_asymptotic_ratio():
    assert abs(_asymptotic_ratio(20) - 1) < 0.01
    assert abs(_asymptotic_ratio(5) - 1) < 0.10
    rs = [_asymptotic_ratio(k) for k in (5, 8, 11, 14)]
    assert all(1 < r < 1.1 for r in rs)
    assert rs == sorted(rs, reverse=True)
    with pytest.raises(ValueError):
        bernoulli_asymptotic(0)


def test_asymptotic_saturates():
    # excess over the asymptotic shrinks like 4^-k: strictly decreasing
    # while it stays above float noise, indistinguishable from exact later
    ratios = [_asymptotic_ratio(k) for k in range(5, 21)]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert all(abs(_asymptotic_ratio(k) - 1) < 1e-9 for k in range(16, 41))


def test_tail_partial_sums():
    odd, even = bernoulli_tail_partial_sums(30, TABLE)
    assert 0 < odd < even < 1e-3
    # geometric decay: adding terms beyond K=20 moves nothing visible
    odd20, even20 = bernoulli_tail_partial_sums(20, TABLE)
    assert abs(odd - odd20) < 1e-15
    assert abs(even - even20) < 1e-15
    with pytest.raises(ValueError):
        bernoulli_tail_partial_sums(1, TABLE)
    with pytest.raises(ValueError):
        bernoulli_tail_partial_sums(41, TABLE)


def test_tail_partial_sums_equal_the_per_k_formula():
    def partial(ks):
        return math.fsum(
            float(abs(TABLE[2 * k]) / (2 * k * math.factorial(2 * k))) for k in ks
        )

    for K in range(2, 41):
        expected = (partial(range(3, K + 1, 2)), partial(range(2, K + 1, 2)))
        assert bernoulli_tail_partial_sums(K, TABLE) == expected
