"""Exact distribution summaries, closed forms, and quotient presets."""

from fractions import Fraction

import oracles
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcatalan import polyq
from qcatalan.limitlaw import catalan_geco_params, geco_bound_check, tail_series
from qcatalan.moments import (
    catalan_moments_closed,
    central_moment,
    dist_summary,
    general_moments_closed,
)
from qcatalan.polyq import (
    SUM_LIMIT,
    IntPoly,
    QuotientSpec,
    QuotientTooLarge,
    preset,
    q_catalan,
    q_catalan_general,
    q_catalan_second,
    quotient_poly,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuotientSpec(a=(1, 2), b=(1,))
    with pytest.raises(ValueError):
        QuotientSpec(a=(0,), b=(1,))
    with pytest.raises(ValueError):
        QuotientSpec(a=(2,), b=(-3,))
    s = QuotientSpec(a=[4], b=[2])
    assert s.a == (4,) and s.b == (2,)


def test_dist_summary_examples():
    s = dist_summary(q_catalan(3))
    assert (s.mass, s.mean, s.variance, s.degree) == (5, 3, 4, 6)
    assert s.sigma == 2.0
    s = dist_summary(IntPoly([1]))
    assert (s.mass, s.mean, s.variance) == (1, 0, 0)
    s = dist_summary(IntPoly([1, 0, 1]))
    assert (s.mass, s.mean, s.variance) == (2, 1, 1)


def test_dist_summary_rejects():
    with pytest.raises(ValueError):
        dist_summary(IntPoly([]))
    with pytest.raises(ValueError):
        dist_summary(IntPoly([1, -1, 1]))


def test_mean_bounds_and_palindromic_mean():
    for n in range(2, 12):
        p = q_catalan(n)
        s = dist_summary(p)
        assert 0 <= s.mean <= s.degree
        assert s.mean == Fraction(s.degree, 2)


def test_catalan_closed():
    assert catalan_moments_closed(1) == (0, 0)
    assert catalan_moments_closed(2) == (1, 1)
    assert catalan_moments_closed(3) == (3, 4)
    with pytest.raises(ValueError):
        catalan_moments_closed(0)


def test_catalan_closed_matches_summary():
    for n in range(1, 21):
        s = dist_summary(q_catalan(n))
        assert (s.mean, s.variance) == catalan_moments_closed(n)


def test_general_closed():
    assert general_moments_closed(preset("catalan", 3)) == (3, 4)
    assert general_moments_closed(QuotientSpec(a=(5, 7), b=(5, 7))) == (0, 0)
    mean, var = general_moments_closed(preset("mcatalan", 2, 3))
    assert (mean, var) == (2, Fraction(8, 3))
    s = dist_summary(IntPoly([1, 0, 1, 0, 1]))
    assert (s.mean, s.variance) == (mean, var)


def test_central_moments():
    p = q_catalan(3)
    assert central_moment(p, 1) == 0
    assert central_moment(p, 2) == dist_summary(p).variance
    assert central_moment(p, 4) == Fraction(164, 5)
    for r in (3, 5, 7):
        assert central_moment(q_catalan(5), r) == 0
    with pytest.raises(ValueError):
        central_moment(p, 0)
    with pytest.raises(ValueError):
        central_moment(p, 9)
    with pytest.raises(ValueError):
        central_moment(IntPoly([]), 2)


@st.composite
def distributions(draw):
    # nonnegative lists with positive mass, half of them palindromes, which
    # dist_summary reads by their head
    cs = draw(st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=30))
    if draw(st.booleans()):
        cs = cs + cs[-2::-1]
    assume(any(cs))
    return IntPoly(cs)


@settings(max_examples=200, deadline=None)
@given(p=distributions())
def test_central_moments_equal_the_definition(p):
    for r in range(1, 9):
        assert central_moment(p, r) == oracles.central_moment(p.coeffs, r)
    assert central_moment(p, 2) == dist_summary(p).variance


def test_kurtosis_moves_toward_three():
    def kurt(n):
        p = q_catalan(n)
        s = dist_summary(p)
        return float(central_moment(p, 4) / s.variance ** 2)

    assert abs(kurt(20) - 3) < abs(kurt(10) - 3)


def test_preset_catalan():
    s = preset("catalan", 3)
    assert s.a == (5, 6) and s.b == (2, 3)
    assert s == QuotientSpec((5, 6), (2, 3))
    assert hash(s) == hash(QuotientSpec((5, 6), (2, 3)))
    for n in range(2, 11):
        assert quotient_poly(preset("catalan", n)) == q_catalan(n)


def test_preset_catalan2():
    assert preset("catalan2", 2).a == (2,)
    assert preset("catalan2", 2).b == (1,)
    assert preset("catalan2", 3).a == (5,)
    assert preset("catalan2", 3).b == (1,)
    assert preset("catalan2", 4).a == (6, 7)
    assert preset("catalan2", 4).b == (1, 3)
    # the preset must reproduce the polynomial definition exactly
    for n in range(2, 13):
        assert quotient_poly(preset("catalan2", n)) == q_catalan_second(n)


def test_preset_mcatalan():
    s = preset("mcatalan", 2, 3)
    assert s.a == (6,) and s.b == (2,)
    for n in range(2, 9):
        for m in (2, 3, 5):
            assert quotient_poly(preset("mcatalan", n, m)) == q_catalan_general(n, m)


def test_preset_rejects():
    with pytest.raises(ValueError):
        preset("nope", 5)
    with pytest.raises(ValueError):
        preset("catalan", 1)
    with pytest.raises(ValueError):
        preset("mcatalan", 5)
    with pytest.raises(ValueError):
        preset("mcatalan", 5, 1)


def test_preset_refuses_huge_lists_before_building(monkeypatch):
    def no_lists(*args):
        raise AssertionError("exponent lists were built")

    monkeypatch.setattr(polyq, "_signed", no_lists)
    for args in (("catalan", 10 ** 8), ("catalan2", 10 ** 12), ("mcatalan", 10 ** 8, 5)):
        with pytest.raises(QuotientTooLarge, match=f"more than {SUM_LIMIT} exponents"):
            preset(*args)
    with pytest.raises(QuotientTooLarge):
        tail_series(10 ** 8, 1.0, 4)
    with pytest.raises(QuotientTooLarge):
        geco_bound_check(
            lambda n: preset("catalan", n), catalan_geco_params(), [2], [10 ** 8]
        )


def test_preset_limit_counts_entries(monkeypatch):
    monkeypatch.setattr(polyq, "SUM_LIMIT", 5)
    assert len(preset("catalan", 6).a) == 5
    with pytest.raises(QuotientTooLarge):
        preset("catalan", 7)
    monkeypatch.undo()
    # the closed forms stay legal far past the construction kernel's limit
    assert len(preset("mcatalan", 1000, 5).a) == 999
    assert len(preset("catalan", 1000).b) == 999
