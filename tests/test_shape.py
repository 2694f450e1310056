"""Unimodality and log-concavity scanners, including the oracle cross-check."""

import random
import warnings

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcatalan.polyq import IntPoly, gaussian_binomial, poly_mul, q_catalan, qint
from qcatalan.shape import (
    interior_unimodal,
    min_logconcave_t,
    min_logconcave_t_bruteforce,
    scan_family,
    shape_report,
)


def quiet_min_t(p):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return min_logconcave_t(p)


def quiet_brute(p):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return min_logconcave_t_bruteforce(p)


def test_interior_unimodal_examples():
    assert interior_unimodal(q_catalan(3)) == (True, None)
    assert interior_unimodal(IntPoly([1, 1, 0, 1])) == (True, None)
    assert interior_unimodal(q_catalan(16)) == (True, None)
    ok, k = interior_unimodal(q_catalan(4))
    assert not ok and 1 <= k <= q_catalan(4).degree - 1


def test_interior_unimodal_violation_index():
    # interior (2,1,2): strict fall at index 2, strict rise at index 3
    assert interior_unimodal(IntPoly([9, 2, 1, 2, 9])) == (False, 3)


def test_interior_unimodal_rejects_tiny():
    with pytest.raises(ValueError):
        interior_unimodal(IntPoly([1, 1]))
    with pytest.raises(ValueError):
        interior_unimodal(IntPoly([7]))


def test_min_logconcave_t_examples():
    assert quiet_min_t(qint(5)) == 0
    assert quiet_min_t(q_catalan(3)) == 1
    assert quiet_brute(q_catalan(3)) == 1


def test_min_logconcave_t_none_when_uncoverable():
    # lone interior zero: the bad triple survives every nonempty trim
    assert quiet_min_t(IntPoly([1, 1, 0, 1, 1])) is None
    assert quiet_brute(IntPoly([1, 1, 0, 1, 1])) is None


def test_scanners_reject_negative_coefficients():
    for scan in (min_logconcave_t, min_logconcave_t_bruteforce):
        with pytest.raises(ValueError, match="negative coefficient"):
            scan(IntPoly([1, -1, 1]))


def test_min_logconcave_t_warnings():
    with pytest.warns(UserWarning):
        min_logconcave_t(IntPoly([1, 2, 4, 8, 16]))  # not palindromic
    with pytest.warns(UserWarning):
        min_logconcave_t(IntPoly([1, 0, 1]))  # too short to trim


def test_min_logconcave_t_bound_when_present():
    for n in range(3, 12):
        t = quiet_min_t(q_catalan(n))
        if t is not None:
            assert 2 * t < q_catalan(n).degree


def test_scanner_matches_bruteforce_on_families():
    for n in range(2, 16):
        p = q_catalan(n)
        assert quiet_min_t(p) == quiet_brute(p)


def test_scanner_matches_bruteforce_random():
    rng = random.Random(991)
    for _ in range(300):
        coeffs = [rng.choice([0, 1, 1, 2, 3, 5, 9]) for _ in range(rng.randrange(2, 40))]
        coeffs.append(rng.randrange(1, 6))
        p = IntPoly(coeffs)
        assert quiet_min_t(p) == quiet_brute(p), coeffs


@st.composite
def palindromes(draw):
    # nonnegative, with zeros and plateaus common, degree >= 2 and a
    # positive end so that IntPoly keeps the whole palindrome
    half = [draw(st.integers(1, 9))] + draw(st.lists(st.sampled_from([0, 1, 2, 3, 5, 9, 40]), max_size=20))
    middle = draw(st.lists(st.integers(0, 50), max_size=1))
    coeffs = half + middle + half[::-1]
    return IntPoly(coeffs if len(coeffs) >= 3 else [1, *coeffs, 1])


@settings(max_examples=400, deadline=None)
@given(p=palindromes())
def test_scanners_equal_brute_force_on_random_palindromes(p):
    assert p.is_palindromic()
    assert quiet_min_t(p) == quiet_brute(p)
    assert interior_unimodal(p) == oracles.interior_unimodal(p.coeffs)


def test_unimodality_oracle_examples():
    assert oracles.interior_unimodal((9, 2, 1, 2, 9)) == (False, 3)
    assert oracles.interior_unimodal((1, 1, 0, 1)) == (True, None)
    assert oracles.interior_unimodal((5, 0, 5)) == (True, None)
    assert oracles.interior_unimodal((1, 3, 1, 1, 4, 4, 1)) == (False, 4)


def test_reversal_invariance():
    rng = random.Random(992)
    for _ in range(100):
        coeffs = [rng.randrange(0, 7) for _ in range(rng.randrange(4, 30))]
        coeffs[0] = coeffs[-1] = 1
        p, rev = IntPoly(coeffs), IntPoly(coeffs[::-1])
        assert quiet_min_t(p) == quiet_min_t(rev)
        assert interior_unimodal(p)[0] == interior_unimodal(rev)[0]


def test_logconcave_at_zero_trim_implies_unimodal():
    # products of q-integers stay log-concave, and positive log-concave
    # sequences are unimodal
    for parts in ((3, 4), (2, 2, 5), (6, 3, 2)):
        p = IntPoly([1])
        for k in parts:
            p = poly_mul(p, qint(k))
        assert quiet_min_t(p) == 0
        assert all(c > 0 for c in p.coeffs[1:-1])
        assert interior_unimodal(p) == (True, None)
    g = gaussian_binomial(9, 4)
    if quiet_min_t(g) == 0:
        assert interior_unimodal(g) == (True, None)


def test_shape_report_fields():
    r = shape_report(q_catalan(4), "catalan", 4)
    assert r.family == "catalan" and r.n == 4 and r.degree == 12
    assert not r.interior_unimodal
    assert 1 <= r.first_unimodality_violation <= 11
    assert r.min_logconcave_t == quiet_brute(q_catalan(4))
    assert r.first_lc_violation_at_t0 == 1


def test_shape_report_degenerate_degrees():
    r = shape_report(IntPoly([1, 1]), "catalan2", 2)
    assert r.interior_unimodal and r.first_unimodality_violation is None
    assert r.min_logconcave_t is None  # no nonempty trimmed range exists
    r = shape_report(IntPoly([1]), "catalan2", 1)
    assert r.interior_unimodal and r.degree == 0


def test_scan_family_ordering_and_values():
    reports = scan_family("catalan", 16, 24)
    assert [r.n for r in reports] == list(range(16, 25))
    assert all(r.interior_unimodal for r in reports)
    low = scan_family("catalan", 2, 15)
    assert any(not r.interior_unimodal for r in low)


def test_scan_family_mcatalan():
    reports = scan_family("mcatalan", 2, 6, m=3)
    assert [r.n for r in reports] == [2, 3, 4, 5, 6]
    assert all(r.family == "mcatalan" for r in reports)


def test_scan_family_rejects():
    with pytest.raises(ValueError):
        scan_family("mcatalan", 2, 5)
    with pytest.raises(ValueError):
        scan_family("unknown", 2, 5)
    with pytest.raises(ValueError):
        scan_family("catalan", 5, 2)


def test_shape_report_matches_separate_scanners():
    for n in (5, 9, 16, 30):
        p = q_catalan(n)
        r = shape_report(p, "catalan", n)
        assert r.min_logconcave_t == quiet_min_t(p) == quiet_brute(p)
        cs = p.coeffs
        first = next(
            (k for k in range(1, len(cs) - 1) if cs[k] * cs[k] < cs[k - 1] * cs[k + 1]), None
        )
        assert r.first_lc_violation_at_t0 == first
