"""The head routes against the full-list oracles.

A palindrome c_k = c_{d-k} is read by its head c_0..c_{d//2} in
`dist_summary`, the distribution check and the log-concavity and
unimodality scans; anything else is read in full.  Each route must give
exactly what the oracle gives on every coefficient.  `StandardizedLaw`
reads its full list but takes its mean from `dist_summary`'s head route,
so its columns are checked here too.
"""

import math
import warnings
from array import array

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcatalan.limitlaw import StandardizedLaw
from qcatalan.moments import _check_distribution, dist_summary
from qcatalan.polyq import FAMILIES, IntPoly, gaussian_binomial
from qcatalan.shape import (
    _lc_violations,
    interior_unimodal,
    min_logconcave_t,
    min_logconcave_t_bruteforce,
    shape_report,
)

VALUES = st.sampled_from([0, 0, 1, 2, 3, 5, 9, 40, 10 ** 30])


@st.composite
def coefficient_lists(draw):
    # palindromes of even and odd degree from 0 up, with interior zeros and
    # plateaus; palindromes with one mirrored negative pair (or a negative
    # middle); and lists that are mostly not palindromes
    head = [draw(st.integers(1, 9))] + draw(st.lists(VALUES, max_size=25))
    kind = draw(st.sampled_from(["even", "odd", "negative", "other"]))
    if kind == "odd":
        return IntPoly(head + head[::-1])
    cs = head + head[-2::-1]
    if kind == "negative":
        i = draw(st.integers(0, len(head) - 1))
        cs[i] = cs[-1 - i] = -draw(st.integers(1, 9))
    elif kind == "other":
        cs = head + draw(st.lists(VALUES, max_size=25))
    return IntPoly(cs)


@st.composite
def kernel_members(draw):
    name = draw(st.sampled_from(["catalan", "catalan2", "mcatalan", "binomial"]))
    n = draw(st.integers(1, 24))
    if name == "binomial":
        return gaussian_binomial(n, draw(st.integers(0, n)))
    m = draw(st.integers(2, 5)) if name == "mcatalan" else None
    return FAMILIES[name].build(min(n, 12) if m else n, m)


POLYS = st.one_of(coefficient_lists(), kernel_members())


def is_distribution(p):
    return bool(p.coeffs) and min(p.coeffs) >= 0


DISTRIBUTIONS = POLYS.filter(is_distribution)


@settings(max_examples=400, deadline=None)
@given(p=POLYS)
def test_dist_summary_equals_the_full_list_oracle(p):
    try:
        want = oracles.dist_summary(p.coeffs)
    except ValueError:
        with pytest.raises(ValueError):
            dist_summary(p)
        return
    assert dist_summary(p) == want


@settings(max_examples=400, deadline=None)
@given(p=POLYS)
def test_distribution_check_refuses_exactly_what_the_full_check_refuses(p):
    if not is_distribution(p):
        with pytest.raises(ValueError):
            _check_distribution(p)
    else:
        assert _check_distribution(p) == (p.coeffs == p.coeffs[::-1])


@settings(max_examples=400, deadline=None)
@given(p=DISTRIBUTIONS)
def test_trim_depth_and_first_violation_equal_the_full_scan(p):
    cs, d = p.coeffs, p.degree
    viols = oracles.lc_violations(cs)
    report = shape_report(p, "x", 0)
    assert report.first_lc_violation_at_t0 == (viols[0] if viols else None)
    needed = max((min(k, d - k) for k in viols), default=0)
    assert report.min_logconcave_t == (needed if needed <= (d - 2) // 2 else None)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert min_logconcave_t(p) == report.min_logconcave_t == min_logconcave_t_bruteforce(p)
    if p.is_palindromic():
        head = _lc_violations(cs, True)
        assert sorted(set(head) | {d - k for k in head}) == viols
    else:
        assert _lc_violations(cs, False) == viols


@settings(max_examples=400, deadline=None)
@given(p=POLYS.filter(lambda p: len(p.coeffs) >= 3))
def test_interior_unimodal_equals_its_oracle(p):
    want = oracles.interior_unimodal(p.coeffs)
    assert interior_unimodal(p) == want
    if is_distribution(p):
        report = shape_report(p, "x", 0)
        assert (report.interior_unimodal, report.first_unimodality_violation) == want


@settings(max_examples=300, deadline=None)
@given(p=DISTRIBUTIONS.filter(lambda p: oracles.dist_summary(p.coeffs).variance > 0))
def test_standardized_law_mirrors_its_columns_bit_for_bit(p):
    law = StandardizedLaw(p)
    mu = float(oracles.dist_summary(p.coeffs).mean)
    support = [(k, c) for k, c in enumerate(p.coeffs) if c > 0]
    assert law.offsets.tobytes() == array("d", [k - mu for k, _ in support]).tobytes()
    assert law.log_weights.tobytes() == array("d", [math.log(c) for _, c in support]).tobytes()


@pytest.mark.parametrize("coeffs", [[1, -1, 1], [2, -1, -1, 2], [0, 1, -1, 1]])
def test_a_negative_coefficient_in_the_head_is_refused_everywhere(coeffs):
    p = IntPoly(coeffs)
    refusing = (
        dist_summary, _check_distribution, min_logconcave_t, min_logconcave_t_bruteforce,
        StandardizedLaw, lambda p: shape_report(p, "x", 0),
    )
    for consumer in refusing:
        with pytest.raises(ValueError, match="negative coefficient"):
            consumer(p)
