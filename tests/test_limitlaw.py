"""Series truncations, condition ratios, and distance-to-normal diagnostics."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcatalan.exactnum import bernoulli_table
from qcatalan.limitlaw import (
    GecoParams,
    StandardizedLaw,
    catalan_geco_params,
    condition_ratio,
    condition_ratios,
    exact_standardized_mgf,
    geco_bound_check,
    ks_distance_to_normal,
    log_mgf_truncated,
    mcatalan_geco_params,
    power_sum_diff,
    series_coefficients,
    series_terms,
    split_tail,
    tail_series,
)
from qcatalan.moments import central_moment, general_moments_closed, power_sums
from qcatalan.polyq import (
    IntPoly,
    QuotientSpec,
    get_family,
    iter_family,
    preset,
    q_catalan,
    q_catalan_general,
    quotient_poly,
)

import oracles

# the oracles' table: B_0..B_90, past the largest K + 10 below
TABLE = bernoulli_table(45)


def drift(spec, t):
    mean, var = general_moments_closed(spec)
    return float(mean) * t / math.sqrt(float(var))


def test_geco_params_validation():
    GecoParams(1.0, -0.1, -0.1)
    with pytest.raises(ValueError):
        GecoParams(0.0, -0.1, -0.1)
    with pytest.raises(ValueError):
        GecoParams(1.0, 0.0, -0.1)
    with pytest.raises(ValueError):
        GecoParams(1.0, -0.1, 0.1)
    for bad in (math.inf, -math.inf, math.nan):
        for args in ((bad, -0.1, -0.1), (1.0, bad, -0.1), (1.0, -0.1, bad)):
            with pytest.raises(ValueError):
                GecoParams(*args)


def test_geco_presets():
    p = catalan_geco_params()
    assert abs(p.alpha - 32 * math.sqrt(3) / 3) < 1e-12
    assert p.beta == -1 / 6 and p.gamma == -1 / 3
    assert abs(mcatalan_geco_params(3).alpha - 8 * math.sqrt(6)) < 1e-12
    assert abs(p.bound(10, 2) - 10 ** (-1 / 3) * (p.alpha * 10 ** (-1 / 6)) ** 4) < 1e-9
    with pytest.raises(ValueError):
        mcatalan_geco_params(1)
    # m has one judge, the registry, whichever entry point takes it
    for m in (None, 1):
        for call in (
            lambda: get_family("mcatalan", m),
            lambda: q_catalan_general(3, m),
            lambda: preset("mcatalan", 3, m),
            lambda: iter_family("mcatalan", 2, 3, m),
            lambda: mcatalan_geco_params(m),
        ):
            with pytest.raises(ValueError, match="needs m >= 2"):
                call()


def test_m_must_be_an_integer():
    # m goes through operator.index at its one judge, as exponents do, so a
    # non-integer m is refused before an envelope or a range sees it
    for call in (
        lambda m: get_family("mcatalan", m),
        lambda m: q_catalan_general(5, m),
        lambda m: preset("mcatalan", 5, m),
        lambda m: iter_family("mcatalan", 2, 5, m),
        mcatalan_geco_params,
    ):
        with pytest.raises(TypeError):
            call(2.5)
        with pytest.raises(ValueError, match="needs m >= 2"):
            call(True)


def test_power_sum_diff():
    spec = preset("catalan", 3)
    assert power_sum_diff(spec, 1) == 48
    assert power_sum_diff(spec, 2) == 1824
    assert power_sum_diff(preset("catalan", 2), 1) == 12
    assert power_sum_diff(QuotientSpec(a=(9, 2), b=(9, 2)), 3) == 0
    with pytest.raises(ValueError):
        power_sum_diff(spec, 0)


@st.composite
def specs(draw):
    """A quotient spec with equal-length exponent lists, polynomial or not."""
    size = draw(st.integers(1, 6))
    exponents = st.lists(st.integers(1, 60), min_size=size, max_size=size)
    return QuotientSpec(a=tuple(draw(exponents)), b=tuple(draw(exponents)))


@given(spec=specs(), k_max=st.integers(0, 12))
def test_power_sums_equal_the_naive_sums(spec, k_max):
    assert power_sums(spec, k_max) == [oracles.power_sum(spec, k) for k in range(k_max + 1)]


def test_power_sums_validation():
    assert power_sums(preset("catalan", 3), 2) == [0, 48, 1824]
    with pytest.raises(ValueError):
        power_sums(preset("catalan", 3), -1)


def test_power_sum_is_twelve_times_variance():
    for n in range(2, 61):
        spec = preset("catalan", n)
        _, var = general_moments_closed(spec)
        assert power_sum_diff(spec, 1) == 12 * var


def test_condition_ratio():
    assert condition_ratio(preset("catalan", 3), 2) == 1824 / 2304
    c, d = 4, 2
    expected = (c ** 4 - d ** 4) / (c ** 2 - d ** 2) ** 2
    assert condition_ratio(QuotientSpec(a=(c,), b=(d,)), 2) == expected
    big = condition_ratio(preset("catalan", 1000), 2)
    assert abs(big - 1.5 / 1000) / (1.5 / 1000) < 0.05
    with pytest.raises(ValueError):
        condition_ratio(preset("catalan", 3), 1)
    with pytest.raises(ValueError):
        condition_ratio(QuotientSpec(a=(5,), b=(5,)), 2)


@given(spec=specs(), K=st.integers(2, 12))
def test_condition_ratios_equal_the_exact_quotients(spec, K):
    s1 = oracles.power_sum(spec, 1)
    if s1 <= 0:
        with pytest.raises(ValueError):
            condition_ratios(spec, K)
        return
    ratios = condition_ratios(spec, K)
    assert len(ratios) == K - 1
    for k in range(2, K + 1):
        expected = float(Fraction(oracles.power_sum(spec, k), s1 ** k))
        assert ratios[k - 2] == expected
        assert condition_ratio(spec, k) == expected


def test_condition_ratios_past_float_range_raise():
    # S_k / S_1^k = (1000^2k - 999^2k) / 1999^k leaves float range at k = 115
    spec = QuotientSpec(a=(1000,), b=(999,))
    k = 200
    with pytest.raises(OverflowError):
        float(Fraction(oracles.power_sum(spec, k), oracles.power_sum(spec, 1) ** k))
    with pytest.raises(OverflowError):
        condition_ratios(spec, k)
    with pytest.raises(OverflowError):
        condition_ratio(spec, k)
    assert math.isfinite(condition_ratio(spec, 114))


def test_geco_bound_check_clean_families():
    rep = geco_bound_check(
        lambda n: preset("catalan", n), catalan_geco_params(), range(2, 11), [10, 100]
    )
    assert rep.ok and rep.checked == 18 and rep.violations == ()
    rep = geco_bound_check(
        lambda n: preset("mcatalan", n, 3), mcatalan_geco_params(3), range(2, 11), [10, 100]
    )
    assert rep.ok


def test_geco_bound_check_flags_bad_family():
    # ratios of this family do not decay with n, so a shrinking envelope
    # must find violations
    def family(n):
        return QuotientSpec(a=tuple(2 ** i for i in range(1, n + 1)), b=(1,) * n)

    params = GecoParams(alpha=1.0, beta=-1 / 6, gamma=-1 / 3)
    rep = geco_bound_check(family, params, range(2, 6), [4, 8])
    assert not rep.ok
    v = rep.violations[0]
    assert v.ratio >= v.bound and v.n in (4, 8) and v.k >= 2


def test_geco_bound_check_rejects_bad_k_range():
    with pytest.raises(ValueError):
        geco_bound_check(
            lambda n: preset("catalan", n), catalan_geco_params(), [1, 2], [10]
        )


def test_log_mgf_truncated_basics():
    spec = preset("catalan", 12)
    assert log_mgf_truncated(spec, 0.0, 10) == 0.0
    # k = 1 alone is the pure gaussian term
    t = 1.3
    std = log_mgf_truncated(spec, t, 1) - drift(spec, t)
    assert abs(std - t * t / 2) < 1e-12
    # the series builds its own table, so any K reaches its B_2K
    assert log_mgf_truncated(spec, 1.0, 41) == oracles.log_mgf_truncated(
        spec, 1.0, 41, bernoulli_table(41)
    )
    with pytest.raises(ValueError):
        log_mgf_truncated(QuotientSpec(a=(3,), b=(3,)), 1.0, 5)


def test_log_mgf_matches_exact_mgf():
    # truncated series against the log-sum-exp oracle, full working precision
    spec = preset("catalan", 30)
    p = q_catalan(30)
    for t in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0):
        trunc = math.exp(log_mgf_truncated(spec, t, 20) - drift(spec, t))
        assert abs(exact_standardized_mgf(p, t) - trunc) < 1e-8


def test_finite_n_gap_to_normal_at_30():
    # the exact standardized MGF sits measurably off e^(t^2/2) at n = 30:
    # the gap grows fast in |t| and is a property of n, not of truncation
    p = q_catalan(30)
    gap = {t: abs(exact_standardized_mgf(p, t) - math.exp(t * t / 2)) for t in (0.5, 1.0, 2.0)}
    assert gap[0.5] < 1e-3
    assert 1e-3 < gap[1.0] < 1e-2
    assert 0.25 < gap[2.0] < 0.32


def test_exact_standardized_mgf_basics():
    p = q_catalan(7)
    assert abs(exact_standardized_mgf(p, 0.0) - 1.0) < 1e-14
    for t in (0.3, 1.1):
        a, b = exact_standardized_mgf(p, t), exact_standardized_mgf(p, -t)
        assert abs(a - b) < 1e-12 * a
    two_point = IntPoly([1, 0, 1])
    assert abs(exact_standardized_mgf(two_point, 0.7) - math.cosh(0.7)) < 1e-14
    with pytest.raises(ValueError):
        exact_standardized_mgf(IntPoly([3]), 1.0)
    with pytest.raises(OverflowError):
        exact_standardized_mgf(q_catalan(5), 1e6)
    # t x / sigma past float range makes the log nan (inf - inf), and t^2
    # past it overflows the series, both refused like an overflow; a
    # non-finite t is refused outright, by the exact side and the series
    law = StandardizedLaw(q_catalan(6))
    spec = preset("catalan", 6)
    coeffs = series_coefficients(spec, 10)
    for mgf in (law.mgf, lambda t: exact_standardized_mgf(q_catalan(6), t),
                lambda t: law.mgf_grid([0.5, t])[1], lambda t: series_terms(coeffs, t),
                lambda t: log_mgf_truncated(spec, t, 10), lambda t: tail_series(6, t, 10)):
        for t in (1e308, -1e308):
            with pytest.raises(OverflowError):
                mgf(t)
        for t in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="finite t"):
                mgf(t)


def test_tail_series_basics():
    r = tail_series(10, 0.0, 30)
    assert r.tail_value == 0.0 and r.leading_term == 0.0
    r = tail_series(10, 2.0, 30)
    assert r.leading_term == 2.0
    assert r.tail_value < 0
    with pytest.raises(ValueError):
        tail_series(1, 1.0, 30)
    with pytest.raises(ValueError, match="presets need n >= 2"):  # preset's rule
        tail_series(1, 0.5, 10)
    with pytest.raises(ValueError):
        tail_series(10, 1.0, 1)


def test_tail_series_truncation_converged():
    r = tail_series(20, 2.0, 30)
    assert r.truncation_delta is not None
    assert r.truncation_delta < 1e-15


def test_tail_decay_ratios_below_one():
    vals = [abs(tail_series(n, 2.0, 30).tail_value) for n in (10, 20, 40, 80)]
    assert all(b / a < 1 for a, b in zip(vals, vals[1:]))


def test_ks_two_point():
    # support {-1, +1} after standardization; gap maximized at the jumps
    expected = 0.5 - 0.5 * math.erfc(1 / math.sqrt(2))
    assert abs(ks_distance_to_normal(IntPoly([1, 0, 1])) - expected) < 1e-15
    assert abs(ks_distance_to_normal(IntPoly([1, 0, 1])) - 0.341345) < 1e-6


@settings(max_examples=200, deadline=None)
@given(
    inner=st.lists(st.integers(0, 10 ** 30), max_size=40),
    ends=st.tuples(st.integers(1, 10 ** 30), st.integers(1, 10 ** 30)),
)
def test_ks_lies_in_the_unit_interval(inner, ends):
    # two positive end coefficients: a nonnegative law with positive variance
    p = IntPoly([ends[0], *inner, ends[1]])
    ks = ks_distance_to_normal(p)
    assert 0.0 <= ks <= 1.0
    assert ks == pytest.approx(oracles.ks_distance_to_normal(p), abs=1e-9)


def test_ks_basics():
    vals = [ks_distance_to_normal(q_catalan(n)) for n in (10, 40)]
    assert 0 < vals[1] < vals[0] < 1
    with pytest.raises(ValueError):
        ks_distance_to_normal(IntPoly([5]))
    with pytest.raises(ValueError):
        ks_distance_to_normal(IntPoly([1, -2, 1]))


def _cumulants(p, r_max):
    """kappa_1..kappa_r_max of the coefficient law of p, from the exact
    central moments by kappa_r = mu_r - sum_{j<r} C(r-1, j-1) kappa_j mu_{r-j}
    (mu_1 = 0, so kappa_1 comes out 0; the others do not depend on the shift)."""
    mu = [Fraction(1)] + [central_moment(p, r) for r in range(1, r_max + 1)]
    kappa = [Fraction(0)] * (r_max + 1)
    for r in range(1, r_max + 1):
        kappa[r] = mu[r] - sum(
            math.comb(r - 1, j - 1) * kappa[j] * mu[r - j] for j in range(1, r)
        )
    return kappa


@pytest.mark.parametrize(
    "spec",
    [
        preset("catalan", 6),
        preset("catalan", 12),
        preset("catalan", 25),
        preset("mcatalan", 7, 3),
        QuotientSpec(a=(5, 6, 7, 8), b=(1, 2, 3, 4)),
    ],
    ids=["catalan(n=6)", "catalan(n=12)", "catalan(n=25)", "mcatalan(n=7,m=3)", "a=5..8,b=1..4"],
)
def test_cumulants_equal_bernoulli_series(spec):
    # the coefficients from polyq/moments against the Bernoulli series from
    # exactnum/limitlaw, with no tolerance: kappa_{2k} = B_{2k} S_k / (2k),
    # and the odd cumulants of a palindromic law vanish
    kappa = _cumulants(quotient_poly(spec), 8)
    for k in range(1, 5):
        assert kappa[2 * k] == TABLE[2 * k] * power_sum_diff(spec, k) / (2 * k)
    assert kappa[3] == kappa[5] == kappa[7] == 0


# the `qcat normality` grid at step 0.1: most points are not dyadic, so a
# reassociated product such as t * (x / sigma) rounds differently
T_GRID = [round(i * 0.1, 12) for i in range(-20, 21)]


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 40),
    K=st.integers(2, 20),
    ts=st.lists(st.sampled_from(T_GRID), min_size=1, max_size=4),
)
def test_prepared_routes_equal_per_call_oracles(n, K, ts):
    p = q_catalan(n)
    spec = preset("catalan", n)
    law = StandardizedLaw(p)
    coeffs = series_coefficients(spec, K + 10)
    assert law.ks() == oracles.ks_distance_to_normal(p)
    assert law.mgf_grid(ts) == [oracles.exact_standardized_mgf(p, t) for t in ts]
    for t in ts:
        assert law.mgf(t) == oracles.exact_standardized_mgf(p, t)
        assert series_terms(coeffs, t) == oracles.log_mgf_terms(spec, t, K + 10, TABLE)
        assert log_mgf_truncated(spec, t, K) == oracles.log_mgf_truncated(spec, t, K, TABLE)
        assert tail_series(n, t, K) == oracles.tail_series(n, t, K, TABLE)
        assert tail_series(n, t, 35) == oracles.tail_series(n, t, 35, TABLE)


def test_standardized_law_equals_oracle_on_the_grid():
    # every n in 2..40 at every grid point: a changed float expression in
    # mgf moves only about one value in a hundred, so sample them all
    for n in range(2, 41):
        p = q_catalan(n)
        expected = [oracles.exact_standardized_mgf(p, t) for t in T_GRID]
        assert StandardizedLaw(p).mgf_grid(T_GRID) == expected


@pytest.mark.parametrize("K", [10, 30])
@pytest.mark.parametrize(
    "name, m, n",
    [("catalan", None, 5), ("catalan", None, 30), ("catalan", None, 60),
     ("catalan2", None, 10), ("catalan2", None, 30), ("mcatalan", 3, 10), ("mcatalan", 3, 30)],
)
def test_mgf_rows_equal_the_per_call_routes(name, m, n, K):
    # each row of the law against the one-value calls, bit for bit, in
    # each family: the exact mgf, the truncated log-mgf less the drift, and
    # the k = 1 term and the tail of the K + 10 terms
    p = get_family(name, m).build(n, m)
    spec = preset(name, n, m)
    rows = StandardizedLaw(p).mgf_rows(spec, K, T_GRID)
    assert [row[0] for row in rows] == T_GRID
    for t, exact, normal, trunc, residual, k1, tail, delta in rows:
        assert exact == exact_standardized_mgf(p, t)
        assert normal == math.exp(t * t / 2.0)
        assert trunc == math.exp(log_mgf_truncated(spec, t, K) - drift(spec, t))
        assert residual == abs(exact - trunc)
        terms = series_terms(series_coefficients(spec, K + 10), t)
        assert (k1, (tail, delta)) == (terms[0], split_tail(terms, K))
        if name == "catalan":
            report = tail_series(n, t, K)
            assert (k1, tail, delta) == (
                report.leading_term, report.tail_value, report.truncation_delta
            )


# coefficient weights: small ones, zeros among them, and up to 10^300
_WEIGHTS = st.integers(0, 3) | st.integers(0, 10 ** 300)


@settings(max_examples=200, deadline=None)
@given(
    head=st.integers(1, 200).flatmap(lambda n: st.lists(_WEIGHTS, min_size=n, max_size=n)),
    mirror=st.sampled_from([None, 0, 1]),
    t=st.just(0.0) | st.floats(-2.0, 2.0),
)
def test_mgf_is_the_correctly_rounded_sum_in_any_order(head, mirror, t):
    # mgf sums its terms largest first, the oracle in support order; fsum is
    # correctly rounded, so the two agree to the bit on any law, palindromic
    # (the head mirrored, with or without a shared middle) or not
    coeffs = head if mirror is None else head + head[::-1][mirror:]
    assume(sum(c > 0 for c in coeffs) >= 2)
    p = IntPoly(coeffs)
    law = StandardizedLaw(p)
    try:
        expected = oracles.exact_standardized_mgf(p, t)
    except OverflowError:
        expected = math.inf
    if expected >= math.exp(709.0):  # the law refuses ln E past 709
        with pytest.raises(OverflowError):
            law.mgf(t)
    else:
        assert law.mgf(t) == expected


def test_mgf_sums_exactly_where_a_plain_sum_does_not():
    # the sorted terms are 1, a middle term whose last bit makes 1 plus it a
    # rounding tie, and one below 2^-107 that decides the tie: the builtin
    # sum rounds the tie to even, compensated or not (Python 3.12 on), and
    # misses their exact sum by an ulp, and the mgf would move with it
    p, t = IntPoly([10 ** 42, 10 ** 41, 2]), 0.5
    law = StandardizedLaw(p)
    logs = sorted([t * x / law.sigma + lc for x, lc in zip(law.offsets, law.log_weights)])
    terms = [math.exp(v - logs[-1]) for v in reversed(logs)]
    assert sum(terms) != math.fsum(terms)
    assert law.mgf(t) == oracles.exact_standardized_mgf(p, t)


def test_mgf_grid_mirrors_only_palindromic_laws():
    law = StandardizedLaw(q_catalan(9))
    assert law.palindromic
    ts = [-1.5, -0.25, 0.0, 0.25, 1.5]
    assert law.mgf_grid(ts) == [law.mgf(t) for t in ts]
    assert law.mgf(-1.5) == law.mgf(1.5)
    skewed = IntPoly([1, 3, 0, 1])
    law = StandardizedLaw(skewed)
    assert not law.palindromic
    assert law.mgf_grid(ts) == [oracles.exact_standardized_mgf(skewed, t) for t in ts]
    assert law.mgf(-1.5) != law.mgf(1.5)


def test_standardized_law_rejects_degenerate_laws():
    with pytest.raises(ValueError):
        StandardizedLaw(IntPoly([0, 0, 4]))
    with pytest.raises(ValueError):
        StandardizedLaw(IntPoly([1, -2, 1]))
