"""Acceptance checklist: one test per numbered criterion.

Every test computes its property, emits one PASS/FAIL verdict line through
the criterion_log fixture (collected into the terminal summary), then
asserts.  The verdict line always carries the measured numbers, so a red
criterion still documents exactly how far off it is.

Criterion 5 has two clauses.  Clause 1 ties the truncated Bernoulli series
to the exact coefficient-route transform at n = 30 (within 1e-08).  Clause 2
checks the normal limit with a 1e-02 bound on the same t grid.  The paper
proves only that the limit holds as n -> infinity, and at n = 30 the exact
gap to exp(t^2/2) at |t| = 2 is 0.289, so 1e-02 cannot hold there.  Clause 2
therefore asserts that the exact gap falls strictly over n = 30, 60, 120
(gap * n approaches e^2 * 6/5), and that the standardized series transform
is within 1e-02 of exp(t^2/2) at n = 1000, where the limit reaches the
bound.  Its verdict line reports the gaps at n = 30, 60, 120 and 1000.

Criterion 10 asserts only scanner/oracle agreement and reports the
conjectured maximum as a finding, matching its own discrepancy clause.
"""

import math
import statistics
import time
from functools import lru_cache

from qcatalan.exactnum import bernoulli_table
from qcatalan.limitlaw import (
    catalan_geco_params,
    exact_standardized_mgf,
    geco_bound_check,
    ks_distance_to_normal,
    log_mgf_truncated,
    mcatalan_geco_params,
    tail_series,
)
from qcatalan.moments import (
    catalan_moments_closed,
    central_moment,
    dist_summary,
    general_moments_closed,
    preset,
)
from qcatalan.polyq import (
    iter_family,
    major_index_histogram,
    q_catalan,
    q_catalan_via_binomial,
    quotient_poly,
)
from qcatalan.shape import min_logconcave_t, min_logconcave_t_bruteforce, scan_family


@lru_cache(maxsize=None)
def catalan_poly(n):
    return q_catalan(n)


def test_criterion_01_major_index_oracle(criterion_log):
    start = time.perf_counter()
    ok = all(major_index_histogram(n) == catalan_poly(n) for n in range(1, 13))
    elapsed = time.perf_counter() - start
    criterion_log(1, ok, f"word-statistic histogram == q_catalan, n = 1..12 ({elapsed:.1f}s)")
    assert ok


def test_criterion_02_construction_cross_check(criterion_log):
    start = time.perf_counter()
    ok = all(q_catalan_via_binomial(n) == catalan_poly(n) for n in range(1, 61))
    elapsed = time.perf_counter() - start
    criterion_log(2, ok, f"binomial route == product route, n = 1..60 ({elapsed:.1f}s)")
    assert ok
    assert elapsed < 30.0


def test_criterion_03_exact_moments(criterion_log):
    checks = 0
    ok = True
    for n in range(1, 61):
        s = dist_summary(catalan_poly(n))
        c_mean, c_var = catalan_moments_closed(n)
        ok = ok and s.mean == c_mean and s.variance == c_var
        checks += 1
    jobs = [("catalan", None), ("catalan2", None)]
    jobs += [("mcatalan", m) for m in (2, 3, 4, 5)]
    for name, m in jobs:
        for n in range(2, 41):
            spec = preset(name, n, m)
            s = dist_summary(quotient_poly(spec))
            c_mean, c_var = general_moments_closed(spec)
            ok = ok and s.mean == c_mean and s.variance == c_var
            checks += 1
    criterion_log(3, ok, f"{checks} mean/variance pairs, rational equality, zero tolerance")
    assert ok


def test_criterion_04_symmetry(criterion_log):
    ok = True
    for n in range(1, 61):
        p = catalan_poly(n)
        ok = ok and p.degree == n * (n - 1) and p.is_palindromic()
    criterion_log(4, ok, "coefficient k == coefficient n(n-1)-k for n = 1..60")
    assert ok


def test_criterion_05_mgf_agreement(criterion_log):
    start = time.perf_counter()
    n, K = 30, 20
    grid = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)
    p = catalan_poly(n)
    spec = preset("catalan", n)
    table = bernoulli_table(K)
    s = dist_summary(p)
    drift_unit = float(s.mean) / s.sigma
    gap_series, gap_normal = [], []
    for t in grid:
        exact = exact_standardized_mgf(p, t)
        trunc = math.exp(log_mgf_truncated(spec, t, K, table) - drift_unit * t)
        gap_series.append(abs(exact - trunc))
        gap_normal.append(abs(exact - math.exp(t * t / 2.0)))
    max_a = max(gap_series)
    ok_a = max_a < 1e-8

    # Clause 2, normal limit.  The series tail at t = 2 is -1.2/n to leading
    # order (excess kurtosis -(6/5) S_2/S_1^2 ~ -1.8/n, times t^4/24), so the
    # exact gap is about e^2 * 1.2/n: 0.289 at n = 30, and the 1e-02 bound is
    # first met near n = 890 (0.01007 at n = 880, 0.00995 at n = 890).
    # Criterion 6 fits the same decay exponent, -1.00.  Hence (i) the exact
    # gap must fall strictly from n = 30 through 120, and (ii) at n = 1000 the
    # series transform, tied to the exact route by clause 1, must meet 1e-02.
    exact_gaps = {n: max(gap_normal)}
    for m in (60, 120):
        q = catalan_poly(m)
        exact_gaps[m] = max(abs(exact_standardized_mgf(q, t) - math.exp(t * t / 2.0)) for t in grid)
    gaps = list(exact_gaps.values())
    ok_falls = all(x > y for x, y in zip(gaps, gaps[1:]))
    n_far = 1000
    far_table = bernoulli_table(K + 10)
    far = [tail_series(n_far, t, K, far_table) for t in grid]
    gap_far = max(abs(math.exp(r.leading_term + r.tail_value) - math.exp(r.t * r.t / 2.0)) for r in far)
    delta_far = max(r.truncation_delta for r in far)
    ok_b = ok_falls and gap_far < 1e-2 and delta_far < 1e-8
    elapsed = time.perf_counter() - start
    criterion_log(
        5,
        ok_a and ok_b,
        f"exact vs truncated series {max_a:.2e} (<1e-08: {ok_a}); "
        f"exact vs normal {' / '.join(f'{g:.3g}' for g in gaps)} "
        f"at n = {' / '.join(map(str, exact_gaps))} (strictly falling: {ok_falls}, gap*n "
        f"{' / '.join(f'{g * m:.2f}' for m, g in exact_gaps.items())}); "
        f"series vs normal at n = {n_far} {gap_far:.2e} (<1e-02: {gap_far < 1e-2}); {elapsed:.2f}s",
    )
    assert ok_a
    assert elapsed < 5.0
    assert ok_falls, exact_gaps
    assert delta_far < 1e-8, f"series at n = {n_far} not converged at K = {K}: {delta_far:.2e}"
    assert gap_far < 1e-2, (
        f"standardized series transform at n = {n_far} sits {gap_far:.3e} from exp(t^2/2)"
    )


def test_criterion_06_tail_decay(criterion_log):
    table = bernoulli_table(40)
    ns = (10, 20, 40, 80, 160)
    tails = [abs(tail_series(n, 2.0, 30, table).tail_value) for n in ns]
    decreasing = all(a > b for a, b in zip(tails, tails[1:]))
    slope, _ = statistics.linear_regression(
        [math.log(n) for n in ns], [math.log(v) for v in tails]
    )
    criterion_log(
        6,
        decreasing,
        f"|tail| {tails[0]:.2e} -> {tails[-1]:.2e} over n = 10..160; "
        f"fitted decay exponent {slope:.2f} (reported, only monotone decay asserted)",
    )
    assert decreasing


def test_criterion_07_ratio_envelopes(criterion_log):
    start = time.perf_counter()
    families = [
        ("catalan", catalan_geco_params(), lambda n: preset("catalan", n)),
        ("catalan2", catalan_geco_params(), lambda n: preset("catalan2", n)),
    ]
    for m in (2, 3, 5):
        families.append(
            (
                f"mcatalan m={m}",
                mcatalan_geco_params(m),
                lambda n, m=m: preset("mcatalan", n, m),
            )
        )
    checked = 0
    bad = []
    for name, params, fam in families:
        report = geco_bound_check(fam, params, range(2, 31), (10, 100, 1000))
        checked += report.checked
        if not report.ok:
            bad.append((name, report.violations))
    elapsed = time.perf_counter() - start
    ok = not bad
    criterion_log(7, ok, f"{checked} ratio/bound checks, {len(bad)} families violating, {elapsed:.2f}s")
    assert ok, bad
    assert elapsed < 1.0


def test_criterion_08_ks_trend(criterion_log):
    start = time.perf_counter()
    ks = {n: ks_distance_to_normal(catalan_poly(n)) for n in (10, 20, 40, 80)}
    elapsed = time.perf_counter() - start
    decreasing = ks[10] > ks[20] > ks[40] > ks[80]
    halved = ks[80] < ks[10] / 2
    ok = decreasing and halved
    criterion_log(
        8,
        ok,
        f"KS {ks[10]:.5f} > {ks[20]:.5f} > {ks[40]:.5f} > {ks[80]:.5f}; "
        f"KS(80) < KS(10)/2: {halved}; {elapsed:.1f}s",
    )
    assert ok
    assert elapsed < 120.0


def test_criterion_09_unimodality_threshold(criterion_log):
    start = time.perf_counter()
    high = scan_family("catalan", 16, 100)
    low = scan_family("catalan", 2, 15)
    elapsed = time.perf_counter() - start
    all_high = all(r.interior_unimodal for r in high)
    failures = [r.n for r in low if not r.interior_unimodal]
    ok = all_high and bool(failures)
    criterion_log(
        9,
        ok,
        f"interior unimodal for all n = 16..100: {all_high}; "
        f"failures below 16: {failures}; {elapsed:.1f}s",
    )
    assert ok
    assert elapsed < 600.0


def test_criterion_10_logconcavity_cutoff(criterion_log):
    start = time.perf_counter()
    agree = True
    values = []
    for p in iter_family("catalan", 71, 120):
        fast = min_logconcave_t(p)
        slow = min_logconcave_t_bruteforce(p)
        agree = agree and fast == slow
        values.append(fast)
    elapsed = time.perf_counter() - start
    seen = [t for t in values if t is not None]
    computed = max(seen) if seen else None
    note = (
        "matches the conjectured 75"
        if computed == 75
        else f"FINDING: computed max is {computed}, conjectured value is 75"
    )
    criterion_log(
        10,
        agree,
        f"scanner == exhaustive oracle on every n in 71..120: {agree}; "
        f"max trim depth {computed} ({note}); {elapsed:.1f}s",
    )
    assert agree
    assert None not in values


def test_criterion_11_kurtosis_trend(criterion_log):
    def standardized_fourth(n):
        p = catalan_poly(n)
        s = dist_summary(p)
        return float(central_moment(p, 4) / s.variance ** 2)

    k10 = standardized_fourth(10)
    k60 = standardized_fourth(60)
    ok = abs(k60 - 3.0) < abs(k10 - 3.0)
    criterion_log(11, ok, f"4th standardized moment: n=10 -> {k10:.6f}, n=60 -> {k60:.6f}")
    assert ok
