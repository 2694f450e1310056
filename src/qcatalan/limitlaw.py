"""Finite-n diagnostics for the normal limit of coefficient distributions.

The standardized coefficient law of a quotient of binomial products tends
to a standard normal as the exponent sums grow.  The engine behind that is
the exact expansion of the log moment generating function: with
S_k = sum(a_i^{2k} - b_i^{2k}) and sigma^2 = S_1 / 12,

    ln E[e^{tX*}] = sum_{k>=1} B_{2k} S_k / (2k (2k)! sigma^{2k}) * t^{2k},

whose k = 1 term is exactly t^2/2.  Everything in the tail (k >= 2) is a
finite-n correction, and the functions here measure it three ways:

  * condition_ratios (and condition_ratio, geco_bound_check): the ratios
    S_k / S_1^k that must be small for the tail to vanish, tested against
    an explicit envelope alpha, beta, gamma with
    ratio < n^gamma (alpha n^beta)^{2k}.
  * series_coefficients / log_mgf_truncated / tail_series: the expansion
    itself, from one Bernoulli table per call, exact rationals until a
    single final float conversion per coefficient.
  * StandardizedLaw (and its one-shot wrappers exact_standardized_mgf /
    ks_distance_to_normal): direct comparison of the finite-n law against
    the standard normal: its mgf, its KS distance and its density beside
    the normal density, and its mgf rows, which set the exact mgf beside
    the normal's and the truncated series of the law's quotient.

S_k comes from moments.power_sums and B_{2k} / (2k (2k)!) from
exactnum.log_sinh_series_coeff, each the one place its quantity is computed.
Everything that does not depend on t (the exact summary of the law, its
log-weights, the series coefficients) is prepared once; a t grid then costs
one float pass and one sort over the support and K multiplications per
point.
"""

from __future__ import annotations

import itertools
import math
import operator
from array import array
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Sequence

from .exactnum import bernoulli_table, log_sinh_series_coeff
from .moments import dist_summary, general_moments_closed, power_sums
from .polyq import IntPoly, QuotientSpec, _Frozen, get_family, preset

__all__ = [
    "GecoParams",
    "GecoViolation",
    "GecoReport",
    "StandardizedLaw",
    "TailReport",
    "catalan_geco_params",
    "mcatalan_geco_params",
    "power_sum_diff",
    "condition_ratio",
    "condition_ratios",
    "geco_bound_check",
    "series_coefficients",
    "log_mgf_truncated",
    "exact_standardized_mgf",
    "tail_series",
    "ks_distance_to_normal",
]


class GecoParams(_Frozen):
    """Envelope parameters: ratios must stay below n^gamma (alpha n^beta)^{2k}."""

    __slots__ = ("alpha", "beta", "gamma")
    alpha: float
    beta: float
    gamma: float

    def __init__(self, alpha: float, beta: float, gamma: float):
        for name, value in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not alpha > 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        if not beta < 0:
            raise ValueError(f"beta must be negative, got {beta}")
        if not gamma < 0:
            raise ValueError(f"gamma must be negative, got {gamma}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", gamma)

    def bound(self, n: int, k: int) -> float:
        try:
            return n ** self.gamma * (self.alpha * n ** self.beta) ** (2 * k)
        except OverflowError as exc:
            raise OverflowError(
                f"envelope bound n^gamma (alpha n^beta)^(2k) leaves float range at "
                f"n={n}, k={k}, alpha={self.alpha}, beta={self.beta}, gamma={self.gamma}"
            ) from exc


def catalan_geco_params() -> GecoParams:
    """Envelope certified for the q-Catalan family: alpha = 32 sqrt(3)/3."""
    return GecoParams(alpha=32.0 * math.sqrt(3.0) / 3.0, beta=-1 / 6, gamma=-1 / 3)


def mcatalan_geco_params(m: int) -> GecoParams:
    """Envelope certified for the m-Catalan family: alpha = 8 sqrt(2m)."""
    get_family("mcatalan", m)  # the registry's m rule
    return GecoParams(alpha=8.0 * math.sqrt(2.0 * m), beta=-1 / 6, gamma=-1 / 3)


class GecoViolation(NamedTuple):
    n: int
    k: int
    ratio: float
    bound: float


class GecoReport(NamedTuple):
    """Outcome of sweeping the ratio bound over a family and a k-range."""

    params: GecoParams
    checked: int
    violations: tuple[GecoViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


class TailReport(NamedTuple):
    """Truncated tail of the standardized log-MGF at one (n, t).

    tail_value sums the k = 2..K terms; leading_term is the k = 1 term
    (t^2/2 up to float rounding); truncation_delta is how much the tail
    moves when K grows by 10.  A tail_value far above truncation_delta is
    a real finite-n effect, not a truncation artifact.
    """

    n: int
    t: float
    K: int
    tail_value: float
    leading_term: float
    truncation_delta: float


def power_sum_diff(spec: QuotientSpec, k: int) -> int:
    """S_k = sum(a_i^{2k}) - sum(b_i^{2k}), exact; see moments.power_sums."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return power_sums(spec, k)[k]


def condition_ratios(spec: QuotientSpec, k_max: int) -> list[float]:
    """The normalized power-sum ratios S_k / S_1^k for k = 2..k_max.

    One power-sum sweep gives every exact integer numerator and
    denominator; each ratio is one int/int true division, which is
    correctly rounded and raises OverflowError only when the ratio itself
    leaves float range.  Requires S_1 > 0, i.e. positive variance.
    """
    if k_max < 2:
        raise ValueError(f"need k_max >= 2, got {k_max}")
    sums = power_sums(spec, k_max)
    s1 = sums[1]
    if s1 <= 0:
        raise ValueError(f"S_1 = {s1} <= 0; ratio undefined")
    return [sums[k] / s1 ** k for k in range(2, k_max + 1)]


def condition_ratio(spec: QuotientSpec, k: int) -> float:
    """The normalized power-sum ratio S_k / S_1^k; see condition_ratios."""
    return condition_ratios(spec, k)[-1]


def geco_bound_check(
    family: Callable[[int], QuotientSpec],
    params: GecoParams,
    k_range: Iterable[int],
    n_list: Iterable[int],
) -> GecoReport:
    """Sweep condition ratios of family(n) against the params envelope.

    Records every (n, k) with S_k / S_1^k >= n^gamma (alpha n^beta)^{2k}.
    An empty violations tuple certifies the envelope over the sweep, which
    by the series expansion pins the normal limit for the family.
    """
    ks = sorted(set(k_range))
    if not ks or ks[0] < 2:
        raise ValueError(f"k_range must contain only integers >= 2, got {ks}")
    checked = 0
    violations: list[GecoViolation] = []
    for n in n_list:
        ratios = condition_ratios(family(n), ks[-1])
        for k in ks:
            ratio = ratios[k - 2]
            bound = params.bound(n, k)
            checked += 1
            if not ratio < bound:
                violations.append(GecoViolation(n=n, k=k, ratio=ratio, bound=bound))
    return GecoReport(params=params, checked=checked, violations=tuple(violations))


def series_coefficients(spec: QuotientSpec, K: int) -> list[float]:
    """Float values of the t^{2k} coefficients B_{2k} S_k / (2k (2k)! var^k),
    k = 1..K, with var = S_1/12.

    One power-sum sweep gives S_1..S_K and one bernoulli_table(K) gives
    B_2..B_{2K}; each coefficient is an exact rational until its one float
    conversion, so a list built once serves every t (see series_terms).
    """
    if K < 1:
        raise ValueError(f"need K >= 1, got {K}")
    sums = power_sums(spec, K)
    if sums[1] <= 0:
        raise ValueError(f"S_1 = {sums[1]} <= 0; standardization undefined")
    table = bernoulli_table(K)
    var = Fraction(sums[1], 12)
    return [
        float(log_sinh_series_coeff(k, table) * sums[k] / var ** k)
        for k in range(1, K + 1)
    ]


def _check_t(t: float) -> None:
    if not math.isfinite(t):
        raise ValueError(f"need a finite t, got {t}")


def series_terms(coeffs: Sequence[float], t: float) -> list[float]:
    """The k = 1..len(coeffs) expansion terms c_k t^{2k} at a finite t."""
    _check_t(t)
    return [c * t ** (2 * k) for k, c in enumerate(coeffs, 1)]


def split_tail(terms: Sequence[float], K: int) -> tuple[float, float]:
    """The k = 2..K tail sum of the terms, and how far the terms past K move it."""
    tail = math.fsum(terms[1:K])
    return tail, abs(math.fsum(terms[1:]) - tail)


def log_mgf_truncated(spec: QuotientSpec, t: float, K: int) -> float:
    """Degree-2K truncation of ln E[e^{(t/sigma) X}]: the drift mu t/sigma
    plus the even series whose k = 1 term is exactly t^2/2.

    Subtracting the same drift mu t/sigma standardizes it, giving the
    series alone; everything past its k = 1 term is the finite-n
    correction.  A non-finite t raises ValueError.
    """
    terms = series_terms(series_coefficients(spec, K), t)
    mean, variance = general_moments_closed(spec)
    drift = float(mean) * t / math.sqrt(float(variance))
    return drift + math.fsum(terms)


def tail_series(n: int, t: float, K: int) -> TailReport:
    """Tail (k >= 2) of the expansion for the q-Catalan family at size n.

    Sums the k = 2..K terms and reports how much 10 more terms move the
    sum, so the truncation is checked rather than assumed.  n is judged by
    preset("catalan", n), which refuses n < 2.  The distance of the exact
    law to the normal is ks_distance_to_normal(q_catalan(n)).
    """
    if K < 2:
        raise ValueError(f"need K >= 2, got {K}")
    terms = series_terms(series_coefficients(preset("catalan", n), K + 10), t)
    tail, delta = split_tail(terms, K)
    return TailReport(
        n=n,
        t=t,
        K=K,
        tail_value=tail,
        leading_term=terms[0],
        truncation_delta=delta,
    )


class StandardizedLaw:
    """The standardized coefficient law of p, prepared once for many t.

    P(X = k) is proportional to c_k and X* = (X - mean)/sigma.  Building it
    takes the one exact dist_summary of p and stores, in one pass over the
    coefficients, the float offset k - mean and log(c_k) for every k with
    c_k > 0, so each mgf(t) is one float pass and one sort over the support.
    The law is the one home of the standardization: the mgf, its rows
    beside the series, the KS distance, and the density columns with
    their finite-mean-and-sigma premise and the scaling of a mass past
    float range.
    """

    def __init__(self, p: IntPoly):
        summary = dist_summary(p)
        if summary.variance <= 0:
            raise ValueError("variance is zero; standardization undefined")
        self.poly = p
        self.summary = summary
        self.mu = mu = float(summary.mean)
        self.sigma = summary.sigma
        self.log_mass = math.log(summary.mass)
        self.offsets = offsets = array("d")
        self.log_weights = log_weights = array("d")
        self.palindromic = p.is_palindromic()
        for k, c in enumerate(p.coeffs):
            if c > 0:
                offsets.append(k - mu)
                log_weights.append(math.log(c))

    def mgf(self, t: float) -> float:
        """E[e^{tX*}], by log-sum-exp over the support.

        A non-finite t raises ValueError.  Every exponential inside the sum
        is <= 1, so the only way to overflow is the final exp, which raises
        OverflowError instead of returning inf; so does a t large enough
        that t x / sigma leaves float range, where the log comes out nan
        (inf - inf).  The log-terms are sorted largest first, so the top is
        the first and fsum keeps few partials alive.  fsum is correctly
        rounded, so the order is for speed only: any order gives the same
        float.
        """
        _check_t(t)
        sigma = self.sigma
        logs = [t * x / sigma + lc for x, lc in zip(self.offsets, self.log_weights)]
        logs.sort(reverse=True)
        top = logs[0]
        # the terms v - top without a second list of them
        shifted = map(operator.sub, logs, itertools.repeat(top))
        ln_e = top + math.log(math.fsum(map(math.exp, shifted))) - self.log_mass
        if not ln_e <= 709.0:
            raise OverflowError(f"standardized MGF exceeds float range (ln = {ln_e:.1f})")
        return math.exp(ln_e)

    def mgf_grid(self, ts: Iterable[float]) -> list[float]:
        """mgf(t) for every t in ts.

        A palindromic law evaluates each |t| once: its summands at -t are
        those at t in reverse order, and fsum is correctly rounded, so both
        signs give the same float.
        """
        done: dict[float, float] = {}
        out = []
        for t in ts:
            key = abs(t) if self.palindromic else t
            if key not in done:
                done[key] = self.mgf(key)
            out.append(done[key])
        return out

    def mgf_rows(self, spec: QuotientSpec, K: int, ts: Sequence[float]) -> list[tuple[float, ...]]:
        """For every t in ts, the row (t, exact, normal, truncated, residual,
        k1, tail, delta): the law's mgf(t), the normal's e^{t^2/2}, exp of
        the degree-2K series of spec (the quotient whose law this is), the
        distance of the exact from the truncated, the series' k = 1 term, and
        its k = 2..K tail with how far 10 more terms move it (split_tail).

        One series_coefficients(spec, K + 10) serves every t.  The law's
        exact mean and variance are the closed forms log_mgf_truncated
        takes its drift from, so mu t / sigma is that drift; adding it to
        the K-term sum and taking it off again gives the truncated cell the
        rounding of exp(log_mgf_truncated(spec, t, K) - mu t / sigma).
        """
        coeffs = series_coefficients(spec, K + 10)
        rows = []
        for t, exact in zip(ts, self.mgf_grid(ts)):
            terms = series_terms(coeffs, t)
            drift = self.mu * t / self.sigma
            trunc = math.exp(drift + math.fsum(terms[:K]) - drift)
            tail, delta = split_tail(terms, K)
            normal = math.exp(t * t / 2.0)
            rows.append((t, exact, normal, trunc, abs(exact - trunc), terms[0], tail, delta))
        return rows

    def ks(self) -> float:
        """Kolmogorov-Smirnov distance to the standard normal.

        The empirical CDF is a step function, so the supremum is attained
        at a jump: both the pre-jump and post-jump gaps are checked at every
        support point.  CDF values come from big-int partial sums divided by
        the mass, correctly rounded by int/int true division, one per point:
        each point's pre-jump value is the previous point's post-jump value.
        """
        sigma = self.sigma
        mass = self.summary.mass
        best = lo = 0.0
        cum = 0
        weights = (c for c in self.poly.coeffs if c > 0)
        for x, c in zip(self.offsets, weights):
            phi = _normal_cdf(x / sigma)
            cum += c
            hi = cum / mass
            best = max(best, abs(phi - lo), abs(hi - phi))
            lo = hi  # the next point's pre-jump value
        return best

    def density_columns(self) -> Callable[[range, Sequence[int]], list[list[float]]]:
        """The function that gives, for positions ks and their coefficients,
        the columns z = (k - mean) / sigma, the density sigma * c_k / mass
        and the standard normal density at z.

        It is called a block of positions at a time, so its premise is
        checked here, before the first block: a non-finite mean or sigma
        raises ArithmeticError.  Once both are finite every cell is, since
        c_k <= mass.
        """
        mu, sigma, mass = self.mu, self.sigma, self.summary.mass
        if not (math.isfinite(mu) and math.isfinite(sigma)):
            raise ArithmeticError(f"the law's mean {mu} and deviation {sigma} must be finite")
        # c / mass with both scaled by one power of two that brings the mass
        # into float range; the scale is 1, and the quotient sigma * c / mass,
        # wherever the mass is already in range.
        scale = 1 << max(0, mass.bit_length() - 1023)
        scaled_mass = mass / scale
        root_two_pi = math.sqrt(2.0 * math.pi)

        def columns(ks: range, block: Sequence[int]) -> list[list[float]]:
            zs = [(k - mu) / sigma for k in ks]
            return [
                zs,
                [sigma * (c / scale) / scaled_mass for c in block],
                [math.exp(-z * z / 2.0) / root_two_pi for z in zs],
            ]

        return columns


def exact_standardized_mgf(p: IntPoly, t: float) -> float:
    """E[e^{tX*}] for the standardized coefficient law of p, no series.

    X* = (X - mean)/sigma with P(X = k) proportional to c_k; see
    StandardizedLaw.mgf, which serves many t from one preparation.
    """
    return StandardizedLaw(p).mgf(t)


def _normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def ks_distance_to_normal(p: IntPoly) -> float:
    """Kolmogorov-Smirnov distance between the standardized coefficient law
    of p and the standard normal; see StandardizedLaw.ks."""
    return StandardizedLaw(p).ks()
