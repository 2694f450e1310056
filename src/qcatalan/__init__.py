"""Exact coefficient arithmetic for q-Catalan polynomials and their limit law.

The package answers three kinds of question about the coefficient sequences
of q-Catalan numbers and, more generally, of any polynomial quotient
prod(1 - q^{a_i}) / prod(1 - q^{b_i}):

  * what are the coefficients, exactly (polyq);
  * what are the moments of the coefficient distribution, exactly, and do
    they match their closed forms (moments, exactnum);
  * how close is the standardized coefficient law to a standard normal at
    finite n, and how is it shaped on the way there (limitlaw, shape).

All core arithmetic is exact (big integers and fractions); floats appear
only at the final step of explicitly approximate diagnostics.  The `qcat`
command line tool exposes the same answers as CSV or JSON.
"""

from .exactnum import (
    BernoulliTable,
    bernoulli_asymptotic,
    bernoulli_table,
    bernoulli_tail_partial_sums,
    log_sinh_series_coeff,
)
from .limitlaw import (
    GecoParams,
    GecoReport,
    GecoViolation,
    TailReport,
    catalan_geco_params,
    condition_ratio,
    exact_standardized_mgf,
    geco_bound_check,
    ks_distance_to_normal,
    log_mgf_truncated,
    mcatalan_geco_params,
    power_sum_diff,
    tail_series,
)
from .moments import (
    DistSummary,
    QuotientSpec,
    catalan_moments_closed,
    central_moment,
    dist_summary,
    general_moments_closed,
    preset,
)
from .polyq import (
    FAMILIES,
    Family,
    IntPoly,
    NonzeroRemainder,
    NotPolynomial,
    gaussian_binomial,
    get_family,
    iter_family,
    major_index_histogram,
    poly_div_exact,
    poly_mul,
    q_catalan,
    q_catalan_general,
    q_catalan_second,
    q_catalan_via_binomial,
    qint,
    quotient_poly,
)
from .shape import (
    ShapeReport,
    interior_unimodal,
    min_logconcave_t,
    min_logconcave_t_bruteforce,
    pool_size,
    scan_family,
    shape_report,
)

__version__ = "0.1.0"

__all__ = [
    "FAMILIES",
    "BernoulliTable",
    "DistSummary",
    "Family",
    "GecoParams",
    "GecoReport",
    "GecoViolation",
    "IntPoly",
    "NonzeroRemainder",
    "NotPolynomial",
    "QuotientSpec",
    "ShapeReport",
    "TailReport",
    "bernoulli_asymptotic",
    "bernoulli_table",
    "bernoulli_tail_partial_sums",
    "catalan_geco_params",
    "catalan_moments_closed",
    "central_moment",
    "condition_ratio",
    "dist_summary",
    "exact_standardized_mgf",
    "gaussian_binomial",
    "geco_bound_check",
    "get_family",
    "general_moments_closed",
    "interior_unimodal",
    "iter_family",
    "ks_distance_to_normal",
    "log_mgf_truncated",
    "log_sinh_series_coeff",
    "major_index_histogram",
    "mcatalan_geco_params",
    "min_logconcave_t",
    "min_logconcave_t_bruteforce",
    "poly_div_exact",
    "poly_mul",
    "pool_size",
    "power_sum_diff",
    "preset",
    "q_catalan",
    "q_catalan_general",
    "q_catalan_second",
    "q_catalan_via_binomial",
    "qint",
    "quotient_poly",
    "scan_family",
    "shape_report",
    "tail_series",
    "__version__",
]
