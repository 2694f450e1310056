"""Polynomial arithmetic and q-object constructors."""

import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcatalan.polyq import (
    FAMILIES,
    IntPoly,
    NonzeroRemainder,
    NotPolynomial,
    _require_nonnegative,
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


def catalan_number(n):
    return math.comb(2 * n, n) // (n + 1)


# -- IntPoly basics ----------------------------------------------------------

def test_trailing_zeros_trimmed():
    assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
    assert IntPoly([0, 0, 0]).coeffs == ()
    assert IntPoly([]).is_zero()


def test_zero_polynomial_degree_undefined():
    with pytest.raises(ValueError):
        IntPoly([]).degree


def test_degree_and_getitem():
    p = IntPoly([3, 0, -2])
    assert p.degree == 2
    assert p[0] == 3 and p[1] == 0 and p[2] == -2
    assert p[99] == 0
    with pytest.raises(IndexError):
        p[-1]


def test_evaluate_horner():
    p = IntPoly([1, 2, 3])
    assert p.evaluate(1) == 6
    assert p.evaluate(2) == 1 + 4 + 12
    assert p.evaluate(Fraction(1, 2)) == Fraction(11, 4)
    assert IntPoly([]).evaluate(7) == 0


def test_palindromic():
    assert IntPoly([1, 2, 1]).is_palindromic()
    assert not IntPoly([1, 2, 3]).is_palindromic()
    assert not IntPoly([]).is_palindromic()


def test_equality_and_hash():
    assert IntPoly([1, 0, 1]) == IntPoly((1, 0, 1, 0))
    assert hash(IntPoly([1, 2])) == hash(IntPoly([1, 2, 0]))
    assert IntPoly([1]) != IntPoly([2])


def test_operators():
    p, r = IntPoly([1, 1]), IntPoly([1, -1])
    assert p + r == IntPoly([2])
    assert p - r == IntPoly([0, 2])
    assert -p == IntPoly([-1, -1])
    assert p * r == IntPoly([1, 0, -1])
    assert 3 * p == IntPoly([3, 3])
    assert p + 1 == IntPoly([2, 1])


def test_repr_smoke():
    assert repr(IntPoly([])) == "IntPoly(0)"
    assert "q^2" in repr(IntPoly([1, 0, 1]))
    assert "..." in repr(qint(40))


# -- multiplication and exact division ---------------------------------------

def test_poly_mul_examples():
    one_q = IntPoly([1, 1])
    assert poly_mul(one_q, one_q) == IntPoly([1, 2, 1])
    assert poly_mul(IntPoly([1, 1, 1]), one_q) == IntPoly([1, 2, 2, 1])
    p = IntPoly([3, 0, 5])
    assert poly_mul(p, IntPoly([1])) == p
    assert poly_mul(p, IntPoly([])).is_zero()


def test_poly_div_exact_examples():
    assert poly_div_exact(IntPoly([1, 1, 2, 1, 1]), IntPoly([1, 1, 1])) == IntPoly([1, 0, 1])
    p = IntPoly([4, -1, 7])
    assert poly_div_exact(p, IntPoly([1])) == p
    with pytest.raises(NonzeroRemainder):
        poly_div_exact(IntPoly([1, 1, 1]), IntPoly([1, 1]))


def test_poly_div_exact_guards():
    with pytest.raises(ValueError):
        poly_div_exact(IntPoly([1, 1]), IntPoly([]))
    with pytest.raises(NonzeroRemainder):
        poly_div_exact(IntPoly([1, 1]), IntPoly([1, 1, 1]))
    assert poly_div_exact(IntPoly([]), IntPoly([1, 1])).is_zero()


def test_mul_div_roundtrip_random():
    rng = random.Random(20240817)
    for _ in range(200):
        p = IntPoly([rng.randrange(10) for _ in range(rng.randrange(1, 25))] + [1])
        d = IntPoly([rng.randrange(10) for _ in range(rng.randrange(1, 12))] + [rng.randrange(1, 10)])
        assert poly_div_exact(poly_mul(p, d), d) == p


# -- q-integers and Gaussian binomials ---------------------------------------

def test_qint():
    assert qint(1) == IntPoly([1])
    assert qint(2) == IntPoly([1, 1])
    assert qint(4) == IntPoly([1, 1, 1, 1])
    with pytest.raises(ValueError):
        qint(0)


def test_gaussian_binomial_small():
    assert gaussian_binomial(2, 1) == IntPoly([1, 1])
    assert gaussian_binomial(4, 2) == IntPoly([1, 1, 2, 1, 1])
    assert gaussian_binomial(6, 2) == IntPoly([1, 1, 2, 2, 3, 2, 2, 1, 1])
    assert gaussian_binomial(5, 0) == IntPoly([1])
    assert gaussian_binomial(5, 5) == IntPoly([1])


def test_gaussian_binomial_rejects_bad_indices():
    with pytest.raises(ValueError):
        gaussian_binomial(3, 4)
    with pytest.raises(ValueError):
        gaussian_binomial(3, -1)


@pytest.mark.parametrize("n", range(13))
def test_gaussian_binomial_structure(n):
    for k in range(n + 1):
        g = gaussian_binomial(n, k)
        assert g == gaussian_binomial(n, n - k)
        assert g.is_palindromic()
        assert min(g.coeffs) >= 0
        assert g.degree == k * (n - k)
        assert g.evaluate(1) == math.comb(n, k)


# -- q-Catalan families -------------------------------------------------------

def test_q_catalan_small():
    assert q_catalan(1) == IntPoly([1])
    assert q_catalan(2) == IntPoly([1, 0, 1])
    assert q_catalan(3) == IntPoly([1, 0, 1, 1, 1, 0, 1])
    with pytest.raises(ValueError):
        q_catalan(0)


def test_q_catalan_structure():
    for n in range(1, 26):
        p = q_catalan(n)
        assert p.degree == n * (n - 1) or (n == 1 and p.degree == 0)
        assert p.is_palindromic()
        assert min(p.coeffs) >= 0
        assert p.evaluate(1) == catalan_number(n)


def test_routes_agree():
    for n in range(1, 26):
        assert q_catalan(n) == q_catalan_via_binomial(n)


def test_product_form_both_index_conventions():
    # [n+i]/[i] over i = 2..n equals [n+i+1]/[i+1] over i = 1..n-1,
    # built literally as numerator and denominator products
    for n in range(2, 9):
        num = IntPoly([1])
        den = IntPoly([1])
        for i in range(1, n):
            num = poly_mul(num, qint(n + i + 1))
            den = poly_mul(den, qint(i + 1))
        assert poly_div_exact(num, den) == q_catalan(n)


def test_q_catalan_second_small():
    assert q_catalan_second(1) == IntPoly([1])
    assert q_catalan_second(2) == IntPoly([1, 1])
    assert q_catalan_second(3) == IntPoly([1, 1, 1, 1, 1])


def test_q_catalan_second_structure():
    for n in range(2, 16):
        p = q_catalan_second(n)
        assert p.degree == (n - 1) ** 2
        assert p.is_palindromic()
        assert min(p.coeffs) >= 0
        assert p.evaluate(1) == catalan_number(n)


def test_q_catalan_general():
    assert q_catalan_general(2, 3) == IntPoly([1, 0, 1, 0, 1])
    assert q_catalan_general(1, 5) == IntPoly([1])
    for n in range(1, 16):
        assert q_catalan_general(n, 2) == q_catalan(n)
    with pytest.raises(ValueError):
        q_catalan_general(3, 1)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_q_catalan_general_mass(m):
    for n in range(1, 9):
        p = q_catalan_general(n, m)
        assert p.is_palindromic()
        assert p.evaluate(1) == math.comb(m * n, n) // ((m - 1) * n + 1)


# -- general quotients ---------------------------------------------------------

def test_quotient_poly_examples():
    assert quotient_poly(SimpleNamespace(a=(4,), b=(2,))) == IntPoly([1, 0, 1])
    assert quotient_poly(SimpleNamespace(a=(7,), b=(7,))) == IntPoly([1])
    with pytest.raises(NotPolynomial):
        quotient_poly(SimpleNamespace(a=(3,), b=(2,)))


def test_quotient_poly_signed_result():
    # (1-q^6)(1-q) / ((1-q^2)(1-q^3)) = 1 - q + q^2: legal, not nonnegative
    assert quotient_poly(SimpleNamespace(a=(6, 1), b=(2, 3))) == IntPoly([1, -1, 1])


def test_quotient_poly_matches_catalan_factors():
    for n in range(2, 13):
        spec = SimpleNamespace(a=tuple(range(n + 2, 2 * n + 1)), b=tuple(range(2, n + 1)))
        assert quotient_poly(spec) == q_catalan(n)


def test_quotient_poly_validation():
    with pytest.raises(ValueError):
        quotient_poly(SimpleNamespace(a=(2, 3), b=(2,)))
    with pytest.raises(ValueError):
        quotient_poly(SimpleNamespace(a=(0,), b=(1,)))


# -- brute-force enumeration oracle -------------------------------------------

def test_major_index_small():
    assert major_index_histogram(1) == IntPoly([1])
    assert major_index_histogram(2) == IntPoly([1, 0, 1])
    assert major_index_histogram(3) == IntPoly([1, 0, 1, 1, 1, 0, 1])


def test_major_index_matches_q_catalan():
    for n in range(1, 9):
        assert major_index_histogram(n) == q_catalan(n)


def test_major_index_bounds():
    with pytest.raises(ValueError):
        major_index_histogram(15)
    with pytest.raises(ValueError):
        major_index_histogram(0)


# -- the family registry and incremental sweeps --------------------------------

ORACLES = {
    "catalan": lambda n, m: q_catalan(n),
    "catalan2": lambda n, m: q_catalan_second(n),
    "mcatalan": q_catalan_general,
}


def test_registry_names_match_oracles():
    assert tuple(FAMILIES) == tuple(ORACLES)
    assert [name for name, f in FAMILIES.items() if f.takes_m] == ["mcatalan"]


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(ORACLES)),
    m=st.integers(2, 6),
    bounds=st.tuples(st.integers(1, 40), st.integers(1, 40)).map(sorted),
)
def test_iter_family_matches_from_scratch_builders(name, m, bounds):
    n_from, n_to = bounds
    members = list(iter_family(name, n_from, n_to, m))
    assert members == [ORACLES[name](n, m) for n in range(n_from, n_to + 1)]


def test_iter_family_steps_past_the_rebuild_crossover():
    # m = 7 rebuilds while a step needs more passes than a rebuild (small n)
    # and steps afterwards; both kinds of member must match the oracle
    members = list(iter_family("mcatalan", 1, 20, 7))
    assert members == [q_catalan_general(n, 7) for n in range(1, 21)]


def test_iter_family_yields_lazily():
    members = iter_family("catalan", 1, 10 ** 9)
    assert [next(members) for _ in range(3)] == [q_catalan(1), q_catalan(2), q_catalan(3)]


def test_iter_family_rejects_before_building():
    with pytest.raises(ValueError):
        iter_family("unknown", 2, 5)
    with pytest.raises(ValueError):
        iter_family("mcatalan", 2, 5)
    with pytest.raises(ValueError):
        iter_family("mcatalan", 2, 5, m=1)
    with pytest.raises(ValueError):
        iter_family("catalan", 5, 2)
    with pytest.raises(ValueError):
        iter_family("catalan", 0, 2)


def test_get_family_ignores_m_where_it_does_not_apply():
    assert get_family("catalan", 3) is FAMILIES["catalan"]
    assert get_family("mcatalan", 3).build(4, 3) == q_catalan_general(4, 3)


def test_require_nonnegative():
    c = [1, 0, 2]
    assert _require_nonnegative(c, "x") is c
    assert _require_nonnegative([], "x") == []
    with pytest.raises(ArithmeticError, match="q_catalan\\(7\\) has a negative coefficient"):
        _require_nonnegative([1, -1, 1], "q_catalan(7)")
