"""Polynomial arithmetic and q-object constructors."""

import copy
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcatalan import polyq
from qcatalan.polyq import (
    FAMILIES,
    SUM_LIMIT,
    IntPoly,
    NonzeroRemainder,
    NotPolynomial,
    QuotientSpec,
    QuotientTooLarge,
    _check_size,
    _require_nonnegative,
    gaussian_binomial,
    get_family,
    iter_family,
    major_index_histogram,
    poly_div_exact,
    poly_mul,
    preset,
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
    assert IntPoly(iter([1, 0, 2, 0, 0])).coeffs == (1, 0, 2)
    assert IntPoly([0, 3]).coeffs == (0, 3)
    assert IntPoly([0, 0, 0]).coeffs == ()
    assert IntPoly([]).is_zero()


def test_a_kernel_list_becomes_the_intpoly_the_public_constructor_makes():
    c = [1, 0, 1, 1, 0, 1]
    p = IntPoly._of_kernel(c)
    assert p == IntPoly(c) and type(p.coeffs) is tuple
    c[0] = 5  # the polynomial holds its own tuple
    assert p.coeffs[0] == 1
    assert polyq.quotient_poly(QuotientSpec((4, 6), (2, 3))) == p
    # a list IntPoly would trim is a broken construction, not a shorter polynomial
    for bad in ([1, 2, 0], [0], []):
        with pytest.raises(ArithmeticError, match="construction is broken"):
            IntPoly._of_kernel(bad)
    # the public constructor keeps its per-coefficient check
    with pytest.raises(TypeError):
        IntPoly([1, 2.5, 1])


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


def test_palindromic():
    assert IntPoly([1, 2, 1]).is_palindromic()
    assert not IntPoly([1, 2, 3]).is_palindromic()
    assert not IntPoly([]).is_palindromic()


def test_equality_and_hash():
    assert IntPoly([1, 0, 1]) == IntPoly((1, 0, 1, 0))
    assert hash(IntPoly([1, 2])) == hash(IntPoly([1, 2, 0]))
    assert IntPoly([1]) != IntPoly([2])


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
    # 1 + q over 1 + 2q: the top coefficient 1 is no multiple of 2
    with pytest.raises(NonzeroRemainder, match="leading coefficient 1 not divisible by 2"):
        poly_div_exact(IntPoly([1, 1]), IntPoly([1, 2]))


def test_the_oracle_routes_refuse_what_they_cannot_divide():
    # 1 + q has no room for (1 - q^2), and (1 + q^2) / (1 - q) leaves 2
    with pytest.raises(NonzeroRemainder, match=r"cannot divide degree 1 by \(1 - q\^2\)"):
        polyq._div_exact([1, 1], 2)
    with pytest.raises(NonzeroRemainder, match=r"division by \(1 - q\^1\) is not exact"):
        polyq._div_exact([1, 0, 1], 1)
    for n in (0, -1):
        with pytest.raises(ValueError, match="need n >= 1"):
            q_catalan_via_binomial(n)


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
        assert sum(g.coeffs) == math.comb(n, k)


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
        assert sum(p.coeffs) == catalan_number(n)


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
        assert sum(p.coeffs) == catalan_number(n)


def test_kernel_families_match_gaussian_binomial_routes():
    # independent of the kernel: [2]/[2n] [2n choose n-1] and
    # [mn choose n]/[(m-1)n+1], by convolution and long division
    for n in range(1, 25):
        second = poly_div_exact(poly_mul(gaussian_binomial(2 * n, n - 1), qint(2)), qint(2 * n))
        assert q_catalan_second(n) == second
        for m in (3, 4):
            general = poly_div_exact(gaussian_binomial(m * n, n), qint((m - 1) * n + 1))
            assert q_catalan_general(n, m) == general


def test_q_catalan_general():
    assert q_catalan_general(2, 3) == IntPoly([1, 0, 1, 0, 1])
    assert q_catalan_general(1, 5) == IntPoly([1])
    for n in range(1, 16):
        assert q_catalan_general(n, 2) == q_catalan(n)
    with pytest.raises(ValueError):
        q_catalan_general(3, 1)
    with pytest.raises(ValueError, match="needs m >= 2"):  # the registry's rule
        q_catalan_general(3, None)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_q_catalan_general_mass(m):
    for n in range(1, 9):
        p = q_catalan_general(n, m)
        assert p.is_palindromic()
        assert sum(p.coeffs) == math.comb(m * n, n) // ((m - 1) * n + 1)


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


def signed(a, b):
    """The signed exponent multiset of prod(1 - q^a_i) / prod(1 - q^b_i),
    e[x] = #{i : a_i = x} - #{j : b_j = x}, as the kernel counts it."""
    e = Counter(a)
    e.subtract(b)
    return e


@st.composite
def exponent_lists(draw):
    # A product of up to three Gaussian binomials [top choose k], which is a
    # polynomial, mostly spoiled by one more factor (1 - q)/(1 - q^x) or by
    # one redrawn exponent: about 60% of the draws stay polynomials.
    a, b = [], []
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(1, 5))
        top = draw(st.integers(k, 16))
        a += range(top - k + 1, top + 1)
        b += range(1, k + 1)
    how = draw(st.integers(0, 4))
    if how in (1, 2):
        a.append(1)
        b.append(draw(st.integers(2, 16)))
    elif how > 2:
        side = a if how == 3 else b
        side[draw(st.integers(0, len(side) - 1))] = draw(st.integers(1, 16))
    return tuple(a), tuple(b)


@settings(max_examples=300, deadline=None)
@given(lists=exponent_lists())
def test_kernel_agrees_with_long_division_and_the_full_build(lists):
    a, b = lists
    verdict = oracles.is_polynomial_by_division(a, b)
    assert (min(polyq._surplus(signed(a, b)).values(), default=0) >= 0) == verdict
    spec = SimpleNamespace(a=a, b=b)
    if not verdict:
        with pytest.raises(NotPolynomial):
            quotient_poly(spec)
        return
    p = quotient_poly(spec)
    assert p.coeffs == tuple(oracles.sequential_quotient(a, b))
    assert p.is_palindromic() and p.degree == sum(a) - sum(b)


@st.composite
def paired_exponent_lists(draw):
    # Doubling chains d, 2d, 4d with 0..2 copies of each link on either
    # side, so pairs (1 - q^2d)/(1 - q^d), chains of them, repeats and
    # cancelled entries all occur.  The denominator is padded with 1s and
    # the numerator with random exponents; about half of the draws are
    # polynomials, and a third of those run a pair pass.
    a, b = [], []
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.integers(1, 12))
        for x in (d, 2 * d, 4 * d)[: draw(st.integers(1, 3))]:
            a += [x] * draw(st.integers(0, 2))
            b += [x] * draw(st.integers(0, 2))
    b += [1] * (len(a) - len(b))
    a += draw(st.lists(st.integers(1, 24), min_size=len(b) - len(a), max_size=len(b) - len(a)))
    return tuple(a), tuple(b)


@settings(max_examples=300, deadline=None)
@given(lists=paired_exponent_lists())
def test_kernel_pairs_doubles_exactly(lists):
    a, b = lists
    spec = SimpleNamespace(a=a, b=b)
    if not oracles.is_polynomial_by_division(a, b):
        with pytest.raises(NotPolynomial):
            quotient_poly(spec)
        return
    assert quotient_poly(spec).coeffs == tuple(oracles.sequential_quotient(a, b))


def plan_of(a, b):
    """The kernel's plan (pairs, ups, downs) of a and b as plain dicts, so
    that an entry left at count 0 shows."""
    return tuple(map(dict, polyq._pair_doubles(signed(a, b))))


def multisets(*lists):
    return tuple(dict(Counter(xs)) for xs in lists)


def test_pair_doubles_takes_each_up_once():
    assert plan_of((2, 6, 6, 7), (1, 3, 3, 5)) == multisets([1, 3, 3], [7], [5])
    # a chain: the down 2 takes the up 4, and the down 1 finds no up 2
    assert plan_of((4, 8), (1, 2)) == multisets([2], [8], [1])
    assert plan_of((6, 6), (3,)) == multisets([3], [6], [])
    assert plan_of((5,), (2, 3)) == multisets([], [5], [3, 2])
    # common entries cancel: 4 on both sides leaves no pair for the down 2
    assert plan_of((4, 9), (2, 4)) == multisets([], [9], [2])


@settings(max_examples=300, deadline=None)
@given(
    a=st.lists(st.integers(1, 24), max_size=10),
    b=st.lists(st.integers(1, 24), max_size=10),
)
def test_pair_doubles_plans_as_the_sorted_lists_did(a, b):
    # repeats, common entries and doubling chains all occur in this range
    assert plan_of(a, b) == multisets(*oracles.paired_passes(a, b))


PASSES = ("_mul_one_plus_qpow", "_mul_one_minus_qpow", "_div_one_minus_qpow")


def count_passes(monkeypatch):
    """Patch the three linear passes to count their calls by name."""
    counts = Counter()
    for name in PASSES:
        def counted(c, k, size, _pass=getattr(polyq, name), _name=name):
            counts[_name] += 1
            return _pass(c, k, size)

        monkeypatch.setattr(polyq, name, counted)
    return counts


def test_q_catalan_runs_one_pass_per_pair(monkeypatch):
    counts = count_passes(monkeypatch)
    q_catalan(30)
    assert sum(counts.values()) == 43  # 2 * 29 - 15, against 58 unpaired
    assert counts["_mul_one_plus_qpow"] == 15
    for n in range(2, 41):
        counts.clear()
        q_catalan(n)
        assert sum(counts.values()) == 2 * (n - 1) - n // 2


@pytest.mark.parametrize("name, n_from", [("catalan", 2), ("catalan2", 3)])
def test_every_catalan_step_runs_three_passes(name, n_from, monkeypatch):
    counts = count_passes(monkeypatch)
    members = iter_family(name, n_from, 40)
    next(members)  # built from scratch
    for _ in range(n_from + 1, 41):
        counts.clear()
        next(members)
        assert sum(counts.values()) == 3 and counts["_mul_one_plus_qpow"] == 1


def polynomial_lists():
    return exponent_lists().filter(lambda lists: oracles.is_polynomial_by_division(*lists))


@settings(max_examples=200, deadline=None)
@given(prev=polynomial_lists(), other=polynomial_lists(), product=st.booleans())
def test_kernel_from_prev_equals_the_build_from_one(prev, other, product):
    # the target is the other quotient, or the product of both, which the
    # kernel can reach from prev in the other quotient's passes
    pa, pb = prev
    a, b = (pa + other[0], pb + other[1]) if product else other
    record = polyq._quotient_coeffs(pa, pb)
    kept = copy.deepcopy(record)
    stepped = polyq._quotient_coeffs(a, b, record)
    built = polyq._quotient_coeffs(a, b)
    assert stepped[:2] == built[:2]
    assert +stepped[2] == +built[2] and -stepped[2] == -built[2]
    # the step consumed prev's list, rewritten in place, whether it stepped
    # or rebuilt, and left prev's signed multiset and surplus as they were
    assert stepped[0] is record[0]
    assert record[1:] == kept[1:]
    assert record[1].keys() == kept[1].keys() and record[2].keys() == kept[2].keys()


def test_kernel_runs_from_prev_only_when_it_saves_passes(monkeypatch):
    counts = count_passes(monkeypatch)
    # from 1 + q to [4]: the step (1 - q^4)/(1 - q^2) is one pair pass, the
    # rebuild (1 - q^4)/(1 - q) two passes, so the kernel steps
    prev = ([1, 1], signed((2,), (1,)), polyq._surplus(signed((2,), (1,))))
    assert polyq._quotient_coeffs((4,), (1,), prev=prev)[0] == [1] * 4
    assert counts == {"_mul_one_plus_qpow": 1}
    # rebuilding (1 - q^2)(1 - q^12)/((1 - q)(1 - q^6)) is two pair passes,
    # as many as the unpaired step (1 - q^2)/(1 - q^6), so it builds from 1
    counts.clear()
    prev = ([1] * 12, signed((12,), (1,)), polyq._surplus(signed((12,), (1,))))
    c = polyq._quotient_coeffs((2, 12), (1, 6), prev=prev)[0]
    assert c == [1, 1, 0, 0, 0, 0, 1, 1]
    assert counts == {"_mul_one_plus_qpow": 2}
    # the rebuild starts from prev's own list, cut to [1]
    assert c is prev[0]


def test_each_build_from_scratch_starts_from_its_own_empty_product():
    # a step consumes the record it starts from, so an empty record shared
    # by the builds from scratch would hand the next build the list the
    # step left in it
    record = polyq._quotient_coeffs((2,), (1,))
    stepped = polyq._quotient_coeffs((2, 3), (1, 1), record)
    assert stepped[0] is record[0] and stepped[0] == [1, 2, 2, 1]
    seen = [stepped[0]]
    for a, b, expected in (((3,), (1,), [1, 1, 1]), ((), (), [1])):
        c = polyq._quotient_coeffs(a, b)[0]
        assert c == expected
        assert all(c is not old for old in seen)
        seen.append(c)


@pytest.mark.parametrize(
    "args, calls",
    [
        (("catalan", 2, 100), 101),
        (("catalan2", 2, 80), 82),
        (("mcatalan", 2, 50, 3), 54),
        (("mcatalan", 2, 40, 100), 77),
    ],
)
def test_the_rebuild_is_planned_only_when_it_can_win(args, calls, monkeypatch):
    # any plan of e takes at least sum|e| / 2 passes, so a step with fewer
    # than that wins without planning the rebuild; a build from 1 is planned
    # once, the step being the rebuild
    planned = []

    def spy(e, _plan=polyq._pair_doubles):
        planned.append(e)
        return _plan(e)

    monkeypatch.setattr(polyq, "_pair_doubles", spy)
    for _ in iter_family(*args):
        pass
    assert len(planned) == calls
    planned.clear()
    quotient_poly(QuotientSpec((4, 6), (2, 3)))
    assert len(planned) == 1


def log_passes(monkeypatch):
    """Patch the three linear passes to log (name, k, size) for each call;
    size is the number of coefficients the pass writes."""
    log = []
    for name in PASSES:
        def logged(c, k, size, _pass=getattr(polyq, name), _name=name):
            log.append((_name, k, size))
            return _pass(c, k, size)

        monkeypatch.setattr(polyq, name, logged)
    return log


def test_kernel_builds_only_the_head(monkeypatch):
    # every pass writes at most the head of the partial product it leaves,
    # min(its degree // 2 + 1, h), in builds from 1 and in sweep steps alike
    log = log_passes(monkeypatch)

    def check(start, degree):
        h, deg = degree // 2 + 1, start
        for name, k, size in log:
            deg += -k if name == "_div_one_minus_qpow" else k
            assert size <= min(deg // 2 + 1, h)
        assert deg == degree
        log.clear()

    p = q_catalan(30)
    assert max(size for *_, size in log) == p.degree // 2 + 1 == 436
    check(0, p.degree)
    check(0, q_catalan_general(20, 3).degree)
    members = iter_family("catalan", 5, 40)  # steps throughout
    prev = next(members)
    log.clear()
    for p in members:
        check(prev.degree, p.degree)
        prev = p


@pytest.mark.parametrize(
    "build, most",
    [
        # about two thirds of the 4565321 that passes over every partial
        # product up to h write, with each division after the last up
        (lambda: quotient_poly(polyq.preset("catalan", 200)), 3_000_000),
        # a sweep step writes no more than when it ran every pass at h
        (lambda: list(iter_family("catalan", 2, 100)), 500_243),
        (lambda: list(iter_family("mcatalan", 2, 50, 3)), 250_166),
    ],
    ids=["catalan-200", "catalan-sweep-2-100", "mcatalan3-sweep-2-50"],
)
def test_the_passes_write_a_bounded_number_of_coefficients(build, most, monkeypatch):
    log = log_passes(monkeypatch)
    build()
    assert 0 < sum(size for *_, size in log) <= most


def test_each_division_runs_as_soon_as_the_content_allows():
    # q_catalan(8) from 1: the pairs leave Phi_2 twice and Phi_4 once, so
    # after the up 11 the down 4 divides, the down 2 waits for the next
    # up's Phi_1, and the down 3 for the up 15's Phi_3
    plan = polyq._pair_doubles(signed(range(10, 17), range(2, 9)))
    assert plan == (Counter([5, 6, 7, 8]), Counter([11, 13, 15]), Counter([4, 3, 2]))
    assert polyq._schedule(plan, Counter())[0] == [
        (5, 0), (6, 0), (7, 0), (8, 0), (11, 1), (4, -1), (13, 1), (2, -1), (15, 1), (3, -1),
    ]
    # the mcatalan m = 3 step from n = 5 to 6 starts from the content of
    # member 5, which lets a down follow each up
    fam = FAMILIES["mcatalan"]
    before, after = (signed(*fam.exponents(n, 3)) for n in (5, 6))
    step = after.copy()
    step.subtract(before)
    plan = polyq._pair_doubles(step)
    assert polyq._schedule(plan, polyq._surplus(before))[0] == [
        (16, 1), (13, -1), (17, 1), (12, -1), (18, 1), (6, -1),
    ]


def test_every_family_step_runs_the_passes_in_the_elementwise_order():
    # each step n -> n + 1 from member n's content; catalan and catalan2
    # take one up per step, which the binomial products rarely draw
    for name, m, n_end in (("catalan", None, 80), ("catalan2", None, 80),
                           ("mcatalan", 3, 40), ("mcatalan", 7, 40)):
        fam = FAMILIES[name]
        for n in range(1, n_end):
            before = signed(*fam.exponents(n, m))
            step = signed(*fam.exponents(n + 1, m))
            step.subtract(before)
            content = polyq._surplus(before)
            ups, downs = (+step).elements(), (-step).elements()
            expected = oracles.elementwise_schedule(oracles.paired_passes(ups, downs), content)
            assert polyq._schedule(polyq._pair_doubles(step), content)[0] == expected


@st.composite
def repeated_binomial_products(draw):
    # 1 to 3 Gaussian binomials [top choose k], each taken 1 to 6 times, so
    # that exponents repeat on both sides
    a, b = [], []
    for _ in range(draw(st.integers(1, 3))):
        top = draw(st.integers(2, 30))
        k = draw(st.integers(1, min(top - 1, 8)))
        times = draw(st.integers(1, 6))
        a += list(range(top - k + 1, top + 1)) * times
        b += list(range(1, k + 1)) * times
    return a, b


@settings(max_examples=200, deadline=None)
@given(product=repeated_binomial_products(), prev=repeated_binomial_products())
def test_the_schedule_runs_the_passes_in_the_elementwise_order(product, prev):
    # the product built from 1, and as the step from prev to prev * product,
    # which starts from prev's content
    a, b = product
    plan = polyq._pair_doubles(signed(a, b))
    for content in (Counter(), polyq._surplus(signed(*prev))):
        before = content.copy()
        expected = oracles.elementwise_schedule(oracles.paired_passes(a, b), content)
        assert polyq._schedule(plan, content)[0] == expected
        assert content == before


def test_the_schedule_looks_up_the_content_linearly_in_the_copies():
    # (1 + q + q^2)^2000: after each up 3 one copy of the down 1 divides,
    # so a schedule that tests each waiting copy on its own makes about
    # 2000^2 / 2 lookups
    class Lookups(Counter):
        count = 0

        def __getitem__(self, x):
            Lookups.count += 1
            return super().__getitem__(x)

    plan = polyq._pair_doubles(signed((3,) * 2000, (1,) * 2000))
    order = polyq._schedule(plan, Lookups())[0]
    assert order == [(3, 1), (1, -1)] * 2000
    assert Lookups.count <= 10 * 2000


def test_the_mirror_negates_an_antipalindromic_head():
    # (1 - q^3)(1 + q) = 1 + q - q^3 - q^4 has the zero middle of an
    # antipalindromic polynomial of even degree
    c = [1, 1, 0]
    polyq._mirror(c, 4, -1, 9)
    assert c == [1, 1, 0, -1, -1]
    c = [1, 2]
    polyq._mirror(c, 3, 1, 3)
    assert c == [1, 2, 2]
    polyq._mirror(c, 3, 1, 2)
    assert c == [1, 2, 2]
    # the kernel's final tail: a head of d // 2 + 1 entries mirrored to
    # size d + 1, for an even and an odd degree
    c = [1, 2, 3]
    polyq._mirror(c, 4, 1, 5)
    assert c == [1, 2, 3, 2, 1]
    c = [1, 2, 3]
    polyq._mirror(c, 5, 1, 6)
    assert c == [1, 2, 3, 3, 2, 1]
    # 1 + 2q + q^2 - q^3 - 2q^4 - q^5, antipalindromic of odd degree
    c = [1, 2, 1]
    polyq._mirror(c, 5, -1, 6)
    assert c == [1, 2, 1, -1, -2, -1]


def test_the_kernel_mirrors_antipalindromic_partials_of_even_degree(monkeypatch):
    # mcatalan m = 3 at n = 10 runs an up with no down after it three times
    # from a partial product of even degree, so the next multiplication
    # mirrors an antipalindromic head, whose middle coefficient is zero
    middles = []

    def spy(c, degree, sign, size, _mirror=polyq._mirror):
        if sign < 0 and degree % 2 == 0 and min(size, degree + 1) > len(c):
            middles.append(c[degree // 2])
        _mirror(c, degree, sign, size)

    monkeypatch.setattr(polyq, "_mirror", spy)
    assert q_catalan_general(10, 3) == sequential_member("mcatalan", 10, 3)
    assert middles == [0, 0, 0]


@st.composite
def binomial_products(draw, spoil=True):
    # A product of 2 to 4 Gaussian binomials [top choose k] with top <= 40,
    # its exponent lists shuffled.  With spoil, a third of the draws gain
    # one factor (1 - q^x)/(1 - q^y), which mostly leaves no polynomial.
    a, b = [], []
    for _ in range(draw(st.integers(2, 4))):
        top = draw(st.integers(2, 40))
        k = draw(st.integers(1, min(top - 1, 10)))
        a += range(top - k + 1, top + 1)
        b += range(1, k + 1)
    if spoil and draw(st.integers(0, 2)) == 0:
        a.append(draw(st.integers(1, 40)))
        b.append(draw(st.integers(1, 40)))
    return tuple(draw(st.permutations(a))), tuple(draw(st.permutations(b)))


@st.composite
def interleaved_cases(draw):
    # (prev, a, b): the kernel builds a, b from 1 when prev is None, else
    # steps from the record of the unspoiled product prev; the target is
    # the drawn product, or prev times it
    a, b = draw(binomial_products())
    prev = draw(st.none() | binomial_products(spoil=False))
    if prev is not None and draw(st.booleans()):
        a, b = a + prev[0], b + prev[1]
    return prev, a, b


@settings(max_examples=150, deadline=None)
@given(case=interleaved_cases())
@example(case=(None, tuple(range(22, 31)), tuple(range(2, 11))))
@example(case=((tuple(range(12, 16)), tuple(range(2, 6))), tuple(range(14, 19)), tuple(range(2, 7))))
def test_interleaved_schedules_build_exactly_the_polynomials(case):
    # the examples are mcatalan m = 3 at n = 10 from 1, which mirrors
    # antipalindromic partials of even degree, and the step from n = 5 to 6,
    # which divides after each up from the content of member 5
    prev, a, b = case
    record = None if prev is None else polyq._quotient_coeffs(*prev)
    try:
        expected = oracles.sequential_quotient(a, b)
    except NonzeroRemainder:
        with pytest.raises(NotPolynomial):
            polyq._quotient_coeffs(a, b, record)
    else:
        assert polyq._quotient_coeffs(a, b, record)[0] == expected


def test_reject_is_decided_before_any_pass(monkeypatch):
    # the benchmark's reject case: 59 divides only 118 among a, twice in b
    def no_pass(*args):
        raise AssertionError("a linear pass ran")

    for name in PASSES:
        monkeypatch.setattr(polyq, name, no_pass)
    spec = QuotientSpec(a=tuple(range(61, 121)), b=tuple(range(1, 60)) + (59,))
    with pytest.raises(NotPolynomial):
        quotient_poly(spec)


def test_negative_degree_is_rejected_before_the_ledger(monkeypatch):
    def no_ledger(*args):
        raise AssertionError("the ledger ran")

    monkeypatch.setattr(polyq, "_surplus", no_ledger)
    with pytest.raises(NotPolynomial, match="negative degree"):
        quotient_poly(SimpleNamespace(a=(2, 9), b=(3, 9)))


def test_mass_check_catches_a_broken_pass(monkeypatch):
    good = polyq._div_one_minus_qpow

    def off_by_one(c, k, size):
        out = good(c, k, size)
        out[-1] += 1
        return out

    monkeypatch.setattr(polyq, "_div_one_minus_qpow", off_by_one)
    with pytest.raises(ArithmeticError, match="does not sum to prod"):
        q_catalan(6)


COPYING_PASSES = {
    "_mul_one_plus_qpow": oracles.copying_mul_one_plus_qpow,
    "_mul_one_minus_qpow": oracles.copying_mul_one_minus_qpow,
    "_div_one_minus_qpow": oracles.copying_div_one_minus_qpow,
}


@st.composite
def pass_cases(draw):
    # (name, c, k, size), size within what the pass accepts
    name = draw(st.sampled_from(PASSES))
    c = draw(st.lists(st.integers(-(10 ** 30), 10 ** 30), min_size=1, max_size=40))
    k = draw(st.integers(1, 12))
    low, high = (0, len(c)) if name == "_div_one_minus_qpow" else (len(c), len(c) + k)
    return name, c, k, draw(st.integers(low, high))


@pytest.mark.parametrize("block", [1, 2, 3, 2 ** 11])
@settings(max_examples=300, deadline=None)
@given(case=pass_cases())
def test_each_pass_rewrites_its_list_as_the_copying_pass_builds_a_new_one(block, case):
    # slices of 1 to 3 entries, and division chunks of 1 to 3 terms a
    # class, put a boundary between almost every pair of entries
    name, c, k, size = case
    expected = COPYING_PASSES[name](c, k, size)
    with mock.patch.object(polyq, "_PASS_BLOCK", block):
        out = getattr(polyq, name)(c, k, size)
    assert out is c and out == expected


def test_a_build_peaks_near_what_it_holds():
    # the passes rewrite the kernel's one list, with at most _PASS_BLOCK
    # new coefficients beside it; the rest of the peak is the list beside
    # the result's tuple.  Measured on CPython 3.11: 1.25, and 1.95 when
    # each pass built a new list beside the old one.
    tracemalloc.start()
    try:
        p = q_catalan(150)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert p.degree == 150 * 149
    assert peak <= 1.45 * held


@pytest.mark.parametrize("block", [3, 2 ** 11])
def test_a_sweep_rewrites_one_list_and_leaves_each_previous_member_as_it_was(block, monkeypatch):
    # the heads of members 60..75 run past one slice of 2^11 entries; member
    # 60 is built from scratch, with no prev, and each later step rewrites
    # the list of the record before it in place
    monkeypatch.setattr(polyq, "_PASS_BLOCK", block)
    kernel = polyq._quotient_coeffs
    steps = []

    def spy(a, b, prev=None):
        kept = prev and copy.deepcopy(prev[1:])
        record = kernel(a, b, prev)
        steps.append((prev, kept, record))
        return record

    monkeypatch.setattr(polyq, "_quotient_coeffs", spy)
    members = iter_family("catalan", 60, 75)
    previous = next(members)
    for n, member in enumerate(members, 61):
        assert previous == q_catalan_via_binomial(n - 1)
        previous = member
    assert previous == q_catalan_via_binomial(75)
    assert len(steps) == 16
    assert steps[0][0] is None
    assert all(prev[0] is record[0] for prev, _, record in steps[1:])
    for (_, e, surplus), kept, _ in steps[1:]:
        assert (e, surplus) == kept
        assert e.keys() == kept[0].keys() and surplus.keys() == kept[1].keys()


def test_size_check_reads_lazily_and_refuses_past_the_limit():
    assert _check_size(range(1, 4)) == [1, 2, 3]
    assert _check_size([SUM_LIMIT]) == [SUM_LIMIT]
    with pytest.raises(QuotientTooLarge, match=str(SUM_LIMIT)):
        _check_size([SUM_LIMIT, 1])
    with pytest.raises(QuotientTooLarge):
        _check_size(range(1, 10 ** 12))  # stops after about 2900 entries
    assert issubclass(QuotientTooLarge, ValueError)
    # general --preset catalan --n 1000 stays legal
    _check_size(FAMILIES["catalan"].exponents(1000, None)[0])


def test_iter_family_refuses_an_oversized_n_to_up_front():
    # catalan at n = 1700 has numerator exponents summing to 4334149;
    # iter_family is lazy otherwise, so nothing is built either way
    with pytest.raises(QuotientTooLarge):
        iter_family("catalan", 1, 1700)
    with pytest.raises(QuotientTooLarge):
        iter_family("catalan2", 1, 10 ** 9)


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


def test_the_catalan_lists_are_the_m_2_lists():
    # C_n = prod_{i=2..n} (1 - q^(n+i)) / (1 - q^i) is the m-Catalan member at m = 2
    catalan, mcatalan = FAMILIES["catalan"].exponents, FAMILIES["mcatalan"].exponents
    for n in range(1, 61):
        assert [list(xs) for xs in catalan(n, None)] == [list(xs) for xs in mcatalan(n, 2)], n
        if n >= 2:
            assert preset("catalan", n) == preset("mcatalan", n, 2), n


def sequential_member(name, n, m):
    """Member n of a family by full-length passes on its registry lists,
    independent of the kernel."""
    return IntPoly(oracles.sequential_quotient(*FAMILIES[name].exponents(n, m)))


@st.composite
def sweep_ranges(draw):
    # mcatalan with m up to 100 and n up to 12 rebuilds most members; the
    # other families step from n = 2 on
    name = draw(st.sampled_from(sorted(FAMILIES)))
    top = 12 if FAMILIES[name].takes_m else 40
    n_from, n_to = sorted(draw(st.tuples(st.integers(1, top), st.integers(1, top))))
    m = draw(st.integers(2, 100)) if FAMILIES[name].takes_m else None
    return name, m, n_from, n_to


@settings(max_examples=40, deadline=None)
@given(sweep=sweep_ranges())
def test_iter_family_matches_from_scratch_builders(sweep):
    name, m, n_from, n_to = sweep
    members = list(iter_family(name, n_from, n_to, m))
    assert members == [sequential_member(name, n, m) for n in range(n_from, n_to + 1)]


def test_iter_family_steps_past_the_rebuild_crossover(monkeypatch):
    # m = 7 rebuilds while a step needs as many passes as a rebuild or more
    # (n < 9) and steps afterwards; m = 100 rebuilds throughout.  A rebuild
    # hands its first pass the list [1], a step the member before's head,
    # and both kinds of member must match the oracle.
    handed = []
    for name in PASSES:
        def record(c, k, size, _pass=getattr(polyq, name)):
            handed.append(len(c))
            return _pass(c, k, size)

        monkeypatch.setattr(polyq, name, record)
    for m, n_to, first_step in ((7, 20, 9), (100, 12, 13)):
        members = iter_family("mcatalan", 1, n_to, m)
        assert next(members) == sequential_member("mcatalan", 1, m)
        stepped = []
        for n in range(2, n_to + 1):
            handed.clear()
            assert next(members) == sequential_member("mcatalan", n, m)
            if handed[0] > 1:
                stepped.append(n)
        assert stepped == list(range(first_step, n_to + 1))


def test_iter_family_yields_lazily():
    members = iter_family("catalan", 1, 1500)
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


def test_get_family_rejects_m_where_it_does_not_apply():
    # the one m policy of library and CLI; iter_family raises on the call,
    # before its lazy sweep builds anything
    with pytest.raises(ValueError, match="m only applies to the mcatalan family"):
        get_family("catalan", 3)
    with pytest.raises(ValueError, match="m only applies"):
        iter_family("catalan", 2, 3, m=3)
    assert get_family("catalan") is FAMILIES["catalan"]
    assert get_family("mcatalan", 3).build(4, 3) == q_catalan_general(4, 3)


@pytest.mark.parametrize(
    "name, m", [("catalan", None), ("catalan2", None)] + [("mcatalan", m) for m in range(2, 13)]
)
def test_member_one_is_the_empty_product_of_its_registry_lists(name, m):
    fam = get_family(name, m)
    a, b = map(tuple, fam.exponents(1, m))
    assert len(a) == len(b)
    assert quotient_poly(QuotientSpec(a, b)) == IntPoly([1])
    fam.check_size(1, m)
    assert fam.build(1, m) == IntPoly([1])


def test_require_nonnegative():
    c = [1, 0, 2]
    assert _require_nonnegative(c, "x") is c
    assert _require_nonnegative([], "x") == []
    with pytest.raises(ArithmeticError, match="q_catalan\\(7\\) has a negative coefficient"):
        _require_nonnegative([1, -1, 1], "q_catalan(7)")


@pytest.mark.parametrize(
    "name, m, n_to",
    [("catalan", None, 150), ("catalan2", None, 120)] + [("mcatalan", m, 40) for m in range(2, 13)],
)
def test_carried_surplus_equals_the_count_from_scratch(name, m, n_to, monkeypatch):
    kernel = polyq._quotient_coeffs
    seen = []

    def spy(a, b, prev=None):
        a, b = tuple(a), tuple(b)  # a family member's exponent lists are lazy
        record = kernel(a, b, prev)
        seen.append((a, b, prev is not None, record[1], record[2]))
        return record

    monkeypatch.setattr(polyq, "_quotient_coeffs", spy)
    for _ in iter_family(name, 2, n_to, m):
        pass
    assert [stepped for _, _, stepped, _, _ in seen] == [False] + [True] * (n_to - 2)
    for a, b, _, e, surplus in seen:
        # the carried signed multiset is the member's own, common entries cancelled
        assert +e == Counter(a) - Counter(b) and -e == Counter(b) - Counter(a)
        counted = polyq._surplus(signed(a, b))
        assert +surplus == +counted and -surplus == -counted
        assert not -surplus


def test_the_kernel_never_cancels_lists():
    # the signed exponent multiset cancels common factors as it is counted
    members = list(iter_family("catalan2", 1, 30))
    assert members[-1] == q_catalan_second(30)
    assert list(iter_family("mcatalan", 2, 12, 5))[-1] == q_catalan_general(12, 5)
    spec = SimpleNamespace(a=(2, 4, 6, 9), b=(1, 2, 3, 9))
    assert quotient_poly(spec).coeffs == tuple(oracles.sequential_quotient(spec.a, spec.b))


@settings(max_examples=200, deadline=None)
@given(prev=polynomial_lists(), other=exponent_lists(), product=st.booleans())
def test_the_step_from_prev_rejects_exactly_the_non_polynomials(prev, other, product):
    # the target is a spoiled quotient, or prev times one; the step carries
    # prev's surplus and counts only the step's factors
    pa, pb = prev
    a, b = (pa + other[0], pb + other[1]) if product else other
    carried = polyq._quotient_coeffs(pa, pb)
    if oracles.is_polynomial_by_division(a, b):
        assert polyq._quotient_coeffs(a, b, carried)[0] == oracles.sequential_quotient(a, b)
    else:
        kept = copy.deepcopy(carried)
        with pytest.raises(NotPolynomial):
            polyq._quotient_coeffs(a, b, carried)
        # the ledger refuses before any pass, so prev's list is untouched,
        # and it reads prev's signed multiset and surplus without writing them
        assert carried == kept
        assert all(dict(held) == dict(was) for held, was in zip(carried[1:], kept[1:]))


def test_a_large_reject_allocates_under_a_megabyte():
    # 3 divides no numerator exponent.  A ledger indexed by value up to
    # 2^22 would allocate tens of megabytes before refusing this.
    tracemalloc.start()
    try:
        with pytest.raises(NotPolynomial):
            polyq._quotient_coeffs((4194304,), (3,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def alternating_sum_closed(a, b):
    """Q(-1) for Q = prod(1 - q^a_i) / prod(1 - q^b_i), from the exponents.

    At q = -1 a factor 1 - q^x is 2 for odd x; for even x it is
    (1 - q^2)(1 + q^2 + ... + q^(x-2)), a simple zero times x/2.  So a
    polynomial Q, whose zeros at -1 cannot be outnumbered by its poles, has
    Q(-1) = 0 when a holds more even exponents than b, and otherwise, with
    a and b equally long as a QuotientSpec holds them, the factors of 2
    cancel and Q(-1) = prod_{even a}(x/2) / prod_{even b}(x/2).
    """
    even_a = [x for x in a if x % 2 == 0]
    even_b = [x for x in b if x % 2 == 0]
    assert len(a) == len(b) and len(even_a) >= len(even_b)
    if len(even_a) > len(even_b):
        return Fraction(0)
    value = Fraction(1)
    for x in even_a:
        value *= Fraction(x, 2)
    for x in even_b:
        value /= Fraction(x, 2)
    return value


def alternating_sum(coeffs):
    """sum (-1)^k c_k, the polynomial at q = -1."""
    return sum(coeffs[0::2]) - sum(coeffs[1::2])


@pytest.mark.parametrize(
    "name, m", [("catalan", None), ("catalan2", None), ("mcatalan", 3), ("mcatalan", 7)]
)
def test_every_family_member_takes_its_closed_value_at_q_minus_1(name, m):
    # q = -1 weighs the coefficients by sign, so it sees a corruption that
    # keeps the mass Q(1), such as +1 at k and -1 at k + 5
    exponents = FAMILIES[name].exponents
    for n, p in zip(range(1, 60), iter_family(name, 1, 59, m)):
        a, b = map(tuple, exponents(n, m))
        assert Fraction(alternating_sum(p.coeffs)) == alternating_sum_closed(a, b), (name, m, n)
    broken = list(p.coeffs)
    broken[3] += 1
    broken[8] -= 1
    assert sum(broken) == sum(p.coeffs)
    assert Fraction(alternating_sum(broken)) != alternating_sum_closed(a, b)


@settings(max_examples=200, deadline=None)
@given(lists=polynomial_lists())
def test_a_polynomial_quotient_takes_its_closed_value_at_q_minus_1(lists):
    a, b = lists
    p = quotient_poly(QuotientSpec(a=a, b=b))
    assert Fraction(alternating_sum(p.coeffs)) == alternating_sum_closed(a, b)
