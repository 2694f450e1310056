"""The library's record types: construction, value equality and hashing,
immutability, validation and derived properties.

These pin the public behaviour of the ten records independently of how each
one is implemented.
"""

import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qcatalan.exactnum import BernoulliTable, bernoulli_table
from qcatalan.limitlaw import GecoParams, GecoReport, GecoViolation, TailReport
from qcatalan.moments import DistSummary
from qcatalan.polyq import (
    FAMILIES,
    SUM_LIMIT,
    Family,
    IntPoly,
    QuotientSpec,
    QuotientTooLarge,
    quotient_poly,
)
from qcatalan.shape import ShapeReport


def _build(n, m):
    return IntPoly([1] * n)


def _exponents(n, m):
    return range(n + 2, 2 * n + 1), range(2, n + 1)


# (record type, field values in declaration order, a second value set that
# differs in one field)
RECORDS = [
    (IntPoly, {"coeffs": (1, 2, 1)}, {"coeffs": (1, 3, 1)}),
    (
        QuotientSpec,
        {"a": (4, 6), "b": (1, 2)},
        {"a": (4, 6), "b": (1, 3)},
    ),
    (
        DistSummary,
        {"mass": 4, "mean": Fraction(3, 2), "variance": Fraction(5, 12), "degree": 3},
        {"mass": 4, "mean": Fraction(3, 2), "variance": Fraction(7, 12), "degree": 3},
    ),
    (
        BernoulliTable,
        {"values": (Fraction(1), Fraction(-1, 2), Fraction(1, 6))},
        {"values": (Fraction(1), Fraction(-1, 2))},
    ),
    (
        GecoParams,
        {"alpha": 2.0, "beta": -0.5, "gamma": -0.25},
        {"alpha": 2.0, "beta": -0.5, "gamma": -0.5},
    ),
    (
        GecoViolation,
        {"n": 10, "k": 3, "ratio": 0.5, "bound": 0.25},
        {"n": 10, "k": 4, "ratio": 0.5, "bound": 0.25},
    ),
    (
        GecoReport,
        {"params": GecoParams(2.0, -0.5, -0.25), "checked": 5, "violations": ()},
        {"params": GecoParams(2.0, -0.5, -0.25), "checked": 6, "violations": ()},
    ),
    (
        TailReport,
        {"n": 30, "t": 1.5, "K": 20, "tail_value": -0.01, "leading_term": 1.125,
         "truncation_delta": None},
        {"n": 30, "t": 1.5, "K": 20, "tail_value": -0.01, "leading_term": 1.125,
         "truncation_delta": 1e-12},
    ),
    (
        ShapeReport,
        {"family": "catalan", "n": 20, "degree": 190, "interior_unimodal": True,
         "first_unimodality_violation": None, "min_logconcave_t": 12,
         "first_lc_violation_at_t0": 1},
        {"family": "catalan", "n": 20, "degree": 190, "interior_unimodal": True,
         "first_unimodality_violation": None, "min_logconcave_t": 13,
         "first_lc_violation_at_t0": 1},
    ),
    (
        Family,
        {"name": "demo", "takes_m": False, "build": _build, "exponents": _exponents},
        {"name": "demo", "takes_m": True, "build": _build, "exponents": _exponents},
    ),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize(("cls", "fields", "other"), RECORDS, ids=IDS)
def test_keyword_and_positional_construction_agree(cls, fields, other):
    by_keyword = cls(**fields)
    by_position = cls(*fields.values())
    assert by_keyword == by_position
    for name, value in fields.items():
        assert getattr(by_keyword, name) == value
        assert getattr(by_position, name) == value


@pytest.mark.parametrize(("cls", "fields", "other"), RECORDS, ids=IDS)
def test_equality_and_hash_by_value(cls, fields, other):
    one, two = cls(**fields), cls(**fields)
    assert one is not two
    assert one == two and not one != two
    assert hash(one) == hash(two)
    assert len({one, two}) == 1
    different = cls(**other)
    assert one != different and not one == different
    assert one != object()


@pytest.mark.parametrize(("cls", "fields", "other"), RECORDS, ids=IDS)
def test_fields_cannot_be_assigned(cls, fields, other):
    record = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) == value


@pytest.mark.parametrize(("cls", "fields", "other"), RECORDS, ids=IDS)
def test_copies_equal_the_original(cls, fields, other):
    record = cls(**fields)
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_defaults_and_reprs():
    assert IntPoly().coeffs == ()
    assert repr(QuotientSpec([4, 6], [1, 2])) == "QuotientSpec(a=(4, 6), b=(1, 2))"
    assert repr(GecoParams(2.0, -0.5, -0.25)) == "GecoParams(alpha=2.0, beta=-0.5, gamma=-0.25)"
    assert repr(GecoViolation(10, 2, 0.5, 0.25)) == "GecoViolation(n=10, k=2, ratio=0.5, bound=0.25)"


def test_intpoly_trims_and_keeps_its_repr():
    p = IntPoly([1, 0, 2, 0, 0])
    assert p.coeffs == (1, 0, 2)
    assert p.degree == 2
    assert repr(p) == "IntPoly(1 + 2*q^2)"
    assert repr(IntPoly()) == "IntPoly(0)"
    assert repr(IntPoly([0, -1, 3])) == "IntPoly(-q + 3*q^2)"
    assert repr(IntPoly([5] * 8)) == (
        "IntPoly(5 + 5*q + 5*q^2 + 5*q^3 + 5*q^4 + 5*q^5 + 5*q^6 + 5*q^7)"
    )
    with pytest.raises(ValueError, match="undefined"):
        IntPoly().degree


def test_an_elided_intpoly_repr_keeps_the_sign_of_its_last_term():
    assert repr(IntPoly([1] * 9 + [-2])) == "IntPoly(1 + q + q^2 + q^3 ... - 2*q^9)"
    assert repr(IntPoly([1] * 9 + [2])) == "IntPoly(1 + q + q^2 + q^3 ... + 2*q^9)"
    assert repr(IntPoly([-1] * 9)) == "IntPoly(-1 - q - q^2 - q^3 ... - q^8)"


def test_an_intpoly_repr_converts_only_the_terms_it_shows():
    # 10**5000 is past the int-to-str digit limit, and the repr elides it
    assert repr(IntPoly([1] * 4 + [10 ** 5000] + [1] * 5)) == "IntPoly(1 + q + q^2 + q^3 ... + q^9)"


@given(st.lists(st.integers(-10**30, 10**30), max_size=20), st.integers(0, 10))
def test_intpoly_ignores_trailing_zeros(c, k):
    padded, plain = IntPoly(c + [0] * k), IntPoly(c)
    assert padded == plain
    assert hash(padded) == hash(plain)


def test_quotient_spec_normalizes_to_tuples():
    spec = QuotientSpec(a=[4, 6], b=iter([1, 2]))
    assert spec.a == (4, 6) and spec.b == (1, 2)
    assert spec == QuotientSpec((4, 6), (1, 2))


@pytest.mark.parametrize(
    ("a", "b", "message"),
    [
        ((4, 6), (1,), "lengths differ"),
        ((4, 0), (1, 2), "a entries must be positive"),
        ((4, 6), (1, -2), "b entries must be positive"),
    ],
)
def test_quotient_spec_validation(a, b, message):
    with pytest.raises(ValueError, match=message):
        QuotientSpec(a=a, b=b)


@pytest.mark.parametrize(
    ("alpha", "beta", "gamma", "message"),
    [
        (math.nan, -0.5, -0.5, "alpha must be finite"),
        (1.0, -math.inf, -0.5, "beta must be finite"),
        (1.0, -0.5, math.inf, "gamma must be finite"),
        (0.0, -0.5, -0.5, "alpha must be positive"),
        (1.0, 0.0, -0.5, "beta must be negative"),
        (1.0, -0.5, 0.0, "gamma must be negative"),
    ],
)
def test_geco_params_validation(alpha, beta, gamma, message):
    with pytest.raises(ValueError, match=message):
        GecoParams(alpha=alpha, beta=beta, gamma=gamma)


def test_geco_params_bound():
    params = GecoParams(2.0, -0.5, -0.25)
    assert params.bound(16, 1) == 16 ** -0.25 * (2.0 * 16 ** -0.5) ** 2


def test_bernoulli_table_indexing():
    table = bernoulli_table(3)
    assert table.max_index == 6
    assert [table[j] for j in range(7)] == list(table.values)
    assert table[0] == 1 and table[1] == Fraction(-1, 2) and table[6] == Fraction(1, 42)
    for j in (-1, 7):
        with pytest.raises(IndexError, match="not tabulated"):
            table[j]
    assert BernoulliTable(()).max_index == -1


def test_dist_summary_sigma():
    summary = DistSummary(mass=4, mean=Fraction(3, 2), variance=Fraction(9, 4), degree=3)
    assert summary.sigma == 1.5


def test_geco_report_ok():
    params = GecoParams(2.0, -0.5, -0.25)
    assert GecoReport(params, 3, ()).ok
    violation = GecoViolation(n=10, k=2, ratio=0.5, bound=0.25)
    assert not GecoReport(params, 3, (violation,)).ok


def test_family_check_size_and_registry():
    assert set(FAMILIES) == {"catalan", "catalan2", "mcatalan"}
    assert all(fam.name == name for name, fam in FAMILIES.items())
    fam = Family("demo", False, _build, _exponents)
    fam.check_size(1)
    fam.check_size(1000)
    with pytest.raises(QuotientTooLarge):
        fam.check_size(SUM_LIMIT)


@pytest.mark.parametrize("bad", [4.0, 4.9, "4", Fraction(4), Fraction(9, 2)])
def test_integers_are_taken_exactly(bad):
    with pytest.raises(TypeError):
        IntPoly([1, bad])
    with pytest.raises(TypeError):
        QuotientSpec(a=[bad, 6], b=[1, 2])
    with pytest.raises(TypeError):
        QuotientSpec(a=[4, 6], b=[1, bad])


def test_float_and_string_exponents_are_not_truncated():
    with pytest.raises(TypeError):
        quotient_poly(QuotientSpec(a=[4.9, 6.2], b=[1.5, "2"]))
