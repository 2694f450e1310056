"""Tests of the benchmark's own logic.  Run with `python3 -m pytest bench`."""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads
from tracer import Span

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qcatalan import NotPolynomial, QuotientSpec, quotient_poly  # noqa: E402


def test_cyclotomic_criterion_agrees_with_quotient_poly():
    rng = random.Random(20071)
    seen = {True: 0, False: 0}
    for _ in range(300):
        # A Gaussian binomial [n choose k] with one exponent redrawn: about
        # half of these stay polynomials.
        k, n = rng.randint(1, 5), rng.randint(6, 14)
        a = list(range(n - k + 1, n + 1))
        b = list(range(1, k + 1))
        (a if rng.random() < 0.5 else b)[rng.randrange(k)] = rng.randint(1, 14)
        a, b = tuple(a), tuple(b)
        try:
            quotient_poly(QuotientSpec(a=a, b=b))
            built = True
        except NotPolynomial:
            built = False
        assert workloads.is_polynomial(a, b) == built, (a, b)
        seen[built] += 1
    assert min(seen.values()) >= 20


def test_reject_case_is_not_a_polynomial():
    assert not workloads.is_polynomial(workloads.REJECT_A, workloads.REJECT_B)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeded_commands_are_deterministic(workload):
    for seed in (0, 1, 17):
        assert workloads.commands(workload, seed, 2) == workloads.commands(workload, seed, 2)
    generated = {tuple(workloads.commands(workload, seed, 2)) for seed in range(8)}
    assert len(generated) > 1


def test_random_products_are_polynomials_of_the_target_size():
    for seed in range(20):
        a, b = workloads.random_binomial_product(random.Random(seed))
        assert workloads.is_polynomial(a, b)
        assert len(a) == len(b) == workloads.FACTOR_SUM
        assert abs(sum(a) - sum(b) - workloads.PRODUCT_DEGREE) <= 60


def test_threads_never_exceed_nproc():
    for nproc in (1, 2, 64):
        for workload in workloads.WORKLOADS:
            for cmd in workloads.commands(workload, 0, nproc):
                assert 1 <= cmd.threads <= nproc


def test_general_check_catches_a_wrong_coefficient():
    a, b = (5, 6), (1, 2)  # [6 choose 2]_q
    cmd = workloads._general(a, b, K=3)
    coeffs = quotient_poly(QuotientSpec(a=a, b=b)).coeffs
    header = "kind,k,coeff,mass,mean,variance,closed_mean,closed_variance,match,ratio,bound,ok\n"
    rows = "".join(f"coeff,{k},{c},,,,,,,,,\n" for k, c in enumerate(coeffs))
    tail = "moment,,,15,4,8/3,4,8/3,true,,,\nratio,2,,,,,,,,0.1,,\nratio,3,,,,,,,,0.01,,\n"
    good = (header + rows + tail).encode()
    assert workloads.check_output(cmd, 0, good) == []
    assert workloads.check_output(cmd, 0, good.replace(b"coeff,1,1,", b"coeff,1,2,")) != []
    assert workloads.check_output(cmd, 0, good.replace(b"true", b"false")) != []
    assert workloads.check_output(cmd, 3, b"") != []


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile([float(x) for x in range(1, 20)]) is None
    assert run.tail_percentile([float(x) for x in range(1, 21)]) == (50, 10.0)
    assert run.tail_percentile([float(x) for x in range(100, 0, -1)]) == (90, 90.0)
    assert run.tail_percentile([float(x) for x in range(1, 1001)]) == (99, 990.0)


def test_interquartile_mean_ignores_the_outer_quarters():
    assert run.interquartile_mean([1.0, 2.0, 3.0, 4.0]) == 2.5
    assert run.interquartile_mean([100.0, 2.0, 3.0, 1.0, 4.0, 2.5, 3.5, 0.0]) == 2.75
    assert run.interquartile_mean([5.0]) == 5.0


def _span(layer, start, end, parent=-1, name="f", **kw):
    return Span(layer, name, start, end, parent, **kw)


def test_self_time_subtracts_children_once():
    spans = [
        _span("cli", 0.0, 10.0),            # 0
        _span("polyq", 1.0, 4.0, 0),        # 1
        _span("polyq", 2.0, 3.0, 1),        # 2, nested in the same layer
        _span("moments", 3.5, 6.0, 0),      # 3, overlaps span 1 on [3.5, 4]
        _span("limitlaw.mgf", 9.0, 12.0, 0),  # 4, runs past its parent
    ]
    assert tracer.self_times(spans) == pytest.approx([10 - 5 - 1, 2.0, 1.0, 2.5, 3.0])


def test_layer_metrics_count_entries_and_rejections():
    spans = [
        _span("cli", 0.0, 10.0, name="main"),
        _span("polyq", 0.0, 2.0, 0, name="q_catalan_second", size=5, bits=3),
        _span("polyq", 0.5, 1.0, 1, name="gaussian_binomial", size=7, bits=9),
        _span("moments", 2.0, 3.0, 0, name="dist_summary"),
        _span("limitlaw.mgf", 3.0, 5.0, 0, name="exact_standardized_mgf"),
        _span("moments", 3.0, 4.0, 4, name="dist_summary"),
        _span("polyq", 5.0, 8.0, 0, name="quotient_poly", error="NotPolynomial"),
        _span("trace", 8.0, 8.5, 0, name="size"),
    ]
    m = tracer.layer_metrics(spans)
    assert m["polyq.calls"] == 2
    assert m["polyq.coeffs"] == 5 and m["polyq.max_coeff_bits"] == 3
    assert m["polyq.rejects"] == 1 and m["polyq.reject_s"] == pytest.approx(3.0)
    assert m["polyq.self_s"] == pytest.approx(5.0)
    assert m["moments.calls"] == 2 and m["moments.summaries_per_poly"] == 2.0
    assert m["limitlaw.mgf.self_s"] == pytest.approx(1.0)
    assert m["cli.self_s"] == pytest.approx(10 - 2 - 1 - 2 - 3 - 0.5)
    assert set(m) == set(tracer.UNITS)


def test_wrappers_reach_every_namespace_that_binds_a_function():
    from qcatalan import cli, limitlaw, moments, polyq, shape

    original = polyq.q_catalan
    spans = tracer.Tracer()
    with spans.installed():
        assert shape.q_catalan is polyq.q_catalan is cli.q_catalan is not original
        assert limitlaw.dist_summary is moments.dist_summary
        shape.scan_family("catalan", 4, 5)
        limitlaw.exact_standardized_mgf(original(5), 0.5)
    assert polyq.q_catalan is original and shape.q_catalan is original
    parents = {s.name: spans.spans[s.parent].name for s in spans.spans if s.parent >= 0}
    assert parents["q_catalan"] == "scan_family"
    assert parents["dist_summary"] == "exact_standardized_mgf"
