"""End-to-end tests of the qcat command line interface via main()."""

import argparse
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import qcatalan
from qcatalan import cli, polyq
from qcatalan.cli import main
from qcatalan.limitlaw import (
    StandardizedLaw,
    condition_ratio,
    ks_distance_to_normal,
    log_mgf_truncated,
)
from qcatalan.polyq import preset, q_catalan


def run_cli(*argv):
    out = io.StringIO()
    rc = main(list(argv), out=out)
    return rc, out.getvalue()


def run_json(*argv):
    rc, text = run_cli(*argv, "--format", "json")
    assert rc == 0
    return json.loads(text)


def test_coeffs_csv_golden():
    rc, text = run_cli("coeffs", "--family", "catalan", "--n", "3")
    assert rc == 0
    assert text == "k,coeff\n0,1\n1,0\n2,1\n3,1\n4,1\n5,0\n6,1\n"


def test_coeffs_trivial_n():
    rc, text = run_cli("coeffs", "--family", "catalan", "--n", "1")
    assert rc == 0
    assert text == "k,coeff\n0,1\n"


def test_coeffs_mcatalan():
    rc, text = run_cli("coeffs", "--family", "mcatalan", "--n", "2", "--m", "3")
    assert rc == 0
    assert text.splitlines()[1:] == ["0,1", "1,0", "2,1", "3,0", "4,1"]


def test_json_envelope_structure():
    doc = run_json("coeffs", "--family", "catalan", "--n", "3")
    assert set(doc) == {"command", "params", "rows", "schema_version"}
    assert doc["command"] == "coeffs"
    assert doc["schema_version"] == "1"
    assert doc["params"] == {"family": "catalan", "n": 3, "m": None}
    assert doc["rows"][0] == {"k": 0, "coeff": 1}
    assert [r["coeff"] for r in doc["rows"]] == [1, 0, 1, 1, 1, 0, 1]


def test_moments_json_exact_fields():
    doc = run_json("moments", "--family", "catalan", "--n-from", "1", "--n-to", "3")
    rows = doc["rows"]
    assert [r["n"] for r in rows] == [1, 2, 3]
    assert rows[0]["mean"] == "0" and rows[0]["variance"] == "0"
    assert rows[2]["mass"] == 5
    assert rows[2]["mean"] == "3"
    assert rows[2]["variance"] == "4"
    assert rows[2]["closed_mean"] == "3" and rows[2]["closed_variance"] == "4"
    assert all(r["match"] is True for r in rows)


def test_moments_mcatalan_fractions():
    doc = run_json(
        "moments", "--family", "mcatalan", "--n-from", "2", "--n-to", "2", "--m", "3"
    )
    row = doc["rows"][0]
    assert row["variance"] == "8/3" and row["closed_variance"] == "8/3"
    assert row["match"] is True


def test_moments_big_mass_as_string():
    # Catalan number 40 exceeds 2^53, so JSON carries it as a decimal string
    doc = run_json("moments", "--family", "catalan", "--n-from", "40", "--n-to", "40")
    mass = doc["rows"][0]["mass"]
    assert isinstance(mass, str)
    assert mass == str(math.comb(80, 40) // 41)


def test_moments_bad_range(capsys):
    # moments and shape share iter_family's range check and its message
    for command in ("moments", "shape"):
        for lo, hi in (("5", "2"), ("0", "3")):
            rc, text = run_cli(command, "--family", "catalan", "--n-from", lo, "--n-to", hi)
            assert rc == 2
            assert text == ""
            err = capsys.readouterr().err
            assert f"need 1 <= n_from <= n_to, got {lo}..{hi}" in err


def test_normality_rows():
    doc = run_json("normality", "--n", "6")
    rows = doc["rows"]
    kinds = [r["kind"] for r in rows]
    assert kinds[0] == "ks"
    assert kinds.count("mgf") == 9  # t = -2.0 .. 2.0 step 0.5
    assert kinds.count("density") == q_catalan(6).degree + 1
    assert abs(rows[0]["ks"] - ks_distance_to_normal(q_catalan(6))) < 1e-12

    by_t = {r["t"]: r for r in rows if r["kind"] == "mgf"}
    zero = by_t[0.0]
    assert abs(zero["mgf_exact"] - 1.0) < 1e-12
    assert zero["mgf_normal"] == 1.0
    assert zero["series_k1"] == 0.0
    for t in (0.5, 1.0, 2.0):
        assert by_t[t]["series_k1"] == t * t / 2
        # at default depth the series reproduces the exact transform here
        assert by_t[t]["mgf_residual"] < 1e-9


def test_normality_density_rows_track_normal_curve():
    doc = run_json("normality", "--n", "8", "--K", "10", "--grid-step", "1.0")
    dens = [r for r in doc["rows"] if r["kind"] == "density"]
    mid = dens[len(dens) // 2]
    assert abs(mid["z"]) < 0.1
    assert abs(mid["density"] - mid["normal_density"]) < 0.05


@pytest.mark.parametrize("step", [float("nan"), float("inf"), -0.5, 0.0, 1e-12, 5e-324])
def test_grid_step_rejected_before_allocation(step):
    with pytest.raises(ValueError, match="--grid-step"):
        cli._t_grid(step)


def test_grid_step_cap_and_default_grids():
    assert len(cli._t_grid(2.0 / (cli.GRID_MAX_POINTS // 2))) == cli.GRID_MAX_POINTS
    assert cli._t_grid(0.5) == [-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0]
    grid = cli._t_grid(0.1)
    assert len(grid) == 41 and grid[0] == -2.0 and grid[20] == 0.0 and grid[-1] == 2.0


PASS_NAMES = ("_mul_one_plus_qpow", "_mul_one_minus_qpow", "_div_one_minus_qpow")


@pytest.mark.parametrize(
    "argv",
    [
        ("--n", "300", "--grid-step", "0.001"),  # 2001 * 89701 terms
        ("--n", "130", "--grid-step", "0.001"),  # 2001 * 16771, just past
        ("--n", "10000",),  # 5 * 99990001 on the default grid
    ],
)
def test_normality_mgf_work_past_its_limit_exits_2_before_building(argv, monkeypatch, capsys):
    def no_pass(*args):
        raise AssertionError("a linear pass ran")

    for name in PASS_NAMES:
        monkeypatch.setattr(polyq, name, no_pass)
    rc, out = run_cli("normality", *argv)
    assert rc == 2 and out == ""
    assert f"more than {cli.MGF_WORK_MAX}" in capsys.readouterr().err


def test_normality_mgf_work_limit_is_legal_and_documented(capsys):
    assert cli.MGF_WORK_MAX == 2 ** 25
    finest = cli._t_grid(0.001)
    cli._check_mgf_work(100, finest)  # 2001 * 9901, about 19.8M terms
    cli._check_mgf_work(129, finest)  # 2001 * 16513, the largest n there
    cli._check_mgf_work(2591, cli._t_grid(0.5))  # 5 * 6710691
    # the kernel stops normality first on that grid: n = 1672 is its largest
    # member within SUM_LIMIT ((n - 1)(3n + 2)/2 <= 2^22), checked unbuilt
    polyq.FAMILIES["catalan"].check_size(1672)
    with pytest.raises(ValueError):
        cli._check_mgf_work(2592, cli._t_grid(0.5))
    assert run_cli("normality", "--help")[0] == 0
    assert str(cli.MGF_WORK_MAX) in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("step", ["nan", "inf", "1e-12"])
def test_grid_step_exits_2(step, capsys):
    rc, out = run_cli("normality", "--n", "5", "--grid-step", step)
    assert rc == 2 and out == ""
    assert "--grid-step" in capsys.readouterr().err


def test_normality_prepares_the_law_once(monkeypatch):
    # one exact summary per invocation and one power-sum sweep per spec,
    # however many t points the grid has
    from qcatalan import limitlaw

    calls = {"dist_summary": 0, "power_sums": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(limitlaw, "dist_summary")
    counted(cli, "dist_summary")
    counted(limitlaw, "power_sums")
    rc, _ = run_cli("normality", "--n", "12", "--K", "8", "--grid-step", "0.1")
    assert rc == 0
    assert calls == {"dist_summary": 1, "power_sums": 1}


@pytest.mark.parametrize("n", [5, 30, 60])
@pytest.mark.parametrize("K", [10, 30])
def test_normality_truncated_cells_are_log_mgf_truncated_less_the_laws_drift(n, K):
    # the command writes the law's mgf rows; each truncated cell is the
    # library's truncated log-mgf with the law's drift mu t / sigma taken off
    rc, text = run_cli("normality", "--n", str(n), "--K", str(K), "--grid-step", "0.1")
    assert rc == 0
    lines = text.splitlines()
    header = lines[0].split(",")
    t_col, cell_col = header.index("t"), header.index("mgf_truncated")
    mgf = [line.split(",") for line in lines[1:] if line.startswith("mgf,")]
    assert len(mgf) == 41
    law = StandardizedLaw(q_catalan(n))
    spec = preset("catalan", n)
    for row in mgf:
        t = float(row[t_col])
        log_mgf = log_mgf_truncated(spec, t, K)
        assert row[cell_col] == "%.12g" % math.exp(log_mgf - law.mu * t / law.sigma)


def test_normality_rejects_small_n():
    rc, _ = run_cli("normality", "--n", "1")
    assert rc == 2


def test_shape_csv_golden():
    rc, text = run_cli("shape", "--family", "catalan", "--n-from", "2", "--n-to", "4")
    assert rc == 0
    lines = text.splitlines()
    assert lines[0] == (
        "n,degree,interior_unimodal,first_unimodality_violation,"
        "min_logconcave_t,first_lc_violation_at_t0"
    )
    assert lines[1] == "2,2,true,,,1"
    assert lines[2] == "3,6,true,,1,1"
    assert lines[3] == "4,12,false,6,5,1"


def test_shape_runs_in_one_process(monkeypatch):
    args = ("shape", "--family", "catalan", "--n-from", "2", "--n-to", "30")
    _, expected = run_cli(*args)

    def no_fork():
        raise OSError("the shape scan must not fork")

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "fork", no_fork)
    rc, text = run_cli(*args)
    assert rc == 0
    assert text == expected


def test_shape_rejects_m_for_plain_family():
    rc, out = run_cli(
        "shape", "--family", "catalan", "--n-from", "2", "--n-to", "3", "--m", "2"
    )
    assert rc == 2 and out == ""


def test_general_explicit_lists_reproduce_catalan():
    doc = run_json("general", "--a", "5,6", "--b", "2,3")
    coeffs = [r["coeff"] for r in doc["rows"] if r["kind"] == "coeff"]
    assert coeffs == [1, 0, 1, 1, 1, 0, 1]
    moment = next(r for r in doc["rows"] if r["kind"] == "moment")
    assert moment["mean"] == "3" and moment["match"] is True
    ratios = [r for r in doc["rows"] if r["kind"] == "ratio"]
    assert [r["k"] for r in ratios] == list(range(2, 11))
    assert abs(ratios[0]["ratio"] - 1824 / 2304) < 1e-9
    assert ratios[0]["bound"] is None and ratios[0]["ok"] is None


def test_general_preset_carries_bound():
    doc = run_json("general", "--preset", "catalan", "--n", "3", "--K", "4")
    assert doc["params"]["a"] == "5,6" and doc["params"]["b"] == "2,3"
    assert abs(doc["params"]["alpha"] - 32 * math.sqrt(3) / 3) < 1e-9
    ratios = [r for r in doc["rows"] if r["kind"] == "ratio"]
    assert ratios and all(r["ok"] is True for r in ratios)
    assert all(r["ratio"] < r["bound"] for r in ratios)


def test_general_preset_mcatalan_alpha():
    doc = run_json("general", "--preset", "mcatalan", "--n", "2", "--m", "3")
    assert abs(doc["params"]["alpha"] - 8 * math.sqrt(6)) < 1e-9
    coeffs = [r["coeff"] for r in doc["rows"] if r["kind"] == "coeff"]
    assert coeffs == [1, 0, 1, 0, 1]


def test_general_constant_quotient_no_ratio_rows():
    doc = run_json("general", "--a", "3", "--b", "3")
    kinds = [r["kind"] for r in doc["rows"]]
    assert kinds == ["coeff", "moment"]
    moment = doc["rows"][1]
    assert moment["mass"] == 1 and moment["variance"] == "0"


def test_general_signed_quotient_skips_distribution_stats():
    doc = run_json("general", "--a", "6,1", "--b", "2,3")
    coeffs = [r["coeff"] for r in doc["rows"] if r["kind"] == "coeff"]
    assert coeffs == [1, -1, 1]
    moment = next(r for r in doc["rows"] if r["kind"] == "moment")
    assert moment["mass"] is None and moment["mean"] is None
    assert moment["closed_mean"] == "1" and moment["closed_variance"] == "2"
    assert any(r["kind"] == "ratio" for r in doc["rows"])


def test_general_non_polynomial_is_domain_error(capsys):
    rc, _ = run_cli("general", "--a", "3", "--b", "2")
    assert rc == 3
    assert "qcat: error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("general", "--a", "5,6"),  # missing --b
        ("general", "--preset", "catalan", "--n", "3", "--a", "5,6"),
        ("general", "--preset", "catalan"),  # missing --n
        ("general", "--a", "5,x", "--b", "2,3"),
        ("general", "--a", "5,6", "--b", "2,3", "--alpha", "1.0"),
        ("general", "--a", "5,6", "--b", "2,3", "--K", "1"),
        ("coeffs", "--family", "catalan", "--n", "3", "--m", "2"),
        ("coeffs", "--family", "mcatalan", "--n", "3"),
        ("general", "--preset", "catalan", "--n", "3", "--m", "7"),  # catalan takes no m
        ("general", "--preset", "catalan", "--n", "3",
         "--alpha", "inf", "--beta", "-0.1", "--gamma", "-0.1", "--format", "json"),
        ("general", "--a", "5,6", "--b", "2,3",
         "--alpha", "18.0", "--beta=-inf", "--gamma", "-0.333"),
        ("general", "--a", "5,6", "--b", "2,3", "--n", "7"),  # --n needs --preset
        ("general", "--a", "5,6", "--b", "2,3", "--m", "3"),  # so does --m
        # a bad envelope beside a bad preset: one of the two is reported
        ("general", "--preset", "catalan", "--n", "1",
         "--alpha", "-1", "--beta", "-0.1", "--gamma", "-0.1"),
        ("general", "--preset", "mcatalan", "--n", "5",
         "--alpha", "nan", "--beta", "-0.1", "--gamma", "-0.1"),
        ("general", "--preset", "catalan", "--n", "5", "--m", "3",
         "--alpha", "1", "--beta", "0.1", "--gamma", "-0.1"),
        ("general", "--preset", "catalan",
         "--alpha", "1", "--beta", "-0.1", "--gamma", "0.1"),
    ],
)
def test_usage_errors_exit_2(argv, capsys):
    rc, out = run_cli(*argv)
    assert rc == 2 and out == ""
    assert "qcat: error:" in capsys.readouterr().err


def test_general_envelope_overflow_names_the_bound(capsys):
    rc, out = run_cli(
        "general", "--a", "5,6", "--b", "2,3", "--K", "400",
        "--alpha", "1e300", "--beta", "-0.0001", "--gamma", "-0.1",
    )
    assert rc == 3 and out == ""
    err = capsys.readouterr().err
    assert "envelope bound" in err
    assert "n=3, k=2, alpha=1e+300, beta=-0.0001, gamma=-0.1" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("general", "--a", "1000000000", "--b", "1"),
        ("general", "--preset", "catalan", "--n", "1700"),
        ("coeffs", "--family", "catalan", "--n", "1700"),
        ("moments", "--family", "catalan", "--n-from", "2", "--n-to", "1700"),
        ("normality", "--n", "1673"),  # the kernel stops it, not MGF_WORK_MAX
    ],
)
def test_oversized_quotient_exits_2_before_building(argv, monkeypatch, capsys):
    def no_pass(*args):
        raise AssertionError("a linear pass ran")

    for name in PASS_NAMES:
        monkeypatch.setattr(polyq, name, no_pass)
    rc, out = run_cli(*argv)
    assert rc == 2 and out == ""
    assert f"sum to more than {polyq.SUM_LIMIT}" in capsys.readouterr().err


@pytest.mark.parametrize("a, b", [("", "1"), (",", "1"), ("1,,2", "1,2,3")])
def test_general_integer_lists_must_parse(a, b, capsys):
    assert run_cli("general", "--a", a, "--b", b) == (2, "")
    assert "--a expects comma-separated integers" in capsys.readouterr().err


def test_broken_construction_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(
        polyq, "_quotient_coeffs", lambda a, b, prev=polyq._ONE: ([1, -1, 1], Counter(), Counter())
    )
    rc, out = run_cli("coeffs", "--family", "catalan", "--n", "3")
    assert rc == 3 and out == ""
    assert "q_catalan(3) has a negative coefficient" in capsys.readouterr().err


def test_general_explicit_geco_triple():
    doc = run_json(
        "general", "--a", "5,6", "--b", "2,3",
        "--alpha", "18.0", "--beta", "-0.166", "--gamma", "-0.333",
    )
    ratios = [r for r in doc["rows"] if r["kind"] == "ratio"]
    assert all(isinstance(r["ok"], bool) for r in ratios)


def test_negative_exponent_values_parse_as_separate_tokens():
    head = ("general", "--preset", "catalan", "--n", "10")
    rc, joined = run_cli(*head, "--beta=-1e-3", "--gamma=-5e-1", "--alpha", "1")
    assert rc == 0 and joined
    assert run_cli(*head, "--beta", "-1e-3", "--gamma", "-5e-1", "--alpha", "1") == (0, joined)
    out = io.StringIO()
    argv = ["qcat", *head, "--beta", "-1e-3", "--gamma", "-5e-1", "--alpha", "1"]
    with mock.patch.object(sys, "argv", argv):
        assert main(out=out) == 0
    assert out.getvalue() == joined
    # a flag in the value's place is still a usage error
    assert run_cli(*head, "--beta", "--gamma", "-5e-1", "--alpha", "1") == (2, "")


@pytest.mark.parametrize(
    "argv",
    [
        ("general", "--preset", "catalan", "--n", "10",
         "--bet", "-1e-3", "--gamma", "-5e-1", "--alpha", "1"),
        ("general", "--preset", "catalan", "--n", "10",
         "--bet", "-0.001", "--gamma", "-5e-1", "--alpha", "1"),
        ("coeffs", "--fam", "catalan", "--n", "3"),
        ("normality", "--n", "5", "--grid", "0.5"),
        ("shape", "--family", "catalan", "--n-from", "2", "--n-to", "5", "--form", "json"),
    ],
)
def test_abbreviated_options_exit_2(argv, capsys):
    # options match by full name only, the rule the float-value join uses,
    # so --bet is refused whether or not its value has an exponent
    assert run_cli(*argv) == (2, "")
    assert "error:" in capsys.readouterr().err


def _parser_flags() -> dict[str, list[str]]:
    """Each subcommand's long options, read from the parser itself."""
    (sub,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: [flag for action in sp._actions for flag in action.option_strings
               if flag.startswith("--") and flag != "--help"]
        for name, sp in sub.choices.items()
    }


PARSER_FLAGS = _parser_flags()
# every option of every parser, and two abbreviations the parsers refuse
ANY_FLAG = sorted({flag for flags in PARSER_FLAGS.values() for flag in flags} | {"--fam", "--bet"})
JUNK = st.sampled_from(["nan", "inf", "-1e-3", "", ","])
NAMES = st.sampled_from(list(polyq.FAMILIES))
SMALL = st.integers(0, 25).map(str)
EXPONENTS = st.lists(st.integers(1, 12), min_size=1, max_size=3).map(lambda xs: ",".join(map(str, xs)))
REALS = st.floats(-30, 30).map(repr)
VALUES = {
    "--family": NAMES,
    "--preset": NAMES,
    "--n": SMALL,
    "--m": SMALL,
    "--n-from": SMALL,
    "--n-to": SMALL,
    "--K": st.integers(0, 40).map(str),
    "--grid-step": st.sampled_from(["0.25", "0.5", "1", "2", "3"]),
    "--a": EXPONENTS,
    "--b": EXPONENTS,
    "--alpha": REALS,
    "--beta": REALS,
    "--gamma": REALS,
    "--format": st.sampled_from(["csv", "json"]),
}


@st.composite
def argvs(draw):
    """A subcommand with each of its own options three times in four, in
    any order, perhaps one more option from anywhere, and each option's
    value from its pool or, one time in sixteen, a junk value."""
    command = draw(st.sampled_from(sorted(PARSER_FLAGS)))
    flags = [flag for flag in PARSER_FLAGS[command] if draw(st.integers(0, 3)) < 3]
    flags = draw(st.permutations(flags)) + draw(st.lists(st.sampled_from(ANY_FLAG), max_size=1))
    argv = [command]
    for flag in flags:
        junk = draw(st.integers(0, 15)) == 15
        argv += [flag, draw(JUNK if junk else VALUES.get(flag, JUNK))]
    return argv


@settings(max_examples=150, deadline=None)
@given(argv=argvs())
def test_every_argv_exits_0_2_or_3_without_raising(argv):
    assert main(argv, out=io.StringIO()) in (0, 2, 3)


_V = cli.RowKind(None, (("v", float),))
# The density rows of one law, computed from a coefficient list, and a
# plain kind with their cells whose rows are given as tuples.
_DENSITY = cli.RowKind(
    "density", cli._DENSITY_CELLS, StandardizedLaw(q_catalan(5)).density_columns()
)
_DENSITY_ROWS = cli.RowKind("density", _DENSITY.cells)


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_emit_json_non_finite_writes_nothing(bad):
    # OverflowError maps to exit 3; every part but a coefficient stream is
    # encoded before any write, even behind blocks of streamed coefficients
    for columns, parts in (
        (["v"], [(_V, [(1.0,), (bad,)])]),
        (["k", "coeff", "v"], [(cli._COEFF, list(range(3 * cli.BLOCK_ROWS))), (_V, [(1.0,), (bad,)])]),
    ):
        out = io.StringIO()
        with pytest.raises(OverflowError):
            cli._emit("x", {"a": 1}, columns, parts, "json", out)
        assert out.getvalue() == ""


def _dict_rows(parts):
    """Typed parts as the generic writer takes them: one dict per row."""
    rows = []
    for kind, part in parts:
        names = [col for col, _ in kind.cells]
        head = {} if kind.name is None else {"kind": kind.name}
        if kind.indexed:  # k is the position, the other cells the kind's columns
            ks = range(len(part))
            part = zip(ks, *kind.indexed(ks, part))
        for row in part:
            rows.append({**head, **dict(zip(names, row))})
    return rows


def test_emit_json_in_blocks_matches_one_shot(monkeypatch):
    kind = cli.RowKind(None, (("k", int), ("v", float), ("big", int)))
    parts = [(kind, [(k, k / 7, 3 ** k) for k in range(60)])]
    params = {"n": 5, "s": "x"}
    expected = io.StringIO()
    cli._emit("x", params, ["k", "v", "big"], parts, "json", expected)
    envelope = json.loads(expected.getvalue())
    assert expected.getvalue() == json.dumps(envelope, indent=2) + "\n"
    monkeypatch.setattr(cli, "BLOCK_ROWS", 3)
    writes = []

    class Recorder(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    for fmt in ("json", "csv"):
        writes.clear()
        out, one_shot = Recorder(), io.StringIO()
        cli._emit("x", params, ["k", "v", "big"], parts, fmt, out)
        oracles.emit("x", params, ["k", "v", "big"], _dict_rows(parts), fmt, one_shot)
        assert out.getvalue() == one_shot.getvalue()
        assert len(writes) >= 60 // 3  # one write per block of 3 rows at least


# Cell values by type; _CELLS, their union with None, also fills the params.
_TYPED = {
    bool: st.booleans(),
    int: st.one_of(
        st.integers(-(2 ** 53) - 3, -(2 ** 53) + 3),
        st.integers(2 ** 53 - 3, 2 ** 53 + 3),
        st.integers(-(2 ** 300), 2 ** 300),
    ),
    float: st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([-0.0, 0.0, 1e16, 1e-7, 123456789012345.0, 2.0 ** 53, 1 / 3]),
    ),
    Fraction: st.fractions(max_denominator=10 ** 30),
    str: st.one_of(
        st.text(),
        st.sampled_from(['"', "\\", "\n\t\x00\x1f", "caf\u00e9 \u2603 \U0001f600", "a,b", "%s"]),
    ),
}
_CELLS = st.one_of(st.none(), *_TYPED.values())
# Names with the characters a %-format template must escape.
_NAMES = st.text(max_size=4) | st.sampled_from(["kind", "%", "%s", "a%%b"])


def _outcome(emit, table, fmt):
    out = io.StringIO()
    try:
        emit(*table, fmt, out)
    except OverflowError as exc:
        return type(exc), out.getvalue()
    return None, out.getvalue()


@st.composite
def _kinds(draw, columns):
    """A row kind on the columns: a name, cells of one type each in column
    order, and, with two int cells, maybe a coefficient stream."""
    name = draw(st.none() | _NAMES)
    usable = [col for col in columns if name is None or col != "kind"]
    chosen = set(draw(st.lists(st.sampled_from(usable), unique=True))) if usable else set()
    types = st.sampled_from(list(_TYPED))
    cells = tuple((col, draw(types)) for col in usable if col in chosen)
    stream = [t for _, t in cells] == [int, int] and draw(st.booleans())
    return cli.RowKind(name, cells, cli._coefficients if stream else None)


# The tables the commands write: their columns and row kinds, in order.
_COMMAND_TABLES = [
    (cli._columns(cli._COEFF), [cli._COEFF]),
    (cli._columns(cli._MOMENTS), [cli._MOMENTS]),
    (cli._columns(cli._SHAPE), [cli._SHAPE]),
    (cli._NORMALITY_COLUMNS, [cli._KS, cli._MGF, _DENSITY]),
    (cli._GENERAL_COLUMNS, [cli._COEFF, cli._MOMENT, cli._RATIO]),
]


@st.composite
def _tables(draw, block_rows):
    """A table of typed parts: either a command's own columns and kinds, or
    drawn ones.  A row's cells are each None or of their type, so every null
    pattern of a kind is drawn (a shape row with a null violation, a moment
    row with or without its distribution cells, a ratio row with or without
    bound and ok); a stream from a coefficient list (coefficient or density
    rows) is 0, block_rows - 1, block_rows or block_rows + 1 rows long, or
    up to 12."""
    if draw(st.booleans()):
        columns, kinds = draw(st.sampled_from(_COMMAND_TABLES))
        kinds = [kind for kind in kinds if draw(st.booleans())]
    else:
        columns = draw(st.lists(_NAMES, unique=True, max_size=5))
        kinds = draw(st.lists(_kinds(columns), max_size=3))
    sizes = st.sampled_from([0, block_rows - 1, block_rows, block_rows + 1]) | st.integers(0, 12)
    parts = []
    for kind in kinds:
        if kind.indexed:
            size = draw(sizes)
            rows = draw(st.lists(_TYPED[int], min_size=size, max_size=size))
        else:
            cells = [st.none() | _TYPED[t] for _, t in kind.cells]
            rows = draw(st.lists(st.tuples(*cells), max_size=12))
        parts.append((kind, rows))
    floats = [
        (i, j, c)
        for i, (kind, rows) in enumerate(parts)
        if not kind.indexed  # a density cell is finite: the law's density_columns checks
        for j in range(len(rows))
        for c, (_, t) in enumerate(kind.cells)
        if t is float
    ]
    if floats and draw(st.booleans()):  # one value JSON cannot hold
        i, j, c = draw(st.sampled_from(floats))
        bad = draw(st.sampled_from([math.inf, -math.inf, math.nan]))
        rows = parts[i][1]
        rows[j] = rows[j][:c] + (bad,) + rows[j][c + 1 :]
    params = draw(st.dictionaries(st.text(max_size=4), _CELLS, max_size=3))
    return draw(st.text(max_size=6)), params, columns, parts


@settings(max_examples=300, deadline=None)
@given(data=st.data(), block_rows=st.integers(1, 5))
def test_emit_equals_the_generic_encoder_byte_for_byte(data, block_rows):
    command, params, columns, parts = data.draw(_tables(block_rows))
    with mock.patch.object(cli, "BLOCK_ROWS", block_rows):
        for fmt in ("json", "csv"):
            got = _outcome(cli._emit, (command, params, columns, parts), fmt)
            generic = (command, params, columns, _dict_rows(parts))
            assert got == _outcome(oracles.emit, generic, fmt)
            if got[0] is not None and fmt == "json":
                assert got[1] == ""


@pytest.mark.parametrize("block_rows", [1, 2, 3, 4, 5])
def test_emit_pins_the_null_shapes_at_the_block_edges(block_rows):
    # each command kind with every null pattern its rows take, behind or
    # beside a stream from a coefficient list that ends just before, on and
    # just past a block
    n_a, n_b, one = Fraction(7, 2), Fraction(35, 12), Fraction(1)
    shapes = [(5, 20, True, None, 1, None), (6, 30, False, 4, None, 3), (7, 42, True, None, None, None)]
    mgfs = [(0.5, 1.1, 1.2, 1.3, 0.01, 0.125, 1e-3, 1e-9), (1.0, 1.6, 1.7, 1.8, 0.2, 0.5, 0.03, None)]
    tables = [
        (cli._columns(cli._SHAPE), [(cli._SHAPE, shapes)]),
        (cli._columns(cli._MOMENTS), [(cli._MOMENTS, [(2, 2, 2, one, one, one, one, True)])]),
    ]
    for size in (0, block_rows - 1, block_rows, block_rows + 1):
        coeffs = list(range(2 ** 53 - 2, 2 ** 53 - 2 + size))
        tables += [
            (cli._columns(cli._COEFF), [(cli._COEFF, coeffs)]),
            (cli._NORMALITY_COLUMNS, [(cli._KS, [(0.125,)]), (cli._MGF, mgfs), (_DENSITY, coeffs)]),
            (cli._GENERAL_COLUMNS, [
                (cli._COEFF, coeffs),
                (cli._MOMENT, [(8, n_a, n_b, n_a, n_b, True), (None, None, None, n_a, n_b, None)]),
                (cli._RATIO, [(2, 0.25, None, None), (3, 0.125, 2.0, True), (4, 0.5, 0.1, False)]),
            ]),
        ]
    with mock.patch.object(cli, "BLOCK_ROWS", block_rows):
        for columns, parts in tables:
            for fmt in ("json", "csv"):
                got, generic = io.StringIO(), io.StringIO()
                cli._emit("x", {"n": 3}, columns, parts, fmt, got)
                oracles.emit("x", {"n": 3}, columns, _dict_rows(parts), fmt, generic)
                assert got.getvalue() == generic.getvalue()


# Float and int cells at the edges of their text.  A plain kind writes
# every cell with %s, through an encoder that gives a null for None and
# otherwise the %.12g or %d text (CSV) or the JSON cell encoding.
_EDGE_FLOATS = [-0.0, 5e-324, 1e-05, 123.0, 1e12, 1e16, 1.7976931348623157e308]
_EDGE_INTS = [2 ** 53 - 1, -(2 ** 53 - 1), 2 ** 53, -(2 ** 53)]


@pytest.mark.parametrize("block_rows", [1, 2, 3, 4, 5])
def test_emit_pins_the_plain_blocks(block_rows):
    # every block goes through its template in one pass; the nulls in the
    # mixed and sparse rows put rows with and without a null into one block
    # at some sizes, and every cell goes through its kind's null-aware
    # encoder whether or not its column holds a null
    density = [(k, x, -x, x / 3) for k, x in zip(_EDGE_INTS * 2, _EDGE_FLOATS)]
    cells = (("i", int), ("x", float), ("b", bool), ("s", str), ("f", Fraction))
    mixed = cli.RowKind("mix%", cells)
    mixed_rows = [
        (i, x, i > 0, "a,%s", Fraction(i, 3)) for i, x in zip(_EDGE_INTS * 2, _EDGE_FLOATS)
    ]
    mixed_rows[2] = (None, 1.5, None, "n", None)
    mixed_rows[5] = (7, None, True, None, Fraction(1, 2))
    third = Fraction(1, 3)
    moments = [(i, 3, i, Fraction(i, 7), third, third, third, i > 0) for i in _EDGE_INTS]
    # columns x and i hold a null in some rows only, and y in none; all
    # three go through the same null-aware encoders; the CSV rows add nan
    # and inf, which JSON cannot hold
    sparse = cli.RowKind(None, (("x", float), ("i", int), ("y", float)))
    sparse_rows = [(x, i, x) for x, i in zip([-0.0, 5e-324, 1e16] * 3, _EDGE_INTS[2:] * 5)]
    sparse_rows[1] = (None, 2 ** 53, 5e-324)
    sparse_rows[4] = (5e-324, None, 5e-324)
    sparse_rows[6] = (None, None, -0.0)
    non_finite = sparse_rows[:5] + [(math.nan, 3, math.inf), (math.inf, None, math.nan)]
    # a kind without cells still writes a row for each ()
    empty = [(cli.RowKind("none", ()), [(), (), ()]), (cli.RowKind(None, ()), [()])]
    # a coefficient stream whose k runs through three block edges
    stream = [(-1) ** k * (2 ** 53 - 1 + k % 3) for k in range(3 * block_rows + 2)]
    tables = [
        (cli._NORMALITY_COLUMNS, [
            (cli._KS, [(x,) for x in _EDGE_FLOATS]),
            (_DENSITY_ROWS, density),
        ]),
        (["kind", "i", "x", "b", "s", "f"], [(mixed, mixed_rows)]),
        (cli._columns(cli._MOMENTS), [(cli._MOMENTS, moments)]),
        (["x", "i", "y"], [(sparse, sparse_rows)]),
        (["kind", "v"], empty + [(cli.RowKind("v", (("v", int),)), [(1,)])]),
        ([], [(cli.RowKind(None, ()), [(), ()])]),
        (cli._GENERAL_COLUMNS, [(cli._COEFF, stream), (cli._RATIO, [(2, 0.25, None, None)])]),
    ]
    with mock.patch.object(cli, "BLOCK_ROWS", block_rows):
        for columns, parts in tables:
            for fmt in ("json", "csv"):
                got, generic = io.StringIO(), io.StringIO()
                cli._emit("x", {"n": 3}, columns, parts, fmt, got)
                oracles.emit("x", {"n": 3}, columns, _dict_rows(parts), fmt, generic)
                assert got.getvalue() == generic.getvalue()
        parts = [(sparse, non_finite)]
        got, generic = io.StringIO(), io.StringIO()
        cli._emit("x", {"n": 3}, ["x", "i", "y"], parts, "csv", got)
        oracles.emit("x", {"n": 3}, ["x", "i", "y"], _dict_rows(parts), "csv", generic)
        assert got.getvalue() == generic.getvalue()
        for bad in (math.nan, math.inf, -math.inf):
            parts = [(_DENSITY_ROWS, density[:3] + [(3, 0.5, bad, 1.0)] + density[3:])]
            got, generic = io.StringIO(), io.StringIO()
            cli._emit("x", {"n": 3}, cli._NORMALITY_COLUMNS, parts, "csv", got)
            oracles.emit("x", {"n": 3}, cli._NORMALITY_COLUMNS, _dict_rows(parts), "csv", generic)
            assert got.getvalue() == generic.getvalue()
            out = io.StringIO()
            with pytest.raises(OverflowError):
                cli._emit("x", {"n": 3}, cli._NORMALITY_COLUMNS, parts, "json", out)
            assert out.getvalue() == ""


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_mgf_exits_3_in_json_and_is_written_in_csv(bad):
    # every mgf row of `normality` is plain (no null cell)
    def mgf_grid(law, ts):
        return [bad] * len(ts)

    with mock.patch.object(qcatalan.limitlaw.StandardizedLaw, "mgf_grid", mgf_grid):
        assert run_cli("normality", "--n", "5", "--format", "json") == (3, "")
        rc, text = run_cli("normality", "--n", "5")
    assert rc == 0
    mgf_rows = [line.split(",") for line in text.splitlines() if line.startswith("mgf,")]
    assert len(mgf_rows) == 9 and {row[3] for row in mgf_rows} == {repr(bad)}


def test_normality_writes_the_density_of_a_mass_past_float_range():
    # sigma * c / mass would turn c and the mass, past 2^1024, into floats
    big = 10 ** 400
    p = polyq.IntPoly([big, 3 * big, 5 * big, 3 * big, big])
    sigma, mass = qcatalan.limitlaw.StandardizedLaw(p).sigma, 13 * big
    with mock.patch.object(cli, "q_catalan", lambda n: p):
        rc, text = run_cli("normality", "--n", "3")
    assert rc == 0
    density = [line.split(",") for line in text.splitlines() if line.startswith("density,")]
    assert [int(row[10]) for row in density] == [0, 1, 2, 3, 4]
    for row, c in zip(density, p.coeffs):
        assert float(row[12]) == pytest.approx(float(sigma * Fraction(c, mass)), rel=1e-11)


class _CharCount:
    """A stdout that keeps nothing but the number of characters written."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)


def _peak_in_coefficient_lists(argv):
    """Run qcat on argv into a stdout that keeps nothing, and return the
    exit code, the characters written and the tracemalloc peak in units of
    the size of q_catalan(120)'s coefficient list with its ints."""
    coeffs = q_catalan(120).coeffs
    size = sys.getsizeof(coeffs) + sum(map(sys.getsizeof, coeffs))
    sink = _CharCount()
    tracemalloc.start()
    try:
        rc = main(argv, out=sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return rc, sink.chars, peak / size


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_general_holds_the_coefficient_list_and_one_block(fmt):
    # rows stream from the coefficient list, BLOCK_ROWS at a time, so the
    # peak is the list plus one encoded block, not every row and its text
    argv = ["general", "--preset", "catalan", "--n", "120", "--format", fmt]
    rc, chars, peak = _peak_in_coefficient_lists(argv)
    assert rc == 0 and chars > 14281 * 20
    assert peak < 3


# Measured on CPython 3.11: 1.6 (CSV) and 1.6 (JSON) coefficient lists.
# Beside the list and the law's two float arrays, the CSV peak holds the
# mgf's log-terms at one t and the JSON peak one block of encoded rows.
# The bounds leave a margin of about a third.  With every density row built
# and encoded before the first write the peaks were 5.8 and 11.3.
@pytest.mark.parametrize("fmt, bound", [("csv", 2.5), ("json", 3.5)])
def test_normality_holds_the_coefficient_list_and_one_block(fmt, bound):
    # density rows are computed from the coefficient list and written
    # BLOCK_ROWS at a time, as coefficient rows are
    argv = ["normality", "--n", "120", "--format", fmt]
    rc, chars, peak = _peak_in_coefficient_lists(argv)
    assert rc == 0 and chars > 14281 * 60
    assert peak < bound


# The kernel's passes rewrite one list, and a block is 2^8 rows.  Measured
# on CPython 3.11: 1.02 (general) and 1.60 (normality); 2.06 and 2.61 when
# each pass built a new list beside the old one and a block was 2^10 rows.
@pytest.mark.parametrize(
    "command, bound",
    [(["general", "--preset", "catalan"], 1.4), (["normality"], 2.1)],
    ids=["general", "normality"],
)
def test_a_json_table_peaks_near_its_coefficient_list(command, bound):
    rc, chars, peak = _peak_in_coefficient_lists([*command, "--n", "120", "--format", "json"])
    assert rc == 0 and chars > 14281 * 20
    assert peak < bound


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_normality_density_rows_are_the_eager_loops(fmt):
    # the streamed density rows against the loop that built them all before
    # the first write; blocks of 7 rows split the density part mid-table
    calls = []
    emit = cli._emit

    def record(command, params, columns, parts, fmt, out):
        calls.append((params, columns, parts[:-1]))
        emit(command, params, columns, parts, fmt, out)

    names = [col for col, _ in _DENSITY.cells]
    with mock.patch.object(cli, "BLOCK_ROWS", 7), mock.patch.object(cli, "_emit", record):
        for n in [*range(2, 41), 120]:
            calls.clear()
            rc, text = run_cli("normality", "--n", str(n), "--format", fmt)
            assert rc == 0
            [(params, columns, ks_and_mgf)] = calls
            density = oracles.density_rows(q_catalan(n))
            rows = _dict_rows(ks_and_mgf) + [
                {"kind": "density", **dict(zip(names, row))} for row in density
            ]
            expected = io.StringIO()
            oracles.emit("normality", params, columns, rows, fmt, expected)
            assert text == expected.getvalue()


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("name", ["mu", "sigma"])
def test_a_non_finite_mu_or_sigma_exits_3_before_the_first_write(name, bad):
    # density rows are written after the first write, so their premise, a
    # finite mu and sigma, is checked before it; n = 60 has 3541 of them
    init = StandardizedLaw.__init__

    def spoiled(law, p):
        init(law, p)
        setattr(law, name, bad)

    with mock.patch.object(StandardizedLaw, "__init__", spoiled):
        for fmt in ("json", "csv"):
            assert run_cli("normality", "--n", "60", "--format", fmt) == (3, "")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_failing_row_after_a_block_of_coefficients_writes_nothing(fmt, capsys):
    # the ratio rows' envelope bound overflows; the coefficient rows ahead
    # of them span more than a block, and none of them is written
    assert q_catalan(40).degree + 1 == 1561 > cli.BLOCK_ROWS
    rc, out = run_cli(
        "general", "--preset", "catalan", "--n", "40", "--K", "400", "--alpha", "1e300",
        "--beta", "-0.0001", "--gamma", "-0.1", "--format", fmt,
    )
    assert (rc, out) == (3, "")
    assert "envelope bound" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "a, b",
    [
        # (1 + q)^2127: the mass 2^2127 has 641 digits, no coefficient over 639
        ("2," * 2126 + "2", "1," * 2126 + "1"),
        # (1 - q + q^2)^1360, signed, so no mass: its widest coefficient has
        # 648 digits, and the coefficient rows come first
        ("6,1," * 1359 + "6,1", "2,3," * 1359 + "2,3"),
    ],
    ids=["mass", "coefficient"],
)
def test_an_int_past_the_digit_limit_writes_nothing(a, b, fmt, capsys):
    # under a 640-digit limit on int to str conversion, the cell past it is
    # encoded before the first write
    assert len(str(2 ** 2127)) == 641 and len(str(math.comb(2127, 1063))) == 639
    argv = ["general", "--a", a, "--b", b, "--format", fmt]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        rc, out = run_cli(*argv)
    finally:
        sys.set_int_max_str_digits(limit)
    assert (rc, out) == (2, "")
    err = capsys.readouterr().err
    assert "more than 640 digits" in err and "PYTHONINTMAXSTRDIGITS" in err
    assert "set_int_max_str_digits" not in err


# Start-up cost: the process pool, and dataclasses with the inspect, ast,
# dis and tokenize it pulls in.
HEAVY_IMPORTS = ("concurrent", "multiprocessing", "dataclasses", "inspect", "ast", "dis", "tokenize")


def test_import_loads_neither_the_process_pool_nor_dataclasses():
    src = str(Path(qcatalan.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "before = set(sys.modules)\n"
        "import qcatalan.cli\n"
        "print(sorted(m for m in set(sys.modules) - before\n"
        f"             if m.split('.')[0] in {HEAVY_IMPORTS!r}))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        ("normality", "--n", "10", "--K", "501"),
        ("normality", "--n", "10", "--K", "1000"),
        ("general", "--a", "1000,1001,1002", "--b", "1,2,3", "--K", "8000"),
        ("general", "--preset", "catalan", "--n", "30", "--K", "501"),
    ],
)
def test_K_past_its_limit_exits_2_before_building(argv, monkeypatch, capsys):
    def no_pass(*args):
        raise AssertionError("a linear pass ran")

    for name in PASS_NAMES:
        monkeypatch.setattr(polyq, name, no_pass)
    rc, out = run_cli(*argv)
    assert rc == 2 and out == ""
    assert f"need 2 <= --K <= {cli.K_MAX}" in capsys.readouterr().err


def _close_after_first_line(argv, first):
    """Run qcat, close its stdout after the first line, and return its exit
    code and stderr."""
    src = str(Path(qcatalan.__file__).resolve().parents[1])
    with subprocess.Popen(
        [sys.executable, "-m", "qcatalan.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    ) as proc:
        assert proc.stdout.readline() == first
        proc.stdout.close()
        return proc.wait(timeout=60), proc.stderr.read()


def test_closed_pipe_exits_1_without_a_traceback():
    # about 600 kB of rows, far past what the pipe buffers
    argv = ["coeffs", "--family", "catalan", "--n", "150"]
    assert _close_after_first_line(argv, b"k,coeff\n") == (1, b"")


def test_closed_pipe_on_streamed_json_exits_1_without_a_traceback():
    # about 6 MB of JSON rows: the closed pipe fails a write inside the
    # writer's block loop, not the final flush
    argv = ["general", "--preset", "catalan", "--n", "150", "--format", "json"]
    assert _close_after_first_line(argv, b"{\n") == (1, b"")


def test_closed_pipe_on_streamed_density_rows_exits_1_without_a_traceback():
    # about 1.2 MB of CSV, nearly all of it the 22351 density rows, which
    # stream: the closed pipe fails a write while they are written
    argv = ["normality", "--n", "150"]
    header = ",".join(cli._NORMALITY_COLUMNS).encode() + b"\n"
    assert _close_after_first_line(argv, header) == (1, b"")


def test_K_limit_is_legal_and_documented(capsys):
    assert cli.K_MAX == 500
    rc, text = run_cli("normality", "--n", "4", "--K", "500")
    assert rc == 0 and text
    rc, text = run_cli("general", "--a", "1000,1001,1002", "--b", "1,2,3", "--K", "500")
    assert rc == 0 and text.count("\nratio,") == 499
    for command in ("normality", "general"):
        assert run_cli(command, "--help")[0] == 0
        assert "2..500" in capsys.readouterr().out


def test_general_ratios_come_from_one_power_sum_sweep(monkeypatch):
    from qcatalan import limitlaw

    calls = []
    sweep = limitlaw.power_sums
    monkeypatch.setattr(limitlaw, "power_sums", lambda *a: calls.append(a) or sweep(*a))
    doc = run_json("general", "--preset", "catalan", "--n", "30", "--K", "30")
    assert len(calls) == 1
    spec = preset("catalan", 30)
    ratios = {r["k"]: r["ratio"] for r in doc["rows"] if r["kind"] == "ratio"}
    assert sorted(ratios) == list(range(2, 31))
    for k, ratio in ratios.items():
        assert ratio == float(f"{condition_ratio(spec, k):.12g}")


def test_determinism_byte_identical():
    for fmt in ("csv", "json"):
        a = run_cli("normality", "--n", "5", "--K", "8", "--format", fmt)
        b = run_cli("normality", "--n", "5", "--K", "8", "--format", fmt)
        assert a == b


def test_help_exits_zero(capsys):
    rc, _ = run_cli("--help")
    assert rc == 0
    assert "qcat" in capsys.readouterr().out


def test_missing_subcommand_exits_2(capsys):
    rc, _ = run_cli()
    assert rc == 2
    capsys.readouterr()


def test_missing_required_flag_exits_2(capsys):
    rc, _ = run_cli("coeffs", "--family", "catalan")
    assert rc == 2
    capsys.readouterr()


def test_readme_command_examples_run():
    # each `qcat ...` line of the README's command-line block, in-process
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True)[1:] for line in block.splitlines()
                if line.startswith("qcat ")]
    assert commands
    for argv in commands:
        rc, text = run_cli(*argv)
        assert rc == 0 and text, argv
