"""End-to-end tests of the qcat command line interface via main()."""

import io
import json
import math

import pytest

from qcatalan import cli
from qcatalan.cli import main
from qcatalan.limitlaw import ks_distance_to_normal
from qcatalan.polyq import q_catalan


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


def test_moments_bad_range():
    rc, _ = run_cli("moments", "--family", "catalan", "--n-from", "5", "--n-to", "2")
    assert rc == 2


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
    with pytest.raises(cli.UsageError, match="--grid-step"):
        cli._t_grid_half(step)


def test_grid_step_cap_and_default_grids():
    assert cli._t_grid_half(2.0 / (cli.GRID_MAX_POINTS // 2)) == cli.GRID_MAX_POINTS // 2
    assert cli._t_grid(0.5) == [-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0]
    grid = cli._t_grid(0.1)
    assert len(grid) == 41 and grid[0] == -2.0 and grid[20] == 0.0 and grid[-1] == 2.0


@pytest.mark.parametrize("step", ["nan", "inf", "1e-12"])
def test_grid_step_exits_2(step, capsys):
    rc, out = run_cli("normality", "--n", "5", "--grid-step", step)
    assert rc == 2 and out == ""
    assert "--grid-step" in capsys.readouterr().err


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


def test_shape_workers_env_does_not_change_bytes(monkeypatch):
    args = ("shape", "--family", "catalan", "--n-from", "2", "--n-to", "12")
    monkeypatch.setenv("QCAT_THREADS", "1")
    _, serial = run_cli(*args)
    monkeypatch.setenv("QCAT_THREADS", "2")
    _, threaded = run_cli(*args)
    assert serial == threaded


def test_shape_workers_env_rejected(monkeypatch, capsys):
    monkeypatch.setenv("QCAT_THREADS", "abc")
    rc, _ = run_cli("shape", "--family", "catalan", "--n-from", "2", "--n-to", "3")
    assert rc == 2
    assert "QCAT_THREADS" in capsys.readouterr().err


def test_shape_rejects_m_for_plain_family():
    rc, _ = run_cli(
        "shape", "--family", "catalan", "--n-from", "2", "--n-to", "3", "--m", "2"
    )
    assert rc == 2


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
    ],
)
def test_usage_errors_exit_2(argv, capsys):
    rc, _ = run_cli(*argv)
    assert rc == 2
    assert "qcat: error:" in capsys.readouterr().err


def test_general_explicit_geco_triple():
    doc = run_json(
        "general", "--a", "5,6", "--b", "2,3",
        "--alpha", "18.0", "--beta", "-0.166", "--gamma", "-0.333",
    )
    ratios = [r for r in doc["rows"] if r["kind"] == "ratio"]
    assert all(isinstance(r["ok"], bool) for r in ratios)


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
