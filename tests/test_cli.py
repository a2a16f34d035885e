"""CLI surface: flags, schemas, exit codes, determinism."""

import json
import math

import pytest

from mathieu_series.cli import main
from mathieu_series.series import PowerLogParams, eval_powerlog


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_powerlog_matches_library(capsys):
    code, out, _ = run_cli(
        capsys,
        "eval", "powerlog", "--alpha", "1", "--beta", "2", "--gamma", "0", "--delta", "0",
        "--mu", "1", "--r", "10", "--tol", "1e-10",
    )
    assert code == 0
    record = json.loads(out)
    expected = eval_powerlog(PowerLogParams(1, 2, 0, 0, 1), 10.0, rel_tol=1e-10)
    assert record["value"] == pytest.approx(expected.value, rel=1e-12)
    assert record["tail_bound"] <= 1e-10 * record["value"]
    assert set(record) == {"family", "r", "value", "tail_bound", "terms_used", "peak_index"}


def test_eval_factorial_first_term_floor(capsys):
    code, out, _ = run_cli(
        capsys,
        "eval", "factorial", "--alpha", "1", "--beta", "2", "--mu", "0", "--r", "1",
        "--tol", "1e-12",
    )
    assert code == 0
    value = json.loads(out)["value"]
    assert value > 0.5  # first summand alone is 1/(1+r^2) = 1/2


def test_eval_divergent_factorial_rejected(capsys):
    # alpha - beta*(mu+1) = 0: the summands tend to 1, no finite value exists
    code, _, err = run_cli(
        capsys, "eval", "factorial", "--alpha", "1", "--beta", "1", "--mu", "0", "--r", "1"
    )
    assert code == 2
    assert "alpha - beta*(mu+1)" in err


@pytest.mark.parametrize(
    "family, r", [("factorial", "1e150"), ("powerlog", "1e160")]
)
def test_eval_unrepresentable_value_exit_1(capsys, family, r):
    # the sums lie below the smallest normal double: an error, not a 0.0 record
    code, out, err = run_cli(
        capsys, "eval", family, "--alpha", "1", "--beta", "2", "--mu", "1", "--r", r
    )
    assert code == 1
    assert out == ""
    assert "smallest normal double" in err


def test_eval_invalid_powerlog_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "eval", "powerlog", "--alpha", "1", "--beta", "1", "--mu", "0", "--r", "10"
    )
    assert code == 2
    assert "alpha - beta*(mu+1)" in err


def test_eval_csv_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "eval", "powerlog", "--alpha", "1", "--beta", "2", "--mu", "1", "--r", "10",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# mathieu-series v")
    assert lines[1] == "family,r,value,tail_bound,terms_used,peak_index"


def test_eval_powerseries_preset(capsys):
    code, out, _ = run_cli(
        capsys,
        "eval", "powerseries", "--sequences", "ones-squares", "--mu", "0", "--x", "0.5",
        "--r", "100", "--tol", "1e-10",
    )
    assert code == 0
    assert 100.0**2 * json.loads(out)["value"] == pytest.approx(2.0, rel=1e-3)


def test_eval_general_preset(capsys):
    code, out, _ = run_cli(
        capsys,
        "eval", "general", "--sequences", "logfact", "--alpha", "1", "--beta", "3",
        "--mu", "1", "--r", "100", "--tol", "1e-6",
    )
    assert code == 0
    assert json.loads(out)["value"] > 0


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------


def test_predict_powerlog_values(capsys):
    code, out, _ = run_cli(
        capsys, "predict", "powerlog", "--alpha", "1", "--beta", "2", "--mu", "1", "--r", "100"
    )
    assert code == 0
    record = json.loads(out)
    assert record["constant"] == pytest.approx(0.5, rel=1e-12)
    assert record["r_exponent"] == -2.0
    assert record["value"] == pytest.approx(5e-5, rel=1e-12)


def test_predict_corollary_mode_exact_log_exponent(capsys):
    code, out, _ = run_cli(
        capsys,
        "predict", "powerlog", "--alpha", "1", "--beta", "3", "--mu", "1",
        "--gamma-eq-alpha", "--delta-eq-beta", "--r", "100",
    )
    assert code == 0
    assert json.loads(out)["log_exponent"] == -1.0


def test_predict_factorial_outside_good_set(capsys):
    r = math.exp(math.lgamma(7.0))  # fractional part exactly zero
    code, out, err = run_cli(
        capsys,
        "predict", "factorial", "--alpha", "1", "--beta", "2", "--mu", "1", "--r", repr(r),
    )
    assert code == 4
    record = json.loads(out)
    assert record["in_R"] is False
    assert {"g", "frac_g", "n0", "m_r"} <= set(record)
    assert "frac_g" in err


def test_predict_factorial_in_good_set(capsys):
    r = math.exp(math.lgamma(12.5))
    code, out, _ = run_cli(
        capsys,
        "predict", "factorial", "--alpha", "1", "--beta", "2", "--mu", "1", "--r", repr(r),
    )
    assert code == 0
    record = json.loads(out)
    assert record["in_R"] is True
    assert record["value"] > 0
    assert record["frac_g"] == pytest.approx(0.5, abs=1e-9)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_powerlog_ratio_approaches_one(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "powerlog", "--alpha", "1", "--beta", "2", "--mu", "1",
        "--r-grid", "100:1000000:5", "--tol", "1e-9",
    )
    assert code == 0
    payload = json.loads(out)
    ratios = [rec["ratio"] for rec in payload["records"]]
    devs = [abs(q - 1.0) for q in ratios]
    assert devs == sorted(devs, reverse=True)


def test_sweep_csv_header_schema(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "factorial", "--alpha", "1", "--beta", "2", "--mu", "1",
        "--r-grid", "100:10000:3", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "r,value,prediction,ratio,tail_bound,g,frac_g,n0,m_r,in_R"
    assert len(lines) == 2 + 3
    header = lines[1].split(",")
    for row in lines[2:]:
        record = dict(zip(header, row.split(",")))
        assert record["in_R"] in ("true", "false")
        # m_r = min of two nonnegative linear functions of frac_g, capped
        # by max(alpha, beta(mu+1)-alpha) = 3 for this tuple
        assert 0.0 <= float(record["m_r"]) <= 3.0


def test_sweep_error_column_on_partial_failure(capsys):
    # r = 5 is below the diagnostics domain: that row fails, the sweep survives
    import csv as csv_mod
    import io

    code, out, _ = run_cli(
        capsys,
        "sweep", "factorial", "--alpha", "1", "--beta", "2", "--mu", "1",
        "--r-grid", "5:1000:3", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1].endswith(",error")
    rows = list(csv_mod.reader(io.StringIO("\n".join(lines[1:]))))
    header, first = rows[0], dict(zip(rows[0], rows[1]))
    assert first["r"] == "5.0"
    assert "requires r >= 10" in first["error"]
    assert all(len(r) == len(header) for r in rows[1:])  # quoting keeps rows rectangular


def test_sweep_expansion_error_shrinks(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "expansion", "--mu", "2", "--r-grid", "5:40:4"
    )
    assert code == 0
    recs = json.loads(out)["records"]
    gaps = [abs(rec["value"] - rec["prediction"]) for rec in recs]
    assert gaps == sorted(gaps, reverse=True)


def test_sweep_deterministic_output(capsys):
    argv = [
        "sweep", "powerlog", "--alpha", "1", "--beta", "2", "--mu", "1",
        "--r-grid", "100:10000:3", "--format", "csv",
    ]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_sweep_bad_grid_spec(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "powerlog", "--alpha", "1", "--beta", "2", "--mu", "1",
        "--r-grid", "10-100-5",
    )
    assert code == 2
    assert "grid spec" in err


def test_sweep_writes_file(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, out, _ = run_cli(
        capsys,
        "sweep", "powerlog", "--alpha", "1", "--beta", "2", "--mu", "1",
        "--r-grid", "100:1000:2", "--format", "csv", "--out", str(out_file),
    )
    assert code == 0
    assert out == ""
    text = out_file.read_text()
    assert text.splitlines()[1] == "r,value,prediction,ratio,tail_bound"


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_expansion_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "expansion")
    assert code == 0
    assert out.count("PASS") == 3
    assert "FAIL" not in out


def test_verify_lemma41_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "lemma41")
    assert code == 0
    assert "FAIL" not in out
    assert "ratio@r=1e6" in out


def test_verify_strict_mode(capsys):
    # expansion has orders of magnitude of clearance: strict passes
    code, out, _ = run_cli(capsys, "verify", "expansion", "--strict")
    assert code == 0
    # lemma41's calibrated thresholds sit close to the measured values, so
    # demanding 20% extra clearance flips it to failure by design
    code, out, _ = run_cli(capsys, "verify", "lemma41", "--strict")
    assert code == 1
    assert "FAIL" in out


def test_verify_invalid_override_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "verify", "thm11", "--alpha", "1", "--beta", "1", "--mu", "0"
    )
    assert code == 2
    assert "alpha - beta*(mu+1)" in err


def test_verify_rejects_override_for_other_suites(capsys):
    code, _, err = run_cli(
        capsys, "verify", "prop62", "--alpha", "1", "--beta", "2", "--mu", "1"
    )
    assert code == 2
    assert "thm11" in err


# ---------------------------------------------------------------------------
# environment cap
# ---------------------------------------------------------------------------


def test_term_cap_environment_override(capsys, monkeypatch):
    monkeypatch.setenv("MATHIEU_TERM_CAP", "500")
    code, _, err = run_cli(
        capsys,
        "eval", "general", "--sequences", "logfact", "--alpha", "1", "--beta", "3",
        "--mu", "1", "--r", "1000", "--tol", "1e-6",
    )
    assert code == 3
    assert "cap" in err


def test_term_cap_environment_invalid(capsys, monkeypatch):
    monkeypatch.setenv("MATHIEU_TERM_CAP", "not-a-number")
    code, _, err = run_cli(
        capsys, "eval", "powerlog", "--alpha", "1", "--beta", "2", "--mu", "1", "--r", "10"
    )
    assert code == 2
    assert "MATHIEU_TERM_CAP" in err
