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


def test_eval_general_unrepresentable_value_exit_1(capsys):
    # every term underflows at mu = 300: it used to print "value": 0.0 and exit 0
    code, out, err = run_cli(
        capsys, "eval", "general", "--sequences", "shifted-powerlog", "--alpha", "1",
        "--beta", "3", "--gamma", "1", "--delta", "1", "--mu", "300", "--r", "100",
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


@pytest.mark.parametrize("flags", [[], ["--sequences", "bogus"]], ids=["default", "bogus"])
def test_eval_powerseries_unknown_preset_exit_2(capsys, flags):
    # without --sequences the preset is the general family's logfact, which
    # used to escape as a KeyError traceback
    code, out, err = run_cli(capsys, "eval", "powerseries", *flags, "--mu", "0", "--r", "100")
    assert code == 2
    assert out == ""
    assert "unknown power-series preset" in err
    assert "ones-squares, linear-factorial" in err


def test_eval_general_preset(capsys):
    code, out, _ = run_cli(
        capsys,
        "eval", "general", "--sequences", "logfact", "--alpha", "1", "--beta", "3",
        "--mu", "1", "--r", "100", "--tol", "1e-6",
    )
    assert code == 0
    assert json.loads(out)["value"] > 0


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["eval", "general", "--sequences", "logfact", "--alpha", "1", "--beta", "3",
             "--mu", "1", "--r", "100"],
            '{"family": "general", "r": 100.0, "value": 8.244421690116138e-07, '
            '"tail_bound": 7.424633072469223e-15, "terms_used": 510, "peak_index": 9}\n',
        ),
        (
            ["eval", "general", "--sequences", "shifted-powerlog", "--alpha", "1", "--beta", "3",
             "--gamma", "1", "--delta", "1", "--mu", "1", "--r", "100", "--tol", "1e-6"],
            '{"family": "general", "r": 100.0, "value": 3.1202152924249147e-06, '
            '"tail_bound": 3.108387564224669e-12, "terms_used": 596, "peak_index": 9}\n',
        ),
    ],
)
def test_eval_general_golden_bytes(capsys, argv, expected):
    # stdout recorded in the benchmark's golden CLI set: the evaluator's
    # results must not move by a single ulp
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == expected


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


def test_predict_meta_line_shows_the_gamma_and_delta_used(capsys):
    code, out, _ = run_cli(
        capsys,
        "predict", "powerlog", "--alpha", "1", "--beta", "3", "--mu", "1",
        "--gamma-eq-alpha", "--delta-eq-beta", "--r", "100", "--format", "csv",
    )
    assert code == 0
    meta = out.splitlines()[0]
    assert " gamma=1.0 delta=3.0 " in meta, meta


@pytest.mark.parametrize("flags", [(), ("--gamma-eq-alpha", "--delta-eq-beta")])
def test_predict_powerlog_unrepresentable_value_exit_1(capsys, flags):
    code, out, err = run_cli(
        capsys,
        "predict", "powerlog", "--alpha", "1", "--beta", "2", "--mu", "1", "--r", "1e300", *flags,
    )
    assert code == 1
    assert out == ""
    assert "not a normal double" in err


@pytest.mark.parametrize("r", ["0.5", "2"])
def test_predict_powerlog_radius_at_most_e_exit_2(capsys, r):
    # r = 0.5 used to die in log(log r), r = 2 printed a value outside the law's domain
    code, out, err = run_cli(
        capsys, "predict", "powerlog", "--alpha", "1", "--beta", "2", "--mu", "1", "--r", r
    )
    assert code == 2
    assert out == ""
    assert "error:" in err and "r > e" in err


def test_predict_powerlog_without_a_first_order_law_exit_4(capsys):
    # m = 4/3, off the integer branch: the law used to print a negative value
    code, out, err = run_cli(
        capsys,
        "predict", "powerlog", "--alpha", "1", "--beta", "3", "--delta", "2", "--mu", "0",
        "--r", "10",
    )
    assert code == 4
    assert out == ""
    assert "precondition failed" in err and "1.33333" in err


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


def test_sweep_powerlog_says_why_the_ratio_is_empty(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "powerlog", "--alpha", "1", "--beta", "3", "--delta", "2", "--mu", "0",
        "--r-grid", "10:1000:3",
    )
    assert code == 0
    for record in json.loads(out)["records"]:
        assert record["value"] > 0.0
        assert record["prediction"] is None and record["ratio"] is None
        assert "no first-order law" in record["error"]


def test_sweep_expansion_error_shrinks(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "expansion", "--mu", "2", "--r-grid", "5:40:4"
    )
    assert code == 0
    recs = json.loads(out)["records"]
    gaps = [abs(rec["value"] - rec["prediction"]) for rec in recs]
    assert gaps == sorted(gaps, reverse=True)


def test_sweep_expansion_survives_an_overflowing_first_term(capsys):
    # at r = 2.9e66 the n = 1 term's float power (1 + r^2)^3 overflows while
    # the sum is still a normal double (~7e-267): the term is taken in logs,
    # where it underflows far below the sum's last bit; each row carries its
    # value or its typed error
    code, out, err = run_cli(capsys, "sweep", "expansion", "--mu", "2", "--r-grid", "0.5:1e200:7")
    assert (code, err) == (0, "")
    records = json.loads(out)["records"]
    r = records[2]["r"]
    assert r > 2.9e66 and records[2]["error"] is None
    # the direct sum is the prediction the expansion is measured against
    direct = 2.0 * eval_powerlog(PowerLogParams(1, 2, 0, 0, 2), r, 1e-13).value
    assert records[2]["prediction"] == direct
    assert "requires r > 1" in records[0]["error"] and records[1]["error"] is None
    assert all("not a normal double" in rec["error"] for rec in records[3:])


def test_sweep_expansion_rejects_mu_at_most_three_halves(capsys):
    # it used to fail at every grid point and exit 1
    code, out, err = run_cli(capsys, "sweep", "expansion", "--mu", "1", "--r-grid", "10:100:2")
    assert code == 2
    assert out == ""
    assert "the classical series requires mu > 3/2, got 1.0" in err


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


@pytest.mark.parametrize("grid", ["10:inf:3", "10:1e400:2"])
def test_sweep_rejects_a_non_finite_grid_end(capsys, grid):
    # an infinite r_max used to print "r": Infinity, which is not JSON
    code, out, err = run_cli(
        capsys, "sweep", "powerlog", "--alpha", "1", "--beta", "2", "--mu", "1",
        "--r-grid", grid,
    )
    assert (code, out) == (2, "")
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


def test_verify_unknown_suite_exits_2_with_the_suite_list(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "thm99"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument suite: invalid choice: 'thm99'" in err
    assert "'cor61', 'expansion', 'lemma22', 'lemma31', 'lemma41', 'prop62', 'thm11'" in err


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


@pytest.mark.parametrize("cap", ["0", "-5"])
@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "general", "--sequences", "logfact", "--alpha", "1", "--beta", "3",
         "--mu", "1", "--r", "100"],
        ["eval", "powerseries", "--sequences", "ones-squares", "--mu", "0", "--x", "0.5",
         "--r", "100"],
    ],
    ids=["general", "powerseries"],
)
def test_non_positive_term_cap_is_a_parameter_error(capsys, monkeypatch, argv, cap):
    # the flag used to reach the evaluator and exit 3 as a resource cap
    code, out, err = run_cli(capsys, *argv, "--hard-cap", cap)
    assert (code, out) == (2, "")
    assert f"--hard-cap must be positive, got {cap}" in err
    monkeypatch.setenv("MATHIEU_TERM_CAP", cap)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"MATHIEU_TERM_CAP must be positive, got {cap}" in err


def test_powerseries_honours_the_hard_cap_flag(capsys, monkeypatch):
    # x = 0.99 needs more than 100 terms: the flag and the environment both cap it
    argv = ["eval", "powerseries", "--sequences", "ones-squares", "--mu", "0", "--x", "0.99",
            "--r", "100"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["value"] > 0
    code, out, err = run_cli(capsys, *argv, "--hard-cap", "100")
    assert (code, out) == (3, "")
    assert "term cap 100" in err
    monkeypatch.setenv("MATHIEU_TERM_CAP", "100")
    code, _, err = run_cli(capsys, *argv)
    assert code == 3
    assert "term cap 100" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "powerlog", "--alpha", "1", "--beta", "2", "--mu", "1", "--r", "10"],
        ["eval", "factorial", "--alpha", "1", "--beta", "2", "--mu", "1", "--r", "1e6"],
    ],
    ids=["powerlog", "factorial"],
)
def test_hard_cap_flag_caps_every_eval_family(capsys, argv):
    # the flag used to reach only general and powerseries: powerlog and factorial ignored it
    code, out, err = run_cli(capsys, *argv, "--hard-cap", "5")
    assert (code, out) == (3, "")
    assert "resource cap" in err


@pytest.mark.parametrize("cap", ["abc", "0"])
@pytest.mark.parametrize("family", ["powerlog", "factorial"])
def test_sweep_bad_term_cap_is_a_parameter_error(capsys, monkeypatch, family, cap):
    # it used to fail at every grid point and exit 1
    monkeypatch.setenv("MATHIEU_TERM_CAP", cap)
    code, out, err = run_cli(
        capsys, "sweep", family, "--alpha", "1", "--beta", "2", "--mu", "1",
        "--r-grid", "100:1e6:3",
    )
    assert (code, out) == (2, "")
    assert "parameter error: MATHIEU_TERM_CAP must be" in err


@pytest.mark.parametrize("family", ["powerlog", "factorial"])
def test_sweep_bad_tol_is_a_parameter_error(capsys, family):
    # it used to fail at every grid point and exit 1
    code, out, err = run_cli(
        capsys, "sweep", family, "--alpha", "1", "--beta", "2", "--mu", "1",
        "--r-grid", "10:100:3", "--tol", "0.5",
    )
    assert (code, out) == (2, "")
    assert err == "parameter error: rel_tol must lie in (0, 1e-2], got 0.5\n"


def test_sweep_expansion_ignores_tol(capsys):
    argv = ["sweep", "expansion", "--mu", "2", "--r-grid", "10:100:2"]
    assert run_cli(capsys, *argv, "--tol", "0.5") == run_cli(capsys, *argv)


def test_eval_powerlog_names_the_radius_ahead_of_a_bad_tol(capsys):
    code, out, err = run_cli(
        capsys, "eval", "powerlog", "--alpha", "1", "--beta", "2", "--mu", "1",
        "--r", "0.5", "--tol", "0.5",
    )
    assert (code, out) == (2, "")
    assert err == "parameter error: eval_powerlog requires r > 1, got 0.5\n"


def test_sweep_powerlog_rows_fail_at_both_ends(capsys):
    # the grid is evaluated at once, and each radius keeps the row of its own call
    from mathieu_series.asymptotics import predict_powerlog
    from mathieu_series.cli import _parse_grid
    from mathieu_series.errors import MathieuError

    code, out, _ = run_cli(
        capsys, "sweep", "powerlog", "--alpha", "1", "--beta", "2", "--mu", "1",
        "--r-grid", "0.5:1e200:7",
    )
    assert code == 0
    p = PowerLogParams(1, 2, 0, 0, 1)
    expected = []
    for r in _parse_grid("0.5:1e200:7"):
        row = dict.fromkeys(["r", "value", "prediction", "ratio", "tail_bound", "error"])
        try:
            res = eval_powerlog(p, r)
        except MathieuError as exc:
            row.update(r=r, error=str(exc))
        else:
            pred = predict_powerlog(p, r)
            row.update(r=r, value=res.value, prediction=pred, ratio=res.value / pred,
                       tail_bound=res.tail_bound)
        expected.append(row)
    records = json.loads(out)["records"]
    assert records == expected
    assert "requires r > 1" in records[0]["error"]
    assert [rec["error"] is None for rec in records[1:5]] == [True] * 4
    assert all("below the smallest normal double" in rec["error"] for rec in records[5:])


def test_eval_general_unknown_preset_names_the_choices(capsys):
    code, out, err = run_cli(
        capsys, "eval", "general", "--sequences", "ones-squares", "--alpha", "1", "--beta", "3",
        "--mu", "1", "--r", "100",
    )
    assert (code, out) == (2, "")
    assert "unknown general-series preset 'ones-squares'" in err
    assert "logfact, shifted-powerlog" in err


def test_predict_factorial_unrepresentable_value_exit_1(capsys):
    # it used to print "value": 0.0 and exit 0
    code, out, err = run_cli(
        capsys, "predict", "factorial", "--alpha", "1", "--beta", "2", "--mu", "1", "--r", "1e200"
    )
    assert (code, out) == (1, "")
    assert "numeric failure" in err and "not a normal double" in err


@pytest.mark.parametrize(
    "preset, flags",
    [
        ("logfact", ["--alpha", "400", "--beta", "401"]),
        ("shifted-powerlog", ["--alpha", "400", "--beta", "401"]),
        # (n+3)^300 and log(n+2)^100 fit a double at n = 6, their product does not
        ("shifted-powerlog", ["--alpha", "300", "--beta", "151", "--gamma", "100"]),
    ],
)
def test_eval_general_preset_past_the_double_range_exit_1(capsys, preset, flags):
    # (log n!)^400 and (n+3)^400 overflow: these used to die with a traceback
    code, out, err = run_cli(
        capsys, "eval", "general", "--sequences", preset, *flags, "--mu", "1", "--r", "10"
    )
    assert (code, out) == (1, "")
    assert "numeric failure: preset term a(" in err and "past the double range" in err


def test_predict_powerlog_past_gamma_overflow(capsys):
    # Gamma(mu+1) overflows at mu = 172: it used to die with an OverflowError traceback
    code, out, _ = run_cli(
        capsys, "predict", "powerlog", "--alpha", "1", "--beta", "2", "--mu", "172", "--r", "3"
    )
    assert code == 0
    assert json.loads(out)["constant"] == pytest.approx(1.0 / 344.0, rel=1e-15)
