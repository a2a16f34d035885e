"""Acceptance gate: every criterion at its frozen tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s or in the CLI
``verify`` suites, which share the same check implementations). Criteria
whose stated constants were placeholders pending calibration run at the
frozen values recorded in the verify module; the calibration evidence
lives in the repository notes.
"""

import math
import time
from collections import Counter

import numpy as np
import pytest
from scipy.integrate import quad

from mathieu_series._record import replace
from mathieu_series.dirichlet import mellin_factorial, mellin_powerlog
from mathieu_series.series import (
    FactorialParams,
    PowerLogParams,
    eval_factorial,
)
from mathieu_series.special import (
    inverse_gamma_log,
    lambert_w,
    zeta_neg_odd,
)
from mathieu_series import verify
from mathieu_series.verify import run_suite


def _assert_suite(criterion: str, name: str, **kwargs):
    results = run_suite(name, **kwargs)
    ok = all(c.passed for c in results)
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion} (suite {name})")
    for c in results:
        print(f"    {c.line()}")
    assert ok, f"{criterion}: {[c.name for c in results if not c.passed]}"


def test_criterion_01_expansion_vs_direct():
    _assert_suite("criterion 1: classical expansion vs direct evaluation", "expansion")


def test_criterion_02_powerlog_ratio_trend():
    t0 = time.perf_counter()
    _assert_suite("criterion 2: power-log leading-order trend", "thm11")
    assert time.perf_counter() - t0 < 60.0


def test_criterion_03_log_factorial_law():
    _assert_suite("criterion 3: log-factorial series law", "cor61")


def test_criterion_04_two_term_dominance():
    _assert_suite("criterion 4: two-term dominance", "lemma41")


def test_criterion_05_good_set_prediction():
    _assert_suite("criterion 5: good-set two-term prediction", "thm13")


def test_criterion_06_factorial_bounds():
    _assert_suite("criterion 6a: factorial ceiling", "thm14")
    _assert_suite("criterion 6b: saddle-point bound", "thm15")


def test_criterion_07_epsilon_envelope():
    # envelope checks are part of the thm14 suite; re-assert them alone
    results = [c for c in run_suite("thm14") if "envelope" in c.name]
    ok = all(c.passed for c in results)
    print(f"[{'PASS' if ok else 'FAIL'}] criterion 7: epsilon envelope containment")
    for c in results:
        print(f"    {c.line()}")
    assert ok


def test_criterion_08_zeta_singularity():
    _assert_suite("criterion 8: log-weighted zeta singular model", "lemma22")


def test_criterion_09_factorial_dirichlet_origin():
    _assert_suite("criterion 9: factorial Dirichlet small-s law", "lemma31")


def test_criterion_10_mellin_closed_forms():
    # Quadrature oracles evaluate the transform integrals directly from the
    # series values; both closed forms must match to 1e-6 relative.
    s = 1.0

    def plain_series(r):
        r2 = r * r
        n = np.arange(2, 200_000, dtype=float)
        partial = float(np.sum(n / (n * n + r2) ** 2))
        return partial + 0.5 / ((200_000 - 0.5) ** 2 + r2)  # exact integral tail

    inner, _ = quad(lambda r: plain_series(r), 0.0, 1.0, epsabs=0, epsrel=1e-9, limit=200)
    r_max = 2e6
    outer, _ = quad(
        lambda u: plain_series(math.exp(u)) * math.exp(s * u),
        0.0,
        math.log(r_max),
        epsabs=0,
        epsrel=1e-9,
        limit=300,
    )
    oracle = inner + outer + 0.5 * r_max ** (s - 2.0) / (2.0 - s)
    closed = mellin_powerlog(PowerLogParams(1, 2, 0, 0, 1), s, rel_tol=1e-9)
    rel_pl = abs(closed - oracle) / oracle
    print(f"[{'PASS' if rel_pl <= 1e-6 else 'FAIL'}] criterion 10a: "
          f"power-log Mellin closed form, rel={rel_pl:.2e}")
    assert rel_pl <= 1e-6

    p = FactorialParams(1, 2, 1)

    def fact_series(r):
        return eval_factorial(p, r, rel_tol=1e-12).value

    inner_f, _ = quad(lambda r: fact_series(r), 0.0, 1.0, epsabs=0, epsrel=1e-10, limit=200)
    r_max_f = 2000.0
    outer_f, _ = quad(
        lambda u: fact_series(math.exp(u)) * math.exp(s * u),
        0.0,
        math.log(r_max_f),
        epsabs=0,
        epsrel=1e-10,
        limit=300,
    )
    c_emp = fact_series(r_max_f) * r_max_f**3
    oracle_f = inner_f + outer_f + c_emp * r_max_f ** (s - 3.0) / (3.0 - s)
    closed_f = mellin_factorial(p, s, rel_tol=1e-10)
    rel_f = abs(closed_f - oracle_f) / oracle_f
    print(f"[{'PASS' if rel_f <= 1e-6 else 'FAIL'}] criterion 10b: "
          f"factorial Mellin closed form, rel={rel_f:.2e}")
    assert rel_f <= 1e-6


def test_criterion_11_power_series_limit():
    _assert_suite("criterion 11: power-series collapse", "prop62")


def test_criterion_12_special_function_floor():
    worst_roundtrip = 0.0
    for log_x in np.linspace(math.log(2.0), math.log(1e300), 50):
        g = inverse_gamma_log(float(log_x))
        worst_roundtrip = max(worst_roundtrip, abs(math.lgamma(g) - log_x))
    ok_rt = worst_roundtrip <= 1e-12

    worst_lambert = 0.0
    for z in np.geomspace(1e-6, 1e12, 50):
        w = lambert_w(float(z))
        worst_lambert = max(worst_lambert, abs(w * math.exp(w) - z) / max(1.0, z))
    ok_lw = worst_lambert <= 1e-13

    from fractions import Fraction

    ok_zeta = (
        zeta_neg_odd(0) == Fraction(-1, 12)
        and zeta_neg_odd(1) == Fraction(1, 120)
        and zeta_neg_odd(2) == Fraction(-1, 252)
    )
    ok = ok_rt and ok_lw and ok_zeta
    print(
        f"[{'PASS' if ok else 'FAIL'}] criterion 12: special-function floor "
        f"(roundtrip {worst_roundtrip:.2e}, lambert {worst_lambert:.2e}, "
        f"zeta exact {ok_zeta})"
    )
    assert ok


def test_sequence_suites_sum_short_heads(monkeypatch):
    # a deterministic cost guard: thm12 and cor61 certify their 12 radii from
    # short heads (up to 50,885 terms each on the envelope path), and each grid
    # builds its head once, calling every callback at most once per n
    used = []
    calls = []
    evaluate = verify.eval_general_grid

    def counted(f, seen):
        def wrapper(n):
            seen[n] += 1
            return f(n)

        return wrapper

    def recording(s, *args, **kwargs):
        seen_a, seen_b = Counter(), Counter()
        calls.extend((seen_a, seen_b))
        s = replace(s, a=counted(s.a, seen_a), b=counted(s.b, seen_b))
        results = evaluate(s, *args, **kwargs)
        used.extend(res.terms_used for res in results)
        return results

    monkeypatch.setattr(verify, "eval_general_grid", recording)
    for name in ("thm12", "cor61"):
        assert all(c.passed for c in run_suite(name))
    assert len(used) == 12
    assert max(used) <= 8192
    assert len(calls) == 6  # a and b of the three sequences
    assert all(seen and max(seen.values()) == 1 for seen in calls)


def test_thm11_integrates_on_node_arrays(monkeypatch):
    # a deterministic cost guard: every quadrature of the thm11 suite (tail
    # integrals and Euler-Maclaurin remainders, one quad call over all the
    # segments of all the radii of a checkpoint) calls its integrand, and so
    # the power-log summand, once per refinement round on arrays of nodes,
    # whatever its number of integrals and segments; today at most 5 rounds
    # a call, where one call per node makes at least 21
    from mathieu_series import dirichlet, series, tails

    rule = tails.quad
    summand = series._powerlog_log_summand
    summand_calls = [0]
    per_quad = []

    def counting_summand(*args):
        summand_calls[0] += 1
        return summand(*args)

    def counting_quad(func, a, b, **kwargs):
        calls = [0]
        before = summand_calls[0]

        def counted(*args):
            calls[0] += 1
            return func(*args)

        try:
            return rule(counted, a, b, **kwargs)
        finally:
            points = kwargs.get("points")
            if isinstance(a, (list, tuple)):  # one integral per entry of a
                segments = sum(1 + len(p) for p in points or [()] * len(a))
            else:
                segments = 1 + len(points or ())
            per_quad.append((calls[0], summand_calls[0] - before, segments))

    monkeypatch.setattr(series, "_powerlog_log_summand", counting_summand)
    for module in (tails, series, dirichlet):
        monkeypatch.setattr(module, "quad", counting_quad)
    assert all(c.passed for c in run_suite("thm11"))
    assert sum(segments for *_, segments in per_quad) >= 60
    assert max(integrand for integrand, _, _ in per_quad) <= 8
    assert max(summand for _, summand, _ in per_quad) <= 8


def test_power_log_suites_share_quadrature_rounds_across_radii(monkeypatch):
    # a deterministic cost guard: thm11, thm12 and cor61 take the tails of
    # every radius of a grid at a block end together, one tail-integral
    # quadrature and one remainder quadrature, each calling its integrand
    # once per round; one quadrature per radius made 170 and 61 rounds
    from mathieu_series import series, tails

    rule = tails.quad
    rounds = Counter()

    def counting(where):
        def wrapped(func, a, b, **kwargs):
            def counted(*args):
                rounds[where] += 1
                return func(*args)

            return rule(counted, a, b, **kwargs)

        return wrapped

    monkeypatch.setattr(series, "quad", counting("tail integrals"))
    monkeypatch.setattr(tails, "quad", counting("remainder jets"))
    for name in ("thm11", "thm12", "cor61"):
        assert all(c.passed for c in run_suite(name))
    assert rounds["tail integrals"] <= 50
    assert rounds["remainder jets"] <= 25


@pytest.mark.parametrize("name, calls", [("thm11", 2), ("thm15", 1), ("lemma22", 2)])
def test_suites_take_their_integrals_in_lockstep(name, calls, monkeypatch):
    # a deterministic cost guard: thm11 runs its 5 sets x 5 radii in one
    # power-log walk (one tail-integral and one remainder quadrature), thm15
    # its 30 gamma-line integrals in one quadrature, and lemma22 its nine
    # zetas at one cutoff (one incomplete-gamma and one remainder
    # quadrature); per-item calls made 8, 30 and 18
    from mathieu_series import dirichlet, series, tails

    rule = tails.quad
    depth = [0]
    top_level = [0]

    def counting(*args, **kwargs):
        top_level[0] += depth[0] == 0  # the one-integral form calls the list form
        depth[0] += 1
        try:
            return rule(*args, **kwargs)
        finally:
            depth[0] -= 1

    for module in (tails, series, dirichlet):
        monkeypatch.setattr(module, "quad", counting)
    assert all(c.passed for c in run_suite(name))
    assert top_level[0] == calls
