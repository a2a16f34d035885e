"""Asymptotic constants, factorial diagnostics, bounds, classical expansion."""

import inspect
import math
import sys
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mathieu_series.asymptotics import (
    AsymptoticPrediction,
    asymptotic_prediction,
    classical_expansion_terms,
    eval_classical_expansion,
    factorial_diagnostics,
    factorial_envelope,
    factorial_upper_bound,
    leading_constant,
    predict_factorial,
    predict_powerlog,
    slack_exponent,
    two_term_estimate,
)
from mathieu_series.errors import (
    CapacityError,
    DomainError,
    MathieuError,
    NumericError,
    ParameterError,
    PreconditionError,
)
from mathieu_series.series import (
    FactorialParams,
    PowerLogParams,
    eval_factorial,
    eval_powerlog,
    factorial_summand_log,
    peak_index_n0,
)
from mathieu_series.dirichlet import zeta_singular_prediction
from mathieu_series.special import is_positive_integer, zeta_neg_odd

# ---------------------------------------------------------------------------
# Leading constant and power-log prediction
# ---------------------------------------------------------------------------


def test_leading_constant_examples():
    assert leading_constant(PowerLogParams(1, 2, 0, 0, 1)) == pytest.approx(0.5, rel=1e-14)
    assert leading_constant(PowerLogParams(1, 1, 0, 1, 2)) == pytest.approx(0.125, rel=1e-14)
    # m = -2000: 2^m and beta^(m-1) underflow to 0, yet C = (beta/2)^m / beta = 0.5
    assert leading_constant(PowerLogParams(1, 2, 2000, 0, 1)) == pytest.approx(0.5, rel=1e-12)


def test_the_detection_rule_picks_the_branch_with_no_override():
    # m = -1/2: the one formula, with no branch on m, gives 0.5 (the generic branch gave 1.0)
    assert leading_constant(PowerLogParams(1, 2, 0.5, 0, 1)) == pytest.approx(0.5, rel=1e-14)
    signatures = {
        leading_constant: ["p"],
        asymptotic_prediction: ["p"],
        zeta_singular_prediction: ["p", "s"],
        is_positive_integer: ["m"],
        classical_expansion_terms: ["mu", "K"],
        eval_classical_expansion: ["mu", "r", "mode", "K"],
        factorial_upper_bound: ["p", "r", "epsilon"],
    }
    for fn, names in signatures.items():
        assert list(inspect.signature(fn).parameters) == names, fn.__name__


def test_leading_constant_integer_branch_closed_form():
    # gamma = alpha, delta = beta puts the constant on the integer branch
    # with m = 1 and the closed form common/(2 Gamma(mu+1)).
    for alpha, beta, mu in [(1.0, 3.0, 1.0), (0.5, 2.0, 1.0), (2.0, 4.0, 2.0)]:
        closed = (
            math.gamma(-(alpha + 1.0) / beta + mu + 1.0)
            * math.gamma((alpha + 1.0) / beta)
            / (2.0 * math.gamma(mu + 1.0))
        )
        got = leading_constant(PowerLogParams(alpha, beta, alpha, beta, mu))
        assert got == pytest.approx(closed, rel=1e-15)


def test_leading_constant_gamma_pole():
    # m = delta(alpha+1)/beta - gamma = -1 put the old Gamma(m+1) factor at its
    # pole; the one formula's law matches the series there
    p = PowerLogParams(1, 2, 1.0, 0, 1)
    r = 1e6
    ratio = eval_powerlog(p, r, rel_tol=1e-13).value / predict_powerlog(p, r)
    assert abs(ratio - 1.0) <= 1e-12


def test_leading_constant_above_one_off_the_integers():
    # m = delta(alpha+1)/beta - gamma = 4/3: Gamma(1-m) < 0 gave -0.6085 for a
    # positive series, and then a PreconditionError; the one formula gives 2.0763
    p = PowerLogParams(1, 3, 0, 2, 0)
    assert leading_constant(p) == pytest.approx(
        3.0 ** (1 / 3) * math.gamma(1 / 3) * math.gamma(2 / 3) / 2.0 ** (4 / 3), rel=1e-14
    )
    assert predict_powerlog(p, 10.0) > 0.0
    assert leading_constant(PowerLogParams(1, 1, 0, 1, 2)) > 0.0  # m = 2


def test_predict_powerlog_examples():
    assert predict_powerlog(PowerLogParams(1, 2, 0, 0, 1), 100.0) == pytest.approx(
        5e-5, rel=1e-12
    )
    pred = asymptotic_prediction(PowerLogParams(1, 3, 1, 3, 1))
    assert pred.log_exponent == pytest.approx(-1.0, abs=1e-12)
    assert pred.r_exponent < 0
    with pytest.raises(DomainError):
        predict_powerlog(PowerLogParams(1, 2, 0, 0, 1), 2.0)


@pytest.mark.parametrize("r", [0.5, 2.0, math.e, math.inf])
def test_prediction_value_at_requires_r_above_e(r):
    with pytest.raises(DomainError, match="r > e"):
        asymptotic_prediction(PowerLogParams(1, 2, 0, 0, 1)).value_at(r)


def test_predict_powerlog_unrepresentable_value():
    # 0.5 r^-2 is 5e-601 at r = 1e300: an error, not a silent 0.0
    with pytest.raises(NumericError, match="not a normal double"):
        predict_powerlog(PowerLogParams(1, 2, 0, 0, 1), 1e300)


@pytest.mark.parametrize("mu", [172.0, 300.0])
def test_predict_powerlog_past_gamma_overflow_against_mpmath(mu):
    # Gamma(mu+1) overflows a double from mu ~ 170.6 on: this used to raise OverflowError
    p = PowerLogParams(1, 2, 0, 0, mu)
    with mpmath.workdps(30):
        exact = mpmath.gamma(mpmath.mpf(mu)) / (2 * mpmath.gamma(mpmath.mpf(mu) + 1))
        exact_value = exact * mpmath.mpf(3) ** (2 - 2 * (mpmath.mpf(mu) + 1))
        assert abs(leading_constant(p) - exact) <= 1e-13 * exact
        assert abs(predict_powerlog(p, 3.0) - exact_value) <= 1e-13 * exact_value


def test_leading_order_overflow_is_a_numeric_error():
    # m = 2000: (beta/2)^m = 500^2000 puts log C near 1.2e4; rho = 101 at
    # mu = 1e300 puts it near -6.9e4; (log 3)^1e4 / 3 overflows too
    with pytest.raises(NumericError, match="overflows a double"):
        leading_constant(PowerLogParams(1, 1000, 0, 1e6, 0))
    with pytest.raises(NumericError, match="underflows a double"):
        leading_constant(PowerLogParams(100, 1, 0, 0, 1e300))
    # beta at the convergence edge: mu+1-(alpha+1)/beta > 0 rounds to 0.0
    with pytest.raises(NumericError, match="past double precision"):
        leading_constant(
            PowerLogParams(7.0913054533402216, 8.057069681101353, 0, 0, 0.004249159259373348)
        )
    with pytest.raises(NumericError, match="not a normal double"):
        AsymptoticPrediction(1.0, -1.0, 1e4).value_at(3.0)


def _mp_leading_constant(p: PowerLogParams):
    """beta^(m-1) Gamma(mu+1-rho) Gamma(rho) / (2^m Gamma(mu+1)) from p's doubles, to 60
    digits: the working precision also holds every digit of mu + 1 - rho."""
    with mpmath.workdps(60 + max(0, int(math.log10(p.mu)))):
        alpha, beta, gamma, delta, mu = map(
            mpmath.mpf, (p.alpha, p.beta, p.gamma, p.delta, p.mu)
        )
        rho = (alpha + 1) / beta
        m = delta * rho - gamma
        return beta ** (m - 1) * mpmath.beta(mu + 1 - rho, rho) / 2**m


@pytest.mark.parametrize(
    "p",
    [
        PowerLogParams(1, 2, 0, 0, mu)  # rho = 1, m = 0: C = 1/(2 mu)
        for mu in (172.0, 300.0, 1e3, 1e7, 1e15, 1e300)
    ]
    + [
        PowerLogParams(0.5, 2, 0.2, 1.3, mu)  # rho = 3/4, m = 0.775
        for mu in (172.0, 300.0, 1e3, 1e7, 1e15, 1e300)
    ]
    + [PowerLogParams(399, 2, 0, 0, 300)],  # Gamma(rho) = Gamma(200) overflows, C = 6.01e-85
    ids=str,
)
def test_leading_constant_for_large_mu_against_mpmath(p):
    # the gamma ratio is a beta function, taken in O(1): the parent stepped mu
    # down one unit at a time (1.4 s at mu = 1e7) and returned 0.5 at mu = 1e300
    exact = _mp_leading_constant(p)
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        got = leading_constant(p)
        best = min(best, time.perf_counter() - t0)
    assert abs(got - exact) <= 1e-12 * exact
    assert best < 0.01


@given(
    st.floats(min_value=0.01, max_value=50.0),
    st.floats(min_value=0.01, max_value=50.0),
    st.floats(min_value=-50.0, max_value=50.0),
    st.floats(min_value=-50.0, max_value=50.0),
    st.one_of(
        st.floats(min_value=0.0, max_value=400.0),
        st.floats(min_value=0.0, max_value=300.0).map(lambda k: 10.0**k),
    ),
)
@settings(max_examples=300, deadline=None)
def test_leading_constant_is_positive_and_normal_or_numeric_error(alpha, beta, gamma, delta, mu):
    # one formula for every m: never a PreconditionError, never a sign change
    if not alpha - beta * (mu + 1.0) < -1.0:
        return
    try:
        constant = leading_constant(PowerLogParams(alpha, beta, gamma, delta, mu))
    except NumericError:
        return
    assert math.isfinite(constant) and constant >= sys.float_info.min, constant


@pytest.mark.parametrize("beta", [2.0, 3.0])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_leading_constant_is_continuous_across_integer_m(beta, m):
    # the old branches jumped at each integer: their factor Gamma(1+m)/Gamma(1-m) is 0 there
    def at(m_value):
        delta = m_value * beta / 2.0  # m = delta(alpha+1)/beta with alpha = 1, gamma = 0
        return leading_constant(PowerLogParams(1, beta, 0, delta, 1))

    center = at(float(m))
    for m_value in (m - 1e-7, m + 1e-7):
        assert abs(at(m_value) / center - 1.0) <= 1e-6


@pytest.mark.parametrize(
    "p, bound_at_1e6",
    [
        (PowerLogParams(1, 2, 0, 0.5, 1), 0.01),  # m = 1/2: 0.0067, 0.0051, 0.0019
        (PowerLogParams(1, 3, 0, 2, 0), 0.1),  # m = 4/3: 0.072, 0.054, 0.020
    ],
    ids=["m=1/2", "m=4/3"],
)
def test_law_off_the_integers_far_out(p, bound_at_1e6):
    # |ratio - 1| first grows past r = 1e2 and falls only slowly, as a power of
    # 1/log r, so these are pinned at r = 1e6, 1e20 and 1e100, not in verify
    devs = [
        abs(eval_powerlog(p, r, rel_tol=1e-12).value / predict_powerlog(p, r) - 1.0)
        for r in (1e6, 1e20, 1e100)
    ]
    assert devs[0] <= bound_at_1e6
    assert devs[2] < devs[1] < devs[0]


def _normal_or_mathieu_error(call) -> None:
    """The property of every float result: a normal double, or a MathieuError."""
    try:
        value = call()
    except MathieuError:
        return
    assert math.isfinite(value) and value >= sys.float_info.min, value


@given(
    st.floats(min_value=0.01, max_value=3.0),
    st.floats(min_value=0.25, max_value=4.0),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=0.0, max_value=400.0),
    st.floats(min_value=0.5, max_value=300.0),
)
@settings(max_examples=200, deadline=None)
def test_predict_powerlog_is_normal_or_raises(alpha, beta, gamma, delta, mu, log10_r):
    if not alpha - beta * (mu + 1.0) < -1.0:
        return
    try:
        value = predict_powerlog(PowerLogParams(alpha, beta, gamma, delta, mu), 10.0**log10_r)
    except MathieuError:
        return
    assert math.isfinite(value) and value >= sys.float_info.min, value


def test_predict_powerlog_ratio_trend():
    p = PowerLogParams(1, 2, 1, 1, 1)
    devs = []
    for k in (2, 4, 6):
        r = 10.0**k
        devs.append(abs(eval_powerlog(p, r, rel_tol=1e-9).value / predict_powerlog(p, r) - 1.0))
    assert devs[2] < devs[1] < devs[0]


# ---------------------------------------------------------------------------
# Factorial diagnostics and prediction
# ---------------------------------------------------------------------------


def test_factorial_diagnostics_constructed_fraction():
    p = FactorialParams(1, 2, 1)
    r = math.exp(math.lgamma(7.5))  # r^(2/beta) = Gamma(7.5) for beta = 2
    d = factorial_diagnostics(p, r)
    assert d.frac_g == pytest.approx(0.5, abs=1e-9)
    assert d.in_R
    assert d.m_r == pytest.approx(min(0.5, 3.0 * 0.5), abs=1e-9)
    assert d.n0 in (int(math.floor(d.g)) - 1, int(math.floor(d.g)))


def test_factorial_diagnostics_integer_boundary():
    p = FactorialParams(1, 2, 1)
    r = math.exp(math.lgamma(7.0))
    d = factorial_diagnostics(p, r)
    assert d.frac_g == 0.0
    assert d.m_r == 0.0
    assert not d.in_R


def test_factorial_diagnostics_gates():
    with pytest.raises(ParameterError):
        factorial_diagnostics(FactorialParams(0, 1, 1), 100.0)
    with pytest.raises(ParameterError):
        factorial_diagnostics(FactorialParams(1, 2, 1), 100.0, d1=0.8, d2=0.2)
    with pytest.raises(DomainError):
        factorial_diagnostics(FactorialParams(1, 2, 1), 5.0)


def test_predict_factorial_against_evaluator():
    p = FactorialParams(1, 2, 1)
    r = math.exp(math.lgamma(12.5))  # frac_g = 0.5, r ~ 1.4e8
    value = eval_factorial(p, r, rel_tol=1e-12).value
    pred = predict_factorial(p, r)
    assert abs(math.log(value / pred)) <= 5.0 * slack_exponent(r)


def test_predict_factorial_outside_good_set():
    p = FactorialParams(1, 2, 1)
    r = math.exp(math.lgamma(7.0))  # frac_g = 0 is outside [0.2, 0.8]
    with pytest.raises(PreconditionError) as err:
        predict_factorial(p, r)
    assert err.value.diagnostics is not None
    assert err.value.diagnostics.frac_g == 0.0


def test_predict_factorial_decreasing_in_mu():
    r = math.exp(math.lgamma(12.5))
    vals = [predict_factorial(FactorialParams(1, 2, mu), r) for mu in (1.0, 1.5, 2.0)]
    assert vals[0] > vals[1] > vals[2]


def test_predict_factorial_radius_scaling():
    # equal fractional parts: the ratio is governed by the power law times
    # a bounded log-power factor
    p = FactorialParams(1, 2, 1)
    r1, r2 = math.exp(math.lgamma(10.5)), math.exp(math.lgamma(12.5))
    pred1, pred2 = predict_factorial(p, r1), predict_factorial(p, r2)
    power = (r2 / r1) ** (-2.0 * (p.mu + 1.0 - p.alpha / p.beta))
    log_factor = (pred2 / pred1) / power
    expected = (math.log(r2) / math.log(r1)) ** (-0.5)  # m_r = 1/2 at both radii
    assert log_factor == pytest.approx(expected, rel=1e-9)


# ---------------------------------------------------------------------------
# Two-term estimate, envelope, ceiling
# ---------------------------------------------------------------------------


def test_two_term_exact_small_case():
    assert two_term_estimate(FactorialParams(1, 1, 1), 2.0) == pytest.approx(
        2.0 / 36.0 + 6.0 / 100.0, rel=1e-14
    )


def test_two_term_ratio_bounds_and_trend():
    p = FactorialParams(1, 2, 1)
    ratios = []
    for k in range(2, 13, 2):
        r = 10.0**k
        ratios.append(two_term_estimate(p, r) / eval_factorial(p, r, rel_tol=1e-13).value)
    assert all(0.0 < q <= 1.0 for q in ratios)
    assert ratios[-1] > ratios[0]


def test_envelope_contains_value():
    # calibrated onset: r = 1e4 for (1,2,1); (0.5,1,1) passes from 1e3
    for p, ks in [(FactorialParams(1, 2, 1), range(4, 11)), (FactorialParams(0.5, 1, 1), range(3, 11))]:
        for k in ks:
            r = 10.0**k
            v = eval_factorial(p, r, rel_tol=1e-12).value
            env = factorial_envelope(p, r, 0.1)
            assert env.lower <= v <= env.upper
            assert env.lower < env.upper
            assert abs(math.log(v) - env.log_center) <= 10.0 * math.log(math.log(r))


def test_envelope_gates():
    with pytest.raises(ParameterError):
        factorial_envelope(FactorialParams(0, 1, 1), 1e3, 0.1)
    with pytest.raises(DomainError):
        factorial_envelope(FactorialParams(1, 2, 1), 50.0, 0.1)
    with pytest.raises(ParameterError):
        factorial_envelope(FactorialParams(1, 2, 1), 1e3, 0.0)


def test_upper_bound_dominates_and_orders():
    p = FactorialParams(1, 2, 1)
    for k in (3, 6, 9, 12):
        r = 10.0**k
        v = eval_factorial(p, r, rel_tol=1e-12).value
        bound = factorial_upper_bound(p, r, 0.2)
        assert bound >= v
        assert bound >= two_term_estimate(p, r)
    assert factorial_upper_bound(p, 1e6, 0.4) > factorial_upper_bound(p, 1e6, 0.2)


def test_factorial_sandwich():
    # two-term <= value <= ceiling and value <= saddle bound, across the grid
    from mathieu_series.dirichlet import saddle_point_bound

    for prm in [(1, 2, 1), (0.5, 1, 1)]:
        p = FactorialParams(*prm)
        for k in (3, 5, 7, 9, 11):
            r = 10.0**k
            v = eval_factorial(p, r, rel_tol=1e-12).value
            assert two_term_estimate(p, r) <= v * (1.0 + 1e-12)
            assert v <= factorial_upper_bound(p, r, 0.2)
            assert v <= saddle_point_bound(p, r)


def test_good_set_selector_matches_peak():
    # The argmax summand is n0 exactly when the R0 side wins. Near the
    # selector boundary (frac_g = 3/4 here) finite-r corrections can flip
    # the comparison, so the grid keeps a margin from it.
    p = FactorialParams(1, 2, 1)
    seen_false = False
    for g_target in (12.3, 12.5, 12.7, 12.9, 13.2, 13.6, 14.4, 15.5, 16.85):
        r = math.exp(math.lgamma(g_target))
        if r < 1e6:
            continue
        d = factorial_diagnostics(p, r)
        value = eval_factorial(p, r, rel_tol=1e-12).value
        n0 = peak_index_n0(2.0, r)
        a0 = math.exp(factorial_summand_log(p, r, n0))
        a1 = math.exp(factorial_summand_log(p, r, n0 + 1))
        assert max(a0, a1) / value >= 0.45
        if abs(d.frac_g - 0.75) >= 0.1:
            assert (a0 >= a1) == d.in_R0
        seen_false = seen_false or not d.in_R0
    assert seen_false  # the grid exercises both sides of the selector


def test_factorial_closed_forms_past_the_double_range_raise():
    # each used to return 0.0 (or, for the envelope at 1e100, the subnormal 1e-310)
    from mathieu_series.dirichlet import saddle_point_bound

    p = FactorialParams(1, 2, 1)
    for call in (
        lambda: predict_factorial(p, 1e200),
        lambda: two_term_estimate(p, 1e200),
        lambda: factorial_upper_bound(p, 1e200, 0.2),
        lambda: factorial_envelope(p, 1e200, 0.1),
        lambda: factorial_envelope(p, 1e100, 0.1),
        lambda: saddle_point_bound(p, 1e200),
    ):
        with pytest.raises(NumericError, match="not a normal double"):
            call()


def test_two_term_estimate_of_two_underflowed_peak_terms_is_0():
    # mu + 1 = 1e308 puts both peak summands' logs at -inf: their logaddexp
    # read -inf - (-inf) and named a value of nan
    with pytest.raises(NumericError, match="value at r=10.0 is 0.0, not a normal double"):
        two_term_estimate(FactorialParams(1, 2, 1e308), 10.0)


_FACTORIAL_PROPERTY = (
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=0.25, max_value=3.0),
    st.floats(min_value=0.0, max_value=200.0),
    st.floats(min_value=0.0, max_value=300.0),
)


@given(*_FACTORIAL_PROPERTY)
@settings(max_examples=60, deadline=None)
def test_factorial_family_results_are_normal_or_raise(alpha, beta, mu, log10_r):
    from mathieu_series.dirichlet import saddle_point_bound

    if not alpha < beta * (mu + 1.0):
        return
    p, r = FactorialParams(alpha, beta, mu), 10.0**log10_r
    for call in (
        lambda: predict_factorial(p, r),
        lambda: two_term_estimate(p, r),
        lambda: factorial_upper_bound(p, r, 0.2),
        lambda: factorial_envelope(p, r, 0.1).lower,
        lambda: factorial_envelope(p, r, 0.1).upper,
        lambda: saddle_point_bound(p, r),
        # the cap keeps a slowly decaying tail, which the ratio bound cannot
        # certify, from summing up to the default 1e9 terms
        lambda: eval_factorial(p, r, hard_cap=100_000).value,
    ):
        _normal_or_mathieu_error(call)


@given(
    st.floats(min_value=0.01, max_value=3.0),
    st.floats(min_value=0.25, max_value=4.0),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=0.0, max_value=200.0),
    st.floats(min_value=0.0, max_value=300.0),
)
@settings(max_examples=60, deadline=None)
def test_eval_powerlog_is_normal_or_raises(alpha, beta, gamma, delta, mu, log10_r):
    if not alpha - beta * (mu + 1.0) < -1.0:
        return
    p = PowerLogParams(alpha, beta, gamma, delta, mu)
    _normal_or_mathieu_error(lambda: eval_powerlog(p, 10.0**log10_r).value)


# ---------------------------------------------------------------------------
# Classical expansion
# ---------------------------------------------------------------------------


def test_expansion_term_coefficients():
    terms = classical_expansion_terms(2.0, 1)
    assert terms[0].k == -1
    assert terms[0].coefficient == pytest.approx(0.5, rel=1e-15)
    assert terms[0].r_power == -4.0
    assert terms[1].coefficient == pytest.approx(-1.0 / 6.0, rel=1e-15)
    mu1 = classical_expansion_terms(1.0, 1)
    assert mu1[2].coefficient == pytest.approx(-1.0 / 30.0, rel=1e-15)
    assert mu1[2].r_power == -6.0


def test_expansion_capacity():
    with pytest.raises(CapacityError):
        classical_expansion_terms(2.0, 32)
    with pytest.raises(CapacityError):
        eval_classical_expansion(2.0, 10.0, mode="fixed", K=40)


@pytest.mark.parametrize("K", [-1, -5])
def test_expansion_rejects_a_negative_order(K):
    # K = -1 must not slice corrections[:-1], 30 terms with the last as the estimate
    with pytest.raises(DomainError, match="K must be >= 0"):
        eval_classical_expansion(2.0, 10.0, mode="fixed", K=K)
    with pytest.raises(DomainError, match="K must be >= 0"):
        classical_expansion_terms(2.0, K)


@pytest.mark.parametrize("K", [2.5, 2.0, True, "3", None])
def test_expansion_order_must_be_an_integer(K):
    if K is not None:  # None is "no K", which fixed mode rejects on its own
        with pytest.raises(ParameterError, match="K must be an integer"):
            eval_classical_expansion(2.0, 10.0, mode="fixed", K=K)
    with pytest.raises(ParameterError, match="K must be an integer"):
        classical_expansion_terms(2.0, K)


def test_expansion_order_takes_numpy_integers():
    fixed = eval_classical_expansion(2.0, 10.0, mode="fixed", K=3)
    assert eval_classical_expansion(2.0, 10.0, mode="fixed", K=np.int64(3)) == fixed
    assert classical_expansion_terms(2.0, np.int16(3)) == classical_expansion_terms(2.0, 3)


def test_expansion_sign_pattern():
    # zeta(-2k-1) alternates in k, so (-1)^k zeta(-2k-1) < 0 throughout and
    # every correction coefficient is negative.
    terms = classical_expansion_terms(2.0, 31)
    assert all(t.coefficient < 0.0 for t in terms[1:])
    zetas = [zeta_neg_odd(k) for k in range(10)]
    assert all(z1 * z2 < 0 for z1, z2 in zip(zetas, zetas[1:]))
    for k in range(10):
        assert Fraction(-1) ** k * zetas[k] < 0


def test_expansion_magnitudes_fall_then_rise():
    terms = classical_expansion_terms(2.0, 31)
    log_r = math.log(10.0)
    mags = [abs(t.coefficient) * math.exp(t.r_power * log_r) for t in terms[1:]]
    turn = [i for i in range(len(mags) - 1) if mags[i + 1] >= mags[i]]
    assert turn and 20 <= turn[0] <= 31


def test_expansion_against_direct_eval():
    for r, tol in [(10.0, 1e-10), (100.0, 5e-14)]:
        val, err = eval_classical_expansion(2.0, r, mode="optimal")
        direct = (
            2.0 * eval_powerlog(PowerLogParams(1, 2, 0, 0, 2), r, rel_tol=1e-13).value
            + 2.0 / (1.0 + r * r) ** 3
        )
        assert val == pytest.approx(direct, rel=tol)
        assert err <= tol * direct


def test_expansion_fixed_mode_improves():
    mu, r = 2.0, 100.0
    direct = (
        2.0 * eval_powerlog(PowerLogParams(1, 2, 0, 0, mu), r, rel_tol=1e-13).value
        + 2.0 / (1.0 + r * r) ** 3
    )
    v0, _ = eval_classical_expansion(mu, r, mode="fixed", K=0)
    v1, _ = eval_classical_expansion(mu, r, mode="fixed", K=1)
    assert abs(v1 - direct) < abs(v0 - direct)


def test_expansion_gates():
    with pytest.raises(DomainError):
        eval_classical_expansion(1.0, 10.0)  # the series needs mu > 3/2
    with pytest.raises(ParameterError):
        eval_classical_expansion(2.0, 10.0, mode="bogus")
    with pytest.raises(ParameterError):
        eval_classical_expansion(2.0, 10.0, mode="fixed")


def test_expansion_past_the_double_range_raises():
    # (0.0, 0.0) used to come back at r = 1e200
    with pytest.raises(NumericError, match="not a normal double"):
        eval_classical_expansion(2.0, 1e200)


@given(st.floats(min_value=1.5, max_value=200.0, exclude_min=True), st.floats(0.0, 300.0))
@settings(max_examples=100, deadline=None)
def test_expansion_is_normal_or_raises(mu, log10_r):
    try:
        value, estimate = eval_classical_expansion(mu, 10.0**log10_r)
    except MathieuError:
        return
    # at small r the divergent expansion's partial sum can be negative; its
    # error estimate then exceeds it
    assert math.isfinite(value) and abs(value) >= sys.float_info.min, value
    assert value > 0.0 or estimate > abs(value)


@pytest.mark.parametrize("mu, K", [(1e300, 3), (1e15 + 0.5, 31), (1e-310, 0)])
def test_expansion_coefficient_past_the_double_range_is_a_numeric_error(mu, K):
    # the exact integer-mu coefficient raised "integer division result too large
    # for a float", the lgamma ratio of a non-integer mu a bare math range error,
    # and the leading 1/mu was inf
    with pytest.raises(NumericError, match="coefficient value at k=.* not a normal double"):
        classical_expansion_terms(mu, K)
