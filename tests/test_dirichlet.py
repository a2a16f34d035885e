"""Dirichlet sums, singular models, Mellin closed forms, saddle bound."""

import math
import sys
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from mathieu_series.dirichlet import (
    DirichletParams,
    _gamma_line_integral,
    _log_weighted_zetas,
    factorial_dirichlet,
    log_factorial_dirichlet,
    log_weighted_zeta,
    mellin_factorial,
    mellin_powerlog,
    saddle_point_bound,
    transform_frame,
    zeta_singular_prediction,
)
from mathieu_series.errors import DomainError, MathieuError, NumericError, ParameterError
from mathieu_series.series import FactorialParams, PowerLogParams, eval_factorial

# ---------------------------------------------------------------------------
# Log-weighted zeta
# ---------------------------------------------------------------------------


def test_zeta_riemann_checkpoint():
    v = log_weighted_zeta(DirichletParams(0, 0), 2.0, rel_tol=1e-12)
    assert v == pytest.approx(math.pi**2 / 6.0 - 1.0, rel=1e-12)


def test_zeta_against_direct_summation():
    # eta=0, theta=1, s=2: plain sum to 1e7 plus a sandwich tail pad
    n = np.arange(2, 10**7, dtype=float)
    partial = float(np.sum(1.0 / (n * np.log(n)) ** 2))
    tail_hi = 1e-7 / math.log(1e7) ** 2  # integral comparison from 1e7
    oracle = partial + 0.5 * tail_hi
    v = log_weighted_zeta(DirichletParams(0, 1), 2.0, rel_tol=1e-10)
    assert v == pytest.approx(oracle, rel=1e-8)


def test_zeta_near_pole():
    v = log_weighted_zeta(DirichletParams(0, 0), 1.001, rel_tol=1e-10)
    assert 0.9 <= 0.001 * v <= 1.1


def test_zeta_past_the_double_range_raises():
    # 2^-1100 + 3^-1100 + ... is ~1e-331: this used to return 0.0
    with pytest.raises(NumericError, match="not a normal double"):
        log_weighted_zeta(DirichletParams(0, 0), 1100.0)


@given(
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-3.0, max_value=3.3),
)
@settings(max_examples=60, deadline=None)
def test_zeta_is_normal_or_raises(eta, theta, log10_s_minus_1):
    try:
        value = log_weighted_zeta(DirichletParams(eta, theta), 1.0 + 10.0**log10_s_minus_1)
    except MathieuError:
        return
    assert math.isfinite(value) and value >= sys.float_info.min, value


def test_zetas_in_one_call_match_their_one_item_calls():
    # a good item, one with s <= 1 and one whose value underflows share one walk
    items = [(DirichletParams(0, 1), 2.0)] + [(DirichletParams(0, 0), s) for s in (1.0, 1100.0)]
    together = _log_weighted_zetas(items, 1e-10)
    alone = [_log_weighted_zetas([item], 1e-10)[0] for item in items]

    def outcome(x):
        return (type(x), str(x)) if isinstance(x, Exception) else x

    assert [outcome(x) for x in together] == [outcome(x) for x in alone]
    assert [type(x) for x in together] == [float, DomainError, NumericError]


def test_zeta_domain():
    with pytest.raises(DomainError):
        log_weighted_zeta(DirichletParams(0, 0), 1.0)


def test_zeta_monotone_decreasing_for_nonpositive_eta():
    for eta, theta in ((0.0, 0.0), (-0.5, 1.0), (0.0, 1.0)):
        p = DirichletParams(eta, theta)
        vals = [log_weighted_zeta(p, s, rel_tol=1e-10) for s in (1.5, 2.0, 3.0, 5.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


def test_singular_prediction_examples():
    assert zeta_singular_prediction(DirichletParams(0, 0), 1.01) == pytest.approx(100.0, rel=1e-12)
    assert zeta_singular_prediction(DirichletParams(0, 1), 1.01) == pytest.approx(
        math.log(100.0), rel=1e-12
    )
    assert zeta_singular_prediction(DirichletParams(0.5, 0), 1.01) == pytest.approx(
        math.gamma(1.5) * 0.01**-1.5, rel=1e-12
    )
    with pytest.raises(DomainError):
        zeta_singular_prediction(DirichletParams(0, 0), 1.6)


@pytest.mark.parametrize(
    "p",
    [
        DirichletParams(200, 0),  # Gamma(201) overflows: a bare OverflowError before
        DirichletParams(0, 300.5),  # 0.01^299.5 Gamma(-299.5) underflows: a silent 0.0 before
        DirichletParams(0, 300),  # 1.0 / 299!: a bare "int too large to convert" before
    ],
    ids=str,
)
def test_singular_prediction_past_the_double_range_is_a_numeric_error(p):
    with pytest.raises(NumericError, match="past the double range"):
        zeta_singular_prediction(p, 1.01)


def test_singular_model_convergence():
    # ratio -> 1 for pairs whose singular part dominates
    for eta, theta in ((0.0, 0.0), (0.0, 1.0), (0.5, 0.0)):
        p = DirichletParams(eta, theta)
        devs = []
        for d in (1e-2, 1e-3, 1e-4):
            ratio = log_weighted_zeta(p, 1.0 + d, rel_tol=1e-8) / zeta_singular_prediction(
                p, 1.0 + d
            )
            devs.append(abs(ratio - 1.0))
        assert devs[2] < devs[1] < devs[0]
        assert devs[2] <= 0.20


def test_singular_model_difference_form():
    # theta - eta = 1.5: the singular term is a vanishing correction around
    # the finite limit, so the model applies to the difference.
    p = DirichletParams(-0.5, 1.0)
    limit = log_weighted_zeta(p, 1.0 + 1e-8, rel_tol=1e-9)
    devs = []
    for d in (1e-2, 1e-3, 1e-4):
        pred = zeta_singular_prediction(p, 1.0 + d)
        devs.append(abs((log_weighted_zeta(p, 1.0 + d, rel_tol=1e-9) - limit) / pred - 1.0))
    assert devs[2] < devs[0]
    assert devs[2] <= 0.20


# ---------------------------------------------------------------------------
# Factorial Dirichlet sums
# ---------------------------------------------------------------------------


def test_factorial_dirichlet_checkpoints():
    assert factorial_dirichlet(1.0, rel_tol=1e-13) == pytest.approx(math.e, abs=1e-12)
    assert factorial_dirichlet(50.0, rel_tol=1e-13) == pytest.approx(2.0 + 2.0**-50, rel=1e-12)
    with pytest.raises(DomainError):
        factorial_dirichlet(0.0)


def test_factorial_dirichlet_origin_asymptotics():
    scaled = []
    for s in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
        v = factorial_dirichlet(s, rel_tol=1e-7)
        scaled.append(s * v * math.log(1.0 / s))
    # calibrated window: the scaled value is 1.6225 at s = 1e-2 and decays
    # logarithmically toward 1
    assert 0.5 <= scaled[0] <= 1.7
    devs = [abs(x - 1.0) for x in scaled]
    assert all(b < a for a, b in zip(devs, devs[1:]))


def _direct_factorial_dirichlet(s):
    """Sum of exp(-s lgamma(n+1)) over n >= 0, each block of 2^18 terms by math.fsum."""
    from scipy.special import gammaln

    parts, n = [], 0
    while True:
        terms = np.exp(-s * gammaln(np.arange(n, n + 2**18, dtype=np.float64) + 1.0))
        parts.append(math.fsum(terms))
        n += 2**18
        if terms[-1] < 1e-30:  # what is left is below 1e-30 / (1 - (n+1)^-s)
            return math.fsum(parts)


@pytest.mark.parametrize("s", [1e-5, 1e-6])
def test_factorial_dirichlet_small_s_against_direct_sum(s):
    assert factorial_dirichlet(s, rel_tol=1e-12) == pytest.approx(
        _direct_factorial_dirichlet(s), rel=1e-12, abs=0.0
    )


@pytest.mark.parametrize("s", [1e-8, 1e-10, 1e-12])
def test_factorial_dirichlet_small_s_is_fast(s):
    t0 = time.perf_counter()
    v = factorial_dirichlet(s, rel_tol=1e-12)
    assert time.perf_counter() - t0 < 0.5
    assert 1.0 < s * v * math.log(1.0 / s) < 1.3


def test_factorial_dirichlet_continuous_across_head_switch(monkeypatch):
    import mathieu_series.dirichlet as dirichlet

    starts = []
    real_tail = dirichlet.euler_maclaurin_tail

    def spy(log_f, start, *args, **kwargs):
        starts.append(start)
        return real_tail(log_f, start, *args, **kwargs)

    monkeypatch.setattr(dirichlet, "euler_maclaurin_tail", spy)

    def uses_tail(s):
        starts.clear()
        factorial_dirichlet(s, rel_tol=1e-12)
        return bool(starts)

    # bisect to where the head alone stops certifying
    lo, hi = 1e-4, 1e-3
    assert uses_tail(lo) and not uses_tail(hi)
    while hi / lo - 1.0 > 1e-9:
        mid = math.sqrt(lo * hi)
        if uses_tail(mid):
            lo = mid
        else:
            hi = mid
    with_tail = factorial_dirichlet(lo, rel_tol=1e-12)
    head_only = factorial_dirichlet(hi, rel_tol=1e-12)
    assert with_tail == pytest.approx(_direct_factorial_dirichlet(lo), rel=1e-12, abs=0.0)
    assert head_only == pytest.approx(_direct_factorial_dirichlet(hi), rel=1e-12, abs=0.0)
    # d log eta / d log s is about -0.9 here
    assert abs(with_tail / head_only - 1.0) < 1e-8


def test_factorial_dirichlet_unreachable_tolerance_raises():
    t0 = time.perf_counter()
    with pytest.raises(MathieuError):
        factorial_dirichlet(1e-8, rel_tol=1e-15)
    assert time.perf_counter() - t0 < 1.0


def test_factorial_dirichlet_monotone():
    vals = [factorial_dirichlet(s, rel_tol=1e-12) for s in (0.5, 1.0, 2.0, 5.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_log_factorial_dirichlet_first_term_dominance():
    v = log_factorial_dirichlet(40.0, rel_tol=1e-8)
    assert v == pytest.approx(math.log(2.0) ** -40.0, rel=1e-3)


def test_log_factorial_dirichlet_past_the_double_range_raises():
    # (log 2)^-2000 is ~2e318: this used to return inf
    with pytest.raises(NumericError, match="not a normal double"):
        log_factorial_dirichlet(2000.0)


@given(st.floats(min_value=-2.0, max_value=4.0))
@settings(max_examples=30, deadline=None)
def test_log_factorial_dirichlet_is_normal_or_raises(log10_s_minus_1):
    try:
        value = log_factorial_dirichlet(1.0 + 10.0**log10_s_minus_1)
    except MathieuError:
        return
    assert math.isfinite(value) and value >= sys.float_info.min, value


def test_log_factorial_dirichlet_against_direct_sum():
    lf = np.cumsum(np.log(np.arange(2, 10**7, dtype=float)))
    oracle = float(np.sum(np.exp(-2.0 * np.log(lf))))
    v = log_factorial_dirichlet(2.0, rel_tol=1e-10)
    assert v == pytest.approx(oracle, rel=1e-7)
    with pytest.raises(DomainError):
        log_factorial_dirichlet(1.0)


@pytest.mark.parametrize("s", [1.05, 1.5])
def test_log_factorial_dirichlet_slow_tail_against_mpmath(s):
    # near s = 1 the summand decays like e^(-(s-1) u) in u = log x, so the
    # tail integral must run far past any fixed cutoff. Reference: a direct
    # head below N, then Euler-Maclaurin from N with the integral from
    # mpmath at 20 digits (the rest past u = log N + 3e4 is below e^-1000).
    n_cut = 1000
    f = lambda x: mpmath.loggamma(x + 1) ** (-s)
    a = mpmath.log(n_cut)
    with mpmath.workdps(20):
        edges = [a, a + 10, a + 100, a + 1e3, a + 1e4, a + 3e4]
        tail_integral = mpmath.quad(lambda u: mpmath.exp(u) * f(mpmath.exp(u)), edges)
        ref = (
            math.fsum(float(f(n)) for n in range(2, n_cut))
            + float(tail_integral)
            + float(f(n_cut)) / 2
            - float(mpmath.diff(f, n_cut)) / 12
        )
    assert log_factorial_dirichlet(s, rel_tol=1e-10) == pytest.approx(ref, rel=1e-10)


def test_log_factorial_dirichlet_near_one_vs_majorant_series():
    # The split against sum (n log n - n)^(-s) isolates the singularity at
    # s = 1: the difference of the two partial sums converges to a finite
    # limit while each sum grows. Checked as near-constancy of the
    # difference while the singular part doubles.
    n = np.arange(3, 10**6, dtype=float)
    lf = np.cumsum(np.log(np.arange(2, 10**6, dtype=float)))[1:]

    def difference(s):
        direct = float(np.sum(np.exp(-s * np.log(lf))))
        majorant = float(np.sum(np.exp(-s * np.log(n * np.log(n) - n))))
        return majorant - direct

    d_far, d_near = difference(1.1), difference(1.02)
    singular_growth = log_factorial_dirichlet(1.02, rel_tol=1e-8) / log_factorial_dirichlet(
        1.1, rel_tol=1e-8
    )
    assert singular_growth > 1.25  # the sums themselves grow toward s = 1
    assert abs(d_near / d_far - 1.0) <= 0.12  # the difference barely moves


# ---------------------------------------------------------------------------
# Transform frames
# ---------------------------------------------------------------------------


def test_transform_frame_values():
    f1 = transform_frame(powerlog=PowerLogParams(1, 2, 0, 0, 1))
    assert f1.shat == 2.0 and f1.map_eta == 0.0 and f1.map_theta == 0.0
    f2 = transform_frame(factorial=FactorialParams(1, 2, 1))
    assert f2.stilde == 3.0
    f3 = transform_frame(powerlog=PowerLogParams(1, 2, 1, 1, 1))
    assert f3.map_eta == 0.5 and f3.map_theta == 0.5
    with pytest.raises(ParameterError):
        transform_frame()
    with pytest.raises(ParameterError):
        transform_frame(
            powerlog=PowerLogParams(1, 2, 0, 0, 1), factorial=FactorialParams(1, 2, 1)
        )


def test_frame_arithmetic_exact_on_representable_inputs():
    # exact round trip where the subtraction introduces no rounding
    for alpha, beta, mu in [(1.0, 2.0, 1.0), (1.0, 1.0, 2.0), (3.0, 2.0, 2.0), (1.0, 4.0, 1.0)]:
        frame = transform_frame(powerlog=PowerLogParams(alpha, beta, 0.0, 0.0, mu))
        assert frame.shat + 2.0 * (alpha + 1.0) / beta == 2.0 * (mu + 1.0)


@given(
    st.floats(min_value=0.25, max_value=8.0),
    st.floats(min_value=0.25, max_value=8.0),
    st.floats(min_value=0.0, max_value=8.0),
)
@settings(max_examples=100, deadline=None)
def test_frame_arithmetic_property(alpha, beta, mu):
    if not alpha - beta * (mu + 1.0) < -1.0:
        return
    p = PowerLogParams(alpha, beta, 0.0, 0.0, mu)
    frame = transform_frame(powerlog=p)
    target = 2.0 * (mu + 1.0)
    assert frame.shat + 2.0 * (alpha + 1.0) / beta == pytest.approx(target, rel=4e-16)
    assert frame.shat < 2.0 * mu + 2.0


# ---------------------------------------------------------------------------
# Mellin closed forms
# ---------------------------------------------------------------------------


def _plain_mathieu_sum(r, alpha, beta, mu, n_max=200_000):
    r2 = r * r
    n = np.arange(2, n_max, dtype=float)
    partial = float(np.sum(n**alpha / (n**beta + r2) ** (mu + 1)))
    # exact integral of the pure-power majorant/minorant sandwich midpoint
    tail = 0.5 / ((n_max - 0.5) ** 2 + r2)  # alpha=1, beta=2, mu=1 closed form
    return partial + tail


def test_mellin_powerlog_against_quadrature():
    p = PowerLogParams(1, 2, 0, 0, 1)
    s = 1.0

    def series_at(r):
        return _plain_mathieu_sum(r, 1, 2, 1)

    inner, _ = quad(lambda r: series_at(r) * r ** (s - 1.0), 0.0, 1.0, epsabs=0, epsrel=1e-9, limit=200)
    r_max = 2e6
    outer, _ = quad(
        lambda u: series_at(math.exp(u)) * math.exp(s * u),
        0.0,
        math.log(r_max),
        epsabs=0,
        epsrel=1e-9,
        limit=300,
    )
    # beyond r_max the sum is 0.5 r^-2 (1 + O(r^-2)); integrate that exactly
    far = 0.5 * r_max ** (s - 2.0) / (2.0 - s)
    oracle = inner + outer + far
    assert mellin_powerlog(p, s, rel_tol=1e-9) == pytest.approx(oracle, rel=1e-6)


def test_mellin_powerlog_singularity_constant():
    # value * (shat - s)^c2 -> c3 as s -> shat
    p = PowerLogParams(1, 2, 0, 0, 1)
    frame = transform_frame(powerlog=p)
    c2 = 1.0  # -delta(alpha+1)/beta + gamma + 1 at gamma = delta = 0
    c1 = math.gamma(1.0) * (0.5 * p.beta) ** (-1.0)
    c3 = (
        c1
        * math.gamma(p.mu + 1.0 - frame.shat / 2.0)
        * math.gamma(frame.shat / 2.0)
        / (2.0 * math.gamma(p.mu + 1.0))
    )
    s = frame.shat - 1e-3
    val = mellin_powerlog(p, s, rel_tol=1e-10)
    assert val * (frame.shat - s) ** c2 == pytest.approx(c3, rel=0.15)


@pytest.mark.parametrize(
    "mellin, p",
    [
        (mellin_powerlog, PowerLogParams(1, 2, 0, 0, 1)),
        (mellin_factorial, FactorialParams(1, 2, 1)),
    ],
    ids=["powerlog", "factorial"],
)
@pytest.mark.parametrize("s", [5e-324, 1e-320])
def test_mellin_past_the_double_range_is_a_numeric_error(mellin, p, s):
    # Gamma(s/2) ~ 2/s passes the double range; at 5e-324, s/2 rounds to 0 and
    # lgamma(0) raised a bare ValueError, at 1e-320 exp raised an OverflowError
    with pytest.raises(NumericError, match=f"{mellin.__name__} value at s={s} is inf"):
        mellin(p, s)


def test_mellin_powerlog_monotone_in_gamma():
    lo = mellin_powerlog(PowerLogParams(1, 2, 0.0, 0, 1), 1.0, rel_tol=1e-9)
    hi = mellin_powerlog(PowerLogParams(1, 2, 0.5, 0, 1), 1.0, rel_tol=1e-9)
    assert hi > lo
    with pytest.raises(DomainError):
        mellin_powerlog(PowerLogParams(1, 2, 0, 0, 1), 2.5)


def test_mellin_factorial_against_quadrature():
    p = FactorialParams(1, 2, 1)
    s = 1.0

    def series_at(r):
        return eval_factorial(p, r, rel_tol=1e-12).value

    inner, _ = quad(lambda r: series_at(r) * r ** (s - 1.0), 0.0, 1.0, epsabs=0, epsrel=1e-10, limit=200)
    r_max = 2000.0
    outer, _ = quad(
        lambda u: series_at(math.exp(u)) * math.exp(s * u),
        0.0,
        math.log(r_max),
        epsabs=0,
        epsrel=1e-10,
        limit=300,
    )
    # S(r) = c r^-3 (1 + o(1)) past r_max; bound the remainder empirically
    c_emp = series_at(r_max) * r_max**3
    far = c_emp * r_max ** (s - 3.0) / (3.0 - s)
    oracle = inner + outer + far
    assert mellin_factorial(p, s, rel_tol=1e-10) == pytest.approx(oracle, rel=1e-6)


def test_mellin_factorial_blowup_and_mu_dependence():
    p = FactorialParams(1, 2, 1)
    stilde = transform_frame(factorial=p).stilde
    near = mellin_factorial(p, stilde - 2.0 / (p.beta * math.log(1e6)), rel_tol=1e-10)
    mid = mellin_factorial(p, stilde / 2.0, rel_tol=1e-10)
    assert math.isfinite(near) and near > mid

    lo_mu = mellin_factorial(FactorialParams(1, 2, 1), 1.0, rel_tol=1e-10)
    hi_mu = mellin_factorial(FactorialParams(1, 2, 2), 1.0, rel_tol=1e-10)
    assert hi_mu < lo_mu  # larger mu shrinks every summand
    with pytest.raises(DomainError):
        mellin_factorial(p, stilde)


# ---------------------------------------------------------------------------
# Saddle-point bound
# ---------------------------------------------------------------------------


def test_saddle_bound_dominates():
    for prm, r in [((1, 2, 1), 1e3), ((0, 1, 1), 1e3), ((0.5, 1, 1), 1e6)]:
        p = FactorialParams(*prm)
        assert saddle_point_bound(p, r) >= eval_factorial(p, r, rel_tol=1e-12).value


def test_saddle_bound_scaling():
    p = FactorialParams(1, 2, 1)
    stilde = transform_frame(factorial=p).stilde
    scaled = []
    for k in range(3, 13):
        r = 10.0**k
        b = saddle_point_bound(p, r)
        scaled.append(b * math.exp(stilde * math.log(r)) * math.log(math.log(r)) / math.log(r))
    assert min(scaled) >= 1.0 and max(scaled) <= 2.0
    assert max(scaled) / min(scaled) <= 1.2


def test_saddle_bound_domain():
    with pytest.raises(DomainError):
        saddle_point_bound(FactorialParams(1, 2, 1), 5.0)


def _gamma_line_exact(mu, sigma):
    """(1/pi) times the integral over y >= 0 of |Gamma(mu+1-z) Gamma(z)| / (2 Gamma(mu+1)),
    z = (sigma + iy)/2, by mpmath at 30 digits. The breaks scale with the
    nearer gamma pole, as the peak at y = 0 is that narrow; mpmath's own
    error estimate must be below 1e-16 of the value."""
    with mpmath.workdps(30):
        mu, sigma = mpmath.mpf(mu), mpmath.mpf(sigma)
        log_norm = mpmath.loggamma(mu + 1) + mpmath.log(2)

        def f(y):
            z = mpmath.mpc(sigma, y) / 2
            return mpmath.exp(mpmath.re(mpmath.loggamma(mu + 1 - z) + mpmath.loggamma(z)) - log_norm)

        near = min(mu + 1 - sigma / 2, sigma / 2)
        breaks = [0, near, 10 * near, 1, 8, mpmath.inf]
        value, err = mpmath.quad(f, breaks, maxdegree=4, error=True)
        assert err <= 1e-16 * value
        return value / mpmath.pi


def _thm15_pairs():
    # the (mu, sigma) of every saddle_point_bound in verify thm15
    pairs = set()
    for prm in ((1, 2, 1), (0.5, 1, 1), (0, 1, 1)):
        stilde = transform_frame(factorial=FactorialParams(*prm)).stilde
        pairs |= {(prm[2], stilde - 1.0 / math.log(10.0**k)) for k in range(3, 13)}
    return sorted(pairs)


@pytest.mark.parametrize(
    "mu, sigma",
    [
        *_thm15_pairs(),
        (1.0, 4.0 - 1.0 / math.log(1e300)),  # alpha = 0: mu+1-sigma/2 = 7e-4, by the pole
        (0.0, 0.3),
        (0.5, 0.05),
        (2.5, 5.9),
    ],
)
def test_gamma_line_integral_against_mpmath(mu, sigma):
    exact = _gamma_line_exact(mu, sigma)
    [got] = _gamma_line_integral([(mu, sigma)])
    assert abs(got - exact) <= 1e-12 * exact


def test_gamma_line_integrals_in_lockstep_equal_each_alone():
    # log_abs_gamma shifts the real parts up to >= 8: by 8 on thm15's
    # points, by 7 at (5, 3) and by none at (20, 15); nodes of each shift
    # take it alone, so every value is == its one-point call
    points = [*_thm15_pairs()[:4], (5.0, 3.0), (20.0, 15.0), (0.5, 0.05), (5.0, 2.0)]
    together = _gamma_line_integral(points)
    assert together == [_gamma_line_integral([point])[0] for point in points]


def test_factorial_dirichlet_at_the_top_of_the_double_range_is_two():
    # -s log n! overflowed in the head: a numpy RuntimeWarning under the error filter
    assert factorial_dirichlet(1.7e308) == 2.0


@pytest.mark.parametrize(
    "sum_at, shown",
    [
        (lambda s: log_weighted_zeta(DirichletParams(0, 0), s), "0.0"),
        (lambda s: log_factorial_dirichlet(s), "inf"),  # (log 2)^-s alone is past the range
    ],
    ids=["log_weighted_zeta", "log_factorial_dirichlet"],
)
def test_dirichlet_sum_at_huge_s_is_decided_by_its_head(sum_at, shown):
    # the Euler-Maclaurin derivatives overflowed: a RuntimeWarning under the error
    # filter, else "integrand is nan at x = 9.2", which named the wrong cause
    with pytest.raises(NumericError, match=f"value at s=1e\\+150 is {shown}, not a normal double"):
        sum_at(1e150)


@pytest.mark.parametrize(
    "sum_at, who, at, shown",
    [
        (lambda: log_weighted_zeta(DirichletParams(0, 0), 1e60), "log_weighted_zeta", 1e60, 0.0),
        # (log n)^2000 / n^2 is past the double range from n ~ 10 on: an inf head
        (lambda: log_weighted_zeta(DirichletParams(0, -1000), 2.0), "log_weighted_zeta", 2.0,
         math.inf),
        (lambda: log_factorial_dirichlet(1e300), "log_factorial_dirichlet", 1e300, math.inf),
    ],
    ids=["zeta-huge-s", "zeta-inf-head", "log-factorial-huge-s"],
)
def test_dirichlet_sum_outside_the_normal_doubles_names_its_value(sum_at, who, at, shown):
    message = (
        f"{who} value at s={at} is {shown}, not a normal double "
        "(below the smallest normal double or past the double range)"
    )
    with pytest.raises(NumericError) as info:
        sum_at()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "give_up, cutoff",
    [
        (lambda: log_weighted_zeta(DirichletParams(0, 0), 1.001, 1e-15), 640_000),
        (lambda: log_factorial_dirichlet(1.01, 1e-15), 1_280_000),
    ],
    ids=["log_weighted_zeta", "log_factorial_dirichlet"],
)
def test_the_cutoff_walk_names_the_last_cutoff_it_tried(give_up, cutoff):
    # N, 4N, 16N and 64N were tried, and the message named 256N
    with pytest.raises(NumericError, match=f"rel_tol=1e-15 at s=.* \\(cutoff {cutoff}\\)$"):
        give_up()
