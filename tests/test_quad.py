"""The Gauss-Kronrod rule ``tails.quad`` against mpmath quadrature at 30 digits."""

import functools
import math

import mpmath
import numpy as np
import pytest
from scipy.special import loggamma

from mathieu_series import series
from mathieu_series.errors import NumericError
from mathieu_series.series import PowerLogParams
from mathieu_series.special import log_log_factorial
from mathieu_series.tails import _gk21_rule, quad

_GK_NODES, _, _GK_WEIGHTS = _gk21_rule()


def _agrees(integrand, log_f_mp, a, b, oracle_points=None):
    """quad over [a, b] (b may be inf) within 1e-13 of mpmath at 30 digits,
    with an error estimate that covers its actual error.

    mpmath integrates exp(log_f_mp) over ``oracle_points`` when given
    (breaks around a peak, a finite end past which the integrand is zero in
    30 digits), else over [a, b].
    """
    value, err = quad(integrand, a, b, epsrel=1e-13, limit=400)
    with mpmath.workdps(30):
        exact = mpmath.quad(lambda x: mpmath.exp(log_f_mp(x)), oracle_points or [a, b])
        actual = float(abs(mpmath.mpf(value) - exact))
        assert actual <= 1e-13 * float(exact)
        assert actual <= err
    assert isinstance(value, float) and isinstance(err, float)


def _powerlog_log_summand_mp(p, log_r2):
    def log_f(u):
        return (
            u
            + p.alpha * u
            + p.gamma * mpmath.log(u)
            - (p.mu + 1.0) * mpmath.log(mpmath.exp(p.beta * u) * u**p.delta + mpmath.exp(log_r2))
        )

    return log_f


@pytest.mark.parametrize(
    "params, r",
    [((1, 2, 0, 0, 1), 1e3), ((1, 2, 1, 1, 1), 1e5), ((2, 3, -1, 2, 1), 1e2)],
)
def test_powerlog_tail_segments(params, r):
    # the segments of the power-log tail integral from n = 4098: up to the
    # summand peak, up to where r^2 is 1e-12 of b, and on to infinity
    p = PowerLogParams(*params)
    log_r2 = 2.0 * math.log(r)
    cols = series._powerlog_cols(p)
    log_b = functools.partial(series._powerlog_log_b, *cols)
    u0 = math.log(4098)
    u_peak = series._solve_b_equals(log_b, log_r2, u0)
    u_far = series._solve_b_equals(log_b, log_r2 + math.log(1e12), u0)

    def integrand(u):
        return np.exp(u + series._powerlog_log_summand(*cols, log_r2, u))

    edges = [u0, u_peak, u_far, math.inf]
    for a, b in zip(edges, edges[1:]):
        if b > a:
            _agrees(integrand, _powerlog_log_summand_mp(p, log_r2), a, b)


def test_slow_log_factorial_tail():
    # (log x!)^(-1.05) from x = 20000 on: in u = log x it decays like e^(-0.05 u)
    s = 1.05

    def log_f_mp(u):
        return u - s * mpmath.log(mpmath.loggamma(mpmath.exp(u) + 1))

    _agrees(lambda u: np.exp(u - s * log_log_factorial(u)), log_f_mp, math.log(20_000), math.inf)


@pytest.mark.parametrize("mu, sigma", [(1.0, 1.9), (2.0, 0.3), (0.5, 2.5)])
def test_gamma_line_integrand(mu, sigma):
    # |Gamma(mu+1-z) Gamma(z)| / (2 Gamma(mu+1)) on z = (sigma + iy)/2, as in
    # dirichlet._gamma_line_integral
    log_norm = math.lgamma(mu + 1.0) + math.log(2.0)

    def integrand(y):
        z = 0.5 * (sigma + 1j * y)
        return np.exp(loggamma(mu + 1.0 - z).real + loggamma(z).real - log_norm)

    def log_f_mp(y):
        z = 0.5 * (sigma + 1j * y)
        return mpmath.re(mpmath.loggamma(mu + 1.0 - z) + mpmath.loggamma(z)) - log_norm

    _agrees(integrand, log_f_mp, 0.0, 64.0)


def test_sharply_peaked_summand():
    # x^k e^(-x) scaled to peak at 1, in u = log x: width ~ 1/sqrt(k) = 0.05
    # around u = log k, on a segment of length 20 and on one to infinity
    k = 400.0
    log_k = math.log(k)

    def integrand(u):
        with np.errstate(over="ignore"):  # exp(u) overflows far out, where f is 0
            return np.exp(k * (u - log_k) - np.exp(u) + k)

    def log_f_mp(u):
        return k * (u - log_k) - mpmath.exp(u) + k

    around = [log_k - 1.0, log_k, log_k + 1.0]
    _agrees(integrand, log_f_mp, 0.0, 20.0, [0.0, *around, 20.0])
    _agrees(integrand, log_f_mp, 1.0, math.inf, [1.0, *around, 12.0])


def test_nodes_and_weights_are_the_gauss_kronrod_pair():
    # on [0, 2]: Kronrod exact through degree 31, Gauss through 19
    for k in range(32):
        exact = 2.0 ** (k + 1) / (k + 1)
        kronrod, gauss = _GK_NODES**k @ _GK_WEIGHTS
        assert kronrod == pytest.approx(exact, rel=1e-14)
        if k < 20:
            assert gauss == pytest.approx(exact, rel=1e-14)
    assert (_GK_NODES - 1.0) ** 20 @ _GK_WEIGHTS[:, 1] != pytest.approx(2.0 / 21, rel=1e-8)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_integrand_value_raises(bad):
    def integrand(x):
        return np.where(np.abs(x - 0.7) < 0.05, bad, 1.0)

    with pytest.raises(NumericError, match="integrand is"):
        quad(integrand, 0.0, 1.0)
    with pytest.raises(NumericError, match="integrand is"):
        quad(lambda u: np.where(u > 3.0, bad, np.exp(-u)), 0.0, math.inf)


def test_one_integrand_call_per_round():
    calls = []

    def integrand(u):
        calls.append(u.size)
        return np.exp(-u) * np.cos(u) ** 2

    value, err = quad(integrand, 0.0, math.inf, epsrel=1e-13)
    assert value == pytest.approx(0.6, rel=1e-13)
    assert err <= 1e-13 * value
    assert len(calls) <= 8
    assert all(size % 21 == 0 for size in calls)
