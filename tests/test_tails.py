"""Euler-Maclaurin tail engine and the jets behind it, against mpmath oracles."""

import math

import mpmath
import numpy as np
import pytest

from mathieu_series.tails import Jet, euler_maclaurin_tail


def test_jet_derivatives_of_log1p():
    # log(1 + x) around x = 3, step scaled by x: coefficient k is (-1)^(k+1) (3/4)^k / k
    jet = np.logaddexp(Jet.log_variable(math.log(3.0), 5), 0.0)
    expected = [math.log(4.0)] + [(-1.0) ** (k + 1) * 0.75**k / k for k in range(1, 6)]
    assert jet.c == pytest.approx(expected, rel=1e-14)


def test_jet_exp_log_roundtrip():
    jet = Jet([0.3, -1.2, 0.5, 2.0, -0.7])
    assert np.log(np.exp(jet)).c == pytest.approx(jet.c, rel=1e-14)


@pytest.mark.parametrize("s", [2.0, 3.0])
@pytest.mark.parametrize("start", [10, 100])
def test_zeta_tail_within_bound(s, start):
    # sum over n >= N of n^-s is the Hurwitz zeta value zeta(s, N)
    value, bound = euler_maclaurin_tail(
        lambda lx: -s * lx, start, start ** (1.0 - s) / (s - 1.0), 0.0
    )
    with mpmath.workdps(40):
        oracle = mpmath.zeta(s, start)
        error = abs(mpmath.mpf(value) - oracle)
    assert 0.0 < bound < 1e-6 * value
    assert error <= bound


def test_tail_bound_adds_integral_error():
    value, bound = euler_maclaurin_tail(lambda lx: -2.0 * lx, 100, 0.01, 0.0)
    value_e, bound_e = euler_maclaurin_tail(lambda lx: -2.0 * lx, 100, 0.01, 1e-9)
    assert value_e == value
    assert bound_e == pytest.approx(bound + 1e-9, rel=1e-12)


# Values of the sum over n >= N of n^-s from the engine before it took a finite end.
_ZETA_TAILS = {
    (2.0, 10): (0.10516633333333335, 4.689545166133792e-09),
    (2.0, 100): (0.010050166663333334, 4.689545166133643e-16),
    (3.0, 10): (0.005524916666666667, 1.6409565780877472e-09),
    (3.0, 100): (5.050249991666667e-05, 1.6409565780877706e-17),
}


@pytest.mark.parametrize("s, start", sorted(_ZETA_TAILS))
def test_infinite_tail_unchanged(s, start):
    value, bound = euler_maclaurin_tail(
        lambda lx: -s * lx, start, start ** (1.0 - s) / (s - 1.0), 0.0
    )
    assert value == _ZETA_TAILS[s, start][0]
    assert bound == pytest.approx(_ZETA_TAILS[s, start][1], rel=1e-9)


@pytest.mark.parametrize("start, stop", [(10, 1000), (100, 100_000), (10, 11)])
def test_finite_segment_inverse_squares(start, stop):
    value, bound = euler_maclaurin_tail(
        lambda lx: -2.0 * lx, start, 1.0 / start - 1.0 / stop, 0.0, stop=stop
    )
    exact = math.fsum(1.0 / (n * n) for n in range(start, stop + 1))
    assert 0.0 < bound < 1e-6 * exact
    assert abs(value - exact) <= bound


def test_finite_segment_factorial_powers():
    # (n!)^(-s) for 2e4 <= n <= 2e5 at s = 1e-5: the summand falls from e^-1.8 to e^-22
    from scipy.integrate import quad

    from mathieu_series.special import log_log_factorial

    s, start, stop = 1e-5, 20_000, 200_000

    def log_f(lx):
        return -s * np.exp(log_log_factorial(lx))

    integral, err = quad(
        lambda u: math.exp(u + log_f(u)), math.log(start), math.log(stop), epsabs=0.0, epsrel=1e-13
    )
    value, bound = euler_maclaurin_tail(log_f, start, integral, err, stop=stop)
    exact = math.fsum(math.exp(-s * math.lgamma(n + 1.0)) for n in range(start, stop + 1))
    assert 0.0 < bound < 1e-12 * exact
    assert abs(value - exact) <= bound
