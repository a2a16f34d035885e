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
