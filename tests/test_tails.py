"""Tail integrals, the Euler-Maclaurin tail engine and the jets behind it,
against mpmath oracles."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mathieu_series._core import _raise_first
from mathieu_series.errors import DomainError, NumericError
from mathieu_series.series import PowerLogParams, _powerlog_cols, _powerlog_log_summand
from mathieu_series.special import log_log_factorial
from mathieu_series.tails import (
    EM_ORDER,
    Jet,
    euler_maclaurin_tail,
    exp_poly_tail,
    powerlog_tail_bound,
    quad,
)


def _em_tail(log_f, start, integral, integral_err, breaks=(), stop=None):
    """The Euler-Maclaurin tail of the one summand log_f(lx): its (value, bound), or raises."""
    one = euler_maclaurin_tail(
        lambda lx, k: log_f(lx), start, [integral], [integral_err], [breaks], stop
    )
    return _raise_first(one)[0]


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
    value, bound = _em_tail(lambda lx: -s * lx, start, start ** (1.0 - s) / (s - 1.0), 0.0)
    with mpmath.workdps(40):
        oracle = mpmath.zeta(s, start)
        error = abs(mpmath.mpf(value) - oracle)
    assert 0.0 < bound < 1e-6 * value
    assert error <= bound


def test_tail_bound_adds_integral_error():
    value, bound = _em_tail(lambda lx: -2.0 * lx, 100, 0.01, 0.0)
    value_e, bound_e = _em_tail(lambda lx: -2.0 * lx, 100, 0.01, 1e-9)
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
    value, bound = _em_tail(lambda lx: -s * lx, start, start ** (1.0 - s) / (s - 1.0), 0.0)
    recorded_value, recorded_bound = _ZETA_TAILS[s, start]
    assert value == recorded_value
    # The bound is (2 - 2^-5) |B_6| / 6! times the remainder integral of
    # |f^(6)|, exact here: s (s+1) ... (s+4) N^(-s-5), taken by quadrature
    # at epsrel 0.1 with the error estimate added. So both bounds cover the
    # exact one and exceed it by at most twice that tolerance: they agree
    # within the sum of their quadrature error estimates.
    exact = (2.0 - 2.0**-5) / 42.0 / 720.0 * math.prod(s + k for k in range(5)) * start ** (-s - 5)
    for b in (bound, recorded_bound):
        assert exact <= b <= exact * (1.0 + 2.0 * 0.1)


@pytest.mark.parametrize("start, stop", [(10, 1000), (100, 100_000), (10, 11)])
def test_finite_segment_inverse_squares(start, stop):
    value, bound = _em_tail(lambda lx: -2.0 * lx, start, 1.0 / start - 1.0 / stop, 0.0, stop=stop)
    exact = math.fsum(1.0 / (n * n) for n in range(start, stop + 1))
    assert 0.0 < bound < 1e-6 * exact
    assert abs(value - exact) <= bound


def test_finite_segment_factorial_powers():
    # (n!)^(-s) for 2e4 <= n <= 2e5 at s = 1e-5: the summand falls from e^-1.8 to e^-22
    from scipy.integrate import quad

    s, start, stop = 1e-5, 20_000, 200_000

    def log_f(lx):
        return -s * np.exp(log_log_factorial(lx))

    integral, err = quad(
        lambda u: math.exp(u + log_f(u)), math.log(start), math.log(stop), epsabs=0.0, epsrel=1e-13
    )
    value, bound = _em_tail(log_f, start, integral, err, stop=stop)
    exact = math.fsum(math.exp(-s * math.lgamma(n + 1.0)) for n in range(start, stop + 1))
    assert 0.0 < bound < 1e-12 * exact
    assert abs(value - exact) <= bound


# ---------------------------------------------------------------------------
# Array-coefficient jets
# ---------------------------------------------------------------------------

_LOG2, _LOG3, _LOG5 = math.log(2.0), math.log(3.0), math.log(5.0)


def _powerlog_log_f(lx):
    cols = _powerlog_cols(PowerLogParams(2, 3, -1, 2, 1))
    return _powerlog_log_summand(*cols, 2.0 * math.log(1e3), lx)


def _smooth_log_f(log_a, log_b):
    return lambda u: log_a(u) - 2.0 * np.logaddexp(log_b(u), 2.0 * math.log(1e4))


# The summands whose jets the Euler-Maclaurin tail and the peak search take:
# the power-log summand, the thm12 and cor61 smooth forms (shifted, +5 and
# log-factorial sequences, at mu = 1, r = 1e4), the log-factorial summand
# itself, and factorial_dirichlet's x (n!)^(-s) at s = 1e-5.
_LOG_SUMMANDS = {
    "powerlog": _powerlog_log_f,
    "thm12-shifted": _smooth_log_f(
        lambda u: np.logaddexp(u, _LOG3) + np.log(np.logaddexp(u, _LOG2)),
        lambda u: 3.0 * u + np.log(np.logaddexp(u, 0.0)),
    ),
    "thm12-plus5": _smooth_log_f(lambda u: np.logaddexp(u, _LOG5), lambda u: 3.0 * u),
    "cor61": _smooth_log_f(log_log_factorial, lambda u: 3.0 * log_log_factorial(u)),
    "log_log_factorial": log_log_factorial,
    "factorial_dirichlet": lambda lx: -1e-5 * np.exp(log_log_factorial(lx)),
}


@pytest.mark.parametrize("name", sorted(_LOG_SUMMANDS))
def test_array_jet_matches_scalar_jets(name):
    # to the last bit: the Euler-Maclaurin tail takes its boundary terms
    # from the elements of the remainder's array jet
    log_f = _LOG_SUMMANDS[name]
    u = np.linspace(math.log(64.0), 40.0, 57)
    array_jet = log_f(Jet.log_variable(u, 6))
    for i, ui in enumerate(u.tolist()):
        assert array_jet.c[:, i].tolist() == log_f(Jet.log_variable(ui, 6)).c.tolist(), ui


def test_euler_maclaurin_jets_stay_where_array_and_scalar_jets_agree():
    # A scalar jet's coefficients are 1-D reduces, which numpy adds pairwise
    # from 8 terms on (order 7), while an array jet adds its rows in order;
    # the tail reads its boundary terms from array-jet elements and relies on
    # their equality with the scalar jets, which holds up to order 6.
    assert 2 * EM_ORDER <= 6


def test_array_jet_operations_in_either_order():
    u = np.array([1.0, 2.5, 7.0])
    jet = Jet.log_variable(u, 3)
    arr = np.array([0.5, -2.0, 3.0])
    for left, right in ((arr + jet, jet + arr), (arr * jet, jet * arr)):
        assert isinstance(left, Jet) and isinstance(right, Jet)
        for a, b in zip(left.c, right.c):
            assert np.array_equal(np.broadcast_to(a, u.shape), np.broadcast_to(b, u.shape))
    assert np.array_equal((arr - jet).c[0], arr - u)
    assert np.array_equal(np.logaddexp(arr, jet).c[0], np.logaddexp(u, arr))
    # a scalar jet combined with an array gives the array jet
    scalar = Jet.log_variable(2.5, 3)
    spread = arr * scalar + arr
    for k in range(4):
        for i in range(3):
            assert spread.c[k][i] == (arr[i] * scalar + arr[i]).c[k]


# ---------------------------------------------------------------------------
# Quadrature over breakpoints
# ---------------------------------------------------------------------------


@given(
    start=st.floats(-5.0, 30.0),
    width=st.floats(0.5, 40.0),
    cuts=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=4, unique=True),
    infinite=st.booleans(),
    peak=st.floats(-5.0, 60.0),
    epsrel=st.sampled_from([1e-13, 1e-10, 0.1]),
    limit=st.sampled_from([50, 400]),
)
@settings(max_examples=80, deadline=None)
def test_segments_are_the_one_segment_rule_in_lockstep(
    start, width, cuts, infinite, peak, epsrel, limit
):
    # a peak over a slow decay, as in the tail integrals and remainders
    def integrand(u):
        calls.append(u.size)
        return np.exp(-0.5 * (u - peak) ** 2) + np.exp(-0.1 * u - 0.02 * u * u)

    points = sorted({start + width * c for c in cuts} - {start, start + width})
    end = math.inf if infinite else start + width
    edges = [start, *points, end]
    calls = []
    alone, rounds = [], []
    for lo, hi in zip(edges, edges[1:]):
        alone.append(quad(integrand, lo, hi, epsrel=epsrel, limit=limit))
        rounds.append(len(calls))
        calls.clear()
    together = quad(integrand, start, end, epsrel=epsrel, limit=limit, points=points)
    assert together == alone
    assert len(calls) == max(rounds)  # one call per round, on every segment still refining


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_segments_name_a_non_finite_node(bad):
    def integrand(u):
        return np.where(np.abs(u - 2.5) < 0.3, bad, np.exp(-u))

    with pytest.raises(NumericError, match=r"integrand is \S+ at x = 2\.[2-8]"):
        quad(integrand, 0.0, math.inf, points=[1.0, 3.0])


@given(
    integrals=st.lists(
        st.tuples(
            st.floats(-5.0, 30.0),  # start
            st.floats(0.5, 40.0),  # width
            st.lists(st.floats(0.01, 0.99), max_size=3, unique=True),  # cuts
            st.booleans(),  # to infinity
            st.floats(-5.0, 60.0),  # the integral's parameter: where it peaks
        ),
        min_size=1,
        max_size=5,
    ),
    epsrel=st.sampled_from([1e-13, 1e-10, 0.1]),
    limit=st.sampled_from([50, 400]),
)
@settings(max_examples=60, deadline=None)
def test_integrals_are_the_one_integral_rule_in_lockstep(integrals, epsrel, limit):
    peaks = np.array([peak for *_, peak in integrals])

    def integrand(u, peak):
        calls.append(u.size)
        return np.exp(-0.5 * (u - peak) ** 2) + np.exp(-0.1 * u - 0.02 * u * u)

    starts, ends, points = [], [], []
    calls = []
    alone, rounds = [], []
    for start, width, cuts, infinite, peak in integrals:
        starts.append(start)
        ends.append(math.inf if infinite else start + width)
        points.append(sorted({start + width * c for c in cuts} - {start, start + width}))
        alone.append(
            quad(lambda u: integrand(u, peak), start, ends[-1], epsrel, limit, points[-1])
        )
        rounds.append(len(calls))
        calls.clear()
    together = quad(
        lambda u, k: integrand(u, peaks[k]), starts, ends, epsrel, limit, points=points
    )
    assert together == alone  # per integral, per segment
    assert len(calls) == max(rounds)  # one call per round, on every integral still refining
    if len(integrals) == 1 and not points[0]:  # as the one-integral call without ``points``
        one = quad(lambda u: integrand(u, peaks[0]), starts[0], ends[0], epsrel, limit)
        assert together == [[one]]


def test_an_integral_with_a_non_finite_node_drops_out_alone():
    bad = np.array([0.0, math.nan, 0.0])

    def integrand(u, k):
        return np.where(np.abs(u - 2.5) < 0.3, bad[k], 0.0) + np.exp(-u)

    [first, second, third] = quad(integrand, [0.0] * 3, [math.inf] * 3, points=[[1.0, 3.0]] * 3)
    one = quad(lambda u: np.exp(-u), 0.0, math.inf, points=[1.0, 3.0])
    assert first == third == one
    with pytest.raises(NumericError) as alone:
        quad(lambda u: integrand(u, 1), 0.0, math.inf, points=[1.0, 3.0])
    assert isinstance(second, NumericError) and str(second) == str(alone.value)


@pytest.mark.parametrize("stop", [None, 5000])
def test_euler_maclaurin_sums_in_lockstep(stop):
    # n^(-s) for three s at once, as the one-summand calls give them, each
    # with its own breaks; every round is one jet over all the summands
    s = np.array([2.0, 3.0, 2.5])
    start = 100
    end = math.inf if stop is None else stop
    integrals = [(start ** (1.0 - x) - end ** (1.0 - x)) / (x - 1.0) for x in s.tolist()]
    errs = [0.0, 1e-20, 1e-19]
    breaks = [(), (5.5,), (6.0, 7.0)]
    calls = []

    def log_f(lx, k):
        calls.append(k)
        return -s[k] * lx

    alone, rounds = [], []
    for j, (i, e, b) in enumerate(zip(integrals, errs, breaks)):
        alone.append(_em_tail(lambda lx: log_f(lx, j), start, i, e, b, stop=stop))
        rounds.append(len(calls))
        calls.clear()
    together = euler_maclaurin_tail(log_f, start, integrals, errs, breaks, stop=stop)
    assert together == alone
    assert all(type(t) is tuple for t in together)
    assert len(calls) == max(rounds)
    # the first round also takes the jets at the ends of every summand
    ends = 1 if stop is None else 2
    assert np.bincount(calls[0]).tolist() == [21 * (1 + len(b)) + ends for b in breaks]
    assert euler_maclaurin_tail(log_f, start, [], [], []) == []


def test_euler_maclaurin_keeps_an_error_to_its_summand():
    # from 1e4 to 2e4: n^-2, n^-2 e^(n/10), whose end terms overflow, n^-3,
    # and a NaN summand; each outcome is that of its one-summand call
    a = np.array([-2.0, -2.0, -3.0, math.nan])
    c = np.array([0.0, 0.1, 0.0, 0.0])

    def log_f(lx, k):
        return a[k] * lx + c[k] * np.exp(lx)

    def outcome(call):
        try:
            return call()
        except Exception as exc:
            return type(exc), str(exc)

    args = 10_000, [1e-4, 1.0, 1e-8, 1.0], [0.0] * 4
    with np.errstate(over="ignore", invalid="ignore"):
        together = euler_maclaurin_tail(log_f, *args, stop=20_000)
        alone = [
            outcome(
                lambda: _em_tail(lambda lx: log_f(lx, j), args[0], args[1][j], 0.0, stop=20_000)
            )
            for j in range(4)
        ]
    assert [(type(t), str(t)) if isinstance(t, Exception) else t for t in together] == alone
    assert [type(t) for t in together] == [tuple, OverflowError, tuple, NumericError]


def _exp_poly_tail_exact(decay, power, u0):
    """The integral of u^power e^(-decay u) over [u0, inf) at 40 digits, as an mpf.

    decay^(-power-1) times the upper incomplete gamma function at
    (power+1, decay*u0), both from mpmath; the product decay*u0 is exact.
    """
    with mpmath.workdps(40):
        decay = mpmath.mpf(decay)
        t = decay * mpmath.mpf(u0)
        return mpmath.gammainc(power + 1.0, a=t, b=mpmath.inf) * decay ** -(power + 1.0)


_LEMMA22_TAILS = [
    (d, q, math.log(1e4)) for d in (1e-2, 1e-3, 1e-4, 1e-8) for q in (0.0, -(1.0 + d), 0.5)
]
_SWEEP_TAILS = [
    (s, q, u0) for s in (3.77, 3.94) for q in (-5.9, -3.0, -1.0, 0.05) for u0 in (4.8, 11.1)
]


@pytest.mark.parametrize(
    "decay, power, u0",
    [*_LEMMA22_TAILS, *_SWEEP_TAILS, (903.03, -155.55, 4.159), (1e6, 0.0, 1.0), (90.0, 2e3, 1e2)],
)
def test_exp_poly_tail_within_its_error_estimate(decay, power, u0):
    # lemma22's arguments (s - 1, eta - theta s, log 1e4), the envelope
    # bound's over a sweep, and three with t = decay u0 far above 1: two
    # whose value lies far below the double range (0, within the smallest
    # subnormal of the integral) and one near e^200.
    value, err = exp_poly_tail(decay, power, u0)
    exact = _exp_poly_tail_exact(decay, power, u0)
    with mpmath.workdps(40):
        assert abs(mpmath.mpf(value) - exact) <= err + math.ulp(0.0)
    assert err <= 1e-10 * value  # far below lemma22's rel_tol of 1e-8


def test_exp_poly_tail_rejects_a_divergent_integral():
    with pytest.raises(DomainError):
        exp_poly_tail(0.0, 1.0, 2.0)
    with pytest.raises(DomainError):
        exp_poly_tail(1.0, 1.0, 0.0)


def test_powerlog_tail_bound_is_above_the_integral():
    for power in (-1.001, -1.05, -1.5, -2.0, -5.0, -10.0):
        for log_power in (-6.0, -2.0, -0.5, 0.0, 0.5, 2.0, 6.0):
            for from_x in (4.0, 64.0, 4096.0, 1e9):
                bound = powerlog_tail_bound(power, log_power, from_x)
                exact = _exp_poly_tail_exact(-(power + 1.0), log_power, math.log(from_x))
                with mpmath.workdps(40):
                    excess = mpmath.mpf(bound) / exact - 1
                assert excess >= 0.0, (power, log_power, from_x)
                if log_power == 0.0:  # one integration by parts is exact
                    assert excess <= 1.1e-12, (power, from_x)


def test_powerlog_tail_bound_is_tight_on_the_sweep_envelopes():
    # the fitted envelopes of the sequence sweep: s = 3.77..3.94, q up to
    # -5.9, from n = 128; within 0.1% of the integral, so that certifying
    # the envelope costs no extra checkpoint
    for s, q, u0 in _SWEEP_TAILS:
        from_x = math.exp(u0)
        bound = powerlog_tail_bound(-(s + 1.0), q, from_x)
        exact = _exp_poly_tail_exact(s, q, math.log(from_x))
        with mpmath.workdps(40):
            assert 0.0 <= mpmath.mpf(bound) / exact - 1 <= 1e-3, (s, q, u0)


def test_powerlog_tail_bound_leaves_the_double_range_as_inf_or_0():
    assert powerlog_tail_bound(-1.001, 200.0, 4.0) == math.inf
    assert powerlog_tail_bound(-1000.0, 0.0, 1e9) == 0.0
    with pytest.raises(DomainError):
        powerlog_tail_bound(-1.0, 0.0, 4.0)
    with pytest.raises(DomainError):
        powerlog_tail_bound(-2.0, 0.0, 1.0)
