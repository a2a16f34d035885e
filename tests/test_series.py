"""Series evaluators against brute-force and exact-rational oracles."""

import functools
import math
import sys
import time
import warnings
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from mathieu_series import series
from mathieu_series._core import _raise_first
from mathieu_series._record import replace
from mathieu_series.errors import (
    ContractViolationError,
    DomainError,
    MathieuError,
    NumericError,
    ParameterError,
    ResourceLimitError,
)
from mathieu_series.series import (
    EvalResult,
    FactorialParams,
    GeneralEnvelope,
    PowerLogParams,
    SequencePair,
    _envelope_tail_bound,
    _logaddexp,
    eval_factorial,
    eval_general,
    eval_general_grid,
    eval_power_series,
    eval_powerlog,
    eval_powerlog_grid,
    factorial_summand_log,
    peak_index_n0,
)
from mathieu_series.special import log_factorial, log_log_factorial
from mathieu_series.tails import euler_maclaurin_tail


def brute_powerlog(alpha, beta, gamma, delta, mu, r, n_max=10**7):
    """Plain ascending summation oracle with a crude integral tail pad."""
    r2 = r * r
    blocks = []
    for lo in range(2, n_max, 10**6):
        hi = min(lo + 10**6, n_max)
        n = np.arange(lo, hi, dtype=float)
        ln = np.log(n)
        t = n**alpha * ln**gamma / (n**beta * ln**delta + r2) ** (mu + 1)
        blocks.append(float(t.sum()))
    return math.fsum(blocks)


# ---------------------------------------------------------------------------
# Power-logarithmic family
# ---------------------------------------------------------------------------


def test_powerlog_matches_brute_force():
    p = PowerLogParams(1, 2, 0, 0, 1)
    res = eval_powerlog(p, 10.0, rel_tol=1e-10)
    oracle = brute_powerlog(1, 2, 0, 0, 1, 10.0, n_max=2 * 10**6)
    assert res.value == pytest.approx(oracle, rel=1e-9)
    assert res.tail_bound <= 1e-10 * res.value


def test_powerlog_monotone_in_r():
    p = PowerLogParams(1, 2, 0, 0, 1)
    v10 = eval_powerlog(p, 10.0, rel_tol=1e-10).value
    v20 = eval_powerlog(p, 20.0, rel_tol=1e-10).value
    assert v10 > v20 > 0


def test_powerlog_classical_identity():
    # 2*S + 2/(1+r^2)^(mu+1) equals the classical series sum 2n/(n^2+r^2)^(mu+1)
    mu, r = 2.0, 10.0
    res = eval_powerlog(PowerLogParams(1, 2, 0, 0, mu), r, rel_tol=1e-12)
    n = np.arange(1, 10**6, dtype=float)
    classical = float(np.sum(2.0 * n / (n * n + r * r) ** (mu + 1)))
    assert 2.0 * res.value + 2.0 / (1.0 + r * r) ** (mu + 1) == pytest.approx(
        classical, rel=1e-10
    )


def test_powerlog_tail_certification():
    # re-evaluating at rel_tol/10 moves the value by at most rel_tol * value
    for p, r, tol in [
        (PowerLogParams(1, 2, 0, 0, 1), 50.0, 1e-6),
        (PowerLogParams(1, 2, 1, 1, 1), 1e4, 1e-7),
        (PowerLogParams(1, 1, 0, 1, 2), 1e5, 1e-8),
    ]:
        coarse = eval_powerlog(p, r, rel_tol=tol).value
        fine = eval_powerlog(p, r, rel_tol=tol / 10).value
        assert abs(fine - coarse) <= tol * coarse


def test_powerlog_peak_location():
    # Without log factors the largest summand sits at
    # ((alpha+1)/(beta(mu+1)-alpha-1))^(1/beta) * r^(2/beta); the factor-2
    # claim is checked on sets where that prefactor lies in [1/2, 2].
    for alpha, beta, mu, r in [(1, 2, 1, 100.0), (1, 2, 1, 1e4), (2, 3, 1, 1e3), (3, 2, 2, 1e4)]:
        res = eval_powerlog(PowerLogParams(alpha, beta, 0, 0, mu), r, rel_tol=1e-8)
        scale = r ** (2.0 / beta)
        assert scale / 2 <= res.peak_index <= 2 * scale


def test_powerlog_domain_and_parameters():
    with pytest.raises(ParameterError):
        PowerLogParams(1, 1, 0, 0, 0)  # alpha - beta(mu+1) = 0
    with pytest.raises(DomainError):
        eval_powerlog(PowerLogParams(1, 2, 0, 0, 1), 1.0)
    with pytest.raises(ParameterError):
        eval_powerlog(PowerLogParams(1, 2, 0, 0, 1), 10.0, rel_tol=0.5)


def test_powerlog_resource_cap():
    # rel_tol below the tail integral's quadrature floor (~3e-14 of the value
    # while the summand peak, n ~ 5.8e8, lies past the head), and below the
    # double-precision resolution of the value: both give up at the first
    # block end instead of summing toward hard_cap.
    p = PowerLogParams(1, 2, 0, 0, 1)
    for r, rel_tol in ((1e9, 1e-15), (1e6, 1e-17)):
        t0 = time.perf_counter()
        with pytest.raises(ResourceLimitError) as err:
            eval_powerlog(p, r, rel_tol=rel_tol)
        assert time.perf_counter() - t0 < 1.0
        assert err.value.bound_achieved > rel_tol * 0.5 / r**2  # the value is ~1/(2 r^2)
    # Before the summand peak (n ~ 5.8e5) the tail integral's quadrature
    # error keeps the bound above 1e-14 of the value; 100 terms stop there.
    with pytest.raises(ResourceLimitError) as err:
        eval_powerlog(p, 1e6, rel_tol=1e-14, hard_cap=100)
    assert err.value.cap == 100
    assert err.value.bound_achieved > 1e-14 * 5e-13


def test_powerlog_head_stays_short():
    # the tail from the first block end certifies every thm11 input
    for p in [
        PowerLogParams(1, 2, 0, 0, 1),
        PowerLogParams(1, 2, 1, 1, 1),
        PowerLogParams(2, 3, -1, 2, 1),
        PowerLogParams(1, 1, 0, 1, 2),
    ]:
        for k in range(2, 7):
            res = eval_powerlog(p, 10.0**k, rel_tol=1e-9)
            assert res.terms_used <= 10**5
            assert res.tail_bound <= 1e-9 * res.value


def test_powerlog_peak_past_the_head():
    # beta = 1, delta = 1: the largest summand sits where n log n ~ r^2/2
    # (mu+1 = 2, alpha = 1), far beyond the summed head
    p = PowerLogParams(1, 1, 0, 1, 2)
    r = 1e4
    res = eval_powerlog(p, r, rel_tol=1e-9)
    assert res.peak_index > res.terms_used
    log_term = lambda n: math.log(n) - 3.0 * math.log(n * math.log(n) + r * r)
    assert log_term(res.peak_index) >= max(
        log_term(res.peak_index - 1), log_term(res.peak_index + 1)
    )


def test_powerlog_unrepresentable_value():
    # the sum is ~5e-321 here: a subnormal, so no certified value exists
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError):
            eval_powerlog(PowerLogParams(1, 2, 0, 0, 1), 1e160)


def exp_poly_tail_mpmath(decay, power, u0):
    """Integral of u^power e^(-decay u) over [u0, inf): an incomplete gamma value at 30 digits."""
    with mpmath.workdps(30):
        decay = mpmath.mpf(decay)
        upper = mpmath.gammainc(power + 1.0, a=decay * u0, b=mpmath.inf)
        return float(upper * decay ** -(power + 1.0))


def reference_powerlog_tail_integral(p, log_r2, u0):
    """The power-log tail integral as summed before the shared smooth tail.

    Quadrature in u = log x up to where r^2 is 1e-12 of b, split at the
    summand peak; past that the r^2-free majorant in closed form, whose
    excess counts as error. Returns the two split points as the third item.
    """
    mu1 = p.mu + 1.0

    def integrand(u):
        return math.exp(u + series._powerlog_log_summand(*series._powerlog_cols(p), log_r2, u))

    def log_b(u):
        return p.beta * u + p.delta * math.log(u)

    lo = max(math.log(2.0), 1.0, -p.delta / p.beta + 0.5)
    u_peak = max(series._solve_b_equals(log_b, log_r2, lo), u0)
    u_hi = max(series._solve_b_equals(log_b, log_r2 + math.log(1e12), lo), u0 + 1.0)
    integral = 0.0
    quad_err = 0.0
    for a, b in ((u0, u_peak), (u_peak, u_hi)):
        if b > a:
            val, err = quad(integrand, a, b, epsabs=0.0, epsrel=1e-13, limit=400)
            integral += val
            quad_err += err
    far = exp_poly_tail_mpmath(-(p.alpha - p.beta * mu1 + 1.0), p.gamma - p.delta * mu1, u_hi)
    integral += far
    quad_err += far * (mu1 * 1e-12 + 1e-13)
    return integral, quad_err, (u_peak, u_hi)


# the thm11, thm12 and expansion inputs of the verify suites
_SUITE_POWERLOG_INPUTS = [
    *[
        (PowerLogParams(*ps), 10.0**k, 1e-9)
        for ps in [(1, 2, 0, 0, 1), (1, 2, 1, 1, 1), (2, 3, -1, 2, 1), (1, 1, 0, 1, 2)]
        for k in range(2, 7)
    ],
    *[(PowerLogParams(1, 3, 1, 1, 1), 10.0**k, 1e-9) for k in range(2, 6)],
    *[(PowerLogParams(1, 3, 0, 0, 1), 10.0**k, 1e-9) for k in range(2, 5)],
    (PowerLogParams(1, 2, 0, 0, 2), 10.0, 1e-13),
    (PowerLogParams(1, 2, 0, 0, 2), 100.0, 1e-14),
]


@pytest.mark.parametrize("p, r, rel_tol", _SUITE_POWERLOG_INPUTS)
def test_powerlog_tail_integral_matches_the_closed_form_far_tail(p, r, rel_tol, monkeypatch):
    log_r2 = 2.0 * math.log(r)
    log_f, log_b = series._powerlog_log_summand, series._powerlog_log_b
    key = (*series._powerlog_cols(p), log_r2)
    for n in (4098, 12290):
        [(_, _, integral, err)] = series._smooth_tail(log_f, log_b, [key], n)
        ref, ref_err, _ = reference_powerlog_tail_integral(p, log_r2, math.log(n))
        assert abs(integral - ref) <= err + ref_err

    res = eval_powerlog(p, r, rel_tol=rel_tol)

    def reference_tail(log_f, log_b, keys, n):
        [(*_, log_r2)] = keys
        integral, err, breaks = reference_powerlog_tail_integral(p, log_r2, math.log(n))
        [(value, bound)] = euler_maclaurin_tail(
            lambda lx, k: log_f(*keys[0], lx), n, [integral], [err], [breaks]
        )
        return [(value, bound, integral, err)]

    monkeypatch.setattr(series, "_smooth_tail", reference_tail)
    ref = eval_powerlog(p, r, rel_tol=rel_tol)
    assert (res.terms_used, res.peak_index) == (ref.terms_used, ref.peak_index)
    # Both values carry a certified bound, so they agree within the sum; the
    # bounds themselves, both led by the tail integral's quadrature error,
    # agree within the sum of the two integrals' error estimates.
    assert abs(res.value - ref.value) <= res.tail_bound + ref.tail_bound
    n = 2 + res.terms_used
    [(_, _, _, err)] = series._smooth_tail(log_f, log_b, [key], n)
    _, ref_err, _ = reference_powerlog_tail_integral(p, log_r2, math.log(n))
    assert abs(res.tail_bound - ref.tail_bound) <= err + ref_err


# ---------------------------------------------------------------------------
# Power-log family over a radius grid
# ---------------------------------------------------------------------------


def _outcome(evaluate):
    """What ``evaluate()`` returns, or the type, message and cap bound of its error."""
    try:
        return evaluate()
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "bound_achieved", None)


_CUBIC_POWERLOG = PowerLogParams(1, 3, 0, 0, 1)
_FAR_PEAK = PowerLogParams(1, 1, 0, 1, 2)  # peaks far past the head (n ~ r^2/2 / log n)


@pytest.mark.parametrize(
    "p, radii, kwargs",
    [
        # the thm11 and thm12 grids
        (PowerLogParams(2, 3, -1, 2, 1), [10.0**k for k in range(2, 7)], dict(rel_tol=1e-9)),
        (PowerLogParams(1, 3, 1, 1, 1), [10.0**k for k in range(2, 6)], dict(rel_tol=1e-9)),
        # 1e3 certifies at the first block end, 1e7 at the third, 1e9 at the seventh
        (_CUBIC_POWERLOG, [1e3, 1e7, 1e9], dict(rel_tol=1e-14)),
        # out of order, with duplicates
        (_CUBIC_POWERLOG, [1e7, 1e3, 1e7, 50.0, 1e3], dict(rel_tol=1e-14)),
        # peaks past the head, found by the lockstep search, and one in it
        (_FAR_PEAK, [1e4, 30.0, 1e6, 1e4], dict(rel_tol=1e-9)),
        (_FAR_PEAK, [1e6], dict(rel_tol=1e-9)),
        # 1e120 is below the smallest normal double: the first failure wins
        (_CUBIC_POWERLOG, [1e3, 1e7, 1e120, 1e9], dict(rel_tol=1e-14)),
        (_CUBIC_POWERLOG, [1e120, 1e3], dict(rel_tol=1e-14)),
        (_CUBIC_POWERLOG, [1e7, 1e3, 1e120], dict(rel_tol=1e-14)),
        (_CUBIC_POWERLOG, [1e120, 1e3, 0.5, 1e7], dict(rel_tol=1e-14)),
        # give-up rules: below the quadrature floor, and the term cap
        (PowerLogParams(1, 2, 0, 0, 1), [1e3, 1e9, 1e6], dict(rel_tol=1e-15)),
        (PowerLogParams(1, 2, 0, 0, 1), [10.0, 1e6], dict(rel_tol=1e-14, hard_cap=100)),
        # a bad radius: ahead of rel_tol when first, else once those before succeed
        (_CUBIC_POWERLOG, [0.5, 1e3], dict(rel_tol=1.0)),
        (_CUBIC_POWERLOG, [1e3, 1.0, 1e7], dict(rel_tol=1e-14)),
        (_CUBIC_POWERLOG, [1e3, math.inf], dict(rel_tol=1e-8)),
        (_CUBIC_POWERLOG, [1e7, math.nan, 1e120], dict(rel_tol=1e-14)),
        (_CUBIC_POWERLOG, [], dict(rel_tol=1.0)),
    ],
)
def test_powerlog_grid_equals_the_per_radius_loop(p, radii, kwargs):
    grid = _outcome(lambda: eval_powerlog_grid(p, radii, **kwargs))
    assert grid == _outcome(lambda: [eval_powerlog(p, r, **kwargs) for r in radii])
    if isinstance(grid, list):  # EvalResult compares its fields with ==
        assert [type(res) for res in grid] == [EvalResult] * len(radii)
    # the core runs every radius to the outcome of its one-radius call, past any failure
    outcomes = series._powerlog_outcomes([(p, r) for r in radii], **kwargs)
    assert [_outcome(lambda: _raise_first([o])[0]) for o in outcomes] == [
        _outcome(lambda: eval_powerlog(p, r, **kwargs)) for r in radii
    ]


_MIXED_PARAMS = [
    _CUBIC_POWERLOG,
    _FAR_PEAK,
    PowerLogParams(2, 3, -1, 2, 1),
    PowerLogParams(1, 2, 1, 1, 1),
    PowerLogParams(1, 2, 0, 0, 1),
]
# radii at or below 1 fail their check; at 1e120 the value of (1, 3, 0, 0, 1)
# is below the smallest normal double, the others' are not
_MIXED_RADII = [0.5, 1.0, 30.0, 1e3, 1e4, 1e7, 1e120]


@given(
    points=st.lists(
        st.tuples(st.sampled_from(_MIXED_PARAMS), st.sampled_from(_MIXED_RADII)), max_size=6
    ),
    rel_tol=st.sampled_from([1e-9, 1e-14, 1e-15, 0.5]),
)
@settings(max_examples=30, deadline=None)
def test_powerlog_points_equal_the_per_point_loop(points, rel_tol):
    # several parameter sets in one walk: each point's result fields, or its
    # error's type, message and bound_achieved, are those of its own call
    outcomes = series._powerlog_outcomes(points, rel_tol)
    assert [_outcome(lambda: _raise_first([o])[0]) for o in outcomes] == [
        _outcome(lambda: eval_powerlog(p, r, rel_tol=rel_tol)) for p, r in points
    ]


def test_smooth_tail_keeps_an_error_to_its_radius():
    # a summand that is NaN past u = 12 at one radius only: its tail integral
    # fails as the one-radius call does, and the others are unchanged
    cols = series._powerlog_cols(PowerLogParams(1, 2, 0, 0, 1))
    bad = 2.0 * math.log(1e5)

    def log_f(log_r2, lx):
        value = series._powerlog_log_summand(*cols, log_r2, lx)
        if isinstance(lx, np.ndarray):
            return np.where((log_r2 == bad) & (lx > 12.0), math.nan, value)
        return value

    log_b = functools.partial(series._powerlog_log_b, *cols)
    log_r2s = [(2.0 * math.log(r),) for r in (1e3, 1e5, 1e4)]
    together = series._smooth_tail(log_f, log_b, log_r2s, 4098)
    alone = [series._smooth_tail(log_f, log_b, [x], 4098)[0] for x in log_r2s]
    assert isinstance(together[1], NumericError)
    assert str(together[1]) == str(alone[1]) and "integrand is nan" in str(alone[1])
    assert together[::2] == alone[::2]
    assert all(type(t) is tuple and len(t) == 4 for t in together[::2])


# ---------------------------------------------------------------------------
# Generic sequences
# ---------------------------------------------------------------------------


def test_general_matches_powerlog_definition():
    seq = SequencePair(a=lambda n: float(n), b=lambda n: float(n) ** 2, b_monotone_from=0)
    vg = eval_general(seq, 1.0, 10.0, rel_tol=1e-8)
    vp = eval_powerlog(PowerLogParams(1, 2, 0, 0, 1), 10.0, rel_tol=1e-10)
    head = 0.0 + 1.0 / (1.0 + 100.0) ** 2  # n = 0 vanishes, n = 1 term
    assert vg.value == pytest.approx(vp.value + head, rel=1e-7)


def test_general_logfactorial_matches_brute_force():
    seq = SequencePair(
        a=lambda n: log_factorial(n), b=lambda n: log_factorial(n) ** 2, b_monotone_from=2
    )
    res = eval_general(seq, 1.0, 100.0, rel_tol=1e-6, n_start=2)
    lf = np.cumsum(np.log(np.arange(2, 2 * 10**6, dtype=float)))
    brute = float(np.sum(lf / (lf * lf + 1e4) ** 2))
    assert res.value == pytest.approx(brute, rel=1e-5)


def test_general_shift_ratio_trend():
    seq = SequencePair(a=lambda n: (n + 5.0), b=lambda n: float(n) ** 3, b_monotone_from=0)
    plain = PowerLogParams(1, 3, 0, 0, 1)
    devs = []
    for r in (1e2, 1e3, 1e4):
        head = 5.0 / (r * r) ** 2 + 6.0 / (1.0 + r * r) ** 2
        v = eval_general(seq, 1.0, r, rel_tol=1e-7).value - head
        devs.append(abs(v / eval_powerlog(plain, r, rel_tol=1e-9).value - 1.0))
    assert devs[2] < devs[1] < devs[0]


def test_general_monotonicity_contract():
    seq = SequencePair(
        a=lambda n: 1.0,
        b=lambda n: float(100 - n) ** 2,  # decreasing: breaks the promise
        b_monotone_from=0,
    )
    with pytest.raises(ContractViolationError):
        eval_general(seq, 1.0, 10.0, rel_tol=1e-4, hard_cap=200)


def test_general_non_finite_callback():
    # a NaN or an inf surfaces at its term, not at the term cap
    nan_at_50 = SequencePair(
        a=lambda n: math.nan if n == 50 else 1.0, b=lambda n: float(n) ** 2, b_monotone_from=0
    )
    with pytest.raises(ContractViolationError, match="a\\(50\\)"):
        eval_general(nan_at_50, 1.0, 10.0, rel_tol=1e-8)
    inf_b = SequencePair(
        a=lambda n: 1.0, b=lambda n: math.inf if n >= 7 else float(n) ** 2, b_monotone_from=0
    )
    with pytest.raises(ContractViolationError, match="b\\(7\\)"):
        eval_general(inf_b, 1.0, 10.0, rel_tol=1e-8)


def test_general_explicit_envelope_and_cap():
    seq = SequencePair(a=lambda n: float(n), b=lambda n: float(n) ** 2, b_monotone_from=0)
    env = GeneralEnvelope(
        a_coeff=1.0, a_pow=1.0, a_logpow=0.0, b_coeff=1.0, b_pow=2.0, b_logpow=0.0, valid_from=4
    )
    res = eval_general(seq, 1.0, 10.0, rel_tol=1e-8, envelope=env)
    assert res.tail_bound <= 1e-8 * res.value
    with pytest.raises(ResourceLimitError):
        eval_general(seq, 1.0, 1e5, rel_tol=1e-8, envelope=env, hard_cap=3000)


def test_general_tail_certification():
    seq = SequencePair(a=lambda n: (n + 5.0), b=lambda n: float(n) ** 3, b_monotone_from=0)
    coarse = eval_general(seq, 1.0, 100.0, rel_tol=1e-5).value
    fine = eval_general(seq, 1.0, 100.0, rel_tol=1e-6).value
    assert abs(fine - coarse) <= 1e-5 * coarse


def test_general_initial_segment_is_negligible():
    # the first floor(log r) terms contribute O(r^(-2(mu+1)) (log r)^(2 alpha + 1))
    seq = SequencePair(
        a=lambda n: (n + 5.0) * math.log(n + 2.0),
        b=lambda n: float(n) ** 2 * math.log(n + 1.0),
        b_monotone_from=1,
    )
    mu, alpha = 1.0, 1.0

    def initial_segment(r):
        m = int(math.log(r))
        return math.fsum(seq.a(n) / (seq.b(n) + r * r) ** (mu + 1) for n in range(m + 1))

    def scale(r):
        return r ** (-2 * (mu + 1)) * math.log(r) ** (2 * alpha + 1)

    c = initial_segment(1e3) / scale(1e3)
    for r in (1e4, 1e5, 1e6):
        assert initial_segment(r) <= 2.0 * c * scale(r)


# The per-term loop eval_general ran before it was vectorised by blocks, kept
# as the reference the block loop must reproduce bit for bit. It is the
# spec of the envelope path's stop rule: at a checkpoint N whose bound
# misses, the sum ends at the least n' up to the next checkpoint (or the
# cap) where the same envelope's bound is within rel_tol of the value at
# N, unless a term before n' breaches a fitted envelope. Its logs and
# terms are numpy's (np.log, np.exp) on one double at a time, which give
# the bits of the same element of an array; it does not model the
# math.log a block takes for an int b_n past the double range.


def _reference_fit_envelope(ns, log_a, log_b, mu):
    pts = [
        (n, np.log(float(n)), la, lb)
        for n, la, lb in zip(ns, log_a, log_b)
        if n >= 4 and math.isfinite(la) and math.isfinite(lb)
    ]
    if len(pts) < 16:
        return None
    window = pts[len(pts) // 2 :]
    ln = np.array([q[1] for q in window])
    la = np.array([q[2] for q in window])
    lb = np.array([q[3] for q in window])
    design = np.column_stack([np.ones_like(ln), ln, np.log(ln)])
    (_, a_p, a_q), *_ = np.linalg.lstsq(design, la, rcond=None)
    (_, b_p, b_q), *_ = np.linalg.lstsq(design, lb, rcond=None)
    a_pow, a_logpow = float(a_p) + 0.02, float(a_q) + 0.35
    b_pow, b_logpow = float(b_p) - 0.02, float(b_q) - 0.35
    a_coeff = 2.0 * math.exp(float(np.max(la - a_pow * ln - a_logpow * np.log(ln))))
    b_coeff = 0.5 * math.exp(float(np.min(lb - b_pow * ln - b_logpow * np.log(ln))))
    env = GeneralEnvelope(a_coeff, a_pow, a_logpow, b_coeff, b_pow, b_logpow, window[0][0])
    return None if env.tail_exponents(mu)[1] >= -1.0 else env


def _reference_envelope_holds(env, n, log_a_n, log_b_n):
    if n < env.valid_from or n < 2:
        return True
    log_n = np.log(float(n))
    ll = np.log(log_n)
    log_a_cap = math.log(env.a_coeff) + env.a_pow * log_n + env.a_logpow * ll
    log_b_floor = math.log(env.b_coeff) + env.b_pow * log_n + env.b_logpow * ll
    return log_a_n <= log_a_cap + 1e-12 and log_b_n >= log_b_floor - 1e-12


def reference_eval_general(s, mu, r, rel_tol=1e-8, hard_cap=10**6, envelope=None, n_start=0):
    log_r2 = 2.0 * math.log(r)
    mu1 = mu + 1.0
    fitted = envelope is None
    env = envelope
    sums, ns, log_a_vals, log_b_vals = [], [], [], []
    best = -math.inf
    peak_index = n_start
    b_prev = None
    next_check = 64
    stop = None  # n' of the last checkpoint
    n = n_start
    end = n_start + hard_cap
    while n < end:
        a_n = float(s.a(n))
        b_n = s.b(n)
        if not math.isfinite(a_n) or b_n != b_n or abs(b_n) == math.inf:
            raise ContractViolationError(f"non-finite at {n}")
        if a_n < 0.0:
            raise ContractViolationError(f"negative a at {n}")
        if n >= s.b_monotone_from:
            if b_prev is not None and b_n < b_prev:
                raise ContractViolationError(f"b decreasing at {n}")
            b_prev = b_n
        log_a_n = np.log(a_n) if a_n > 0.0 else -math.inf
        log_b_n = np.log(float(b_n)) if b_n > 0 else -math.inf
        if env is not None and not _reference_envelope_holds(env, n, log_a_n, log_b_n):
            if fitted:
                env = stop = None
            else:
                raise ContractViolationError(f"supplied envelope violated at n={n}")
        term = float(np.exp(log_a_n - mu1 * np.logaddexp(log_b_n, log_r2)))
        sums.append(term)
        ns.append(n)
        log_a_vals.append(log_a_n)
        log_b_vals.append(log_b_n)
        if term > best:
            best = term
            peak_index = n
        n += 1
        if n == stop:
            bound = _envelope_tail_bound(env, mu, n)
            return EvalResult(math.fsum(sums), bound, len(sums), peak_index)
        if n >= next_check:
            next_check *= 2
            if fitted:
                env = _reference_fit_envelope(ns, log_a_vals, log_b_vals, mu) or env
            if env is not None:
                target = rel_tol * math.fsum(sums)

                def holds(m):
                    bound = _envelope_tail_bound(env, mu, m)
                    return bound is not None and bound <= target

                if holds(n):
                    return EvalResult(math.fsum(sums), _envelope_tail_bound(env, mu, n),
                                      len(sums), peak_index)
                stop = next((m for m in range(n + 1, min(next_check, end) + 1) if holds(m)), None)
    raise ResourceLimitError("cap")


_SHIFTED = SequencePair(
    a=lambda n: (n + 3.0) * math.log(n + 2.0),
    b=lambda n: float(n) ** 3 * math.log(n + 1.0),
    b_monotone_from=1,
)
_LOGFACT = SequencePair(
    a=lambda n: log_factorial(n), b=lambda n: log_factorial(n) ** 3, b_monotone_from=2
)
_CUBES = SequencePair(a=lambda n: 1.0, b=lambda n: float(n) ** 3, b_monotone_from=0)
_SQUARES_ENVELOPE = GeneralEnvelope(
    a_coeff=1.0, a_pow=1.0, a_logpow=0.0, b_coeff=1.0, b_pow=2.0, b_logpow=0.0, valid_from=4
)
# a_n = 1, b_n = n^2 under a true envelope: the summand is 1/(n^2 + r^2)^(mu+1)
_RECIPROCAL_SQUARES = SequencePair(a=lambda n: 1.0, b=lambda n: float(n) ** 2)
_RECIPROCAL_SQUARES_ENVELOPE = GeneralEnvelope(1.0, 0.0, 0.0, 1.0, 2.0, 0.0, valid_from=4)
# _SHIFTED with a_2300 ten times larger: at r = 1e3 (rel_tol 1e-6) the fitted
# envelope of the checkpoint 2048 certifies from n' = 2656 on, but a_2300 breaches it
_SHIFTED_BUMP = replace(
    _SHIFTED, a=lambda n: (n + 3.0) * math.log(n + 2.0) * (10.0 if n == 2300 else 1.0)
)


@pytest.mark.parametrize(
    "seq, mu, r, kwargs",
    [
        *[(_SHIFTED, 1.0, 10.0**k, dict(rel_tol=1e-6)) for k in (2, 3, 4)],
        *[(_LOGFACT, 1.0, 10.0**k, dict(rel_tol=1e-5, n_start=2)) for k in (2, 3, 4)],
        # a_0 = 0: the first term is exactly zero
        (SequencePair(a=lambda n: float(n), b=lambda n: float(n) ** 3), 1.0, 100.0, {}),
        (
            SequencePair(a=lambda n: float(n), b=lambda n: float(n) ** 2),
            1.0,
            10.0,
            dict(envelope=_SQUARES_ENVELOPE),
        ),
        # equal terms up to n = 100, across a block edge: the peak is the first
        (SequencePair(a=lambda n: 1.0, b=lambda n: float(max(n, 100)) ** 3), 1.0, 10.0, {}),
        # checkpoints right after a late start: blocks of one term, then doubling
        (_SHIFTED, 1.0, 100.0, dict(rel_tol=1e-6, n_start=200)),
        # a stop past a fitted envelope's breach; a supplied envelope's stop
        (_SHIFTED_BUMP, 1.0, 1e3, dict(rel_tol=1e-6)),
        (
            _RECIPROCAL_SQUARES,
            1.0,
            3.0,
            dict(rel_tol=1e-10, envelope=_RECIPROCAL_SQUARES_ENVELOPE),
        ),
        # the stop n' = 596 is the term cap
        (_SHIFTED, 1.0, 100.0, dict(rel_tol=1e-6, hard_cap=596)),
        # stops some steps away from the log-log guess of the search for n'
        *[(_LOGFACT, 1.0, 10.0**k, dict(rel_tol=1e-5, n_start=2)) for k in (5, 6)],
    ],
)
def test_general_blocks_match_per_term_reference(seq, mu, r, kwargs):
    assert eval_general(seq, mu, r, **kwargs) == reference_eval_general(seq, mu, r, **kwargs)


def test_general_envelope_path_stops_where_the_bound_first_holds():
    # the checkpoint 512 misses; its envelope's bound holds from n' = 596 on,
    # so the sum ends there rather than at the checkpoint 1024
    res = eval_general(_SHIFTED, 1.0, 100.0, rel_tol=1e-6)
    assert (res.terms_used, res.peak_index) == (596, 9)
    assert res.tail_bound <= 1e-6 * res.value
    # n' is clamped to the term cap: a cap one term short cannot certify
    assert eval_general(_SHIFTED, 1.0, 100.0, rel_tol=1e-6, hard_cap=596) == res
    with pytest.raises(ResourceLimitError, match="term cap 595"):
        eval_general(_SHIFTED, 1.0, 100.0, rel_tol=1e-6, hard_cap=595)


def test_general_breach_before_the_stop_goes_on_to_the_next_checkpoint():
    # a_2300 breaches the envelope fitted at 2048 before its stop n' = 2656:
    # the sum runs to the checkpoint 4096, refits, and stops past it
    plain = eval_general(_SHIFTED, 1.0, 1e3, rel_tol=1e-6)
    bumped = eval_general(_SHIFTED_BUMP, 1.0, 1e3, rel_tol=1e-6)
    assert plain.terms_used == 2656
    assert 4096 < bumped.terms_used < 8192
    assert bumped.tail_bound <= 1e-6 * bumped.value
    assert bumped == reference_eval_general(_SHIFTED_BUMP, 1.0, 1e3, rel_tol=1e-6)


@pytest.mark.parametrize("r", [3.0, 10.0, 30.0])
def test_general_true_supplied_envelope_bounds_the_error(r):
    # the value misses the full sum by at most its tail bound, stopping off
    # the powers of two
    res = eval_general(
        _RECIPROCAL_SQUARES, 1.0, r, rel_tol=1e-10, envelope=_RECIPROCAL_SQUARES_ENVELOPE
    )
    with mpmath.workdps(30):
        exact = mpmath.nsum(lambda n: 1 / (n * n + mpmath.mpf(r) ** 2) ** 2, [0, mpmath.inf])
        error = abs(mpmath.mpf(res.value) - exact)
    assert error <= res.tail_bound + 4 * math.ulp(res.value)
    assert res.tail_bound <= 1e-10 * res.value
    assert res.terms_used & (res.terms_used - 1) != 0


# The envelope stop n' against a linear scan: an envelope of the shifted
# power-log pair's shape, the checkpoint 2048 and the next one 4096.
_STOP_ENV = GeneralEnvelope(2.0, 1.02, 1.35, 0.5, 2.98, 0.65, valid_from=1024)


@pytest.fixture(scope="module")
def stop_bounds():
    return {m: _envelope_tail_bound(_STOP_ENV, 1.0, m) for m in range(2048, 4097)}


def _scan_stop(bounds, n, last, target):
    return next((m for m in range(n + 1, last + 1) if bounds[m] <= target), None)


def test_envelope_stop_is_the_least_n_of_a_linear_scan(stop_bounds):
    lo, hi = stop_bounds[4096], stop_bounds[2048]
    targets = [lo * (hi / lo) ** (k / 40) for k in range(41)]
    # right at a bound, and just below it: the least n' moves by one
    for m in (2049, 2050, 2222, 3000, 4095, 4096):
        targets += [stop_bounds[m], math.nextafter(stop_bounds[m], 0.0)]
    for n, last in ((2048, 4096), (2048, 2049), (2048, 2050), (2500, 2600)):
        for target in targets:
            if stop_bounds[n] <= target:
                continue
            want = _scan_stop(stop_bounds, n, last, target)
            for at_n in (stop_bounds[n], None):  # with and without the log-log guess
                got = series._envelope_stop(_STOP_ENV, 1.0, n, last, target, at_n)
                assert got == want, (n, last, target, at_n)


def test_envelope_stop_below_valid_from_bisects():
    # no bound at the checkpoint, or on the first few n past it
    env = replace(_STOP_ENV, valid_from=2100)
    bounds = {m: _envelope_tail_bound(env, 1.0, m) for m in range(2049, 4097)}
    assert bounds[2099] is None and bounds[2100] is not None
    for target in (bounds[2100], bounds[2101], bounds[3000], 0.5 * bounds[4096]):
        want = next((m for m in range(2049, 4097) if (bounds[m] or math.inf) <= target), None)
        assert series._envelope_stop(env, 1.0, 2048, 4096, target, None) == want


@pytest.mark.parametrize(
    "bound",
    [
        # bounds at n and last whose ratio underflows: 1e300 down to 1e-100
        lambda m: 10.0 ** (300 - 400 * (m - 2048) / 2048),
        # a step between two bounds with one log
        lambda m: 1e300 if m < 3000 else math.nextafter(1e300, 0.0),
    ],
    ids=["ratio-underflows", "one-log"],
)
def test_envelope_stop_on_extreme_bounds(monkeypatch, bound):
    monkeypatch.setattr(series, "_envelope_tail_bound", lambda env, mu, m: bound(m))
    for target in (bound(2049), bound(3000), bound(3001), bound(4096)):
        want = next(m for m in range(2049, 4097) if bound(m) <= target)
        assert series._envelope_stop(_STOP_ENV, 1.0, 2048, 4096, target, bound(2048)) == want


@pytest.mark.parametrize(
    "seq, r, rel_tol, n_start",
    [
        (seq, r, rel_tol, n_start)
        for seq, rel_tol, n_start in ((_SHIFTED, 1e-6, 0), (_LOGFACT, 1e-8, 2))
        for r in (1e2, 1e3)
    ],
    ids=["shifted-1e2", "shifted-1e3", "logfact-1e2", "logfact-1e3"],
)
def test_general_envelope_path_against_mpmath(seq, r, rel_tol, n_start):
    # the value against the same terms in 30 digits, and against the full
    # sum: those terms plus the Euler-Maclaurin remainder past them
    # (integral, f/2 and f'/12; the next correction is below 1e-20 of it)
    res = eval_general(seq, 1.0, r, rel_tol=rel_tol, n_start=n_start)
    if seq is _SHIFTED:
        ab = lambda x: ((x + 3) * mpmath.log(x + 2), x**3 * mpmath.log(x + 1))  # noqa: E731
    else:
        ab = lambda x: (mpmath.loggamma(x + 1), mpmath.loggamma(x + 1) ** 3)  # noqa: E731
    with mpmath.workdps(30):
        r2 = mpmath.mpf(r) ** 2

        def f(x):
            a, b = ab(x)
            return a / (b + r2) ** 2

        end = n_start + res.terms_used
        head = mpmath.fsum(f(mpmath.mpf(n)) for n in range(n_start, end))
        rest = mpmath.quad(f, [end, 2 * end, 8 * end, mpmath.inf]) + f(end) / 2
        full = head + rest - mpmath.diff(f, end) / 12
        assert abs(res.value - head) <= 1e-13 * head
        assert abs(res.value - full) <= res.tail_bound + 1e-13 * res.value
    assert res.tail_bound <= rel_tol * res.value


def test_general_big_int_b_outgrows_every_envelope():
    # b_n past the double range from n = 0: its logs come from math.log,
    # and the envelope fitted at 64 leaves the double range
    seq = SequencePair(a=lambda n: 1.0, b=lambda n: 10 ** (400 + n), b_monotone_from=0)
    with pytest.raises(NumericError, match="outgrows every power-log envelope"):
        eval_general(seq, 1.0, 10.0)


@pytest.mark.parametrize("n_start", [-5, 2.0, True])
def test_general_rejects_n_start_before_any_callback(n_start):
    # -5 used to call a(-5) and report b(-5) = -125.0, 2.0 to raise a bare
    # numpy TypeError after a block of callbacks, and True to start at 1
    calls = []
    seq = SequencePair(a=lambda n: calls.append(n) or 1.0, b=lambda n: float(n) ** 3)
    for evaluate in (eval_general, lambda *a, **k: eval_general_grid(*a[:2], [a[2]], **k)):
        with pytest.raises(ParameterError, match=r"n_start must be an integer >= 0, got "):
            evaluate(seq, 1.0, 10.0, n_start=n_start)
    assert calls == []
    with pytest.raises(ParameterError, match="hard_cap"):  # the cap is checked first
        eval_general(seq, 1.0, 10.0, hard_cap=0, n_start=n_start)
    assert eval_general(_CUBES, 1.0, 10.0, n_start=np.int64(3)) == eval_general(
        _CUBES, 1.0, 10.0, n_start=3
    )


@pytest.mark.parametrize("bad_n", [63, 64, 127, 128])
def test_general_nan_at_block_edges(bad_n):
    seq = SequencePair(
        a=lambda n: math.nan if n == bad_n else 1.0, b=_CUBES.b, b_monotone_from=0
    )
    with pytest.raises(ContractViolationError, match=f"a\\({bad_n}\\) = nan"):
        eval_general(seq, 1.0, 1e3, rel_tol=1e-8)


def test_general_b_decreasing_across_blocks():
    # b(64) opens the second block and falls below b(63), the first block's last
    seq = SequencePair(a=lambda n: 1.0, b=lambda n: 1.0 if n == 64 else float(n) ** 3)
    with pytest.raises(ContractViolationError, match="b\\(64\\) = 1.0 < b\\(63\\)"):
        eval_general(seq, 1.0, 1e3, rel_tol=1e-8)


@pytest.mark.parametrize("bad_n", [30, 90])  # in the first block the check starts at valid_from
def test_general_supplied_envelope_violated_mid_block(bad_n):
    seq = SequencePair(a=lambda n: 1e6 if n == bad_n else float(n), b=lambda n: float(n) ** 2)
    with pytest.raises(ContractViolationError, match=f"supplied envelope violated at n={bad_n}:"):
        eval_general(seq, 1.0, 1e3, envelope=_SQUARES_ENVELOPE)


def test_general_first_breach_wins_over_later_callback_error():
    def a(n):
        if n == 100:
            raise ValueError("callback failure at 100")
        return math.nan if n == 90 else 1.0

    seq = SequencePair(a=a, b=_CUBES.b)
    with pytest.raises(ContractViolationError, match="a\\(90\\) = nan"):
        eval_general(seq, 1.0, 1e3, rel_tol=1e-8)
    # with no earlier breach the callback's own error comes through
    clean = SequencePair(a=lambda n: a(n) if n != 90 else 1.0, b=_CUBES.b)
    with pytest.raises(ValueError, match="callback failure at 100"):
        eval_general(clean, 1.0, 1e3, rel_tol=1e-8)
    # a supplied envelope violated before the callback error wins over it
    over = SequencePair(a=lambda n: 1e6 if n == 80 else clean.a(n), b=lambda n: float(n) ** 2)
    with pytest.raises(ContractViolationError, match="supplied envelope violated at n=80"):
        eval_general(over, 1.0, 1e3, envelope=_SQUARES_ENVELOPE)


def test_general_callbacks_stop_at_the_certifying_checkpoint():
    calls = {"a": 0, "b": 0}

    def counted(name, f):
        def wrapper(n):
            calls[name] += 1
            return f(n)

        return wrapper

    seq = SequencePair(
        a=counted("a", _LOGFACT.a), b=counted("b", _LOGFACT.b), b_monotone_from=2
    )
    res = eval_general(seq, 1.0, 1e3, rel_tol=1e-5, n_start=2)
    assert calls == {"a": res.terms_used, "b": res.terms_used}
    calls.update(a=0, b=0)
    with pytest.raises(ResourceLimitError):
        eval_general(seq, 1.0, 1e3, rel_tol=1e-5, n_start=2, hard_cap=100)
    assert calls == {"a": 100, "b": 100}


def test_general_factorial_b_raises_numeric_error_fast():
    # b = n! outgrows every power-log envelope; the fit must say so, not overflow
    seq = SequencePair(a=lambda n: 1.0, b=math.factorial)
    t0 = time.perf_counter()
    with pytest.raises(NumericError, match="b outgrows every power-log envelope"):
        eval_general(seq, 1.0, 10.0)
    assert time.perf_counter() - t0 < 1.0


def test_envelope_scale_past_the_double_range_of_b_coeff_power():
    # b_coeff^(mu+1) = 1e400 is no double, the scale 1e300 / 1e400 is
    env = GeneralEnvelope(1e300, 1.0, 0.0, 1e200, 2.0, 0.0, 4)
    scale, power, log_power = env.tail_exponents(1.0)
    assert scale == pytest.approx(1e-100, rel=1e-12)
    assert (power, log_power) == (-3.0, 0.0)
    with pytest.raises(NumericError, match="not a normal double"):
        GeneralEnvelope(1.0, 1.0, 0.0, 1e200, 2.0, 0.0, 4).tail_exponents(1.0)
    with pytest.raises(ParameterError, match="b_coeff must be > 0"):
        GeneralEnvelope(1.0, 1.0, 0.0, 0.0, 2.0, 0.0, 4)
    with pytest.raises(ParameterError, match="a_pow must be finite"):
        GeneralEnvelope(1.0, math.nan, 0.0, 1.0, 2.0, 0.0, 4)


def test_scalar_logaddexp_matches_numpy_bit_for_bit():
    rng = np.random.default_rng(7)
    near = rng.uniform(-5, 5, 20000)
    xs = np.concatenate([rng.uniform(-800, 800, 20000), near])
    ys = np.concatenate([rng.uniform(-800, 800, 20000), near + rng.uniform(-1e-6, 1e-6, 20000)])
    special_pairs = [(1.5, 1.5), (-math.inf, 2.0), (2.0, -math.inf), (-math.inf, -math.inf)]
    for x, y in [*zip(xs.tolist(), ys.tolist()), *special_pairs]:
        assert _logaddexp(x, y) == float(np.logaddexp(x, y))


def test_general_negative_b_is_a_contract_violation():
    # b(0) = -50 used to count as b = 0: a 26% error under a 7e-9 bound
    seq = SequencePair(
        a=lambda n: 1.0, b=lambda n: -50.0 if n == 0 else float(n) ** 2, b_monotone_from=1
    )
    with pytest.raises(ContractViolationError, match="b must be nonnegative, b\\(0\\) = -50.0"):
        eval_general(seq, 1.0, 10.0)
    # the lowest offending n wins: a NaN at 90 before a negative b at 100, and back
    for nan_at, neg_at, first in ((90, 100, "a\\(90\\) = nan"), (100, 90, "b\\(90\\) = -1")):
        seq = SequencePair(
            a=lambda n, k=nan_at: math.nan if n == k else 1.0,
            b=lambda n, k=neg_at: -1 if n == k else n**3,
            b_monotone_from=200,
        )
        with pytest.raises(ContractViolationError, match=first):
            eval_general(seq, 1.0, 1e3)


@pytest.mark.parametrize("neg_at, nan_at", [(40, 50), (63, 64), (64, 100)])
def test_general_negative_a_is_a_contract_violation(neg_at, nan_at):
    # mid-block and at both edges of the first checkpoint, ahead of a NaN later on
    seq = SequencePair(
        a=lambda n: -1.0 if n == neg_at else math.nan if n == nan_at else 1.0,
        b=lambda n: float(n) ** 2,
        b_monotone_from=0,
    )
    with pytest.raises(ContractViolationError) as err:
        eval_general(seq, 1.0, 10.0)
    assert str(err.value) == f"sequence a must be nonnegative, a({neg_at}) = -1.0"


# ---------------------------------------------------------------------------
# Generic sequences with smooth forms: head plus Euler-Maclaurin tail
# ---------------------------------------------------------------------------

_LOG2, _LOG3, _LOG5 = math.log(2.0), math.log(3.0), math.log(5.0)
_SHIFTED_SMOOTH = SequencePair(
    a=_SHIFTED.a,
    b=_SHIFTED.b,
    b_monotone_from=1,
    log_a=lambda u: np.logaddexp(u, _LOG3) + np.log(np.logaddexp(u, _LOG2)),
    log_b=lambda u: 3.0 * u + np.log(np.logaddexp(u, 0.0)),
)
_PLUS5_SMOOTH = SequencePair(
    a=lambda n: n + 5.0,
    b=lambda n: float(n) ** 3,
    log_a=lambda u: np.logaddexp(u, _LOG5),
    log_b=lambda u: 3.0 * u,
)
_LOGFACT_SMOOTH = SequencePair(
    a=_LOGFACT.a,
    b=_LOGFACT.b,
    b_monotone_from=2,
    log_a=log_log_factorial,
    log_b=lambda u: 3.0 * log_log_factorial(u),
)
# a_n = n, b_n = n^3: the power-log series (1, 3, 0, 0, 1) plus its n = 1 term
_CUBIC_SMOOTH = SequencePair(
    a=lambda n: float(n), b=lambda n: float(n) ** 3, log_a=lambda u: 1.0 * u, log_b=lambda u: 3.0 * u
)


def _callbacks_only(seq):
    return replace(seq, log_a=None, log_b=None)


@pytest.mark.parametrize(
    "seq, r, kwargs",
    [
        *[(_SHIFTED_SMOOTH, 10.0**k, dict(rel_tol=1e-6)) for k in (2, 3, 4, 5)],
        *[(_PLUS5_SMOOTH, 10.0**k, dict(rel_tol=1e-7)) for k in (2, 3, 4)],
        *[(_LOGFACT_SMOOTH, 10.0**k, dict(rel_tol=1e-5, n_start=2)) for k in (2, 3, 4, 5, 6)],
    ],
)
def test_general_smooth_agrees_with_the_callback_path(seq, r, kwargs):
    # the thm12 and cor61 inputs of the verify suites
    rel_tol = kwargs["rel_tol"]
    smooth = eval_general(seq, 1.0, r, **kwargs)
    plain = eval_general(_callbacks_only(seq), 1.0, r, **kwargs)
    assert smooth.tail_bound <= rel_tol * smooth.value
    assert abs(smooth.value - plain.value) <= rel_tol * plain.value
    # the callback path returns a partial sum of positive terms, below the total
    assert smooth.value + smooth.tail_bound >= plain.value * (1.0 - 1e-13)
    assert smooth.peak_index == plain.peak_index
    assert smooth.terms_used == 4096 - kwargs.get("n_start", 0)


def test_general_smooth_callbacks_called_once_per_term():
    calls = {"a": 0, "b": 0}

    def counted(name, f):
        def wrapper(n):
            calls[name] += 1
            return f(n)

        return wrapper

    seq = replace(
        _LOGFACT_SMOOTH, a=counted("a", _LOGFACT.a), b=counted("b", _LOGFACT.b)
    )
    res = eval_general(seq, 1.0, 1e4, rel_tol=1e-5, n_start=2)
    assert calls == {"a": res.terms_used, "b": res.terms_used}


@pytest.mark.parametrize("bad_n", [64, 1000, 4095])
def test_general_smooth_form_off_by_1e8_raises_at_its_n(bad_n):
    at = math.log(bad_n)
    seq = replace(
        _PLUS5_SMOOTH, log_a=lambda u: _PLUS5_SMOOTH.log_a(u) + 1e-8 * (u == at)
    )
    with pytest.raises(ContractViolationError, match=f"disagree with the sequences at n={bad_n}:"):
        eval_general(seq, 1.0, 1e3, rel_tol=1e-7)


def test_general_smooth_forms_are_not_compared_below_64():
    # a(63) leaves the smooth form: the head sums it as given
    seq = replace(_PLUS5_SMOOTH, a=lambda n: 1e9 if n == 63 else n + 5.0)
    res = eval_general(seq, 1.0, 1e3, rel_tol=1e-7)
    ref = eval_general(_PLUS5_SMOOTH, 1.0, 1e3, rel_tol=1e-7)
    extra = (1e9 - 68.0) / (63.0**3 + 1e6) ** 2
    assert res.value == pytest.approx(ref.value + extra, rel=1e-14)


def test_general_smooth_head_keeps_the_contract_checks():
    def a(n):
        return math.nan if n == 100 else n + 5.0

    with pytest.raises(ContractViolationError, match="a\\(100\\) = nan"):
        eval_general(replace(_PLUS5_SMOOTH, a=a), 1.0, 1e3)
    # a smooth-form miss at 90 comes before the NaN at 100, and wins
    seq = replace(
        _PLUS5_SMOOTH, a=a, log_a=lambda u: _PLUS5_SMOOTH.log_a(u) + 1e-8 * (u == math.log(90))
    )
    with pytest.raises(ContractViolationError, match="at n=90:"):
        eval_general(seq, 1.0, 1e3)
    nonmonotone = replace(_PLUS5_SMOOTH, b=lambda n: 1.0 if n == 3000 else n**3.0)
    with pytest.raises(ContractViolationError, match="b\\(3000\\) = 1.0 < b\\(2999\\)"):
        eval_general(nonmonotone, 1.0, 1e3)


def test_general_smooth_parameter_errors():
    with pytest.raises(ParameterError, match="both smooth forms"):
        SequencePair(a=_PLUS5_SMOOTH.a, b=_PLUS5_SMOOTH.b, log_a=_PLUS5_SMOOTH.log_a)
    with pytest.raises(ParameterError, match="both smooth forms"):
        SequencePair(a=_PLUS5_SMOOTH.a, b=_PLUS5_SMOOTH.b, log_b=_PLUS5_SMOOTH.log_b)
    env = GeneralEnvelope(2.0, 1.0, 0.0, 1.0, 3.0, 0.0, 4)
    with pytest.raises(ParameterError, match="smooth forms or an envelope"):
        eval_general(_PLUS5_SMOOTH, 1.0, 100.0, envelope=env)


def test_sequence_pair_checks_its_fields():
    """A non-integer start of monotonicity or a non-callable sequence is a
    ParameterError at construction, not a TypeError deep in an evaluator."""
    a, b = _PLUS5_SMOOTH.a, _PLUS5_SMOOTH.b
    with pytest.raises(ParameterError, match="b_monotone_from must be an integer, got 2.5"):
        SequencePair(a, b, b_monotone_from=2.5)
    with pytest.raises(ParameterError, match="b_monotone_from must be an integer"):
        SequencePair(a, b, b_monotone_from="3")
    with pytest.raises(ParameterError, match="a must be callable, got 1.0"):
        SequencePair(1.0, b)
    with pytest.raises(ParameterError, match="b must be callable"):
        SequencePair(a, b=2.0)
    assert SequencePair(a, b, b_monotone_from=-3).b_monotone_from == -3
    assert SequencePair(a, b, b_monotone_from=np.int64(5)).b_monotone_from == 5


def test_general_smooth_peak_past_the_head():
    # the summand peaks at n = 27144: located by bisection, as eval_powerlog does
    r = 1e7
    res = eval_general(_CUBIC_SMOOTH, 1.0, r, rel_tol=1e-8)
    ref = eval_powerlog(PowerLogParams(1, 3, 0, 0, 1), r, rel_tol=1e-12)
    assert res.terms_used == 4096
    assert res.peak_index == ref.peak_index == 27144
    assert res.tail_bound <= 1e-8 * res.value
    assert res.value == pytest.approx(ref.value + 1.0 / (1.0 + r * r) ** 2, rel=1e-12)


def test_general_smooth_doubles_the_head_until_it_certifies():
    # at rel_tol 1e-14 the tail integral's quadrature error is too large from
    # 4096 and 8192, before the summand peak at 27144
    r = 1e7
    res = eval_general(_CUBIC_SMOOTH, 1.0, r, rel_tol=1e-14)
    ref = eval_powerlog(PowerLogParams(1, 3, 0, 0, 1), r, rel_tol=1e-14)
    assert res.terms_used == 16384
    assert res.tail_bound <= 1e-14 * res.value
    assert res.peak_index == ref.peak_index == 27144
    assert res.value == pytest.approx(ref.value + 1.0 / (1.0 + r * r) ** 2, rel=1e-13)
    with pytest.raises(ResourceLimitError) as info:
        eval_general(_CUBIC_SMOOTH, 1.0, r, rel_tol=1e-14, hard_cap=6000)
    assert info.value.bound_achieved > 1e-14 * res.value
    with pytest.raises(ResourceLimitError) as info:  # the head never reaches 4096
        eval_general(_CUBIC_SMOOTH, 1.0, r, rel_tol=1e-8, hard_cap=3000)
    assert info.value.bound_achieved is None


@pytest.mark.parametrize("smooth", [True, False], ids=["eval_general", "eval_powerlog"])
def test_cap_tail_is_integrated_once_per_call(smooth, monkeypatch):
    # a_n = n, b_n = n^3 at r = 1e7, rel_tol 1e-14: the checkpoints at 4096
    # and 8192 do not certify, and each asks the give-up rule, whose tail of
    # the r^2-free summand past the term cap does not depend on the checkpoint
    if smooth:
        evaluate = lambda: eval_general(_CUBIC_SMOOTH, 1.0, 1e7, rel_tol=1e-14)
        cap_from = math.log(series.DEFAULT_GENERAL_CAP)
    else:
        evaluate = lambda: eval_powerlog(PowerLogParams(1, 3, 0, 0, 1), 1e7, rel_tol=1e-14)
        cap_from = math.log(2 + series.DEFAULT_HARD_CAP)
    original = series._log_x_integral
    edges_seen = []

    def counting(log_f, edges):
        edges_seen.extend(edges)
        return original(log_f, edges)

    monkeypatch.setattr(series, "_log_x_integral", counting)
    res = evaluate()
    assert edges_seen.count((cap_from, math.inf)) == 1
    assert res.terms_used == (16384 if smooth else 28672)

    # the same bits as a rule that integrates the cap tail at every checkpoint
    def uncached(log_f_free, end):
        return lambda: series._log_x_integral(log_f_free, [(math.log(end), math.inf)])[0][0]

    edges_seen.clear()
    monkeypatch.setattr(series, "_cap_tail", uncached)
    assert evaluate() == res
    assert edges_seen.count((cap_from, math.inf)) == 2


def test_results_are_python_floats():
    results = [
        eval_powerlog(PowerLogParams(1, 2, 0, 0, 1), 1e3),
        eval_general(_CUBIC_SMOOTH, 1.0, 1e3),
        eval_general(SequencePair(a=lambda n: float(n), b=lambda n: float(n) ** 3), 1.0, 1e3),
        eval_factorial(FactorialParams(1, 2, 1), 1e3),
    ]
    for res in results:
        assert type(res.value) is float and type(res.tail_bound) is float


def test_general_smooth_gives_up_below_the_quadrature_floor():
    # the summand peaks near n = 5.8e5, and the tail past the 1M-term cap
    # still holds over half the value, so the tail integral's error stays
    # ~1e-14 of the value up to the cap: give up at the first checkpoint
    t0 = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="after 4096 terms") as info:
        eval_general(_CUBIC_SMOOTH, 1.0, 1e9, rel_tol=1e-15)
    assert time.perf_counter() - t0 < 1.0
    assert info.value.cap == 1_000_000
    value = eval_general(_CUBIC_SMOOTH, 1.0, 1e9, rel_tol=1e-13).value
    assert info.value.bound_achieved > 1e-15 * value


def test_general_smooth_refuses_rel_tol_below_double_resolution():
    # as eval_powerlog does on the same summand
    with pytest.raises(ResourceLimitError, match="after 4096 terms") as info:
        eval_general(_CUBIC_SMOOTH, 1.0, 1e6, rel_tol=1e-17)
    value = eval_general(_CUBIC_SMOOTH, 1.0, 1e6, rel_tol=1e-13).value
    assert info.value.bound_achieved > 1e-17 * value
    with pytest.raises(ResourceLimitError):
        eval_powerlog(PowerLogParams(1, 3, 0, 0, 1), 1e6, rel_tol=1e-17)


def test_general_value_below_the_smallest_normal_double():
    # every term underflows: a NumericError, not EvalResult(0.0, 0.0, 64, 0)
    with pytest.raises(NumericError, match="smallest normal double"):
        eval_general(_SHIFTED, 300.0, 10.0)
    with pytest.raises(NumericError, match="smallest normal double"):
        eval_general(_SHIFTED_SMOOTH, 300.0, 10.0)


def test_general_term_past_the_double_range():
    # a_0 / (b_0 + r^2)^2 = 1e300 * 1e400: a typed error naming r, not a bare OverflowError
    seq = SequencePair(a=lambda n: 1e300, b=lambda n: float(n) ** 3, b_monotone_from=0)
    with pytest.raises(NumericError, match=r"n=0, r=1e-100 is past the double range"):
        eval_general(seq, 1.0, 1e-100)


# ---------------------------------------------------------------------------
# Generic sequences over a radius grid
# ---------------------------------------------------------------------------


def _loop_outcome(seq, mu, radii, **kwargs):
    """The per-radius loop's results, or the type, message and cap bound of its error."""
    try:
        return [eval_general(seq, mu, r, **kwargs) for r in radii]
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "bound_achieved", None)


def _grid_outcome(seq, mu, radii, **kwargs):
    try:
        return eval_general_grid(seq, mu, radii, **kwargs)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "bound_achieved", None)


def _counting(seq):
    """``seq`` with callbacks that count their calls per n, and the two counters."""
    seen_a, seen_b = Counter(), Counter()

    def counted(f, seen):
        def wrapper(n):
            seen[n] += 1
            return f(n)

        return wrapper

    counted_seq = replace(seq, a=counted(seq.a, seen_a), b=counted(seq.b, seen_b))
    return counted_seq, (seen_a, seen_b)


# a_n = n^(1/2), b_n = n: the summand peaks near n = r^2/3, past the head from r ~ 110
_SQRT_SMOOTH = SequencePair(
    a=lambda n: math.sqrt(n), b=lambda n: float(n), log_a=lambda u: 0.5 * u, log_b=lambda u: 1.0 * u
)

_VERIFY_GRIDS = [  # the radii of the verify suites thm12 and cor61, one grid each
    (_SHIFTED_SMOOTH, [10.0**k for k in (2, 3, 4, 5)], dict(rel_tol=1e-6)),
    (_PLUS5_SMOOTH, [10.0**k for k in (2, 3, 4)], dict(rel_tol=1e-7)),
    (_LOGFACT_SMOOTH, [10.0**k for k in (2, 3, 4, 5, 6)], dict(rel_tol=1e-5, n_start=2)),
]


@pytest.mark.parametrize(
    "seq, radii, kwargs",
    [
        *_VERIFY_GRIDS,
        # the sequence sweep's inputs, which fit their envelopes
        (_LOGFACT, [10.0**k for k in (2, 3, 4, 5, 6)], dict(rel_tol=1e-5, n_start=2)),
        (_SHIFTED, [10.0**k for k in (2, 3, 4, 5)], dict(rel_tol=1e-6)),
        (
            SequencePair(a=lambda n: float(n), b=lambda n: float(n) ** 2),
            [10.0, 3.0, 5.0],
            dict(envelope=_SQUARES_ENVELOPE),
        ),
        # out of order, with a duplicate
        (_SHIFTED_SMOOTH, [1e4, 1e2, 1e5, 1e2, 1e3], dict(rel_tol=1e-6)),
        (_LOGFACT, [1e4, 1e2, 1e4], dict(rel_tol=1e-5, n_start=2)),
        # smooth tails in lockstep: 1e3 certifies at 4096 terms, 1e7 at
        # 16384 and 1e9 at 524288; peaks past the head at 1e4 and 1e6
        (_CUBIC_SMOOTH, [1e7, 1e3, 1e9, 1e3], dict(rel_tol=1e-14)),
        (_CUBIC_SMOOTH, [1e3, 1e7], dict(rel_tol=1e-12)),
        (_SQRT_SMOOTH, [1e4, 30.0, 1e6], dict(rel_tol=1e-9)),
        # envelope stops between the checkpoints, a different n' per radius
        (_SHIFTED, [3e3, 1e2, 1e4, 1e3], dict(rel_tol=1e-6)),
        (
            _RECIPROCAL_SQUARES,
            [30.0, 3.0, 10.0],
            dict(rel_tol=1e-10, envelope=_RECIPROCAL_SQUARES_ENVELOPE),
        ),
        # a_2300 breaches the envelope before r = 1e3 reaches its stop
        (_SHIFTED_BUMP, [3e3, 1e3, 1e2], dict(rel_tol=1e-6)),
    ],
    ids=["thm12-shifted", "thm12-plus5", "cor61", "sweep-logfact", "sweep-shifted",
         "supplied-envelope", "unordered-smooth", "unordered-fitted", "smooth-block-ends",
         "smooth-two-radii", "smooth-far-peaks", "fitted-stops", "supplied-stops",
         "fitted-breach-before-a-stop"],
)
def test_grid_equals_the_per_radius_loop(seq, radii, kwargs):
    results = eval_general_grid(seq, 1.0, radii, **kwargs)
    assert results == _loop_outcome(seq, 1.0, radii, **kwargs)


@pytest.mark.parametrize(
    "seq, radii, kwargs",
    [*_VERIFY_GRIDS[::2], (_LOGFACT, [1e2, 1e4, 1e6], dict(rel_tol=1e-5, n_start=2))],
    ids=["smooth-shifted", "smooth-logfact", "fitted-logfact"],
)
def test_grid_calls_each_callback_once_per_n(seq, radii, kwargs):
    counted, seen = _counting(seq)
    results = eval_general_grid(counted, 1.0, radii, **kwargs)
    n_start = kwargs.get("n_start", 0)
    used = max(res.terms_used for res in results)
    for calls in seen:
        assert sorted(calls) == list(range(n_start, n_start + used))
        assert set(calls.values()) == {1}


# a_n = n, b_n = n^3 with smooth forms, NaN at n = 10000: at rel_tol 1e-14
# r = 1e3 certifies at 4096, r = 1e7 needs 16384 terms, and r = 1e200 is
# below the smallest normal double at 4096
_CUBIC_NAN_AT_10000 = replace(
    _CUBIC_SMOOTH, a=lambda n: math.nan if n == 10000 else float(n)
)


@pytest.mark.parametrize(
    "radii, head",
    [
        ([1e3, 1e7], 10001),  # 1e3 certifies at 4096, 1e7 meets the NaN
        ([1e7, 1e3], 10001),
        ([1e3, 1e3], 4096),  # both certify before the NaN
        ([1e7, 1e200], 10001),  # 1e200 fails at 4096, 1e7 before it is still open
        ([1e200, 1e7], 4096),  # the first radius fails: the rest cannot matter
        ([1e3, 1e200, 1e7], 4096),
    ],
)
def test_grid_raises_the_error_of_the_first_failing_radius(radii, head):
    kwargs = dict(rel_tol=1e-14)
    outcome = _grid_outcome(_CUBIC_NAN_AT_10000, 1.0, radii, **kwargs)
    assert outcome == _loop_outcome(_CUBIC_NAN_AT_10000, 1.0, radii, **kwargs)
    counted, (seen_a, _) = _counting(_CUBIC_NAN_AT_10000)
    _grid_outcome(counted, 1.0, radii, **kwargs)
    # the head grows only while the outcome is open, one callback call per n
    assert sorted(seen_a) == list(range(head))
    assert set(seen_a.values()) == {1}


def test_grid_errors_before_and_between_radii():
    # a bad first radius is reported ahead of a bad rel_tol, as one call does;
    # a bad later radius only once every radius before it has succeeded
    cases = [
        ([-1.0, 1e3], dict(rel_tol=1.0)),
        ([1e3, -1.0, 1e7], dict(rel_tol=1e-14)),
        ([1e3, math.inf], dict(rel_tol=1e-8)),
        ([1e7, -1.0], dict(rel_tol=1e-14)),
        ([1e2, 1e3], dict(rel_tol=1e-8, hard_cap=3000)),
        ([1e3, 1e7], dict(rel_tol=1e-14, hard_cap=6000)),
    ]
    for radii, kwargs in cases:
        outcome = _grid_outcome(_CUBIC_NAN_AT_10000, 1.0, radii, **kwargs)
        assert outcome == _loop_outcome(_CUBIC_NAN_AT_10000, 1.0, radii, **kwargs), radii
        assert isinstance(outcome, tuple), radii
    assert eval_general_grid(_CUBIC_SMOOTH, -1.0, []) == []  # as the loop over no radii


# ---------------------------------------------------------------------------
# Factorial family
# ---------------------------------------------------------------------------


def test_factorial_summand_log_examples():
    assert factorial_summand_log(FactorialParams(1, 1, 0), 1.0, 3) == pytest.approx(
        math.log(6.0 / 7.0), rel=1e-14
    )
    p = FactorialParams(2, 3, 1.5)
    assert factorial_summand_log(p, 7.0, 0) == pytest.approx(
        -(p.mu + 1.0) * math.log(1.0 + 49.0), rel=1e-14
    )
    assert factorial_summand_log(FactorialParams(1, 2, 1), 10.0, 5) == pytest.approx(
        math.log(120.0) - 2.0 * math.log(120.0**2 + 100.0), rel=1e-14
    )


def test_peak_index_examples():
    assert peak_index_n0(2.0, 6.0) == 3
    assert peak_index_n0(1.0, 2.0) == 2
    with pytest.raises(DomainError):
        peak_index_n0(2.0, 0.5)


def test_peak_index_matches_inverse_gamma():
    from mathieu_series.special import inverse_gamma_log

    r = 1e50
    g = inverse_gamma_log(math.log(r))  # x = r^(2/beta) = r for beta = 2
    assert peak_index_n0(2.0, r) == int(math.floor(g)) - 1


@given(
    st.floats(min_value=0.25, max_value=4.0),
    st.floats(min_value=1.0, max_value=1e30),
)
@settings(max_examples=200, deadline=None)
def test_peak_index_bracketing_property(beta, r):
    n0 = peak_index_n0(beta, r)
    target = 2.0 * math.log(r)
    assert beta * log_factorial(n0) <= target < beta * log_factorial(n0 + 1)


def brute_factorial_exact(alpha, beta, mu, r, n_max=40):
    """Exact-rational oracle; needs integer parameters and rational r."""
    r2 = Fraction(r) ** 2
    total = Fraction(0)
    for n in range(n_max):
        f = Fraction(math.factorial(n))
        total += f**alpha / (f**beta + r2) ** (mu + 1)
    return float(total)


def test_factorial_matches_exact_oracle():
    p = FactorialParams(1, 2, 1)
    res = eval_factorial(p, 10.0, rel_tol=1e-12)
    assert res.value == pytest.approx(brute_factorial_exact(1, 2, 1, 10), rel=1e-12)
    assert res.peak_index in (peak_index_n0(2.0, 10.0), peak_index_n0(2.0, 10.0) + 1)


def test_factorial_decreasing_in_r():
    p = FactorialParams(1, 2, 1)
    values = [eval_factorial(p, r, rel_tol=1e-10).value for r in (10.0, 100.0, 1000.0)]
    assert values[0] > values[1] > values[2] > 0


def test_factorial_two_peak_terms_dominate():
    p = FactorialParams(1, 2, 1)
    res = eval_factorial(p, 1e6, rel_tol=1e-13)
    n0 = peak_index_n0(2.0, 1e6)
    two = math.exp(factorial_summand_log(p, 1e6, n0)) + math.exp(
        factorial_summand_log(p, 1e6, n0 + 1)
    )
    # calibrated against the exact oracle: the ratio at r=1e6 is 0.867
    assert two / res.value >= 0.86


def test_factorial_dominance_trend():
    p = FactorialParams(1, 2, 1)
    ratios = []
    for k in range(2, 13, 2):
        r = 10.0**k
        res = eval_factorial(p, r, rel_tol=1e-13)
        n0 = peak_index_n0(2.0, r)
        two = math.exp(factorial_summand_log(p, r, n0)) + math.exp(
            factorial_summand_log(p, r, n0 + 1)
        )
        ratios.append(two / res.value)
    # oscillates with the fractional part; approaches 1 overall
    assert ratios[-1] > ratios[0]
    assert min(ratios) >= 0.75


def test_factorial_tail_certification():
    p = FactorialParams(0.5, 1, 1)
    for r, tol in [(10.0, 1e-8), (1e6, 1e-10)]:
        coarse = eval_factorial(p, r, rel_tol=tol).value
        fine = eval_factorial(p, r, rel_tol=tol / 10).value
        assert abs(fine - coarse) <= tol * coarse


def test_factorial_unrepresentable_value():
    # (1,2,1) at r = 1e150 sums to ~1e-600: not a double, never a silent 0.0
    with pytest.raises(NumericError):
        eval_factorial(FactorialParams(1, 2, 1), 1e150)


def test_factorial_cap_out_of_reach_raises_at_once(monkeypatch):
    # Past the peak the stop rule needs (mu+1) log 2 + (alpha - beta(mu+1)) log(n+1) < 0,
    # first true here at log(n+1) > 55.5: at the default cap of 1e9 terms the
    # loop had run 96 s before it ran out of memory. Now no term is summed.
    from mathieu_series import _core, series

    calls = []
    monkeypatch.setattr(_core, "factorial_summand_log", lambda *args: calls.append(args))
    with pytest.raises(ResourceLimitError, match="exceeded the term cap 1000000000") as info:
        eval_factorial(FactorialParams(2.1676, 0.4199, 4.3203), 1.276e125)
    assert info.value.cap == series.DEFAULT_HARD_CAP and info.value.bound_achieved is None
    assert calls == []


def test_factorial_small_radius_allowed():
    # evaluation tolerates r <= 1 even though the asymptotics do not
    res = eval_factorial(FactorialParams(1, 2, 0.5), 0.5, rel_tol=1e-10)
    assert res.value > 0


def test_factorial_peak_index_is_the_first_maximum():
    # 0! = 1! = 1, so the n = 0 and n = 1 terms tie for the largest
    p = FactorialParams(1, 2, 0)
    assert factorial_summand_log(p, 1.0, 0) == factorial_summand_log(p, 1.0, 1)
    assert eval_factorial(p, 1.0).peak_index == 0


def test_factorial_boundary_tuple_rejected_for_summation():
    # alpha - beta(mu+1) = 0: summands are fine, the series diverges
    boundary = FactorialParams(1, 1, 0)
    assert factorial_summand_log(boundary, 1.0, 3) == pytest.approx(math.log(6.0 / 7.0))
    with pytest.raises(ParameterError):
        eval_factorial(boundary, 1.0)
    with pytest.raises(ParameterError):
        FactorialParams(2, 1, 0)  # strictly divergent exponent is rejected outright


# ---------------------------------------------------------------------------
# Power-series variant
# ---------------------------------------------------------------------------


def test_power_series_x_zero():
    seq = SequencePair(a=lambda n: float(n + 2), b=lambda n: float(n) ** 2, b_monotone_from=0)
    v = eval_power_series(seq, 1.0, 0.0, 10.0)
    assert v == pytest.approx(2.0 / (0.0 + 100.0) ** 2, rel=1e-14)


def test_power_series_geometric_limit():
    seq = SequencePair(a=lambda n: 1.0, b=lambda n: float(n) ** 2, b_monotone_from=0)
    scaled = [r * r * eval_power_series(seq, 0.0, 0.5, r, rel_tol=1e-10) for r in (1e2, 1e3, 1e4)]
    devs = [abs(v - 2.0) for v in scaled]
    assert devs[2] < devs[1] < devs[0]
    assert devs[2] <= 0.01 * 2.0


def test_power_series_linear_factorial_limit():
    seq = SequencePair(a=lambda n: float(n), b=lambda n: math.factorial(n), b_monotone_from=0)
    scaled = [r**4 * eval_power_series(seq, 1.0, 1.0 / 3.0, r, rel_tol=1e-10) for r in (1e2, 1e3, 1e4)]
    devs = [abs(v - 0.75) for v in scaled]
    assert devs[2] < devs[1] < devs[0]
    assert devs[2] <= 0.01 * 0.75


def test_power_series_domain():
    seq = SequencePair(a=lambda n: 1.0, b=lambda n: float(n), b_monotone_from=0)
    with pytest.raises(DomainError):
        eval_power_series(seq, 0.0, 1.0, 10.0)
    with pytest.raises(DomainError):
        eval_power_series(seq, 0.0, -1.5, 10.0)


def test_power_series_non_finite_callback():
    seq = SequencePair(
        a=lambda n: math.nan if n == 50 else 1.0, b=lambda n: float(n) ** 2, b_monotone_from=0
    )
    with pytest.raises(ContractViolationError, match="a\\(50\\)"):
        eval_power_series(seq, 0.0, 0.5, 10.0)
    # b past the float range (a big int, no float form) stays admissible
    big = SequencePair(a=lambda n: 1.0, b=lambda n: 10 ** (300 + n), b_monotone_from=0)
    assert eval_power_series(big, 0.0, 0.5, 10.0) > 0.0
    big = SequencePair(a=lambda n: 1.0, b=lambda n: 10 ** (20 + n), b_monotone_from=0)
    assert eval_power_series(big, 0.0, 0.5, 10.0) > 0.0


def test_power_series_negative_b_is_a_contract_violation():
    seq = SequencePair(a=lambda n: 1.0, b=lambda n: -50.0 if n == 3 else float(n) ** 2)
    with pytest.raises(ContractViolationError, match="b must be nonnegative, b\\(3\\) = -50.0"):
        eval_power_series(seq, 1.0, 0.5, 10.0)
    with pytest.raises(ContractViolationError, match="b\\(0\\) = -1"):
        eval_power_series(SequencePair(a=lambda n: 1.0, b=lambda n: -1), 1.0, 0.0, 10.0)


@pytest.mark.parametrize(
    "b, r",
    [
        (lambda n: 10 ** (300 + n), 1e160),  # subnormal partial sums
        (lambda n: n * n + 1, 1e200),  # every term underflows to 0
        (lambda n: n * n + 1, 1.1e154),  # certified sum 1.7e-308, still subnormal
    ],
    ids=["subnormal", "underflow", "certified-subnormal"],
)
def test_power_series_unrepresentable_value(b, r):
    # a NumericError at once: not a raw ValueError from log(0), not a run to the cap
    seq = SequencePair(a=lambda n: 1.0, b=b, b_monotone_from=0)
    t0 = time.perf_counter()
    with pytest.raises(NumericError, match="smallest normal double"):
        eval_power_series(seq, 0.0, 0.5, r)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("power, cap", [(1e4, 300_000), (-1e4, 10), (1e6, 1000)])
def test_power_series_large_declared_growth_power(power, cap):
    # ((n+1)/n)^p and n^p overflow (or underflow to 0) for |p| this large: the
    # call returns a value or raises a MathieuError, never an OverflowError
    seq = SequencePair(a=lambda n: 1.0, b=lambda n: float(n) ** 2, b_monotone_from=0)
    try:
        value = eval_power_series(seq, 0.0, 0.5, 10.0, growth=(1.0, power), hard_cap=cap)
    except MathieuError:
        return
    assert value == pytest.approx(eval_power_series(seq, 0.0, 0.5, 10.0), rel=1e-10)


def test_power_series_x_zero_unrepresentable_value():
    # the single term 1 / (1 + 1e400)^2 underflows; it used to come back as 0.0
    seq = SequencePair(a=lambda n: 1.0, b=lambda n: n * n + 1, b_monotone_from=0)
    with pytest.raises(NumericError, match="smallest normal double"):
        eval_power_series(seq, 1.0, 0.0, 1e200)


def test_power_series_x_zero_negative_coefficient():
    seq = SequencePair(a=lambda n: -2.0, b=lambda n: float(n) ** 2, b_monotone_from=0)
    assert eval_power_series(seq, 1.0, 0.0, 10.0) == pytest.approx(-2e-4, rel=1e-14)


@pytest.mark.parametrize(
    "growth", [(math.nan, 1.0), (math.inf, 1.0), (-1.0, 1.0), (1.0, math.nan), (1.0, -math.inf)]
)
def test_power_series_rejects_a_malformed_growth_declaration(growth):
    # a ParameterError at once: not a run to the term cap, not a blamed sequence
    seq = SequencePair(a=lambda n: 1.0, b=lambda n: float(n) ** 2, b_monotone_from=0)
    t0 = time.perf_counter()
    with pytest.raises(ParameterError, match="growth"):
        eval_power_series(seq, 0.0, 0.5, 10.0, growth=growth)
    assert time.perf_counter() - t0 < 0.1


def test_power_series_declared_zero_growth_is_a_zero_sum():
    # A = 0 declares every term 0: the sum is 0, known after the first 8 terms
    calls = []
    seq = SequencePair(a=lambda n: calls.append(n) or 0.0, b=lambda n: float(n) ** 2)
    t0 = time.perf_counter()
    with pytest.raises(NumericError, match="after 8 terms"):
        eval_power_series(seq, 0.0, 0.5, 10.0, growth=(0.0, 1.0))
    assert time.perf_counter() - t0 < 0.1
    assert calls == list(range(8))
    # a nonzero term breaks that declaration
    seq = SequencePair(a=lambda n: float(n == 3), b=lambda n: float(n) ** 2)
    with pytest.raises(ContractViolationError, match="n=3"):
        eval_power_series(seq, 0.0, 0.5, 10.0, growth=(0.0, 1.0))


def test_power_series_slow_geometric_is_linear_time():
    # x = 0.995 needs ~8000 terms; a full re-sum per term made this quadratic
    seq = SequencePair(a=lambda n: 1.0, b=lambda n: float(n) ** 2, b_monotone_from=0)
    t0 = time.perf_counter()
    value = eval_power_series(seq, 0.0, 0.995, 1.0, rel_tol=1e-10)
    assert time.perf_counter() - t0 < 2.0
    oracle = math.fsum(0.995**n / (n * n + 1.0) for n in range(20000))
    assert value == pytest.approx(oracle, rel=1e-10)



def reference_eval_power_series(s, mu, x, r, rel_tol=1e-10, growth=None, hard_cap=10**6):
    """eval_power_series as a per-term loop: one a_n and b_n at a time, with the
    contract checked per n. Arguments are taken as valid."""
    declared = growth is not None
    g_coeff, g_pow = growth if declared else (0.0, 8.0)
    log_r2 = 2.0 * math.log(r)
    mu1 = mu + 1.0
    log_den = mu1 * log_r2
    total = []
    running, compensation = 0.0, 0.0
    xn = 1.0
    b_prev = None
    n = 0
    while n < hard_cap:
        a_n = float(s.a(n))
        b_n = s.b(n)
        if not math.isfinite(a_n) or b_n != b_n or abs(b_n) == math.inf:
            raise ContractViolationError(
                f"sequences must be finite, got a({n}) = {a_n}, b({n}) = {b_n}"
            )
        if b_n < 0:
            raise ContractViolationError(f"sequence b must be nonnegative, b({n}) = {b_n}")
        if n >= s.b_monotone_from:
            if b_prev is not None and b_n < b_prev:
                raise ContractViolationError(
                    f"sequence b must be nondecreasing from {s.b_monotone_from}, "
                    f"but b({n}) = {b_n} < b({n - 1}) = {b_prev}"
                )
            b_prev = b_n
        try:
            norm = abs(a_n) / max(n, 1) ** g_pow
        except (OverflowError, ZeroDivisionError):
            norm = series._over_power(abs(a_n), n, g_pow)
        if declared:
            if norm > g_coeff * (1.0 + 1e-12):
                raise ContractViolationError(
                    f"declared growth envelope violated at n={n}: |a| = {abs(a_n)}"
                )
        else:
            g_coeff = max(g_coeff, 2.0 * norm)
        log_den_n = mu1 * _logaddexp(math.log(b_n) if b_n > 0 else -math.inf, log_r2)
        term_mag = math.exp(math.log(abs(a_n)) - log_den_n) * abs(xn) if a_n else 0.0
        term = math.copysign(term_mag, a_n * xn) if term_mag else 0.0
        total.append(term)
        t = running + term
        if abs(running) >= abs(term):
            compensation += (running - t) + term
        else:
            compensation += (term - t) + running
        running = t
        if n >= s.b_monotone_from:
            log_den = log_den_n
        xn *= x
        n += 1
        if x == 0.0 or (n >= 8 and declared and g_coeff == 0.0):
            log_tail = -math.inf
        elif n < 8 or g_coeff == 0.0:
            continue
        else:
            try:
                q = abs(x) * ((n + 1.0) / n) ** g_pow
            except OverflowError:
                continue
            if q >= 1.0:
                continue
            log_tail = (
                math.log(g_coeff)
                + g_pow * math.log(n)
                + n * math.log(abs(x))
                - log_den
                - math.log1p(-q)
            )
        partial = abs(running + compensation)
        log_partial = math.log(partial) if partial > 0.0 else -math.inf
        negligible = max(log_partial, log_tail) < math.log(0.5 * sys.float_info.min)
        if log_tail <= math.log(rel_tol) + log_partial or negligible:
            value = math.fsum(total)
            if negligible or abs(value) < sys.float_info.min:
                raise NumericError(
                    f"eval_power_series value at r={r} is below the smallest "
                    f"normal double (after {n} terms)"
                )
            return value
    raise ResourceLimitError(f"eval_power_series exceeded the term cap {hard_cap}")


def _outcome(f, *args, **kwargs):
    try:
        return f(*args, **kwargs)
    except MathieuError as exc:
        return type(exc), str(exc)


_ONES_SQUARES = SequencePair(a=lambda n: 1.0, b=lambda n: float(n) ** 2, b_monotone_from=0)
_LINEAR_FACTORIAL = SequencePair(
    a=lambda n: float(n), b=lambda n: math.factorial(n), b_monotone_from=0
)


def _bad_at(k, what):
    """ones-squares with a NaN a_k or b_k, or b_k below b_(k-1)."""
    return SequencePair(
        a=lambda n: math.nan if (what, n) == ("a", k) else 1.0,
        b=lambda n: {("b", k): math.nan, ("drop", k): 1.0}.get((what, n), float(n) ** 2),
    )


_POWER_SERIES_CASES = [
    *[
        (seq, mu, x, r, dict(growth=growth))
        for seq, mu, growth in (
            (_ONES_SQUARES, 0.0, None),
            (_ONES_SQUARES, 0.0, (1.0, 0.0)),
            (_LINEAR_FACTORIAL, 1.0, None),
            (_LINEAR_FACTORIAL, 1.0, (1.0, 1.0)),
        )
        for x in (0.5, 0.9, 0.99, -0.7, 1.0 / 3.0, 0.01, 0.0)
        for r in (0.5, 10.0, 1e3)
    ],
    # contract breaches at and around the block edges 8, 16 and 512; at x = 0.5
    # the sum stops before the late ones and never sees them
    *[
        (_bad_at(k, what), 0.0, x, 10.0, {})
        for k in (7, 8, 15, 16, 511, 512)
        for what in ("a", "b", "drop")
        for x in (0.5, 0.99)
    ],
    # a declared-growth breach mid-block, before and after a NaN in the same block
    *[
        (
            SequencePair(
                a=lambda n, k=k: 5.0 if n == 300 else math.nan if n == k else 1.0,
                b=_ONES_SQUARES.b,
            ),
            0.0,
            0.99,
            10.0,
            dict(growth=(1.0, 0.0)),
        )
        for k in (290, 310)
    ],
    # b is checked from b_monotone_from on only
    (replace(_bad_at(9, "drop"), b_monotone_from=10), 0.0, 0.99, 10.0, {}),
    (SequencePair(a=lambda n: 1.0, b=lambda n: 10 ** (300 + n)), 0.0, 0.5, 10.0, {}),
    (SequencePair(a=lambda n: 0.0, b=_ONES_SQUARES.b), 0.0, 0.5, 10.0, dict(growth=(0.0, 1.0))),
    *[(_ONES_SQUARES, 0.0, 0.99, 10.0, dict(hard_cap=cap)) for cap in (7, 8, 9, 100, 513)],
]


def test_power_series_blocks_match_per_term_reference():
    for seq, mu, x, r, kwargs in _POWER_SERIES_CASES:
        got = _outcome(eval_power_series, seq, mu, x, r, **kwargs)
        assert got == _outcome(reference_eval_power_series, seq, mu, x, r, **kwargs), (x, r, kwargs)


@pytest.mark.parametrize("x", [1.0 / 3.0, 0.5, 0.9, 0.99])
@pytest.mark.parametrize("rel_tol", [1e-3, 1e-6, 1e-10])
def test_power_series_declared_growth_bound_covers_the_first_omitted_term(x, rel_tol):
    # the tail bound must include m = n: with A = 1, p = 0 it is then the exact tail
    seq = SequencePair(a=lambda n: 1.0, b=lambda n: 0.0, b_monotone_from=0)
    value = eval_power_series(seq, 0.0, x, 1.0, rel_tol=rel_tol, growth=(1.0, 0.0))
    assert abs(value - 1.0 / (1.0 - x)) <= rel_tol / (1.0 - x)


_INVERSE_SQUARES = SequencePair(a=lambda n: 1.0 / max(n, 1) ** 2, b=lambda n: 0.0)


@functools.cache
def _inverse_squares_sum(x):
    return math.fsum(x**n / max(n, 1) ** 2 for n in range(200_000))


@pytest.mark.parametrize("x", [0.9, 0.99, 0.999])
@pytest.mark.parametrize("rel_tol", [1e-3, 1e-6, 1e-10])
def test_power_series_declared_negative_growth_power_bounds_the_tail(x, rel_tol):
    # with p < 0 the ratio of A m^p |x|^m tends to |x| from below, so the
    # geometric sum needs ratio |x|, not |x| ((n+1)/n)^p; the latter missed
    # rel_tol by up to 1.58x at x = 0.999
    value = eval_power_series(_INVERSE_SQUARES, 0.0, x, 1.0, rel_tol=rel_tol, growth=(1.0, -2.0))
    exact = _inverse_squares_sum(x)
    assert abs(value - exact) <= rel_tol * exact


def test_power_series_tail_bound_uses_monotone_b():
    # b_n = n! certifies soon after the peak; a bound with r^2 alone in the
    # denominator waited for 0.99^n and summed ~9,300 terms of growing big ints
    calls = []
    seq = SequencePair(
        a=lambda n: float(n), b=lambda n: calls.append(n) or math.factorial(n), b_monotone_from=0
    )
    t0 = time.perf_counter()
    value = eval_power_series(seq, 1.0, 0.99, 1e3, rel_tol=1e-8)
    assert time.perf_counter() - t0 < 1.0
    assert len(calls) <= 1100
    x = Fraction(0.99)
    exact = math.fsum(
        float(n * x**n / Fraction(math.factorial(n) + 10**6) ** 2) for n in range(200)
    )
    assert value == pytest.approx(exact, rel=1e-8)


@pytest.mark.parametrize("x", [-0.7, 0.7])
def test_power_series_signed_coefficients(x):
    seq = SequencePair(a=lambda n: (-1.0) ** n * (n + 1.0), b=lambda n: float(n) ** 2)
    value = eval_power_series(seq, 1.0, x, 3.0, rel_tol=1e-10)
    brute = math.fsum((-1.0) ** n * (n + 1.0) * x**n / (n * n + 9.0) ** 2 for n in range(400))
    assert value == pytest.approx(brute, rel=1e-10)


def _radius_calls():
    from mathieu_series import asymptotics, dirichlet

    fp = FactorialParams(1, 2, 1)
    pl = PowerLogParams(1, 2, 0, 0, 1)
    seq = SequencePair(a=lambda n: 1.0, b=lambda n: float(n) ** 2)
    return [
        (lambda: eval_powerlog(pl, 1.0), "eval_powerlog requires r > 1, got 1.0"),
        (lambda: eval_general(seq, 1.0, 0.0), "eval_general requires r > 0, got 0.0"),
        (
            lambda: factorial_summand_log(fp, -1.0, 3),
            "factorial_summand_log requires r > 0, got -1.0",
        ),
        (lambda: peak_index_n0(2.0, 0.5), "peak_index_n0 requires r >= 1, got 0.5"),
        (lambda: eval_factorial(fp, math.inf), "eval_factorial requires r > 0, got inf"),
        (
            lambda: eval_power_series(seq, 1.0, 0.5, math.nan),
            "eval_power_series requires r > 0, got nan",
        ),
        (
            lambda: asymptotics.predict_powerlog(pl, 2),
            "the leading-order law requires r > e, got 2.0",
        ),
        (
            lambda: asymptotics.factorial_diagnostics(fp, 5.0),
            "factorial_diagnostics requires r >= 10, got 5.0",
        ),
        (
            lambda: asymptotics.two_term_estimate(fp, 0.5),
            "two_term_estimate requires r >= 1, got 0.5",
        ),
        (
            lambda: asymptotics.factorial_envelope(fp, 50.0, 0.1),
            "factorial_envelope requires r >= 100, got 50.0",
        ),
        (
            lambda: asymptotics.factorial_upper_bound(fp, 50.0, 0.1),
            "factorial_upper_bound requires r >= 100, got 50.0",
        ),
        (
            lambda: asymptotics.eval_classical_expansion(2.0, 1.0),
            "eval_classical_expansion requires r > 1, got 1.0",
        ),
        (
            lambda: dirichlet.saddle_point_bound(fp, 9.5),
            "saddle_point_bound requires r >= 10, got 9.5",
        ),
    ]


def test_radius_checks_share_one_message_form():
    # one helper raises all of these; the messages are the ones each function had
    for call, message in _radius_calls():
        with pytest.raises(DomainError) as err:
            call()
        assert str(err.value) == message


_CAP_CALLS = {
    "eval_powerlog": lambda cap: eval_powerlog(PowerLogParams(1, 2, 0, 0, 1), 10.0, hard_cap=cap),
    "eval_powerlog_grid": lambda cap: eval_powerlog_grid(
        PowerLogParams(1, 2, 0, 0, 1), [10.0, 1e3], hard_cap=cap
    ),
    "eval_general": lambda cap: eval_general(_CUBES, 1.0, 10.0, hard_cap=cap),
    "eval_general_grid": lambda cap: eval_general_grid(_CUBES, 1.0, [10.0, 1e3], hard_cap=cap),
    "eval_power_series": lambda cap: eval_power_series(_CUBES, 1.0, 0.5, 10.0, hard_cap=cap),
    "eval_factorial": lambda cap: eval_factorial(FactorialParams(1, 2, 1), 10.0, hard_cap=cap),
}


@pytest.mark.parametrize("evaluate", list(_CAP_CALLS.values()), ids=list(_CAP_CALLS))
def test_every_evaluator_rejects_a_term_cap_that_is_not_a_positive_int(evaluate):
    # each used to fail its own way: a bare ValueError from math.log, a
    # TypeError, a ResourceLimitError naming the cap, or a result from the tail
    for cap in (-5, 0, 2.5, True, "3", None):
        with pytest.raises(ParameterError, match="hard_cap must be an integer >= 1"):
            evaluate(cap)
    assert evaluate(np.int64(100_000)) == evaluate(100_000)


def test_a_bad_term_cap_is_the_outcome_of_each_point_past_its_radius_check():
    p = PowerLogParams(1, 2, 0, 0, 1)
    outcomes = series._powerlog_outcomes([(p, 10.0), (p, 1.0), (p, 1e3)], 1e-8, -5)
    assert [type(o) for o in outcomes] == [ParameterError, DomainError, ParameterError]
