"""Series evaluators against brute-force and exact-rational oracles."""

import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mathieu_series.errors import (
    ContractViolationError,
    DomainError,
    NumericError,
    ParameterError,
    ResourceLimitError,
)
from mathieu_series.series import (
    FactorialParams,
    GeneralEnvelope,
    PowerLogParams,
    SequencePair,
    eval_factorial,
    eval_general,
    eval_power_series,
    eval_powerlog,
    factorial_summand_log,
    peak_index_n0,
)
from mathieu_series.special import log_factorial


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


def test_factorial_small_radius_allowed():
    # evaluation tolerates r <= 1 even though the asymptotics do not
    res = eval_factorial(FactorialParams(1, 2, 0.5), 0.5, rel_tol=1e-10)
    assert res.value > 0


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


def test_power_series_slow_geometric_is_linear_time():
    # x = 0.995 needs ~8000 terms; a full re-sum per term made this quadratic
    seq = SequencePair(a=lambda n: 1.0, b=lambda n: float(n) ** 2, b_monotone_from=0)
    t0 = time.perf_counter()
    value = eval_power_series(seq, 0.0, 0.995, 1.0, rel_tol=1e-10)
    assert time.perf_counter() - t0 < 2.0
    oracle = math.fsum(0.995**n / (n * n + 1.0) for n in range(20000))
    assert value == pytest.approx(oracle, rel=1e-10)
