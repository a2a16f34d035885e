"""Special-function floor: log-gamma, Lambert W, Bernoulli, inverse gamma."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mathieu_series import _special_rest, special
from mathieu_series.errors import CapacityError, DomainError, NumericError, ParameterError
from mathieu_series.special import (
    bernoulli_table,
    digamma,
    inverse_gamma,
    inverse_gamma_log,
    inverse_gamma_seed,
    lambert_w,
    log_abs_gamma,
    log_factorial,
    log_gamma,
    log_log_factorial,
    zeta_neg_odd,
)


# ---------------------------------------------------------------------------
# log_gamma / log_factorial
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "x,expected",
    [(1.0, 0.0), (5.0, math.log(24.0)), (0.5, 0.5 * math.log(math.pi))],
)
def test_log_gamma_exact_points(x, expected):
    assert log_gamma(x) == pytest.approx(expected, rel=1e-14, abs=1e-15)


def test_log_gamma_accuracy_grid():
    # moderate range: rel error <= 1e-14 against mpmath
    for x in np.geomspace(1e-3, 1e6, 40):
        ref = float(mpmath.loggamma(mpmath.mpf(float(x))))
        assert log_gamma(float(x)) == pytest.approx(ref, rel=1e-14, abs=5e-16)
    # large-argument branch: rel error <= 1e-13
    for x in (1e7, 1e20, 1e100, 1e300):
        ref = float(mpmath.loggamma(mpmath.mpf(x)))
        assert log_gamma(x) == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_log_gamma_domain(bad):
    with pytest.raises(DomainError):
        log_gamma(bad)


def test_log_gamma_past_the_double_range_is_a_numeric_error():
    # log Gamma(1.7e308) ~ 1.2e311: a bare OverflowError from math.lgamma before
    with pytest.raises(NumericError, match="past the double range"):
        log_gamma(1.7e308)


@pytest.mark.parametrize("n", [1.7e308, 10**306], ids=["float", "int"])
def test_log_factorial_past_the_double_range_is_a_numeric_error(n):
    # log n! overflows from n ~ 2.5e305 on: a bare OverflowError before
    with pytest.raises(NumericError, match="past the double range"):
        log_factorial(n)


def test_log_factorial_small_and_large():
    assert log_factorial(0) == 0.0
    assert log_factorial(3) == pytest.approx(math.log(6.0), rel=1e-15)
    exact = math.factorial(170)
    # compare against the exact big integer through its logarithm
    ref = Fraction(exact)
    assert log_factorial(170) == pytest.approx(math.log(ref), rel=1e-13)
    with pytest.raises(DomainError):
        log_factorial(-1)


def test_log_factorial_int_fast_path_is_bit_identical():
    # a plain int above 20 skips the checks; numpy ints and floats take them
    for n in range(5001):
        expected = math.lgamma(n + 1.0) if n > 20 else math.log(math.factorial(n))
        assert log_factorial(n) == log_factorial(np.int64(n)) == log_factorial(float(n))
        assert log_factorial(n) == expected, n
    for bad in (-1, -21, -1000, np.int64(-30), -0.5):
        with pytest.raises(DomainError):
            log_factorial(bad)


@pytest.mark.parametrize(
    "bad", [2.5, 25.7, np.float64(3.5), math.nan, math.inf, -math.inf, np.float64(math.nan)]
)
def test_log_factorial_rejects_what_is_not_an_integer(bad):
    # 2.5 and 25.7 must not come back as log 2! and log 25!
    with pytest.raises(DomainError, match="requires an integer n >= 0"):
        log_factorial(bad)


def test_log_factorial_takes_integral_floats_and_numpy_integers():
    for n in (0, 7, 20, 21, 30, 10**6):
        assert log_factorial(n) == log_factorial(np.float64(n)) == log_factorial(np.int32(n))


def test_log_log_factorial_matches_mpmath():
    # the range it is used on: x >= 64 (verify's log-factorial sequences) and x >= 1e4
    ns = np.unique(np.geomspace(64, 1e6, 300).astype(np.int64))
    got = log_log_factorial(np.log(ns.astype(np.float64)))
    with mpmath.workdps(40):
        exact = [mpmath.log(mpmath.loggamma(int(n) + 1)) for n in ns]
    worst = max(abs(float(g - e)) for g, e in zip(got.tolist(), exact))
    assert worst <= 1e-14
    # one expression for floats and arrays
    assert log_log_factorial(math.log(1000.0)) == pytest.approx(
        math.log(math.lgamma(1001.0)), abs=1e-15
    )


# ---------------------------------------------------------------------------
# Lambert W
# ---------------------------------------------------------------------------


def _lambert_fixed_point_oracle():
    # fixed-point iteration on w = exp(-w), the w e^w = 1 equation
    w = 0.5
    for _ in range(200):
        w = math.exp(-w)
    return w


def test_lambert_w_examples():
    assert lambert_w(0.0) == 0.0
    assert lambert_w(math.e) == pytest.approx(1.0, rel=1e-14)
    assert lambert_w(1.0) == pytest.approx(_lambert_fixed_point_oracle(), rel=1e-14)


def test_lambert_w_domain():
    with pytest.raises(DomainError):
        lambert_w(-1.0)
    with pytest.raises(DomainError):
        lambert_w(-0.3678794411714424)  # just below -1/e


def test_lambert_identity_grid():
    for z in np.geomspace(1e-6, 1e12, 60):
        w = lambert_w(float(z))
        assert abs(w * math.exp(w) - z) <= 1e-13 * max(1.0, z)
    for z in np.linspace(-1.0 / math.e + 1e-6, -1e-6, 25):
        w = lambert_w(float(z))
        assert abs(w * math.exp(w) - z) <= 1e-13
        assert w >= -1.0


@given(st.floats(min_value=-1.0 / math.e + 1e-6, max_value=1e12))
@settings(max_examples=200, deadline=None)
def test_lambert_identity_property(z):
    w = lambert_w(z)
    assert w >= -1.0
    assert abs(w * math.exp(w) - z) <= 1e-13 * max(1.0, abs(z))


# ---------------------------------------------------------------------------
# Bernoulli numbers and zeta at negative odd integers
# ---------------------------------------------------------------------------


def _akiyama_tanigawa(n):
    """Independent Bernoulli oracle (first kind; B_1 = -1/2 flipped to +)."""
    a = [Fraction(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        out.append(a[0])
    # Akiyama-Tanigawa yields B_1 = +1/2; even indices are convention-free.
    return out


def test_bernoulli_against_independent_oracle():
    table = bernoulli_table(64)
    oracle = _akiyama_tanigawa(64)
    for k in range(33):
        assert table.bernoulli(2 * k) == oracle[2 * k]


def test_bernoulli_recurrence_invariant():
    # sum_{j=0}^{m} C(m+1, j) B_j = 0 for 2 <= m <= 64, with B_1 = -1/2.
    table = bernoulli_table(64)

    def bern(j):
        if j == 0:
            return Fraction(1)
        if j == 1:
            return Fraction(-1, 2)
        if j % 2 == 1:
            return Fraction(0)
        return table.bernoulli(j)

    for m in range(2, 65):
        total = sum(math.comb(m + 1, j) * bern(j) for j in range(m + 1))
        assert total == 0


def test_zeta_neg_odd_exact_values():
    assert zeta_neg_odd(0) == Fraction(-1, 12)
    assert zeta_neg_odd(1) == Fraction(1, 120)
    assert zeta_neg_odd(2) == Fraction(-1, 252)


def test_zeta_neg_odd_capacity():
    with pytest.raises(CapacityError) as err:
        zeta_neg_odd(32)  # needs Bernoulli index 66
    assert "66" in str(err.value)


@pytest.mark.parametrize("k", [0.0, 1.5, True])
def test_zeta_neg_odd_rejects_what_is_not_an_integer(k):
    # 0.0 raised a bare TypeError from the table lookup, 1.5 a DomainError for
    # the odd Bernoulli index 5, and True read as k = 1
    with pytest.raises(ParameterError, match="k must be an integer"):
        zeta_neg_odd(k)


# ---------------------------------------------------------------------------
# Digamma
# ---------------------------------------------------------------------------


def test_digamma_coefficients_are_the_bernoulli_values():
    # written as literals so that importing special loads no fractions
    expected = tuple(float(b) / (2 * k) for k, b in enumerate(bernoulli_table(16).values) if k)
    assert special._DIGAMMA_COEFFS == expected


def test_digamma_matches_mpmath():
    # both sides of the x = 10 switch to the asymptotic series, and large x
    grid = [*np.linspace(2.0, 12.0, 101), *np.geomspace(2.0, 1e12, 61)]
    grid += [2.0 + 1e-9, 10.0 - 1e-9, 10.0 + 1e-9, 1e6 + 0.5]
    with mpmath.workdps(30):
        for g in grid:
            ref = mpmath.digamma(mpmath.mpf(float(g)))
            assert abs(digamma(float(g)) - ref) <= 1e-13 * abs(ref), g


@pytest.mark.parametrize("bad", [0.0, -2.5, math.inf, math.nan])
def test_digamma_domain(bad):
    with pytest.raises(DomainError):
        digamma(bad)


# ---------------------------------------------------------------------------
# log |Gamma(x + iy)|
# ---------------------------------------------------------------------------

_LOG_ABS_GAMMA_X = [1e-3, 0.05, 0.5, 1.0, 1.43, 2.0, 7.9, 8.0, 10.0, 50.0]
_LOG_ABS_GAMMA_Y = [0.0, 1e-3, -1e-3, 0.5, 1.0, 3.0, 10.0, 32.0, 1e3, 1e6]


def _log_abs_gamma_exact(x, y):
    with mpmath.workdps(30):
        return mpmath.loggamma(mpmath.mpc(x, y)).real


@pytest.mark.parametrize("x", _LOG_ABS_GAMMA_X)
def test_log_abs_gamma_matches_mpmath(x):
    # both sides of the shift to real part 8, near the pole at 0, far up the line
    for y in _LOG_ABS_GAMMA_Y:
        exact = _log_abs_gamma_exact(x, y)
        got = log_abs_gamma(x, y)
        assert abs(got - exact) <= 4e-15 * max(1.0, abs(exact)), (x, y)


def test_log_abs_gamma_broadcasts():
    # one call on a column of real parts and a row of y, as the gamma-line
    # integrand makes it; every element takes the shift of the smallest x,
    # which adds up to eight more rounded logs
    x = np.array(_LOG_ABS_GAMMA_X)[:, None]
    got = log_abs_gamma(x, np.array(_LOG_ABS_GAMMA_Y))
    assert got.shape == (len(_LOG_ABS_GAMMA_X), len(_LOG_ABS_GAMMA_Y))
    for i, xi in enumerate(_LOG_ABS_GAMMA_X):
        for j, y in enumerate(_LOG_ABS_GAMMA_Y):
            exact = _log_abs_gamma_exact(xi, y)
            assert abs(got[i, j] - exact) <= 1e-14 * max(1.0, abs(exact)), (xi, y)


# ---------------------------------------------------------------------------
# Inverse gamma
# ---------------------------------------------------------------------------


def test_inverse_gamma_examples():
    assert inverse_gamma(2.0) == pytest.approx(3.0, rel=1e-12)
    assert inverse_gamma(24.0) == pytest.approx(5.0, rel=1e-12)
    x = math.exp(log_gamma(41.25))
    assert inverse_gamma(x) == pytest.approx(41.25, abs=1e-10)
    with pytest.raises(DomainError):
        inverse_gamma(1.9)


def test_inverse_gamma_roundtrip_grid():
    # geometric grid over [2, 1e300], log-space residual <= 1e-12
    for log_x in np.linspace(math.log(2.0), math.log(1e300), 50):
        g = inverse_gamma_log(float(log_x))
        assert abs(math.lgamma(g) - log_x) <= 1e-12


def test_inverse_gamma_unchanged_by_own_digamma(monkeypatch):
    # the Newton step took scipy's digamma before; its results must not move
    from scipy.special import digamma as scipy_digamma

    grid = [float(x) for x in np.linspace(math.log(2.0), math.log(1e300), 50)]
    ours = [inverse_gamma_log(x) for x in grid]
    # inverse_gamma_log reads digamma where it is defined, not through special
    monkeypatch.setattr(_special_rest, "digamma", lambda g: float(scipy_digamma(g)))
    for log_x, g in zip(grid, ours):
        assert abs(inverse_gamma_log(log_x) - g) <= 1e-15 * g


def test_inverse_gamma_that_misses_its_tolerance_is_a_numeric_error(monkeypatch):
    # Newton steps that barely move g: no bisection takes over any more
    monkeypatch.setattr(_special_rest, "digamma", lambda g: 1e300)
    with pytest.raises(NumericError, match="failed to converge at log_x=10.0"):
        inverse_gamma_log(10.0)


def test_inverse_gamma_monotone():
    grid = [inverse_gamma_log(float(lx)) for lx in np.linspace(math.log(2.0), 600.0, 80)]
    assert all(b > a for a, b in zip(grid, grid[1:]))


def test_inverse_gamma_seed_identity_and_quality():
    s = inverse_gamma_seed(1234.5)
    # u0 log u0 - u0 = log v, to 8 units of rounding on log v
    lhs = s.u0 * math.log(s.u0) - s.u0
    assert abs(lhs - math.log(s.v)) <= 8 * 2.3e-16 * max(1.0, abs(math.log(s.v)))
    assert s.seed > 2.0
    assert inverse_gamma_seed(2.0).seed > 2.0  # left edge of the domain

    errors = []
    for n in (10, 20, 40, 80, 100):
        x_log = log_gamma(float(n))
        seed = inverse_gamma_seed(math.exp(x_log)).seed
        errors.append(abs(inverse_gamma_log(x_log) - seed))
    assert errors == sorted(errors, reverse=True)
    assert errors[1] <= 0.5  # |seed - 20| at x = Gamma(20)
    assert errors[3] <= 1e-2  # error at x = Gamma(80)
    assert errors[4] < errors[1]  # Gamma(100) beats Gamma(20)
    with pytest.raises(DomainError):
        inverse_gamma_seed(1.0)


# ---------------------------------------------------------------------------
# Names defined in _special_rest, read through special
# ---------------------------------------------------------------------------

# special defines these itself: the scalar core reads log_factorial there.
_OWN = {"log_gamma", "log_factorial"}
# Private names that other modules and the tests read through special.
_PRIVATE_READ = {"_DIGAMMA_COEFFS", "_INTEGER_DETECTION_TOL"}


def _defined_in_rest() -> set[str]:
    """The globals that _special_rest defines, not those it imports."""
    home = _special_rest.__name__
    return {
        name
        for name, value in vars(_special_rest).items()
        if not name.startswith("__")
        and not isinstance(value, type(math))
        and getattr(value, "__module__", home) == home
    }


def test_forwarded_names_are_the_defining_modules_objects():
    import mathieu_series

    assert set(special._ELSEWHERE) == _defined_in_rest()
    assert set(special.__all__) - _OWN | _PRIVATE_READ <= special._ELSEWHERE
    for name in special._ELSEWHERE:
        assert getattr(special, name) is getattr(_special_rest, name), name
        assert name not in vars(special), name  # looked up there on every read
    for name in _OWN:
        assert name in vars(special) and not hasattr(_special_rest, name), name
    star = {}
    exec("from mathieu_series.special import *", star)
    assert {name: star[name] for name in special.__all__} == {
        name: getattr(special, name) for name in special.__all__
    }
    for name in mathieu_series._EXPORTS:
        if mathieu_series._EXPORTS[name] == "special":
            assert getattr(mathieu_series, name) is getattr(special, name), name


def test_dir_lists_the_forwarded_names():
    assert special._ELSEWHERE | set(special.__all__) | _PRIVATE_READ <= set(dir(special))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'mathieu_series.special' has no attribute 'nope'"):
        special.nope
    assert not hasattr(special, "np")  # _special_rest's numpy handle is not forwarded


@pytest.mark.parametrize("index", [4.0, True, "4"])
def test_bernoulli_index_must_be_an_integer(index):
    # 4.0 indexed the stored tuple with a float: a bare TypeError
    with pytest.raises(ParameterError, match="index must be an integer"):
        bernoulli_table(8).bernoulli(index)
