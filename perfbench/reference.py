"""High-precision references for the benchmark's correctness checks.

Direct mpmath summation at 40 significant digits, used where it is cheap:
the factorial family and power series with a geometric factor. Both sums
are stopped once the next term, times a geometric bound on everything
after it, falls below 1e-36 of the partial sum.
"""

from __future__ import annotations

import mpmath

_DPS = 40
_EPS = mpmath.mpf("1e-36")
_MAX_TERMS = 200_000


def factorial_series(alpha: float, beta: float, mu: float, r: float) -> float:
    """Sum over n >= 0 of (n!)^alpha / ((n!)^beta + r^2)^(mu+1)."""
    with mpmath.workdps(_DPS):
        a, b, e = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(mu) + 1
        r2 = mpmath.mpf(r) ** 2
        total = mpmath.mpf(0)
        prev = None
        for n in range(_MAX_TERMS):
            f = mpmath.factorial(n)
            term = f**a / (f**b + r2) ** e
            total += term
            # Past the peak the ratio of successive terms shrinks with n.
            if prev is not None and term < prev and term * 2 < _EPS * total:
                return float(total)
            prev = term
    raise RuntimeError("factorial reference did not converge")


def power_series(a, b, mu: float, x: float, r: float) -> float:
    """Sum over n >= 0 of a(n) x^n / (b(n) + r^2)^(mu+1), 0 < x < 1.

    ``a`` and ``b`` return exact numbers (ints or floats); ``a`` must be
    nonnegative and grow at most polynomially, ``b`` must be nondecreasing.
    """
    with mpmath.workdps(_DPS):
        xm, e = mpmath.mpf(x), mpmath.mpf(mu) + 1
        r2 = mpmath.mpf(r) ** 2
        total = mpmath.mpf(0)
        xn = mpmath.mpf(1)
        for n in range(_MAX_TERMS):
            term = mpmath.mpf(a(n)) * xn / (mpmath.mpf(b(n)) + r2) ** e
            total += term
            xn *= xm
            if n >= 16 and 2 * term / (1 - xm) < _EPS * total:
                return float(total)
    raise RuntimeError("power-series reference did not converge")
