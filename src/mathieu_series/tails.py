"""Tail sums and tail integrals for slowly decaying summands.

Two tools live here:

* integral-comparison tails of x^A (log x)^B, reduced to upper incomplete
  gamma values through the substitution x = exp(u), which keeps them
  certified and cheap for any real log-power B;
* the Euler-Maclaurin tail shared by every sum in the package that runs
  past its explicit head: the power-log series, the log-weighted zeta sum,
  the log-factorial Dirichlet sum, and the factorial Dirichlet sum at small
  s (which stops the tail at a finite end). The summand is written once, as
  its logarithm in terms of log x; evaluated on a ``Jet`` (truncated Taylor
  series) it yields the derivatives the correction terms and the
  remainder bound need, with no finite differences.

``quad`` is scipy's, imported on its first call: the package imports
without scipy, and only code that integrates loads it.
"""

from __future__ import annotations

import math
import operator
import warnings
from typing import Callable, Iterable

import mpmath
import numpy as np

from .errors import DomainError, NumericError
from .special import bernoulli_table

__all__ = [
    "Jet",
    "exp_poly_tail",
    "powerlog_tail_integral",
    "powerlog_majorant_is_decreasing",
    "euler_maclaurin_tail",
]


def quad(func, a, b, **kwargs):
    """``scipy.integrate.quad``, imported on the first call.

    scipy costs most of the package's import time and only quadrature
    needs it, so importing the package alone never loads it. ``series``
    and ``dirichlet`` bind this function as their own ``quad``.
    """
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(func, a, b, **kwargs)


def exp_poly_tail(decay: float, power: float, u0: float) -> float:
    """Integral of u^power * exp(-decay*u) over [u0, infinity).

    Requires decay > 0 and u0 > 0. Equals decay^(-power-1) times the upper
    incomplete gamma function at (power+1, decay*u0), taken from mpmath at
    30 digits, which covers every real power, power + 1 <= 0 included.
    """
    if decay <= 0.0:
        raise DomainError(f"exp_poly_tail requires positive decay, got {decay}")
    if u0 <= 0.0:
        raise DomainError(f"exp_poly_tail requires u0 > 0, got {u0}")
    with mpmath.workdps(30):
        try:
            upper = mpmath.gammainc(power + 1.0, a=decay * u0, b=mpmath.inf)
            value = mpmath.exp(-(power + 1.0) * mpmath.log(decay)) * upper
        except (ValueError, mpmath.libmp.NoConvergence) as exc:  # pragma: no cover
            raise NumericError(f"incomplete-gamma tail evaluation failed: {exc}") from exc
        out = float(value)
    if not math.isfinite(out) or out < 0.0:
        raise NumericError(f"incomplete-gamma tail returned {out}")
    return out


def powerlog_tail_integral(power: float, log_power: float, from_x: float) -> float:
    """Integral of x^power * (log x)^log_power over [from_x, infinity).

    Requires power < -1 and from_x > 1 so the integral converges.
    """
    if power >= -1.0:
        raise DomainError(f"powerlog tail integral needs power < -1, got {power}")
    if from_x <= 1.0:
        raise DomainError(f"powerlog tail integral needs from_x > 1, got {from_x}")
    # x = exp(u):  integral of exp((power+1) u) u^log_power du over [log from_x, inf)
    return exp_poly_tail(-(power + 1.0), log_power, math.log(from_x))


def powerlog_majorant_is_decreasing(power: float, log_power: float, from_x: float) -> bool:
    """True when x^power (log x)^log_power is decreasing on [from_x, inf)."""
    return power + log_power / math.log(from_x) < 0.0


# ---------------------------------------------------------------------------
# Truncated Taylor series
# ---------------------------------------------------------------------------


class Jet:
    """Truncated Taylor series c[0] + c[1] t + ... + c[K] t^K.

    Supports +, -, * (with jets or scalars) and, through numpy's ufunc
    protocol, ``np.log``, ``np.exp`` and ``np.logaddexp``; so a summand
    written with those operations runs unchanged on floats, arrays and jets.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs: list[float]):
        self.c = coeffs

    @classmethod
    def log_variable(cls, log_x: float, order: int) -> "Jet":
        """log(x (1 + t)) around t = 0: the jet of log x in the scaled step t."""
        return cls([log_x] + [(-1.0) ** (k + 1) / k for k in range(1, order + 1)])

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet([a + b for a, b in zip(self.c, other.c)])
        return Jet([self.c[0] + other, *self.c[1:]])

    __radd__ = __add__

    def __neg__(self):
        return Jet([-a for a in self.c])

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            a, b = self.c, other.c
            return Jet([sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))])
        return Jet([other * a for a in self.c])

    __rmul__ = __mul__

    def exp(self) -> "Jet":
        a = self.c
        e = [math.exp(a[0])]
        for k in range(1, len(a)):
            e.append(sum(j * a[j] * e[k - j] for j in range(1, k + 1)) / k)
        return Jet(e)

    def log(self) -> "Jet":
        a = self.c
        out = [math.log(a[0])]
        for k in range(1, len(a)):
            acc = sum(j * out[j] * a[k - j] for j in range(1, k)) / k
            out.append((a[k] - acc) / a[0])
        return Jet(out)

    def logaddexp(self, other) -> "Jet":
        if isinstance(other, Jet):
            m = max(self.c[0], other.c[0])
            return m + ((self - m).exp() + (other - m).exp()).log()
        m = max(self.c[0], other)
        return m + ((self - m).exp() + math.exp(other - m)).log()

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        op = _JET_UFUNCS.get(ufunc)
        if method != "__call__" or kwargs or op is None:
            return NotImplemented
        return op(*(x if isinstance(x, Jet) else float(x) for x in inputs))


def _jet_logaddexp(a, b):
    return a.logaddexp(b) if isinstance(a, Jet) else b.logaddexp(a)


_JET_UFUNCS = {
    np.log: Jet.log,
    np.exp: Jet.exp,
    np.logaddexp: _jet_logaddexp,
    np.add: operator.add,
    np.subtract: operator.sub,
    np.multiply: operator.mul,
    np.negative: operator.neg,
}


# ---------------------------------------------------------------------------
# Euler-Maclaurin tail
# ---------------------------------------------------------------------------

# p in the Euler-Maclaurin formula: corrections through f^(2p-3), remainder
# bounded from f^(2p).
EM_ORDER = 3
_REMAINDER_EPSREL = 1e-1


def _scaled_derivatives(
    log_f: Callable, log_x: float, order: int
) -> tuple[float, list[float]]:
    """(psi, e) with f^(k)(x) x^k / k! = e[k] exp(psi) at x = exp(log_x)."""
    psi = log_f(Jet.log_variable(log_x, order))
    psi0 = psi.c[0]
    return psi0, (psi - psi0).exp().c


def _boundary_terms(log_f: Callable, n: int, b: list[float]) -> tuple[float, float]:
    """f(n)/2 and sum_{k<p} B_2k/(2k)! f^(2k-1)(n): one end's Euler-Maclaurin terms."""
    p = EM_ORDER
    u = math.log(n)
    psi0, e = _scaled_derivatives(log_f, u, 2 * p)
    # f^(j)(n) = j! e[j] exp(psi0 - j u), so B_2k/(2k)! f^(2k-1)(n) = B_2k/(2k) e[2k-1] ...
    corrections = math.fsum(
        b[k] / (2 * k) * e[2 * k - 1] * math.exp(psi0 - (2 * k - 1) * u) for k in range(1, p)
    )
    return 0.5 * math.exp(psi0), corrections


def euler_maclaurin_tail(
    log_f: Callable,
    start: int,
    integral: float,
    integral_err: float,
    breaks: Iterable[float] = (),
    stop: int | None = None,
) -> tuple[float, float]:
    """Value and error bound of the sum of f(n) over start <= n (<= ``stop``).

    ``log_f`` maps log x to log f(x) and must accept a ``Jet``; f must be
    smooth and positive on [start, stop], and without ``stop`` all the
    derivatives used must vanish at infinity. ``integral`` is the caller's
    value of the integral of f over [start, stop] (or [start, inf)) and
    ``integral_err`` its error.

    Value: integral + f(N)/2 - sum_{k<p} B_2k/(2k)! f^(2k-1)(N), plus
    f(M)/2 + sum_{k<p} B_2k/(2k)! f^(2k-1)(M) at a finite end M. Bound:
    (2 - 2^(1-2p)) |B_2p|/(2p)! times the integral of |f^(2p)| over
    [N, M] or [N, inf) (DLMF 2.10(i)), plus ``integral_err``. That integral
    runs by quadrature in u = log x, split at ``breaks`` (u-coordinates
    where the summand turns), and its quadrature error estimate is added in.
    A finite end keeps the jets away from where log f itself overflows.
    """
    p = EM_ORDER
    b = [float(v) for v in bernoulli_table(2 * p).values]  # b[k] = B_2k
    half, corrections = _boundary_terms(log_f, start, b)
    value = integral + half - corrections
    u_end = math.inf
    if stop is not None:
        half, corrections = _boundary_terms(log_f, stop, b)
        value += half + corrections
        u_end = math.log(stop)

    # |f^(2p)(x)| dx = (2p)! |e[2p]| exp(psi + (1-2p) u) du at x = e^u.
    def abs_high_derivative(u: float) -> float:
        psi, ee = _scaled_derivatives(log_f, u, 2 * p)
        return abs(ee[2 * p]) * math.exp(psi + (1 - 2 * p) * u)

    from scipy.integrate import IntegrationWarning

    u0 = math.log(start)
    edges = [u0, *sorted(x for x in breaks if u0 < x < u_end), u_end]
    total = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)  # its error estimate is added in
        for lo, hi in zip(edges, edges[1:]):
            val, err = quad(abs_high_derivative, lo, hi, epsabs=0.0, epsrel=_REMAINDER_EPSREL)
            total += val + err
    bound = (2.0 - 2.0 ** (1 - 2 * p)) * abs(b[p]) * total + integral_err
    if not (math.isfinite(value) and math.isfinite(bound)):
        raise NumericError(f"Euler-Maclaurin tail from {start} gave {value} +- {bound}")
    return value, bound
