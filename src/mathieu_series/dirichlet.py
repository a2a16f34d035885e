"""Dirichlet series on the real axis and Mellin-side closed forms.

Provides the log-weighted zeta sum over (log n)^eta / (n (log n)^theta)^s,
its leading singular model near s = 1, the factorial Dirichlet sum over
(n!)^(-s), the log-factorial Dirichlet sum, the Mellin closed forms of both
Mathieu-type families, and the saddle-point upper bound for the factorial
family. The log-weighted zeta and log-factorial sums add an explicit head
to the Euler-Maclaurin tail shared with the power-log series
(``tails.euler_maclaurin_tail``); they return once its remainder bound
plus the error of the tail integral is within rel_tol of the value.
Evaluation stays on the real axis: the closed forms live on their
convergence strips, and behavior at the boundary is represented by the
singular-model operations rather than by analytic continuation.

All operations are pure and stateless.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import quad
from scipy.special import loggamma as _complex_loggamma

from .errors import DomainError, NumericError, ParameterError
from .series import FactorialParams, PowerLogParams, _check_rel_tol
from .tails import euler_maclaurin_tail, exp_poly_tail

__all__ = [
    "DirichletParams",
    "TransformFrame",
    "log_weighted_zeta",
    "zeta_singular_prediction",
    "factorial_dirichlet",
    "log_factorial_dirichlet",
    "transform_frame",
    "mellin_powerlog",
    "mellin_factorial",
    "saddle_point_bound",
    "is_positive_integer",
]

_INTEGER_DETECTION_TOL = 1e-9
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def is_positive_integer(m: float, force: Optional[bool] = None) -> bool:
    """Detection rule for integer-branch selection.

    Floating inputs cannot distinguish exact integers, so m counts as a
    positive integer when it is within 1e-9 of one; ``force`` overrides
    either way.
    """
    if force is not None:
        return force
    return abs(m - round(m)) < _INTEGER_DETECTION_TOL and round(m) >= 1


@dataclass(frozen=True)
class DirichletParams:
    """Weight exponents (eta, theta) of the log-weighted zeta sum."""

    eta: float
    theta: float

    def __post_init__(self):
        if not (math.isfinite(self.eta) and math.isfinite(self.theta)):
            raise ParameterError(f"eta and theta must be finite, got {self.eta}, {self.theta}")


@dataclass(frozen=True)
class TransformFrame:
    """Mellin-side frame of a parameter tuple.

    For the power-log family: the singular abscissa ``shat`` and the
    (eta, theta) substitution mapping its Dirichlet factor onto the
    log-weighted zeta. For the factorial family: the abscissa ``stilde``.
    Fields not applicable to the input family are None.
    """

    shat: Optional[float] = None
    stilde: Optional[float] = None
    map_eta: Optional[float] = None
    map_theta: Optional[float] = None


def transform_frame(
    powerlog: Optional[PowerLogParams] = None,
    factorial: Optional[FactorialParams] = None,
) -> TransformFrame:
    """Frame constants computed exactly from their defining formulas."""
    if (powerlog is None) == (factorial is None):
        raise ParameterError("provide exactly one of powerlog= or factorial=")
    if powerlog is not None:
        p = powerlog
        shat = 2.0 * (p.mu + 1.0) - 2.0 * (p.alpha + 1.0) / p.beta
        return TransformFrame(
            shat=shat,
            map_eta=p.gamma - p.alpha * p.delta / p.beta,
            map_theta=p.delta / p.beta,
        )
    p = factorial
    p.require_convergent("transform_frame")  # keeps stilde > 0
    return TransformFrame(stilde=2.0 * (p.mu + 1.0 - p.alpha / p.beta))


# ---------------------------------------------------------------------------
# Log-weighted zeta: sum over n >= 2 of (log n)^eta / (n (log n)^theta)^s
# ---------------------------------------------------------------------------


def log_weighted_zeta(p: DirichletParams, s: float, rel_tol: float = 1e-10) -> float:
    """Sum over n >= 2 of (log n)^eta / (n (log n)^theta)^s, for real s > 1.

    Explicit partial sum below a cutoff N, plus the Euler-Maclaurin tail
    from N on: the exact incomplete-gamma value of the integral, boundary
    corrections, and the remainder bound, which must come within rel_tol
    (N grows fourfold, up to three times, until it does).
    """
    s = float(s)
    if not (math.isfinite(s) and s > 1.0):
        raise DomainError(f"log_weighted_zeta requires s > 1, got {s}")
    rel_tol = _check_rel_tol(rel_tol)

    c = p.eta - p.theta * s

    def log_f(lx):
        return c * np.log(lx) - s * lx

    n_cut = 10_000
    for _ in range(4):
        ns = np.arange(2, n_cut, dtype=np.float64)
        partial = float(np.sum(np.exp(log_f(np.log(ns)))))

        # integral of (log x)^c x^(-s) over [n_cut, inf) via x = exp(u), to 30 digits
        integral = exp_poly_tail(s - 1.0, c, math.log(n_cut))
        tail, bound = euler_maclaurin_tail(
            log_f, n_cut, integral, integral * sys.float_info.epsilon
        )
        value = partial + tail
        if not math.isfinite(value):
            raise NumericError(f"log_weighted_zeta produced {value} at s={s}")
        if bound <= rel_tol * abs(value):
            return value
        n_cut *= 4
    raise NumericError(
        f"log_weighted_zeta did not reach rel_tol={rel_tol} at s={s} (cutoff {n_cut})"
    )


def zeta_singular_prediction(
    p: DirichletParams, s: float, force_integer_branch: Optional[bool] = None
) -> float:
    """Leading singular model of the log-weighted zeta as s approaches 1.

    Integer m = theta - eta: ((-1)^(m-1)/(m-1)!) (s-1)^(m-1) log(1/(s-1));
    otherwise Gamma(eta-theta+1) (s-1)^(theta-eta-1). For theta - eta > 1
    in the non-integer branch this is the singular correction around the
    finite limit value, not the limit itself.
    """
    s = float(s)
    if not (0.0 < s - 1.0 < 0.5):
        raise DomainError(f"zeta_singular_prediction requires s - 1 in (0, 0.5), got s={s}")
    m = p.theta - p.eta
    if is_positive_integer(m, force_integer_branch):
        mi = round(m)
        return (
            ((-1.0) ** (mi - 1))
            / math.factorial(mi - 1)
            * (s - 1.0) ** (mi - 1)
            * math.log(1.0 / (s - 1.0))
        )
    arg = p.eta - p.theta + 1.0
    if arg <= 0.0 and abs(arg - round(arg)) < _INTEGER_DETECTION_TOL:
        raise DomainError(
            f"gamma pole: eta - theta + 1 = {arg} is a nonpositive integer; "
            "no non-integer-branch prediction exists"
        )
    return math.gamma(arg) * (s - 1.0) ** (p.theta - p.eta - 1.0)


# ---------------------------------------------------------------------------
# Factorial Dirichlet sums
# ---------------------------------------------------------------------------


def factorial_dirichlet(s: float, rel_tol: float = 1e-12) -> float:
    """Sum over n >= 0 of (n!)^(-s) for s > 0, by direct log-space summation.

    Terms stop once the geometric continuation bound certifies the omitted
    tail below rel_tol times the partial sum (with the extra two-decade
    per-term safety margin on top). Vectorized in blocks for the slowly
    converging small-s regime.
    """
    s = float(s)
    if not (math.isfinite(s) and s > 0.0):
        raise DomainError(f"factorial_dirichlet requires s > 0, got {s}")
    rel_tol = _check_rel_tol(rel_tol)

    total = 2.0  # n = 0 and n = 1 terms
    log_fact = 0.0
    n = 1
    block = 1024
    blocks = [total]
    while True:
        ns = np.arange(n + 1, n + 1 + block, dtype=np.float64)
        log_ns = np.log(ns)
        lf = log_fact + np.cumsum(log_ns)
        blocks.append(float(np.sum(np.exp(-s * lf))))
        log_fact = float(lf[-1])
        n += block
        partial = math.fsum(blocks)

        # next term and the geometric bound on everything after it
        t_next = math.exp(-s * (log_fact + math.log(n + 1)))
        q = math.exp(-s * math.log(n + 2))
        tail_bound = t_next / (1.0 - q) if q < 1.0 else math.inf
        if tail_bound <= rel_tol * partial and t_next <= 1e-2 * rel_tol * partial:
            return partial
        if n > 2**31:
            raise NumericError(f"factorial_dirichlet failed to converge at s={s}")
        block = min(block * 2, 4_000_000)


def _log_lgamma1(lx):
    """log lgamma(x+1) in terms of lx = log x, by Stirling's series (x >= 1e4).

    lgamma(x+1) = x (log x - 1) + (log x + log 2 pi)/2 + 1/(12 x) - 1/(360 x^3)
    + O(x^-5); the omitted terms are below 1e-27 relative for x >= 1e4.
    """
    inv = np.exp(-lx)
    series = (inv * (1.0 / 12.0)) * (1.0 - (inv * inv) * (1.0 / 30.0))
    return lx + np.log(lx - 1.0 + inv * (0.5 * lx + _HALF_LOG_2PI + series))


def log_factorial_dirichlet(s: float, rel_tol: float = 1e-10) -> float:
    """Sum over n >= 2 of (log n!)^(-s) for s > 1.

    Direct partial sum below a cutoff N, plus the Euler-Maclaurin tail
    from N on, with the summand lgamma(x+1)^(-s) taken from Stirling's
    series. The tail integral runs by quadrature up to where the majorant
    from log n! >= n log n - n bounds the rest, which counts as error.
    """
    s = float(s)
    if not (math.isfinite(s) and s > 1.0):
        raise DomainError(f"log_factorial_dirichlet requires s > 1, got {s}")
    rel_tol = _check_rel_tol(rel_tol)

    def log_f(lx):
        return -s * _log_lgamma1(lx)

    def integrand(u: float) -> float:
        return math.exp(u + log_f(u))

    n_cut = 20_000
    for _ in range(4):
        ns = np.arange(2, n_cut, dtype=np.float64)
        lf = np.cumsum(np.log(ns))  # log(2)+...+log(n) = log n!
        partial = float(np.sum(np.exp(-s * np.log(lf))))

        u0 = math.log(n_cut)
        u_cut = u0 + max(60.0, 50.0 / (s - 1.0))
        integral, quad_err = quad(integrand, u0, u_cut, epsabs=0.0, epsrel=1e-12, limit=400)
        # Majorant remainder past u_cut: (x log x - x)^(-s) decays like
        # e^(u(1-s)) (u-1)^(-s); bound it by the incomplete-gamma tail.
        far = math.exp(1.0 - s) * exp_poly_tail(s - 1.0, -s, u_cut - 1.0)
        tail, bound = euler_maclaurin_tail(log_f, n_cut, integral + far, quad_err + far)
        value = partial + tail
        if bound <= rel_tol * value:
            return value
        n_cut *= 4
    raise NumericError(f"log_factorial_dirichlet did not reach rel_tol={rel_tol} at s={s}")


# ---------------------------------------------------------------------------
# Mellin closed forms and the saddle-point bound
# ---------------------------------------------------------------------------


def _gamma_pair(mu: float, s: float) -> float:
    """Gamma(mu+1-s/2) Gamma(s/2) / (2 Gamma(mu+1)) for 0 < s < 2 mu + 2."""
    return math.exp(
        math.lgamma(mu + 1.0 - 0.5 * s) + math.lgamma(0.5 * s) - math.lgamma(mu + 1.0)
    ) / 2.0


def mellin_powerlog(p: PowerLogParams, s: float, rel_tol: float = 1e-8) -> float:
    """Mellin transform of the power-log series at real s in (0, shat)."""
    frame = transform_frame(powerlog=p)
    s = float(s)
    if not (0.0 < s < frame.shat):
        raise DomainError(f"mellin_powerlog requires s in (0, {frame.shat}), got {s}")
    w = 1.0 + 0.5 * p.beta * (frame.shat - s)
    zeta_val = log_weighted_zeta(
        DirichletParams(eta=frame.map_eta, theta=frame.map_theta), w, rel_tol
    )
    return zeta_val * _gamma_pair(p.mu, s)


def mellin_factorial(p: FactorialParams, s: float, rel_tol: float = 1e-10) -> float:
    """Mellin transform of the factorial series at real s in (0, stilde)."""
    frame = transform_frame(factorial=p)
    s = float(s)
    if not (0.0 < s < frame.stilde):
        raise DomainError(f"mellin_factorial requires s in (0, {frame.stilde}), got {s}")
    eta_val = factorial_dirichlet(0.5 * p.beta * (frame.stilde - s), rel_tol)
    return eta_val * _gamma_pair(p.mu, s)


def _gamma_line_integral(mu: float, sigma: float) -> float:
    """(1/2pi) integral over y of |Gamma(mu+1-(sigma+iy)/2) Gamma((sigma+iy)/2)| / (2 Gamma(mu+1)).

    Even in y; truncated where the integrand falls below 1e-18 of its
    center value (the gamma factors decay exponentially in |y|).
    """
    log_norm = math.lgamma(mu + 1.0) + math.log(2.0)

    def integrand(y: float) -> float:
        z = 0.5 * (sigma + 1j * y)
        val = _complex_loggamma(mu + 1.0 - z).real + _complex_loggamma(z).real - log_norm
        return math.exp(val)

    center = integrand(0.0)
    if center <= 0.0 or not math.isfinite(center):
        raise NumericError(f"gamma line integrand degenerate at sigma={sigma}")
    y_max = 8.0
    while integrand(y_max) > 1e-18 * center:
        y_max *= 2.0
        if y_max > 1e5:
            raise NumericError("gamma line integrand failed to decay")
    val, _ = quad(integrand, 0.0, y_max, epsabs=0.0, epsrel=1e-10, limit=300)
    return val / math.pi


def saddle_point_bound(p: FactorialParams, r: float) -> float:
    """Rigorous upper bound for the factorial series from its Mellin line.

    Evaluates e * r^(-stilde) * eta(beta/(2 log r)) * I(sigma_r) at the
    saddle abscissa sigma_r = stilde - 1/log r. Valid for alpha >= 0.
    """
    r = float(r)
    if not (math.isfinite(r) and r >= 10.0):
        raise DomainError(f"saddle_point_bound requires r >= 10, got {r}")
    frame = transform_frame(factorial=p)
    log_r = math.log(r)
    sigma = frame.stilde - 1.0 / log_r
    if sigma <= 0.0:
        raise DomainError(
            f"saddle abscissa {sigma} is not positive; r is too small for these parameters"
        )
    eta_val = factorial_dirichlet(0.5 * p.beta / log_r, rel_tol=1e-10)
    line = _gamma_line_integral(p.mu, sigma)
    return math.e * math.exp(-frame.stilde * log_r) * eta_val * line
