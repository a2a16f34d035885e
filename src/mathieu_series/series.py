"""Direct numerical evaluation of Mathieu-type series.

Covers four families, all with certified relative-error truncation:

* power-logarithmic sums over n^alpha (log n)^gamma / (n^beta (log n)^delta + r^2)^(mu+1),
* the generic positive-sequence form a_n / (b_n + r^2)^(mu+1),
* the factorial variant with a_n = (n!)^alpha, b_n = (n!)^beta,
* the power-series variant with a geometric factor x^n.

Power-logarithmic sums add doubling blocks of terms from n = 2 and, at
each block end N, the Euler-Maclaurin tail from N (``tails``): the
integral of the summand plus boundary corrections, with the DLMF 2.10(i)
remainder bound plus the quadrature error as the certificate. They stop
at the first block end where that bound is within rel_tol, usually the
first, so radii far beyond any feasible term count stay cheap. Values that
are not normal doubles raise ``NumericError`` instead of returning 0. The
factorial family is summed in shifted log space around its sharply peaked
terms.

Everything is pure and safe for concurrent use; sequence callbacks must be
reentrant.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad

from .errors import (
    ContractViolationError,
    DomainError,
    NumericError,
    ParameterError,
    ResourceLimitError,
)
from .special import log_factorial
from .tails import (
    Jet,
    euler_maclaurin_tail,
    exp_poly_tail,
    powerlog_majorant_is_decreasing,
    powerlog_tail_integral,
)

__all__ = [
    "PowerLogParams",
    "FactorialParams",
    "SequencePair",
    "GeneralEnvelope",
    "EvalResult",
    "eval_powerlog",
    "eval_general",
    "eval_power_series",
    "factorial_summand_log",
    "peak_index_n0",
    "eval_factorial",
    "DEFAULT_HARD_CAP",
    "DEFAULT_GENERAL_CAP",
]

DEFAULT_HARD_CAP = 1_000_000_000
DEFAULT_GENERAL_CAP = 1_000_000

_MAX_BLOCK = 1 << 20


def _require_finite(value, name: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {value}")
    return value


def _check_rel_tol(rel_tol: float) -> float:
    rel_tol = float(rel_tol)
    if not (0.0 < rel_tol <= 1e-2):
        raise ParameterError(f"rel_tol must lie in (0, 1e-2], got {rel_tol}")
    return rel_tol


def _sequence_values(s: SequencePair, n: int) -> tuple[float, object]:
    """(a_n as a float, b_n as returned); NaN or inf from either is a contract violation.

    b_n may be a big int, which has no float form, so it is tested by
    comparison rather than ``math.isfinite``.
    """
    a_n = float(s.a(n))
    b_n = s.b(n)
    if not math.isfinite(a_n) or b_n != b_n or abs(b_n) == math.inf:
        raise ContractViolationError(
            f"sequences must be finite, got a({n}) = {a_n}, b({n}) = {b_n}"
        )
    return a_n, b_n


@dataclass(frozen=True)
class PowerLogParams:
    """Exponent tuple for the power-logarithmic family.

    Convergence requires alpha - beta*(mu+1) < -1.
    """

    alpha: float
    beta: float
    gamma: float
    delta: float
    mu: float

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "delta", "mu"):
            _require_finite(getattr(self, name), name)
        if self.alpha <= 0.0:
            raise ParameterError(f"alpha must be > 0, got {self.alpha}")
        if self.beta <= 0.0:
            raise ParameterError(f"beta must be > 0, got {self.beta}")
        if self.mu < 0.0:
            raise ParameterError(f"mu must be >= 0, got {self.mu}")
        if not self.alpha - self.beta * (self.mu + 1.0) < -1.0:
            raise ParameterError(
                "convergence requires alpha - beta*(mu+1) < -1, got "
                f"{self.alpha - self.beta * (self.mu + 1.0)}"
            )


@dataclass(frozen=True)
class FactorialParams:
    """Exponent tuple for the factorial family.

    Series convergence requires alpha - beta*(mu+1) < 0; the boundary case
    is admitted at construction (individual summands stay well-defined) and
    rejected by every operation that sums the series. alpha = 0 is admitted
    for evaluation and the saddle-point bound; the sharp two-term
    asymptotics need alpha > 0 and enforce that themselves.
    """

    alpha: float
    beta: float
    mu: float

    def __post_init__(self):
        for name in ("alpha", "beta", "mu"):
            _require_finite(getattr(self, name), name)
        if self.alpha < 0.0:
            raise ParameterError(f"alpha must be >= 0, got {self.alpha}")
        if self.beta <= 0.0:
            raise ParameterError(f"beta must be > 0, got {self.beta}")
        if self.mu < 0.0:
            raise ParameterError(f"mu must be >= 0, got {self.mu}")
        if self.alpha - self.beta * (self.mu + 1.0) > 0.0:
            raise ParameterError(
                "need alpha - beta*(mu+1) <= 0, got "
                f"{self.alpha - self.beta * (self.mu + 1.0)}"
            )

    def require_convergent(self, operation: str) -> None:
        if not self.alpha - self.beta * (self.mu + 1.0) < 0.0:
            raise ParameterError(
                f"{operation}: convergence requires alpha - beta*(mu+1) < 0, got "
                f"{self.alpha - self.beta * (self.mu + 1.0)} (the series diverges)"
            )


@dataclass(frozen=True)
class SequencePair:
    """User-supplied sequences a_n > 0 and b_n >= 0 for the generic series.

    ``b`` must be nondecreasing and divergent from ``b_monotone_from`` on;
    this promise is spot-checked on the evaluated range.
    """

    a: Callable[[int], float]
    b: Callable[[int], float]
    b_monotone_from: int = 0


@dataclass(frozen=True)
class GeneralEnvelope:
    """Certified termwise envelope for the generic series tail.

    Asserts a_n <= a_coeff * n^a_pow * (log n)^a_logpow and
    b_n >= b_coeff * n^b_pow * (log n)^b_logpow for all n >= valid_from.
    """

    a_coeff: float
    a_pow: float
    a_logpow: float
    b_coeff: float
    b_pow: float
    b_logpow: float
    valid_from: int

    def tail_exponents(self, mu: float) -> tuple[float, float, float]:
        """(scale, power, log_power) of the termwise majorant past the peak."""
        scale = self.a_coeff / self.b_coeff ** (mu + 1.0)
        power = self.a_pow - self.b_pow * (mu + 1.0)
        log_power = self.a_logpow - self.b_logpow * (mu + 1.0)
        return scale, power, log_power


@dataclass(frozen=True)
class EvalResult:
    """A series value with its certified truncation bound and diagnostics."""

    value: float
    tail_bound: float
    terms_used: int
    peak_index: int


# ---------------------------------------------------------------------------
# Power-logarithmic family
# ---------------------------------------------------------------------------


def _powerlog_log_summand(p: PowerLogParams, log_r2: float, lx):
    """log of the summand as a function of lx = log n (float, array or Jet)."""
    ll = np.log(lx)
    return (
        p.alpha * lx
        + p.gamma * ll
        - (p.mu + 1.0) * np.logaddexp(p.beta * lx + p.delta * ll, log_r2)
    )


def _solve_b_equals(p: PowerLogParams, target: float) -> float:
    """u with beta*u + delta*log(u) = target, on the monotone branch; u = log x."""
    lo = max(math.log(2.0), 1.0, -p.delta / p.beta + 0.5)
    if p.beta * lo + p.delta * math.log(lo) >= target:
        return lo
    hi = max(2.0 * lo, 4.0)
    while p.beta * hi + p.delta * math.log(hi) < target:
        hi *= 2.0
        if hi > 1e6:
            raise NumericError("peak location search diverged")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if p.beta * mid + p.delta * math.log(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _powerlog_tail_integral(
    p: PowerLogParams, log_r2: float, u0: float
) -> tuple[float, float, tuple[float, float]]:
    """Integral of the summand over [exp(u0), inf), its error, and where it turns.

    The quadrature runs in u = log x coordinates, split at the summand peak;
    past the point where r^2 is 1e-12 of b the integral is the r^2-free
    power-log majorant in closed form, whose excess counts as error.
    Returns the two split points (u-coordinates) as the third item.
    """
    mu1 = p.mu + 1.0

    def integrand(u: float) -> float:
        return math.exp(u + _powerlog_log_summand(p, log_r2, u))

    u_peak = max(_solve_b_equals(p, log_r2), u0)
    u_hi = max(_solve_b_equals(p, log_r2 + math.log(1e12)), u0 + 1.0)
    integral = 0.0
    quad_err = 0.0
    for a, b in ((u0, u_peak), (u_peak, u_hi)):
        if b > a:
            val, err = quad(integrand, a, b, epsabs=0.0, epsrel=1e-13, limit=400)
            integral += val
            quad_err += err

    # Far tail: drop r^2 from the denominator; overestimates by <= (1+1e-12)^(mu+1).
    far = exp_poly_tail(-(p.alpha - p.beta * mu1 + 1.0), p.gamma - p.delta * mu1, u_hi)
    integral += far
    quad_err += far * (mu1 * 1e-12 + 1e-13)
    return integral, quad_err, (u_peak, u_hi)


def _powerlog_peak(p: PowerLogParams, log_r2: float, u_lo: float) -> int:
    """Index of the largest summand at or beyond exp(u_lo), the summand rising there.

    Bisects on the sign of d log f / d log x (the jet's first coefficient)
    up to where r^2 is 1e-12 of b, past which the summand only falls.
    """
    lo = u_lo
    hi = max(_solve_b_equals(p, log_r2 + math.log(1e12)), lo)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _powerlog_log_summand(p, log_r2, Jet.log_variable(mid, 1)).c[1] > 0.0:
            lo = mid
        else:
            hi = mid
    x = math.exp(min(lo, 700.0))
    candidates = {max(int(x), 2), int(x) + 1}
    return max(candidates, key=lambda n: _powerlog_log_summand(p, log_r2, math.log(n)))


def eval_powerlog(
    p: PowerLogParams,
    r: float,
    rel_tol: float = 1e-8,
    hard_cap: int = DEFAULT_HARD_CAP,
) -> EvalResult:
    """Sum of n^alpha (log n)^gamma / (n^beta (log n)^delta + r^2)^(mu+1), n >= 2.

    Sums doubling blocks from n = 2 and, at each block end N, adds the
    Euler-Maclaurin tail from N with its remainder bound; it stops at the
    first N where that bound is <= rel_tol * value and returns it as
    ``tail_bound``. Raises ``ResourceLimitError`` once ``hard_cap`` terms
    leave the bound above rel_tol or the tail integral's error is predicted
    to, and at once when rel_tol is below the double-precision resolution
    of the value; raises ``NumericError`` when the value is not a normal
    double.
    """
    r = float(r)
    if not (math.isfinite(r) and r > 1.0):
        raise DomainError(f"eval_powerlog requires r > 1, got {r}")
    rel_tol = _check_rel_tol(rel_tol)

    log_r2 = 2.0 * math.log(r)
    log_f = functools.partial(_powerlog_log_summand, p, log_r2)
    mu1 = p.mu + 1.0
    a_pow = p.alpha - p.beta * mu1  # majorant power, < -1 by the invariant
    b_pow = p.gamma - p.delta * mu1
    block_sums: list[float] = []
    best_log = -math.inf
    peak_index = 2
    n = 2
    block = 4096
    while True:
        stop = min(n + block, 2 + hard_cap)
        if stop > n:
            ns = np.arange(n, stop, dtype=np.float64)
            logterms = log_f(np.log(ns))
            i = int(np.argmax(logterms))
            if logterms[i] > best_log:
                best_log = float(logterms[i])
                peak_index = n + i
            block_sums.append(float(np.sum(np.exp(logterms))))
            n = stop
            block = min(block * 2, _MAX_BLOCK)

        integral, integral_err, breaks = _powerlog_tail_integral(p, log_r2, math.log(n))
        tail_value, bound = euler_maclaurin_tail(log_f, n, integral, integral_err, breaks)
        value = math.fsum(block_sums) + tail_value
        if value < sys.float_info.min:
            raise NumericError(
                f"eval_powerlog value {value:.3e} at r={r} is below the smallest normal double"
            )
        if bound <= rel_tol * value:
            break
        # The integral's error is a near-fixed fraction of the integral
        # (quadrature roundoff). From the cap on, the integral is at most the
        # r^2-free majorant's tail, and close to it past the summand peak;
        # when that fraction of it still exceeds rel_tol, give up now rather
        # than sum toward the cap.
        err_at_cap = 0.0
        if integral > 0.0:
            cap_tail = exp_poly_tail(-(a_pow + 1.0), b_pow, math.log(2.0 + hard_cap))
            err_at_cap = integral_err / integral * min(cap_tail, integral)
        if (
            n - 2 >= hard_cap
            or rel_tol < sys.float_info.epsilon
            or err_at_cap > rel_tol * value
        ):
            raise ResourceLimitError(
                f"eval_powerlog cannot certify rel_tol={rel_tol} within {hard_cap} terms "
                f"(best bound {bound / value:.3e} relative, after {n - 2} terms)",
                cap=hard_cap,
                bound_achieved=bound,
            )

    if peak_index == n - 1:  # still rising at the head's end
        peak_index = _powerlog_peak(p, log_r2, math.log(n - 1))
    return EvalResult(value, bound, n - 2, peak_index)


# ---------------------------------------------------------------------------
# Generic sequences
# ---------------------------------------------------------------------------


def _general_term(a_n: float, b_n, log_r2: float, mu1: float) -> float:
    """a_n / (b_n + r^2)^(mu+1), stable for huge b_n (big ints allowed)."""
    if a_n == 0.0:
        return 0.0
    log_b = math.log(b_n) if b_n > 0 else -math.inf
    log_den = mu1 * np.logaddexp(log_b, log_r2)
    return math.exp(math.log(a_n) - log_den)


def _fit_envelope(
    ns: list[int], log_a: list[float], log_b: list[float], mu: float
) -> Optional[GeneralEnvelope]:
    """Heuristic power-law envelope fitted on the evaluated range.

    Margins of 0.15 on the fitted slopes and factor-2 headroom on the
    coefficients; the caller re-validates it against every evaluated term.
    """
    pts = [
        (n, math.log(n), la, lb)
        for n, la, lb in zip(ns, log_a, log_b)
        if n >= 4 and math.isfinite(la) and math.isfinite(lb)
    ]
    if len(pts) < 16:
        return None
    # Anchor on the later half of the evaluated range: the bound is only
    # ever applied past it, and small-n values would wreck the coefficients.
    half = len(pts) // 2
    window = pts[half:]
    ln = np.array([q[1] for q in window])
    la = np.array([q[2] for q in window])
    lb = np.array([q[3] for q in window])
    # Joint power/log-power fit: log a ~ const + p log n + q log log n.
    design = np.column_stack([np.ones_like(ln), ln, np.log(ln)])
    (_, a_p, a_q), *_ = np.linalg.lstsq(design, la, rcond=None)
    (_, b_p, b_q), *_ = np.linalg.lstsq(design, lb, rcond=None)
    a_pow, a_logpow = float(a_p) + 0.02, float(a_q) + 0.35
    b_pow, b_logpow = float(b_p) - 0.02, float(b_q) - 0.35
    a_coeff = 2.0 * math.exp(float(np.max(la - a_pow * ln - a_logpow * np.log(ln))))
    b_coeff = 0.5 * math.exp(float(np.min(lb - b_pow * ln - b_logpow * np.log(ln))))
    env = GeneralEnvelope(
        a_coeff=a_coeff,
        a_pow=a_pow,
        a_logpow=a_logpow,
        b_coeff=b_coeff,
        b_pow=b_pow,
        b_logpow=b_logpow,
        valid_from=window[0][0],
    )
    if env.tail_exponents(mu)[1] >= -1.0:
        return None
    return env


def _envelope_tail_bound(
    env: GeneralEnvelope, mu: float, n_next: int
) -> Optional[float]:
    scale, power, log_power = env.tail_exponents(mu)
    if n_next < max(env.valid_from, 4):
        return None
    if power >= -1.0 or not powerlog_majorant_is_decreasing(power, log_power, n_next):
        return None
    log_n = math.log(n_next)
    g_at = scale * math.exp(power * log_n + log_power * math.log(log_n))
    return g_at + scale * powerlog_tail_integral(power, log_power, float(n_next))


def _envelope_holds(env: GeneralEnvelope, n: int, log_a_n: float, log_b_n: float) -> bool:
    if n < env.valid_from or n < 2:
        return True
    log_n = math.log(n)
    ll = math.log(log_n)
    log_a_cap = math.log(env.a_coeff) + env.a_pow * log_n + env.a_logpow * ll
    log_b_floor = math.log(env.b_coeff) + env.b_pow * log_n + env.b_logpow * ll
    return log_a_n <= log_a_cap + 1e-12 and log_b_n >= log_b_floor - 1e-12


def eval_general(
    s: SequencePair,
    mu: float,
    r: float,
    rel_tol: float = 1e-8,
    hard_cap: int = DEFAULT_GENERAL_CAP,
    envelope: Optional[GeneralEnvelope] = None,
    n_start: int = 0,
) -> EvalResult:
    """Sum of a_n / (b_n + r^2)^(mu+1) for user-supplied sequences.

    The certified tail bound combines the promised monotonicity of b with a
    termwise power-log envelope: explicitly supplied, or fitted on the
    evaluated range with safety margins when omitted. Every evaluated term
    is checked against the envelope in force; violations raise
    ``ContractViolationError``.
    """
    mu = _require_finite(mu, "mu")
    if mu < 0.0:
        raise ParameterError(f"mu must be >= 0, got {mu}")
    r = float(r)
    if not (math.isfinite(r) and r > 0.0):
        raise DomainError(f"eval_general requires r > 0, got {r}")
    rel_tol = _check_rel_tol(rel_tol)
    if envelope is not None and envelope.tail_exponents(mu)[1] >= -1.0:
        raise ParameterError(
            "envelope does not certify convergence: a_pow - b_pow*(mu+1) must be < -1"
        )

    log_r2 = 2.0 * math.log(r)
    mu1 = mu + 1.0
    fitted = envelope is None
    env = envelope

    sums: list[float] = []
    ns: list[int] = []
    log_a_vals: list[float] = []
    log_b_vals: list[float] = []
    best = -math.inf
    peak_index = n_start
    b_prev = None
    next_check = 64

    n = n_start
    while n < n_start + hard_cap:
        a_n, b_n = _sequence_values(s, n)
        if a_n < 0.0:
            raise ContractViolationError(f"sequence a must be nonnegative, a({n}) = {a_n}")
        if n >= s.b_monotone_from:
            if b_prev is not None and b_n < b_prev:
                raise ContractViolationError(
                    f"sequence b must be nondecreasing from {s.b_monotone_from}, "
                    f"but b({n}) = {b_n} < b({n - 1}) = {b_prev}"
                )
            b_prev = b_n
        log_a_n = math.log(a_n) if a_n > 0.0 else -math.inf
        log_b_n = math.log(b_n) if b_n > 0 else -math.inf
        if env is not None and not _envelope_holds(env, n, log_a_n, log_b_n):
            if fitted:
                env = None  # refit later with the larger range
            else:
                raise ContractViolationError(
                    f"supplied envelope violated at n={n}: a={a_n}, b={b_n}"
                )
        term = _general_term(a_n, b_n, log_r2, mu1)
        sums.append(term)
        ns.append(n)
        log_a_vals.append(log_a_n)
        log_b_vals.append(log_b_n)
        if term > best:
            best = term
            peak_index = n
        n += 1

        if n >= next_check:
            next_check *= 2
            if fitted:
                # Refit every checkpoint: larger windows tighten the bound.
                env = _fit_envelope(ns, log_a_vals, log_b_vals, mu) or env
            if env is not None:
                bound = _envelope_tail_bound(env, mu, n)
                if bound is not None:
                    total = math.fsum(sums)
                    if bound <= rel_tol * total:
                        return EvalResult(total, bound, len(sums), peak_index)

    total = math.fsum(sums)
    bound = _envelope_tail_bound(env, mu, n) if env is not None else None
    raise ResourceLimitError(
        f"eval_general hit the term cap {hard_cap} before certifying rel_tol={rel_tol}",
        cap=hard_cap,
        bound_achieved=bound,
    )


# ---------------------------------------------------------------------------
# Factorial family
# ---------------------------------------------------------------------------


def factorial_summand_log(p: FactorialParams, r: float, n: int) -> float:
    """log of (n!)^alpha / ((n!)^beta + r^2)^(mu+1); never overflows."""
    r = float(r)
    if not (math.isfinite(r) and r > 0.0):
        raise DomainError(f"factorial_summand_log requires r > 0, got {r}")
    if n < 0:
        raise DomainError(f"summand index must be >= 0, got {n}")
    lf = log_factorial(n)
    return p.alpha * lf - (p.mu + 1.0) * float(np.logaddexp(p.beta * lf, 2.0 * math.log(r)))


def peak_index_n0(beta: float, r: float) -> int:
    """The unique n0 with (n0!)^beta <= r^2 < ((n0+1)!)^beta, in log space."""
    beta = _require_finite(beta, "beta")
    if beta <= 0.0:
        raise ParameterError(f"beta must be > 0, got {beta}")
    r = float(r)
    if not (math.isfinite(r) and r >= 1.0):
        raise DomainError(f"peak_index_n0 requires r >= 1, got {r}")
    target = 2.0 * math.log(r)
    n = 0
    while beta * log_factorial(n + 1) <= target:
        n += 1
    return n


def eval_factorial(
    p: FactorialParams,
    r: float,
    rel_tol: float = 1e-10,
    hard_cap: int = DEFAULT_HARD_CAP,
) -> EvalResult:
    """Sum of (n!)^alpha / ((n!)^beta + r^2)^(mu+1) over n >= 0.

    Shifted log-space summation from n = 0 past the peak until the
    geometric-domination ratio bound certifies the omitted tail. Radii
    r <= 1 are admitted for evaluation (all terms stay finite).
    """
    p.require_convergent("eval_factorial")
    r = float(r)
    if not (math.isfinite(r) and r > 0.0):
        raise DomainError(f"eval_factorial requires r > 0, got {r}")
    rel_tol = _check_rel_tol(rel_tol)

    n0 = peak_index_n0(p.beta, r) if r >= 1.0 else 0
    decay = p.alpha - p.beta * (p.mu + 1.0)  # < 0
    log_rel_tol = math.log(rel_tol)
    log_terms: list[float] = []
    shift = -math.inf
    acc = 0.0  # sum of exp(log_term - shift)
    tail_log_bound = math.inf
    n = 0
    while True:
        lt = factorial_summand_log(p, r, n)
        log_terms.append(lt)
        if lt > shift:
            acc = acc * math.exp(shift - lt) if acc else 0.0
            shift = lt
        acc += math.exp(lt - shift)
        if n >= n0 + 1:
            # For j >= n0+1: A_{j+1}/A_j <= 2^(mu+1) (j+1)^(alpha-beta(mu+1)).
            q = (p.mu + 1.0) * math.log(2.0) + decay * math.log(n + 1.0)
            if q < 0.0:
                log_bound = lt + q - math.log1p(-math.exp(q))
                log_partial = shift + math.log(acc)
                if log_bound <= log_rel_tol + log_partial:
                    tail_log_bound = log_bound
                    break
        n += 1
        if n > hard_cap:
            raise ResourceLimitError(
                f"eval_factorial exceeded the term cap {hard_cap}",
                cap=hard_cap,
                bound_achieved=None,
            )

    # Exact recombination of the collected terms (their count is tiny).
    shift = max(log_terms)
    mass = math.fsum(math.exp(t - shift) for t in log_terms)
    value = math.exp(shift) * mass
    if value < sys.float_info.min:
        raise NumericError(
            f"eval_factorial value at r={r} is below the smallest normal double "
            f"(log value {shift + math.log(mass):.6g})"
        )
    peak_index = int(np.argmax(log_terms))
    return EvalResult(
        value=value,
        tail_bound=math.exp(tail_log_bound),
        terms_used=len(log_terms),
        peak_index=peak_index,
    )


# ---------------------------------------------------------------------------
# Power-series variant
# ---------------------------------------------------------------------------


def eval_power_series(
    s: SequencePair,
    mu: float,
    x: float,
    r: float,
    rel_tol: float = 1e-10,
    growth: tuple[float, float] | None = None,
    hard_cap: int = DEFAULT_GENERAL_CAP,
) -> float:
    """Sum of a_n x^n / (b_n + r^2)^(mu+1) for |x| < 1.

    ``growth = (A, p)`` declares |a_n| <= A * max(n,1)^p, which certifies the
    geometric tail; by default p = 8 with A twice the largest observed
    normalized coefficient.
    """
    mu = _require_finite(mu, "mu")
    if mu < 0.0:
        raise ParameterError(f"mu must be >= 0, got {mu}")
    x = float(x)
    if not (math.isfinite(x) and abs(x) < 1.0):
        raise DomainError(f"eval_power_series requires |x| < 1, got {x}")
    r = float(r)
    if not (math.isfinite(r) and r > 0.0):
        raise DomainError(f"eval_power_series requires r > 0, got {r}")
    rel_tol = _check_rel_tol(rel_tol)

    log_r2 = 2.0 * math.log(r)
    mu1 = mu + 1.0
    if x == 0.0:
        return _general_term(float(s.a(0)), s.b(0), log_r2, mu1)

    declared = growth is not None
    g_pow = growth[1] if declared else 8.0
    g_coeff = growth[0] if declared else 0.0

    total = []
    running, compensation = 0.0, 0.0  # Neumaier sum of ``total``, for the stopping test
    xn = 1.0
    ax = abs(x)
    n = 0
    while n < hard_cap:
        a_n, b_n = _sequence_values(s, n)
        norm = abs(a_n) / max(n, 1) ** g_pow
        if declared:
            if norm > g_coeff * (1.0 + 1e-12):
                raise ContractViolationError(
                    f"declared growth envelope violated at n={n}: |a| = {abs(a_n)}"
                )
        else:
            g_coeff = max(g_coeff, 2.0 * norm)
        term_mag = _general_term(abs(a_n), b_n, log_r2, mu1) * abs(xn)
        term = math.copysign(term_mag, a_n * xn) if term_mag else 0.0
        total.append(term)
        t = running + term
        if abs(running) >= abs(term):
            compensation += (running - t) + term
        else:
            compensation += (term - t) + running
        running = t
        xn *= x
        n += 1

        if n >= 8 and g_coeff > 0.0:
            q = ax * ((n + 1.0) / n) ** g_pow
            if q < 1.0:
                # Tail over m > n of A m^p |x|^m / r^(2(mu+1)).
                log_tail = (
                    math.log(g_coeff)
                    + g_pow * math.log(n + 1.0)
                    + (n + 1.0) * math.log(ax)
                    - mu1 * log_r2
                    - math.log1p(-q)
                )
                partial = abs(running + compensation)
                if partial > 0.0 and log_tail <= math.log(rel_tol * partial):
                    return math.fsum(total)
    raise ResourceLimitError(
        f"eval_power_series exceeded the term cap {hard_cap}",
        cap=hard_cap,
        bound_achieved=None,
    )
