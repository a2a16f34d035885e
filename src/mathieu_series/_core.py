"""The scalar core: parameter records and the factorial family.

Everything here is scalar ``math`` on floats: the records of every family
(``PowerLogParams``, ``FactorialParams``, ``SequencePair``,
``GeneralEnvelope``, ``EvalResult``) and the factorial family, a short
log-space sum around its peak. Importing it loads ``_record``,
``special`` and ``errors`` only, so ``eval_factorial`` and the closed-form
predictions of ``asymptotics`` run in a fresh process without compiling
the quadrature and Euler-Maclaurin code of ``series`` and ``tails``, or
``_special_rest`` (of ``special`` they run only ``log_factorial``).
``series`` re-exports every name here, so ``series.X is _core.X``.

``log_factorial`` is read through the ``special`` module at each call, so
that a wrapper bound there sees every call from this module too.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable

from . import special
from ._record import record
from .errors import (
    _POSITIVE,
    DomainError,
    ParameterError,
    ResourceLimitError,
    _integer,
    _normal,
    _normal_exp,
    _real,
    _rel_tol,
    _term_cap,
)

DEFAULT_HARD_CAP = 1_000_000_000
DEFAULT_GENERAL_CAP = 1_000_000

_LOG2 = math.log(2.0)
_LOG_DBL_MIN = math.log(sys.float_info.min)
_LOG_DBL_MAX = math.log(sys.float_info.max)


def _raise_first(outcomes: list) -> list:
    """``outcomes`` (results and exceptions) when none is an exception; else raises the first."""
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes


@record
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
        _real(self.alpha, "alpha", "must be > 0", _POSITIVE)
        _real(self.beta, "beta", "must be > 0", _POSITIVE)
        _real(self.gamma, "gamma", "must be finite")
        _real(self.delta, "delta", "must be finite")
        _real(self.mu, "mu", "must be >= 0", 0.0)
        if not (decay := self.alpha - self.beta * (self.mu + 1.0)) < -1.0:
            raise ParameterError(f"convergence requires alpha - beta*(mu+1) < -1, got {decay}")


@record
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
        _real(self.alpha, "alpha", "must be >= 0", 0.0)
        _real(self.beta, "beta", "must be > 0", _POSITIVE)
        _real(self.mu, "mu", "must be >= 0", 0.0)
        if (decay := self.alpha - self.beta * (self.mu + 1.0)) > 0.0:
            raise ParameterError(f"need alpha - beta*(mu+1) <= 0, got {decay}")

    def require_convergent(self, operation: str) -> None:
        if not (decay := self.alpha - self.beta * (self.mu + 1.0)) < 0.0:
            raise ParameterError(
                f"{operation}: convergence requires alpha - beta*(mu+1) < 0, got {decay} "
                "(the series diverges)"
            )


@record
class SequencePair:
    """User-supplied sequences a_n and b_n >= 0 for the generic and power series.

    a_n must be >= 0 for ``eval_general`` and may be signed for
    ``eval_power_series``. ``b`` must be nondecreasing and divergent from
    ``b_monotone_from`` on. ``a`` and ``b`` must be callable and
    ``b_monotone_from`` an integer, or construction raises
    ``ParameterError``. Both evaluators check the same contract on the
    evaluated range (finite values, b_n >= 0, b nondecreasing from
    ``b_monotone_from``) n by n as they call the callbacks, and call
    neither callback past the first n that breaks it or whose callback
    raises. They call the callbacks a block at a time and make their own
    checks (the sign of a, an envelope, the smooth forms, a declared
    growth) on the block afterwards: ``eval_general`` up to its next
    checkpoint (n = 64, 128, ...), ``eval_power_series`` in blocks of 8,
    8, 16, ... up to 512 terms. So the callbacks must be pure (the same n
    always gives the same value, and no call depends on an earlier one).
    Errors still name the first offending n. ``eval_general`` calls each
    callback once per n per grid: ``terms_used`` times for one radius, and
    the largest ``terms_used`` times for ``eval_general_grid``.

    ``log_a`` and ``log_b``, given together or not at all, declare the
    sequences smooth: log a(x) and log b(x) as functions of u = log x,
    written with ``np.log``, ``np.exp``, ``np.logaddexp`` and arithmetic so
    that one expression runs on floats, arrays and ``tails.Jet``s. They
    must agree with the callbacks to 1e-10 on every evaluated n >= 64 with
    a_n, b_n > 0, which ``eval_general`` checks, and they promise that
    a(x) / (b(x) + r^2)^(mu+1) is smooth and positive past the evaluated
    head, with derivatives vanishing at infinity: the Euler-Maclaurin tail
    that certifies the sum rests on that promise, as a supplied envelope's
    bound rests on the envelope.
    """

    a: Callable[[int], float]
    b: Callable[[int], float]
    b_monotone_from: int = 0
    log_a: Callable | None = None
    log_b: Callable | None = None

    def __post_init__(self):
        for name, value in (("a", self.a), ("b", self.b)):
            if not callable(value):
                raise ParameterError(f"{name} must be callable, got {value!r}")
        _integer(self.b_monotone_from, "b_monotone_from", "must be an integer")
        if (self.log_a is None) != (self.log_b is None):
            raise ParameterError("give both smooth forms log_a and log_b, or neither")


@record
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

    def __post_init__(self):
        for name in ("a_coeff", "b_coeff"):
            _real(getattr(self, name), name, "must be > 0", _POSITIVE)
        for name in ("a_pow", "a_logpow", "b_pow", "b_logpow"):
            _real(getattr(self, name), name, "must be finite")
        _integer(self.valid_from, "valid_from", "must be an integer")

    def tail_exponents(self, mu: float) -> tuple[float, float, float]:
        """(scale, power, log_power) of the termwise majorant past the peak.

        scale = a_coeff / b_coeff^(mu+1); ``NumericError`` when that is not
        a normal double.
        """
        log_den = (mu + 1.0) * math.log(self.b_coeff)
        who = "envelope scale a_coeff / b_coeff^(mu+1)"
        if _LOG_DBL_MIN < log_den < _LOG_DBL_MAX:
            scale = _normal(self.a_coeff / self.b_coeff ** (mu + 1.0), who, "mu", mu)
        else:  # b_coeff^(mu+1) alone leaves the double range
            scale = _normal_exp(math.log(self.a_coeff) - log_den, who, "mu", mu)
        power = self.a_pow - self.b_pow * (mu + 1.0)
        log_power = self.a_logpow - self.b_logpow * (mu + 1.0)
        return scale, power, log_power


@record
class EvalResult:
    """A series value with its certified truncation bound and diagnostics.

    ``peak_index`` is the index of the largest summand; where the peak lies
    far out (past ~1e8), adjacent summands agree to ~1e-16 relative, and it
    is exact only up to such ties.
    """

    value: float
    tail_bound: float
    terms_used: int
    peak_index: int


def _logaddexp(x: float, y: float) -> float:
    """log(exp(x) + exp(y)) with numpy's formula, bit for bit, without numpy's call cost."""
    if x == y:
        return x + _LOG2
    d = x - y
    if d > 0.0:
        return x + math.log1p(math.exp(-d))
    return y + math.log1p(math.exp(d))


# ---------------------------------------------------------------------------
# Factorial family
# ---------------------------------------------------------------------------


def factorial_summand_log(p: FactorialParams, r: float, n: int) -> float:
    """log of (n!)^alpha / ((n!)^beta + r^2)^(mu+1); never overflows."""
    r = _real(r, "factorial_summand_log", "requires r > 0", _POSITIVE, error=DomainError)
    lf = special.log_factorial(n)  # DomainError unless n is an integer >= 0
    return p.alpha * lf - (p.mu + 1.0) * _logaddexp(p.beta * lf, 2.0 * math.log(r))


def peak_index_n0(beta: float, r: float) -> int:
    """The unique n0 with (n0!)^beta <= r^2 < ((n0+1)!)^beta, in log space.

    Doubling then bisection: O(log n0) calls of ``log_factorial`` for any beta,
    and ``NumericError`` where n0 is past the double range (beta below ~1e-305).
    """
    beta = _real(beta, "beta", "must be > 0", _POSITIVE)
    r = _real(r, "peak_index_n0", "requires r >= 1", 1.0, error=DomainError)
    target = 2.0 * math.log(r)
    lo, hi = 1, 2  # beta log lo! <= target < beta log hi! once the doubling stops
    while beta * special.log_factorial(hi) <= target:  # NumericError past the double range
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if beta * special.log_factorial(mid) <= target:
            lo = mid
        else:
            hi = mid
    return lo


def eval_factorial(
    p: FactorialParams,
    r: float,
    rel_tol: float = 1e-10,
    hard_cap: int = DEFAULT_HARD_CAP,
) -> EvalResult:
    """Sum of (n!)^alpha / ((n!)^beta + r^2)^(mu+1) over n >= 0.

    Shifted log-space summation from n = 0 past the peak until the
    geometric-domination ratio bound certifies the omitted tail. Radii
    r <= 1 are admitted for evaluation (all terms stay finite). Raises
    ``ResourceLimitError`` past ``hard_cap`` terms, and at once when no
    n <= ``hard_cap`` past the peak has a ratio bound below 1.
    """
    p.require_convergent("eval_factorial")
    r = _real(r, "eval_factorial", "requires r > 0", _POSITIVE, error=DomainError)
    rel_tol = _rel_tol(rel_tol)
    hard_cap = _term_cap(hard_cap)

    n0 = peak_index_n0(p.beta, r) if r >= 1.0 else 0
    decay = p.alpha - p.beta * (p.mu + 1.0)  # < 0
    # The stop test needs n0 < n <= hard_cap with q(n) < 0, and q falls in n.
    q_cap = (p.mu + 1.0) * math.log(2.0) + decay * math.log(hard_cap + 1)
    log_rel_tol = math.log(rel_tol)
    log_terms: list[float] = []
    shift = -math.inf
    acc = 0.0  # sum of exp(log_term - shift)
    n = 0
    while n <= hard_cap and n0 < hard_cap and q_cap < 0.0:
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
    else:
        raise ResourceLimitError(
            f"eval_factorial exceeded the term cap {hard_cap}", cap=hard_cap, bound_achieved=None
        )

    # Exact recombination of the collected terms (their count is tiny).
    shift = max(log_terms)
    mass = math.fsum(math.exp(t - shift) for t in log_terms)
    value = _normal(math.exp(shift) * mass, "eval_factorial", "r", r)
    peak_index = log_terms.index(shift)  # the first maximum
    return EvalResult(
        value=value,
        tail_bound=math.exp(tail_log_bound),
        terms_used=len(log_terms),
        peak_index=peak_index,
    )
