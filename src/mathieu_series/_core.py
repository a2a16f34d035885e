"""The scalar core: parameter records, argument checks and the factorial family.

Everything here is scalar ``math`` on floats: the records of every family
(``PowerLogParams``, ``FactorialParams``, ``SequencePair``,
``GeneralEnvelope``, ``EvalResult``), the argument checks that the
evaluators and closed forms share, and the factorial family, which is a
short log-space sum around its peak. Importing it loads ``_record``,
``special`` and ``errors`` only, not the quadrature and Euler-Maclaurin
code of ``series`` and ``tails``, so ``eval_factorial`` and the
closed-form predictions of ``asymptotics`` run in a fresh process without
compiling that code. Of ``special`` it runs only ``log_factorial``, which
``special`` defines itself, so ``eval_factorial`` does not load
``_special_rest`` (Lambert W, inverse gamma, the Bernoulli table and the
numpy functions) either.
``series`` re-exports every name here, so ``series.X is _core.X``.

``log_factorial`` is read through the ``special`` module at each call, so
that a wrapper bound there sees every call from this module too.
"""

from __future__ import annotations

import math
import operator
import sys
from collections.abc import Callable

from . import special
from ._record import record
from .errors import DomainError, NumericError, ParameterError, ResourceLimitError

DEFAULT_HARD_CAP = 1_000_000_000
DEFAULT_GENERAL_CAP = 1_000_000

_LOG2 = math.log(2.0)
_LOG_DBL_MIN = math.log(sys.float_info.min)
_LOG_DBL_MAX = math.log(sys.float_info.max)


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


def _check_term_cap(hard_cap) -> int:
    """hard_cap as an int; ``ParameterError`` unless it is an integer >= 1 (a bool is not)."""
    try:
        cap = operator.index(hard_cap)
    except TypeError:
        cap = 0
    if cap < 1 or isinstance(hard_cap, bool):
        raise ParameterError(f"hard_cap must be an integer >= 1, got {hard_cap!r}")
    return cap


def _require_radius(r, floor: float, who: str, inclusive: bool = False, shown: str = "") -> float:
    """r as a float; ``DomainError`` unless it is finite and > floor (>= when inclusive).

    The message reads "<who> requires r > <floor>, got <r>", with ``shown``
    in place of the floor's digits when given; an int past the double range is inf.
    """
    try:
        r = float(r)
    except OverflowError:
        r = math.inf
    if not (math.isfinite(r) and (r >= floor if inclusive else r > floor)):
        relation = ">=" if inclusive else ">"
        raise DomainError(f"{who} requires r {relation} {shown or f'{floor:g}'}, got {r}")
    return r


def _normal_exp(log_value: float, who: str, r: float) -> float:
    """exp(log_value) when it is a normal double, else ``NumericError`` naming who and r."""
    try:
        value = math.exp(log_value)
    except OverflowError:
        value = math.inf
    if not (math.isfinite(value) and value >= sys.float_info.min):
        raise NumericError(f"{who} value at r={r} is exp({log_value:.6g}), not a normal double")
    return value


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
        try:
            operator.index(self.b_monotone_from)
        except TypeError:
            raise ParameterError(
                f"b_monotone_from must be an integer, got {self.b_monotone_from!r}"
            ) from None
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
        for name in ("a_coeff", "a_pow", "a_logpow", "b_coeff", "b_pow", "b_logpow"):
            _require_finite(getattr(self, name), name)
        for name in ("a_coeff", "b_coeff"):
            if getattr(self, name) <= 0.0:
                raise ParameterError(f"{name} must be > 0, got {getattr(self, name)}")

    def tail_exponents(self, mu: float) -> tuple[float, float, float]:
        """(scale, power, log_power) of the termwise majorant past the peak.

        scale = a_coeff / b_coeff^(mu+1); ``NumericError`` when that is not
        a normal double.
        """
        log_den = (mu + 1.0) * math.log(self.b_coeff)
        log_scale = math.log(self.a_coeff) - log_den
        if not _LOG_DBL_MIN < log_scale < _LOG_DBL_MAX:
            raise NumericError(
                f"envelope scale a_coeff / b_coeff^(mu+1) = exp({log_scale:.6g}) "
                "is not a normal double"
            )
        if _LOG_DBL_MIN < log_den < _LOG_DBL_MAX:
            scale = self.a_coeff / self.b_coeff ** (mu + 1.0)
        else:  # b_coeff^(mu+1) alone leaves the double range
            scale = math.exp(log_scale)
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
    r = _require_radius(r, 0.0, "factorial_summand_log")
    if n < 0:
        raise DomainError(f"summand index must be >= 0, got {n}")
    lf = special.log_factorial(n)
    return p.alpha * lf - (p.mu + 1.0) * _logaddexp(p.beta * lf, 2.0 * math.log(r))


def peak_index_n0(beta: float, r: float) -> int:
    """The unique n0 with (n0!)^beta <= r^2 < ((n0+1)!)^beta, in log space.

    Doubling then bisection: O(log n0) calls of ``log_factorial`` for any beta,
    and ``NumericError`` where n0 is past the double range (beta below ~1e-305).
    """
    beta = _require_finite(beta, "beta")
    if beta <= 0.0:
        raise ParameterError(f"beta must be > 0, got {beta}")
    r = _require_radius(r, 1.0, "peak_index_n0", inclusive=True)
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
    r = _require_radius(r, 0.0, "eval_factorial")
    rel_tol = _check_rel_tol(rel_tol)
    hard_cap = _check_term_cap(hard_cap)

    n0 = peak_index_n0(p.beta, r) if r >= 1.0 else 0
    decay = p.alpha - p.beta * (p.mu + 1.0)  # < 0
    # The stop test needs n0 < n <= hard_cap with q(n) < 0, and q falls in n.
    q_cap = (p.mu + 1.0) * math.log(2.0) + decay * math.log(hard_cap + 1.0)
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
    value = math.exp(shift) * mass
    if value < sys.float_info.min:
        raise NumericError(
            f"eval_factorial value at r={r} is below the smallest normal double "
            f"(log value {shift + math.log(mass):.6g})"
        )
    peak_index = log_terms.index(shift)  # the first maximum
    return EvalResult(
        value=value,
        tail_bound=math.exp(tail_log_bound),
        terms_used=len(log_terms),
        peak_index=peak_index,
    )
