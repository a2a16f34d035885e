"""Closed-form asymptotic predictions and diagnostics.

Leading-order laws for the power-logarithmic family (one constant for
every log exponent, in O(1) for every mu), fractional-part diagnostics
and predictions for the factorial family, the epsilon-envelope and
log-power ceiling bounds, and the full divergent expansion of the classical
Mathieu series with optimal truncation.
"""

from __future__ import annotations

import math

from .errors import (
    _POSITIVE,
    CapacityError,
    DomainError,
    NumericError,
    ParameterError,
    PreconditionError,
    _above,
    _integer,
    _normal,
    _normal_exp,
    _real,
)
from ._core import (
    _LOG2,
    _LOG_DBL_MAX,
    _LOG_DBL_MIN,
    FactorialParams,
    PowerLogParams,
    _logaddexp,
    factorial_summand_log,
    peak_index_n0,
)
from ._record import record
from .special import (
    _STIRLING_COEFFS,
    bernoulli_table,
    inverse_gamma_log,
    log_factorial,
    zeta_neg_odd,
)

__all__ = [
    "AsymptoticPrediction",
    "FactorialDiagnostics",
    "FactorialEnvelope",
    "ExpansionTerm",
    "leading_constant",
    "asymptotic_prediction",
    "predict_powerlog",
    "factorial_diagnostics",
    "predict_factorial",
    "slack_exponent",
    "two_term_estimate",
    "factorial_envelope",
    "factorial_upper_bound",
    "classical_expansion_terms",
    "eval_classical_expansion",
]

# Bernoulli numbers are exact to this index, which feeds 31 expansion terms.
_MAX_BERNOULLI = 64
_OPTIMAL_K = _MAX_BERNOULLI // 2 - 1  # the corrections optimal truncation chooses from
_ABOVE_E = _above(math.e)
_BELOW_1 = math.nextafter(1.0, 0.0)


@record
class AsymptoticPrediction:
    """Constant, radius power and log power of a leading-order law."""

    constant: float
    r_exponent: float
    log_exponent: float

    def __post_init__(self):
        for name in ("constant", "r_exponent", "log_exponent"):
            _real(getattr(self, name), name, "must be finite")

    def value_at(self, r: float) -> float:
        """constant * r^r_exponent * (log r)^log_exponent for r > e.

        Raises ``DomainError`` for r <= e and ``NumericError`` when the value
        is not a normal double.
        """
        r = _real(r, "the leading-order law", "requires r > e", _ABOVE_E, error=DomainError)
        log_r = math.log(r)
        log_power = self.r_exponent * log_r + self.log_exponent * math.log(log_r)
        return _normal_exp(log_power, "leading-order", "r", r, self.constant)


@record
class FactorialDiagnostics:
    """Fractional-part diagnostics of the factorial family at radius r."""

    g: float
    frac_g: float
    n0: int
    m_r: float
    in_R: bool
    in_R0: bool


@record
class FactorialEnvelope:
    """Two-sided power envelope with the matching log-space center line."""

    lower: float
    upper: float
    log_center: float


@record
class ExpansionTerm:
    """One term of the classical expansion; k = -1 denotes the leading term."""

    k: int
    coefficient: float
    r_power: float


# ---------------------------------------------------------------------------
# Power-logarithmic family
# ---------------------------------------------------------------------------


def _stirling_series(z: float) -> float:
    """S(z) = sum_{k<=7} B_2k / (2k (2k-1) z^(2k-1)), Stirling's series past its log terms."""
    inv2 = 1.0 / (z * z)
    series = _STIRLING_COEFFS[-1]
    for c in reversed(_STIRLING_COEFFS[:-1]):
        series = series * inv2 + c
    return series / z


def _log_beta(a: float, b: float) -> float:
    """log B(a, b) = log Gamma(a) + log Gamma(b) - log Gamma(a+b) for a, b > 0, in O(1).

    With d = min(a, b) and y = max(a, b) >= 10, log Gamma(y) - log Gamma(y+d)
    is Stirling's difference -(y-1/2) log1p(d/y) - d log(y+d) + d + S(y) - S(y+d)
    (DLMF 5.11.1), which cancels nothing; the first omitted term of S is below
    1e-16. d is used as given: recomputed as (a+b) - y it would be 0 wherever
    d is below half an ulp of y.
    """
    d, y = (a, b) if a <= b else (b, a)
    if y < 10.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    return (
        math.lgamma(d)
        - (y - 0.5) * math.log1p(d / y)
        - d * math.log(y + d)
        + d
        + (_stirling_series(y) - _stirling_series(y + d))
    )


def leading_constant(p: PowerLogParams) -> float:
    """Constant of the leading-order law for the power-log family.

    One formula for every m = delta*(alpha+1)/beta - gamma: with
    rho = (alpha+1)/beta,
    C = beta^(m-1) Gamma(mu+1-rho) Gamma(rho) / (2^m Gamma(mu+1)).
    Where a factor leaves the double range (Gamma(mu+1) overflows from
    mu ~ 170.6 on), C is taken in logs, the gamma ratio as the beta function
    B(mu+1-rho, rho) (``_log_beta``), in O(1) for every mu. Raises
    ``NumericError`` when C underflows or overflows a double, or when
    mu+1-rho rounds to 0.
    """
    m = p.delta * (p.alpha + 1.0) / p.beta - p.gamma
    a = -(p.alpha + 1.0) / p.beta + p.mu + 1.0
    b = (p.alpha + 1.0) / p.beta
    if not a > 0.0:  # mu+1 > rho holds exactly, but rounds away here
        raise NumericError(f"the leading constant of {p} is past double precision: mu+1-rho = {a}")
    try:
        common = math.gamma(a) * math.gamma(b)
        direct = p.beta ** (m - 1.0) * common / (2.0**m * math.gamma(p.mu + 1.0))
        return _normal(direct, "leading_constant", "p", p)
    except (OverflowError, ZeroDivisionError, NumericError):  # a factor leaves the double range
        log_c = (m - 1.0) * math.log(p.beta) - m * _LOG2 + _log_beta(a, b)
    if not _LOG_DBL_MIN <= log_c <= _LOG_DBL_MAX:
        kind = "underflows" if log_c < 0.0 else "overflows"
        raise NumericError(f"the leading constant of {p} {kind} a double: log C = {log_c:.6g}")
    return math.exp(log_c)


def asymptotic_prediction(p: PowerLogParams) -> AsymptoticPrediction:
    """Leading-order law: constant (``leading_constant``), power of r, and power of log r."""
    return AsymptoticPrediction(
        constant=leading_constant(p),
        r_exponent=2.0 * (p.alpha + 1.0) / p.beta - 2.0 * (p.mu + 1.0),
        log_exponent=-p.delta * (p.alpha + 1.0) / p.beta + p.gamma,
    )


def predict_powerlog(p: PowerLogParams, r: float) -> float:
    """Leading-order value C * r^(2(alpha+1)/beta - 2(mu+1)) * (log r)^(gamma - delta(alpha+1)/beta).

    Raises ``DomainError`` for r <= e and ``NumericError`` when the value is
    not a normal double.
    """
    return asymptotic_prediction(p).value_at(r)


# ---------------------------------------------------------------------------
# Factorial family
# ---------------------------------------------------------------------------


def factorial_diagnostics(
    p: FactorialParams, r: float, d1: float = 0.2, d2: float = 0.8
) -> FactorialDiagnostics:
    """Fractional part of the inverse-gamma scale and derived quantities.

    Requires alpha > 0 (the sharp two-term asymptotics do not cover
    alpha = 0) and r >= 10. g comes from the inverse gamma function of
    r^(2/beta) evaluated in log space; values within 1e-9 of an integer
    snap to it so that exact boundary cases report a zero fractional part.
    """
    d1 = _real(d1, "d1", "must lie in (0, 1)", _POSITIVE, _BELOW_1)
    d2 = _real(d2, "d2", "must lie in (d1, 1)", _above(d1), _BELOW_1)
    if p.alpha <= 0.0:
        raise ParameterError(
            "factorial diagnostics require alpha > 0; the two-term asymptotics "
            "do not cover alpha = 0"
        )
    r = _real(r, "factorial_diagnostics", "requires r >= 10", 10.0, error=DomainError)

    g = inverse_gamma_log((2.0 / p.beta) * math.log(r))
    if abs(g - round(g)) < 1e-9:
        g = float(round(g))
    frac = g - math.floor(g)
    span = p.beta * (p.mu + 1.0) - p.alpha
    m_r = min(p.alpha * frac, span * (1.0 - frac))
    return FactorialDiagnostics(
        g=g,
        frac_g=frac,
        n0=peak_index_n0(p.beta, r),
        m_r=m_r,
        in_R=bool(d1 <= frac <= d2),
        in_R0=bool(-p.alpha * frac >= (p.alpha - p.beta * (p.mu + 1.0)) * (1.0 - frac)),
    )


def predict_factorial(
    p: FactorialParams, r: float, d1: float = 0.2, d2: float = 0.8
) -> float:
    """Central two-term estimate r^(-2(mu+1-alpha/beta)) exp(-m(r) log log r).

    Only valid on the good set (d1 <= frac_g <= d2); outside it raises
    ``PreconditionError`` carrying the diagnostics. The neglected error
    factor has exponent of order slack_exponent(r), reported separately.
    """
    diag = factorial_diagnostics(p, r, d1, d2)
    if not diag.in_R:
        raise PreconditionError(
            f"radius r={r} lies outside the good set: frac_g={diag.frac_g:.6f} "
            f"not in [{d1}, {d2}]",
            diagnostics=diag,
        )
    log_r = math.log(r)
    return _normal_exp(
        -2.0 * (p.mu + 1.0 - p.alpha / p.beta) * log_r - diag.m_r * math.log(log_r),
        "predict_factorial",
        "r",
        r,
    )


def slack_exponent(r: float) -> float:
    """log log log r: the scale of the error exponent in predict_factorial."""
    r = _real(r, "slack_exponent", "requires r > e^e", _above(math.exp(math.e)), error=DomainError)
    return math.log(math.log(math.log(r)))


def two_term_estimate(p: FactorialParams, r: float) -> float:
    """Sum of the two peak summands A_n0 + A_n0+1 in log space."""
    r = _real(r, "two_term_estimate", "requires r >= 1", 1.0, error=DomainError)
    n0 = peak_index_n0(p.beta, r)
    la = factorial_summand_log(p, r, n0)
    lb = factorial_summand_log(p, r, n0 + 1)
    return _normal_exp(_logaddexp(la, lb), "two_term_estimate", "r", r)


def factorial_envelope(p: FactorialParams, r: float, epsilon: float) -> FactorialEnvelope:
    """Two-sided envelope r^(2 alpha/beta - 2(mu+1) -+ epsilon).

    ``log_center`` is the matching central log-space line
    -2(mu+1-alpha/beta) log r.
    """
    if p.alpha <= 0.0:
        raise ParameterError("factorial_envelope requires alpha > 0")
    r = _real(r, "factorial_envelope", "requires r >= 100", 100.0, error=DomainError)
    epsilon = _real(epsilon, "epsilon", "must be > 0", _POSITIVE)
    exponent = 2.0 * p.alpha / p.beta - 2.0 * (p.mu + 1.0)
    log_r = math.log(r)
    return FactorialEnvelope(
        lower=_normal_exp((exponent - epsilon) * log_r, "factorial_envelope", "r", r),
        upper=_normal_exp((exponent + epsilon) * log_r, "factorial_envelope", "r", r),
        log_center=exponent * log_r,
    )


def factorial_upper_bound(p: FactorialParams, r: float, epsilon: float) -> float:
    """Ceiling r^(-2(mu+1-alpha/beta)) exp(eps log log r + 5 log log log r).

    The slack constant 5 stands in for the unspecified error-term constant
    and was calibrated empirically.
    """
    if p.alpha <= 0.0:
        raise ParameterError("factorial_upper_bound requires alpha > 0")
    r = _real(r, "factorial_upper_bound", "requires r >= 100", 100.0, error=DomainError)
    epsilon = _real(epsilon, "epsilon", "must be > 0", _POSITIVE)
    log_r = math.log(r)
    return _normal_exp(
        -2.0 * (p.mu + 1.0 - p.alpha / p.beta) * log_r
        + epsilon * math.log(log_r)
        + 5.0 * math.log(math.log(log_r)),
        "factorial_upper_bound",
        "r",
        r,
    )


# ---------------------------------------------------------------------------
# Classical expansion
# ---------------------------------------------------------------------------


def classical_expansion_terms(mu: float, K: int) -> list[ExpansionTerm]:
    """Terms of the divergent large-r expansion of the classical series.

    Term k = -1 is the leading 1/mu * r^(-2 mu); terms k = 0..K carry
    coefficients 2 (-1)^k zeta(-2k-1) Gamma(k+mu+1) / (Gamma(mu+1) k!).
    Coefficients are exact rationals whenever mu is integral. The
    coefficient formulas are well-defined for any mu > 0; the series they
    expand requires mu > 3/2, which eval_classical_expansion enforces.
    K is an integer in 0..31, since the Bernoulli numbers run to index 64
    (``ParameterError``, ``DomainError`` below 0, ``CapacityError`` above 31).
    """
    mu = _real(mu, "classical_expansion_terms", "requires mu > 0", _POSITIVE, error=DomainError)
    K = _integer(K, "K", "must be an integer")
    if K < 0:
        raise DomainError(f"K must be >= 0, got {K}")
    table = bernoulli_table(_MAX_BERNOULLI)
    if 2 * K + 2 > table.max_index:
        raise CapacityError(
            f"expansion order K={K} needs Bernoulli index {2 * K + 2}, "
            f"capacity is {table.max_index}"
        )
    who = "classical_expansion_terms coefficient"
    terms = [ExpansionTerm(k=-1, coefficient=_normal(1.0 / mu, who, "k", -1), r_power=-2.0 * mu)]
    mu_is_int = mu == int(mu)
    for k in range(K + 1):
        zeta_val = zeta_neg_odd(k, table)
        if mu_is_int:  # an exact rational
            coeff = _normal(2 * (-1) ** k * zeta_val * math.comb(k + int(mu), k), who, "k", k)
        else:
            log_ratio = math.lgamma(k + mu + 1.0) - math.lgamma(mu + 1.0) - log_factorial(k)
            coeff = _normal_exp(log_ratio, who, "k", k, 2.0 * (-1.0) ** k * float(zeta_val))
        terms.append(ExpansionTerm(k=k, coefficient=coeff, r_power=-2.0 * k - 2.0 * mu - 2.0))
    return terms


def _expansion_terms(mu: float, K: int = _OPTIMAL_K) -> list[ExpansionTerm]:
    """``classical_expansion_terms(mu, K)`` for the classical series, which
    converges for mu > 3/2 only (``DomainError`` below)."""
    mu = _real(mu, "the classical series", "requires mu > 3/2", _above(1.5), error=DomainError)
    return classical_expansion_terms(mu, K)


def eval_classical_expansion(
    mu: float,
    r: float,
    mode: str = "optimal",
    K: int | None = None,
) -> tuple[float, float]:
    """Partial sum of the classical expansion with its error estimate.

    In "optimal" mode the sum stops before the smallest-magnitude
    correction term and reports that term's magnitude as the error
    estimate. In "fixed" mode, K counts the correction terms beyond the
    leading one, and the estimate is the next term's magnitude; K is
    checked as ``classical_expansion_terms`` checks it, an integer in 0..31.
    """
    r = _real(r, "eval_classical_expansion", "requires r > 1", _above(1.0), error=DomainError)
    if mode not in ("optimal", "fixed"):
        raise ParameterError(f"mode must be 'optimal' or 'fixed', got {mode!r}")
    if mode == "fixed" and K is None:
        raise ParameterError("fixed mode requires K")
    # fixed mode: the K corrections it sums and the next one, its estimate
    terms = _expansion_terms(mu, K if mode == "fixed" else _OPTIMAL_K)
    log_r = math.log(r)
    values = [t.coefficient * math.exp(t.r_power * log_r) for t in terms]
    leading, corrections = values[0], values[1:]

    if mode == "fixed":
        value = leading + math.fsum(corrections[:K])
        estimate = abs(corrections[K])
    else:
        stop = len(corrections) - 1
        for j in range(len(corrections) - 1):
            if abs(corrections[j + 1]) >= abs(corrections[j]):
                stop = j
                break
        value, estimate = leading + math.fsum(corrections[:stop]), abs(corrections[stop])
    return _normal(value, "classical expansion", "r", r), estimate


def _classical_series(mu: float, radii: list[float], rel_tol: float) -> list:
    """Per radius r, the classical series sum over n >= 1 of 2n/(n^2+r^2)^(mu+1), summed
    directly, or the error that raised: twice the power-log sum over n >= 2 at
    (1, 2, 0, 0, mu), the radii's sums in one grid, plus the n = 1 term.
    """
    from .series import _powerlog_outcomes  # the closed forms above run without series

    p = PowerLogParams(1, 2, 0, 0, mu)
    return [
        res if isinstance(res, Exception) else 2.0 * res.value + _first_term(mu, r)
        for r, res in zip(radii, _powerlog_outcomes([(p, r) for r in radii], rel_tol))
    ]


def _first_term(mu: float, r: float) -> float:
    """2/(1+r^2)^(mu+1); in logs where the power overflows, the term then being subnormal or 0."""
    try:
        return 2.0 / (1.0 + r * r) ** (mu + 1.0)
    except OverflowError:
        return 2.0 * math.exp(-(mu + 1.0) * math.log1p(r * r))
