"""Closed-form asymptotic predictions and diagnostics.

Leading-order laws for the power-logarithmic family (both the generic and
the integer-exponent branch of the constant), fractional-part diagnostics
and predictions for the factorial family, the epsilon-envelope and
log-power ceiling bounds, and the full divergent expansion of the classical
Mathieu series with optimal truncation.
"""

from __future__ import annotations

import math
import sys

from .errors import (
    CapacityError,
    DomainError,
    NumericError,
    ParameterError,
    PreconditionError,
)
from ._core import (
    FactorialParams,
    PowerLogParams,
    _normal_exp,
    _require_radius,
    factorial_summand_log,
    peak_index_n0,
)
from ._record import record
from .special import (
    bernoulli_table,
    inverse_gamma_log,
    is_positive_integer,
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


@record
class AsymptoticPrediction:
    """Constant, radius power and log power of a leading-order law."""

    constant: float
    r_exponent: float
    log_exponent: float

    def value_at(self, r: float) -> float:
        """constant * r^r_exponent * (log r)^log_exponent for r > e.

        Raises ``DomainError`` for r <= e and ``NumericError`` when the value
        is not a normal double.
        """
        r = _require_radius(r, math.e, "the leading-order law", shown="e")
        log_r = math.log(r)
        try:
            value = self.constant * math.exp(
                self.r_exponent * log_r + self.log_exponent * math.log(log_r)
            )
        except OverflowError:
            value = math.inf
        if not (math.isfinite(value) and abs(value) >= sys.float_info.min):
            raise NumericError(f"leading-order value at r={r} is {value}, not a normal double")
        return value


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


def _gamma_checked(x: float, label: str) -> float:
    if x <= 0.0 and abs(x - round(x)) < 1e-9:
        raise DomainError(f"gamma pole in {label}: argument {x} is a nonpositive integer")
    try:
        return math.gamma(x)
    except ValueError as exc:
        raise DomainError(f"gamma pole in {label}: argument {x}") from exc


def _gamma_ratio(a: float, x: float) -> float:
    """Gamma(a)/Gamma(x) for 0 < a < x where Gamma(x) overflows a double (x > 171.6).

    Both arguments shift down by the same k, so that Gamma(x - k) is finite:
    Gamma(a)/Gamma(x) = Gamma(a-k)/Gamma(x-k) * prod_{j=1..k} (a-j)/(x-j),
    within 5e-15 of mpmath for x <= 401. Where a - k would reach a pole, the
    difference of ``math.lgamma`` is taken instead; it is only good to
    ~x * 1e-15 relative, since both logs are ~x log x.
    """
    k = math.ceil(x) - 171
    if a - k <= 0.0:
        return math.exp(math.lgamma(a) - math.lgamma(x))
    ratio = math.gamma(a - k) / math.gamma(x - k)
    for j in range(1, k + 1):
        ratio *= (a - j) / (x - j)
    return ratio


def leading_constant(p: PowerLogParams) -> float:
    """Constant of the leading-order law for the power-log family.

    The branch follows the shared detection rule ``is_positive_integer`` on
    m = delta*(alpha+1)/beta - gamma, with no override; m = 0 is generic.
    Past mu ~ 170, where Gamma(mu+1) overflows, the ratio
    Gamma(mu+1-(alpha+1)/beta)/Gamma(mu+1) is taken as one number
    (``_gamma_ratio``). Raises ``NumericError`` when the constant still
    overflows a double, and ``PreconditionError`` off the integer branch
    for m > 1: there the singular part of the log-weighted zeta is only a
    correction around a finite limit (``zeta_singular_prediction``), and
    the generic formula, whose Gamma(1-m) changes sign, is not the law.
    """
    m = p.delta * (p.alpha + 1.0) / p.beta - p.gamma
    integer = is_positive_integer(m)
    if not integer and m > 1.0:
        raise PreconditionError(
            f"no first-order law for {p}: m = delta(alpha+1)/beta - gamma = {m:.6g} "
            "is above 1 and not an integer, where the singular part is only a correction"
        )
    a = -(p.alpha + 1.0) / p.beta + p.mu + 1.0
    b = (p.alpha + 1.0) / p.beta
    try:
        try:
            common = _gamma_checked(a, "Gamma(mu+1-(alpha+1)/beta)") * _gamma_checked(
                b, "Gamma((alpha+1)/beta)"
            )
            gamma_mu1 = math.gamma(p.mu + 1.0)
        except OverflowError:
            common, gamma_mu1 = _gamma_ratio(a, p.mu + 1.0) * math.gamma(b), 1.0
        if integer:
            mi = round(m)
            constant = p.beta ** (mi - 1) * common / (2.0**mi * gamma_mu1)
        else:
            constant = (
                (0.5 * p.beta) ** (m - 1.0)
                * _gamma_checked(m + 1.0, "Gamma(m+1)")
                / (2.0 * gamma_mu1 * _gamma_checked(-m + 1.0, "Gamma(1-m)"))
                * common
            )
    except OverflowError:
        constant = math.inf
    if not math.isfinite(constant):
        raise NumericError(f"the leading constant of {p} overflows a double")
    return constant


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
    if not (0.0 < d1 < d2 < 1.0):
        raise ParameterError(f"need 0 < d1 < d2 < 1, got d1={d1}, d2={d2}")
    if p.alpha <= 0.0:
        raise ParameterError(
            "factorial diagnostics require alpha > 0; the two-term asymptotics "
            "do not cover alpha = 0"
        )
    r = _require_radius(r, 10.0, "factorial_diagnostics", inclusive=True)

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
        r,
    )


def slack_exponent(r: float) -> float:
    """log log log r: the scale of the error exponent in predict_factorial."""
    r = float(r)
    if r <= math.exp(math.e):
        raise DomainError(f"slack_exponent requires r > e^e, got {r}")
    return math.log(math.log(math.log(r)))


def two_term_estimate(p: FactorialParams, r: float) -> float:
    """Sum of the two peak summands A_n0 + A_n0+1 in log space."""
    r = _require_radius(r, 1.0, "two_term_estimate", inclusive=True)
    n0 = peak_index_n0(p.beta, r)
    la = factorial_summand_log(p, r, n0)
    lb = factorial_summand_log(p, r, n0 + 1)
    hi, lo = (la, lb) if la >= lb else (lb, la)
    return _normal_exp(hi + math.log1p(math.exp(lo - hi)), "two_term_estimate", r)


def factorial_envelope(p: FactorialParams, r: float, epsilon: float) -> FactorialEnvelope:
    """Two-sided envelope r^(2 alpha/beta - 2(mu+1) -+ epsilon).

    ``log_center`` is the matching central log-space line
    -2(mu+1-alpha/beta) log r.
    """
    if p.alpha <= 0.0:
        raise ParameterError("factorial_envelope requires alpha > 0")
    r = _require_radius(r, 100.0, "factorial_envelope", inclusive=True)
    if not epsilon > 0.0:
        raise ParameterError(f"epsilon must be > 0, got {epsilon}")
    exponent = 2.0 * p.alpha / p.beta - 2.0 * (p.mu + 1.0)
    log_r = math.log(r)
    return FactorialEnvelope(
        lower=_normal_exp((exponent - epsilon) * log_r, "factorial_envelope", r),
        upper=_normal_exp((exponent + epsilon) * log_r, "factorial_envelope", r),
        log_center=exponent * log_r,
    )


def factorial_upper_bound(p: FactorialParams, r: float, epsilon: float) -> float:
    """Ceiling r^(-2(mu+1-alpha/beta)) exp(eps log log r + 5 log log log r).

    The slack constant 5 stands in for the unspecified error-term constant
    and was calibrated empirically.
    """
    if p.alpha <= 0.0:
        raise ParameterError("factorial_upper_bound requires alpha > 0")
    r = _require_radius(r, 100.0, "factorial_upper_bound", inclusive=True)
    if not epsilon > 0.0:
        raise ParameterError(f"epsilon must be > 0, got {epsilon}")
    log_r = math.log(r)
    return _normal_exp(
        -2.0 * (p.mu + 1.0 - p.alpha / p.beta) * log_r
        + epsilon * math.log(log_r)
        + 5.0 * math.log(math.log(log_r)),
        "factorial_upper_bound",
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
    if not (math.isfinite(mu) and mu > 0.0):
        raise DomainError(f"classical expansion terms require mu > 0, got {mu}")
    if isinstance(K, bool) or not hasattr(K, "__index__"):  # ints and numpy ints only
        raise ParameterError(f"K must be an integer, got {K!r}")
    if K < 0:
        raise DomainError(f"K must be >= 0, got {K}")
    table = bernoulli_table(_MAX_BERNOULLI)
    if 2 * K + 2 > table.max_index:
        raise CapacityError(
            f"expansion order K={K} needs Bernoulli index {2 * K + 2}, "
            f"capacity is {table.max_index}"
        )
    terms = [ExpansionTerm(k=-1, coefficient=1.0 / mu, r_power=-2.0 * mu)]
    mu_is_int = mu == int(mu)
    for k in range(K + 1):
        zeta_val = zeta_neg_odd(k, table)
        if mu_is_int:
            coeff = float(2 * (-1) ** k * zeta_val * math.comb(k + int(mu), k))
        else:
            ratio = math.exp(
                math.lgamma(k + mu + 1.0) - math.lgamma(mu + 1.0) - log_factorial(k)
            )
            coeff = 2.0 * (-1.0) ** k * float(zeta_val) * ratio
        terms.append(ExpansionTerm(k=k, coefficient=coeff, r_power=-2.0 * k - 2.0 * mu - 2.0))
    return terms


def _require_expansion_mu(mu: float) -> None:
    """``DomainError`` unless the classical series converges, mu > 3/2."""
    if not (math.isfinite(mu) and mu > 1.5):
        raise DomainError(f"the classical series requires mu > 3/2, got {mu}")


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
    _require_expansion_mu(mu)
    r = _require_radius(r, 1.0, "eval_classical_expansion")
    if mode not in ("optimal", "fixed"):
        raise ParameterError(f"mode must be 'optimal' or 'fixed', got {mode!r}")
    if mode == "fixed" and K is None:
        raise ParameterError("fixed mode requires K")
    # fixed mode: the K corrections it sums and the next one, its estimate
    terms = classical_expansion_terms(mu, K if mode == "fixed" else (_MAX_BERNOULLI - 2) // 2)
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
    if not (math.isfinite(value) and abs(value) >= sys.float_info.min):
        raise NumericError(f"classical expansion value at r={r} is {value}, not a normal double")
    return value, estimate


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
