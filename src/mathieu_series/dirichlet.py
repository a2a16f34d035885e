"""Dirichlet series on the real axis and Mellin-side closed forms.

Provides the log-weighted zeta sum over (log n)^eta / (n (log n)^theta)^s,
its leading singular model near s = 1, the factorial Dirichlet sum over
(n!)^(-s), the log-factorial Dirichlet sum, the Mellin closed forms of both
Mathieu-type families, and the saddle-point upper bound for the factorial
family. The log-weighted zeta and log-factorial sums share one cutoff walk
(``_cutoff_sums``): an explicit head below a cutoff N, plus the
Euler-Maclaurin tail of the power-log series (``tails.euler_maclaurin_tail``)
from N on, N growing until the tail's remainder bound plus the error of its
integral is within rel_tol of the value. The factorial sum takes the same
tail at small s, where its direct head does not certify, up to a finite
end past which a geometric bound on the rest, added to the certificate, is
negligible. ``log_weighted_zeta`` and ``saddle_point_bound`` are the
one-item cases of private list forms that take many inputs in lockstep,
each input to its own outcome.
Evaluation stays on the real axis: the closed forms live on their
convergence strips, and behavior at the boundary is represented by the
singular-model operations rather than by analytic continuation.

All operations are pure and stateless.
"""

from __future__ import annotations

import math
from typing import Optional

from ._deferred import deferred_module
from ._record import record
from .errors import (
    _DBL_MIN,
    _POSITIVE,
    DomainError,
    NumericError,
    ParameterError,
    _above,
    _normal,
    _normal_exp,
    _real,
    _rel_tol,
)
from .series import (
    FactorialParams,
    PowerLogParams,
    _log_x_integral,
    _raise_first,
)
from .special import (
    is_positive_integer,
    lambert_w,
    log_abs_gamma,
    log_log_factorial,
)
from .tails import Jet, euler_maclaurin_tail, exp_poly_tail, quad

np = deferred_module("numpy")

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
]

# factorial_dirichlet: the direct head covers n < 2^14 (the Stirling summand
# of its Euler-Maclaurin tail needs n >= 1e4); the tail's finite end stays
# below 2^980, where log n! (~7e297) still fits a double.
_FACTORIAL_HEAD_END = 2**14
_FACTORIAL_STOP_MAX = 2**980
_ABOVE_1 = _above(1.0)


@record
class DirichletParams:
    """Weight exponents (eta, theta) of the log-weighted zeta sum."""

    eta: float
    theta: float

    def __post_init__(self):
        _real(self.eta, "eta", "must be finite")
        _real(self.theta, "theta", "must be finite")


@record
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

    The cutoff walk of ``_cutoff_sums``, with the tail integral as an
    incomplete-gamma value by quadrature (``tails.exp_poly_tail``). Raises
    ``NumericError`` when the value is not a normal double.
    """
    return _raise_first(_log_weighted_zetas([(p, s)], rel_tol))[0]


def _log_weighted_zetas(items: list, rel_tol: float) -> list:
    """Per item (p, s), what ``log_weighted_zeta(p, s, rel_tol)`` returns or
    raises, all in one ``_cutoff_sums`` walk."""

    def exponents(live):  # c and s of each open item's summand (log x)^c x^(-s)
        return np.array([(items[i][0].eta - items[i][0].theta * s, s) for i, s in live.items()]).T

    def head(lx, live):
        ll = np.log(lx)
        return (c * ll - s * lx for c, s in zip(*exponents(live)))

    def tail_integrals(live, u0):  # over [e^u0, inf) via x = exp(u), in one call
        c, s = exponents(live)
        integrals = exp_poly_tail((s - 1.0).tolist(), c.tolist(), [u0] * len(s))
        return integrals, lambda lx, k: c[k] * np.log(lx) - s[k] * lx

    ss = [s for _, s in items]
    return _cutoff_sums("log_weighted_zeta", ss, rel_tol, 10_000, head, tail_integrals)


def _cutoff_sums(name: str, ss: list, rel_tol: float, n_cut: int, head, tail_integrals) -> list:
    """Per s of ``ss``, the sum over n >= 2 of its summand f for that s > 1,
    or the error its one-item call raises, ``name`` in the messages.

    The terms below a cutoff N, plus the Euler-Maclaurin tail from N on,
    whose remainder bound plus the error of the tail integral must come
    within rel_tol of the value; N starts at ``n_cut`` and grows fourfold,
    up to three times, until it does. The items walk their cutoffs in
    lockstep, each dropping out once it certifies or fails. At each cutoff
    the callbacks take the open items ``live`` (item: its s): ``head(lx,
    live)`` gives the logs of each one's terms, given lx = log n for
    2 <= n < N, and ``tail_integrals(live, log N)`` each one's integral of
    f over [N, inf) and its error, or the exception raised, with the
    log f(log x, k) of the k-th open item. A bad ``rel_tol`` is the
    outcome of each item whose s passes its check.

    An item whose value its head and tail integral already place outside
    the normal doubles fails without the Euler-Maclaurin tail, whose
    derivatives overflow at such s (from s ~ 1e50 on): a head past the
    double range, or a head plus f(N) plus the integral below the smallest
    normal double where f falls at N. Each summand here, once it falls at
    a cutoff, falls from there on, so the sum from N is at most f(N) plus
    the integral.
    """
    out: list = [None] * len(ss)
    live = {}  # item: its s
    for i, s in enumerate(ss):
        try:
            s = _real(s, name, "requires s > 1", _ABOVE_1, error=DomainError)
            rel_tol = _rel_tol(rel_tol)
        except (DomainError, ParameterError) as exc:
            out[i] = exc
        else:
            live[i] = s
    for n_cut in [n_cut * 4**j for j in range(4)]:  # N, 4N, 16N, 64N
        if not live:
            return out
        u0 = math.log(n_cut)
        lx = np.log(np.arange(2, n_cut, dtype=np.float64))
        with np.errstate(over="ignore"):  # an inf head fails the value's check
            partials = [float(np.sum(np.exp(logs))) for logs in head(lx, live)]
        integrals, log_f = tail_integrals(live, u0)
        outside = {}  # open item: a value, or a bound on it, outside the normal doubles
        for k, (partial, integral) in enumerate(zip(partials, integrals)):
            if partial == math.inf:
                outside[k] = partial
            elif not isinstance(integral, Exception):
                ceiling = partial + math.exp(log_f(u0, k)) + integral[0] + integral[1]
                if ceiling < _DBL_MIN and log_f(Jet.log_variable(u0, 1), k).c[1] <= 0.0:
                    outside[k] = ceiling
        ok = [k for k, t in enumerate(integrals) if not (isinstance(t, Exception) or k in outside)]
        found = [integrals[k] for k in ok]
        at = np.array(ok, int)
        em = euler_maclaurin_tail(
            lambda lx, k: log_f(lx, at[k]), n_cut, [v for v, _ in found], [e for _, e in found]
        )
        tails = dict(zip(ok, em))
        still = {}
        for k, ((i, s), partial, integral) in enumerate(zip(live.items(), partials, integrals)):
            tail = tails.get(k, integral)
            try:
                if isinstance(tail, Exception) and k not in outside:
                    raise tail
                value = _normal(outside[k] if k in outside else partial + tail[0], name, "s", s)
            except Exception as exc:
                out[i] = exc
                continue
            if tail[1] <= rel_tol * value:
                out[i] = value
            else:
                still[i] = s
        live = still
    for i, s in live.items():
        out[i] = NumericError(f"{name} did not reach rel_tol={rel_tol} at s={s} (cutoff {n_cut})")
    return out


def zeta_singular_prediction(p: DirichletParams, s: float) -> float:
    """Leading singular model of the log-weighted zeta as s approaches 1.

    Integer m = theta - eta (``is_positive_integer``, no override):
    ((-1)^(m-1)/(m-1)!) (s-1)^(m-1) log(1/(s-1));
    otherwise Gamma(eta-theta+1) (s-1)^(theta-eta-1). For theta - eta > 1
    in the non-integer branch this is the singular correction around the
    finite limit value, not the limit itself. ``NumericError`` when the
    model is not a normal double.
    """
    s = _real(
        s, "zeta_singular_prediction", "requires s - 1 in (0, 0.5)", _ABOVE_1,
        math.nextafter(1.5, 1.0), error=DomainError,
    )
    m = p.theta - p.eta
    try:
        if is_positive_integer(m):
            mi = round(m)
            value = (
                ((-1.0) ** (mi - 1))
                / math.factorial(mi - 1)
                * (s - 1.0) ** (mi - 1)
                * math.log(1.0 / (s - 1.0))
            )
        else:  # eta - theta + 1 = 1 - m is no pole of Gamma here
            value = math.gamma(p.eta - p.theta + 1.0) * (s - 1.0) ** (p.theta - p.eta - 1.0)
    except OverflowError:
        value = math.inf
    return _normal(value, "zeta_singular_prediction", "s", s)


# ---------------------------------------------------------------------------
# Factorial Dirichlet sums
# ---------------------------------------------------------------------------


def factorial_dirichlet(s: float, rel_tol: float = 1e-12) -> float:
    """Sum over n >= 0 of (n!)^(-s) for s > 0.

    A direct head in doubling blocks stops at the first block end where the
    geometric continuation bound certifies the omitted tail below rel_tol
    times the partial sum (with the extra two-decade per-term margin on
    top). When the head has not certified by n = N = 2^14 (s below 1e-4 to
    2e-4, by rel_tol), the sum over N <= n <= M runs on the shared
    Euler-Maclaurin tail, with the summand from Stirling's series; M is the
    first doubling of N whose geometric bound on the terms past it is below
    rel_tol/100 times the head sum (a lower bound on the value), and that
    bound joins the certificate. Raises ``NumericError`` when the
    certificate does not reach rel_tol.
    """
    s = _real(s, "factorial_dirichlet", "requires s > 0", _POSITIVE, error=DomainError)
    rel_tol = _rel_tol(rel_tol)

    log_fact = 0.0
    n = 1
    block = 1024
    blocks = [2.0]  # n = 0 and n = 1 terms
    while n < _FACTORIAL_HEAD_END - 1:
        ns = np.arange(n + 1, min(n + block, _FACTORIAL_HEAD_END - 1) + 1, dtype=np.float64)
        lf = log_fact + np.cumsum(np.log(ns))
        with np.errstate(over="ignore"):  # -s log n! past the double range: a term of 0
            blocks.append(float(np.sum(np.exp(-s * lf))))
        log_fact = float(lf[-1])
        n += len(ns)
        partial = math.fsum(blocks)
        t_next, tail_bound = _factorial_geometric_tail(s, n, log_fact)
        if tail_bound <= rel_tol * partial and t_next <= 1e-2 * rel_tol * partial:
            return partial
        block *= 2

    start = n + 1
    stop = 2 * start
    while True:
        _, far = _factorial_geometric_tail(s, stop, math.lgamma(stop + 1.0))
        if far <= 1e-2 * rel_tol * partial:
            break
        stop *= 2
        if stop > _FACTORIAL_STOP_MAX:
            raise NumericError(f"factorial_dirichlet: s={s} is too small to sum")

    def log_f(lx, k=0):
        return -s * np.exp(log_log_factorial(lx))

    # x (n!)^(-s) peaks in u = log x where u + log u = log(1/s)
    u_peak = lambert_w(1.0 / s)
    u_start, u_stop = math.log(start), math.log(stop)
    edges = (u_start, min(max(u_peak, u_start), u_stop), u_stop)
    ((integral, err),) = _raise_first(_log_x_integral(log_f, [edges]))
    ((tail, bound),) = _raise_first(
        euler_maclaurin_tail(log_f, start, [integral], [err], [(u_peak,)], stop)
    )
    value = partial + tail
    bound += far
    if not bound <= rel_tol * value:
        raise NumericError(
            f"factorial_dirichlet did not reach rel_tol={rel_tol} at s={s} "
            f"(bound {bound / value:.2g} of the value)"
        )
    return value


def _factorial_geometric_tail(s: float, n: int, log_fact: float) -> tuple[float, float]:
    """(t, bound): the term t = ((n+1)!)^(-s) and t/(1-q), q = (n+2)^(-s), given log n!.

    Successive terms past n shrink by at least q, so the bound covers every term after n.
    """
    t_next = math.exp(-s * (log_fact + math.log(n + 1)))
    return t_next, t_next / -math.expm1(-s * math.log(n + 2))


def log_factorial_dirichlet(s: float, rel_tol: float = 1e-10) -> float:
    """Sum over n >= 2 of (log n!)^(-s) for s > 1, by the cutoff walk of
    ``_cutoff_sums``: its head takes log n! as a running sum of logs, its
    tail the summand lgamma(x+1)^(-s) from Stirling's series, integrated by
    quadrature in u = log x to infinity. Raises ``NumericError`` when the
    value is not a normal double.
    """

    def log_f(lx, k):
        return -s * log_log_factorial(lx)

    def head(lx, live):  # log(2) + ... + log(n) = log n!
        return [-s * np.log(np.cumsum(lx))]

    def tail_integrals(live, u0):
        return _log_x_integral(log_f, [(u0, math.inf)]), log_f

    name = "log_factorial_dirichlet"
    return _raise_first(_cutoff_sums(name, [s], rel_tol, 20_000, head, tail_integrals))[0]


# ---------------------------------------------------------------------------
# Mellin closed forms and the saddle-point bound
# ---------------------------------------------------------------------------


def _mellin_value(who: str, front: float, mu: float, s: float) -> float:
    """front * Gamma(mu+1-s/2) Gamma(s/2) / (2 Gamma(mu+1)) for 0 < s < 2 mu + 2;
    ``NumericError`` unless it is a normal double.

    s/2 rounds to 0 at s = 5e-324 only, where Gamma(s/2) is past the double
    range as it is at the least double, which takes its place.
    """
    lg, half = math.lgamma, max(0.5 * s, _POSITIVE)
    log_gammas = lg(mu + 1.0 - half) + lg(half) - lg(mu + 1.0)
    return _normal_exp(log_gammas, who, "s", s, 0.5 * front)


def mellin_powerlog(p: PowerLogParams, s: float, rel_tol: float = 1e-8) -> float:
    """Mellin transform of the power-log series at real s in (0, shat)."""
    frame = transform_frame(powerlog=p)
    s = _real(
        s, "mellin_powerlog", f"requires s in (0, {frame.shat})", _POSITIVE,
        math.nextafter(frame.shat, 0.0), error=DomainError,
    )
    w = 1.0 + 0.5 * p.beta * (frame.shat - s)
    zeta_val = log_weighted_zeta(
        DirichletParams(eta=frame.map_eta, theta=frame.map_theta), w, rel_tol
    )
    return _mellin_value("mellin_powerlog", zeta_val, p.mu, s)


def mellin_factorial(p: FactorialParams, s: float, rel_tol: float = 1e-10) -> float:
    """Mellin transform of the factorial series at real s in (0, stilde)."""
    frame = transform_frame(factorial=p)
    s = _real(
        s, "mellin_factorial", f"requires s in (0, {frame.stilde})", _POSITIVE,
        math.nextafter(frame.stilde, 0.0), error=DomainError,
    )
    eta_val = factorial_dirichlet(0.5 * p.beta * (frame.stilde - s), rel_tol)
    return _mellin_value("mellin_factorial", eta_val, p.mu, s)


def _gamma_line_integral(points: list) -> list:
    """Per (mu, sigma) of ``points``, (1/2pi) times the integral over y of
    |Gamma(mu+1-(sigma+iy)/2) Gamma((sigma+iy)/2)| / (2 Gamma(mu+1)), or the
    ``NumericError`` of its quadrature.

    Even in y, so (1/pi) times the integral over [0, inf), by one ``quad``
    call on arrays of y for all the points. |Gamma(a - iy)| = |Gamma(a + iy)|,
    so both factors come from ``special.log_abs_gamma`` on the real parts
    (mu+1-sigma/2, sigma/2) at y/2: one call per shift of the real parts
    that it takes, so that each node gets the shift of its point alone.
    """
    parts = np.array([[mu + 1.0 - 0.5 * sigma, 0.5 * sigma] for mu, sigma in points]).reshape(-1, 2)
    log_norm = np.array([math.lgamma(mu + 1.0) + math.log(2.0) for mu, _ in points])
    # log_abs_gamma's shift: the real parts up to >= 8
    shifts = np.array([max(0, math.ceil(8.0 - min(x))) for x in parts.tolist()], dtype=int)
    parts = parts.T.copy()

    def integrand(y, k):
        k = np.broadcast_to(k, y.shape)
        node_shifts = shifts[k]
        out = np.empty_like(y)
        for shift in np.unique(node_shifts).tolist():
            at = node_shifts == shift
            log_pair = log_abs_gamma(parts[:, k[at]], 0.5 * y[at]).sum(axis=0)
            out[at] = np.exp(log_pair - log_norm[k[at]])
        return out

    found = quad(integrand, [0.0] * len(points), [math.inf] * len(points), epsrel=1e-10, limit=300)
    return [line if isinstance(line, Exception) else line[0][0] / math.pi for line in found]


def saddle_point_bound(p: FactorialParams, r: float) -> float:
    """Saddle-point bound for the factorial series from its Mellin line.

    Evaluates e * r^(-stilde) * eta(beta/(2 log r)) * I(sigma_r) at the
    saddle abscissa sigma_r = stilde - 1/log r, as the exp of its log.
    Valid for alpha >= 0. It is an upper bound in exact arithmetic, but the
    line integral I is evaluated by quadrature (to an estimated relative
    error of 1e-10) with no margin for its error, so the number returned is
    not certified. Raises ``NumericError`` when the bound is not a normal
    double.
    """
    return _raise_first(_saddle_point_bounds([(p, r)]))[0]


def _saddle_point_bounds(points: list) -> list:
    """Per point (p, r), what ``saddle_point_bound(p, r)`` returns or raises.

    One ``_gamma_line_integral`` call takes the line integrals of all the
    points that get that far.
    """
    out: list = [None] * len(points)
    lines = {}  # point: (mu, sigma) of its line, r, and the log of the rest of its bound
    for i, (p, r) in enumerate(points):
        try:
            r = _real(r, "saddle_point_bound", "requires r >= 10", 10.0, error=DomainError)
            frame = transform_frame(factorial=p)
            log_r = math.log(r)
            sigma = frame.stilde - 1.0 / log_r
            if sigma <= 0.0:
                raise DomainError(
                    f"saddle abscissa {sigma} is not positive; r is too small for these parameters"
                )
            eta_val = factorial_dirichlet(0.5 * p.beta / log_r, rel_tol=1e-10)
        except Exception as exc:  # the outcome of its one-point call
            out[i] = exc
        else:
            lines[i] = (p.mu, sigma), r, 1.0 - frame.stilde * log_r + math.log(eta_val)
    found = _gamma_line_integral([line for line, _, _ in lines.values()])
    for (i, (_, r, log_rest)), line in zip(lines.items(), found):
        if isinstance(line, Exception):
            out[i] = line
            continue
        try:
            out[i] = _normal_exp(log_rest + math.log(line), "saddle_point_bound", "r", r)
        except NumericError as exc:
            out[i] = exc
    return out
