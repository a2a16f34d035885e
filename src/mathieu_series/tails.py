"""Tail sums and tail integrals for slowly decaying summands.

Three tools live here:

* integral-comparison tails of x^A (log x)^B, through the substitution
  x = exp(u) integrals of u^B e^(-s u), that is upper incomplete gamma
  values: a closed-form rigorous upper bound for any real log-power B
  (``powerlog_tail_bound``), and the value with its error estimate by
  ``quad`` in double precision (``exp_poly_tail``);
* ``quad``, the package's one quadrature rule: adaptive Gauss-Kronrod
  10/21 panels with QUADPACK's error estimate and roundoff floor (Piessens
  et al., 1983). Given breakpoints, as QUADPACK's qagp, it refines each
  segment on its own but in lockstep, evaluating the integrand once per
  round on the new nodes of every segment, so integrands are written on
  numpy arrays; ``series`` and ``dirichlet`` bind it under that name;
* the Euler-Maclaurin tail shared by every sum in the package that runs
  past its explicit head: the power-log series, the log-weighted zeta sum,
  the log-factorial Dirichlet sum, and the factorial Dirichlet sum at small
  s (which stops the tail at a finite end). The summand is written once,
  as its logarithm in terms of log x; evaluated on a ``Jet`` (truncated
  Taylor series, its coefficients one (K+1, *shape) array) it yields the
  derivatives the correction terms and the remainder bound need, with no
  finite differences: one array jet per quadrature round. Where they
  overflow, log f falls so steeply that a summand falling at the first end
  N falls from there on, so f(N) plus the integral bounds the tail.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import Callable

from ._core import _raise_first
from ._deferred import deferred_module
from .errors import DomainError, NumericError
from .special import bernoulli_table

np = deferred_module("numpy")

_LOG_DBL_MAX = math.log(sys.float_info.max)

__all__ = [
    "Jet",
    "exp_poly_tail",
    "powerlog_tail_bound",
    "powerlog_majorant_is_decreasing",
    "euler_maclaurin_tail",
]


def exp_poly_tail(decay, power, u0):
    """Integral of u^power * exp(-decay*u) over [u0, infinity) and its error estimate.

    Requires decay > 0 and u0 > 0; any real power. With t = decay*u0 the
    integral is decay^(-power-1) times the upper incomplete gamma function
    at (power+1, t), which in v = e^w is the integral of
    exp((power+1) w - e^w) over w >= log t. ``quad`` integrates that
    divided by its value at w = log t, so that it starts at 1 whatever the
    scale, with w - log t in units of the integrand's initial decay length
    1/(t - power - 1) where that is below 1. The scale u0^(power+1) e^(-t),
    the factor decay^(-power-1) included, goes back on in logs. The error
    is the quadrature's estimate on the same scale plus the rounding of
    those logs. A value below the smallest subnormal reads 0; one
    above the double range raises ``NumericError``.

    Given lists for ``decay``, ``power`` and ``u0``, one ``quad`` call
    takes all the integrals in lockstep, and the result is a list with, per
    integral, its (value, error) or the exception its one-integral call
    raises, which stops no other.
    """
    if not isinstance(decay, (list, tuple)):
        return _raise_first(exp_poly_tail([decay], [power], [u0]))[0]
    out: list = [None] * len(decay)
    live = {}  # integral: (t, power + 1, width)
    for i, (d, q, u) in enumerate(zip(decay, power, u0)):
        if d <= 0.0:
            out[i] = DomainError(f"exp_poly_tail requires positive decay, got {d}")
        elif u <= 0.0:
            out[i] = DomainError(f"exp_poly_tail requires u0 > 0, got {u}")
        else:
            t = d * u
            live[i] = t, q + 1.0, 1.0 / max(1.0, t - (q + 1.0))
    ts, q1s, widths = np.array(list(live.values()), dtype=np.float64).reshape(-1, 3).T

    def integrand(y: np.ndarray, k) -> np.ndarray:  # w = log t + width * y
        d = widths[k] * y
        with np.errstate(over="ignore"):  # e^d overflows far out, where the integrand is 0
            return np.exp(q1s[k] * d - ts[k] * np.expm1(d))

    found = quad(integrand, [0.0] * len(live), [math.inf] * len(live), epsrel=1e-13, limit=400)
    for (i, (t, q1, width)), segments in zip(live.items(), found):
        if isinstance(segments, Exception):
            out[i] = segments
            continue
        ((integral, err),) = segments
        log_u0_power = q1 * math.log(u0[i])
        log_value = log_u0_power - t + math.log(width * integral)
        if log_value >= _LOG_DBL_MAX:
            out[i] = NumericError(f"incomplete-gamma tail e^{log_value:.6g} overflows")
            continue
        value = math.exp(log_value)
        # the rounding of the logs moves the value by up to 4 eps times their size
        log_rounding = 4.0 * _EPS * (abs(log_u0_power) + t + abs(log_value) + 1.0)
        out[i] = value, value * (err / integral + log_rounding)
    return out


def powerlog_tail_bound(power: float, log_power: float, from_x: float) -> float:
    """A rigorous upper bound on the integral of x^power (log x)^log_power over [from_x, inf).

    Requires power < -1 and from_x > 1 so the integral converges. In
    u = log x it is I, the integral of u^q e^(-s u) over [u0, inf), with
    s = -(power+1), u0 = log from_x, q = log_power; write t = s u0. The
    bound is the least of these upper bounds on I:

    * K-fold integration by parts, K <= 30: I = u0^q e^(-t)/s S_K + R_K,
      S_K the sum over k < K of c_k = (q)_k / t^k ((q)_k the falling
      factorial) and R_K = c_K u0^K times the integral of
      u^(q-K) e^(-s u), which has the sign of c_K and is at most |c_K| I
      in size, as u^(-K) <= u0^(-K). So
      I <= u0^q e^(-t)/s S_K when c_K <= 0, and that divided by 1 - c_K
      when 0 < c_K < 1. S_K and c_K are pushed outward by their rounding
      (below 4 K eps times the sum of |c_k|, and 4 K eps |c_K|);
    * e^(-t) u0^(q+1) / (-q-1) for q < -1, from e^(-s u) <= e^(-t);
    * Gamma(q+1) s^(-q-1), the integral over u > 0, for q > -1.

    Formed in logs and raised by a relative 1e-12 for the rounding of the
    logs. A bound above the double range is inf; one below the smallest
    subnormal reads 0.
    """
    if power >= -1.0:
        raise DomainError(f"powerlog tail integral needs power < -1, got {power}")
    if from_x <= 1.0:
        raise DomainError(f"powerlog tail integral needs from_x > 1, got {from_x}")
    q = log_power
    s = -(power + 1.0)
    u0 = math.log(from_x)
    t = s * u0
    log_lead = q * math.log(u0) - t - math.log(s)  # log of u0^q e^(-t) / s
    logs = []
    if q < -1.0:
        logs.append((q + 1.0) * math.log(u0) - t - math.log(-q - 1.0))
    elif q > -1.0:
        logs.append(math.lgamma(q + 1.0) - (q + 1.0) * math.log(s))
    c_k, partial, size = 1.0, 0.0, 0.0  # after step k: c_k, S_k, the sum of |c_j| over j < k
    for k in range(1, 31):
        partial += c_k
        size += abs(c_k)
        c_k *= (q - (k - 1)) / t
        if not math.isfinite(c_k):
            break
        rounding = 4.0 * k * _EPS
        high = partial + rounding * size
        if high > 0.0:
            if c_k <= 0.0:
                logs.append(log_lead + math.log(high))
            elif c_k * (1.0 + rounding) < 1.0:
                logs.append(log_lead + math.log(high) - math.log1p(-c_k * (1.0 + rounding)))
        if c_k == 0.0:
            break
    log_bound = min(logs) + 1e-12
    return math.exp(log_bound) if log_bound < _LOG_DBL_MAX else math.inf


def powerlog_majorant_is_decreasing(power: float, log_power: float, from_x: float) -> bool:
    """True when x^power (log x)^log_power is decreasing on [from_x, inf)."""
    return power + log_power / math.log(from_x) < 0.0


# ---------------------------------------------------------------------------
# Adaptive Gauss-Kronrod quadrature
# ---------------------------------------------------------------------------

# QUADPACK's qk21: the Kronrod abscissae on [0, 1] in descending order (the
# 10-point Gauss abscissae at the odd positions, the centre last), their
# Kronrod weights, and the Gauss weights.
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.0,
)
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077208745621137,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
_EPS = sys.float_info.epsilon
_ROUNDOFF = 50.0 * _EPS
_UFLOW = sys.float_info.min


@functools.cache
def _gk21_rule() -> tuple:
    """(nodes, Kronrod weights, weight matrix) of the rule, built on first use.

    The 21 nodes shifted from [-1, 1] to [0, 2], ascending; the Kronrod and
    the Gauss weights of each as the two columns of the (21, 2) matrix.
    The arrays are shared, so they are read-only.
    """
    nodes = np.array([1.0 - x for x in _XGK[:-1]] + [1.0 + x for x in reversed(_XGK)])
    kronrod = np.array(list(_WGK[:-1]) + list(reversed(_WGK)))
    weights = np.zeros((21, 2))
    weights[:, 0] = kronrod
    weights[1:10:2, 1] = _WG
    weights[11:20:2, 1] = _WG[::-1]
    for a in (nodes, kronrod, weights):
        a.flags.writeable = False
    return nodes, kronrod, weights


def _gk21_panels(func: Callable, segments: list[tuple], owners: list) -> tuple:
    """Per segment (los, his, infinite_from), (error, floor, lo, hi, value) of each panel.

    One call func(x, k) on the 21 nodes of every panel of every segment, k
    the integral of each node (an int array, or one int for all), read
    from ``owners`` (the integral of each segment). With ``infinite_from``
    = a the panels lie in t and the integrand is f(a + t/(1-t)) / (1-t)^2.
    The sums by Gauss-Kronrod 10/21 are matrix products of the shapes each
    segment has alone (a row of a matrix product can change with the row
    count): the segments with the same number of panels are stacked, one
    product for them all, whose every slice is the product of the slice
    alone. The nodes and every elementwise step run once on the panels of
    all the segments. The error estimate is QUADPACK's:
    resasc min(1, (200 |K - G| / resasc)^1.5), where K and G are the
    Kronrod and Gauss values and resasc the Kronrod integral of
    |f - mean f|, raised to the roundoff floor 50 eps resabs, resabs the
    Kronrod integral of |f|. Also returns, per integral with a non-finite
    value, the ``NumericError`` naming its first; its segments get None.
    """
    gk_nodes, gk_kronrod, gk_weights = _gk21_rule()
    sizes = [len(seg[0]) for seg in segments]
    if len(segments) == 1:
        ((los, his, _),) = segments
    else:
        los = [v for seg in segments for v in seg[0]]
        his = [v for seg in segments for v in seg[1]]
    lo = np.array(los)
    half = 0.5 * (np.array(his) - lo)
    x = lo[:, None] + half[:, None] * gk_nodes
    mapped = [seg[2] is not None for seg in segments]  # panels in t
    at = x
    if any(mapped):
        in_t = slice(None) if all(mapped) else np.array(mapped).repeat(sizes)
        t = x[in_t]
        ends = np.array([seg[2] or 0.0 for seg in segments]).repeat(sizes)[in_t, None]
        at = _replaced(x, in_t, ends + t / (1.0 - t))
    at = at.ravel()
    one = owners.count(owners[0]) == len(owners)
    which = owners[0] if one else np.array(owners).repeat([21 * n for n in sizes])
    fx = np.asarray(func(at, which), dtype=np.float64)
    errors = {}
    if not np.isfinite(fx).all():
        for j in np.flatnonzero(~np.isfinite(fx)).tolist():
            k = which if one else int(which[j])
            if k not in errors:
                errors[k] = NumericError(f"integrand is {float(fx[j])} at x = {float(at[j])}")
    f = fx.reshape(-1, 21)
    if any(mapped):  # f(a + t/(1-t)) / (1-t)^2
        f = _replaced(f, in_t, f[in_t] / ((1.0 - t) * (1.0 - t)))
    if errors:  # nothing to sum
        f = np.where(np.array([k in errors for k in owners]).repeat(sizes)[:, None], 0.0, f)
    if sizes.count(sizes[0]) == len(sizes):
        stacks = [(sizes[0], slice(None))]
    else:
        firsts = {}  # panel count: the first row of each segment that has it
        start = 0
        for n in sizes:
            firsts.setdefault(n, []).append(start)
            start += n
        stacks = [(n, (np.array(rows)[:, None] + np.arange(n)).ravel()) for n, rows in firsts.items()]
    kg = np.empty((len(los), 2))
    resabs = np.empty(len(los))
    resasc = np.empty(len(los))
    abs_f = np.abs(f)
    for n, rows in stacks:
        kg[rows] = (f[rows].reshape(-1, n, 21) @ gk_weights).reshape(-1, 2)
        resabs[rows] = (abs_f[rows].reshape(-1, n, 21) @ gk_kronrod).ravel()
    deviation = np.abs(f - 0.5 * kg[:, :1])
    for n, rows in stacks:
        resasc[rows] = (deviation[rows].reshape(-1, n, 21) @ gk_kronrod).ravel()
    kronrod = kg[:, 0]
    abs_half = np.abs(half)
    resabs = (resabs * abs_half).tolist()
    resasc = (resasc * abs_half).tolist()
    diff = (np.abs(kronrod - kg[:, 1]) * abs_half).tolist()
    values = (kronrod * half).tolist()
    out = []
    start = 0
    for s, n in enumerate(sizes):
        a, start = start, start + n
        if errors and owners[s] in errors:
            out.append(None)
            continue
        out.append(panels := [])
        for i in range(a, start):
            err, spread, size = diff[i], resasc[i], resabs[i]
            if spread != 0.0 and err != 0.0:
                err = spread * min(1.0, (200.0 * err / spread) ** 1.5)
            floor = _ROUNDOFF * size if size > _UFLOW / _ROUNDOFF else 0.0
            panels.append((max(err, floor), floor, los[i], his[i], values[i]))
    return out, errors


def _replaced(a, rows, values):
    """A copy of ``a`` with ``values`` in its ``rows``; ``values`` itself when ``rows`` is all."""
    if isinstance(rows, slice):
        return values
    out = a.copy()
    out[rows] = values
    return out


def quad(func: Callable, a, b, epsrel: float = 1e-10, limit: int = 50, points=None):
    """Integral of ``func`` over [a, b] and its error estimate; b may be inf.

    ``func`` takes and returns numpy arrays, elementwise. The rule bisects
    Gauss-Kronrod 10/21 panels (QUADPACK's error estimate and roundoff
    floor, see ``_gk21_panels``) until the summed error estimate is at most
    epsrel |value|. Each round bisects the panels of largest error, as many
    as it takes for those left alone to fit in that tolerance, and evaluates
    ``func`` once on all the new nodes. A panel whose estimate is at its
    roundoff floor, or too narrow to bisect, is not refined; with ``limit``
    panels, or none left to refine, the value and estimate are returned as
    they stand. An infinite end maps through x = a + t/(1-t), t in [0, 1),
    as QUADPACK's qagi does. A non-finite integrand value raises
    ``NumericError``. With ``points``, increasing breakpoints inside (a, b)
    as QUADPACK's qagp takes them, it returns the (value, error) of each
    segment, == that of ``quad`` on the segment alone: the segments refine
    in lockstep, sharing each round's one call of ``func``.

    Given lists for ``a`` and ``b`` (and for ``points``, one list of
    breakpoints per integral, or None), it takes the integrals over
    [a[k], b[k]] in the same lockstep, each segment still on its own, and
    calls ``func`` as func(x, k), k the index of the integral of each node
    (an int array, or one int when a round holds a single integral). The
    result is a list: per integral, the (value, error) of each of its
    segments, or the ``NumericError`` of its first non-finite value, from
    which on it drops out while the others go on. The one-integral forms
    are this list form on their one integral, raising its error.
    """
    if not isinstance(a, (list, tuple)):
        alone = quad(lambda x, k: func(x), [a], [b], epsrel, limit, [points or ()])
        (segments,) = _raise_first(alone)
        return segments if points is not None else segments[0]
    owner, asks = [], {}  # the integral of each segment; segment: the panels it asks for
    for k, (lo_k, pts, hi_k) in enumerate(zip(a, points or [()] * len(a), b)):
        edges = [lo_k, *pts, hi_k]
        for lo, hi in zip(edges, edges[1:]):
            asks[len(owner)] = ([0.0], [1.0], lo) if hi == math.inf else ([lo], [hi], None)
            owner.append(k)
    segments, results, failed = [[] for _ in owner], [None] * len(owner), {}
    while asks:
        new, errors = _gk21_panels(func, list(asks.values()), [owner[s] for s in asks])
        failed.update(errors)
        asks_done, asks = asks, {}
        for (s, (_, _, infinite_from)), panels in zip(asks_done.items(), new):
            if panels is None:
                continue
            panels = segments[s] = segments[s] + panels
            total = math.fsum(p[4] for p in panels)
            total_err = math.fsum(p[0] for p in panels)
            tol = epsrel * abs(total)
            results[s] = total, total_err
            if total_err <= tol or len(panels) >= limit:
                continue
            # Bisect the largest errors until those left alone sum to at most tol.
            ranked = [i for i, p in enumerate(panels) if p[0] > p[1] and _bisectable(p[2], p[3])]
            ranked.sort(key=lambda i: -panels[i][0])
            pick = []
            for i in ranked[: limit - len(panels)]:
                if total_err <= tol:
                    break
                pick.append(i)
                total_err -= panels[i][0]
            if pick:
                mids = [0.5 * (panels[i][2] + panels[i][3]) for i in pick]
                los = [panels[i][2] for i in pick] + mids
                asks[s] = los, mids + [panels[i][3] for i in pick], infinite_from
                picked = set(pick)
                segments[s] = [p for i, p in enumerate(panels) if i not in picked]
    out = [failed.get(k, []) for k in range(len(a))]
    for k, result in zip(owner, results):
        if k not in failed:
            out[k].append(result)
    return out


def _bisectable(lo: float, hi: float) -> bool:
    """False once the midpoint of [lo, hi] no longer separates its ends (QUADPACK's test)."""
    mid = 0.5 * (lo + hi)
    return max(abs(lo), abs(hi)) > (1.0 + 100.0 * _EPS) * (abs(mid) + 1000.0 * _UFLOW)


# ---------------------------------------------------------------------------
# Truncated Taylor series
# ---------------------------------------------------------------------------


class Jet:
    """Truncated Taylor series c[0] + c[1] t + ... + c[K] t^K.

    ``c`` is one float array of shape (K+1, *shape): the series at one point
    (shape ()) or at many, elementwise. Supports +, -, * (with jets, scalars
    or arrays, either side) and, through numpy's ufunc protocol, ``np.log``,
    ``np.exp`` and ``np.logaddexp``; so a summand written with those runs
    unchanged on floats, arrays and jets. Each coefficient of *, exp and log
    adds its products in one ``np.add.reduce`` along axis 0. On an array jet
    that reduce adds rows left to right; on a scalar jet it is a 1-D reduce,
    which numpy adds left to right below 8 terms and pairwise from 8 on. So
    up to order 6 an element of an array jet is == the jet at that point
    alone; from order 7 on the two can differ in the last bit. The
    Euler-Maclaurin tail (order 2 * ``EM_ORDER`` = 6) relies on the equality.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs):
        self.c = coeffs if isinstance(coeffs, np.ndarray) else np.array(coeffs, dtype=np.float64)

    @classmethod
    def log_variable(cls, log_x, order: int) -> "Jet":
        """log(x (1 + t)) around t = 0: the jet of log x in the scaled step t."""
        log_x = np.asarray(log_x, dtype=np.float64)
        c = np.empty((order + 1,) + log_x.shape)
        c[0] = log_x
        c[1:] = _lift(np.array([(-1.0) ** (k + 1) / k for k in range(1, order + 1)]), log_x.ndim)
        return cls(c)

    def __add__(self, other):
        if isinstance(other, Jet):
            a, b = _lift(self.c, other.c.ndim - 1), _lift(other.c, self.c.ndim - 1)
            return Jet(a + b)
        first = self.c[0] + other  # a constant of more axes spreads the jet over them
        c = np.empty(self.c.shape[:1] + first.shape)
        c[1:] = _lift(self.c[1:], first.ndim)
        c[0] = first
        return Jet(c)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.c)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(_lift(self.c, getattr(other, "ndim", 0)) * other)
        a, b = _lift(self.c, other.c.ndim - 1), _lift(other.c, self.c.ndim - 1)
        c = np.empty(np.broadcast_shapes(a.shape, b.shape))
        for k in range(len(c)):
            c[k] = np.add.reduce(a[: k + 1] * b[k::-1], axis=0)
        return Jet(c)

    __rmul__ = __mul__

    def exp(self) -> "Jet":
        a = self.c
        e = np.empty_like(a)
        e[0] = np.exp(a[0])
        ja = _lift(np.arange(1.0, len(a)), a.ndim - 1) * a[1:]  # row j - 1: j a[j]
        for k in range(1, len(a)):
            e[k] = np.add.reduce(ja[:k] * e[k - 1 :: -1], axis=0) / k
        return Jet(e)

    def log(self) -> "Jet":
        a = self.c
        out = np.empty_like(a)
        out[0] = np.log(a[0])
        jo = np.empty_like(a[1:])  # row j - 1: j out[j]
        for k in range(1, len(a)):
            acc = np.add.reduce(jo[: k - 1] * a[k - 1 : 0 : -1], axis=0) / k if k > 1 else 0.0
            out[k] = (a[k] - acc) / a[0]
            jo[k - 1] = k * out[k]
        return Jet(out)

    def logaddexp(self, other) -> "Jet":
        m = np.maximum(self.c[0], other.c[0] if isinstance(other, Jet) else other)
        return m + ((self - m).exp() + np.exp(other - m)).log()

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        op = _JET_UFUNCS.get(ufunc.__name__) if method == "__call__" and not kwargs else None
        if op is None:
            return NotImplemented
        if isinstance(inputs[0], Jet):
            return op(*inputs)
        # x op jet for an ndarray or numpy scalar x: +, * and logaddexp commute
        return inputs[1].__rsub__(inputs[0]) if op is Jet.__sub__ else op(inputs[1], inputs[0])


def _lift(c, ndim: int):
    """Coefficients c with ones put after axis 0: each row broadcasts as ``ndim`` axes."""
    extra = (1,) * (ndim + 1 - c.ndim)
    return c.reshape(c.shape[:1] + extra + c.shape[1:]) if extra else c


# Keyed by ufunc name, so that defining them imports no numpy.
_JET_UFUNCS = {
    "log": Jet.log,
    "exp": Jet.exp,
    "logaddexp": Jet.logaddexp,
    "add": Jet.__add__,
    "subtract": Jet.__sub__,
    "multiply": Jet.__mul__,
    "negative": Jet.__neg__,
}


# ---------------------------------------------------------------------------
# Euler-Maclaurin tail
# ---------------------------------------------------------------------------

# p in the Euler-Maclaurin formula: corrections through f^(2p-3), remainder
# bounded from f^(2p).
EM_ORDER = 3
_REMAINDER_EPSREL = 1e-1


def euler_maclaurin_tail(
    log_f: Callable,
    start: int,
    integral,
    integral_err,
    breaks=(),
    stop: int | None = None,
):
    """Per summand f, the value and error bound of the sum of f(n) over start <= n (<= ``stop``).

    The sums share their range and run in lockstep, one per entry of the
    lists ``integral``, ``integral_err`` and ``breaks`` (default: none).
    log_f(log x, k) maps log x to log f(x) for the summand k of each point
    (an int array, or one int when all the points belong to one summand)
    and must accept a ``Jet``; f must be smooth and positive on
    [start, stop], and without ``stop`` all the derivatives used must
    vanish at infinity. ``integral[k]`` is the caller's value of the
    integral of f over [start, stop] (or [start, inf)) and
    ``integral_err[k]`` its error.

    Value: integral + f(N)/2 - sum_{k<p} B_2k/(2k)! f^(2k-1)(N), plus
    f(M)/2 + sum_{k<p} B_2k/(2k)! f^(2k-1)(M) at a finite end M. Bound:
    (2 - 2^(1-2p)) |B_2p|/(2p)! times the integral of |f^(2p)| over
    [N, M] or [N, inf) (DLMF 2.10(i)), plus ``integral_err``. That integral
    runs by ``quad`` in u = log x, split at ``breaks`` (u-coordinates where
    the summand turns), to an estimated error of 0.1 of its value: each
    refinement round takes f^(2p) at all its nodes from one array jet (the
    first round also the ends' terms), and the QUADPACK error estimate is
    added to the integral. A finite end keeps the jets away from where
    log f itself overflows. One ``quad`` call takes every remainder
    integral, and the result is a list with, per summand, its
    (value, bound) or the exception it raised, which stops no other. A
    remainder whose jets overflow (a non-finite node) where f falls at N
    gives f(N) + integral + integral_err as both value and bound when that
    is below the smallest normal double, for the caller's check to reject.
    """
    p = EM_ORDER
    b = [float(v) for v in bernoulli_table(2 * p).values]  # b[k] = B_2k
    u_ends = [math.log(start)] if stop is None else [math.log(start), math.log(stop)]
    count = len(integral)
    end_jets = []  # psi and e at the ends of every summand, from the first round

    # One array jet per refinement round, on its nodes and, in the first
    # round, the ends: with psi = log f(x) and e[k] = f^(k)(x) x^k / k! / f(x)
    # at x = e^u, |f^(2p)(x)| dx = (2p)! |e[2p]| exp(psi + (1-2p) u) du.
    def abs_high_derivative(u: np.ndarray, k: np.ndarray) -> np.ndarray:
        m = len(u)
        at, which = u, k
        if not end_jets:  # k is one int when there is one summand
            at = np.concatenate((u, u_ends * count))
            if count > 1:
                which = np.concatenate((k, np.repeat(np.arange(count), len(u_ends))))
        jet = log_f(Jet.log_variable(at, 2 * p), which)
        psi = jet.c[0]
        # derivatives past the double range give a non-finite node, which quad reports
        with np.errstate(over="ignore", invalid="ignore"):
            ee = (jet - psi).exp().c
            high = np.abs(ee[2 * p, :m]) * np.exp(psi[:m] + (1 - 2 * p) * u)
        if not end_jets:
            end_jets.append((psi[m:].tolist(), ee[:, m:].T.tolist()))
        return high

    u0, u_end = u_ends[0], math.inf if stop is None else u_ends[1]
    inner = [sorted(x for x in br if u0 < x < u_end) for br in breaks]
    remainders = []
    if count:
        ends = [u0] * count, [u_end] * count
        remainders = quad(abs_high_derivative, *ends, epsrel=_REMAINDER_EPSREL, points=inner)
    out = []
    for i, segments in enumerate(remainders):
        psi_ends, e_ends = (v[i * len(u_ends) : (i + 1) * len(u_ends)] for v in end_jets[0])
        if isinstance(segments, Exception) and e_ends[0][1] <= 0.0:  # f falls at N
            # f(N) + the integral bounds the sum; above 1 where log f(N) > 0
            ceiling = math.exp(min(psi_ends[0], 0.0)) + integral[i] + integral_err[i]
            if ceiling < _UFLOW:
                out.append((ceiling, ceiling))
                continue
        try:
            at_ends = []  # f(n)/2 and sum_{k<p} B_2k/(2k)! f^(2k-1)(n) at each end
            for un, psi0, e in zip(u_ends, psi_ends, e_ends):
                # f^(j)(n) = j! e[j] exp(psi0 - j u), so B_2k/(2k)! f^(2k-1)(n) is
                # B_2k/(2k) e[2k-1] exp(psi0 - (2k-1) u)
                corrections = math.fsum(
                    b[k] / (2 * k) * e[2 * k - 1] * math.exp(psi0 - (2 * k - 1) * un)
                    for k in range(1, p)
                )
                at_ends.append((0.5 * math.exp(psi0), corrections))
        except Exception as exc:  # raised in the first round, ahead of the quadrature
            out.append(exc)
            continue
        if isinstance(segments, Exception):
            out.append(segments)
            continue
        total = 0.0
        for val, err in segments:
            total += val + err
        (half, corrections), *at_stop = at_ends
        value = integral[i] + half - corrections
        for half, corrections in at_stop:
            value += half + corrections
        bound = (2.0 - 2.0 ** (1 - 2 * p)) * abs(b[p]) * total + integral_err[i]
        if math.isfinite(value) and math.isfinite(bound):
            out.append((float(value), float(bound)))
        else:
            out.append(NumericError(f"Euler-Maclaurin tail from {start} gave {value} +- {bound}"))
    return out
