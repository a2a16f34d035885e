"""Direct numerical evaluation of Mathieu-type series.

Covers four families, all with certified relative-error truncation:

* power-logarithmic sums over n^alpha (log n)^gamma / (n^beta (log n)^delta + r^2)^(mu+1),
* the generic positive-sequence form a_n / (b_n + r^2)^(mu+1),
* the factorial variant with a_n = (n!)^alpha, b_n = (n!)^beta,
* the power-series variant with a geometric factor x^n.

Power-logarithmic sums add doubling blocks of terms from n = 2 and, at
each block end N, the Euler-Maclaurin tail from N (``tails``): the
integral of the summand plus boundary corrections, with the DLMF 2.10(i)
remainder bound plus the quadrature error as the certificate. The tail
integral runs by quadrature in u = log x out to infinity (``_log_x_integral``,
which also serves the Dirichlet sums of ``dirichlet``). The sums stop at the
first block end where that bound is within rel_tol, usually the first, so
radii far beyond any feasible term count stay cheap. Over a list of
(parameters, radius) points the points share the blocks and each block
end's tail rounds: one quadrature takes every open point's tail integral,
one Euler-Maclaurin call their remainders, and each round of the peak
search one jet, with the parameters and log r^2 given per node. That core
(``_powerlog_outcomes``, which the CLI sweeps and the verify suites read)
runs every point to its own outcome, its result or the error its
one-radius call raises; ``eval_powerlog_grid``, its one-parameter case,
and ``eval_powerlog``, its one-radius case, raise the first error. Values
that are not normal doubles raise ``NumericError`` instead of returning 0. The
factorial family is summed in shifted log space around its sharply peaked
terms; it and the parameter records are written in
``_core``, which imports neither this module nor ``tails``, and are bound
here too. The package (``mathieu_series.eval_factorial`` and the other
names of ``_core``) reads them from ``_core``, so a wrapper that replaces
one at this module's attribute is seen by callers of ``series``, but not
by readers of the package.

Everything is pure and safe for concurrent use, on every path: no evaluator
keeps process-wide state. Sequence callbacks must be pure and reentrant. The
generic family and the power series call them a block of terms at a time,
through one contract check (``_sequence_block``) that tests each n as it
comes and calls neither callback past the first n that breaks the contract,
and check the block afterwards. The generic family takes each block's log
a_n, log b_n, log n and log log n with one ``np.log`` each, and each
radius's terms with one ``np.exp``; the power series sums term by term in
``math`` and loads no numpy. When the generic family's sequences also come
with smooth forms in log x, it adds the same Euler-Maclaurin tail to a
4096-term head, with the power-log family's stopping and give-up rules;
otherwise a termwise power-log envelope bounds the tail, and the sum stops
at the first n past a checkpoint where the envelope's closed-form bound is
within rel_tol of the value at the checkpoint. Over a grid of radii
(``eval_general_grid``) it builds the head once, keeping only the terms,
peak, tail bound and envelope stop per radius, and takes the smooth tails in
lockstep as the power-log grid does.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import Callable, Iterable, Optional

# The records and the factorial family live in the scalar core, which loads
# without this module; they are bound here under the same names, so
# ``series.X is _core.X`` for each.
from ._core import (
    _LOG2,
    _LOG_DBL_MAX,
    _LOG_DBL_MIN,
    DEFAULT_GENERAL_CAP,
    DEFAULT_HARD_CAP,
    EvalResult,
    FactorialParams,
    GeneralEnvelope,
    PowerLogParams,
    SequencePair,
    _logaddexp,
    _raise_first,
    eval_factorial,
    factorial_summand_log,
    peak_index_n0,
)
from ._deferred import deferred_module
from .errors import (
    _DBL_MIN,
    _POSITIVE,
    ContractViolationError,
    DomainError,
    NumericError,
    ParameterError,
    ResourceLimitError,
    _above,
    _integer,
    _normal,
    _real,
    _rel_tol,
    _term_cap,
)
from .special import log_factorial, log_log_factorial
from .tails import (
    Jet,
    euler_maclaurin_tail,
    powerlog_majorant_is_decreasing,
    powerlog_tail_bound,
    quad,
)

np = deferred_module("numpy")

__all__ = [
    "PowerLogParams",
    "FactorialParams",
    "SequencePair",
    "GeneralEnvelope",
    "EvalResult",
    "eval_powerlog",
    "eval_powerlog_grid",
    "eval_general",
    "eval_general_grid",
    "eval_power_series",
    "factorial_summand_log",
    "peak_index_n0",
    "eval_factorial",
    "DEFAULT_HARD_CAP",
    "DEFAULT_GENERAL_CAP",
]

_MAX_BLOCK = 1 << 20
_LOG3 = math.log(3.0)
_LOG_1E12 = math.log(1e12)
_LOG_HALF_DBL_MIN = math.log(0.5 * _DBL_MIN)
_BELOW_1 = math.nextafter(1.0, 0.0)
# eval_general with smooth forms: the Euler-Maclaurin tail is tried from this
# checkpoint on, and head terms from _SMOOTH_MATCH_FROM on must match the
# forms to _SMOOTH_MATCH in log.
_SMOOTH_HEAD = 4096
_SMOOTH_MATCH_FROM = 64
_SMOOTH_MATCH = 1e-10


# ---------------------------------------------------------------------------
# Power-logarithmic family
# ---------------------------------------------------------------------------


def _powerlog_log_summand(alpha, beta, gamma, delta, mu1, log_r2, lx):
    """log of the summand as a function of lx = log n (float, array or Jet).

    The parameters (mu1 = mu + 1) and log r^2 are floats, or arrays that
    give them per row or per node.
    """
    ll = np.log(lx)
    return alpha * lx + gamma * ll - mu1 * np.logaddexp(beta * lx + delta * ll, log_r2)


def _powerlog_log_b(alpha, beta, gamma, delta, mu1, u: float) -> float:
    """log b(u) = beta*u + delta*log(u) in u = log x."""
    return beta * u + delta * math.log(u)


def _powerlog_cols(p: PowerLogParams) -> tuple:
    """The parameters of ``p`` as the summand and log b take them."""
    return p.alpha, p.beta, p.gamma, p.delta, p.mu + 1.0


def _solve_b_equals(log_b: Callable[[float], float], target: float, lo: float) -> float:
    """u >= lo with log_b(u) = target, log_b increasing from lo on; lo when log_b(lo) >= target."""
    if log_b(lo) >= target:
        return lo
    hi = max(2.0 * lo, 4.0)
    while log_b(hi) < target:
        hi *= 2.0
        if hi > 1e6:
            raise NumericError("peak location search diverged")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # a fixed point: log_b(lo) < target <= log_b(hi) still
            break
        if log_b(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _log_x_integral(log_f: Callable, edges: list) -> list:
    """Per tuple e of ``edges``, the integral of its f over [exp(e[0]), exp(e[-1])]
    and its error estimate, or the ``NumericError`` of a non-finite value.

    log_f(u, k) maps u = log x to log f(x) for the integral k of each node
    (as ``quad`` gives it), elementwise on numpy arrays; the integral of
    exp(u + log f(u)) runs over the segments between consecutive edges
    (u-coordinates, nondecreasing; the last may be inf; empty segments are
    skipped), all of them in one ``quad`` call. Each segment stops at a
    summed QUADPACK error estimate of 1e-13 of its value, or at its
    roundoff floor of 50 eps times the integral of |f| (~1.1e-14), or at
    400 panels; the returned error is the sum of the segments' estimates.
    """
    kept = [[e[0]] + [hi for lo, hi in zip(e, e[1:]) if hi > lo] for e in edges]
    todo = [i for i, ends in enumerate(kept) if len(ends) > 1]
    out = [(0.0, 0.0)] * len(edges)
    if not todo:
        return out
    index = np.array(todo)

    def integrand(u: np.ndarray, k: np.ndarray) -> np.ndarray:
        return np.exp(u + log_f(u, index[k]))

    found = quad(
        integrand,
        [kept[i][0] for i in todo],
        [kept[i][-1] for i in todo],
        epsrel=1e-13,
        limit=400,
        points=[kept[i][1:-1] for i in todo],
    )
    for i, segments in zip(todo, found):
        if isinstance(segments, Exception):
            out[i] = segments
            continue
        integral = integral_err = 0.0
        for val, err in segments:
            integral += val
            integral_err += err
        out[i] = integral, integral_err
    return out


def _at_radii(log_f: Callable, keys: list) -> Callable:
    """log_f(*key, lx) as a function of (lx, k): k the index in ``keys`` of each point."""
    at = np.array(keys, dtype=np.float64).T
    return lambda lx, k: log_f(*at[:, k], lx)


def _smooth_tail(log_f: Callable, log_b: Callable, keys: list, n: int) -> list:
    """Per key, the Euler-Maclaurin value and bound of the sum of f(x) over
    x >= n, the tail integral and its error; or the exception it raised.

    A key is (*cols, log r^2): the summand's parameters, if it takes any,
    then log r^2. ``log_f(*key, lx)`` is the summand's log at lx = log x,
    elementwise in all its arguments, and ``log_b(*cols, u)`` that of b.
    Each tail integral is split where b(x) = r^2 (the summand peaks near
    there) and where r^2 is 1e-12 of b, and its last segment runs to
    infinity; each remainder integral is split at the first point only. One
    quadrature takes every tail integral and one Euler-Maclaurin call every
    remainder; an error at one key (a search that diverges, a non-finite
    node) is its outcome and does not stop the others.
    """
    u0 = math.log(n)
    out: list = [None] * len(keys)
    edges = {}
    for i, (*cols, log_r2) in enumerate(keys):
        try:
            key_log_b = functools.partial(log_b, *cols)
            u_peak = _solve_b_equals(key_log_b, log_r2, u0)
            u_far = _solve_b_equals(key_log_b, log_r2 + _LOG_1E12, u0)
        except Exception as exc:
            out[i] = exc
        else:
            edges[i] = (u0, u_peak, u_far, math.inf)
    log_f_at = _at_radii(log_f, [keys[i] for i in edges])
    integrals = dict(zip(edges, _log_x_integral(log_f_at, list(edges.values()))))
    live = []
    for i, integral in integrals.items():
        if isinstance(integral, Exception):
            out[i] = integral
        else:
            live.append(i)
    tails = euler_maclaurin_tail(
        _at_radii(log_f, [keys[i] for i in live]),
        n,
        [integrals[i][0] for i in live],
        [integrals[i][1] for i in live],
        breaks=[edges[i][1:2] for i in live],
    )
    for i, tail in zip(live, tails):
        out[i] = tail if isinstance(tail, Exception) else (*tail, *integrals[i])
    return out


def _summand_peak(log_f: Callable, log_b: Callable, keys: list, n: int, head_peaks: list) -> list:
    """Per key, the index of the largest summand, or the exception its search raised.

    That is ``head_peaks[i]``, the head's below n, unless the summand still
    rises at n - 1; then it brackets where d log f / d log x (an order-1
    jet's slope) turns negative, up to where r^2 is 1e-12 of b: each of
    10 rounds takes the sign at 63 points cutting the bracket in 64, so it
    ends as narrow as after 60 bisections, unless the bracket already holds
    one integer part of x. Each round takes every key still searching on
    one array jet. The keys, ``log_f`` and ``log_b`` are as for
    ``_smooth_tail``. For a far peak (past ~1e8) adjacent summands agree to
    ~1e-16, so the index is exact only up to such ties.
    """
    out: list = list(head_peaks)
    brackets = {}  # key: (lo, hi) in log x
    for i, ((*cols, log_r2), head_peak) in enumerate(zip(keys, head_peaks)):
        if head_peak == n - 1:
            lo = math.log(n - 1)
            try:
                brackets[i] = lo, _solve_b_equals(
                    functools.partial(log_b, *cols), log_r2 + _LOG_1E12, lo
                )
            except Exception as exc:
                out[i] = exc

    def settled(lo: float, hi: float) -> bool:
        # the candidates below depend on int(exp(lo)) alone, which no later round changes
        return hi <= 700.0 and int(math.exp(lo)) == int(math.exp(hi))

    cuts = np.arange(1.0, 64.0) / 64.0
    searching = list(brackets)
    for _ in range(10):
        if not searching:
            break
        grids = [brackets[i][0] + (brackets[i][1] - brackets[i][0]) * cuts for i in searching]
        at = np.repeat(np.array([keys[i] for i in searching]).T, 63, axis=1)
        slopes = log_f(*at, Jet.log_variable(np.concatenate(grids), 1)).c[1].reshape(-1, 63)
        for i, grid, slope in zip(searching, grids, slopes):
            rising = np.append(slope > 0.0, False)
            j = int(np.argmin(rising))  # the first point not rising; 63 for none
            lo, hi = brackets[i]
            brackets[i] = (float(grid[j - 1]) if j else lo), (float(grid[j]) if j < 63 else hi)
        searching = [i for i in searching if not settled(*brackets[i])]
    for i, (lo, _) in brackets.items():
        x = math.exp(min(lo, 700.0))
        candidates = {max(int(x), 2), int(x) + 1}
        out[i] = max(candidates, key=lambda n: log_f(*keys[i], math.log(n)))
    return out


def _uncertified(
    who: str, rel_tol: float, cap: int, bound: float, value: float, terms: int
) -> ResourceLimitError:
    return ResourceLimitError(
        f"{who} cannot certify rel_tol={rel_tol} within {cap} terms "
        f"(best bound {bound / value:.3e} relative, after {terms} terms)",
        cap=cap,
        bound_achieved=bound,
    )


def _beyond_reach(
    rel_tol: float, value: float, integral: float, err: float, cap_tail: Callable[[], float]
) -> bool:
    """True when no head that stops before the term cap can certify rel_tol.

    So it is when rel_tol is below the double resolution of the value, or
    when the tail integral's error, a near-fixed fraction of the integral
    (quadrature roundoff), is predicted to exceed it at the cap: from there
    on the integral is at most ``cap_tail()``, that of the r^2-free summand,
    and close to it past the summand peak.
    """
    if rel_tol < sys.float_info.epsilon:
        return True
    if integral <= 0.0:
        return False
    return err / integral * min(cap_tail(), integral) > rel_tol * value


def _cap_tail(log_f_free: Callable, end: int) -> Callable[[], float]:
    """The integral of the r^2-free summand log_f_free(u, k) from n = ``end`` to infinity,
    taken on the first call only: it depends on neither the head nor the checkpoint."""
    edges = [(math.log(end), math.inf)]
    return functools.cache(lambda: _raise_first(_log_x_integral(log_f_free, edges))[0][0])


class _RadiusSum:
    """What a sum over a grid of radii keeps for one radius: its terms, peak and
    last tail bound, its summand's key (``_smooth_tail``), and on the
    envelope path the n where its envelope's bound will certify (``stop``).

    Everything else a checkpoint needs does not depend on r and is shared by
    all radii of a grid: the block's n and log n, and for the generic family
    the callback values, their contract checks and logs, the smooth-form
    match and the envelope. ``terms`` holds the generic family's terms, and
    the power-log family's block sums.
    """

    __slots__ = ("r", "log_r2", "key", "terms", "best", "peak_index", "bound", "stop")

    def __init__(self, r: float, n_start: int, cols: tuple):
        self.r = r
        self.log_r2 = 2.0 * math.log(r)
        self.key = (*cols, self.log_r2)
        self.terms: list[float] = []
        self.best = -math.inf
        self.peak_index = n_start
        self.bound: Optional[float] = None
        self.stop: Optional[int] = None

    def add(self, n: int, log_a: np.ndarray, log_b: np.ndarray, mu1: float) -> None:
        """Append the terms from n on, given the logs of their a_n and b_n.

        A term past the double range raises ``NumericError``.
        """
        with np.errstate(over="ignore"):
            block = np.exp(log_a - mu1 * np.logaddexp(log_b, self.log_r2))
        i = int(np.argmax(block))
        top = float(block[i])
        if top == math.inf:
            raise NumericError(
                f"eval_general term at n={n + i}, r={self.r} is past the double range"
            )
        if top > self.best:
            self.best = top
            self.peak_index = n + i
        self.terms += block.tolist()

    def add_block(self, n: int, logterms: np.ndarray) -> None:
        """Append the sum of the terms from n on, given their logs (the power-log family)."""
        i = int(np.argmax(logterms))
        if logterms[i] > self.best:
            self.best = float(logterms[i])
            self.peak_index = n + i
        self.terms.append(float(np.sum(np.exp(logterms))))

    def envelope_result(
        self, env: GeneralEnvelope, mu: float, n: int, rel_tol: float, last: int
    ) -> Optional[EvalResult]:
        """The result if the envelope's bound on the terms from n certifies.

        Else None, with ``stop`` set to the least n' in (n, last] where the
        same bound is within rel_tol of the value at n (``_envelope_stop``),
        or None: the terms only add to the value, so the sum certifies at n'.
        """
        value = math.fsum(self.terms)
        bound = _envelope_tail_bound(env, mu, n)
        if bound is not None and bound <= rel_tol * value:
            terms = len(self.terms)
            value = _normal(value, "eval_general", "r", self.r, terms)
            return EvalResult(value, bound, terms, self.peak_index)
        self.stop = _envelope_stop(env, mu, n, last, rel_tol * value, bound)
        return None


def _open_runs(runs: list) -> list[int]:
    return [i for i, run in enumerate(runs) if isinstance(run, _RadiusSum)]


def _smooth_checkpoint(
    who: str,
    runs: list,
    log_f: Callable,
    log_b: Callable,
    n: int,
    terms: int,
    rel_tol: float,
    cap_tails: dict,
    cap: int,
    last: bool,
) -> None:
    """Try the Euler-Maclaurin tail from n, after ``terms`` head terms, at every open radius.

    A radius closes with its ``EvalResult`` once its bound is within
    rel_tol of its value, and with its error when the value is not a
    normal double, when it is ``last`` or beyond reach (``_beyond_reach``,
    with ``cap_tails[cols]`` the cap tail of a summand of parameters
    ``cols``), or when its tail or its peak search raises. The tails and the peak searches of
    all the radii run in lockstep. ``log_f`` and ``log_b`` are as for
    ``_smooth_tail``.
    """
    live = _open_runs(runs)
    try:
        tails = _smooth_tail(log_f, log_b, [runs[i].key for i in live], n)
    except Exception as exc:  # of the shared work: every open radius would raise it
        tails = [exc] * len(live)
    certified = []
    for i, tail in zip(live, tails):
        run = runs[i]
        if isinstance(tail, Exception):
            runs[i] = tail
            continue
        tail, run.bound, integral, err = tail
        try:
            value = _normal(math.fsum(run.terms) + tail, who, "r", run.r, terms)
            if run.bound <= rel_tol * value:
                certified.append((i, value))
            elif last or _beyond_reach(rel_tol, value, integral, err, cap_tails[run.key[:-1]]):
                runs[i] = _uncertified(who, rel_tol, cap, run.bound, value, terms)
        except Exception as exc:
            runs[i] = exc
    peaks = _summand_peak(
        log_f,
        log_b,
        [runs[i].key for i, _ in certified],
        n,
        [runs[i].peak_index for i, _ in certified],
    )
    for (i, value), peak in zip(certified, peaks):
        ok = not isinstance(peak, Exception)
        runs[i] = EvalResult(value, runs[i].bound, terms, peak) if ok else peak


def _pending(runs: list) -> bool:
    """True while an open radius comes before every failed one.

    Radii after the first failure cannot change the outcome of
    ``eval_general_grid``: it raises that failure.
    """
    for run in runs:
        if isinstance(run, _RadiusSum):
            return True
        if isinstance(run, Exception):
            return False
    return False


def _radius_runs(points: list, floor: float, who: str, n_start: int) -> list:
    """A ``_RadiusSum`` per point (cols, r), or the error its radius check (r > floor) raised."""
    runs: list = []
    for cols, r in points:
        try:
            r = _real(r, who, f"requires r > {floor:g}", _above(floor), error=DomainError)
            runs.append(_RadiusSum(r, n_start, cols))
        except DomainError as exc:
            runs.append(exc)
    return runs


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
    ``tail_bound``. The tail integral runs by quadrature to infinity, split
    where b = r^2 and where r^2 is 1e-12 of b. Raises ``ResourceLimitError``
    once ``hard_cap`` terms leave the bound above rel_tol or the tail
    integral's error is predicted to, and at once when rel_tol is below the
    double-precision resolution of the value; raises ``NumericError`` when
    the value is not a normal double. It is ``eval_powerlog_grid`` over the
    one radius.
    """
    return eval_powerlog_grid(p, (r,), rel_tol, hard_cap)[0]


def eval_powerlog_grid(
    p: PowerLogParams,
    radii: Iterable[float],
    rel_tol: float = 1e-8,
    hard_cap: int = DEFAULT_HARD_CAP,
) -> list[EvalResult]:
    """``[eval_powerlog(p, r, rel_tol, hard_cap) for r in radii]``, in lockstep.

    The results, and the error raised (that of the first radius in order
    that fails), are those of the loop: the first error of ``_powerlog_outcomes``.
    """
    return _raise_first(_powerlog_outcomes([(p, r) for r in radii], rel_tol, hard_cap))


def _powerlog_outcomes(points: list, rel_tol=1e-8, hard_cap=DEFAULT_HARD_CAP) -> list:
    """Per point (p, r), what ``eval_powerlog(p, r, rel_tol, hard_cap)`` returns or raises.

    One walk over the doubling blocks serves every point, whatever its
    parameters: each block's log n and its terms at every open point come
    from one call of the summand, with the parameters of each row, and at
    each block end one quadrature takes the tail integrals of all the open
    points, one the remainders of their Euler-Maclaurin tails, and each
    round of the peak search one jet. A point drops out once it certifies
    or fails, the others go on. The integral past ``hard_cap`` of the
    give-up rule is taken once per parameter set. A bad ``rel_tol`` or
    ``hard_cap`` is the outcome of each point that passes its radius check.
    """
    points = [(_powerlog_cols(p), r) for p, r in points]
    runs = _radius_runs(points, 1.0, "eval_powerlog", 2)
    try:
        rel_tol = _rel_tol(rel_tol)
        hard_cap = _term_cap(hard_cap)
    except ParameterError as exc:
        return [exc if isinstance(run, _RadiusSum) else run for run in runs]
    log_f, log_b = _powerlog_log_summand, _powerlog_log_b
    n = 2
    end = 2 + hard_cap
    cap_tails = {cols: _cap_tail(_at_radii(log_f, [(*cols, -math.inf)]), end) for cols, _ in points}
    block = 4096
    while live := _open_runs(runs):
        stop = min(n + block, end)
        if stop > n:
            lx = np.log(np.arange(n, stop, dtype=np.float64))
            rows = max(1, _MAX_BLOCK // len(lx))  # points per summand call
            for c in range(0, len(live), rows):
                chunk = live[c : c + rows]
                keys = np.array([runs[i].key for i in chunk]).T[:, :, None]
                for i, logterms in zip(chunk, log_f(*keys, lx)):
                    runs[i].add_block(n, logterms)
            n = stop
            block = min(block * 2, _MAX_BLOCK)
        _smooth_checkpoint(
            "eval_powerlog", runs, log_f, log_b, n, n - 2, rel_tol, cap_tails, hard_cap, n >= end
        )
    return runs


# ---------------------------------------------------------------------------
# Generic sequences
# ---------------------------------------------------------------------------


def _block_logs(values: list) -> np.ndarray:
    """The log of each of a block's a_n or b_n by one ``np.log``, -inf for a zero.

    An int past the double range, which a float array cannot hold, sends the
    whole block through ``math.log``, whose log of it is still a double.
    """
    try:
        x = np.array(values, dtype=np.float64)
    except OverflowError:
        return np.array([math.log(v) if v > 0 else -math.inf for v in values])
    with np.errstate(divide="ignore"):
        return np.log(x)


def _term_error(n: int, a_n: float, b_n, b_from: int, b_prev) -> Optional[ContractViolationError]:
    """The error for the n-th term of a ``SequencePair``, or None when it keeps the contract.

    Checked in this order: a_n or b_n not finite, b_n negative, and from
    ``b_from`` on, b_n below ``b_prev`` (the b before it, None if there is
    none to compare with).
    """
    if not math.isfinite(a_n) or b_n != b_n or abs(b_n) == math.inf:
        return ContractViolationError(
            f"sequences must be finite, got a({n}) = {a_n}, b({n}) = {b_n}"
        )
    if b_n < 0:
        return ContractViolationError(f"sequence b must be nonnegative, b({n}) = {b_n}")
    if n >= b_from and b_prev is not None and b_n < b_prev:
        return ContractViolationError(
            f"sequence b must be nondecreasing from {b_from}, "
            f"but b({n}) = {b_n} < b({n - 1}) = {b_prev}"
        )
    return None


def _sequence_block(
    s: SequencePair, lo: int, hi: int, b_prev
) -> tuple[list[float], list, object, Optional[Exception]]:
    """a_n as floats and b_n as returned for lo <= n < hi, with the sequence contract checked.

    Every callback call of ``eval_general`` and ``eval_power_series`` goes
    through here, one n at a time. Stops at the first n that breaks the
    ``SequencePair`` contract (non-finite a or b, negative b, b decreasing
    from ``b_monotone_from`` on) or whose callback raises, so no callback
    is called past it, and returns that error instead of raising it, with
    the values before it: the caller checks those first (against its own
    rules), so the error for the lowest offending n wins. ``b_prev`` is the
    last b_n the monotonicity promise applies to, carried from block to
    block.

    Each n passes two cheap tests: a_n - a_n == 0 (a finite) and
    floor <= b_n < inf, with floor 0 before ``b_monotone_from`` and the
    previous b from there on. Only an n that fails them, or whose b does
    not compare with numbers, goes through ``_term_error``, which builds
    the error with its precedence and message. The values come back as
    the callbacks gave them, so the caller takes their logs a block at a
    time.
    """
    a_vals: list[float] = []
    b_vals: list = []
    append_a, append_b = a_vals.append, b_vals.append
    seq_a, seq_b, b_from = s.a, s.b, s.b_monotone_from
    inf = math.inf
    split = min(max(lo, b_from), hi)  # where b must stop decreasing
    floor = 0 if b_prev is None else b_prev
    n = lo
    try:
        for n in range(lo, split):
            a_n = float(seq_a(n))
            b_n = seq_b(n)
            try:
                kept = a_n - a_n == 0.0 and 0 <= b_n < inf
            except Exception:  # b does not compare with numbers: take the exact check
                kept = False
            if not kept:
                error = _term_error(n, a_n, b_n, b_from, None)
                if error is not None:
                    raise error
            append_a(a_n)
            append_b(b_n)
        for n in range(split, hi):
            a_n = float(seq_a(n))
            b_n = seq_b(n)
            try:
                kept = a_n - a_n == 0.0 and floor <= b_n < inf
            except Exception:
                kept = False
            if not kept:
                error = _term_error(n, a_n, b_n, b_from, b_prev if n == split else floor)
                if error is not None:
                    raise error
            floor = b_n
            append_a(a_n)
            append_b(b_n)
    except Exception as exc:  # deferred: an envelope breach before n must win
        return a_vals, b_vals, floor if n > split else b_prev, exc
    return a_vals, b_vals, floor if hi > split else b_prev, None


def _fit_envelope(points: np.ndarray, mu: float) -> Optional[GeneralEnvelope]:
    """Heuristic power-law envelope fitted on the evaluated range.

    ``points`` has rows n, log n, log a_n, log b_n over the evaluated n >= 4
    with finite logs. Margins of 0.15 on the fitted slopes and factor-2
    headroom on the coefficients; the caller re-validates it against every
    evaluated term. Raises ``NumericError`` when the coefficients leave the
    double range, which happens when b grows faster than any power of n.
    """
    if points.shape[1] < 16:
        return None
    # Anchor on the later half of the evaluated range: the bound is only
    # ever applied past it, and small-n values would wreck the coefficients.
    half = points.shape[1] // 2
    _, ln, la, lb = points[:, half:]
    lln = np.log(ln)
    # Joint power/log-power fit: log a ~ const + p log n + q log log n.
    design = np.column_stack([np.ones_like(ln), ln, lln])
    (_, a_p, a_q), *_ = np.linalg.lstsq(design, la, rcond=None)
    (_, b_p, b_q), *_ = np.linalg.lstsq(design, lb, rcond=None)
    a_pow, a_logpow = float(a_p) + 0.02, float(a_q) + 0.35
    b_pow, b_logpow = float(b_p) - 0.02, float(b_q) - 0.35
    if a_pow - b_pow * (mu + 1.0) >= -1.0:
        return None
    a_top = float(np.max(la - a_pow * ln - a_logpow * lln))
    b_bottom = float(np.min(lb - b_pow * ln - b_logpow * lln))
    log_a_coeff, log_b_coeff = a_top + _LOG2, b_bottom - _LOG2
    log_scale = log_a_coeff - (mu + 1.0) * log_b_coeff
    if not all(_LOG_DBL_MIN < x < _LOG_DBL_MAX for x in (log_a_coeff, log_b_coeff, log_scale)):
        raise NumericError(
            "sequence b outgrows every power-log envelope: the envelope fitted on "
            f"n <= {int(points[0, -1])} has log a_coeff = {log_a_coeff:.6g}, "
            f"log b_coeff = {log_b_coeff:.6g} and log scale = {log_scale:.6g}, "
            "outside the double range"
        )
    return GeneralEnvelope(
        a_coeff=2.0 * math.exp(a_top),
        a_pow=a_pow,
        a_logpow=a_logpow,
        b_coeff=0.5 * math.exp(b_bottom),
        b_pow=b_pow,
        b_logpow=b_logpow,
        valid_from=int(points[0, half]),
    )


def _envelope_tail_bound(env: GeneralEnvelope, mu: float, n_next: int) -> Optional[float]:
    """The envelope's bound on the terms from n_next on, or None where it gives none."""
    scale, power, log_power = env.tail_exponents(mu)
    if n_next < max(env.valid_from, 4):
        return None
    if power >= -1.0 or not powerlog_majorant_is_decreasing(power, log_power, n_next):
        return None
    log_n = math.log(n_next)
    g_at = scale * math.exp(power * log_n + log_power * math.log(log_n))
    return g_at + scale * powerlog_tail_bound(power, log_power, float(n_next))


def _envelope_stop(
    env: GeneralEnvelope, mu: float, n: int, last: int, target: float, at_n: Optional[float]
) -> Optional[int]:
    """The least n' in (n, last] with ``_envelope_tail_bound(env, mu, n')`` <= target, or None.

    ``at_n`` is that bound at n, which misses target (None where there is
    none). From max(valid_from, 4) on, and once the majorant decreases
    there, the bound falls in n', close to a power of n': the search guesses
    n' where the line through the bounds at n and at ``last`` meets target
    in log-log, brackets n' by steps that double from the guess, and
    bisects the bracket. None when the bound at ``last`` misses target too.
    """

    def holds(m: int) -> bool:
        bound = _envelope_tail_bound(env, mu, m)
        return bound is not None and bound <= target

    at_last = _envelope_tail_bound(env, mu, last) if last > n else None
    if at_last is None or at_last > target:
        return None
    guess = (n + last) // 2
    if at_n is not None and 0.0 < at_last < at_n < math.inf:
        log_at_n = math.log(at_n)
        fall = log_at_n - math.log(at_last)
        if fall > 0.0:  # two close bounds can share one log
            guess = math.ceil(n * (last / n) ** ((log_at_n - math.log(target)) / fall))
    lo, hi, m, step = n, last, guess, 1  # the bound misses target at lo and holds at hi
    while hi - lo > 1:  # steps that double from the guess, until one holds and one misses
        m = min(max(m, lo + 1), hi - 1)
        if holds(m):
            hi, m = m, m - step
        else:
            lo, m = m, m + step
        step *= 2
        if n < lo and hi < last:
            break
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _envelope_breach(
    env: GeneralEnvelope, log_n: np.ndarray, log_a: np.ndarray, log_b: np.ndarray
) -> Optional[int]:
    """Index of the first point outside the envelope, or None.

    The points are n >= max(valid_from, 2), given by their logs.
    """
    if not len(log_n):
        return None
    log_log_n = np.log(log_n)
    log_a_cap = math.log(env.a_coeff) + env.a_pow * log_n + env.a_logpow * log_log_n
    log_b_floor = math.log(env.b_coeff) + env.b_pow * log_n + env.b_logpow * log_log_n
    holds = (log_a <= log_a_cap + 1e-12) & (log_b >= log_b_floor - 1e-12)
    return None if holds.all() else int(np.argmin(holds))


def _smooth_mismatch(
    s: SequencePair, n_from: int, log_n: np.ndarray, log_a: np.ndarray, log_b: np.ndarray
) -> Optional[ContractViolationError]:
    """The error for the first point the smooth forms miss by more than 1e-10, or None.

    The points are consecutive n from n_from, given by their logs; those
    with a_n = 0 or b_n = 0 are not compared.
    """
    if not len(log_n):
        return None
    miss_a = np.abs(s.log_a(log_n) - log_a)
    miss_b = np.abs(s.log_b(log_n) - log_b)
    compared = np.isfinite(log_a) & np.isfinite(log_b)
    bad = compared & ~((miss_a <= _SMOOTH_MATCH) & (miss_b <= _SMOOTH_MATCH))
    if not bad.any():
        return None
    j = int(np.argmax(bad))
    return ContractViolationError(
        f"smooth forms disagree with the sequences at n={n_from + j}: "
        f"|log_a - log a| = {miss_a[j]:.3g}, |log_b - log b| = {miss_b[j]:.3g} "
        f"(allowed {_SMOOTH_MATCH:g})"
    )


def _smooth_log_summand(s: SequencePair, mu1: float, log_r2, u):
    """log of a(x) / (b(x) + r^2)^(mu+1) at u = log x from the smooth forms (float, array or Jet)."""
    return s.log_a(u) - mu1 * np.logaddexp(s.log_b(u), log_r2)


def _each_open(runs: list, step: Callable[[_RadiusSum], Optional[EvalResult]]) -> None:
    """Run ``step`` for every open radius; a result or an exception closes it.

    Any exception is kept, not handled: it is the radius's outcome, raised
    unchanged by ``eval_general_grid`` when no earlier radius failed.
    """
    for i, run in enumerate(runs):
        if isinstance(run, _RadiusSum):
            try:
                outcome = step(run)
            except Exception as exc:
                runs[i] = exc
            else:
                if outcome is not None:
                    runs[i] = outcome


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

    Terms are summed in blocks that end at the checkpoints n = 64, 128,
    256, ... (or at ``hard_cap``), where the tail bound is tried, and on
    the envelope path at the n where the sum stops. The callbacks are
    evaluated for a whole block before its terms are checked, so they must
    be pure; they are never called past the n where the sum stops, so
    ``terms_used`` callback calls are made of each (for a grid of radii,
    ``eval_general_grid``, once per n up to the largest ``terms_used``).
    Every evaluated term is checked against the sequence
    contract. Violations raise ``ContractViolationError`` naming the first
    offending n; a callback's own exception is re-raised once the terms
    before it have passed.

    The tail bound past a checkpoint N comes from one of two sources:

    * Smooth forms (``s.log_a`` and ``s.log_b``): from N = 4096 on, the
      Euler-Maclaurin tail of the declared summand over x >= N (DLMF
      2.10(i) remainder plus the tail integral's quadrature error), added
      to the head's sum; ``tail_bound`` is that bound. The tail is the one
      ``eval_powerlog`` adds, and so is the give-up rule: a rel_tol below
      the double-precision resolution of the value, or one the tail
      integral's error is predicted to miss at ``hard_cap``, raises
      ``ResourceLimitError`` at the first checkpoint that does not certify.
      Every head term with n >= 64 and a_n, b_n > 0 must match the smooth
      forms to 1e-10 in log, or ``ContractViolationError`` names the first
      that does not; past the head the certificate rests on the declared
      forms. ``peak_index`` is located past the head by bisection when the
      summand still rises there. Not combinable with ``envelope``.
    * Otherwise a termwise power-log envelope combined with the promised
      monotonicity of b: ``envelope`` when supplied (every term from its
      ``valid_from`` is checked against it), or fitted on the evaluated
      range with safety margins at every checkpoint. The envelope's closed
      form bounds the terms from n on; where it misses rel_tol times the
      value at a checkpoint N, the sum stops at the least n' up to the next
      checkpoint (or ``hard_cap``) where that bound, on the same envelope,
      is within rel_tol of the value at N, and certifies there, as the
      terms only add to the value. A fitted envelope that a later term
      violates is dropped until the next checkpoint, where it is refitted,
      so a violation before n' moves the stop there or later. Raises
      ``NumericError`` when b outgrows every power-log envelope.

    Each term is exp(log a_n - (mu+1) logaddexp(log b_n, 2 log r)), with
    numpy's log and exp (an int b_n past the double range takes
    ``math.log``), summed by ``math.fsum``. ``n_start``, the first n, must
    be an integer >= 0. Raises ``NumericError`` when the value is below the
    smallest normal double, and ``ResourceLimitError`` at ``hard_cap`` terms.
    """
    return eval_general_grid(s, mu, (r,), rel_tol, hard_cap, envelope, n_start)[0]


def eval_general_grid(
    s: SequencePair,
    mu: float,
    radii: Iterable[float],
    rel_tol: float = 1e-8,
    hard_cap: int = DEFAULT_GENERAL_CAP,
    envelope: Optional[GeneralEnvelope] = None,
    n_start: int = 0,
) -> list[EvalResult]:
    """``[eval_general(s, mu, r, ...) for r in radii]``, with the head built once.

    The results, and the error raised (that of the first radius in order
    that fails), are those of the loop. One walk over the checkpoints
    serves every radius: the callback values, their contract checks and
    logs, the smooth-form match and the envelope fit do not depend on r and
    are computed once per block. Each radius keeps only its own terms, peak,
    tail bound and envelope stop n', and drops out once it certifies or
    fails; the blocks also end at every open radius's n', and the head
    grows while a radius that can still change the outcome is open. So each
    callback is called once per n, up to the largest ``terms_used``.

    An error of the shared work is raised at once: while it runs, the first
    radius that has not returned is still open, and the loop would raise
    that error for it.
    """
    radii = list(radii)
    if not radii:
        return []
    mu = _real(mu, "mu", "must be >= 0", 0.0)
    # the first radius ahead of rel_tol, as for one radius
    _real(radii[0], "eval_general", "requires r > 0", _POSITIVE, error=DomainError)
    rel_tol = _rel_tol(rel_tol)
    hard_cap = _term_cap(hard_cap)
    n_start = _integer(n_start, "n_start", "must be an integer >= 0", 0)
    _real(n_start, "eval_general", "requires n_start <= 2^53", most=2.0**53, error=DomainError)
    smooth = s.log_a is not None
    if smooth and envelope is not None:
        raise ParameterError("give smooth forms or an envelope, not both")
    if envelope is not None and envelope.tail_exponents(mu)[1] >= -1.0:
        raise ParameterError(
            "envelope does not certify convergence: a_pow - b_pow*(mu+1) must be < -1"
        )

    mu1 = mu + 1.0
    # Per radius: a _RadiusSum while open, then its EvalResult or its exception.
    runs = _radius_runs([((), r) for r in radii], 0.0, "eval_general", n_start)
    fitted = envelope is None and not smooth
    env = envelope
    if smooth:
        log_f = functools.partial(_smooth_log_summand, s, mu1)
        cap_tails = {(): _cap_tail(_at_radii(log_f, [(-math.inf,)]), n_start + hard_cap)}

    fit_rows = [np.empty((4, 0))]  # per block: n, log n, log a_n, log b_n for the fit
    b_prev = None
    next_check = 64

    n = n_start
    end = n_start + hard_cap
    while n < end and _pending(runs):
        stops = [run.stop for run in runs if isinstance(run, _RadiusSum) and run.stop is not None]
        stop = min(max(next_check, n + 1), end, *stops)
        a_vals, b_vals, b_prev, error = _sequence_block(s, n, stop, b_prev)
        a_min = min(a_vals, default=0.0)
        if a_min < 0.0:  # only the power series admits a signed a
            k = next(k for k, a_n in enumerate(a_vals) if a_n < 0.0)
            error = ContractViolationError(
                f"sequence a must be nonnegative, a({n + k}) = {a_vals[k]}"
            )
            del a_vals[k:], b_vals[k:]
        log_a, log_b = _block_logs(a_vals), _block_logs(b_vals)
        logs_from = max(n, 2) - n  # log n is taken from n = 2 on
        ns = np.arange(n + logs_from, n + len(a_vals), dtype=np.float64)
        log_n = np.log(ns)
        if env is not None:
            k0 = max(env.valid_from - n, logs_from)
            j = _envelope_breach(env, log_n[k0 - logs_from :], log_a[k0:], log_b[k0:])
            if j is not None:
                if not fitted:
                    raise ContractViolationError(
                        f"supplied envelope violated at n={n + k0 + j}: "
                        f"a={a_vals[k0 + j]}, b={b_vals[k0 + j]}"
                    )
                env = None  # refit at the next checkpoint, with the larger range
                for run in runs:
                    if isinstance(run, _RadiusSum):
                        run.stop = None
        if smooth:
            k0 = max(_SMOOTH_MATCH_FROM - n, logs_from)
            mismatch = _smooth_mismatch(
                s, n + k0, log_n[k0 - logs_from :], log_a[k0:], log_b[k0:]
            )
            if mismatch is not None:
                raise mismatch
        if error is not None:
            raise error

        _each_open(runs, lambda run: run.add(n, log_a, log_b, mu1))
        if fitted:
            k4 = max(4 - n, logs_from)
            rows = np.stack(
                [ns[k4 - logs_from :], log_n[k4 - logs_from :], log_a[k4:], log_b[k4:]]
            )
            finite = np.isfinite(rows[2]) & np.isfinite(rows[3])
            fit_rows.append(rows[:, finite])
        n = stop
        if n in stops:  # the radii whose envelope stop this is certify, on the same envelope
            _each_open(
                runs,
                lambda run: run.envelope_result(env, mu, n, rel_tol, n) if run.stop == n else None,
            )

        if n < next_check or not _pending(runs):
            continue
        next_check *= 2
        if smooth:
            if n >= _SMOOTH_HEAD:
                _smooth_checkpoint(
                    "eval_general",
                    runs,
                    log_f,
                    s.log_b,
                    n,
                    n - n_start,
                    rel_tol,
                    cap_tails,
                    hard_cap,
                    False,
                )
            continue
        if fitted:
            # Refit every checkpoint: larger windows tighten the bound.
            fit_rows = [np.concatenate(fit_rows, axis=1)]
            env = _fit_envelope(fit_rows[0], mu) or env
        if env is not None:
            last = min(next_check, end)
            _each_open(runs, lambda run: run.envelope_result(env, mu, n, rel_tol, last))

    if _pending(runs):  # the term cap
        cap_bound = _envelope_tail_bound(env, mu, n) if env is not None else None
        for i, run in enumerate(runs):
            if isinstance(run, _RadiusSum):
                runs[i] = ResourceLimitError(
                    f"eval_general hit the term cap {hard_cap} before certifying "
                    f"rel_tol={rel_tol}",
                    cap=hard_cap,
                    bound_achieved=run.bound if smooth else cap_bound,
                )
    return _raise_first(runs)


# ---------------------------------------------------------------------------
# Power-series variant
# ---------------------------------------------------------------------------


def _over_power(a: float, n: int, p: float) -> float:
    """a / n^p for a >= 0 and n >= 2, in logs: n^p is outside the double range; inf
    when the quotient is too."""
    if a == 0.0:
        return 0.0
    log_q = math.log(a) - p * math.log(n)
    return math.exp(log_q) if log_q < _LOG_DBL_MAX else math.inf


def eval_power_series(
    s: SequencePair,
    mu: float,
    x: float,
    r: float,
    rel_tol: float = 1e-10,
    growth: tuple[float, float] | None = None,
    hard_cap: int = DEFAULT_GENERAL_CAP,
) -> float:
    """Sum of a_n x^n / (b_n + r^2)^(mu+1) for |x| < 1; a_n may be signed.

    ``growth = (A, p)`` declares |a_n| <= A * max(n,1)^p, which certifies the
    geometric tail; A must be finite and >= 0 (A = 0 declares every a_n to
    be 0) and p finite. By default p = 8 with A twice the largest observed
    normalized coefficient. After the terms below n, the tail bound is the
    geometric sum over m >= n of A m^p |x|^m / (b_{n-1} + r^2)^(mu+1), with
    r^(2(mu+1)) in place of the denominator until n - 1 reaches
    ``b_monotone_from``; its ratio is |x| * max(1, ((n+1)/n)^p), as for
    p < 0 the ratio of successive terms tends to |x| from below. The
    callbacks run through the contract checks of ``eval_general``, a block
    at a time: [0, 8), [8, 16), [16, 32), ... up to 512 terms a block (one
    term at x = 0), so they may be called up to 511 times past the n where
    the sum stops, but never past the first n that breaks the contract;
    errors still name the first offending n. Raises ``NumericError`` once
    the sum is known to lie below the smallest normal double.
    """
    mu = _real(mu, "mu", "must be >= 0", 0.0)
    x = _real(x, "eval_power_series", "requires |x| < 1", -_BELOW_1, _BELOW_1, error=DomainError)
    r = _real(r, "eval_power_series", "requires r > 0", _POSITIVE, error=DomainError)
    rel_tol = _rel_tol(rel_tol)
    hard_cap = _term_cap(hard_cap)
    declared = growth is not None
    if declared:
        g_coeff = _real(growth[0], "growth coefficient A", "must be >= 0", 0.0)
        g_pow = _real(growth[1], "growth power p", "must be finite")
    else:
        g_coeff, g_pow = 0.0, 8.0

    log_r2 = 2.0 * math.log(r)
    mu1 = mu + 1.0
    log_den = mu1 * log_r2  # log of a floor on (b_m + r^2)^(mu+1) for the omitted m
    log_rel_tol = math.log(rel_tol)
    total = []
    append = total.append
    running, compensation = 0.0, 0.0  # Neumaier sum of ``total``, for the stopping test
    xn = 1.0
    ax = abs(x)
    log_ax = math.log(ax) if ax else -math.inf
    b_from = s.b_monotone_from
    log, exp, log1p, copysign, inf = math.log, math.exp, math.log1p, math.copysign, math.inf
    b_prev = None
    n = 0
    while n < hard_cap:
        stop = min(1 if x == 0.0 else max(8, n + min(n, 512)), hard_cap)
        a_vals, b_vals, b_prev, error = _sequence_block(s, n, stop, b_prev)
        for a_n, b_n in zip(a_vals, b_vals):
            abs_a = abs(a_n)
            try:
                norm = abs_a / (n or 1) ** g_pow
            except (OverflowError, ZeroDivisionError):  # n^p outside the double range
                norm = _over_power(abs_a, n, g_pow)
            if declared:
                if norm > g_coeff * (1.0 + 1e-12):
                    raise ContractViolationError(
                        f"declared growth envelope violated at n={n}: |a| = {abs_a}"
                    )
            elif 2.0 * norm > g_coeff:
                g_coeff = 2.0 * norm
            log_den_n = mu1 * _logaddexp(log(b_n) if b_n > 0 else -inf, log_r2)
            term_mag = exp(log(abs_a) - log_den_n) * abs(xn) if a_n else 0.0
            term = copysign(term_mag, a_n * xn) if term_mag else 0.0
            append(term)
            t = running + term
            if abs(running) >= abs(term):
                compensation += (running - t) + term
            else:
                compensation += (term - t) + running
            running = t
            if n >= b_from:  # every later b_m >= b_n
                log_den = log_den_n
            xn *= x
            n += 1

            if x == 0.0 or (n >= 8 and declared and g_coeff == 0.0):
                log_tail = -inf  # every later term is 0
            elif n < 8 or g_coeff == 0.0:
                continue
            else:
                # The ratio of A m^p |x|^m from m to m + 1 is at most q for m >= n;
                # for p < 0 it tends to |x| from below.
                try:
                    ratio = ((n + 1.0) / n) ** g_pow
                except OverflowError:  # ((n+1)/n)^p past the double range: no ratio below 1
                    continue
                q = ax * ratio if ratio > 1.0 else ax
                if q >= 1.0:
                    continue
                # Tail over m >= n of A m^p |x|^m / exp(log_den).
                log_tail = log(g_coeff) + g_pow * log(n) + n * log_ax - log_den - log1p(-q)
            partial = abs(running + compensation)
            log_partial = log(partial) if partial > 0.0 else -inf
            # negligible: |sum| <= partial + tail < the smallest normal double.
            negligible = log_partial < _LOG_HALF_DBL_MIN and log_tail < _LOG_HALF_DBL_MIN
            if log_tail <= log_rel_tol + log_partial or negligible:
                value = 0.0 if negligible else math.fsum(total)
                return _normal(value, "eval_power_series", "r", r, n)
        if error is not None:
            raise error
    raise ResourceLimitError(
        f"eval_power_series exceeded the term cap {hard_cap}",
        cap=hard_cap,
        bound_achieved=None,
    )


# ---------------------------------------------------------------------------
# The paper's sequence pairs
# ---------------------------------------------------------------------------


def _logfact_pair(alpha, beta) -> tuple[SequencePair, int]:
    """(log n!)^alpha over (log n!)^beta, from n = 2."""
    pair = SequencePair(
        a=lambda n: log_factorial(n) ** alpha,
        b=lambda n: log_factorial(n) ** beta,
        b_monotone_from=2,
        log_a=lambda u: alpha * log_log_factorial(u),
        log_b=lambda u: beta * log_log_factorial(u),
    )
    return pair, 2


def _shifted_powerlog_pair(alpha, beta, gamma, delta) -> tuple[SequencePair, int]:
    """(n+3)^alpha log(n+2)^gamma over n^beta log(n+1)^delta, from n = 0; delta >= 0."""
    pair = SequencePair(
        a=lambda n: (n + 3.0) ** alpha * math.log(n + 2.0) ** gamma,
        b=lambda n: float(n) ** beta * math.log(n + 1.0) ** delta,
        b_monotone_from=1,
        log_a=lambda u: alpha * np.logaddexp(u, _LOG3) + gamma * np.log(np.logaddexp(u, _LOG2)),
        log_b=lambda u: beta * u + delta * np.log(np.logaddexp(u, 0.0)),
    )
    return pair, 0


# The paper's example pairs, which the CLI presets and the verify suites share:
# preset name -> builder of (pair, first n) from the pair's exponents. The
# generic series pairs carry smooth forms, so ``eval_general`` certifies them
# by the Euler-Maclaurin tail; the geometric factor certifies the power series.
_PAPER_PAIRS = {
    "logfact": _logfact_pair,
    "shifted-powerlog": _shifted_powerlog_pair,
    "ones-squares": lambda: (SequencePair(a=lambda n: 1.0, b=lambda n: float(n) ** 2), 0),
    "linear-factorial": lambda: (SequencePair(a=lambda n: float(n), b=math.factorial), 0),
}
