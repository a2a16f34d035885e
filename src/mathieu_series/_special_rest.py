"""The special functions that the scalar core does not run.

log log x! in terms of log x (Stirling's series, for summands written in
log x), the principal branch of Lambert W, a numerical inverse of the
gamma function on its increasing branch (seeded by a Lambert-W based
asymptotic guess), digamma, exact-rational Bernoulli numbers with the zeta
values at negative odd integers they encode, log |Gamma(x + iy)| on numpy
arrays (Stirling's series with coefficients from that table), and the rule
that decides when a float counts as a positive integer. Only
``log_log_factorial``, whose ufuncs let it run on floats, arrays and
``tails.Jet``s alike, and ``log_abs_gamma`` use numpy.

Callers read these names through ``special``, which imports this module on
the first read of one of them, so ``special.X is _special_rest.X``;
``special`` itself keeps only what the factorial family runs. Everything
here is pure and stateless; the Bernoulli table is built once and never
mutated.
"""

from __future__ import annotations

import math
from functools import lru_cache

from ._deferred import deferred_module
from ._record import record
from .errors import CapacityError, DomainError, NumericError, _above, _integer, _real

np = deferred_module("numpy")
# ``Fraction`` in the annotations is fractions.Fraction, imported where the
# Bernoulli table is built: importing it at module load costs a cold process.

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def log_log_factorial(lx):
    """log lgamma(x+1) = log log x! in terms of lx = log x, by Stirling's series.

    lgamma(x+1) = x (log x - 1) + (log x + log 2 pi)/2 + 1/(12 x) - 1/(360 x^3)
    + O(x^-5). Written with ``np.exp`` and ``np.log`` so that lx may be a
    float, an array or a ``Jet``. Used from x = 64 on (the logfact pair of
    ``series._PAPER_PAIRS``, whose head is checked against it there) and
    from x = 1e4 on (``dirichlet``). Against mpmath at 40 digits the
    absolute error is 2.5e-11 at x = 16, 3.9e-15 at x = 64, and at most a
    few units of the last place of the result from x ~ 100 on.
    """
    inv = np.exp(-lx)
    series = (inv * (1.0 / 12.0)) * (1.0 - (inv * inv) * (1.0 / 30.0))
    return lx + np.log(lx - 1.0 + inv * (0.5 * lx + _LOG_SQRT_2PI + series))


# ---------------------------------------------------------------------------
# Lambert W, principal branch
# ---------------------------------------------------------------------------

_BRANCH_POINT = -math.exp(-1.0)


def lambert_w(z: float) -> float:
    """Principal branch of Lambert W: the w >= -1 with w*exp(w) = z.

    Halley iteration from a series/log-based initial guess; for large z the
    equation is solved in log form (w + log w = log z) to avoid overflow.
    Accurate to ~1e-15 relative in the defining identity.
    """
    z = _real(z, "lambert_w", "requires z >= -1/e", _BRANCH_POINT, error=DomainError)
    if z == 0.0:
        return 0.0

    if z >= 3.0:
        # Solve w + log(w) = log(z) by Newton; immune to exp overflow.
        logz = math.log(z)
        w = logz - math.log(logz)
        for _ in range(50):
            step = (w + math.log(w) - logz) / (1.0 + 1.0 / w)
            w -= step
            if abs(step) <= 2e-16 * (1.0 + abs(w)):
                break
        return w

    # Initial guess: branch-point series near -1/e, else a crude seed that
    # Halley cleans up in a handful of iterations.
    if z < -0.2:
        p = math.sqrt(2.0 * (math.e * z + 1.0))
        w = -1.0 + p - p * p / 3.0 + 11.0 * p**3 / 72.0
        if w <= -1.0:
            w = -1.0 + 1e-12
    elif z < 1.0:
        w = z * (1.0 - z)  # two Taylor terms of W at 0
    else:
        w = 0.5

    for _ in range(100):
        ew = math.exp(w)
        f = w * ew - z
        w1 = w + 1.0
        denom = ew * w1 - (w + 2.0) * f / (2.0 * w1)
        if denom == 0.0:
            break
        dw = f / denom
        w -= dw
        if abs(dw) <= 2e-16 * (1.0 + abs(w)):
            break
    return w


# ---------------------------------------------------------------------------
# Bernoulli numbers and zeta at negative odd integers
# ---------------------------------------------------------------------------


@record
class BernoulliTable:
    """Even-index Bernoulli numbers B_0, B_2, ..., B_max_index as exact Fractions."""

    max_index: int
    values: tuple  # values[k] == B_{2k}

    def bernoulli(self, index: int) -> Fraction:
        """B_index for an even index within capacity."""
        index = _integer(index, "index", "must be an integer")
        if index % 2 != 0 or index < 0:
            raise DomainError(f"only nonnegative even Bernoulli indices are stored, got {index}")
        if index > self.max_index:
            raise CapacityError(
                f"Bernoulli table holds indices up to {self.max_index}; index {index} requested"
            )
        return self.values[index // 2]


# typed: 8.0 and 8+0j hash like 8, and must meet the gate, not 8's table
@lru_cache(maxsize=None, typed=True)
def bernoulli_table(max_index: int = 64) -> BernoulliTable:
    """Build the even-index Bernoulli table via the binomial recurrence.

    Uses sum_{j=0}^{m} C(m+1, j) B_j = 0 with B_1 = -1/2; odd B_j vanish
    beyond that, so only even rows are kept.
    """
    from fractions import Fraction

    max_index = _integer(max_index, "max_index", "must be an integer")
    if max_index < 0 or max_index % 2 != 0:
        raise DomainError(f"max_index must be a nonnegative even integer, got {max_index}")
    evens = [Fraction(1)]  # B_0
    for m in range(1, max_index // 2 + 1):
        n = 2 * m
        acc = Fraction(n + 1, 1) * Fraction(-1, 2)  # the B_1 term
        for j in range(m):
            acc += math.comb(n + 1, 2 * j) * evens[j]
        evens.append(-acc / (n + 1))
    return BernoulliTable(max_index=max_index, values=tuple(evens))


def zeta_neg_odd(k: int, table: BernoulliTable | None = None) -> Fraction:
    """Exact rational zeta(-2k-1) = -B_{2k+2}/(2k+2) for an integer (not a bool) k >= 0."""
    k = _integer(k, "k", "must be an integer")
    if k < 0:
        raise DomainError(f"zeta_neg_odd requires k >= 0, got {k}")
    if table is None:
        table = bernoulli_table()
    index = 2 * k + 2
    if index > table.max_index:
        raise CapacityError(
            f"zeta(-{2 * k + 1}) needs Bernoulli index {index}, "
            f"table capacity is {table.max_index}"
        )
    return -table.bernoulli(index) / index


# ---------------------------------------------------------------------------
# Digamma, real argument
# ---------------------------------------------------------------------------

# B_2k / (2k), k = 1..8: the asymptotic series' coefficients in 1/x^2k. B_2k
# is written as numerator / denominator, so that importing this module does
# not import fractions; each is == float(B_2k) / (2k) from bernoulli_table(16).
_DIGAMMA_COEFFS = (
    (1 / 6) / 2,
    (-1 / 30) / 4,
    (1 / 42) / 6,
    (-1 / 30) / 8,
    (5 / 66) / 10,
    (-691 / 2730) / 12,
    (7 / 6) / 14,
    (-3617 / 510) / 16,
)


def digamma(x: float) -> float:
    """psi(x) = d/dx log_gamma(x) for real x > 0.

    Shifts x up to >= 10 with psi(x) = psi(x+1) - 1/x, then sums
    log x - 1/(2x) - sum_k B_2k / (2k x^2k) through k = 8; the first
    omitted term is below 4e-18 there. Relative error ~1e-15 for x >= 2;
    near psi's zero at x = 1.4616 the error is small only in absolute terms.
    """
    x = _real(x, "digamma", "requires x > 0", _above(0.0), error=DomainError)
    shift = 0.0
    while x < 10.0:
        shift += 1.0 / x
        x += 1.0
    t = 1.0 / (x * x)
    series = 0.0
    for c in reversed(_DIGAMMA_COEFFS):
        series = (series + c) * t
    return math.log(x) - 0.5 / x - series - shift


# ---------------------------------------------------------------------------
# log |Gamma| on a vertical line, numpy arrays
# ---------------------------------------------------------------------------

# B_2k / (2k (2k-1)), k = 1..7: Stirling's series in 1/w^(2k-1).
_STIRLING_COEFFS = tuple(c / (2 * k - 1) for k, c in enumerate(_DIGAMMA_COEFFS[:7], start=1))


def log_abs_gamma(x, y):
    """log |Gamma(x + iy)| for real x > 0, elementwise on broadcast numpy arrays.

    Shifts the real part up to a = x + K >= 8 with
    log |Gamma(w)| = log |Gamma(w + K)| - sum_{k<K} log |w + k|, where K is
    one count for every element; the log |w + k|, and log |a + iy| for the
    shifted point, come from one ``np.log`` of the factors (x+k)^2 + y^2.
    Then Stirling's series Re[(w - 1/2) log w - w + log(2 pi)/2
    + sum_{k<=7} B_2k / (2k (2k-1) w^(2k-1))] at w = a + iy, whose first
    omitted term is below 1e-15 for |w| >= 8. Only the real part is taken,
    so arg w = atan2(y, a) needs no branch correction.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    shift = max(0, math.ceil(8.0 - float(x.min())))
    k = np.arange(shift + 1.0).reshape((-1,) + (1,) * max(x.ndim, y.ndim))
    logs = np.log((x + k) ** 2 + y * y)
    a = x + shift
    inv = 1.0 / (a + 1j * y)
    inv2 = inv * inv
    series = _STIRLING_COEFFS[-1]
    for c in reversed(_STIRLING_COEFFS[:-1]):
        series = series * inv2 + c
    return (
        (a - 0.5) * (0.5 * logs[-1])
        - y * np.arctan2(y, a)
        - a
        + _LOG_SQRT_2PI
        + (series * inv).real
        - 0.5 * logs[:-1].sum(axis=0)
    )


# ---------------------------------------------------------------------------
# Inverse gamma function on the increasing branch
# ---------------------------------------------------------------------------


@record
class InverseGammaSeed:
    """Asymptotic initial guess for the inverse gamma function at x.

    With v = x/sqrt(2*pi), w = W((log v)/e) and u0 = (log v)/w, the value
    u0 + 1/2 approximates the inverse; by construction u0 satisfies
    u0*log(u0) - u0 = log(v).
    """

    x: float
    v: float
    w: float
    u0: float
    seed: float


def _seed_from_log(log_x: float) -> tuple[float, float, float]:
    """(w, u0, seed) for inverse-gamma Newton, from log(x)."""
    log_v = log_x - _LOG_SQRT_2PI
    w = lambert_w(log_v / math.e)
    u0 = log_v / w
    return w, u0, u0 + 0.5


def inverse_gamma_seed(x: float) -> InverseGammaSeed:
    """Seed object for inverse_gamma; requires x >= 2."""
    x = _real(x, "inverse_gamma_seed", "requires x >= 2", 2.0, error=DomainError)
    w, u0, seed = _seed_from_log(math.log(x))
    return InverseGammaSeed(x=x, v=x / math.sqrt(2.0 * math.pi), w=w, u0=u0, seed=seed)


def inverse_gamma_log(log_x: float) -> float:
    """Solve log_gamma(g) = log_x for g >= 3, given log_x = log(x), x >= 2.

    Newton iteration on log-gamma seeded by the asymptotic guess, which
    meets its tolerance within a few steps from x = 2 out to log x = 1e300;
    ``NumericError`` if it has not after 50. Working in log space keeps the
    iteration well-posed for x far beyond double-precision overflow of
    gamma itself.
    """
    log_x = _real(
        log_x, "inverse_gamma_log", "requires log_x >= log 2", math.log(2.0), error=DomainError
    )
    _, _, g = _seed_from_log(log_x)
    tol = max(1e-14, 8.0 * 2.220446049250313e-16 * abs(log_x))
    for _ in range(50):
        resid = math.lgamma(g) - log_x
        if abs(resid) <= tol:
            return float(g)
        g -= resid / digamma(g)
    raise NumericError(f"inverse_gamma failed to converge at log_x={log_x}")


def inverse_gamma(x: float) -> float:
    """The unique g >= 3 with gamma(g) = x, for x >= 2."""
    x = _real(x, "inverse_gamma", "requires x >= 2", 2.0, error=DomainError)
    return inverse_gamma_log(math.log(x))


_INTEGER_DETECTION_TOL = 1e-9


def is_positive_integer(m: float) -> bool:
    """Detection rule for integer-branch selection.

    Floating inputs cannot distinguish exact integers, so m counts as a
    positive integer when it is within 1e-9 of one. ``zeta_singular_prediction``
    picks its branch by this rule alone.
    """
    return abs(m - round(m)) < _INTEGER_DETECTION_TOL and round(m) >= 1
