"""Foundational special functions.

Log-gamma and log-factorial in double precision are defined here; the
factorial family of the scalar core reads ``log_factorial`` once per
summed term. The other names of this module are defined in
``_special_rest``: log log x! in terms of log x, the principal branch of
Lambert W, a numerical inverse of the gamma function, digamma,
exact-rational Bernoulli numbers with the zeta values at negative odd
integers they encode, log |Gamma(x + iy)| on numpy arrays, and the rule
that decides when a float counts as a positive integer.

Importing this module loads ``errors`` only. The first read of one of the
other names (``special.lambert_w``, or ``from .special import lambert_w``)
imports ``_special_rest`` (PEP 562), so ``eval_factorial`` in a fresh
process compiles none of that code. The name is looked up there on every
read, never stored here, so ``special.X is _special_rest.X`` and a
rebinding there shows through. ``log_factorial`` is a global of this
module, so a wrapper bound at ``special.log_factorial`` sees every call
that reads it through here.

Everything here is pure and stateless.
"""

from __future__ import annotations

import math

from .errors import _POSITIVE, DomainError, NumericError, _real

__all__ = [
    "log_gamma",
    "log_factorial",
    "log_log_factorial",
    "lambert_w",
    "BernoulliTable",
    "bernoulli_table",
    "zeta_neg_odd",
    "digamma",
    "InverseGammaSeed",
    "inverse_gamma_seed",
    "inverse_gamma",
    "inverse_gamma_log",
    "is_positive_integer",
]

# The names defined in ``_special_rest``, read from it on each access.
_ELSEWHERE = frozenset(
    (
        "log_log_factorial",
        "lambert_w",
        "BernoulliTable",
        "bernoulli_table",
        "zeta_neg_odd",
        "digamma",
        "log_abs_gamma",
        "InverseGammaSeed",
        "inverse_gamma_seed",
        "inverse_gamma",
        "inverse_gamma_log",
        "is_positive_integer",
        "_BRANCH_POINT",
        "_DIGAMMA_COEFFS",
        "_INTEGER_DETECTION_TOL",
        "_LOG_SQRT_2PI",
        "_STIRLING_COEFFS",
        "_seed_from_log",
    )
)

# log(n!) for n <= 20 from exact integer factorials.
_LOG_FACTORIAL_TABLE = [math.log(math.factorial(n)) if n > 1 else 0.0 for n in range(21)]


def log_gamma(x: float) -> float:
    """log of the gamma function for real x > 0.

    Backed by the C library's lgamma (rational approximation for moderate
    arguments, Stirling branch for large ones), which meets double-precision
    relative accuracy across [1e-3, 2.5e305]; ``NumericError`` past that,
    where log Gamma(x) overflows.
    """
    x = _real(x, "log_gamma", "requires x > 0", _POSITIVE, error=DomainError)
    try:
        return math.lgamma(x)
    except OverflowError:
        raise NumericError(f"log_gamma({x}) is past the double range") from None


def log_factorial(n: int) -> float:
    """log(n!) = log_gamma(n+1); exact small-n table, lgamma branch above.

    ``DomainError`` unless n is an integer >= 0: an int, a numpy integer or an
    integral float. ``NumericError`` past n ~ 2.5e305, where log n! overflows.
    """
    if type(n) is not int:
        x = _real(n, "log_factorial", "requires an integer n >= 0", error=DomainError)
        if x != int(x):
            raise DomainError(f"log_factorial requires an integer n >= 0, got {n!r}")
        n = int(x)
    if n <= 20:
        if n < 0:
            raise DomainError(f"log_factorial requires n >= 0, got {n}")
        return _LOG_FACTORIAL_TABLE[n]
    try:
        return math.lgamma(n + 1.0)
    except OverflowError:  # n + 1.0 or log n! past the double range
        raise NumericError("log_factorial: log n! is past the double range, n > 2.5e305") from None


def __getattr__(name: str):
    if name in _ELSEWHERE:
        from . import _special_rest

        return getattr(_special_rest, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_ELSEWHERE})
