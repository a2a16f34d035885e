"""Exception hierarchy shared by all modules, and the gates of the public surface.

The CLI maps these onto its exit-code contract: parameter/domain/capacity
problems exit 2, resource caps exit 3, unmet preconditions exit 4. Every
public function takes its real arguments through ``_real``, its integers
through ``_integer`` and gives its result through ``_normal``, so each
fails with a typed error, never a bare ``OverflowError`` or a silent NaN.
"""

import math
import operator
import sys

_DBL_MIN = sys.float_info.min
_DBL_MAX = sys.float_info.max


class MathieuError(Exception):
    """Base class for all library errors."""


class DomainError(MathieuError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class ParameterError(MathieuError, ValueError):
    """Parameter tuple violates a validity invariant."""


class CapacityError(MathieuError):
    """A fixed table (e.g. Bernoulli numbers) cannot serve the request."""


class ResourceLimitError(MathieuError):
    """Evaluation would exceed a configured term cap.

    Carries the cap and the best certified bound achieved before giving up.
    """

    def __init__(self, message, cap=None, bound_achieved=None):
        super().__init__(message)
        self.cap = cap
        self.bound_achieved = bound_achieved


class PreconditionError(MathieuError):
    """A stated precondition does not hold (e.g. radius outside the good set).

    ``diagnostics`` carries whatever context object the caller can use to
    report the failure.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class ContractViolationError(MathieuError):
    """A user-supplied callback broke a promise (e.g. monotonicity)."""


class NumericError(MathieuError):
    """Quadrature or iteration failed to converge to the requested accuracy."""


def _above(x: float) -> float:
    """The least double above x: the closed bound of ``_real`` for "> x"."""
    return math.nextafter(x, math.inf)


_POSITIVE = _above(0.0)  # the least double > 0


def _real(value, who: str, condition: str, least=-_DBL_MAX, most=_DBL_MAX, error=ParameterError):
    """``value`` as a float in [least, most], else ``error``("<who> <condition>, got <value>").

    A real defines ``__float__`` (an int, a bool, a float, a numpy real; no str or complex).
    An int past the double range counts as +-inf, which, with nan, fails every finite bound.
    """
    if value.__class__ is not float:
        try:
            if not isinstance(value, (int, float)):  # numpy, fractions, mpmath load numbers
                import numbers
                if isinstance(value, numbers.Complex) and not isinstance(value, numbers.Real):
                    raise TypeError  # numpy's complex scalars give __float__ their real part
            value = type(value).__float__(value)
        except OverflowError:  # an int past the double range
            value = math.inf if value > 0 else -math.inf
        except (AttributeError, TypeError, ValueError):
            raise error(f"{who} {condition}, got {value!r}") from None
    if not least <= value <= most:
        raise error(f"{who} {condition}, got {value}")
    return value


def _integer(value, who: str, condition: str, least=-math.inf) -> int:
    """``value`` as an int >= least (an int or a numpy integer, not a bool), else
    ``ParameterError``("<who> <condition>, got <value>")."""
    if value.__class__ is not int and (
        isinstance(value, bool) or not hasattr(value, "__index__")
    ) or value < least:
        raise ParameterError(f"{who} {condition}, got {value!r}")
    return operator.index(value)


def _rel_tol(rel_tol) -> float:  # the relative tolerance every evaluator takes
    return _real(rel_tol, "rel_tol", "must lie in (0, 1e-2]", _POSITIVE, 1e-2)


def _term_cap(hard_cap) -> int:  # the term cap every evaluator takes
    return _integer(hard_cap, "hard_cap", "must be an integer >= 1", 1)


def _normal(value, who: str, name: str, at, terms=None) -> float:
    """``value`` (a float, or an exact int or ``Fraction``: inf past the double range) as a
    float when it is a normal double, else ``NumericError`` naming who, name=at and terms."""
    if value.__class__ is not float:
        try:
            value = float(value)
        except OverflowError:
            value = math.inf
    if not _DBL_MIN <= abs(value) <= _DBL_MAX:
        after = "" if terms is None else f" after {terms} terms"
        raise NumericError(
            f"{who} value at {name}={at}{after} is {value}, not a normal double "
            "(below the smallest normal double or past the double range)"
        )
    return value


def _normal_exp(log_value: float, who: str, name: str, at, scale: float = 1.0) -> float:
    """``_normal`` of scale * exp(log_value), an exp past the double range taken as inf."""
    try:
        value = scale * math.exp(log_value)
    except OverflowError:
        value = math.inf
    return value if _DBL_MIN <= abs(value) <= _DBL_MAX else _normal(value, who, name, at)
