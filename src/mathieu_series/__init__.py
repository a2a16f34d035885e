"""Mathieu-type series: evaluation, asymptotics, and verification.

Evaluates series of the form sum a_n / (b_n + r^2)^(mu+1) for
power-logarithmic, factorial, generic, and power-series weights with
certified truncation error, computes the closed-form asymptotic laws and
bounds that govern them for large r, and ships desk-scale verification
suites for every asymptotic statement (also exposed through the CLI).

Importing the package loads none of its submodules. Each name below is
imported from its submodule the first time it is read (PEP 562), so a
caller pays only for the code it runs. The name is looked up in the
submodule on every read, never stored here, so a rebinding in the
submodule shows through the package as well. The records and the
factorial family are read from ``_core``, the scalar core that ``series``
re-exports, so that ``mathieu_series.eval_factorial`` loads neither
``series`` nor ``tails``; a rebinding of one of them at ``series`` alone
does not show through the package.
"""

import sys

__version__ = "0.1.0"

# Each public name, by the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(
        (
            "AsymptoticPrediction",
            "ExpansionTerm",
            "FactorialDiagnostics",
            "FactorialEnvelope",
            "asymptotic_prediction",
            "classical_expansion_terms",
            "eval_classical_expansion",
            "factorial_diagnostics",
            "factorial_envelope",
            "factorial_upper_bound",
            "leading_constant",
            "predict_factorial",
            "predict_powerlog",
            "slack_exponent",
            "two_term_estimate",
        ),
        "asymptotics",
    ),
    **dict.fromkeys(
        (
            "DirichletParams",
            "TransformFrame",
            "factorial_dirichlet",
            "log_factorial_dirichlet",
            "log_weighted_zeta",
            "mellin_factorial",
            "mellin_powerlog",
            "saddle_point_bound",
            "transform_frame",
            "zeta_singular_prediction",
        ),
        "dirichlet",
    ),
    **dict.fromkeys(
        (
            "CapacityError",
            "ContractViolationError",
            "DomainError",
            "MathieuError",
            "NumericError",
            "ParameterError",
            "PreconditionError",
            "ResourceLimitError",
        ),
        "errors",
    ),
    **dict.fromkeys(
        (
            "EvalResult",
            "FactorialParams",
            "GeneralEnvelope",
            "PowerLogParams",
            "SequencePair",
            "eval_factorial",
            "factorial_summand_log",
            "peak_index_n0",
        ),
        "_core",
    ),
    **dict.fromkeys(
        (
            "eval_general",
            "eval_general_grid",
            "eval_power_series",
            "eval_powerlog",
            "eval_powerlog_grid",
        ),
        "series",
    ),
    **dict.fromkeys(
        (
            "BernoulliTable",
            "InverseGammaSeed",
            "bernoulli_table",
            "inverse_gamma",
            "inverse_gamma_log",
            "inverse_gamma_seed",
            "lambert_w",
            "log_factorial",
            "log_gamma",
            "zeta_neg_odd",
        ),
        "special",
    ),
}
# Submodules that are also read as attributes of the package.
_SUBMODULES = ("asymptotics", "dirichlet", "errors", "series", "special", "tails")

__all__ = [*_EXPORTS, *_SUBMODULES]


def __getattr__(name: str):
    if name in _EXPORTS:
        return getattr(_submodule(_EXPORTS[name]), name)
    if name in _SUBMODULES:
        return _submodule(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _submodule(name: str):
    # __import__ is the import statement's own path; importlib.import_module
    # bypasses it, and ``python -X importtime`` would not report the module.
    full_name = f"{__name__}.{name}"
    __import__(full_name)
    return sys.modules[full_name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
