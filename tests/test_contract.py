"""The argument and result contract of the public surface, table-driven.

Every callable that ``mathieu_series`` exports takes each of its real and
integer parameters at the edges of the double range (an int past it,
nan, +-inf), as a numpy scalar, as a bool and as a complex, which it must
reject. Each call returns a normal double, or a record, tuple or list
whose floats are finite (a record's exponent or a parameter may be 0), or
raises a ``MathieuError`` subclass: never a bare ``OverflowError``,
``ValueError``, ``TypeError`` or numpy ``RuntimeWarning``, and never a
NaN, an inf or a silent 0.0. A sum whose value lies outside the normal
doubles raises the ``NumericError`` that names that value.
The CLI twin runs ``cli.main`` on a fixed set of edge argv: each exits
0-4 without a traceback, and writes nothing to stdout when it fails (the
set holds no ``predict factorial`` outside the good set, which writes its
diagnostics record and exits 4 by design).

The tables are fixed, so the run time is too.
"""

import contextlib
import io
import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest

import mathieu_series as ms
from mathieu_series import cli, series
from mathieu_series.errors import DomainError, MathieuError, NumericError

_P = ms.PowerLogParams(1, 2, 0, 0, 1)
_F = ms.FactorialParams(1, 2, 1)
_D = ms.DirichletParams(0, 0)
_CUBES = ms.SequencePair(a=lambda n: 1.0, b=lambda n: n**3)  # sums at any n
_ENV = (2.0, 1.0, 0.0, 0.5, 3.0, 0.0, 4)

# Output records: the functions return them and nothing checks what they
# are given, so they take no edge values.
_OUTPUT_RECORDS = {
    "EvalResult",
    "ExpansionTerm",
    "FactorialDiagnostics",
    "FactorialEnvelope",
    "InverseGammaSeed",
    "TransformFrame",
}


def _envelope(i, x):
    return ms.GeneralEnvelope(*_ENV[:i], x, *_ENV[i + 1 :])


# Per export: per parameter, (a valid value, the call with x in its place).
_CASES = {
    "AsymptoticPrediction": {
        "constant": (0.5, lambda x: ms.AsymptoticPrediction(x, -2.0, 0.0).value_at(10.0)),
        "r_exponent": (-2.0, lambda x: ms.AsymptoticPrediction(0.5, x, 0.0).value_at(10.0)),
        "log_exponent": (0.0, lambda x: ms.AsymptoticPrediction(0.5, -2.0, x).value_at(10.0)),
        "r": (10.0, lambda x: ms.AsymptoticPrediction(0.5, -2.0, 0.0).value_at(x)),
    },
    "asymptotic_prediction": {"p.mu": (1.0, lambda x: ms.asymptotic_prediction(
        ms.PowerLogParams(1, 2, 0, 0, x)))},
    "classical_expansion_terms": {
        "mu": (2.0, lambda x: ms.classical_expansion_terms(x, 3)),
        "K": (3, lambda x: ms.classical_expansion_terms(2.0, x)),
    },
    "eval_classical_expansion": {
        "mu": (2.0, lambda x: ms.eval_classical_expansion(x, 10.0)),
        "r": (10.0, lambda x: ms.eval_classical_expansion(2.0, x)),
        "K": (3, lambda x: ms.eval_classical_expansion(2.0, 10.0, mode="fixed", K=x)),
    },
    "factorial_diagnostics": {
        "r": (1e6, lambda x: ms.factorial_diagnostics(_F, x)),
        "d1": (0.2, lambda x: ms.factorial_diagnostics(_F, 1e6, x, 0.8)),
        "d2": (0.8, lambda x: ms.factorial_diagnostics(_F, 1e6, 0.2, x)),
    },
    "factorial_envelope": {
        "r": (1e6, lambda x: ms.factorial_envelope(_F, x, 0.1)),
        "epsilon": (0.1, lambda x: ms.factorial_envelope(_F, 1e6, x)),
    },
    "factorial_upper_bound": {
        "r": (1e6, lambda x: ms.factorial_upper_bound(_F, x, 0.2)),
        "epsilon": (0.2, lambda x: ms.factorial_upper_bound(_F, 1e6, x)),
    },
    "leading_constant": {"p.gamma": (0.0, lambda x: ms.leading_constant(
        ms.PowerLogParams(1, 2, x, 0, 1)))},
    "predict_factorial": {"r": (137846287.9, lambda x: ms.predict_factorial(_F, x))},
    "predict_powerlog": {"r": (100.0, lambda x: ms.predict_powerlog(_P, x))},
    "slack_exponent": {"r": (1e6, ms.slack_exponent)},
    "two_term_estimate": {"r": (1e6, lambda x: ms.two_term_estimate(_F, x))},
    "DirichletParams": {
        "eta": (0.0, lambda x: ms.DirichletParams(x, 0)),
        "theta": (0.0, lambda x: ms.DirichletParams(0, x)),
    },
    "factorial_dirichlet": {
        "s": (2.0, ms.factorial_dirichlet),
        "rel_tol": (1e-12, lambda x: ms.factorial_dirichlet(2.0, x)),
    },
    "log_factorial_dirichlet": {
        "s": (3.0, ms.log_factorial_dirichlet),
        "rel_tol": (1e-10, lambda x: ms.log_factorial_dirichlet(3.0, x)),
    },
    "log_weighted_zeta": {
        "s": (2.0, lambda x: ms.log_weighted_zeta(_D, x)),
        "rel_tol": (1e-10, lambda x: ms.log_weighted_zeta(_D, 2.0, x)),
    },
    "mellin_factorial": {"s": (1.0, lambda x: ms.mellin_factorial(_F, x))},
    "mellin_powerlog": {"s": (1.0, lambda x: ms.mellin_powerlog(_P, x))},
    "saddle_point_bound": {"r": (1e6, lambda x: ms.saddle_point_bound(_F, x))},
    "transform_frame": {"p.mu": (1.0, lambda x: ms.transform_frame(
        factorial=ms.FactorialParams(1, 2, x)))},
    "zeta_singular_prediction": {"s": (1.01, lambda x: ms.zeta_singular_prediction(_D, x))},
    "FactorialParams": {
        name: (value, lambda x, i=i: ms.FactorialParams(*[x if j == i else v for j, v in
                                                          enumerate((1, 2, 1))]))
        for i, (name, value) in enumerate((("alpha", 1), ("beta", 2), ("mu", 1)))
    },
    "GeneralEnvelope": {
        name: (_ENV[i], lambda x, i=i: _envelope(i, x))
        for i, name in enumerate(
            ("a_coeff", "a_pow", "a_logpow", "b_coeff", "b_pow", "b_logpow", "valid_from")
        )
    },
    "PowerLogParams": {
        name: (value, lambda x, i=i: ms.PowerLogParams(*[x if j == i else v for j, v in
                                                        enumerate((1, 2, 0, 0, 1))]))
        for i, (name, value) in enumerate(
            (("alpha", 1), ("beta", 2), ("gamma", 0), ("delta", 0), ("mu", 1))
        )
    },
    "SequencePair": {"b_monotone_from": (0, lambda x: ms.SequencePair(abs, abs, x))},
    "eval_factorial": {
        "r": (1e6, lambda x: ms.eval_factorial(_F, x)),
        "rel_tol": (1e-10, lambda x: ms.eval_factorial(_F, 1e6, x)),
        "hard_cap": (1000, lambda x: ms.eval_factorial(_F, 1e6, hard_cap=x)),
    },
    "factorial_summand_log": {
        "r": (10.0, lambda x: ms.factorial_summand_log(_F, x, 3)),
        "n": (3, lambda x: ms.factorial_summand_log(_F, 10.0, x)),
    },
    "peak_index_n0": {
        "beta": (2.0, lambda x: ms.peak_index_n0(x, 1e6)),
        "r": (1e6, lambda x: ms.peak_index_n0(2.0, x)),
    },
    "eval_general": {
        "mu": (1.0, lambda x: ms.eval_general(_CUBES, x, 10.0)),
        "r": (10.0, lambda x: ms.eval_general(_CUBES, 1.0, x)),
        "rel_tol": (1e-8, lambda x: ms.eval_general(_CUBES, 1.0, 10.0, x)),
        "hard_cap": (1000, lambda x: ms.eval_general(_CUBES, 1.0, 10.0, hard_cap=x)),
        "n_start": (0, lambda x: ms.eval_general(_CUBES, 1.0, 10.0, n_start=x)),
        "envelope": (2.0, lambda x: ms.eval_general(
            _CUBES, 1.0, 10.0, envelope=_envelope(0, x))),
    },
    "eval_general_grid": {
        "mu": (1.0, lambda x: ms.eval_general_grid(_CUBES, x, [10.0, 1e3])),
        "r": (10.0, lambda x: ms.eval_general_grid(_CUBES, 1.0, [10.0, x])),
    },
    "eval_power_series": {
        "mu": (1.0, lambda x: ms.eval_power_series(_CUBES, x, 0.5, 10.0)),
        "x": (0.5, lambda x: ms.eval_power_series(_CUBES, 1.0, x, 10.0)),
        "r": (10.0, lambda x: ms.eval_power_series(_CUBES, 1.0, 0.5, x)),
        "rel_tol": (1e-10, lambda x: ms.eval_power_series(_CUBES, 1.0, 0.5, 10.0, x)),
        "growth A": (2.0, lambda x: ms.eval_power_series(_CUBES, 1.0, 0.5, 10.0,
                                                         growth=(x, 1.0))),
        "growth p": (1.0, lambda x: ms.eval_power_series(_CUBES, 1.0, 0.5, 10.0,
                                                         growth=(2.0, x))),
        "hard_cap": (1000, lambda x: ms.eval_power_series(_CUBES, 1.0, 0.5, 10.0, hard_cap=x)),
    },
    "eval_powerlog": {
        "r": (10.0, lambda x: ms.eval_powerlog(_P, x)),
        "rel_tol": (1e-8, lambda x: ms.eval_powerlog(_P, 10.0, x)),
        "hard_cap": (10**6, lambda x: ms.eval_powerlog(_P, 10.0, hard_cap=x)),
    },
    "eval_powerlog_grid": {"r": (10.0, lambda x: ms.eval_powerlog_grid(_P, [10.0, x]))},
    "BernoulliTable": {"index": (4, lambda x: ms.bernoulli_table(8).bernoulli(x))},
    "bernoulli_table": {"max_index": (8, ms.bernoulli_table)},
    "inverse_gamma": {"x": (24.0, ms.inverse_gamma)},
    "inverse_gamma_log": {"log_x": (3.0, ms.inverse_gamma_log)},
    "inverse_gamma_seed": {"x": (24.0, ms.inverse_gamma_seed)},
    "lambert_w": {"z": (1.0, ms.lambert_w)},
    "log_factorial": {"n": (5, ms.log_factorial)},
    "log_gamma": {"x": (5.0, ms.log_gamma)},
    "zeta_neg_odd": {"k": (3, ms.zeta_neg_odd)},
}

# A Bernoulli table is exact, its cost quadratic in its size: it takes no huge size.
_NO_HUGE = {("bernoulli_table", "max_index")}
# log Gamma(1) = log 1! = 0 exactly: True is 1.
_ZERO_AT_ONE = {("log_gamma", "x"), ("log_factorial", "n")}


# Complex kinds, Python's and numpy's: no real, whatever their imaginary part.
_COMPLEX = (complex, np.complex128, np.complex64, np.clongdouble)


def _edges(base):
    """The edge values fed to a parameter whose valid value is ``base``."""
    return [10**400, -(10**400), math.nan, math.inf, -math.inf,
            np.int64(round(base)), np.float64(base), True, *(kind(base) for kind in _COMPLEX)]


def _floats_are_finite(result) -> bool:
    """True when every float in ``result`` is finite, looking into records,
    tuples and lists."""
    if isinstance(result, (float, np.floating)):
        return math.isfinite(result)
    if isinstance(result, (bool, int, np.integer, Fraction)) or result is None:
        return True  # counts, flags, exact rationals and unset fields
    if isinstance(result, (tuple, list)):
        return all(map(_floats_are_finite, result))
    if hasattr(type(result), "__record_fields__"):
        return all(_floats_are_finite(getattr(result, f)) for f in result.__record_fields__)
    return callable(result)  # a SequencePair's callbacks


def _holds_the_contract(result) -> bool:
    if isinstance(result, float):
        return sys.float_info.min <= abs(result) <= sys.float_info.max
    return _floats_are_finite(result)


def _callables() -> set:
    exports = {name: getattr(ms, name) for name in ms._EXPORTS}
    return {
        name for name, value in exports.items()
        if callable(value) and not (isinstance(value, type) and issubclass(value, Exception))
    }


def test_every_callable_export_has_a_table_entry():
    assert set(_CASES) | _OUTPUT_RECORDS == _callables()
    assert not set(_CASES) & _OUTPUT_RECORDS


@pytest.mark.parametrize(
    "name, param", [(name, param) for name, params in _CASES.items() for param in params]
)
def test_edge_arguments_give_a_normal_double_or_a_typed_error(name, param):
    base, call = _CASES[name][param]
    edges = _edges(base)
    if (name, param) in _NO_HUGE:
        edges = edges[1:]
    for x in edges:
        try:
            result = call(x)
        except MathieuError:
            continue
        assert not isinstance(x, _COMPLEX), (name, param, x, result)
        if (name, param) in _ZERO_AT_ONE and x is True:
            assert result == 0.0
            continue
        assert _holds_the_contract(result), (name, param, x, result)


def test_numpy_scalars_and_python_numbers_agree():
    # log_gamma, digamma and inverse_gamma rejected np.int64(5), which every
    # other real parameter took
    from mathieu_series.special import digamma

    for f in (ms.log_gamma, digamma, ms.inverse_gamma, ms.lambert_w):
        assert f(np.int64(5)) == f(5) == f(np.float64(5.0)) == f(5.0)


@pytest.mark.parametrize("kind", _COMPLEX)
def test_a_complex_scalar_is_no_real(kind):
    # numpy's complex scalars define __float__ as their real part: log_gamma
    # returned lgamma(5), or raised a bare ComplexWarning under the error filter
    x = kind(5 + 1j)
    with pytest.raises(DomainError, match=re.escape(f"log_gamma requires x > 0, got {x!r}")):
        ms.log_gamma(x)


def _paper_pair(preset: str, *exponents) -> ms.SequencePair:
    return series._PAPER_PAIRS[preset](*exponents)[0]


_HUGE_MU = ms.PowerLogParams(1, 2, 0, 0, 1e300)
# Smooth sums at mu = 1e300, whose values underflow: each raises the
# NumericError that names its value, not the error of a step on the way.
_OUT_OF_RANGE = {
    "eval_powerlog r=10": lambda: ms.eval_powerlog(_HUGE_MU, 10.0),
    "eval_powerlog r=1e100": lambda: ms.eval_powerlog(_HUGE_MU, 1e100),
    "eval_powerlog_grid": lambda: ms.eval_powerlog_grid(_HUGE_MU, [10.0, 1e100]),
    "eval_general logfact": lambda: ms.eval_general(_paper_pair("logfact", 1, 2), 1e300, 10.0),
    "eval_general_grid shifted-powerlog": lambda: ms.eval_general_grid(
        _paper_pair("shifted-powerlog", 1, 2, 0, 0), 1e300, [10.0, 1e100]
    ),
}


@pytest.mark.parametrize("call", _OUT_OF_RANGE.values(), ids=list(_OUT_OF_RANGE))
def test_a_value_outside_the_normal_doubles_fails_as_such(call):
    with pytest.raises(NumericError, match=r"value at r=\S+ after \d+ terms is 0.0, not a normal"):
        call()


def _run(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


_FLAGS = ["--alpha", "1", "--beta", "2", "--mu", "1"]
_ARGV = [
    # mu = 1e300: the integer-mu expansion coefficient left the double range
    ["sweep", "expansion", "--mu", "1e300", "--r-grid", "10:100:2"],
    ["sweep", "expansion", "--mu", "1e10", "--r-grid", "10:100:2"],
    ["sweep", "expansion", "--mu", "inf", "--r-grid", "10:100:2"],
    ["sweep", "powerlog", *_FLAGS, "--r-grid", "10:1e300:3"],
    ["sweep", "factorial", *_FLAGS, "--r-grid", "1e3:1e300:3"],
    ["sweep", "powerlog", *_FLAGS, "--r-grid", "10:100:2", "--tol", "nan"],
    ["eval", "powerlog", *_FLAGS, "--r", "1e400"],
    ["eval", "powerlog", *_FLAGS, "--r", "nan"],
    ["eval", "factorial", *_FLAGS, "--r", "1e300"],
    ["eval", "factorial", "--alpha", "nan", "--beta", "2", "--mu", "1", "--r", "10"],
    ["eval", "factorial", *_FLAGS, "--r", "10", "--tol", "inf"],
    ["eval", "general", *_FLAGS[:4], "--mu", "1e300", "--r", "10"],
    ["eval", "powerseries", "--sequences", "ones-squares", "--mu", "1", "--x", "nan",
     "--r", "10"],
    ["eval", "powerseries", "--sequences", "ones-squares", "--mu", "1e300", "--r", "10"],
    ["predict", "powerlog", *_FLAGS, "--r", "inf"],
    ["predict", "powerlog", *_FLAGS, "--r", "1e300"],
    ["predict", "factorial", *_FLAGS, "--r", "nan"],
    ["predict", "factorial", *_FLAGS, "--r", "1e200"],
]


@pytest.mark.parametrize("argv", _ARGV, ids=" ".join)
def test_cli_edge_arguments_exit_0_to_4_without_a_traceback(argv):
    code, out, err = _run(argv)
    assert code in range(5), (code, err)
    assert "Traceback" not in err
    if code:
        assert out == "", out
