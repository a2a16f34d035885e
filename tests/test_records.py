"""The package's frozen records: construction, immutability, equality,
repr, signature, replace and copying, for every record class."""

import copy
import inspect
import pickle
import re
import sys
from fractions import Fraction

import pytest

from mathieu_series._core import (
    EvalResult,
    FactorialParams,
    GeneralEnvelope,
    PowerLogParams,
    SequencePair,
)
from mathieu_series._record import record, replace
from mathieu_series.asymptotics import (
    AsymptoticPrediction,
    ExpansionTerm,
    FactorialDiagnostics,
    FactorialEnvelope,
)
from mathieu_series.cli import _Family
from mathieu_series.dirichlet import DirichletParams, TransformFrame
from mathieu_series.errors import ParameterError
from mathieu_series.special import BernoulliTable, InverseGammaSeed
from mathieu_series.verify import CheckResult

# (class, positional arguments, the defaults, the repr the dataclass-based
# records printed for those arguments)
CASES = [
    (PowerLogParams, (1.0, 2.0, 0.5, -1.0, 1.0), {},
     "PowerLogParams(alpha=1.0, beta=2.0, gamma=0.5, delta=-1.0, mu=1.0)"),
    (FactorialParams, (1, 2, 1), {}, "FactorialParams(alpha=1, beta=2, mu=1)"),
    (SequencePair, (abs, abs, 3, None, None), {"b_monotone_from": 0, "log_a": None, "log_b": None},
     "SequencePair(a=<built-in function abs>, b=<built-in function abs>, b_monotone_from=3,"
     " log_a=None, log_b=None)"),
    (GeneralEnvelope, (2.0, 1.0, 0.0, 0.5, 3.0, 0.0, 4), {},
     "GeneralEnvelope(a_coeff=2.0, a_pow=1.0, a_logpow=0.0, b_coeff=0.5, b_pow=3.0,"
     " b_logpow=0.0, valid_from=4)"),
    (EvalResult, (1.0, 2.0, 3, 4), {},
     "EvalResult(value=1.0, tail_bound=2.0, terms_used=3, peak_index=4)"),
    (BernoulliTable, (2, (Fraction(1), Fraction(1, 6))), {},
     "BernoulliTable(max_index=2, values=(Fraction(1, 1), Fraction(1, 6)))"),
    (InverseGammaSeed, (24.0, 9.5, 1.25, 3.5, 4.0), {},
     "InverseGammaSeed(x=24.0, v=9.5, w=1.25, u0=3.5, seed=4.0)"),
    (AsymptoticPrediction, (0.5, -2.0, -1.0), {},
     "AsymptoticPrediction(constant=0.5, r_exponent=-2.0, log_exponent=-1.0)"),
    (FactorialDiagnostics, (1.5, 0.5, 3, 0.25, True, False), {},
     "FactorialDiagnostics(g=1.5, frac_g=0.5, n0=3, m_r=0.25, in_R=True, in_R0=False)"),
    (FactorialEnvelope, (0.5, 2.0, 0.0), {},
     "FactorialEnvelope(lower=0.5, upper=2.0, log_center=0.0)"),
    (ExpansionTerm, (-1, 1.5, -2.0), {}, "ExpansionTerm(k=-1, coefficient=1.5, r_power=-2.0)"),
    (DirichletParams, (1.0, 0.5), {}, "DirichletParams(eta=1.0, theta=0.5)"),
    (TransformFrame, (1.5, None, None, None),
     {"shat": None, "stilde": None, "map_eta": None, "map_theta": None},
     "TransformFrame(shat=1.5, stilde=None, map_eta=None, map_theta=None)"),
    (CheckResult, ("c", True, 0.5, 1.0, "le", ""), {"direction": "le", "note": ""},
     "CheckResult(name='c', passed=True, measured=0.5, threshold=1.0, direction='le', note='')"),
    (_Family, (("mu",), None, None, None), {"cap": None, "evaluate": None},
     "_Family(required=('mu',), params=None, cap=None, evaluate=None)"),
]
IDS = [case[0].__name__ for case in CASES]


def _names(shown: str) -> list[str]:
    """The field names in a record's repr, in order."""
    return re.findall(r"(?:\(|, )(\w+)=", shown)


@pytest.mark.parametrize("cls, args, defaults, shown", CASES, ids=IDS)
def test_construction_by_position_keyword_and_default(cls, args, defaults, shown):
    names = _names(shown)
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(reversed(names), reversed(args))))
    assert by_position == by_keyword
    assert [getattr(by_position, name) for name in names] == list(args)
    n_required = len(names) - len(defaults)
    assert not set(names[:n_required]) & set(defaults)
    bare = cls(*args[:n_required])
    assert {name: getattr(bare, name) for name in defaults} == defaults


@pytest.mark.parametrize("cls, args, defaults, shown", CASES, ids=IDS)
def test_bad_arguments_raise_type_error(cls, args, defaults, shown):
    names = _names(shown)
    n_required = len(names) - len(defaults)
    if n_required:
        with pytest.raises(TypeError, match=f"missing required argument '{names[n_required - 1]}'"):
            cls(*args[: n_required - 1])
    with pytest.raises(TypeError, match="unexpected keyword argument 'no_such_field'"):
        cls(*args, no_such_field=1)
    with pytest.raises(TypeError, match=f"multiple values for argument '{names[0]}'"):
        cls(*args, **{names[0]: args[0]})
    with pytest.raises(TypeError, match="takes"):
        cls(*args, args[-1])


def test_a_required_field_after_a_defaulted_one_is_refused():
    class Bad:
        x: float = 0.0
        y: float

    with pytest.raises(TypeError, match="without a default follows"):
        record(Bad)


@pytest.mark.parametrize("cls, args, defaults, shown", CASES, ids=IDS)
def test_frozen(cls, args, defaults, shown):
    obj = cls(*args)
    name = _names(shown)[0]
    with pytest.raises(AttributeError):
        setattr(obj, name, args[0])
    with pytest.raises(AttributeError):
        delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.no_such_field = 1
    assert getattr(obj, name) is args[0]
    assert not hasattr(obj, "no_such_field")


@pytest.mark.parametrize("cls, args, defaults, shown", CASES, ids=IDS)
def test_equality_and_hash(cls, args, defaults, shown):
    class Twin(cls):
        pass

    obj = cls(*args)
    assert obj == cls(*args) and not obj != cls(*args)
    assert hash(obj) == hash(cls(*args)) == hash(tuple(args))
    assert obj != Twin(*args) and Twin(*args) != obj
    assert obj != tuple(args) and obj.__eq__(tuple(args)) is NotImplemented


def test_equality_compares_fields_in_order_within_one_class():
    assert FactorialEnvelope(1.0, 2.0, 0.0) != FactorialEnvelope(2.0, 1.0, 0.0)
    assert AsymptoticPrediction(0.5, 2.0, 0.0) != FactorialEnvelope(0.5, 2.0, 0.0)


@pytest.mark.parametrize("cls, args, defaults, shown", CASES, ids=IDS)
def test_repr_is_the_dataclass_repr(cls, args, defaults, shown):
    assert repr(cls(*args)) == shown


@pytest.mark.parametrize("cls, args, defaults, shown", CASES, ids=IDS)
def test_signature_names_the_fields(cls, args, defaults, shown):
    params = inspect.signature(cls).parameters
    assert list(params) == _names(shown)
    assert {n: p.default for n, p in params.items() if p.default is not p.empty} == defaults


def test_factorial_params_signature():
    assert list(inspect.signature(FactorialParams).parameters) == ["alpha", "beta", "mu"]


@pytest.mark.parametrize("cls, args, defaults, shown", CASES, ids=IDS)
def test_replace(cls, args, defaults, shown):
    obj = cls(*args)
    assert replace(obj) == obj and replace(obj) is not obj
    assert replace(obj, **dict(zip(_names(shown), args))) == obj
    with pytest.raises(TypeError):
        replace(obj, no_such_field=1)


def test_replace_changes_only_the_given_fields():
    res = EvalResult(1.0, 2.0, 3, 4)
    assert replace(res, peak_index=5, value=0.5) == EvalResult(0.5, 2.0, 3, 5)
    assert res == EvalResult(1.0, 2.0, 3, 4)


def test_replace_reruns_the_checks():
    with pytest.raises(ParameterError, match="beta must be > 0"):
        replace(FactorialParams(1, 2, 1), beta=-1.0)
    with pytest.raises(ParameterError, match="b_monotone_from must be an integer"):
        replace(SequencePair(abs, abs), b_monotone_from=0.5)


@pytest.mark.skipif(sys.version_info < (3, 13), reason="copy.replace is new in Python 3.13")
def test_copy_replace():
    assert copy.replace(EvalResult(1.0, 2.0, 3, 4), peak_index=5) == EvalResult(1.0, 2.0, 3, 5)
    with pytest.raises(ParameterError):
        copy.replace(FactorialParams(1, 2, 1), beta=-1.0)


@pytest.mark.parametrize("cls, args, defaults, shown", CASES, ids=IDS)
def test_copy_deepcopy_and_pickle(cls, args, defaults, shown):
    obj = cls(*args)
    for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(twin) is cls and twin == obj and repr(twin) == shown
        with pytest.raises(AttributeError):
            setattr(twin, _names(shown)[0], args[0])
