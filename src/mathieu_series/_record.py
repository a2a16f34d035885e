"""Frozen value records: the package's parameter and result classes.

``@record`` turns a class whose body annotates its fields into a frozen
value class, as ``@dataclasses.dataclass(frozen=True)`` would, without
importing ``dataclasses`` (which loads ``inspect``, ``ast`` and ``dis``)
or compiling a generated ``__init__`` per class. A record:

* takes its fields, in order, from the class's annotations, with the
  class-level values as defaults; the constructor accepts them by
  position or by keyword, and raises ``TypeError`` for a missing,
  unknown or repeated argument;
* runs ``__post_init__`` after construction, when the class defines it;
* raises ``AttributeError`` on assigning or deleting an attribute;
* compares equal only to a record of the same class with equal fields in
  order, hashes as the tuple of its fields, and has the dataclass repr,
  ``Name(field=value, ...)``;
* copies, deep-copies and pickles through its instance ``__dict__``;
* defines ``__replace__``, the hook of ``copy.replace`` (Python 3.13+),
  which builds a new record and so re-runs ``__post_init__``;
  ``replace(obj, **changes)`` calls it on any Python version;
* reports its fields to ``inspect.signature``, which builds the signature
  only when asked.
"""

__all__ = ["record", "replace"]


def record(cls):
    """Make ``cls`` a frozen value record of its annotated fields."""
    names = tuple(cls.__annotations__)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    if any(a in defaults and b not in defaults for a, b in zip(names, names[1:])):
        raise TypeError(f"{cls.__qualname__}: a field without a default follows a defaulted one")
    post_init = hasattr(cls, "__post_init__")
    who = f"{cls.__qualname__}()"

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(f"{who} takes {len(names)} arguments but {len(args)} were given")
        values = dict(zip(names, args))
        if kwargs or len(args) < len(names):
            for name in kwargs:
                if name not in names:
                    raise TypeError(f"{who} got an unexpected keyword argument {name!r}")
                if name in values:
                    raise TypeError(f"{who} got multiple values for argument {name!r}")
            for name in names[len(args) :]:
                if name in kwargs:
                    values[name] = kwargs[name]
                elif name in defaults:
                    values[name] = defaults[name]
                else:
                    raise TypeError(f"{who} missing required argument {name!r}")
        self.__dict__.update(values)
        if post_init:
            self.__post_init__()

    __init__.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = __init__
    cls.__record_fields__ = names
    for name, value in _SHARED.items():
        setattr(cls, name, value)
    return cls


def replace(obj, /, **changes):
    """A copy of record ``obj`` with ``changes`` applied, checked by ``__post_init__``."""
    return obj.__replace__(**changes)


def _values(self) -> tuple:
    return tuple(map(self.__dict__.__getitem__, self.__record_fields__))


def _eq(self, other):
    if other.__class__ is self.__class__:
        return _values(self) == _values(other)
    return NotImplemented


def _hash(self):
    return hash(_values(self))


def _repr(self):
    pairs = zip(self.__record_fields__, _values(self))
    fields = ", ".join(f"{name}={value!r}" for name, value in pairs)
    return f"{self.__class__.__qualname__}({fields})"


def _setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _replace(self, /, **changes):
    return self.__class__(**{**dict(zip(self.__record_fields__, _values(self))), **changes})


class _Signature:
    """``inspect.signature`` of a record class, built from its fields when read.

    Only ``inspect`` reads it, so the import below finds ``inspect`` loaded.
    """

    def __get__(self, obj, cls):
        from inspect import Parameter, Signature

        kind = Parameter.POSITIONAL_OR_KEYWORD
        return Signature(
            [
                Parameter(name, kind, default=getattr(cls, name, Parameter.empty))
                for name in cls.__record_fields__
            ]
        )


_SHARED = {
    "__eq__": _eq,
    "__hash__": _hash,
    "__repr__": _repr,
    "__setattr__": _setattr,
    "__delattr__": _delattr,
    "__replace__": _replace,
    "__signature__": _Signature(),
}
