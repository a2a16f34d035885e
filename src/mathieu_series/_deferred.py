"""A module handle that imports its module on first attribute access.

``series``, ``tails``, ``dirichlet``, ``_special_rest`` and ``verify`` bind
numpy through it, so that importing the package, and the evaluators that need
only scalar arithmetic, do not load it.
"""

from __future__ import annotations

import sys
import types


def deferred_module(name: str) -> types.ModuleType:
    """A stand-in for the module ``name`` until an attribute is first read.

    The handle is a plain module whose ``__getattr__`` (PEP 562) sits in its
    own dictionary. The first read of each attribute imports the module and
    copies the attribute into the handle, so later reads are plain
    module-attribute hits, which the interpreter specialises as for any
    module; a ``ModuleType`` subclass with a class-level ``__getattr__``
    would lose that on every read. The import goes through ``__import__``,
    the import statement's own path, so ``python -X importtime`` reports
    it; ``importlib.import_module`` bypasses that report. Concurrent first
    reads are safe: the import system's per-module lock makes every thread
    wait for one complete import, and each thread then stores the same
    object.

    Not ``importlib.util.LazyLoader``: on Python 3.10 and 3.11 its first
    access runs the module's code without a lock, so two threads can run
    it at once or one can see it half done; and it puts the not yet
    executed module into ``sys.modules``, where every other importer gets
    that stub. The handle stays out of ``sys.modules``.
    """
    handle = types.ModuleType(name)

    def __getattr__(attr: str):
        __import__(name)
        value = getattr(sys.modules[name], attr)
        setattr(handle, attr, value)
        return value

    handle.__getattr__ = __getattr__
    return handle
