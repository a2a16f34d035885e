"""A module handle that imports its module on first attribute access.

``series``, ``tails``, ``dirichlet``, ``special`` and ``verify`` bind numpy
(and ``tails`` mpmath, ``dirichlet`` scipy.special) through it, so that
importing the package, and the evaluators that need only scalar
arithmetic, load none of them.
"""

from __future__ import annotations

import importlib
import types


class DeferredModule(types.ModuleType):
    """Stands in for the module ``name`` until an attribute is first read.

    The first read of each attribute imports the module with
    ``importlib.import_module`` and stores the attribute on the handle, so
    later reads are found in the handle's own dictionary and never reach
    ``__getattr__``. Concurrent first reads are safe: the import system's
    per-module lock makes every thread wait for one complete import, and
    each thread then stores the same object.

    Not ``importlib.util.LazyLoader``: on Python 3.10 and 3.11 its first
    access runs the module's code without a lock, so two threads can run
    it at once or one can see it half done; and it puts the not yet
    executed module into ``sys.modules``, where every other importer gets
    that stub. The handle stays out of ``sys.modules``.
    """

    def __getattr__(self, attr: str):
        value = getattr(importlib.import_module(self.__name__), attr)
        setattr(self, attr, value)
        return value
