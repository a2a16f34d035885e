"""Spans and counts recorded around the library's layers, from outside.

``Tracer.install`` replaces each traced function of ``mathieu_series`` at
every module attribute (and suite-table entry) where its callers look it
up, so calls between modules are seen without touching the package's
source; ``uninstall`` puts the originals back. Each wrapped call records a
span ``[name, start, end, parent, pass]`` in a list kept in memory until
the run ends. Hot per-term functions (``special.log_factorial`` and the
sequence callbacks the benchmark supplies) are counted, never spanned, so
the tracing overhead stays small.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "mathieu_series"
MODULES = ("special", "tails", "series", "dirichlet", "asymptotics", "verify", "cli")

# Functions spanned under "<module>.<function>" wherever they are bound.
SPANNED = (
    ("special", "inverse_gamma_log"),
    ("tails", "exp_poly_tail"),
    ("series", "eval_powerlog"),
    ("series", "eval_general"),
    ("series", "eval_power_series"),
    ("series", "eval_factorial"),
    ("dirichlet", "factorial_dirichlet"),
    ("dirichlet", "log_weighted_zeta"),
    ("dirichlet", "saddle_point_bound"),
    ("cli", "main"),
)
# Counted only: called once per summed term.
COUNTED = (("special", "log_factorial"),)
# scipy's quad is one object bound in two modules; each binding is its own span.
PER_MODULE = (("series", "quad"), ("dirichlet", "quad"))
# Spans whose EvalResult.terms_used is summed into "<name>.terms".
WITH_TERMS = frozenset({"series.eval_powerlog", "series.eval_general", "series.eval_factorial"})

PASS_SPAN = "pass"


class Tracer:
    """Span and count recorder; one instance per benchmark run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.pass_counts: list[Counter] = []
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        self._table_patches: list[tuple[dict, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, len(self.pass_counts) - 1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        self.counts[name + ".calls"] += 1
        rec[1] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self.stack.pop()

    @contextmanager
    def traced_pass(self):
        """Root span of one workload pass; counts restart for every pass."""
        self.counts = Counter()
        self.pass_counts.append(self.counts)
        rec = self._open(PASS_SPAN)
        try:
            yield
        finally:
            self._close(rec)

    def spanned(self, name: str, fn):
        terms = name in WITH_TERMS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if terms:
                self.counts[name + ".terms"] += result.terms_used
            return result

        return wrapper

    def counted(self, name: str, fn):
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def callback(self, fn):
        """Wrap a sequence callback; calls count against the innermost span."""

        @functools.wraps(fn)
        def wrapper(n):
            self.counts[self.spans[self.stack[-1]][0] + ".callback_calls"] += 1
            return fn(n)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        pkg = importlib.import_module(PACKAGE)
        mods = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}
        everywhere = [pkg, *mods.values()]

        def rebind(orig, wrapper):
            for mod in everywhere:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

        for mod_name, fn_name in SPANNED:
            orig = getattr(mods[mod_name], fn_name)
            rebind(orig, self.spanned(f"{mod_name}.{fn_name}", orig))
        for mod_name, fn_name in COUNTED:
            orig = getattr(mods[mod_name], fn_name)
            rebind(orig, self.counted(f"{mod_name}.{fn_name}", orig))
        asym = mods["asymptotics"]
        for fn_name in asym.__all__:
            orig = getattr(asym, fn_name)
            if callable(orig) and not isinstance(orig, type):
                rebind(orig, self.spanned(f"asymptotics.{fn_name}", orig))
        for mod_name, attr in PER_MODULE:
            mod = mods[mod_name]
            orig = getattr(mod, attr)
            self._patches.append((mod, attr, orig))
            setattr(mod, attr, self.spanned(f"{mod_name}.{attr}", orig))
        # run_suite looks suites up in the table, suite_thm11 also by name.
        verify = mods["verify"]
        for suite, orig in list(verify._SUITES.items()):
            wrapper = self.spanned(f"verify.{suite}", orig)
            self._table_patches.append((verify._SUITES, suite, orig))
            verify._SUITES[suite] = wrapper
            rebind(orig, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        for table, key, orig in reversed(self._table_patches):
            table[key] = orig
        self._patches.clear()
        self._table_patches.clear()

    # -- analysis ----------------------------------------------------------

    def pass_times(self) -> list[dict[str, tuple[float, float]]]:
        """Per pass: span name -> (inclusive seconds, self seconds).

        Self time is the span's duration minus the time its child spans
        cover; children never overlap because the load is single-threaded.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: list[dict] = [defaultdict(lambda: (0.0, 0.0)) for _ in self.pass_counts]
        for i, (name, start, end, _, pass_idx) in enumerate(self.spans):
            incl, own = out[pass_idx][name]
            out[pass_idx][name] = (incl + end - start, own + end - start - child[i])
        return out

    def write(self, path, extra: dict) -> None:
        """Write every span and per-pass count to ``path`` as JSON."""
        payload = {
            **extra,
            "span_fields": ["name", "start_s", "end_s", "parent", "pass"],
            "spans": self.spans,
            "pass_counts": [dict(c) for c in self.pass_counts],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
