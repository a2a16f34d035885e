"""The three benchmark workloads, their seeded inputs and correctness checks.

Every workload is a closed loop with one client. The seed only jitters
radii (by at most 1%) and reorders requests; references are computed once
per run, before anything is timed.

* ``cli-oneshot``: one fresh ``python -m mathieu_series.cli`` process per
  request, cycling through a fixed six-command mix.
* ``verify-all``: a warm in-process pass of ``verify.run_suite`` over all
  suites in default mode; a request is one pass.
* ``sequence-sweep``: a warm in-process pass over per-term callback
  evaluations (``eval_general``, ``eval_power_series``); a request is one
  pass.

``request()`` times one end-to-end request. ``inproc_pass(tracer)`` runs
one in-process pass, traced when a tracer is given, for the per-layer run;
for ``cli-oneshot`` that pass calls ``cli.main`` on the whole mix. Both
return ``Outcome(seconds, attempted, failures)``.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

from mathieu_series import asymptotics, series, special, verify
from mathieu_series.errors import MathieuError

import golden
import reference
from coldstart import CHILD_TIMEOUT_S


@dataclass
class Outcome:
    """One timed request or pass: units attempted, units failed, and why."""

    seconds: float
    attempted: int
    failed: int = 0
    messages: list[str] = field(default_factory=list)


def _jitter(rng: random.Random) -> float:
    return math.exp(rng.uniform(-0.01, 0.01))


def _scope(tracer):
    """The root span of a traced pass, or nothing."""
    return tracer.traced_pass() if tracer is not None else nullcontext()


def _close(value, ref: float, tol: float) -> bool:
    return isinstance(value, float) and abs(value - ref) <= tol * abs(ref)


# ---------------------------------------------------------------------------
# cli-oneshot
# ---------------------------------------------------------------------------

_FACTORIAL = series.FactorialParams(1, 2, 1)
_POWERLOG = series.PowerLogParams(1, 2, 0, 0, 1)
_PREDICT_TOL = 1e-12  # closed forms: the CLI and the library use one formula


def _value_check(ref: float, tol: float, **fields):
    """Check of a CLI record: ``value`` within ``tol`` of ``ref``, ``fields`` equal."""

    def check(rec: dict) -> list[str]:
        out = [f"{k}={rec.get(k)!r}, expected {v!r}" for k, v in fields.items() if rec.get(k) != v]
        if not _close(rec.get("value"), ref, tol):
            out.append(f"value {rec.get('value')!r} vs reference {ref!r}")
        return out

    return check


def _geometric_grid(lo: float, hi: float, points: int) -> list[float]:
    ratio = (hi / lo) ** (1.0 / (points - 1))
    return [lo * ratio**i for i in range(points)]


class CliRequest:
    """One CLI command with the check of its output against references."""

    def __init__(self, label: str, argv: list[str], check):
        self.label = label
        self.argv = argv
        self._check = check

    def failures(self, code: int, stdout: str) -> list[str]:
        if code != 0:
            return [f"{self.label}: exit code {code}"]
        try:
            record = json.loads(stdout)
        except ValueError:
            return [f"{self.label}: stdout is not JSON: {stdout[:200]!r}"]
        return [f"{self.label}: {msg}" for msg in self._check(record)]


def _cli_mix(rng: random.Random) -> list[CliRequest]:
    requests = []

    r = 1e6 * _jitter(rng)
    ref = reference.factorial_series(1, 2, 1, r)
    requests.append(
        CliRequest(
            "eval factorial",
            ["eval", "factorial", "--alpha", "1", "--beta", "2", "--mu", "1",
             "--r", repr(r), "--tol", "1e-12"],
            _value_check(ref, 1e-12, r=r),
        )
    )

    r = 100.0 * _jitter(rng)
    ref = asymptotics.predict_powerlog(_POWERLOG, r)
    requests.append(
        CliRequest(
            "predict powerlog",
            ["predict", "powerlog", "--alpha", "1", "--beta", "2", "--mu", "1", "--r", repr(r)],
            _value_check(ref, _PREDICT_TOL),
        )
    )

    # Radius with Gamma(g) = r at g = 12.5 +- 0.1: frac_g stays in the good set.
    r = math.exp(math.lgamma(12.5 + rng.uniform(-0.1, 0.1)))
    ref = asymptotics.predict_factorial(_FACTORIAL, r)
    requests.append(
        CliRequest(
            "predict factorial",
            ["predict", "factorial", "--alpha", "1", "--beta", "2", "--mu", "1", "--r", repr(r)],
            _value_check(ref, _PREDICT_TOL, in_R=True),
        )
    )

    r = 10.0 * _jitter(rng)
    ref = series.eval_powerlog(_POWERLOG, r, rel_tol=1e-10).value
    requests.append(
        CliRequest(
            "eval powerlog",
            ["eval", "powerlog", "--alpha", "1", "--beta", "2", "--mu", "1", "--r", repr(r)],
            _value_check(ref, 1e-8),
        )
    )

    r = 100.0 * _jitter(rng)
    ref = reference.power_series(lambda n: 1, lambda n: n * n, 0.0, 0.5, r)
    requests.append(
        CliRequest(
            "eval powerseries",
            ["eval", "powerseries", "--sequences", "ones-squares", "--mu", "0",
             "--x", "0.5", "--r", repr(r)],
            _value_check(ref, 1e-8),
        )
    )

    lo, hi = 1e3 * _jitter(rng), 1e9 * _jitter(rng)
    grid = _geometric_grid(lo, hi, 4)
    refs = [reference.factorial_series(1, 2, 1, g) for g in grid]
    preds = [
        asymptotics.predict_factorial(_FACTORIAL, g)
        if asymptotics.factorial_diagnostics(_FACTORIAL, g).in_R
        else None
        for g in grid
    ]

    def check_sweep(rec, grid=grid, refs=refs, preds=preds):
        rows = rec.get("records", [])
        if len(rows) != len(grid):
            return [f"{len(rows)} records for {len(grid)} radii"]
        out = []
        for row, g, ref, pred in zip(rows, grid, refs, preds):
            if not _close(row.get("r"), g, 1e-12) or not _close(row.get("value"), ref, 1e-10):
                out.append(f"r={row.get('r')!r}: value {row.get('value')!r} vs reference {ref!r}")
            elif (pred is None) != (row.get("prediction") is None) or (
                pred is not None and not _close(row.get("prediction"), pred, _PREDICT_TOL)
            ):
                out.append(f"r={g!r}: prediction {row.get('prediction')!r} vs {pred!r}")
        return out

    requests.append(
        CliRequest(
            "sweep factorial",
            ["sweep", "factorial", "--alpha", "1", "--beta", "2", "--mu", "1",
             "--r-grid", f"{lo!r}:{hi!r}:4", "--tol", "1e-10"],
            check_sweep,
        )
    )
    return requests


class CliOneshot:
    name = "cli-oneshot"

    def __init__(self, rng: random.Random, root: str, env: dict):
        self.rng = rng
        self.root = root
        self.env = env
        self.mix = _cli_mix(rng)
        self._queue: list[CliRequest] = []

    def _next(self) -> CliRequest:
        if not self._queue:
            self._queue = self.rng.sample(self.mix, len(self.mix))
        return self._queue.pop()

    def request(self) -> Outcome:
        req = self._next()
        argv = [sys.executable, "-m", "mathieu_series.cli", *req.argv]
        t0 = perf_counter()
        proc = subprocess.run(
            argv, cwd=self.root, env=self.env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        elapsed = perf_counter() - t0
        messages = req.failures(proc.returncode, proc.stdout)
        return Outcome(elapsed, 1, int(bool(messages)), messages)

    def inproc_pass(self, tracer=None) -> Outcome:
        order = self.rng.sample(self.mix, len(self.mix))
        t0 = perf_counter()
        with _scope(tracer):
            outputs = [golden.run_command(req.argv) for req in order]
        elapsed = perf_counter() - t0
        per_request = [req.failures(*out) for req, out in zip(order, outputs)]
        return Outcome(
            elapsed, len(order), sum(map(bool, per_request)), [m for ms in per_request for m in ms]
        )


# ---------------------------------------------------------------------------
# verify-all
# ---------------------------------------------------------------------------


class VerifyAll:
    name = "verify-all"

    def __init__(self, rng: random.Random, root: str, env: dict):
        self.rng = rng
        self._first: dict[str, float] | None = None

    def _outcome(self, elapsed: float, results: dict) -> Outcome:
        checks = [c for suite in results.values() for c in suite]
        # Measured values repeat exactly from pass to pass, except timings.
        measured = {c.name: c.measured for c in checks if c.note != "seconds"}
        if self._first is None:
            self._first = measured
        bad = {}
        for c in checks:
            if not c.passed:
                bad[c.name] = c.line()
            elif c.name in measured and measured[c.name] != self._first.get(c.name):
                bad[c.name] = f"measured {c.measured!r}, first pass {self._first.get(c.name)!r}"
        return Outcome(elapsed, len(checks), len(bad), [f"{k}: {v}" for k, v in bad.items()])

    def inproc_pass(self, tracer=None) -> Outcome:
        suites = self.rng.sample(verify.SUITE_NAMES, len(verify.SUITE_NAMES))
        t0 = perf_counter()
        with _scope(tracer):
            results = {name: verify.run_suite(name) for name in suites}
        return self._outcome(perf_counter() - t0, results)

    request = inproc_pass


# ---------------------------------------------------------------------------
# sequence-sweep
# ---------------------------------------------------------------------------


# log_factorial is looked up on its module at call time, so an installed
# tracer counts the calls.
def _logfact_a(n):
    return special.log_factorial(n)


def _logfact_b(n):
    return special.log_factorial(n) ** 3


def _shifted_a(n):
    return (n + 3.0) * math.log(n + 2.0)


def _shifted_b(n):
    return float(n) ** 3 * math.log(n + 1.0)


def _one(n):
    return 1.0


def _square(n):
    return float(n) ** 2


def _linear(n):
    return float(n)


def _factorial(n):
    return math.factorial(n)


@dataclass(frozen=True)
class SeqCall:
    """One evaluator call of the sweep; ``evaluator`` names a ``series`` function."""

    label: str
    evaluator: str
    a: Callable[[int], float]
    b: Callable[[int], float]
    b_from: int
    kwargs: dict

    def run(self, tracer=None, **overrides):
        a, b = self.a, self.b
        if tracer is not None:
            a, b = tracer.callback(a), tracer.callback(b)
        # Looked up at call time, so an installed tracer sees the call.
        evaluate = getattr(series, self.evaluator)
        pair = series.SequencePair(a=a, b=b, b_monotone_from=self.b_from)
        return evaluate(pair, **{**self.kwargs, **overrides})


def _seq_calls(rng: random.Random) -> list[SeqCall]:
    calls = []
    for k in range(2, 7):  # cor61 tuple
        r = 10.0**k * _jitter(rng)
        calls.append(
            SeqCall(f"logfact r={r:.6g}", "eval_general", _logfact_a, _logfact_b, 2,
                    dict(mu=1.0, r=r, rel_tol=1e-5, n_start=2))
        )
    for k in range(2, 6):  # thm12 tuple
        r = 10.0**k * _jitter(rng)
        calls.append(
            SeqCall(f"shifted-powerlog r={r:.6g}", "eval_general", _shifted_a, _shifted_b, 1,
                    dict(mu=1.0, r=r, rel_tol=1e-6))
        )
    for x in (0.5, 0.9, 0.98, 0.99):
        r = 100.0 * _jitter(rng)
        calls.append(
            SeqCall(f"ones-squares x={x}", "eval_power_series", _one, _square, 0,
                    dict(mu=0.0, x=x, r=r, rel_tol=1e-10))
        )
    r = 100.0 * _jitter(rng)
    calls.append(
        SeqCall("linear-factorial x=1/3", "eval_power_series", _linear, _factorial, 0,
                dict(mu=1.0, x=1.0 / 3.0, r=r, rel_tol=1e-10))
    )
    return calls


def _seq_reference(call: SeqCall) -> float:
    if call.evaluator == "eval_general":
        return call.run(rel_tol=call.kwargs["rel_tol"] / 100.0).value
    kw = call.kwargs
    return reference.power_series(call.a, call.b, kw["mu"], kw["x"], kw["r"])


def _seq_failures(call: SeqCall, result, ref: float) -> list[str]:
    """A call fails when it raised or missed the reference by more than its
    certificate plus rel_tol (power series certify rel_tol * |value|)."""
    if isinstance(result, Exception):
        return [f"{call.label}: raised {result!r}"]
    rel_tol = call.kwargs["rel_tol"]
    if call.evaluator == "eval_general":
        value, certificate = result.value, result.tail_bound
    else:
        value, certificate = result, rel_tol * abs(result)
    if not (isinstance(value, float) and abs(value - ref) <= certificate + rel_tol * abs(ref)):
        return [f"{call.label}: value {value!r} vs reference {ref!r}"]
    return []


class SequenceSweep:
    name = "sequence-sweep"

    def __init__(self, rng: random.Random, root: str, env: dict):
        self.rng = rng
        self.calls = _seq_calls(rng)
        self.refs = {call.label: _seq_reference(call) for call in self.calls}

    def _run_all(self, order, tracer) -> list:
        results = []
        for call in order:
            try:
                results.append(call.run(tracer))
            except MathieuError as exc:
                results.append(exc)
        return results

    def inproc_pass(self, tracer=None) -> Outcome:
        order = self.rng.sample(self.calls, len(self.calls))
        t0 = perf_counter()
        with _scope(tracer):
            results = self._run_all(order, tracer)
        elapsed = perf_counter() - t0
        per_call = [_seq_failures(c, res, self.refs[c.label]) for c, res in zip(order, results)]
        return Outcome(
            elapsed, len(order), sum(map(bool, per_call)), [m for ms in per_call for m in ms]
        )

    request = inproc_pass


WORKLOADS = {cls.name: cls for cls in (CliOneshot, VerifyAll, SequenceSweep)}
