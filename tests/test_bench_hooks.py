"""The benchmark's hooks still fit the package.

``perfbench/tracing.py`` counts quadrature calls at ``series.quad`` and
``dirichlet.quad``; every summand integral of ``series`` and ``dirichlet``
must go through the ``series`` binding so that the count sees it. The
package's own names must show the wrapper while the tracer is installed and
the original after. ``perfbench/golden.py`` replays the golden CLI set: the
commands whose stdout differs from its recording are pinned here, so that a
change of CLI bytes fails this suite, not only the benchmark's
``cli.bytes_changed``.
"""

import importlib
import importlib.util
from pathlib import Path

import mathieu_series
from mathieu_series import dirichlet, series, verify

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(tracing):
    out = {}
    for name in tracing.MODULES:
        mod = importlib.import_module(f"{tracing.PACKAGE}.{name}")
        out.update({(name, attr): value for attr, value in vars(mod).items() if callable(value)})
    return out


def test_tracer_counts_series_quad_and_puts_the_originals_back():
    tracing = _load("tracing")
    before = _bindings(tracing)
    suites = dict(verify._SUITES)
    cubic = series.SequencePair(
        a=lambda n: float(n),
        b=lambda n: float(n) ** 3,
        log_a=lambda u: 1.0 * u,
        log_b=lambda u: 3.0 * u,
    )
    calls = (
        lambda: series.eval_powerlog(series.PowerLogParams(1, 2, 0, 0, 1), 1e3),
        lambda: series.eval_general(cubic, 1.0, 1e3),
        lambda: dirichlet.factorial_dirichlet(1e-8),
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert series.quad is not before[("series", "quad")]
        # the package reads its names from the submodule, so it sees the wrapper
        assert mathieu_series.eval_general is series.eval_general
        assert mathieu_series.eval_general is not before[("series", "eval_general")]
        for call in calls:
            with tracer.traced_pass():
                call()
    finally:
        tracer.uninstall()

    for counts in tracer.pass_counts:
        assert counts["series.quad.calls"] > 0
    assert _bindings(tracing) == before
    assert mathieu_series.eval_general is before[("series", "eval_general")]
    assert verify._SUITES == suites


def test_tracer_counts_the_factorial_family_of_the_scalar_core():
    # eval_factorial is written in _core, which the tracer does not scan: its
    # calls must still reach the wrappers at the bindings the tracer patches,
    # and each of its terms reads log n! through special.log_factorial.
    tracing = _load("tracing")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.traced_pass():
            verify.run_suite("thm13")
    finally:
        tracer.uninstall()

    counts = tracer.pass_counts[0]
    assert counts["series.eval_factorial.calls"] > 0
    assert counts["special.log_factorial.calls"] > 0
    assert counts["special.log_factorial.calls"] >= counts["series.eval_factorial.terms"]


# The golden commands whose stdout differs from golden.json's recording,
# which predates these output changes: the Euler-Maclaurin tail of the
# power-log sums (eval and sweep), the gamma and delta that the meta line of
# predict --gamma-eq-alpha --delta-eq-beta shows, the direct sums of the
# expansion sweep, and the smooth forms of the general-series presets.
GOLDEN_CHANGED = [
    ["eval", "powerlog", "--alpha", "1", "--beta", "2", "--mu", "1", "--r", "10",
     "--tol", "1e-10"],
    ["eval", "powerlog", "--alpha", "1", "--beta", "2", "--gamma", "1", "--delta", "1",
     "--mu", "1", "--r", "1000"],
    ["eval", "general", "--sequences", "logfact", "--alpha", "1", "--beta", "3", "--mu", "1",
     "--r", "100"],
    ["eval", "general", "--sequences", "shifted-powerlog", "--alpha", "1", "--beta", "3",
     "--gamma", "1", "--delta", "1", "--mu", "1", "--r", "100", "--tol", "1e-6"],
    ["predict", "powerlog", "--alpha", "1", "--beta", "3", "--mu", "1", "--gamma-eq-alpha",
     "--delta-eq-beta", "--r", "100", "--format", "csv"],
    ["sweep", "powerlog", "--alpha", "1", "--beta", "2", "--mu", "1",
     "--r-grid", "100:1000000:3"],
    ["sweep", "expansion", "--mu", "2", "--r-grid", "10:100:2"],
]


def test_golden_cli_set_changes_only_the_pinned_commands(monkeypatch):
    monkeypatch.delenv("MATHIEU_TERM_CAP", raising=False)
    golden = _load("golden")
    changed = [
        cmd["argv"]
        for cmd in golden.load()["commands"]
        if golden.run_command(cmd["argv"]) != (cmd["exit"], cmd["stdout"])
    ]
    assert changed == GOLDEN_CHANGED
    assert golden.changed() == len(GOLDEN_CHANGED)
