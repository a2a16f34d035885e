"""Cold start: numpy and the package's own submodules load only when a
computation needs them, and mpmath and scipy never do."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs in a fresh interpreter. The imports and the five CLI commands that
# compute in scalar arithmetic load none of numpy, mpmath and scipy; a
# power-log sum then loads numpy. No evaluator and no command here loads
# mpmath or scipy: not the integrating evaluators (a power-log sum, a
# smooth eval_general, a small-s factorial Dirichlet sum, the log-weighted
# zeta of verify lemma22), and not the saddle-point bound with its
# gamma-line integral, alone or in verify thm15.
CHILD = """
import sys

import mathieu_series
from mathieu_series import cli

def loaded(package):
    return sorted(m for m in sys.modules if m == package or m.startswith(package + "."))

for package in ("numpy", "mpmath", "scipy"):
    assert not loaded(package), loaded(package)
for argv in (
    ["eval", "factorial", "--alpha", "1", "--beta", "2", "--mu", "1", "--r", "1e6"],
    ["predict", "factorial", "--alpha", "1", "--beta", "2", "--mu", "1", "--r", "137846287.9"],
    ["predict", "powerlog", "--alpha", "1", "--beta", "2", "--mu", "1", "--r", "100"],
    ["eval", "powerseries", "--sequences", "ones-squares", "--mu", "0", "--x", "0.5",
     "--r", "100"],
    ["sweep", "factorial", "--alpha", "1", "--beta", "2", "--mu", "1",
     "--r-grid", "1e3:1e6:4", "--tol", "1e-10"],
):
    assert cli.main(argv) == 0, argv
for package in ("numpy", "mpmath", "scipy"):
    assert not loaded(package), loaded(package)

res = mathieu_series.eval_powerlog(mathieu_series.PowerLogParams(1, 2, 0, 0, 1), 10.0)
assert res.value > 0.0 and res.tail_bound <= 1e-8 * res.value
assert loaded("numpy")
cubic = mathieu_series.SequencePair(
    a=lambda n: float(n),
    b=lambda n: float(n) ** 3,
    log_a=lambda u: 1.0 * u,
    log_b=lambda u: 3.0 * u,
)
res = mathieu_series.eval_general(cubic, 1.0, 1e3)
assert res.value > 0.0 and res.tail_bound <= 1e-8 * res.value
assert mathieu_series.factorial_dirichlet(1e-8) > 0.0
assert not loaded("mpmath"), loaded("mpmath")
assert not loaded("scipy"), loaded("scipy")
assert not loaded("numpy.polynomial"), loaded("numpy.polynomial")

# A sequence with no log_a/log_b: eval_general fits an envelope, or takes
# the one supplied, and bounds the tail by the envelope's closed form.
plain = mathieu_series.SequencePair(a=lambda n: float(n), b=lambda n: float(n) ** 3)
res = mathieu_series.eval_general(plain, 1.0, 10.0, rel_tol=1e-6)
assert res.value > 0.0 and res.tail_bound <= 1e-6 * res.value
envelope = mathieu_series.GeneralEnvelope(2.0, 1.0, 0.0, 0.5, 3.0, 0.0, 4)
res = mathieu_series.eval_general(plain, 1.0, 10.0, rel_tol=1e-6, envelope=envelope)
assert res.value > 0.0 and res.tail_bound <= 1e-6 * res.value
for argv in (
    ["eval", "general", "--sequences", "logfact", "--alpha", "1", "--beta", "3", "--mu", "1",
     "--r", "100"],
    ["eval", "general", "--sequences", "shifted-powerlog", "--alpha", "1", "--beta", "3",
     "--gamma", "1", "--delta", "1", "--mu", "1", "--r", "100", "--tol", "1e-6"],
    ["verify", "lemma22"],
):
    assert cli.main(argv) == 0, argv
assert mathieu_series.saddle_point_bound(mathieu_series.FactorialParams(1, 2, 1), 1e6) > 0.0
assert cli.main(["verify", "thm15"]) == 0
assert not loaded("mpmath"), loaded("mpmath")
assert not loaded("scipy"), loaded("scipy")
print("ok")
"""

# Runs in a fresh interpreter: eight threads evaluate ``{first_use}`` at
# once, the first use of a module that loads on first access, so they race
# on its import. Each must get a result equal to the others'.
THREADS_CHILD = """
import sys
import threading

import mathieu_series

sys.setswitchinterval(1e-6)  # switch threads often, inside the import too
N = 8
barrier = threading.Barrier(N, timeout=60)
results = [None] * N

def first_call(i):
    barrier.wait()
    results[i] = {first_use}

threads = [threading.Thread(target=first_call, args=(i,)) for i in range(N)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
    assert not t.is_alive()
assert results[0] is not None and all(r == results[0] for r in results), results
print("ok")
"""


def _run_child(code: str) -> str:
    """Run ``code`` in a fresh interpreter; the last line it printed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def _modules_loaded_by(code: str) -> set[str]:
    """Every module that ``code`` loads in a fresh interpreter: those loaded
    when it ends and not before it starts (``site`` may preload some)."""
    last = _run_child(
        "import sys\n_before = set(sys.modules)\n"
        + code
        + "\nprint('loaded:', *sorted(set(sys.modules) - _before))"
    )
    assert last.startswith("loaded:"), last
    return set(last.split()[1:])


def _submodules(modules: set[str]) -> set[str]:
    """The package's submodules among ``modules``, without the package prefix."""
    return {m.removeprefix("mathieu_series.") for m in modules if m.startswith("mathieu_series.")}


def _submodules_loaded_by(code: str) -> set[str]:
    """The package's submodules that ``code`` loads in a fresh interpreter."""
    return _submodules(_modules_loaded_by(code))


NOT_FOR_SCALAR_WORK = {"asymptotics", "dirichlet", "verify"}
# All that eval_factorial loads of the package: of special it runs
# log_factorial alone, so neither _special_rest nor numpy's deferred
# handle (_deferred) loads.
SCALAR_CORE = {"_core", "_record", "errors", "special"}
# eval_factorial and the closed forms run on the scalar core: without the
# quadrature stack of series and tails, and without fractions, which only
# the exact Bernoulli numbers need.
NOT_FOR_THE_SCALAR_CORE = {"mathieu_series.series", "mathieu_series.tails", "fractions"}
# The records are built without dataclasses, which loads inspect; csv is for
# --format csv only.
NOT_FOR_A_COLD_START = {"dataclasses", "inspect"}
NOT_FOR_JSON_OUTPUT = {"csv"}


def test_heavy_modules_load_on_first_use():
    assert _run_child(CHILD) == "ok"


def test_concurrent_first_use_of_numpy():
    first_use = "mathieu_series.eval_powerlog(mathieu_series.PowerLogParams(1, 2, 0, 0, 1), 10.0)"
    assert _run_child(THREADS_CHILD.format(first_use=first_use)) == "ok"


def test_concurrent_first_read_of_a_forwarded_special_name():
    # special imports _special_rest on this first read; == on functions is identity
    first_use = "(mathieu_series.special.inverse_gamma_log, mathieu_series.special.bernoulli_table)"
    assert _run_child(THREADS_CHILD.format(first_use=first_use)) == "ok"


def test_package_import_loads_no_submodule():
    assert _submodules_loaded_by("import mathieu_series") == set()


def test_errors_loads_no_other_submodule_and_no_numpy():
    # every module takes its argument and result gates from errors: they must
    # not pull _core, series or numpy onto the cold path, nor form an import cycle
    modules = _modules_loaded_by("import mathieu_series.errors")
    assert _submodules(modules) == {"errors"}, _submodules(modules)
    assert not {m for m in modules if m.split(".")[0] == "numpy"}, modules


def test_reading_the_grid_entry_loads_series_only():
    code = """
import sys

import mathieu_series

mathieu_series.eval_general_grid
heavy = sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "mpmath", "scipy"))
assert not heavy, heavy
"""
    assert "series" in _submodules_loaded_by(code)


def test_eval_factorial_loads_only_the_modules_it_runs():
    modules = _modules_loaded_by(
        "import mathieu_series as m\nm.eval_factorial(m.FactorialParams(1, 2, 1), 1e6)"
    )
    assert not modules & NOT_FOR_THE_SCALAR_CORE, modules & NOT_FOR_THE_SCALAR_CORE
    assert not modules & NOT_FOR_A_COLD_START, modules & NOT_FOR_A_COLD_START
    assert "_core" in _submodules(modules)
    assert not _submodules(modules) & NOT_FOR_SCALAR_WORK, _submodules(modules)


def test_eval_factorial_loads_exactly_the_scalar_core():
    assert _submodules_loaded_by(
        "import mathieu_series as m\nm.eval_factorial(m.FactorialParams(1, 2, 1), 1e6)"
    ) == SCALAR_CORE
    argv = ["eval", "factorial", "--alpha", "1", "--beta", "2", "--mu", "1", "--r", "1e6"]
    assert _submodules_loaded_by(
        "import contextlib, io\n"
        "from mathieu_series import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == 0\n"
    ) == SCALAR_CORE | {"cli", "_suites"}


@pytest.mark.parametrize(
    "argv, not_loaded, core_only",
    [
        (["eval", "factorial", "--alpha", "1", "--beta", "2", "--mu", "1", "--r", "1e6"],
         NOT_FOR_SCALAR_WORK, True),
        (["eval", "powerseries", "--sequences", "ones-squares", "--mu", "0", "--x", "0.5",
          "--r", "100"], NOT_FOR_SCALAR_WORK, False),
        (["eval", "powerlog", "--alpha", "1", "--beta", "2", "--mu", "1", "--r", "10"],
         NOT_FOR_SCALAR_WORK, False),
        (["predict", "powerlog", "--alpha", "1", "--beta", "2", "--mu", "1", "--r", "100"],
         {"verify"}, True),
        (["predict", "factorial", "--alpha", "1", "--beta", "2", "--mu", "1",
          "--r", "137846287.9"], {"verify"}, True),
        (["sweep", "factorial", "--alpha", "1", "--beta", "2", "--mu", "1",
          "--r-grid", "1e3:1e6:4", "--tol", "1e-10"], {"verify"}, True),
    ],
    ids=["eval-factorial", "eval-powerseries", "eval-powerlog", "predict-powerlog",
         "predict-factorial", "sweep-factorial"],
)
def test_cli_command_loads_only_the_modules_it_runs(argv, not_loaded, core_only):
    modules = _modules_loaded_by(
        "import contextlib, io\n"
        "from mathieu_series import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == 0\n"
    )
    assert not _submodules(modules) & not_loaded, _submodules(modules)
    assert not modules & NOT_FOR_JSON_OUTPUT, modules & NOT_FOR_JSON_OUTPUT
    if argv[:2] == ["eval", "powerseries"]:  # eval_power_series sums in scalar arithmetic
        assert "numpy" not in modules, sorted(m for m in modules if m.startswith("numpy"))
    if core_only:
        assert not modules & NOT_FOR_THE_SCALAR_CORE, modules & NOT_FOR_THE_SCALAR_CORE
        assert not modules & NOT_FOR_A_COLD_START, modules & NOT_FOR_A_COLD_START


def test_every_exported_name_resolves():
    code = """
import mathieu_series as m

star = {}
exec("from mathieu_series import *", star)
assert set(star) - {"__builtins__"} == set(m.__all__), set(star) ^ set(m.__all__)
assert set(m.__all__) <= set(dir(m))
for name in m.__all__:
    value = getattr(m, name)
    home = getattr(value, "__module__", None) or value.__name__
    assert home.startswith("mathieu_series."), (name, home)
assert m.eval_general is m.series.eval_general
assert m.eval_general_grid is m.series.eval_general_grid
print("ok")
"""
    assert _run_child(code) == "ok"
