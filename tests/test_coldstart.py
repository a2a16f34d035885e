"""Cold start: numpy, mpmath and scipy load only when a computation needs them."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs in a fresh interpreter. The imports and the five CLI commands that
# compute in scalar arithmetic load none of numpy, mpmath and scipy; a
# power-log sum then loads numpy, a fitted-envelope eval_general mpmath
# (its incomplete-gamma tail), and none of the integrating evaluators
# (a power-log sum, a smooth eval_general, a small-s factorial Dirichlet
# sum) loads scipy.
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

# A sequence with no log_a/log_b: eval_general fits an envelope and bounds
# the tail by an incomplete-gamma integral.
plain = mathieu_series.SequencePair(a=lambda n: float(n), b=lambda n: float(n) ** 3)
res = mathieu_series.eval_general(plain, 1.0, 10.0, rel_tol=1e-6)
assert res.value > 0.0 and res.tail_bound <= 1e-6 * res.value
assert loaded("mpmath")
assert not loaded("scipy"), loaded("scipy")
print("ok")
"""

# Runs in a fresh interpreter: eight threads make their first
# numpy-touching call at once, so they race on the deferred numpy import.
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
    results[i] = mathieu_series.eval_powerlog(mathieu_series.PowerLogParams(1, 2, 0, 0, 1), 10.0)

threads = [threading.Thread(target=first_call, args=(i,)) for i in range(N)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
    assert not t.is_alive()
assert results[0] is not None and all(r == results[0] for r in results), results
print("ok")
"""


def _run_child(code: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"


def test_heavy_modules_load_on_first_use():
    _run_child(CHILD)


def test_concurrent_first_use_of_numpy():
    _run_child(THREADS_CHILD)
