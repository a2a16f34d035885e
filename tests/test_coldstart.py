"""Cold start: the package and the integrating evaluators load no scipy module."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs in a fresh interpreter: imports, three CLI calls, then the evaluators
# that integrate (a power-log sum, a smooth eval_general and a small-s
# factorial Dirichlet sum), none of which may load scipy.
CHILD = """
import sys

import mathieu_series
from mathieu_series import cli

def loaded(package):
    return sorted(m for m in sys.modules if m == package or m.startswith(package + "."))

assert not loaded("scipy"), loaded("scipy")
assert not loaded("numpy.polynomial"), loaded("numpy.polynomial")
for argv in (
    ["eval", "factorial", "--alpha", "1", "--beta", "2", "--mu", "1", "--r", "1e6"],
    ["predict", "factorial", "--alpha", "1", "--beta", "2", "--mu", "1", "--r", "137846287.9"],
    ["predict", "powerlog", "--alpha", "1", "--beta", "2", "--mu", "1", "--r", "100"],
):
    assert cli.main(argv) == 0, argv

res = mathieu_series.eval_powerlog(mathieu_series.PowerLogParams(1, 2, 0, 0, 1), 10.0)
assert res.value > 0.0 and res.tail_bound <= 1e-8 * res.value
cubic = mathieu_series.SequencePair(
    a=lambda n: float(n),
    b=lambda n: float(n) ** 3,
    log_a=lambda u: 1.0 * u,
    log_b=lambda u: 3.0 * u,
)
res = mathieu_series.eval_general(cubic, 1.0, 1e3)
assert res.value > 0.0 and res.tail_bound <= 1e-8 * res.value
assert mathieu_series.factorial_dirichlet(1e-8) > 0.0
assert not loaded("scipy"), loaded("scipy")
assert not loaded("numpy.polynomial"), loaded("numpy.polynomial")
print("ok")
"""


def test_integrating_evaluators_load_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"
