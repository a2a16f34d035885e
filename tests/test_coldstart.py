"""Cold start: importing the package and the CLI loads no scipy module."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs in a fresh interpreter: imports, three CLI calls that need no
# quadrature, then a power-log evaluation, which does.
CHILD = """
import sys

import mathieu_series
from mathieu_series import cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

assert not scipy_modules(), scipy_modules()
for argv in (
    ["eval", "factorial", "--alpha", "1", "--beta", "2", "--mu", "1", "--r", "1e6"],
    ["predict", "factorial", "--alpha", "1", "--beta", "2", "--mu", "1", "--r", "137846287.9"],
    ["predict", "powerlog", "--alpha", "1", "--beta", "2", "--mu", "1", "--r", "100"],
):
    assert cli.main(argv) == 0, argv
assert not scipy_modules(), scipy_modules()

res = mathieu_series.eval_powerlog(mathieu_series.PowerLogParams(1, 2, 0, 0, 1), 10.0)
assert res.value > 0.0 and res.tail_bound <= 1e-8 * res.value
assert "scipy.integrate" in sys.modules
print("ok")
"""


def test_no_scipy_until_first_quadrature():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"
