"""Fresh-process probes: set-up time, interpreter start, import split.

Each probe starts one child interpreter at a time and waits for it.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from collections import defaultdict
from time import perf_counter

# Import the package and make the warm-up call; prints the seconds spent.
SETUP_CODE = (
    "from time import perf_counter\n"
    "t0 = perf_counter()\n"
    "import mathieu_series as m\n"
    "m.eval_factorial(m.FactorialParams(1, 2, 1), 1e6)\n"
    "print(repr(perf_counter() - t0))\n"
)
IMPORT_GROUPS = {"scipy": "scipy", "numpy": "numpy", "mpmath": "mpmath", "mathieu_series": "own"}
CHILD_TIMEOUT_S = 120


def child_env(src_dir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src_dir, env.get("PYTHONPATH")) if p)
    return env


def _run(argv: list[str], env: dict, cwd: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        argv, env=env, cwd=cwd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True
    )


def setup_probe(env: dict, cwd: str) -> float:
    """Seconds one fresh process spends on import mathieu_series plus the warm-up call."""
    return float(_run([sys.executable, "-c", SETUP_CODE], env, cwd).stdout)


def interpreter_seconds(env: dict, cwd: str, repeats: int) -> float:
    """Median wall time of ``python -c pass``."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        _run([sys.executable, "-c", "pass"], env, cwd)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def parse_importtime(stderr: str) -> dict[str, float]:
    """Self import seconds per group from ``-X importtime`` output.

    Each import is charged to the nearest enclosing import (itself
    included) whose top-level package is in ``IMPORT_GROUPS``, so the
    stdlib modules scipy pulls in count as scipy. Imports outside every
    group (interpreter start, the probe's own ``time``) are left out.
    """
    entries = []  # (depth, top-level package, seconds), children before parents
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:") :].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # header line
        name = fields[2]
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        entries.append((depth, name.strip().split(".")[0], int(fields[0]) * 1e-6))
    totals: dict[str, float] = defaultdict(float)
    enclosing: list[tuple[int, str | None]] = []  # (depth, group) from the root down
    for depth, top, seconds in reversed(entries):  # parents before children
        while enclosing and enclosing[-1][0] >= depth:
            enclosing.pop()
        group = IMPORT_GROUPS.get(top) or (enclosing[-1][1] if enclosing else None)
        enclosing.append((depth, group))
        if group is not None:
            totals[group] += seconds
    return totals


def import_split(env: dict, cwd: str, repeats: int) -> dict[str, float]:
    """Median per group of the set-up code's import time, split by package."""
    runs = [
        parse_importtime(_run([sys.executable, "-X", "importtime", "-c", SETUP_CODE], env, cwd).stderr)
        for _ in range(repeats)
    ]
    return {
        group: statistics.median(run.get(group, 0.0) for run in runs)
        for group in IMPORT_GROUPS.values()
    }
