"""Benchmark of mathieu-series: CLI cold start, verify suites, callback sweeps.

Run from the repository root:

    python3 perfbench/run.py --workload cli-oneshot --seed 1 --seconds 25 --trace 0

``--workload`` is one of the names in BENCHMARK.json, or ``all`` to run
the three in turn. With ``--trace 0`` the run measures the end-to-end
metrics; with ``--trace 1`` it records spans and counts at every layer
boundary and reports the per-layer metrics and its own overhead. A
human-readable report goes to stderr, full results and the trace go to
``.bench_out/``, and the last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The package is imported from ``src/`` of the checkout; nothing is
installed. See perfbench/README.md for workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 9
INTERP_REPEATS = 5
IMPORT_REPEATS = 3

# Names each workload's end-to-end figures carry in the report.
REPORT_NAMES = {
    "cli-oneshot": ("cli_latency_p50_s", "cli_latency_tail_s", "cli_failed_frac"),
    "verify-all": ("verify_pass_s", None, "verify_failed_frac"),
    "sequence-sweep": ("seq_pass_s", None, "seq_failed_frac"),
}


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
    }


def closed_loop(step, seconds: float, probe, probes: int) -> tuple[list, list]:
    """Call ``step`` back to back until it has taken ``seconds`` (at least once).

    ``probe`` runs ``probes`` times, spread evenly over the steps' time and
    not counted in it, so its samples see the same machine as the steps.
    Returns the steps' outcomes and the probes' results.
    """
    outcomes, probed = [], []
    spent = 0.0
    while not outcomes or spent < seconds:
        if len(probed) < probes and len(probed) * seconds <= probes * spent:
            probed.append(probe())
            continue
        t0 = perf_counter()
        outcomes.append(step())
        spent += perf_counter() - t0
    probed.extend(probe() for _ in range(probes - len(probed)))
    return outcomes, probed


def tail(samples: list[float]):
    """(value, percentile, n): the highest percentile with >= 10 samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return None, None, n
    k = n - 11
    return ordered[k], 100.0 * (k + 1) / n, n


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced pass
# ---------------------------------------------------------------------------


def layer_metrics(times: dict, counts) -> dict[str, float]:
    """Per-layer figures of one pass: counts, self times, suite and CLI times.

    Library functions report self time (children subtracted); the roots,
    ``verify.<suite>_s`` and ``cli.main_s``, report inclusive time.
    """

    def own(name):
        return times.get(name, (0.0, 0.0))[1]

    def incl(name):
        return times.get(name, (0.0, 0.0))[0]

    general_terms = counts["series.eval_general.terms"]
    m = {
        "cli.main_s": incl("cli.main"),
        "series.eval_powerlog.calls": counts["series.eval_powerlog.calls"],
        "series.eval_powerlog.terms": counts["series.eval_powerlog.terms"],
        "series.eval_powerlog.self_s": own("series.eval_powerlog"),
        "series.quad.calls": counts["series.quad.calls"],
        "series.quad_s": own("series.quad"),
        "tails.exp_poly_tail.calls": counts["tails.exp_poly_tail.calls"],
        "tails.exp_poly_tail_s": own("tails.exp_poly_tail"),
        "series.eval_general.calls": counts["series.eval_general.calls"],
        "series.eval_general.terms": general_terms,
        "series.eval_general.callback_calls": counts["series.eval_general.callback_calls"],
        "series.eval_general.us_per_term": (
            1e6 * own("series.eval_general") / general_terms if general_terms else 0.0
        ),
        "series.eval_power_series.calls": counts["series.eval_power_series.calls"],
        "series.eval_power_series.callback_calls": counts["series.eval_power_series.callback_calls"],
        "series.eval_power_series_s": own("series.eval_power_series"),
        "dirichlet.factorial_dirichlet.calls": counts["dirichlet.factorial_dirichlet.calls"],
        "dirichlet.factorial_dirichlet_s": own("dirichlet.factorial_dirichlet"),
        "dirichlet.log_weighted_zeta_s": own("dirichlet.log_weighted_zeta"),
        "dirichlet.saddle_point_bound_s": own("dirichlet.saddle_point_bound"),
        "dirichlet.quad.calls": counts["dirichlet.quad.calls"],
        "dirichlet.quad_s": own("dirichlet.quad"),
        "series.eval_factorial.calls": counts["series.eval_factorial.calls"],
        "series.eval_factorial.terms": counts["series.eval_factorial.terms"],
        "series.eval_factorial_s": own("series.eval_factorial"),
        "special.inverse_gamma_log.calls": counts["special.inverse_gamma_log.calls"],
        "special.inverse_gamma_log_s": own("special.inverse_gamma_log"),
        "special.log_factorial.calls": counts["special.log_factorial.calls"],
        "asymptotics.calls": sum(
            v for k, v in counts.items() if k.startswith("asymptotics.") and k.endswith(".calls")
        ),
        "asymptotics.self_s": sum(
            (v[1] for k, v in times.items() if k.startswith("asymptotics.")), 0.0
        ),
    }
    from mathieu_series.verify import SUITE_NAMES

    for suite in SUITE_NAMES:
        m[f"verify.{suite}_s"] = incl(f"verify.{suite}")
    return m


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def run_e2e(wl, seconds: float, env: dict) -> dict:
    import coldstart

    outcomes, setups = closed_loop(
        wl.request, seconds, lambda: coldstart.setup_probe(env, str(ROOT)), SETUP_REPEATS
    )
    setup = statistics.median(setups)
    times = [o.seconds for o in outcomes]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    p50_name, tail_name, frac_name = REPORT_NAMES[wl.name]
    report = {
        "setup_s": (setup, "s"),
        p50_name: (statistics.median(times), "s"),
        frac_name: (failed / attempted, "1"),
    }
    if tail_name:
        value, pct, n = tail(times)
        report[tail_name] = (value, "s")
        report[tail_name.replace("_s", "_percentile")] = (pct, "%")
        report[p50_name.replace("p50_s", "requests")] = (n, "count")
    return {
        "metrics": {"setup_s": setup, "request_p50_s": statistics.median(times)},
        "report": report,
        "attempted": attempted,
        "failed": failed,
        "messages": [m for o in outcomes for m in o.messages],
        "request_s": times,
        "setup_probes_s": setups,
    }


def _is_time(metric: str) -> bool:
    return metric.endswith(("_s", ".us_per_term"))


def run_traced(wl, seconds: float, env: dict, seed: int) -> dict:
    import coldstart
    import golden
    from tracing import Tracer

    m = {"cli.bytes_changed": golden.changed()}
    m["cli.interp_s"] = coldstart.interpreter_seconds(env, str(ROOT), INTERP_REPEATS)
    for group, value in coldstart.import_split(env, str(ROOT), IMPORT_REPEATS).items():
        m[f"cli.import.{group}_s"] = value

    # Untraced and traced passes alternate, each side going first in turn.
    tracer = Tracer()
    plain, traced = [], []

    def run_pass(with_tracer: bool):
        if not with_tracer:
            plain.append(wl.inproc_pass(None))
            return
        tracer.install()
        try:
            traced.append(wl.inproc_pass(tracer))
        finally:
            tracer.uninstall()

    deadline = perf_counter() + seconds
    while not traced or perf_counter() < deadline:
        order = (False, True) if len(traced) % 2 == 0 else (True, False)
        for with_tracer in order:
            run_pass(with_tracer)

    per_pass = [layer_metrics(t, c) for t, c in zip(tracer.pass_times(), tracer.pass_counts)]
    # Counts must repeat exactly from pass to pass; a pass that differs fails.
    count_keys = [k for k in per_pass[0] if not _is_time(k)]
    differing = [
        f"traced pass {i}: {k} = {p[k]!r}, first pass {per_pass[0][k]!r}"
        for i, p in enumerate(per_pass)
        for k in count_keys
        if p[k] != per_pass[0][k]
    ]
    counts_repeat = not differing
    for key, first_value in per_pass[0].items():
        # Counts repeat from pass to pass; times are medians over the passes.
        m[key] = statistics.median(p[key] for p in per_pass) if _is_time(key) else first_value
    overhead = statistics.median(o.seconds for o in traced) / statistics.median(
        o.seconds for o in plain
    )
    m["trace.overhead_pct"] = 100.0 * (overhead - 1.0)

    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{wl.name}-seed{seed}.json"
    tracer.write(trace_path, {"workload": wl.name, "seed": seed, "per_pass": per_pass})
    outcomes = plain + traced
    return {
        "metrics": m,
        "report": {
            "trace.overhead_pct": (m["trace.overhead_pct"], "%"),
            "traced passes": (len(traced), "count"),
            "counts repeat across passes": (counts_repeat, ""),
            "trace file": (str(trace_path.relative_to(ROOT)), ""),
        },
        "counts_repeat": counts_repeat,
        # The repeat of the counts is one more check of the run.
        "attempted": sum(o.attempted for o in outcomes) + 1,
        "failed": sum(o.failed for o in outcomes) + (0 if counts_repeat else 1),
        "messages": [msg for o in outcomes for msg in o.messages] + differing,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "mathieu_series" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'mathieu_series'}; run in a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in (*names, "all"):
        ap.error(f"--workload must be one of {', '.join(names)} or all")
    if args.workload == "all" and args.trace:
        ap.error("--workload all measures the end-to-end figures only; use --trace 0")
    sys.path.insert(0, str(SRC))

    import coldstart
    import mathieu_series
    import workloads

    env = coldstart.child_env(str(SRC))
    # The warm-up call of coldstart.SETUP_CODE, made in this process too.
    mathieu_series.eval_factorial(mathieu_series.FactorialParams(1, 2, 1), 1e6)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    info = environment()
    print(f"perfbench: {json.dumps(info)}", file=sys.stderr)

    results = {}
    for name in names if args.workload == "all" else [args.workload]:
        wl = workloads.WORKLOADS[name](random.Random(args.seed), str(ROOT), env)
        if args.trace:
            res = run_traced(wl, args.seconds, env, args.seed)
        else:
            res = run_e2e(wl, args.seconds, env)
        missing = set(units) - set(res["metrics"])
        if missing:
            raise RuntimeError(f"metrics not measured: {sorted(missing)}")
        results[name] = res
        print(f"== {name} (seed {args.seed}, trace {args.trace})", file=sys.stderr)
        for key, (value, unit) in res["report"].items():
            print(f"  {key} = {value} {unit}", file=sys.stderr)
        for key in (k for k in units if k not in res["report"]):
            print(f"  {key} = {res['metrics'][key]!r} {units[key]}", file=sys.stderr)
        for msg in res["messages"][:20]:
            print(f"  FAILED {msg}", file=sys.stderr)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "environment": info, "results": results}, fh, indent=1)

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if args.workload == "all":  # every workload's figures under their report names
        metrics = {}
        for res in results.values():
            for key, (value, unit) in res["report"].items():
                metrics.setdefault(key, {"value": value, "unit": unit})
    else:
        (res,) = results.values()
        metrics = {k: {"value": res["metrics"][k], "unit": u} for k, u in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
