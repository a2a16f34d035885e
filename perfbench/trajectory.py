"""Record one trajectory point: every workload over ten seeds, plus a trace.

Run from the repository root, one benchmark process at a time:

    python3 perfbench/trajectory.py --label <commit>

For each workload it runs ``run.py --trace 0`` once per seed (1 to 10)
and keeps, per end-to-end metric, the median, the quartiles and their
distance as a share of the median (``statistics.quantiles(values, n=4)``).
It then makes one ``--trace 1`` run per workload for the per-layer
figures, and writes everything with the environment to
``perfbench/trajectory/<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900
SEEDS = list(range(1, 11))


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(result line, full result file) of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=True,
    )
    line = json.loads(proc.stdout.splitlines()[-1])
    path = ROOT / ".bench_out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    return line, json.loads(path.read_text(encoding="utf-8"))


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="file name of the point, e.g. the commit")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    point = {"label": args.label, "run_seconds": seconds, "seeds": SEEDS, "workloads": {}}
    for name in names:
        metrics, report, failed = {}, {}, 0
        for seed in SEEDS:
            line, full = bench(name, seed, seconds, 0)
            failed += line["failed"]
            for key, value in line["metrics"].items():
                metrics.setdefault(key, []).append(value["value"])
            for key, (value, _unit) in full["results"][name]["report"].items():
                report.setdefault(key, []).append(value)
            point["environment"] = full["environment"]
        line, full = bench(name, SEEDS[0], seconds, 1)
        point["workloads"][name] = {
            "failed": failed + line["failed"],
            "end_to_end": {k: summary(v) for k, v in metrics.items()},
            "report_medians": {
                k: statistics.median(v) for k, v in report.items() if None not in v
            },
            "per_layer": {k: v["value"] for k, v in line["metrics"].items()},
            "counts_repeat": full["results"][name]["counts_repeat"],
        }
        for key, s in point["workloads"][name]["end_to_end"].items():
            print(f"{name} {key}: median {s['median']:.4f} spread {s['spread']:.4f}")
    out = HERE / "trajectory" / f"{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(point, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
