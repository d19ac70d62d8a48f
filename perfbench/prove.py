"""Steadiness check: run each workload on several seeds and report spreads.

    python3 perfbench/prove.py --runs 10 --first-seed 1 [--out FILE]

For every end-to-end metric of every workload this prints the median
over the runs, the quartile spread (q3 - q1) as a share of the median,
and the metric's bound from BENCHMARK.json. A benchmark is steady, and
the exit code 0, when every spread stays below a third of its bound.
``--out`` writes the raw values, the summary, and the per-layer metrics
of one traced run per workload as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=400,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    if done.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: run failed\n{done.stdout}{done.stderr}")
    return result


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in SPEC["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    values = {w: {m["name"]: [] for m in SPEC["end_to_end"]} for w in workloads}
    for seed in seeds:  # seed-major, so slow drifts of the machine hit every workload
        for workload in workloads:
            for name, entry in run(workload, seed, 0)["metrics"].items():
                values[workload][name].append(entry["value"])
    summary = {}
    steady = True
    print(f"{'workload':<24} {'metric':<18} {'median':>12} {'spread':>8} {'bound':>6}")
    for workload in workloads:
        summary[workload] = {}
        for metric in SPEC["end_to_end"]:
            stats = summarize(values[workload][metric["name"]])
            summary[workload][metric["name"]] = stats
            ok = stats["spread"] < metric["bound"] / 3
            steady = steady and ok
            print(f"{workload:<24} {metric['name']:<18} {stats['median']:>12.5g} "
                  f"{stats['spread']:>8.4f} {metric['bound']:>6} {'' if ok else 'WIDE'}")
            print("    " + " ".join(f"{v:.4g}" for v in values[workload][metric["name"]]))
    if args.out:
        import numpy

        per_layer = {w: {name: entry["value"] for name, entry in
                         run(w, seeds[0], 1)["metrics"].items()} for w in workloads}
        args.out.write_text(json.dumps({
            "environment": {"python": platform.python_version(), "numpy": numpy.__version__,
                            "cpus": os.cpu_count(), "machine": platform.machine(),
                            "run_seconds": SPEC["run_seconds"]},
            "seeds": seeds,
            "summary": summary,
            "values": values,
            "per_layer_seed": seeds[0],
            "per_layer": per_layer,
        }, indent=2) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
