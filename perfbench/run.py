"""santrauka benchmark: one seeded workload per run, or all of them.

    python3 perfbench/run.py --workload pipeline-acceptance --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the workload is timed with tracing off and the result
carries the end-to-end metrics named in ``BENCHMARK.json``, its times
scaled to the reference host speed of ``speed.py``; with
``--trace 1`` a separate traced replay gives the per-layer metrics and
the spans are written under ``.bench_build/perfbench/traces/``.

Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from speed import REFERENCE_S

# one client, no helper threads: keep numpy's BLAS pool to one thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".bench_build" / "perfbench"
WORKLOAD_NAMES = ("pipeline-acceptance", "decode-summary-prefix", "evaluate-long")
#: Fresh processes timed per run for setup_s, half before and half after
#: the timed loop, so they meet more of the host's speed phases; the
#: median is reported.
SETUP_REPEATS = 20
SUBPROCESS_TIMEOUT_S = 170


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def in_child(code: str, timeout: float) -> str:
    """Run ``code`` in a fresh interpreter that sees ``src/`` and this
    directory; return its standard output."""
    program = f"import sys\nsys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]\n{code}"
    done = subprocess.run([sys.executable, "-I", "-c", program], capture_output=True,
                          text=True, timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"child process failed:\n{done.stderr}")
    return done.stdout


def prepare_inputs(workload: str, workdir: Path, seed: int) -> None:
    """Make the workload's inputs in a child process, so the memory that
    takes stays out of this process's peak_rss_mb."""
    in_child(f"from pathlib import Path\nimport workloads\n"
             f"workloads.WORKLOADS[{workload!r}].prepare(Path({str(workdir)!r}), {seed})",
             SUBPROCESS_TIMEOUT_S)


def measure_setup(code: str, count: int) -> list[tuple[float, float]]:
    """Times, inside ``count`` fresh interpreters, to import and get
    ready: (wall clock, at reference host speed) each.

    Each interpreter runs the speed reference before the import and
    after the work, so its own host speed scales its own sample.
    """
    program = "\n".join([
        "import time",
        "from speed import reference_seconds",
        "before = reference_seconds()",
        "started = time.perf_counter()",
        code,
        "elapsed = time.perf_counter() - started",
        "print(elapsed, before, reference_seconds())",
    ])
    samples = []
    for _ in range(count):
        elapsed, before, after = map(float, in_child(program, 60).split()[-3:])
        samples.append((elapsed, elapsed * REFERENCE_S / ((before + after) / 2)))
    return samples


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def show(name: str, value, unit: str, note: str = "") -> None:
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {name:<32} {text:>14} {unit:<6} {note}".rstrip())


def run_one(args: argparse.Namespace, spec: dict) -> int:
    sys.path.insert(0, str(SRC))
    from checks import Checks
    from workloads import WORKLOADS

    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={seconds} trace={args.trace}")
    checks = Checks()
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        prepare_inputs(args.workload, workdir, args.seed)
        workload = WORKLOADS[args.workload](workdir)
        if args.trace:
            outcome = workload.traced(checks)
            wanted = spec["per_layer"]
            values = outcome.tracer.layer_metrics(outcome.traced_s, outcome.untraced_s)
            traces = WORK / "traces"
            traces.mkdir(exist_ok=True)
            outcome.tracer.write(traces / f"{args.workload}-seed{args.seed}.jsonl")
        else:
            setup = measure_setup(workload.setup_code, SETUP_REPEATS // 2)
            outcome = workload.timed(seconds, checks)
            setup += measure_setup(workload.setup_code, SETUP_REPEATS - len(setup))
            setup_wall_s = statistics.median(wall for wall, _ in setup)
            setup_s = statistics.median(scaled for _, scaled in setup)
            wanted = spec["end_to_end"]
            values = {
                "setup_s": setup_s,
                "scaled_ops_per_s": outcome.shown["scaled_ops_per_s"][0],
                "peak_rss_mb": peak_rss_mb(),
            }
            shown = {"setup_s": (setup_s, "s", f"median of {SETUP_REPEATS} fresh processes, "
                                               "at reference host speed"),
                     "setup_wall_s": (setup_wall_s, "s", "the same, wall clock"),
                     **outcome.shown,
                     "peak_rss_mb": (values["peak_rss_mb"], "MB", "this process"),
                     "failed_share": (outcome.failed / outcome.attempted, "share",
                                      f"{outcome.failed}/{outcome.attempted} ops")}
            for name, (value, unit, note) in shown.items():
                show(name, value, unit, note)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # the workloads are chosen so that no operation fails
    checks.expect(outcome.failed == 0, f"{outcome.failed} of {outcome.attempted} operations failed")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    if args.trace:
        for name, entry in metrics.items():
            show(name, entry["value"], entry["unit"])
    print(f"  outputs_sha256 {outcome.digest}")
    for problem in checks.problems:
        print(f"  CHECK FAILED: {problem}")
    if checks.count > len(checks.problems):
        print(f"  ... {checks.count - len(checks.problems)} more failed checks")
    print(json.dumps({"correct": checks.ok, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if checks.ok else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--trace", str(args.trace)]
        if args.seconds is not None:
            argv += ["--seconds", str(args.seconds)]
        done = subprocess.run(argv, capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT_S)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(done.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {done.returncode})")
            return 1
        correct = correct and result["correct"] and done.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "santrauka" / "__init__.py").is_file():
        print(f"perfbench: no santrauka sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    if args.workload == "all":
        return run_all(args)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
