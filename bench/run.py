"""Benchmark of `divmax solve`: end-to-end metrics or, traced, per-layer ones.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep-mid --seed 1 --seconds 30 --trace 0
    python3 bench/run.py                      # every workload, one after another

Each workload runs in its own process (worker.py).  `setup_s` is the median
over SETUP_RUNS processes of the time from process start to the first timed
solve; all other metrics come from the last of them.  The last line of
standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics`.  With --workload all the metric names carry a `<workload>/`
prefix.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_RUNS = 3
UNITS = {
    # end-to-end, from an untraced run
    "batch_s": "s", "solve_s_gmean": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "value_ratio_gmean": "ratio",
    # per layer, from a traced run
    "io.materialize_s": "s", "io.alloc_peak_mb": "MB",
    "geometry.certify_s": "s", "geometry.alloc_peak_mb": "MB", "geometry.schoenberg_calls": "count",
    "relaxation.relax_s": "s", "relaxation.slices": "count", "relaxation.fw_iterations": "count",
    "relaxation.best_slice_iter_frac": "ratio", "relaxation.s_per_iter": "s",
    "matroids.lmo_calls": "count", "matroids.lmo_s": "s", "matroids.slack_calls": "count",
    "matroids.slack_s": "s", "matroids.rank_calls": "count",
    "rounding.round_s": "s", "rounding.steps": "count",
    "baselines.local_search_s": "s", "baselines.local_search_swaps": "count",
    "baselines.exact_s": "s", "cli.self_s": "s",
}
# A process that takes longer than this is stopped and the run fails.
WORKER_TIMEOUT_S = 170


def worker(args, workload: str, workdir: str, *, setup_only: bool = False, trace_out=None) -> dict:
    """Run worker.py once and return the JSON object it printed last."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workdir", workdir,
    ]
    if setup_only:
        cmd.append("--setup-only")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.perf_counter()
    proc = subprocess.run(cmd + ["--started", repr(started)], env=env, stdout=subprocess.PIPE,
                          text=True, timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload}: worker exited with {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def run_workload(args, workload: str) -> dict:
    workdir = os.path.join(HERE, ".work", f"{workload}-{os.getpid()}")
    trace_out = None
    if args.trace:
        os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
        trace_out = os.path.join(HERE, "results", f"trace-{workload}-seed{args.seed}.json")
    setups = [worker(args, workload, workdir, setup_only=True)["setup_s"]
              for _ in range(0 if args.trace else SETUP_RUNS - 1)]
    result = worker(args, workload, workdir, trace_out=trace_out)
    passes = result.pop("passes")
    if not args.trace:
        setups.append(result["metrics"]["setup_s"])
        result["metrics"]["setup_s"] = statistics.median(setups)
    result["metrics"] = {
        name: {"value": value, "unit": UNITS[name]} for name, value in result["metrics"].items()
    }
    print(f"{workload}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}, {passes} passes")
    for name, metric in result["metrics"].items():
        print(f"  {workload}/{name} = {metric['value']:.6g} {metric['unit']}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(args, name) for name in names}
    if len(names) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
