"""One workload of the benchmark, run in its own single-threaded process.

Started by run.py from the root of a checkout.  It pins BLAS and the
program to one thread before numpy loads, imports `divmax` from ./src,
writes the workload's instance documents, solves a warm-up instance, then
runs whole passes of `divmax solve` over the instances until the measuring
time is spent.  Every report is checked by checks.py.  The last line of
standard output is one JSON object with the run's counts and metrics.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "DIVMAX_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import workloads  # noqa: E402


def import_program():
    """Import divmax from ./src of the current directory, or exit non-zero."""
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    try:
        import divmax.cli  # noqa: F401
    except ImportError as exc:
        sys.exit(f"cannot import divmax from {src}: {exc}")
    if not os.path.abspath(sys.modules["divmax"].__file__).startswith(src + os.sep):
        sys.exit(f"divmax was imported from {sys.modules['divmax'].__file__}, not from {src}")
    return {name: mod for name, mod in sys.modules.items()
            if name == "divmax" or name.startswith("divmax.")}


def solve(cli, doc_path: str, report_path: str):
    """One `divmax solve`: (exit code or None, seconds, stderr text)."""
    if os.path.exists(report_path):
        os.remove(report_path)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(["solve", doc_path, "--out", report_path])
        except (Exception, SystemExit) as exc:  # a crash is a failed operation
            code = None
            err.write(f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
    return code, elapsed, err.getvalue().strip()


def gmean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--started", type=float, required=True,
                        help="time.perf_counter() of the parent when it started this process")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    modules = import_program()
    cli = modules["divmax.cli"]
    os.makedirs(args.workdir, exist_ok=True)
    try:
        return run(args, cli, modules)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)


def run(args, cli, modules) -> int:
    instances = workloads.WORKLOADS[args.workload](args.seed)
    paths = {}
    for inst in instances:
        paths[inst.name] = os.path.join(args.workdir, f"{inst.name}.json")
        with open(paths[inst.name], "w", encoding="utf-8") as fh:
            json.dump(inst.doc, fh)
    report_path = os.path.join(args.workdir, "report.json")
    warmup_path = os.path.join(args.workdir, "warmup.json")
    with open(warmup_path, "w", encoding="utf-8") as fh:
        json.dump(workloads.WARMUP, fh)
    code, _, err = solve(cli, warmup_path, report_path)
    if code != 0:
        sys.exit(f"warm-up solve failed with exit {code}: {err}")
    first = time.perf_counter()
    setup_s = first - args.started
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import checks  # after the set-up clock stops: it is not part of the program

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install(modules)

    oracles = {inst.name: checks.Oracle(inst.doc["matroid"], inst.doc["n"]) for inst in instances}
    opts = {inst.name: inst.opt for inst in instances}
    steady = [inst for inst in instances if inst.steady]
    times = {inst.name: [] for inst in steady}
    ratios = {}
    batches, layer_passes = [], []
    attempted = failed = wrong = 0
    reported = set()
    while True:
        batch = 0.0
        if tracer:
            pass_stats = tracer.stats = tracing.new_stats()
        for inst in instances:
            if tracer:
                tracer.solve_id = f"{len(batches)}:{inst.name}"
                tracer.stats = pass_stats if inst.steady else tracing.new_stats()
            code, elapsed, err = solve(cli, paths[inst.name], report_path)
            attempted += 1
            if code == 0:
                with open(report_path, encoding="utf-8") as fh:
                    report = json.load(fh)
                if inst.exact and opts[inst.name] is None:
                    opts[inst.name] = checks.exact_opt(inst.doc)
                try:
                    problems = checks.check_report(inst.doc, report, opts[inst.name], oracles[inst.name])
                except (KeyError, TypeError, ValueError) as exc:  # a field is missing or malformed
                    problems = [f"report cannot be checked: {type(exc).__name__}: {exc}"]
                wrong += bool(problems)
            else:
                problems = [f"exit {code}: {err}"]
            failed += bool(problems)
            if problems and inst.name not in reported:
                reported.add(inst.name)
                kind = "expected fault" if inst.fault else "FAILED"
                print(f"{args.workload}/{inst.name}: {kind}: {'; '.join(problems)}", file=sys.stderr)
            if inst.steady:
                times[inst.name].append(elapsed)
                batch += elapsed
                if code == 0 and not problems and inst.name not in ratios:
                    ratios[inst.name] = report["rounding"]["value"] / report["opt_upper_bound"]
        batches.append(batch)
        if tracer:
            layer_passes.append(tracer.metrics(pass_stats, batch - tracing.layer_s(pass_stats)))
        if time.perf_counter() - first >= args.seconds:
            break

    for inst in steady:
        print(f"  {args.workload}/{inst.name}: median {statistics.median(times[inst.name]):.4f} s"
              f" over {len(times[inst.name])} passes", file=sys.stderr)
    if tracer:
        metrics = {name: statistics.median(p[name] for p in layer_passes) for name in layer_passes[0]}
        if args.trace_out:
            tracer.dump(args.trace_out, {"workload": args.workload, "seed": args.seed,
                                          "passes": len(batches)})
        print(f"{args.workload}: traced batch_s {statistics.median(batches):.4f} s")
    else:
        metrics = {
            "batch_s": statistics.median(batches),
            "solve_s_gmean": gmean(statistics.median(t) for t in times.values()),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "value_ratio_gmean": gmean(ratios.values()) if ratios else 0.0,
        }
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "passes": len(batches),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
