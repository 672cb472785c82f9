"""Closed-loop benchmark of gradss through its public API.

    python3 perfbench/run.py --workload {thhku,oracle,charts} --seed N \
        --seconds S --trace {0,1}

One process, one client, no threads.  With --trace 0 the run makes ops until
their summed wall time reaches S seconds, checks every output, and reports
the end-to-end metrics.  With --trace 1 it wraps the library's layer entry
points (see layers.py), makes a fixed number of ops (about S seconds'
worth, fixed so that count metrics repeat exactly), and reports per-layer
self times and counts per op; the spans go to .bench_work/traces/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Run from the root of a gradss checkout: the
library is imported from src/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SETUP_PROBES = 7

END_TO_END = {
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["thhku", "oracle", "charts"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # internal: stop before the first op; the parent times this process
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_library():
    """Put src/ on the path; the benchmark needs a full gradss checkout."""
    if not (REPO / "src" / "gradss" / "__init__.py").is_file():
        raise SystemExit(f"error: no gradss sources under {REPO / 'src'}")
    sys.path.insert(0, str(REPO / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    return workloads


def measure_setup(args) -> float:
    """Median wall time of fresh processes that stop just before the first op."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        # no timeout: with one, subprocess polls the child every 50 ms
        subprocess.run(argv, cwd=REPO, check=True)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def run_ops(workload, inputs, *, seconds=None, n_ops=None, tracer=None) -> dict:
    """Closed loop over inputs; stops after n_ops, or once ops took `seconds`.

    Outputs are kept and checked afterwards, so that neither the time nor
    the memory of the checks lands on the ops.
    """
    op_s, outputs = [], []
    busy = 0.0
    i = 0
    while (i < n_ops) if n_ops is not None else (busy < seconds):
        card = inputs[i % len(inputs)]
        t0 = time.perf_counter()
        try:
            result = tracer.run_op(i, workload.op, card) if tracer else workload.op(card)
            outputs.append((i, card, result, None))
        except Exception:
            outputs.append((i, card, None, traceback.format_exc()))
        dt = time.perf_counter() - t0
        op_s.append(dt)
        busy += dt
        i += 1
    return {"op_s": op_s, "busy_s": busy, "outputs": outputs, "peak_rss_mb": peak_rss_mb()}


def peak_rss_mb() -> float:
    """High-water RSS of this process image.

    getrusage's ru_maxrss also keeps the peak of the image the process
    replaced at exec, which is the launcher's size when it is larger.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def check_all(workload, loop: dict) -> list:
    """(op index, input, problem) for every op that raised or failed its check."""
    failures = []
    for i, card, result, problem in loop.pop("outputs"):
        if problem is None:
            try:
                problem = workload.check(card, result)
            except Exception:
                problem = traceback.format_exc()
        if problem is not None:
            failures.append((i, card, problem))
    return failures


def end_to_end(loop: dict, setup_s: float) -> dict:
    op_s = loop["op_s"]
    return {
        "ops_per_s": len(op_s) / loop["busy_s"],
        "op_s_p50": statistics.median(op_s),
        "setup_s": setup_s,
        "peak_rss_mb": loop["peak_rss_mb"],
    }


def traced(workload, inputs, args):
    import layers
    import spans

    tracer = spans.Tracer()
    layers.install(tracer)
    try:
        loop = run_ops(workload, inputs, n_ops=len(inputs), tracer=tracer)
    finally:
        tracer.uninstall()
    loop["failures"] = check_all(workload, loop)
    summary = spans.summarize(tracer)
    out_dir = REPO / ".bench_work" / "traces"
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer.write(out_dir / f"{args.workload}-seed{args.seed}.npz")
    # self times nest inside their op, so per op they add up to at most its duration
    nested = summary["min_self_s"] > -1e-6 and all(
        s <= d + 1e-6 for s, d in zip(summary["op_self_sum_s"], summary["op_s"])
    )
    if not nested:
        print("error: span self times do not nest inside their ops", file=sys.stderr)
    return loop, layers.layer_metrics(summary, tracer.op_counters, len(inputs)), nested


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_library()
    workload = workloads.WORKLOADS[args.workload]()
    if args.trace:
        count = max(1, round(args.seconds * workload.trace_ops_per_s))
    else:
        count = math.ceil(args.seconds * workload.max_ops_per_s) + 1
    workdir = REPO / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = workload.inputs(args.seed, count, workdir)
        if args.setup_only:
            return 0
        if args.trace:
            import layers

            units = layers.PER_LAYER
            loop, metrics, consistent = traced(workload, inputs, args)
        else:
            setup_s = measure_setup(args)
            loop = run_ops(workload, inputs, seconds=args.seconds)
            loop["failures"] = check_all(workload, loop)
            metrics, units, consistent = end_to_end(loop, setup_s), END_TO_END, True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = len(loop["op_s"]), len(loop["failures"])
    for i, card, problem in loop["failures"][:5]:
        print(f"op {i} failed on {card!r}:\n{problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} ops in {loop['busy_s']:.3f} s, 1 client, 0 threads")
    print(f"fail_frac {failed}/{attempted} = {failed / attempted:.4f} (ratio)")
    if len(loop["op_s"]) > 1:
        # shown, not gated: only charts holds the 100 ops that leave ten beyond it
        p90 = statistics.quantiles(loop["op_s"], n=10)[-1]
        beyond = sum(t > p90 for t in loop["op_s"])
        print(f"op_s_p90 {p90:.6g} (s) from {attempted} samples, {beyond} beyond it")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} ({units[name]})")
    print(json.dumps({
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
