"""Checks of the benchmark itself.

    python3 perfbench/selftest.py

1. A deliberately wrong expectation (the Tor closed form) is counted as a
   failed op, and only the ops it concerns fail.
2. Two traced runs at the same seed, under different string-hash seeds,
   give identical count metrics on every workload.
3. BENCHMARK.json names exactly the workloads and metrics the code reports.
4. In a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits non-zero without printing a result.

Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
COUNT_SUFFIXES = (".calls", ".cells", ".misses", ".monomials", ".useful_ratio")
# --seconds per workload for the traced repeat: five thhku ops, a few dozen others
TRACE_SECONDS = {"thhku": 10, "oracle": 5, "charts": 2}


def run_bench(args, cwd=REPO, env=None):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=180)


def result_of(proc) -> dict:
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def import_benchmark():
    """Make the library and the benchmark's modules importable here."""
    for path in (str(HERE), str(REPO / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


def wrong_expectation_is_counted() -> str | None:
    import_benchmark()
    import run
    import workloads

    charts = workloads.Charts()
    workdir = REPO / ".bench_work" / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = charts.inputs(0, 48, workdir)
        right = charts.expected_tor
        charts.expected_tor = lambda *meta: {**right(*meta), (9, 9): 1}
        loop = run.run_ops(charts, inputs, n_ops=len(inputs))
        failures = run.check_all(charts, loop)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tor_ops = {i for i, (kind, _, _) in enumerate(inputs) if kind == "tor"}
    failed = {i for i, _, _ in failures}
    if not tor_ops or failed != tor_ops:
        return f"wrong Tor expectation: failed ops {sorted(failed)}, Tor ops {sorted(tor_ops)}"
    return None


def counts_repeat() -> str | None:
    problems = []
    for workload, seconds in TRACE_SECONDS.items():
        counts = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            args = ["--workload", workload, "--seed", "3", "--seconds", str(seconds), "--trace", "1"]
            metrics = result_of(run_bench(args, env=env))["metrics"]
            counts.append({k: v["value"] for k, v in metrics.items() if k.endswith(COUNT_SUFFIXES)})
        if counts[0] != counts[1]:
            diff = {k: (counts[0][k], counts[1][k]) for k in counts[0] if counts[0][k] != counts[1].get(k)}
            problems.append(f"{workload}: counts differ between traced runs: {diff}")
    return "; ".join(problems) or None


def manifest_matches() -> str | None:
    import_benchmark()
    import layers
    import run
    import workloads

    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    declared = {
        "workloads": [w["name"] for w in spec["workloads"]],
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    reported = {
        "workloads": list(workloads.WORKLOADS),
        "end_to_end": run.END_TO_END,
        "per_layer": layers.PER_LAYER,
    }
    bad = [key for key in declared if declared[key] != reported[key]]
    return f"BENCHMARK.json disagrees with the code on {bad}" if bad else None


def refuses_without_sources() -> str | None:
    bare = REPO / ".bench_work" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(REPO / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run_bench(["--workload", "charts", "--seed", "1", "--seconds", "1"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}"
    return None


def main() -> int:
    failed = False
    for check in (wrong_expectation_is_counted, manifest_matches, refuses_without_sources, counts_repeat):
        problem = check()
        print(f"{check.__name__}: {'ok' if problem is None else 'FAIL: ' + problem}", flush=True)
        failed |= problem is not None
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
