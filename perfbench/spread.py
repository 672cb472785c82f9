"""Repeat the benchmark, measure its spread, and write the baseline.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1]
                                [--workloads thhku oracle charts] [--out FILE]

For each workload: --runs untraced runs, one seed each, and for every
end-to-end metric its median, quartiles (statistics.quantiles, n=4) and
spread = (q3 - q1) / median, next to the metric's bound in BENCHMARK.json.
Then --pairs adjacent untraced/traced pairs at the first seed: the median
tracing overhead (traced over untraced op_s_p50, minus 1), whether the
traced counts repeat, the per-layer metrics and layer self-time shares (from
the written spans) of the last traced run, and the predictions the
benchmark was built to test.  Runs one process at a time.
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

import numpy as np

import spans

HERE = Path(__file__).resolve().parent
REPO = HERE.parent


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect result\n{proc.stdout}{proc.stderr}")
    return result, proc.stdout


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def span_shares(path: Path) -> dict:
    """Self-time share per layer and inclusive share per span name, over all ops."""
    data = np.load(path)
    names = [str(n) for n in data["names"]]
    dur, self_time = spans.self_times(data)
    name_ids, in_op = data["name"], data["op"] >= 0
    root = names.index("op")
    op_total = dur[in_op & (name_ids == root)].sum()
    layers: dict = {}
    inclusive = {}
    for nid, name in enumerate(names):
        sel = in_op & (name_ids == nid)
        layer = "benchmark" if nid == root else name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + self_time[sel].sum() / op_total
        if nid != root:
            inclusive[name] = float(dur[sel].sum() / op_total)
    return {"op_s_total": float(op_total), "layer_self_share": layers,
            "inclusive_share": {k: v for k, v in sorted(inclusive.items()) if v >= 0.001}}


def environment() -> dict:
    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "cpu_model": cpu}


def predictions(report: dict) -> list:
    thh = report["workloads"].get("thhku", {}).get("traced")
    ora = report["workloads"].get("oracle", {}).get("traced")
    out = []
    if thh:
        m, op = thh["per_layer"], thh["per_layer"]["trace.op_s_p50"]
        share = m["dga.verify_presentation_iso.self_s"] / op
        incl = thh["spans"]["inclusive_share"]["dga.verify_presentation_iso"]
        out += [
            {"claim": "dga.verify_presentation_iso.self_s >= 90% of thhku op time",
             "measured": f"self {share:.3f} of op time (inclusive {incl:.3f})", "holds": share >= 0.9},
            {"claim": "linfp.rowspan_add.useful_ratio about 0.16 on thhku",
             "measured": f"{m['linfp.rowspan_add.useful_ratio']:.4f}",
             "holds": abs(m["linfp.rowspan_add.useful_ratio"] - 0.16) < 0.02},
            {"claim": "thhku.step1_tor.calls = 3 and thhku.step2_v0.calls = 2 per op",
             "measured": f"{m['thhku.step1_tor.calls']:g} and {m['thhku.step2_v0.calls']:g}",
             "holds": m["thhku.step1_tor.calls"] == 3 and m["thhku.step2_v0.calls"] == 2},
        ]
    if ora:
        m = ora["per_layer"]
        share = m["filtered.exact_couple_run.self_s"] / m["trace.op_s_p50"]
        incl = ora["spans"]["inclusive_share"]["filtered.exact_couple_run"]
        out.append({"claim": "filtered.exact_couple_run.self_s >= 90% of oracle op time",
                    "measured": f"self {share:.3f} of op time (inclusive {incl:.3f})",
                    "holds": share >= 0.9})
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=3, help="untraced/traced pairs per workload")
    parser.add_argument("--workloads", nargs="+", default=["thhku", "oracle", "charts"])
    parser.add_argument("--out", default=str(REPO / ".bench_work" / "spread.json"))
    args = parser.parse_args()
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    report = {"environment": environment(), "run_seconds": seconds, "clients": 1, "threads": 0,
              "workloads": {}}
    for workload in args.workloads:
        runs = [bench(workload, seed, seconds, 0)[0] for seed in seeds]
        e2e = {}
        for name, bound in bounds.items():
            stats = quartiles([r["metrics"][name]["value"] for r in runs])
            e2e[name] = {**stats, "bound": bound, "within_third_of_bound": stats["spread"] < bound / 3}
            print(f"{workload} {name}: median {stats['median']:.5g} spread {stats['spread']:.3f} "
                  f"(bound {bound})", flush=True)
        # overhead from adjacent untraced/traced pairs at one seed, order
        # alternating, so that drift in machine speed cancels within a pair
        pairs, layer_runs = [], []
        for k in range(args.pairs):
            order = (0, 1) if k % 2 == 0 else (1, 0)
            got = {trace: bench(workload, seeds[0], seconds, trace)[0] for trace in order}
            plain = got[0]["metrics"]["op_s_p50"]["value"]
            traced = got[1]["metrics"]["trace.op_s_p50"]["value"]
            pairs.append({"untraced_op_s_p50": plain, "traced_op_s_p50": traced,
                          "overhead_share": traced / plain - 1})
            layer_runs.append(got[1])
        per_layer = {k: v["value"] for k, v in layer_runs[-1]["metrics"].items()}
        counts = [{k: v for k, v in (r["metrics"].items()) if not k.endswith(("self_s", "op_s_p50"))}
                  for r in layer_runs]
        report["workloads"][workload] = {
            "why": why[workload],
            "seeds": seeds,
            "ops_per_run": [r["attempted"] for r in runs],
            "end_to_end": e2e,
            "traced": {"seed": seeds[0], "ops": layer_runs[-1]["attempted"], "per_layer": per_layer,
                       "counts_repeat": all(c == counts[0] for c in counts),
                       "spans": span_shares(REPO / ".bench_work" / "traces" / f"{workload}-seed{seeds[0]}.npz")},
            "tracing_overhead": {
                "overhead_share": statistics.median(p["overhead_share"] for p in pairs),
                "base": "untraced op_s_p50 of the adjacent run at the same seed",
                "pairs": pairs,
            },
        }
        print(f"{workload} tracing overhead: {report['workloads'][workload]['tracing_overhead']['overhead_share']:.3f}"
              f" of untraced op_s_p50", flush=True)
    report["predictions"] = predictions(report)
    for p in report["predictions"]:
        print(f"{'holds' if p['holds'] else 'refuted'}: {p['claim']} -- {p['measured']}")
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
