"""Run every workload over several seeds and report how steady it is.

    python3 perfbench/steadiness.py --runs 10 --out perfbench/results/x.json

For each workload in BENCHMARK.json the benchmark runs `--runs` times
untraced, with seeds first-seed, first-seed+1, ...  For each end-to-end
metric it records the values, their median, and the spread: the distance
between the first and third quartile (`statistics.quantiles(values,
n=4)`) as a share of the median.  A metric whose spread exceeds a tenth,
or a third of its bound in BENCHMARK.json, is flagged.  Then it makes the
one traced run (it covers every workload) with the first seed and stores
each workload's per-layer metrics under that workload.  Both tables are
printed as markdown.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    """The last line of one run.py run, plus its wall time as run_s."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["run_s"] = time.perf_counter() - start
    return result


def spread(values):
    """Interquartile range over the median; 0 for fewer than 4 values."""
    if len(values) < 4:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarize(runs, bounds):
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        s = spread(values)
        bound = bounds.get(name)
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "values": values,
            "median": statistics.median(values),
            "spread": s,
            "bound": bound,
            "flag": s > 0.1 or (bound is not None and s > bound / 3),
        }
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    report = {"run_seconds": seconds, "workloads": {}}
    for workload in names:
        runs = [run_once(workload, s, seconds, 0) for s in seeds]
        report["workloads"][workload] = {
            "seeds": seeds,
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "run_s": [r["run_s"] for r in runs],
            "metrics": summarize(runs, bounds),
        }
        print(f"{workload}: done", file=sys.stderr)

    traced = run_once(names[0], args.first_seed, seconds, 1)
    detail = json.loads(
        (HERE / ".work" / f"result-{names[0]}-seed{args.first_seed}"
         "-trace1.json").read_text())["detail"]["workloads"]
    report["trace"] = {
        "seed": args.first_seed, "run_s": traced["run_s"],
        "correct": traced["correct"],
        "metrics": {k: v["value"] for k, v in traced["metrics"].items()}}
    for workload in names:
        seg = detail[workload]
        report["workloads"][workload]["trace"] = dict(
            seg["layers"], wall_s=seg["wall_s"],
            self_sum_s=seg["self_sum_s"],
            overhead_frac=seg["overhead_frac"])

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print_tables(report)


def print_tables(report):
    print("| workload | metric | median | spread (IQR/median) | bound "
          "| flag |")
    print("|---|---|---|---|---|---|")
    for workload, entry in report["workloads"].items():
        for name, m in entry["metrics"].items():
            print(f"| {workload} | {name} | {m['median']:.4g} {m['unit']} "
                  f"| {m['spread']:.3f} | {m['bound']} "
                  f"| {'FLAG' if m['flag'] else ''} |")
    traced = {w: e["trace"] for w, e in report["workloads"].items()}
    print()
    print("| per-layer metric | " + " | ".join(traced) + " |")
    print("|---|" + "---|" * len(traced))
    for key in next(iter(traced.values())):
        cells = " | ".join(f"{t[key]:.4g}" for t in traced.values())
        print(f"| {key} | {cells} |")


if __name__ == "__main__":
    main()
