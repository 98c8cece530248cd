"""Compare two sets of benchmark results metric by metric.

    python3 perfbench/compare.py BASE.json NEW.json

Each file is either a steadiness report (perfbench/steadiness.py, many
seeds per workload) or one run's result file (perfbench/.work/result-*.json).
For every workload and end-to-end metric in both, it prints the two
medians, the change as a share of the base median (positive = worse, by
the metric's direction in BENCHMARK.json), the base's quartile spread,
the share of common seeds on which NEW beat BASE, and a verdict:

  worse      the median is worse by more than the metric's bound
  better     NEW won at least 9 in 10 common seeds and the medians differ
             by more than the base's spread
  unresolved the base's spread is wider than the bound
  same       otherwise

Exits with 1 if any metric is worse.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import steadiness

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    """{workload: {metric: {seed: value}}} from either kind of file."""
    data = json.loads(Path(path).read_text())
    if "workloads" in data:
        return {w: {m: dict(zip(e["seeds"], v["values"]))
                    for m, v in e["metrics"].items()}
                for w, e in data["workloads"].items()}
    return {data["workload"]: {m: {data["seed"]: v["value"]}
                               for m, v in data["metrics"].items()}}


def main(argv):
    if len(argv) != 2:
        raise SystemExit(__doc__)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    base, new = load(argv[0]), load(argv[1])
    worse = False
    print(f"{'workload':11s} {'metric':14s} {'base':>12s} {'new':>12s} "
          f"{'change':>8s} {'spread':>7s} {'bound':>6s} {'wins':>6s}  verdict")
    for workload in sorted(set(base) & set(new)):
        for name, m in metrics.items():
            if name not in base[workload] or name not in new[workload]:
                continue
            b, n = base[workload][name], new[workload][name]
            mb = statistics.median(b.values())
            mn = statistics.median(n.values())
            sign = 1.0 if m["better"] == "lower" else -1.0
            change = sign * (mn - mb) / mb
            spread = steadiness.spread(list(b.values()))
            common = sorted(set(b) & set(n))
            wins = sum(sign * (n[s] - b[s]) < 0 for s in common)
            if change > m["bound"]:
                verdict = "worse"
                worse = True
            elif (common and wins >= 0.9 * len(common)
                  and -change > spread):
                verdict = "better"
            elif spread > m["bound"]:
                verdict = "unresolved"
            else:
                verdict = "same"
            print(f"{workload:11s} {name:14s} {mb:12.5g} {mn:12.5g} "
                  f"{change:+8.3f} {spread:7.3f} {m['bound']:6.2f} "
                  f"{wins:>2d}/{len(common):<3d}  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
