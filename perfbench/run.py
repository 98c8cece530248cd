"""Run one ncindex benchmark workload and print its metrics.

    python3 perfbench/run.py --workload characters --seed 1 --seconds 25 \
        --trace 0

Run from the root of a checkout; the package is imported from `src/`.
With `--trace 0` the workload runs untraced for `--seconds` seconds in
whole rounds and the end-to-end metrics are reported.  `--trace 1` makes
the one traced run, which covers every workload: each does one round
traced (see tracer.py), then times a slice of it in alternating untraced
and traced passes, and the per-layer metrics are reported, including the
tracing overhead of each workload.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The
full result, with the environment record, per-call latencies and (when
traced) the span records, is written to perfbench/.work/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread for every workload, fixed before numpy is imported;
# the set-up probes inherit it.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
# set-up probes before the timed part and after it, so that their median
# spans more of the machine's speed fluctuations
SETUP_PROBES = (8, 7)


def _fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cache_sizes():
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "cache": _cache_sizes(),
    }


# ---------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------


def setup_probes(workload, seed, count):
    """Times of `import ncindex` plus generating the workload's inputs,
    each in a fresh process (setup_probe.py times itself)."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload,
             str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            _fail(f"set-up probe failed:\n{proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return times


class Tally:
    """Latencies and check outcomes of the verifier calls of a run."""

    def __init__(self):
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def run(self, calls, ctx):
        for call in calls:
            start = time.perf_counter()
            try:
                outcomes = call.fn(ctx)
                error = None
            except Exception as exc:   # domain errors and crashes alike
                outcomes = []
                error = f"{type(exc).__name__}: {exc}"
            self.latencies.append(time.perf_counter() - start)
            bad = [o for o in outcomes if not o.passed]
            missing = max(0, call.checks - len(outcomes))
            self.attempted += len(outcomes) + missing
            self.failed += len(bad) + missing
            if error is not None:
                self.failures.append(f"{call.label}: {error}")
            for o in bad:
                self.failures.append(
                    f"{call.label}/{o.check}: value {o.value} vs oracle "
                    f"{o.oracle} beyond {o.tol}")


def _quantile(values, q):
    """Harrell-Davis estimate of the q-quantile: a mean of all order
    statistics with Beta(q(n+1), (1-q)(n+1)) weights.  A single order
    statistic reads whichever noisy call lands on its rank; this estimate
    averages the calls around it, so it moves far less from run to run."""
    import numpy as np

    xs = np.sort(np.asarray(values, dtype=float))
    n = len(xs)
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    steps = 20000
    t = (np.arange(steps) + 0.5) / steps
    log_pdf = (a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t)
    cdf = np.concatenate([[0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))])
    cdf /= cdf[-1]
    edges = np.interp(np.arange(n + 1) / n, np.linspace(0.0, 1.0, steps + 1),
                      cdf)
    return float(np.diff(edges) @ xs)


def timed_run(wl, rounds, seconds):
    """Whole rounds, each with its prelude, for about `seconds`: a run
    stops when one more round would overshoot by more than stopping
    undershoots.  Every round pays its prelude, so the rate of checks
    does not depend on how many rounds fit."""
    tally = Tally()
    start = time.perf_counter()
    done = 0
    while True:
        tally.run(rounds[done % len(rounds)], wl.prelude())
        done += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / done >= seconds:
            break
    lat_ms = [1e3 * t for t in tally.latencies]
    metrics = {"checks_per_s": (tally.attempted / elapsed, "1/s")}
    # Per-call latency quantiles are printed and kept in the result file
    # but are not end-to-end metrics: a run has 3 to 32 calls, so fewer
    # than 10 lie beyond the p90, and across seeds they spread past the
    # 0.25 bound in most 10-run sets on a 2-vCPU VM (perfbench/README.md).
    detail = {"rounds": done, "elapsed_s": elapsed, "calls": len(lat_ms),
              "call_ms.p50": _quantile(lat_ms, 0.5),
              "call_ms.p90": _quantile(lat_ms, 0.9),
              "latencies_ms": lat_ms}
    return tally, metrics, detail


LAYER_SPANS = (
    "group_algebra.GAMatrix.matmul",
    "nc_forms.MixedForm.matmul", "nc_forms.MixedForm.dtot",
    "nc_forms.MixedForm.graded_trace", "nc_forms.JetFunction.mul",
    "chern.chern_even", "chern.chern_odd", "chern.closedness_defect",
    "chern.bott_integral",
    "cyclic.closed_cocycle_basis", "cyclic.chern_lambda",
    "cyclic.pair_cochain_form",
    "covering.CoverData.init", "covering.build_mf_projection",
    "covering.verify_prop_chern", "covering.omega_integral",
    "bumps.step",
    "toeplitz.assemble_toeplitz", "toeplitz.winding_index",
    "toeplitz.dynsys_formula",
    "specflow.verify_oddind", "specflow.spectral_flow",
    "specflow.relative_index", "specflow.SelfAdjointPath.from_callable",
    "linalg.svd", "linalg.eigh",
)
LAYER_COUNTS = (
    "group_algebra.GAMatrix.entry.calls",
    "nc_forms.MixedForm.add_term.calls",
    "nc_forms.MixedForm.matmul.terms_out",
    "cyclic.cochain_evals", "toeplitz.ill_conditioned",
    "specflow.path_samples", "linalg.svd.ops", "linalg.eigh.ops",
    "cli.error_rows",
)


def layer_metrics(stats, counts):
    """Per-layer metrics from span stats {name: (calls, self_s, wall_s)}
    and counts, by the names BENCHMARK.json lists."""
    out = {}
    for name in LAYER_SPANS:
        calls, self_s, _ = stats.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (self_s, "s")
    for name in LAYER_COUNTS:
        unit = "ops" if name.endswith(".ops") else "count"
        out[name] = (counts.get(name, 0), unit)
    matmuls = stats.get("nc_forms.MixedForm.matmul", (0,))[0]
    dropped = counts.get("nc_forms.MixedForm.matmul.dropped", 0)
    out["nc_forms.MixedForm.dropped_frac"] = (
        dropped / matmuls if matmuls else 0.0, "ratio")
    tau = {kind: stats.get(f"toeplitz.tau_index.{kind}", (0, 0.0, 0.0))
           for kind in ("circle", "rotation")}
    out["toeplitz.tau_index.calls"] = (
        sum(t[0] for t in tau.values()), "count")
    for kind, (_, self_s, _) in tau.items():
        out[f"toeplitz.tau_index.{kind}.self_s"] = (self_s, "s")
    _, run_self, run_wall = stats.get("cli.run", (0, 0.0, 0.0))
    exp_calls, _, exp_wall = stats.get("cli.run_experiment", (0, 0.0, 0.0))
    out["cli.run.self_s"] = (run_self, "s")
    out["cli.run_experiment.calls"] = (exp_calls, "count")
    out["cli.run_experiment.sum_s"] = (exp_wall, "s")
    out["cli.overlap"] = (exp_wall / run_wall if run_wall else 0.0, "ratio")
    out["testing.generate.self_s"] = (
        stats.get("testing.generate", (0, 0.0, 0.0))[1], "s")
    return out


def _merge(dicts):
    out = {}
    for d in dicts:
        for key, val in d.items():
            if isinstance(val, tuple):
                old = out.get(key, (0,) * len(val))
                out[key] = tuple(a + b for a, b in zip(old, val))
            else:
                out[key] = out.get(key, 0) + val
    return out


# the traced run does one set of characters calls (with the full prelude)
# to stay well inside the per-run time limit
TRACED_CALLS = {"characters": 8, "operators": None, "batch": None}
# the first calls of that round, a few seconds of each workload's usual
# calls, are timed again for the overhead in OVERHEAD_PAIRS pairs; a third
# pair would take the traced run to 130-150 s of its 180 s limit
OVERHEAD_CALLS = {"characters": 6, "operators": 8, "batch": 1}
OVERHEAD_PAIRS = 2


def traced_round(wl, tracer, calls=None):
    """Generate, prelude and the first round (or its first `calls` calls)
    under `tracer`; returns (tally, wall s, the calls, prelude context)."""
    tally = Tally()
    with tracer.installed():
        start = time.perf_counter()
        round_calls = wl.generate()[0][:calls]
        ctx = wl.prelude()
        tally.run(round_calls, ctx)
        wall = time.perf_counter() - start
    return tally, wall, round_calls, ctx


def tracing_overhead(calls, ctx):
    """Share by which tracing slows `calls`.  In each of OVERHEAD_PAIRS
    pairs of passes every call runs once untraced and once traced, the
    order alternating from call to call and from pair to pair, so that
    both modes see the same swings in the machine's speed.  Returns
    (tally, median share over the pairs, shares)."""
    from tracer import Tracer

    tally = Tally()
    shares = []
    for pair in range(OVERHEAD_PAIRS):
        walls = {False: 0.0, True: 0.0}
        for i, call in enumerate(calls):
            order = (False, True) if (i + pair) % 2 == 0 else (True, False)
            for traced in order:
                scope = (Tracer().installed() if traced
                         else contextlib.nullcontext())
                with scope:
                    start = time.perf_counter()
                    tally.run([call], ctx)
                    walls[traced] += time.perf_counter() - start
        shares.append(walls[True] / walls[False] - 1.0)
    return tally, statistics.median(shares), shares


def traced_run(seed):
    """The one traced run.  For every workload: warm up, trace one round,
    then time its first calls untraced and traced for the overhead.
    Per-layer metrics sum over the workloads; the per-workload split goes
    into the result file."""
    import workloads
    from tracer import Tracer

    tally = Tally()
    segments = {}
    all_stats, all_counts = [], []
    totals = {"wall": 0.0, "self": 0.0}
    metrics = {}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(seed, WORK / name)
        wl.warm(wl.generate())
        tracer = Tracer()
        traced_tally, wall, calls, ctx = traced_round(wl, tracer,
                                                      TRACED_CALLS[name])
        stats, counts = tracer.stats(), tracer.counts()
        self_sum = sum(s for _, s, _ in stats.values())
        if self_sum > wall:
            _fail(f"{name}: self times sum to {self_sum:.3f} s, more than "
                  f"the traced wall {wall:.3f} s")
        overhead_tally, overhead, shares = tracing_overhead(
            calls[:OVERHEAD_CALLS[name]], ctx)
        for t in (traced_tally, overhead_tally):
            tally.attempted += t.attempted
            tally.failed += t.failed
            tally.failures += t.failures
        all_stats.append(stats)
        all_counts.append(counts)
        totals["wall"] += wall
        totals["self"] += self_sum
        metrics[f"trace.{name}.overhead_frac"] = (overhead, "ratio")
        segments[name] = {
            "wall_s": wall, "self_sum_s": self_sum,
            "overhead_frac": overhead, "overhead_shares": shares,
            "layers": {k: v for k, (v, _) in
                       layer_metrics(stats, counts).items()},
            "spans": tracer.span_records(),
        }
    metrics.update(layer_metrics(_merge(all_stats), _merge(all_counts)))
    metrics["trace.wall_s"] = (totals["wall"], "s")
    metrics["trace.self_sum_s"] = (totals["self"], "s")
    return tally, metrics, {"workloads": segments}


# ---------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("characters", "operators", "batch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "ncindex" / "__init__.py").is_file():
        _fail(f"no ncindex sources under {SRC}")
    sys.path.insert(0, str(SRC))

    env = environment()
    setup_samples = []
    if args.trace:
        tally, metrics, detail = traced_run(args.seed)
    else:
        import workloads

        setup_samples = setup_probes(args.workload, args.seed,
                                     SETUP_PROBES[0])
        wl = workloads.WORKLOADS[args.workload](args.seed,
                                               WORK / args.workload)
        rounds = wl.generate()
        wl.warm(rounds)
        tally, metrics, detail = timed_run(wl, rounds, args.seconds)
        setup_samples += setup_probes(args.workload, args.seed,
                                      SETUP_PROBES[1])
        metrics["setup_s"] = (statistics.median(setup_samples), "s")
        metrics["rss_peak_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB")

    fail_frac = tally.failed / max(tally.attempted, 1)
    result = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "env": env,
        "setup_samples_s": setup_samples,
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted, "failed": tally.failed,
        "fail_frac": fail_frac, "failures": tally.failures[:50],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        "detail": detail,
    }
    WORK.mkdir(parents=True, exist_ok=True)
    out = WORK / (f"result-{args.workload}-seed{args.seed}"
                  f"-trace{args.trace}.json")
    with open(out, "w") as fh:
        json.dump(result, fh, indent=1, default=str)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(env))
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit}")
    for name in ("call_ms.p50", "call_ms.p90"):
        if name in detail:
            print(f"  {name:48s} {detail[name]:14.6g} ms "
                  f"(over {detail['calls']} calls)")
    print(f"  {'fail_frac':48s} {fail_frac:14.6g} ratio "
          f"({tally.failed} of {tally.attempted} checks)")
    for line in tally.failures[:10]:
        print(f"  FAILED {line}")
    print(f"result file {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result["correct"], "attempted": tally.attempted,
        "failed": tally.failed, "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
