"""Checks of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py

Runs small slices of each workload: under a minute on two cores.
"""

import json
import statistics
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins the BLAS threads before numpy loads)
import workloads  # noqa: E402
from ncindex import chern, toeplitz  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Call, Outcome  # noqa: E402

EXACT = (
    "group_algebra.GAMatrix.matmul.calls",
    "nc_forms.MixedForm.matmul.terms_out",
    "cyclic.cochain_evals",
    "specflow.path_samples",
    "linalg.svd.calls", "linalg.svd.ops",
    "linalg.eigh.calls", "linalg.eigh.ops",
)


def _first(rounds, label):
    return next(c for c in rounds[0] if c.label == label)


def _slices(tmp_path):
    """(name, calls, prelude context) for a cheap slice of each workload."""
    ch = workloads.Characters(7, tmp_path)
    ch_rounds = ch.generate()
    op_rounds = workloads.Operators(7, tmp_path).generate()
    # the CLI on the light rows of a generated batch config, still through
    # the thread pool
    cfg = workloads.batch_config(np.random.default_rng(7))
    cfg["experiments"] = [e for e in cfg["experiments"]
                          if e["kind"] != "covering-check"
                          or e.get("deck_order")]
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(cfg))
    batch_call = Call("cli-run", workloads.expected_rows(cfg),
                      workloads._cli_run(path, tmp_path / "report"))
    return [
        ("characters",
         [_first(ch_rounds, k) for k in ("projection", "unitary",
                                         "bridge-z5")],
         ch.prelude(orders=(3, 5))),
        ("operators",
         [_first(op_rounds, k) for k in ("circle-tau-64", "oddind-64",
                                         "path-flow-64")], {}),
        ("batch", [batch_call], {}),
    ]


def _traced(calls, ctx):
    tracer = Tracer()
    tally = run.Tally()
    with tracer.installed():
        start = run.time.perf_counter()
        tally.run(calls, ctx)
        wall = run.time.perf_counter() - start
    stats = tracer.stats()
    metrics = run.layer_metrics(stats, tracer.counts())
    return tally, metrics, sum(s for _, s, _ in stats.values()), wall


def test_slices_pass_and_counts_repeat_exactly(tmp_path):
    for name, calls, ctx in _slices(tmp_path):
        first = _traced(calls, ctx)
        second = _traced(calls, ctx)
        for tally, _metrics, self_sum, wall in (first, second):
            assert tally.attempted > 0 and tally.failed == 0, (
                name, tally.failures)
            assert self_sum <= wall, (name, self_sum, wall)
        for key in EXACT:
            assert first[1][key] == second[1][key], (name, key)


def test_layers_do_their_work_where_expected(tmp_path):
    got = {name: _traced(calls, ctx)[1]
           for name, calls, ctx in _slices(tmp_path)}
    ops, chars, batch = got["operators"], got["characters"], got["batch"]
    assert ops["nc_forms.MixedForm.matmul.calls"][0] == 0
    assert ops["group_algebra.GAMatrix.matmul.calls"][0] == 0
    assert chars["nc_forms.MixedForm.matmul.calls"][0] > 0
    assert ops["linalg.svd.calls"][0] > 0
    assert ops["specflow.path_samples"][0] > 0
    assert batch["cli.run_experiment.calls"][0] == 7
    assert batch["cli.error_rows"][0] == 0


def test_wrong_oracle_domain_error_and_crash_count_as_failed(tmp_path):
    rounds = workloads.Operators(7, tmp_path).generate()
    real = _first(rounds, "circle-tau-64")

    def wrong_oracle(ctx):
        return [Outcome(o.check, o.value, o.oracle + 1.0, o.tol)
                for o in real.fn(ctx)]

    def domain_error(ctx):
        system = toeplitz.CircleSystem(grid_n=8)
        toeplitz.assemble_toeplitz(system, system.element({0: 2.0}), 64)

    def crash(ctx):
        raise RuntimeError("boom")

    tally = run.Tally()
    tally.run([real, Call("wrong", 2, wrong_oracle),
               Call("domain", 2, domain_error), Call("crash", 1, crash)], {})
    assert tally.attempted == 7
    assert tally.failed == 5
    assert any("NotUnitary" in f for f in tally.failures)


def test_overhead_times_untraced_and_traced_pairs(tmp_path):
    rounds = workloads.Operators(7, tmp_path).generate()
    tally, share, shares = run.tracing_overhead(
        [_first(rounds, "circle-tau-64")], {})
    assert len(shares) == run.OVERHEAD_PAIRS
    assert share == statistics.median(shares)
    # two passes of one call with two checks per pair
    assert tally.attempted == 4 * run.OVERHEAD_PAIRS
    assert tally.failed == 0


def test_tracer_restores_every_patch():
    from ncindex import covering, nc_forms

    def current():
        return (chern.chern_even, covering.chern_even, toeplitz.tau_index,
                np.linalg.svd, nc_forms.MixedForm.__matmul__)

    before = current()
    with Tracer().installed():
        patched = current()
    assert all(p is not b for p, b in zip(patched, before))
    assert current() == before


def test_metric_names_match_benchmark_json(tmp_path):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    name, calls, ctx = _slices(tmp_path)[1]
    _tally, metrics, _self_sum, _wall = _traced(calls[:1], ctx)
    traced = set(metrics) | {"trace.wall_s", "trace.self_sum_s"} | {
        f"trace.{w['name']}.overhead_frac" for w in spec["workloads"]}
    assert {m["name"] for m in spec["per_layer"]} == traced
    timed = {"checks_per_s", "setup_s", "rss_peak_mb"}
    assert {m["name"] for m in spec["end_to_end"]} == timed
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for key, (_value, unit) in metrics.items():
        assert units[key] == unit, key


def test_quantile_is_a_smooth_order_statistic_mean():
    assert run._quantile([5.0], 0.9) == pytest.approx(5.0)
    assert run._quantile([2.0] * 7, 0.5) == pytest.approx(2.0)
    assert run._quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == \
        pytest.approx(3.0, abs=1e-3)
    one_round = [4.0, 1.0, 3.0, 2.0, 9.0, 2.5]
    p50, p90 = run._quantile(one_round, 0.5), run._quantile(one_round, 0.9)
    assert 1.0 < p50 < p90 < 9.0
    # repeating a round leaves the estimate near the round's own
    assert run._quantile(one_round * 3, 0.5) == pytest.approx(p50, rel=0.1)
