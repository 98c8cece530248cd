import csv
import json
import threading
import time
from pathlib import Path

import pytest

from ncindex import cli
from ncindex.cli import main, run, validate_config, ConfigError


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


TOEPLITZ_CFG = {
    "seed": 7,
    "experiments": [
        {"id": "t-m1", "kind": "toeplitz", "system": "circle",
         "u": {"type": "exp", "m": 1}, "fourier_cutoff": 64,
         "grid_size": 64, "tolerance": 0.05},
    ],
}


def test_valid_toeplitz_config(tmp_path):
    cfg = write_config(tmp_path, TOEPLITZ_CFG)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "report.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    byname = {r["check"]: r for r in rows}
    assert byname["tau_index_vs_expected"]["value"] == "1"
    assert all(r["passed"] == "True" for r in rows)
    detail = json.loads((out / "report.json").read_text())
    assert detail["seed"] == 7
    assert all("wall_time_s" in e for e in detail["experiments"])


def test_toeplitz_at_a_cutoff_of_one_hundred_thousand(tmp_path):
    cfg = {"experiments": [
        {"id": "circle-m3", "kind": "toeplitz", "system": "circle",
         "u": {"type": "exp", "m": 3}, "fourier_cutoff": 100000},
        {"id": "rotation-q6", "kind": "toeplitz", "system": "rotation",
         "p": 1, "q": 6, "u": {"type": "shift-generator"},
         "fourier_cutoff": 100000}]}
    out = tmp_path / "out"
    assert main(["--config", str(write_config(tmp_path, cfg)),
                 "--out", str(out)]) == 0
    with open(out / "report.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    assert all(r["passed"] == "True" for r in rows)


def test_malformed_config_exits_one(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--config", str(bad), "--out", str(tmp_path)]) == 1


def test_unknown_field_rejected(tmp_path):
    cfg = {"experiments": [{"id": "x", "kind": "toeplitz",
                            "mystery_knob": 3}]}
    path = write_config(tmp_path, cfg)
    assert main(["--config", str(path), "--out", str(tmp_path)]) == 1
    with pytest.raises(ConfigError):
        validate_config(cfg)


def test_nonpositive_tolerance_rejected():
    with pytest.raises(ConfigError):
        validate_config({"experiments": [
            {"id": "x", "kind": "toeplitz", "tolerance": 0.0}]})


def test_duplicate_ids_rejected():
    with pytest.raises(ConfigError):
        validate_config({"experiments": [
            {"id": "x", "kind": "toeplitz"},
            {"id": "x", "kind": "specflow"}]})


def test_explicit_arcs_need_deck():
    with pytest.raises(ConfigError):
        validate_config({"experiments": [
            {"id": "c", "kind": "covering-check",
             "arcs": [[0.0, 0.5], [0.4, 1.05], [0.9, 1.4]]}]})


def test_broken_cover_exits_two(tmp_path):
    cfg = {
        "experiments": [
            {"id": "broken", "kind": "covering-check",
             "arcs": [[0.0, 0.4], [0.5, 0.9]],
             "deck": [[0, 0], [0, 0]], "grid_size": 128},
        ],
    }
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out)]) == 2
    with open(out / "report.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["check"] == "BadCover"
    assert rows[0]["passed"] == "False"


def test_check_failure_exits_two(tmp_path):
    cfg = {
        "experiments": [
            {"id": "tight", "kind": "chern-check", "chart_grid": 16,
             "tolerance": 1e-12},
        ],
    }
    path = write_config(tmp_path, cfg)
    assert main(["--config", str(path), "--out", str(tmp_path)]) == 2


def test_csv_determinism(tmp_path):
    cfg = {
        "seed": 3,
        "experiments": [
            {"id": "cyc", "kind": "cyclic-check", "k": 3, "m_max": 1,
             "instances": 2},
            {"id": "sf", "kind": "specflow", "fourier_cutoff": 32,
             "m_values": [1]},
        ],
    }
    path = write_config(tmp_path, cfg)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(str(path), out_dir=out1) == 0
    assert run(str(path), out_dir=out2) == 0
    assert (out1 / "report.csv").read_bytes() \
        == (out2 / "report.csv").read_bytes()


def test_flag_overrides(tmp_path):
    cfg = write_config(tmp_path, TOEPLITZ_CFG)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out),
                 "--fourier-cutoff", "96"]) == 0


@pytest.mark.parametrize("exp", [
    {"u": "oops"},
    {"system": "torus"},
    {"u": {"type": "mystery"}},
    {"u": {"type": "shift-generator"}},
    {"system": "rotation", "u": {"type": "exp", "m": 1}},
    {"u": {"type": "fourier"}},
])
def test_bad_toeplitz_system_or_symbol_exits_one(tmp_path, exp):
    cfg = {"experiments": [dict({"id": "t", "kind": "toeplitz"}, **exp)]}
    with pytest.raises(ConfigError):
        validate_config(cfg)
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out)]) == 1
    assert not (out / "report.csv").exists()


def test_unexpected_exception_becomes_error_row(tmp_path):
    cfg = {"experiments": [
        {"id": "bad-m", "kind": "toeplitz", "u": {"type": "exp", "m": [1]}},
        {"id": "sf", "kind": "specflow", "fourier_cutoff": 32,
         "m_values": [1]},
    ]}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out)]) == 2
    with open(out / "report.csv") as fh:
        rows = {r["experiment"]: r for r in csv.DictReader(fh)}
    assert rows["bad-m"]["check"] == "TypeError"
    assert rows["bad-m"]["passed"] == "False"
    assert rows["sf"]["passed"] == "True"
    detail = json.loads((out / "report.json").read_text())
    err = {e["experiment"]: e["error"] for e in detail["experiments"]}
    assert err["bad-m"].startswith("TypeError: ") and len(err["bad-m"]) > 11
    assert "Traceback" in err["bad-m"]
    assert err["sf"] is None


def test_override_is_validated(tmp_path):
    cfg = write_config(tmp_path, TOEPLITZ_CFG)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out),
                 "--tolerance", "-1"]) == 1
    assert not (out / "report.csv").exists()


def test_override_goes_only_to_kinds_that_take_it(tmp_path):
    cfg = {"experiments": [
        TOEPLITZ_CFG["experiments"][0],
        {"id": "sf", "kind": "specflow", "fourier_cutoff": 32,
         "m_values": [1]},
    ]}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out),
                 "--grid-size", "32"]) == 0
    with open(out / "report.csv") as fh:
        rows = list(csv.DictReader(fh))
    for r in rows:
        if r["kind"] == "specflow":
            assert "grid_size" not in r["inputs"]
        else:
            assert "grid_size=32" in r["inputs"]


@pytest.mark.parametrize("exp", [
    {"kind": "cyclic-check", "k": "5"},
    {"kind": "cyclic-check", "m_max": 2.0},
    {"kind": "specflow", "fourier_cutoff": "64"},
    {"kind": "cyclic-check", "k": 1},
    {"kind": "cyclic-check", "m_max": 0},
    {"kind": "cyclic-check", "instances": 0},
    {"kind": "cyclic-check", "instances": None},
    {"kind": "toeplitz", "grid_size": True},
    {"kind": "toeplitz", "system": "rotation", "p": "2", "q": 5,
     "u": {"type": "shift-generator"}},
    {"kind": "toeplitz", "system": "rotation", "p": 2, "q": 5.0,
     "u": {"type": "shift-generator"}},
    {"kind": "chern-check", "chart_grid": 64.5},
    {"kind": "covering-check", "arcs": "3"},
    {"kind": "covering-check", "deck_order": False},
])
def test_mistyped_integer_field_exits_one(tmp_path, exp):
    cfg = {"experiments": [dict({"id": "x"}, **exp)]}
    with pytest.raises(ConfigError):
        validate_config(cfg)
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out)]) == 1
    assert not (out / "report.csv").exists()


def test_integer_fields_accept_integers_and_arc_lists():
    validate_config({"experiments": [
        {"id": "c", "kind": "cyclic-check", "k": 2, "m_max": 1,
         "instances": 1},
        {"id": "t", "kind": "toeplitz", "system": "rotation", "p": -1,
         "q": 3, "u": {"type": "shift-generator"}, "fourier_cutoff": 8},
        {"id": "v", "kind": "covering-check", "arcs": [[0.0, 0.6],
                                                       [0.5, 1.1]],
         "deck": [[0, 1], [-1, 0]], "deck_order": 0, "grid_size": 64},
        {"id": "b", "kind": "chern-check", "chart_grid": 16},
        # rotations in lowest terms, as the benchmark's batch draws them
        *({"id": f"r{p}", "kind": "toeplitz", "system": "rotation", "p": p,
           "q": 5, "u": {"type": "shift-generator"}} for p in range(1, 5)),
    ]})


ROTATION_EXP = {"id": "r", "kind": "toeplitz", "system": "rotation",
                "u": {"type": "shift-generator"}, "fourier_cutoff": 8}


@pytest.mark.parametrize("exp, need", [
    ({"id": "sf", "kind": "specflow", "m_values": []},
     "m_values must be a non-empty list of integers"),
    (dict(ROTATION_EXP, p=3, q=3), "p/q = 3/3 must be in lowest terms"),
    (dict(ROTATION_EXP, p=2, q=4), "p/q = 2/4 must be in lowest terms"),
    (dict(ROTATION_EXP, p=0, q=5), "p/q = 0/5 must be in lowest terms"),
    (dict(ROTATION_EXP, p=1, q=0), "q must be an integer >= 1"),
    ({"id": "b", "kind": "chern-check", "chart_grid": 0},
     "chart_grid must be an integer >= 1"),
    ({"id": "b", "kind": "chern-check", "chart_grid": -4},
     "chart_grid must be an integer >= 1"),
], ids=["m_values-empty", "rotation-3-3", "rotation-2-4", "rotation-0-5",
        "rotation-q0", "chart_grid-0", "chart_grid-negative"])
def test_config_that_checks_nothing_or_nonsense_exits_one(tmp_path, capsys,
                                                          exp, need):
    path = write_config(tmp_path, {"experiments": [exp]})
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out)]) == 1
    assert need in capsys.readouterr().err
    assert not (out / "report.csv").exists()


def test_toeplitz_grid_size_changes_nothing(tmp_path):
    # the winding oracle takes its sample count from the symbol's
    # bandwidth, so a grid too coarse for the winding is still accepted
    reports = []
    for size in (2, 256):
        exp = dict(TOEPLITZ_CFG["experiments"][0], grid_size=size)
        path = write_config(tmp_path, {"experiments": [exp]})
        out = tmp_path / str(size)
        assert main(["--config", str(path), "--out", str(out)]) == 0
        with open(out / "report.csv") as fh:
            reports.append([{k: v for k, v in r.items() if k != "inputs"}
                            for r in csv.DictReader(fh)])
    assert reports[0] == reports[1]


def test_mistyped_override_exits_one(tmp_path):
    cfg = write_config(tmp_path, TOEPLITZ_CFG)
    out = tmp_path / "out"
    assert run(str(cfg), out_dir=str(out),
               overrides={"fourier_cutoff": "64"}) == 1
    assert not (out / "report.csv").exists()


SPECFLOW_EXP = {"id": "sf", "kind": "specflow", "fourier_cutoff": 32,
                "m_values": [1]}
ARCS = [[0.0, 0.6], [0.5, 1.1]]


@pytest.mark.parametrize("cfg", [
    {"experiments": [dict(SPECFLOW_EXP, margin="0.1")]},
    {"experiments": [dict(SPECFLOW_EXP, m_values=["a"])]},
    {"experiments": [{"id": "b", "kind": "chern-check", "chart_grid": 16,
                      "bott_radius": "0.4"}]},
    {"experiments": [{"id": "b", "kind": "chern-check", "chart_grid": 16,
                      "bump_family": "nope"}]},
    {"experiments": [{"id": "c", "kind": "cyclic-check", "k": 3,
                      "m_max": 1, "instances": 1, "seed": 1.5}]},
    {"seed": 1.5, "experiments": [{"id": "c", "kind": "cyclic-check",
                                   "k": 3, "m_max": 1, "instances": 1}]},
    {"experiments": [{"id": "b", "kind": "chern-check", "chart_grid": 16,
                      "tolerance": True}]},
    {"experiments": [dict(SPECFLOW_EXP, tolerance=1e-30)]},
    {"experiments": [dict(SPECFLOW_EXP, tolerance=0.5)]},
    {"experiments": [dict(SPECFLOW_EXP, id=5), SPECFLOW_EXP]},
    {"experiments": [dict(SPECFLOW_EXP, id=["sf"])]},
    {"out": 7, "experiments": [SPECFLOW_EXP]},
    {"experiments": [{"id": "t", "kind": "toeplitz",
                      "u": {"type": ["exp"]}}]},
    {"experiments": [{"id": "v", "kind": "covering-check", "grid_size": 64,
                      "arcs": [["a", 0.6], [0.5, 1.1]],
                      "deck": [[0, 1], [-1, 0]]}]},
    {"experiments": [{"id": "v", "kind": "covering-check", "grid_size": 64,
                      "arcs": ARCS, "deck": [[0, 1.5], [-1, 0]]}]},
    {"experiments": [{"id": "t", "kind": "toeplitz",
                      "u": {"type": "exp", "m": 1.5}}]},
    {"experiments": [{"id": "t", "kind": "toeplitz",
                      "u": {"type": "exp", "m": True}}]},
], ids=["margin-string", "m_values-strings", "bott_radius-string",
        "bump_family-unknown", "experiment-seed-float", "config-seed-float",
        "tolerance-bool", "specflow-tolerance-tiny", "specflow-tolerance",
        "ids-int-and-string", "id-list", "out-int", "u-type-list",
        "arc-string", "deck-float", "u-m-float", "u-m-bool"])
def test_mistyped_field_exits_one(tmp_path, monkeypatch, capsys, cfg):
    # no --out: a config's own "out" decides where the report would go
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, cfg)
    assert main(["--config", str(path)]) == 1
    assert "config error:" in capsys.readouterr().err
    assert not list(tmp_path.rglob("report.*"))


def test_experiments_run_serially_with_real_wall_times(tmp_path,
                                                       monkeypatch):
    threads = []
    real = cli.run_experiment

    def recorded(exp, seed):
        threads.append(threading.get_ident())
        return real(exp, seed)

    monkeypatch.setattr(cli, "run_experiment", recorded)
    cfg = {"experiments": [
        SPECFLOW_EXP,
        {"id": "b", "kind": "chern-check", "chart_grid": 16},
        TOEPLITZ_CFG["experiments"][0],
    ]}
    path = write_config(tmp_path, cfg)
    start = time.perf_counter()
    assert run(str(path), out_dir=tmp_path) == 0
    elapsed = time.perf_counter() - start
    assert threads == [threading.get_ident()] * 3
    detail = json.loads((tmp_path / "report.json").read_text())
    assert sum(e["wall_time_s"] for e in detail["experiments"]) <= elapsed


def test_table_defaults_pass_their_checks():
    for kind, fields in cli._FIELDS.items():
        for key, (check, default) in fields.items():
            if default is not None:
                assert check(default) is None, (kind, key)
    with open(Path(__file__).parents[1] / "configs" / "checks.json") as fh:
        validate_config(json.load(fh))


def test_shipped_config_passes_with_every_report_row(tmp_path):
    config = Path(__file__).parents[1] / "configs" / "checks.json"
    assert run(str(config), out_dir=tmp_path) == 0
    with open(tmp_path / "report.csv") as fh:
        rows = {(r["experiment"], r["check"]) for r in csv.DictReader(fh)}
    toeplitz = {(exp, f"tau_index_{check}")
                for exp in ("toeplitz-rotation-2-5", "toeplitz-winding-1",
                            "toeplitz-winding-neg2")
                for check in ("integrality", "vs_expected", "vs_formula",
                              "vs_winding")}
    assert rows == toeplitz | {
        ("chern-bott", "bott_normalization"),
        ("covering-standard", "character_form_identity"),
        ("covering-standard", "flat_connection_cancellation"),
        ("covering-standard", "omega_integral_bump_independence"),
        ("covering-standard", "projection_idempotence"),
        ("cyclic-bridge", "normalization_bridge"),
        ("specflow-odd", "oddind_m1"),
        ("specflow-odd", "oddind_m2")}


@pytest.mark.parametrize("u, fc, least", [
    ({"type": "exp", "m": 9}, 64, 72),
    ({"type": "exp", "m": -3}, 23, 24),
    ({"type": "exp", "m": 0}, 7, 8),
    ({"type": "fourier", "coeffs": {"-1": 1.0, "9": [0.0, 0.0]}}, 64, 72),
    ({"type": "shift-generator"}, 7, 8),
], ids=["exp-9", "exp-neg3", "exp-0", "fourier-9", "shift-generator"])
def test_toeplitz_cutoff_below_truncation_margin_exits_one(tmp_path, capsys,
                                                           u, fc, least):
    exp = {"id": "t", "kind": "toeplitz", "u": u, "fourier_cutoff": fc}
    if u["type"] == "shift-generator":
        exp["system"] = "rotation"
    path = write_config(tmp_path, {"experiments": [exp]})
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out)]) == 1
    assert f"8 x bandwidth = {least}" in capsys.readouterr().err
    assert not (out / "report.csv").exists()


def test_toeplitz_cutoff_at_truncation_margin_runs(tmp_path):
    cfg = {"experiments": [
        {"id": "t", "kind": "toeplitz", "u": {"type": "exp", "m": -2},
         "fourier_cutoff": 16},
        {"id": "r", "kind": "toeplitz", "system": "rotation",
         "u": {"type": "shift-generator"}, "fourier_cutoff": 8}]}
    path = write_config(tmp_path, cfg)
    assert main(["--config", str(path), "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("m", [8, -8])
def test_toeplitz_cutoff_top_margin_holds_the_bandwidth(tmp_path, capsys,
                                                        m):
    # at margin 0.1, 8 x bandwidth = 64 leaves 6 modes in the top margin,
    # fewer than the 8 artifact vectors there; 70 leaves 8
    exp = {"id": "t", "kind": "toeplitz", "u": {"type": "exp", "m": m},
           "fourier_cutoff": 64}
    out = tmp_path / "low"
    path = write_config(tmp_path, {"experiments": [exp]})
    assert main(["--config", str(path), "--out", str(out)]) == 1
    assert "below 70" in capsys.readouterr().err
    out = tmp_path / "ok"
    path = write_config(tmp_path, {"experiments": [
        dict(exp, fourier_cutoff=70)]})
    assert main(["--config", str(path), "--out", str(out)]) == 0
    with open(out / "report.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and all(r["passed"] == "True" for r in rows)


def test_cutoff_override_meets_the_truncation_margin(tmp_path, capsys):
    cfg = write_config(tmp_path, TOEPLITZ_CFG)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out),
                 "--fourier-cutoff", "7"]) == 1
    assert "8 x bandwidth = 8" in capsys.readouterr().err
    assert not (out / "report.csv").exists()


@pytest.mark.parametrize("m_values", [[3], [-3], [1, 2, 3]])
def test_specflow_winding_beyond_the_edge_exits_one(tmp_path, capsys,
                                                     m_values):
    cfg = {"experiments": [dict(SPECFLOW_EXP, fourier_cutoff=16,
                                m_values=m_values)]}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out)]) == 1
    assert "edge width 2" in capsys.readouterr().err
    assert not (out / "report.csv").exists()


def test_specflow_winding_at_the_edge_runs(tmp_path):
    cfg = {"experiments": [dict(SPECFLOW_EXP, fourier_cutoff=16,
                                m_values=[2, -2])]}
    path = write_config(tmp_path, cfg)
    assert main(["--config", str(path), "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("margin", [float("nan"), float("inf")])
def test_specflow_margin_that_is_not_finite_is_an_error_row(tmp_path,
                                                           margin):
    cfg = {"experiments": [dict(SPECFLOW_EXP, margin=margin)]}
    path = write_config(tmp_path, cfg)
    assert main(["--config", str(path), "--out", str(tmp_path)]) == 2
    detail = json.loads((tmp_path / "report.json").read_text())
    err = detail["experiments"][0]["error"]
    assert err and "Traceback" not in err
