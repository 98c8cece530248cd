import csv
import json

import pytest

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
    ]})


def test_mistyped_override_exits_one(tmp_path):
    cfg = write_config(tmp_path, TOEPLITZ_CFG)
    out = tmp_path / "out"
    assert run(str(cfg), out_dir=str(out),
               overrides={"fourier_cutoff": "64"}) == 1
    assert not (out / "report.csv").exists()
