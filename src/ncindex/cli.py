"""Batch front-end: load experiment configs, run checks, emit reports.

Configs are JSON with a list of experiments; every experiment produces
one or more report rows (value, oracle, residual, tolerance, pass).
Reports are written as CSV (one row per check, deterministic given config
and seed) and JSON (full detail including wall times).  Exit code 0 means
every row passed, 2 means at least one check failed or an experiment
raised (recorded as an error row), 1 means the config or IO was bad.
Command-line overrides go only to the kinds that take their key and are
validated with the config.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
import traceback
import zlib
from pathlib import Path

import numpy as np

from . import (bumps, chern, covering, group_algebra, nc_forms, specflow,
               testing, toeplitz)
from .errors import DomainError

CSV_COLUMNS = ("experiment", "kind", "check", "inputs", "value", "oracle",
               "residual", "tolerance", "passed")


class ConfigError(Exception):
    pass


def _fmt(x):
    if isinstance(x, complex):
        if abs(x.imag) < 1e-13:
            x = x.real
        else:
            return f"{x.real:.12g}{x.imag:+.12g}j"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _inputs_summary(exp):
    keys = sorted(set(exp) - {"id", "kind", "tolerance", "seed"})
    return ";".join(f"{k}={exp[k]}" for k in keys)


def _row(exp, check, value, oracle, residual, tol):
    return dict(zip(CSV_COLUMNS, (
        exp["id"], exp["kind"], check, _inputs_summary(exp), _fmt(value),
        _fmt(oracle), _fmt(residual), _fmt(tol), bool(residual <= tol))))


# ---------------------------------------------------------------------
# the config schema
# ---------------------------------------------------------------------


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_finite(v):
    # exact for an int too large for a float, where math.isfinite raises
    return _is_number(v) and abs(v) <= sys.float_info.max


def _is_int_list(v):
    return isinstance(v, list) and all(map(_is_int, v))


def _check(need, ok):
    """A field check: None for a good value, else what the value must be."""
    return lambda v: None if ok(v) else need


def _at_least(least):
    return _check(f"an integer >= {least}",
                  lambda v: _is_int(v) and v >= least)


def _one_of(*names):
    return _check(f"one of {list(names)}",
                  lambda v: isinstance(v, str) and v in names)


#: symbol types of the toeplitz kind and the system each one needs
_U_TYPES = {"exp": "circle", "fourier": None, "shift-generator": "rotation"}


def _is_symbol(u):
    return (isinstance(u, dict) and isinstance(u.get("type"), str)
            and u["type"] in _U_TYPES
            and (u["type"] != "fourier" or _is_coeffs(u.get("coeffs"))))


def _is_coeffs(v):
    """Fourier coefficients: every key a string that int() parses, every
    value a finite number or a list [re, im] of two."""
    return isinstance(v, dict) and all(
        _is_weight(k) and (_is_finite(c) or (
            isinstance(c, list) and len(c) == 2 and all(map(_is_finite, c))))
        for k, c in v.items())


def _is_weight(k):
    try:
        int(k)
    except (TypeError, ValueError):
        return False
    return isinstance(k, str)


def _is_arcs(v):
    return _is_int(v) or (isinstance(v, list) and all(
        isinstance(a, list) and len(a) == 2 and all(map(_is_number, a))
        for a in v))


_INTEGER = _check("an integer", _is_int)
_SEED = _at_least(0)
_NUMBER = _check("a finite number", _is_finite)
_TOLERANCE = _check("a finite positive number",
                    lambda v: _is_finite(v) and v > 0)
_STRING = _check("a string", lambda v: isinstance(v, str))
_FAMILY = _one_of(*bumps.FAMILIES)
_SYMBOL = _check(f"an object whose type is one of {sorted(_U_TYPES)}; "
                 f"fourier takes coeffs, an object of integer keys with "
                 f"finite number or [re, im] values", _is_symbol)

#: {kind: {key: (check, default)}}; a default of None means none
_FIELDS = {
    "chern-check": {
        "chart_grid": (_at_least(2), 64),
        # the field is constant outside this radius, so near the chart
        # boundary only when it is at most 0.5
        "bott_radius": (_check("a number in (0, 0.5]", lambda v: (
            _is_finite(v) and 0 < v <= 0.5)), 0.42),
        "bump_family": (_FAMILY, "mollifier"),
        "tolerance": (_TOLERANCE, 2e-3),
    },
    "covering-check": {
        "arcs": (_check("an integer or a list of [start, end] arcs",
                        _is_arcs), 3),
        "deck": (_check("a list of integer lists", lambda v: isinstance(
            v, list) and all(map(_is_int_list, v))), None),
        "bump_family": (_FAMILY, "mollifier"),
        "deck_order": (_at_least(0), 0),
        "grid_size": (_at_least(2), 1024),
        "flat_tolerance": (_NUMBER, 1e-9),
        "tolerance": (_TOLERANCE, 1e-8),
    },
    "toeplitz": {
        "system": (_one_of("circle", "rotation"), "circle"),
        "u": (_SYMBOL, {"type": "exp", "m": 1}),
        "fourier_cutoff": (_INTEGER, 64),
        "grid_size": (_at_least(1), 256),
        "eps_k": (_TOLERANCE, 1e-6),
        "p": (_INTEGER, 1),
        "q": (_at_least(1), 3),
        "tolerance": (_TOLERANCE, 0.05),
    },
    "specflow": {
        "fourier_cutoff": (_INTEGER, 64),
        "m_values": (_check("a non-empty list of integers",
                            lambda v: _is_int_list(v) and len(v) > 0),
                     [1, 2]),
        "margin": (_NUMBER, 0.1),
        "shift": (_NUMBER, 0.5),
    },
    "cyclic-check": {
        "k": (_at_least(2), 5),
        "m_max": (_at_least(1), 2),
        "instances": (_at_least(1), 5),
        "tolerance": (_TOLERANCE, 1e-9),
    },
}

#: checks of the fields every kind takes; `id` and `kind` are required
#: and `seed` falls back to the config's seed
_COMMON = {"id": _STRING, "kind": _one_of(*_FIELDS), "seed": _SEED}


def _require(where, key, check, value):
    need = check(value)
    if need is not None:
        raise ConfigError(f"{where}{key} must be {need}")


def _validate_experiment(exp, seen):
    if not isinstance(exp, dict):
        raise ConfigError("experiment entries must be objects")
    _require("every experiment ", "id", _STRING, exp.get("id"))
    where = f"experiment {exp['id']!r}: "
    if exp["id"] in seen:
        raise ConfigError(f"duplicate experiment id {exp['id']!r}")
    seen.add(exp["id"])
    _require(where, "kind", _COMMON["kind"], exp.get("kind"))
    fields = _FIELDS[exp["kind"]]
    unknown = set(exp) - set(_COMMON) - set(fields)
    if unknown:
        raise ConfigError(f"{where}unknown fields {sorted(unknown)}")
    for key, value in exp.items():
        check = _COMMON[key] if key in _COMMON else fields[key][0]
        _require(where, key, check, value)
    if _is_int(exp.get("arcs", 3)) and "deck" in exp:
        raise ConfigError(f"{where}deck goes with explicit arcs only; an "
                          f"integer arcs builds the standard cover's deck")
    if isinstance(exp.get("arcs"), list):
        n = len(exp["arcs"])
        deck = exp.get("deck")
        if not isinstance(deck, list) or len(deck) != n \
                or any(len(row) != n for row in deck):
            raise ConfigError(f"{where}explicit arcs need a square deck "
                              f"matrix of matching size")
    if exp["kind"] == "toeplitz":
        x = _filled(exp)
        need = _U_TYPES[x["u"]["type"]]
        if need not in (None, x["system"]):
            raise ConfigError(f"{where}{x['u']['type']} symbols need the "
                              f"{need} system")
        if x["system"] == "rotation" and math.gcd(x["p"], x["q"]) != 1:
            raise ConfigError(f"{where}p/q = {x['p']}/{x['q']} must be in "
                              f"lowest terms")
        if not _is_int(x["u"].get("m", 1)):
            raise ConfigError(f"{where}u.m must be an integer")
        band = _bandwidth(x["u"])
        if x["fourier_cutoff"] < (least := toeplitz.least_cutoff(band)):
            raise ConfigError(
                f"{where}fourier_cutoff {x['fourier_cutoff']} is below "
                f"{least}, the truncation margin of "
                f"tau_index: at least 8 x bandwidth = "
                f"{toeplitz.floor_cutoff(band)}, "
                f"with the top margin holding the bandwidth")
    if exp["kind"] == "specflow":
        x = _filled(exp)
        try:
            edge = specflow.edge_width(x["fourier_cutoff"], x["margin"])
        except (OverflowError, ValueError):
            edge = math.inf     # a margin too large for a finite width
        over = [m for m in x["m_values"] if abs(m) > edge]
        if over:
            raise ConfigError(
                f"{where}m_values {over} exceed the edge width {edge} = "
                f"ceil((2 fourier_cutoff + 1) margin / 2) of the boundary "
                f"filter")
        fc = x["fourier_cutoff"]
        swallowed = [m for m in x["m_values"] if edge > fc - abs(m)]
        if swallowed and edge != math.inf:
            raise ConfigError(
                f"{where}m_values {swallowed} need the edge width {edge} = "
                f"ceil((2 fourier_cutoff + 1) margin / 2) to be at most "
                f"fourier_cutoff - |m|, or the boundary filter rejects the "
                f"crossing modes")


def _bandwidth(u):
    """Largest |weight| of a toeplitz symbol spec."""
    if u["type"] == "shift-generator":
        return 1
    if u["type"] == "exp":
        return abs(u.get("m", 1))
    return max((abs(int(k)) for k in u["coeffs"]), default=0)


def _filled(exp):
    """The experiment with every default of its kind filled in."""
    return {**{k: d for k, (_, d) in _FIELDS[exp["kind"]].items()}, **exp}


def validate_config(cfg):
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    unknown = set(cfg) - {"seed", "experiments", "out"}
    if unknown:
        raise ConfigError(f"unknown top-level fields {sorted(unknown)}")
    for key, check in (("seed", _SEED), ("out", _STRING)):
        if key in cfg:
            _require("", key, check, cfg[key])
    exps = cfg.get("experiments")
    if not isinstance(exps, list) or not exps:
        raise ConfigError("config needs a non-empty experiments list")
    seen = set()
    for exp in exps:
        _validate_experiment(exp, seen)
    return cfg


def _apply_overrides(cfg, overrides):
    """Merge each given override into the experiments whose kind takes
    that key."""
    given = {k: v for k, v in overrides.items() if v is not None}
    exps = [dict(exp, **{k: v for k, v in given.items()
                         if k in _FIELDS[exp["kind"]]})
            for exp in cfg["experiments"]]
    return dict(cfg, experiments=exps)


# ---------------------------------------------------------------------
# experiment runners: each takes the experiment with every default filled
# in and returns its checks as (check, value, oracle, residual, tolerance)
# ---------------------------------------------------------------------


def _run_toeplitz(x, seed):
    tol = x["tolerance"]
    if x["system"] == "circle":
        system = toeplitz.CircleSystem()
    else:
        system = toeplitz.RotationSystem(x["p"], x["q"])
    uspec = x["u"]
    if uspec["type"] == "exp":
        u = system.exponential(int(uspec.get("m", 1)))
        expected = float(uspec.get("m", 1))
    elif uspec["type"] == "fourier":
        u = system.element({int(k): complex(v[0], v[1]) if
                            isinstance(v, list) else complex(v)
                            for k, v in uspec["coeffs"].items()})
        expected = None
    else:
        u = system.v()
        expected = -1.0

    tp = toeplitz.assemble_toeplitz(system, u, x["fourier_cutoff"],
                                    x["eps_k"])
    ti = toeplitz.tau_index(tp)
    formula = toeplitz.dynsys_formula(system, u)
    wind = toeplitz.winding_index(system, u)
    checks = [
        ("tau_index_vs_formula", ti, formula, abs(ti - formula), tol),
        ("tau_index_vs_winding", ti, wind, abs(ti - wind), tol),
        ("tau_index_integrality", ti, round(ti), abs(ti - round(ti)), tol),
    ]
    if expected is not None:
        checks.append(("tau_index_vs_expected", ti, expected,
                       abs(ti - expected), tol))
    return checks


def _run_covering(x, seed):
    tol = x["tolerance"]
    grid = nc_forms.CircleGrid(x["grid_size"])
    if isinstance(x["arcs"], list):
        spec = (group_algebra.GroupSpec.cyclic(x["deck_order"])
                if x["deck_order"] else group_algebra.GroupSpec.lattice(1))
        cover = covering.CoverData(grid, x["arcs"], x["bump_family"], spec,
                                   x["deck"])
    else:
        cover = covering.CoverData.standard(
            grid, n_arcs=x["arcs"], family=x["bump_family"],
            deck_order=x["deck_order"])
    if cover.deck_spec.family == "cyclic":
        # torsion coefficients: the only closed degree-one cocycle is 0
        tau = covering.zero_cocycle(cover.deck_spec)
        mf = covering.build_mf_projection(cover)
        w = covering.omega_integral(cover, tau)
        return [
            ("projection_idempotence", mf.idempotence, 0.0, mf.idempotence,
             1e-12),
            ("omega_integral_torsion", w, 0.0, abs(w), tol),
        ]
    tau = covering.winding_cocycle(cover.deck_spec)
    rep = covering.verify_prop_chern(cover, tau, tol=tol,
                                     flat_tol=x["flat_tolerance"])
    other = covering.CoverData.standard(grid, n_arcs=cover.n_arcs,
                                        family="poly-spline")
    w1 = rep["omega_integral"]
    w2 = covering.omega_integral(other, covering.winding_cocycle(
        other.deck_spec))
    return [
        ("character_form_identity", rep["lhs_integral"],
         rep["rhs_integral"], rep["residual"], tol),
        ("flat_connection_cancellation", rep["flat_connection_residual"],
         0.0, rep["flat_connection_residual"], x["flat_tolerance"]),
        ("projection_idempotence", rep["idempotence"], 0.0,
         rep["idempotence"], 1e-12),
        ("omega_integral_bump_independence", w1, w2, abs(w1 - w2), tol),
    ]


def _run_chern(x, seed):
    val = chern.bott_integral(x["chart_grid"], r_max=x["bott_radius"],
                              family=x["bump_family"])
    return [("bott_normalization", val, 1.0, abs(val - 1.0),
             x["tolerance"])]


def _run_specflow(x, seed):
    # spectral flow and relative index are integers: 0.5 is an exact match
    checks = []
    for m in x["m_values"]:
        rep = specflow.verify_oddind(x["fourier_cutoff"], m,
                                     margin=x["margin"], shift=x["shift"])
        checks.append((f"oddind_m{m}", rep["spfl"], rep["rel_index_adjusted"],
                       abs(rep["spfl"] - rep["rel_index_adjusted"]), 0.5))
    return checks


def _run_cyclic(x, seed):
    rng = np.random.default_rng(
        (seed or 0) * 2 ** 32 + zlib.crc32(x["id"].encode()))
    spec = group_algebra.GroupSpec.cyclic(x["k"])
    worst = 0.0
    for _ in range(x["instances"]):
        p = testing.random_projection_matrix(spec, 2, rng)
        for _, lhs, rhs in testing.normalization_bridge(p, x["m_max"], rng):
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    return [("normalization_bridge", worst, 0.0, worst, x["tolerance"])]


_RUNNERS = {"chern-check": _run_chern, "covering-check": _run_covering,
            "toeplitz": _run_toeplitz, "specflow": _run_specflow,
            "cyclic-check": _run_cyclic}


def run_experiment(exp, seed):
    """Rows, wall time and error text of one experiment.

    Any exception becomes one failed row named after its type, and the
    error text carries its message.  One that is not a domain, arithmetic
    or value error is a fault of the program, so the error text also
    keeps its traceback.
    """
    start = time.perf_counter()
    try:
        checks = _RUNNERS[exp["kind"]](_filled(exp), exp.get("seed", seed))
        rows = [_row(exp, *c) for c in checks]
        err = None
    except Exception as e:
        err = f"{type(e).__name__}: {e}"
        if not isinstance(e, (DomainError, ArithmeticError, ValueError)):
            err += "\n" + traceback.format_exc()
        rows = [dict(zip(CSV_COLUMNS, (
            exp["id"], exp["kind"], type(e).__name__, _inputs_summary(exp),
            "error", "", "inf", "", False)))]
    wall = time.perf_counter() - start
    return rows, wall, err


def run(config, out_dir=None, seed=None, overrides=None):
    """Run every experiment in the config, one after another in the
    calling thread and in the order of their ids; returns the exit code."""
    if isinstance(config, (str, Path)):
        try:
            with open(config) as fh:
                config = json.load(fh)
        except (OSError, ValueError) as e:
            print(f"config error: {e}", file=sys.stderr)
            return 1
    try:
        cfg = validate_config(config)
        if overrides:
            cfg = validate_config(_apply_overrides(cfg, overrides))
        if seed is not None:
            _require("--", "seed", _SEED, seed)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    seed = cfg.get("seed", 0) if seed is None else seed

    rows, details = [], []
    for exp in sorted(cfg["experiments"], key=lambda e: e["id"]):
        exp_rows, wall, err = run_experiment(exp, seed)
        exp_rows.sort(key=lambda r: r["check"])
        rows.extend(exp_rows)
        details.append({"experiment": exp["id"], "wall_time_s": wall,
                        "error": err, "rows": exp_rows,
                        "seed": seed})

    out = Path(out_dir or cfg.get("out", "."))
    try:
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "report.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
            writer.writeheader()
            writer.writerows(rows)
        with open(out / "report.json", "w") as fh:
            json.dump({"seed": seed, "experiments": details}, fh,
                      indent=2, default=str)
    except (OSError, ValueError) as e:
        print(f"io error: {e}", file=sys.stderr)
        return 1

    for r in rows:
        status = "pass" if r["passed"] else "FAIL"
        print(f"[{status}] {r['experiment']}/{r['check']}: "
              f"value={r['value']} oracle={r['oracle']} "
              f"residual={r['residual']}")
    return 0 if all(r["passed"] for r in rows) else 2


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="ncindex",
        description="run configured index-theory checks and write reports")
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", default=None, help="report directory")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--grid-size", type=int, default=None)
    parser.add_argument("--fourier-cutoff", type=int, default=None)
    parser.add_argument("--tolerance", type=float, default=None)
    args = parser.parse_args(argv)
    overrides = {k: getattr(args, k)
                 for k in ("grid_size", "fourier_cutoff", "tolerance")}
    return run(args.config, out_dir=args.out, seed=args.seed,
               overrides=overrides)


if __name__ == "__main__":
    sys.exit(main())
