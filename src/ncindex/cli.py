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
import concurrent.futures
import csv
import json
import sys
import time
import traceback
import zlib
from pathlib import Path

import numpy as np

from .errors import DomainError

KINDS = ("chern-check", "covering-check", "toeplitz", "specflow",
         "cyclic-check")

_COMMON_KEYS = {"id", "kind", "tolerance", "seed"}
_KIND_KEYS = {
    "toeplitz": {"system", "u", "fourier_cutoff", "grid_size", "eps_k",
                 "p", "q"},
    "covering-check": {"arcs", "bump_family", "deck", "deck_order",
                       "grid_size", "flat_tolerance"},
    "chern-check": {"chart_grid", "bott_radius", "bump_family"},
    "specflow": {"fourier_cutoff", "m_values", "margin", "shift"},
    "cyclic-check": {"k", "m_max", "instances"},
}

#: symbol types of the toeplitz kind and the system each one needs
_U_TYPES = {"exp": "circle", "fourier": None, "shift-generator": "rotation"}

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
    return {
        "experiment": exp["id"],
        "kind": exp["kind"],
        "check": check,
        "inputs": _inputs_summary(exp),
        "value": _fmt(value),
        "oracle": _fmt(oracle),
        "residual": _fmt(residual),
        "tolerance": _fmt(tol),
        "passed": bool(residual <= tol),
    }


def _check_toeplitz(exp):
    where = f"experiment {exp['id']!r}"
    system = exp.get("system", "circle")
    if system not in ("circle", "rotation"):
        raise ConfigError(f"{where}: unknown system {system!r}")
    uspec = exp.get("u", {"type": "exp"})
    if not isinstance(uspec, dict) or uspec.get("type") not in _U_TYPES:
        raise ConfigError(f"{where}: u must be an object whose type is one "
                          f"of {sorted(_U_TYPES)}")
    need = _U_TYPES[uspec["type"]]
    if need not in (None, system):
        raise ConfigError(
            f"{where}: {uspec['type']} symbols need the {need} system")
    if uspec["type"] == "fourier" and not isinstance(uspec.get("coeffs"),
                                                      dict):
        raise ConfigError(f"{where}: fourier symbols need a coeffs object")


def validate_config(cfg):
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    unknown = set(cfg) - {"seed", "experiments", "out"}
    if unknown:
        raise ConfigError(f"unknown top-level fields {sorted(unknown)}")
    exps = cfg.get("experiments")
    if not isinstance(exps, list) or not exps:
        raise ConfigError("config needs a non-empty experiments list")
    seen = set()
    for exp in exps:
        if not isinstance(exp, dict):
            raise ConfigError("experiment entries must be objects")
        kind = exp.get("kind")
        if kind not in KINDS:
            raise ConfigError(f"unknown experiment kind {kind!r}")
        if "id" not in exp:
            raise ConfigError("every experiment needs an id")
        if exp["id"] in seen:
            raise ConfigError(f"duplicate experiment id {exp['id']!r}")
        seen.add(exp["id"])
        unknown = set(exp) - _COMMON_KEYS - _KIND_KEYS[kind]
        if unknown:
            raise ConfigError(
                f"experiment {exp['id']!r}: unknown fields "
                f"{sorted(unknown)}")
        tol = exp.get("tolerance")
        if tol is not None and not (isinstance(tol, (int, float))
                                    and tol > 0):
            raise ConfigError(
                f"experiment {exp['id']!r}: tolerance must be positive")
        if kind == "covering-check" and isinstance(exp.get("arcs"), list):
            deck = exp.get("deck")
            n = len(exp["arcs"])
            if (not isinstance(deck, list) or len(deck) != n
                    or any(not isinstance(row, list) or len(row) != n
                           for row in deck)):
                raise ConfigError(
                    f"experiment {exp['id']!r}: explicit arcs need a "
                    f"square deck matrix of matching size")
        if kind == "toeplitz":
            _check_toeplitz(exp)
    return cfg


def _apply_overrides(cfg, overrides):
    """Merge each given override into the experiments whose kind takes
    that key."""
    given = {k: v for k, v in overrides.items() if v is not None}
    exps = [dict(exp, **{k: v for k, v in given.items()
                         if k in _COMMON_KEYS | _KIND_KEYS[exp["kind"]]})
            for exp in cfg["experiments"]]
    return dict(cfg, experiments=exps)


def _exp_rng(seed, exp_id):
    return np.random.default_rng(
        (seed or 0) * 2 ** 32 + zlib.crc32(exp_id.encode()))


# ---------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------


def _run_toeplitz(exp, seed):
    from .toeplitz import (CircleSystem, RotationSystem, assemble_toeplitz,
                           dynsys_formula, tau_index, winding_index)

    tol = exp.get("tolerance", 0.05)
    fc = exp.get("fourier_cutoff", 64)
    if exp.get("system", "circle") == "circle":
        system = CircleSystem(grid_n=exp.get("grid_size", 256))
    else:
        system = RotationSystem(exp.get("p", 1), exp.get("q", 3))
    uspec = exp.get("u", {"type": "exp", "m": 1})
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

    tp = assemble_toeplitz(system, u, fc, exp.get("eps_k", 1e-6))
    ti = tau_index(tp)
    formula = dynsys_formula(system, u)
    wind = winding_index(system, u)
    rows = [
        _row(exp, "tau_index_vs_formula", ti, formula,
             abs(ti - formula), tol),
        _row(exp, "tau_index_vs_winding", ti, wind, abs(ti - wind), tol),
        _row(exp, "tau_index_integrality", ti, round(ti),
             abs(ti - round(ti)), tol),
    ]
    if expected is not None:
        rows.append(_row(exp, "tau_index_vs_expected", ti, expected,
                         abs(ti - expected), tol))
    return rows


def _run_covering(exp, seed):
    from .covering import (CoverData, build_mf_projection, omega_integral,
                           verify_prop_chern, winding_cocycle,
                           zero_cocycle)
    from .group_algebra import GroupSpec
    from .nc_forms import CircleGrid

    tol = exp.get("tolerance", 1e-8)
    grid = CircleGrid(exp.get("grid_size", 1024))
    deck_order = exp.get("deck_order", 0)
    if "arcs" in exp and isinstance(exp["arcs"], list):
        spec = (GroupSpec.cyclic(deck_order) if deck_order
                else GroupSpec.lattice(1))
        cover = CoverData(grid, exp["arcs"],
                          exp.get("bump_family", "mollifier"), spec,
                          exp["deck"])
    else:
        cover = CoverData.standard(
            grid, n_arcs=exp.get("arcs", 3),
            family=exp.get("bump_family", "mollifier"),
            deck_order=deck_order)
    if cover.deck_spec.family == "cyclic":
        # torsion coefficients: the only closed degree-one cocycle is 0
        tau = zero_cocycle(cover.deck_spec)
        mf = build_mf_projection(cover)
        w = omega_integral(cover, tau)
        return [
            _row(exp, "projection_idempotence", mf.idempotence, 0.0,
                 mf.idempotence, 1e-12),
            _row(exp, "omega_integral_torsion", w, 0.0, abs(w), tol),
        ]
    tau = winding_cocycle(cover.deck_spec)
    rep = verify_prop_chern(cover, tau, tol=tol,
                            flat_tol=exp.get("flat_tolerance", 1e-9))
    rows = [
        _row(exp, "character_form_identity", rep["lhs_integral"],
             rep["rhs_integral"], rep["residual"], tol),
        _row(exp, "flat_connection_cancellation",
             rep["flat_connection_residual"], 0.0,
             rep["flat_connection_residual"],
             exp.get("flat_tolerance", 1e-9)),
        _row(exp, "projection_idempotence", rep["idempotence"], 0.0,
             rep["idempotence"], 1e-12),
    ]
    n_arcs = exp.get("arcs", 3) if not isinstance(exp.get("arcs"), list) \
        else len(exp["arcs"])
    other = CoverData.standard(grid, n_arcs=n_arcs, family="poly-spline")
    w1 = omega_integral(cover, tau)
    w2 = omega_integral(other, winding_cocycle(other.deck_spec))
    rows.append(_row(exp, "omega_integral_bump_independence", w1, w2,
                     abs(w1 - w2), tol))
    return rows


def _run_chern(exp, seed):
    from .chern import bott_integral

    n = exp.get("chart_grid", 64)
    tol = exp.get("tolerance", 2e-3)
    val = bott_integral(n, r_max=exp.get("bott_radius", 0.42),
                        family=exp.get("bump_family", "mollifier"))
    return [_row(exp, "bott_normalization", val, 1.0, abs(val - 1.0),
                 tol)]


def _run_specflow(exp, seed):
    from .specflow import verify_oddind

    fc = exp.get("fourier_cutoff", 64)
    rows = []
    for m in exp.get("m_values", [1, 2]):
        rep = verify_oddind(fc, int(m), margin=exp.get("margin", 0.1),
                            shift=exp.get("shift", 0.5))
        rows.append(_row(exp, f"oddind_m{m}", rep["spfl"],
                         rep["rel_index_adjusted"],
                         abs(rep["spfl"] - rep["rel_index_adjusted"]),
                         0.5))
    return rows


def _run_cyclic(exp, seed):
    import math

    from .chern import chern_even
    from .cyclic import (chern_lambda, closed_cocycle_basis,
                         pair_cochain_form, random_closed_cocycle)
    from .group_algebra import GroupSpec
    from .nc_forms import CircleGrid, MixedForm, ScalarForm
    from .testing import random_projection_matrix

    tol = exp.get("tolerance", 1e-9)
    k = exp.get("k", 5)
    m_max = exp.get("m_max", 2)
    count = exp.get("instances", 5)
    rng = _exp_rng(seed, exp["id"])
    spec = GroupSpec.cyclic(k)
    grid = CircleGrid(4)
    worst = 0.0
    bases = {m: closed_cocycle_basis(spec, 2 * m)
             for m in range(1, m_max + 1)}
    for _ in range(count):
        p = random_projection_matrix(spec, 2, rng)
        P = MixedForm.zero(grid, spec, 2, kalg=2 * m_max + 2)
        P.add_term(ScalarForm.one(grid), (p,))
        ch = chern_even(P, m_max)
        chains = chern_lambda(p, m_max)
        # degree-0 pairing is the canonical trace on both sides
        trace_lhs = chains[0].terms.get((spec.identity(),), 0j)
        trace_rhs = ch.scalar_part().component(())[0]
        worst = max(worst, abs(trace_lhs - trace_rhs))
        for m in range(1, m_max + 1):
            if not bases[m]:
                continue
            phi = random_closed_cocycle(spec, 2 * m, rng, bases[m])
            lhs = chains[m].pair(phi)
            rhs = ((2j * np.pi) ** m * math.factorial(m)
                   * pair_cochain_form(phi, ch).component(())[0])
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    return [_row(exp, "normalization_bridge", worst, 0.0, worst, tol)]


_RUNNERS = {
    "toeplitz": _run_toeplitz,
    "covering-check": _run_covering,
    "chern-check": _run_chern,
    "specflow": _run_specflow,
    "cyclic-check": _run_cyclic,
}


def run_experiment(exp, seed):
    """Rows, wall time and error text of one experiment.

    Any exception becomes one failed row named after its type, and the
    error text carries its message.  One that is not a domain, arithmetic
    or value error is a fault of the program, so the error text also
    keeps its traceback.
    """
    start = time.perf_counter()
    try:
        rows = _RUNNERS[exp["kind"]](exp, exp.get("seed", seed))
        err = None
    except Exception as e:
        err = f"{type(e).__name__}: {e}"
        if not isinstance(e, (DomainError, ArithmeticError, ValueError)):
            err += "\n" + traceback.format_exc()
        rows = [{
            "experiment": exp["id"],
            "kind": exp["kind"],
            "check": type(e).__name__,
            "inputs": _inputs_summary(exp),
            "value": "error",
            "oracle": "",
            "residual": "inf",
            "tolerance": "",
            "passed": False,
        }]
    wall = time.perf_counter() - start
    return rows, wall, err


def run(config, out_dir=None, seed=None, overrides=None):
    """Run every experiment in the config; returns the exit code."""
    if isinstance(config, (str, Path)):
        try:
            with open(config) as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            print(f"config error: {e}", file=sys.stderr)
            return 1
    try:
        cfg = validate_config(config)
        if overrides:
            cfg = validate_config(_apply_overrides(cfg, overrides))
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    seed = cfg.get("seed", 0) if seed is None else seed
    exps = cfg["experiments"]

    results = {}
    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        futs = {pool.submit(run_experiment, exp, seed): exp["id"]
                for exp in exps}
        for fut in concurrent.futures.as_completed(futs):
            results[futs[fut]] = fut.result()

    rows, details = [], []
    for exp_id in sorted(results):
        exp_rows, wall, err = results[exp_id]
        exp_rows.sort(key=lambda r: r["check"])
        rows.extend(exp_rows)
        details.append({"experiment": exp_id, "wall_time_s": wall,
                        "error": err, "rows": exp_rows,
                        "seed": seed})

    out = Path(out_dir or cfg.get("out", "."))
    try:
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "report.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
            writer.writeheader()
            for r in rows:
                writer.writerow(r)
        with open(out / "report.json", "w") as fh:
            json.dump({"seed": seed, "experiments": details}, fh,
                      indent=2, default=str)
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 1

    failed = [r for r in rows if not r["passed"]]
    for r in rows:
        status = "pass" if r["passed"] else "FAIL"
        print(f"[{status}] {r['experiment']}/{r['check']}: "
              f"value={r['value']} oracle={r['oracle']} "
              f"residual={r['residual']}")
    return 2 if failed else 0


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
    overrides = {
        "grid_size": args.grid_size,
        "fourier_cutoff": args.fourier_cutoff,
        "tolerance": args.tolerance,
    }
    return run(args.config, out_dir=args.out, seed=args.seed,
               overrides=overrides)


if __name__ == "__main__":
    sys.exit(main())
