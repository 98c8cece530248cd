"""The three benchmark workloads: characters, operators and batch.

A workload turns a seed into inputs (`generate`, part of set-up): rounds
of verifier calls.  Each round starts with `prelude`, work that every
round pays for inside the timed part, so that the rate of checks does not
depend on how many rounds fit in a run.  Every round has the same kinds
and sizes of call; the seed changes only values (random matrices,
windings, numerators, arc jitter).  A call returns one `Outcome` per check: a
computed value compared with the oracle and tolerance that the
acceptance tests or the CLI use.

ncindex functions are looked up through their modules at call time, so
that the tracer's patches apply to calls made from here.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ncindex import chern, cli, cyclic, specflow, testing, toeplitz
from ncindex.group_algebra import GroupSpec
from ncindex.nc_forms import CircleGrid, MixedForm, ScalarForm

# rounds of distinct inputs generated at set-up; later rounds reuse them
POOL_ROUNDS = 2


@dataclass
class Outcome:
    check: str
    value: complex
    oracle: complex
    tol: float

    @property
    def passed(self):
        # a NaN residual compares False and fails
        return bool(abs(self.value - self.oracle) <= self.tol)


@dataclass
class Call:
    label: str
    checks: int                 # outcomes the call returns when it works
    fn: Callable[[dict], list]  # fn(prelude context) -> [Outcome]


# ---------------------------------------------------------------------
# characters: mixed-form algebra over Z/k, almost no LAPACK
# ---------------------------------------------------------------------


def _character(form, odd):
    def fn(ctx):
        ch = chern.chern_odd(form, 1) if odd else chern.chern_even(form, 1)
        defect = chern.closedness_defect(ch, ctx["cocycles"])
        return [Outcome("closedness", defect, 0.0, 1e-9)]
    return fn


def _bridge(p, phi_seed, m_max=2):
    """Cyclic Chern character chains against the character form
    (acceptance criterion 6): trace and pairings in degrees 2, 4."""
    def fn(ctx):
        spec = p.spec
        rng = np.random.default_rng(phi_seed)
        grid = CircleGrid(4)
        P = MixedForm.zero(grid, spec, 2, kalg=2 * m_max + 2)
        P.add_term(ScalarForm.one(grid), (p,))
        ch = chern.chern_even(P, m_max)
        chains = cyclic.chern_lambda(p, m_max)
        lhs = chains[0].terms.get((spec.identity(),), 0j)
        rhs = ch.scalar_part().component(())[0]
        worst = abs(lhs - rhs) / max(1.0, abs(lhs))
        for m in range(1, m_max + 1):
            basis = ctx["bases"][spec.order][2 * m]
            if not basis:
                continue
            phi = cyclic.random_closed_cocycle(spec, 2 * m, rng, basis)
            lhs = chains[m].pair(phi)
            rhs = ((2j * np.pi) ** m * math.factorial(m)
                   * cyclic.pair_cochain_form(phi, ch).component(())[0])
            worst = max(worst,
                        abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
        return [Outcome("normalization_bridge", worst, 0.0, 1e-9)]
    return fn


class Characters:
    """Character closedness over Z/3 and the cyclic/form normalization
    bridge over Z/5 and Z/7.  The prelude computes the closed-cocycle
    bases, including the Z/7 degree-4 one that every CLI cyclic-check
    over Z/7 pays for; a round is sized so that one round fills a run.

    A set is 4 projection characters, 2 unitary ones and one bridge over
    each group.  Sorted by latency, a round's 16 calls fall into three
    bands that never overlap: 4 unitary characters (~0.1 s), 10 projection
    characters and Z/5 bridges (0.3-0.7 s) and 2 Z/7 bridges (2-3 s), so
    the p50 sits in the middle of the wide band."""

    name = "characters"
    BASES = {3: (2, 3), 5: (2, 4), 7: (2, 4)}
    SETS_PER_ROUND = 2

    def __init__(self, seed, work):
        self.seed = seed

    def generate(self):
        rng = np.random.default_rng([self.seed, 1])
        grid = CircleGrid(6)
        z3 = GroupSpec.cyclic(3)
        rounds = []
        for _ in range(POOL_ROUNDS):
            calls = []
            for _ in range(self.SETS_PER_ROUND):
                for i in range(4):
                    P = testing.random_projection_form(grid, z3, 2, rng,
                                                       kalg=4)
                    calls.append(Call("projection", 1, _character(P, False)))
                    if i % 2 == 0:
                        u = testing.random_unitary_form(grid, z3, 2, rng,
                                                        kalg=3)
                        calls.append(Call("unitary", 1, _character(u, True)))
                for k in (5, 7):
                    p = testing.random_projection_matrix(
                        GroupSpec.cyclic(k), 2, rng, rank_choices=(1, 2))
                    seed = int(rng.integers(2 ** 63))
                    calls.append(Call(f"bridge-z{k}", 1, _bridge(p, seed)))
            rounds.append(calls)
        return rounds

    def prelude(self, orders=(3, 5, 7)):
        bases = {k: {d: cyclic.closed_cocycle_basis(GroupSpec.cyclic(k), d)
                     for d in self.BASES[k]} for k in orders}
        return {"bases": bases,
                "cocycles": [c for d in (2, 3) for c in bases[3][d]]}

    def warm(self, rounds):
        """Untimed: one call of each kind that needs no Z/7 basis."""
        ctx = self.prelude(orders=(3, 5))
        seen = set()
        for call in rounds[0]:
            if call.label not in seen and call.label != "bridge-z7":
                seen.add(call.label)
                call.fn(ctx)


# ---------------------------------------------------------------------
# operators: dense decompositions, no mixed forms
# ---------------------------------------------------------------------


def _circle_tau(m, fc):
    def fn(ctx):
        system = toeplitz.CircleSystem(grid_n=256)
        u = system.exponential(m)
        ti = toeplitz.tau_index(toeplitz.assemble_toeplitz(system, u, fc))
        return [
            Outcome("tau_vs_formula", ti,
                    toeplitz.dynsys_formula(system, u), 0.05),
            Outcome("tau_vs_winding", ti,
                    toeplitz.winding_index(system, u), 0.05),
        ]
    return fn


def _rotation_tau(p, q, fc):
    def fn(ctx):
        system = toeplitz.RotationSystem(p, q)
        v = system.v()
        ti = toeplitz.tau_index(toeplitz.assemble_toeplitz(system, v, fc))
        return [
            Outcome("tau_vs_formula", ti,
                    toeplitz.dynsys_formula(system, v), 0.05),
            Outcome("tau_is_minus_one", ti, -1.0, 0.05),
        ]
    return fn


def _oddind(fc, m):
    def fn(ctx):
        rep = specflow.verify_oddind(fc, m)
        return [Outcome("spfl_vs_rel_index", rep["spfl"],
                        rep["rel_index_adjusted"], 0.5)]
    return fn


def _path_flow(fc, shift):
    """Path D + shift + t through one eigenvalue crossing (criterion 7)."""
    def fn(ctx):
        n = 2 * fc + 1
        D = specflow.truncated_dirac(fc) + shift * np.eye(n)
        path = specflow.SelfAdjointPath.from_callable(
            lambda t: D + t * np.eye(n), delta_c=0.2)
        return [Outcome("spfl_is_one", specflow.spectral_flow(path), 1, 0)]
    return fn


class Operators:
    """Toeplitz indices of circle and rotation systems and spectral flow
    at mode cutoffs whose matrices fit in L2 (64) and outgrow it (256)."""

    name = "operators"

    def __init__(self, seed, work):
        self.seed = seed

    def generate(self):
        rng = np.random.default_rng([self.seed, 2])
        windings = (-3, -2, -1, 1, 2, 3)
        rounds = []
        for _ in range(POOL_ROUNDS):
            calls = []
            # every kind at F_c=64 first, then at the large cutoffs: the
            # first 8 calls are the traced run's overhead slice
            for fc, rot_fc in ((64, 64), (128, 256)):
                m = int(rng.choice(windings))
                calls.append(Call(f"circle-tau-{fc}", 2, _circle_tau(m, fc)))
                for q in (3, 5, 6):
                    p = int(rng.choice([p for p in range(1, q)
                                        if math.gcd(p, q) == 1]))
                    calls.append(Call(f"rotation-tau-q{q}-{rot_fc}", 2,
                                      _rotation_tau(p, q, rot_fc)))
                for m in (1, 2, 3):
                    calls.append(Call(f"oddind-{fc}", 1, _oddind(fc, m)))
                shift = float(rng.uniform(0.3, 0.7))
                calls.append(Call(f"path-flow-{fc}", 1,
                                  _path_flow(fc, shift)))
            rounds.append(calls)
        return rounds

    def prelude(self):
        return {}

    def warm(self, rounds):
        """Untimed: the largest size of each kind, so that first-call
        costs (the first circle tau_index at F_c=128 takes twice as
        long) stay out of the timed part."""
        for label in ("circle-tau-128", "rotation-tau-q6-256", "oddind-128",
                      "path-flow-128"):
            next(c for c in rounds[0] if c.label == label).fn({})


# ---------------------------------------------------------------------
# batch: the CLI on a generated config of all five kinds
# ---------------------------------------------------------------------

_FAMILIES = ("mollifier", "raised-cosine", "poly-spline")


def _jittered_arcs(n, rng):
    """n arcs with jittered ends and the lattice deck of a circle cover,
    as in the flat-projection property suite."""
    ov = 1.0 / (2 * n)
    jit = rng.uniform(-0.2, 0.2, size=2 * n) * ov
    arcs = [[i / n - ov / 2 + jit[2 * i],
             (i + 1) / n + ov / 2 + jit[2 * i + 1]] for i in range(n)]
    deck = [[0] * n for _ in range(n)]
    deck[n - 1][0] = 1
    deck[0][n - 1] = -1
    return arcs, deck


def batch_config(rng):
    """Config covering all five CLI kinds; the heaviest rows come first so
    that the pool starts them together on every run."""
    exps = []
    for n, grid, family in ((4, 1024, "raised-cosine"), (3, 4096, "mollifier"),
                            (3, 1024, "poly-spline")):
        arcs, deck = _jittered_arcs(n, rng)
        exps.append({"id": f"covering-{n}arcs-{grid}",
                     "kind": "covering-check", "arcs": arcs, "deck": deck,
                     "bump_family": family, "grid_size": grid,
                     "tolerance": 1e-8})
    exps.append({"id": "covering-torsion", "kind": "covering-check",
                 "arcs": 3, "deck_order": 3, "grid_size": 1024,
                 "tolerance": 1e-8})
    for grid, tol in ((64, 2e-3), (128, 2e-4)):
        exps.append({"id": f"chern-bott-{grid}", "kind": "chern-check",
                     "chart_grid": grid, "tolerance": tol})
    exps.append({"id": "toeplitz-circle", "kind": "toeplitz",
                 "system": "circle",
                 "u": {"type": "exp", "m": int(rng.choice([-3, -2, -1, 1, 2,
                                                           3]))},
                 "fourier_cutoff": 64, "grid_size": 256, "tolerance": 0.05})
    exps.append({"id": "toeplitz-rotation", "kind": "toeplitz",
                 "system": "rotation", "p": int(rng.integers(1, 5)), "q": 5,
                 "u": {"type": "shift-generator"}, "fourier_cutoff": 64,
                 "tolerance": 0.05})
    exps.append({"id": "specflow-odd", "kind": "specflow",
                 "fourier_cutoff": 64, "m_values": [1, 2], "margin": 0.1})
    exps.append({"id": "cyclic-bridge", "kind": "cyclic-check", "k": 5,
                 "m_max": 2, "instances": 2, "tolerance": 1e-9})
    return {"seed": int(rng.integers(2 ** 31)), "experiments": exps}


def expected_rows(cfg):
    """Report rows the CLI writes for the config when nothing errors."""
    total = 0
    for exp in cfg["experiments"]:
        kind = exp["kind"]
        if kind == "covering-check":
            total += 2 if exp.get("deck_order") else 4
        elif kind == "toeplitz":
            total += 4      # formula, winding, integrality, expected
        elif kind == "specflow":
            total += len(exp["m_values"])
        else:
            total += 1
    return total


def _cli_run(path, out_dir):
    def fn(ctx):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run(str(path), out_dir=str(out_dir))
        if code == 1:
            raise RuntimeError("ncindex rejected the config or its output "
                               "directory")
        with open(out_dir / "report.json") as fh:
            report = json.load(fh)
        outcomes = []
        for exp in report["experiments"]:
            for row in exp["rows"]:
                # an error row has passed=False and counts as failed
                outcomes.append(Outcome(f"{row['experiment']}/{row['check']}",
                                        0.0 if row["passed"] else 1.0,
                                        0.0, 0.0))
        return outcomes
    return fn


class Batch:
    """`ncindex.cli.run` in-process on generated configs; the only
    workload that runs the CLI's thread pool."""

    name = "batch"

    def __init__(self, seed, work):
        self.seed = seed
        self.work = work

    def generate(self):
        rng = np.random.default_rng([self.seed, 3])
        self.work.mkdir(parents=True, exist_ok=True)
        rounds = []
        for i in range(POOL_ROUNDS):
            cfg = batch_config(rng)
            path = self.work / f"batch-config-{i}.json"
            with open(path, "w") as fh:
                json.dump(cfg, fh, indent=1)
            rounds.append([Call("cli-run", expected_rows(cfg),
                                _cli_run(path, self.work / "report"))])
        return rounds

    def prelude(self):
        return {}

    def warm(self, rounds):
        """No warm-up: the first CLI run of a run starts as cold as a
        user's `ncindex --config`, and every run has one."""


WORKLOADS = {w.name: w for w in (Characters, Operators, Batch)}
