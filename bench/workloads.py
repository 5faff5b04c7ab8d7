"""Workloads of the gupnlse benchmark.

A workload is a list of *calls*: each one call into the public API or into
``gupnlse.cli.run``, short enough (mostly 0.05 to 0.3 s) that a run repeats
it many times.  A call object builds its inputs from a seed (the set-up that
``setup_s`` times), runs once (the part that is timed) and verifies its
output against the correctness gates (untimed).  Seed 0 gives the reference
configurations; other seeds scale the physical parameters (q, sigma, zeta) by
at most ``JITTER`` and let the check suite draw its own rescaling factor
kappa, while grid sizes and step counts stay fixed.

Functions of ``gupnlse`` are looked up as module attributes at call time,
never bound at import, so that the traced run sees its wrappers.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
from pathlib import Path

import numpy as np

import gupnlse as g
import gupnlse.cli

JITTER = 0.02
NORM_DRIFT_MAX = 1e-10


@dataclasses.dataclass
class PassResult:
    """Outcome of verified calls.

    ``attempted``/``failed`` count operations (one solve, one evolve run or
    one check); ``work`` is what ``ops_per_s`` divides by the call time
    (solves, evolution steps or checks); ``counts`` are exact, deterministic
    quantities recorded alongside the traced layer counts.
    """

    attempted: int
    failed: int = 0
    work: int = 0
    counts: dict = dataclasses.field(default_factory=dict)
    problems: list = dataclasses.field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def merge(self, other: "PassResult") -> None:
        """Add another call's outcome; counts add up, ``*_max`` counts take the maximum."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.work += other.work
        self.problems += other.problems
        for key, value in other.counts.items():
            old = self.counts.get(key, 0)
            self.counts[key] = max(old, value) if key.endswith("_max") else old + value


def _jitter(rng: np.random.Generator, seed: int) -> float:
    """Exactly 1 at seed 0, else a factor within 1 +- JITTER."""
    u = rng.random()
    return 1.0 if seed == 0 else 1.0 + JITTER * (2.0 * u - 1.0)


def _output_counts(out: Path) -> dict:
    """Data files written by the CLI; the manifest is left out because it
    records a wall-clock time, which would make the byte count vary."""
    files = [p for p in out.iterdir() if p.is_file() and p.name != "manifest.json"]
    return {"cli.files": len(files), "cli.output_bytes": sum(p.stat().st_size for p in files)}


def _read_csv(path: Path):
    with open(path) as fh:
        names = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return dict(zip(names, data.T))


class Solve:
    """``solve_consistent`` on a harmonic potential, gated against ``nu(q)``
    and sigma^2 within relative tolerances ``tol`` = (W, sigma^2)."""

    operations = 1

    def __init__(self, label, beta, n, dims, boundary, tol):
        self.label, self.tol = label, tol
        self.analytic = g.harmonic_analytic(beta, 1.0)
        self.grid = g.Grid.centered(10.0 * math.sqrt(self.analytic.sigma_sq), n, dims=dims,
                                    boundary=boundary)
        self.potential = g.PotentialSpec.harmonic(1.0)
        self.model = g.DeformationModel.gup(beta)

    def run(self, outdir: Path):
        try:
            return g.solve_consistent(self.grid, self.potential, self.model)
        except g.GupnlseError as err:
            return err

    def verify(self, r, outdir: Path) -> PassResult:
        res = PassResult(attempted=self.operations)
        if isinstance(r, Exception):
            res.fail(f"{self.label}: {type(r).__name__}: {r}")
            return res
        ana = self.analytic
        _, delta_x = g.position_stats(r.psi)
        w_err = max(abs(w - ana.nu) / ana.nu for w in r.W_params)
        s_err = max(abs(2.0 * d**2 - ana.sigma_sq) / ana.sigma_sq for d in delta_x)
        res.counts["stationary.nu_rel_err_max"] = w_err
        tol_w, tol_s = self.tol
        if not r.converged:
            res.fail(f"{self.label}: not converged")
        elif not (w_err <= tol_w and s_err <= tol_s):
            res.fail(f"{self.label}: W error {w_err:.3g} (tol {tol_w:g}), "
                     f"sigma^2 error {s_err:.3g} (tol {tol_s:g})")
        else:
            res.work = 1
        return res


class CliEvolve:
    """``cli.run`` on an evolve config, writing CSV output.  With
    ``delta_x_ground`` the run starts in the ground state, so its width must
    stay put."""

    operations = 1
    DELTA_X_RTOL = 1e-4

    def __init__(self, doc: dict, delta_x_ground: float | None = None):
        self.config = g.cli.config_from_dict(doc)
        self.label = f"evolve {self.config.boundary} beta={self.config.beta:g}"
        self.delta_x_ground = delta_x_ground

    def run(self, outdir: Path):
        return g.cli.run(dataclasses.replace(self.config, output_dir=str(outdir)))

    def verify(self, code, outdir: Path) -> PassResult:
        cfg, label = self.config, self.label
        res = PassResult(attempted=self.operations)
        if outdir.is_dir():
            res.counts.update(_output_counts(outdir))
        if code != 0:
            res.fail(f"{label}: exit code {code}")
            return res
        if (outdir / "evolve_failure.json").exists():
            res.fail(f"{label}: evolve_failure.json written")
            return res
        traj = _read_csv(outdir / "trajectory.csv")
        rows = len(traj["t"])
        drift = float(np.max(np.abs(traj["norm"] - traj["norm"][0])))
        problems = []
        if rows != cfg.steps + 1:
            problems.append(f"{rows} trajectory rows, expected {cfg.steps + 1}")
        if not drift <= NORM_DRIFT_MAX:
            problems.append(f"norm drift {drift:.3g}")
        if cfg.snapshot_every:
            snaps = len(list(outdir.glob("snapshot_*_grid.json")))
            if snaps != cfg.steps // cfg.snapshot_every + 1:
                problems.append(f"{snaps} snapshots")
        if self.delta_x_ground is not None:
            dev = float(np.max(np.abs(traj["delta_x0"] / self.delta_x_ground - 1.0)))
            if not dev <= self.DELTA_X_RTOL:
                problems.append(f"ground-state width moved by {dev:.3g}")
        if problems:
            res.fail(f"{label}: " + "; ".join(problems))
        else:
            res.work = rows - 1
        return res


class Evolve:
    """``evolve`` called directly, without output files."""

    operations = 1

    def __init__(self, psi0, config, label: str):
        self.psi0, self.config, self.label = psi0, config, label

    def run(self, outdir: Path):
        return g.evolve(self.psi0, self.config)

    def verify(self, traj, outdir: Path) -> PassResult:
        res = PassResult(attempted=self.operations)
        steps = len(traj.times) - 1
        drift = float(np.max(np.abs(traj.norms - traj.norms[0])))
        if traj.failure is not None:
            res.fail(f"{self.label}: {traj.failure}")
        elif steps != self.config.steps or not drift <= NORM_DRIFT_MAX:
            res.fail(f"{self.label}: {steps} steps, norm drift {drift:.3g}")
        else:
            res.work = steps
        return res


class CliCheck:
    """``cli.run`` on the ``check`` command; every check must pass."""

    CHECKS_PER_BETA = 10

    def __init__(self, doc: dict):
        self.config = g.cli.config_from_dict(doc)
        self.label = "check betas=" + ",".join(f"{b:g}" for b in self.config.betas)
        self.operations = self.CHECKS_PER_BETA * len(self.config.betas)

    def run(self, outdir: Path):
        # the command prints its report table; keep stdout for the result
        with contextlib.redirect_stdout(io.StringIO()):
            return g.cli.run(dataclasses.replace(self.config, output_dir=str(outdir)))

    def verify(self, code, outdir: Path) -> PassResult:
        res = PassResult(attempted=self.operations)
        path = outdir / "check_report.json"
        reports = json.loads(path.read_text()) if path.exists() else []
        failed = [r["name"] for r in reports if not r["passed"]]
        res.work = len(reports)
        res.counts.update({"checks.reports": len(reports), "checks.failed": len(failed)})
        if outdir.is_dir():
            res.counts.update(_output_counts(outdir))
        for name in failed:
            res.fail(f"check {name} failed")
        for _ in range(self.operations - len(reports)):
            res.fail("check missing from report")
        if len(reports) > self.operations:
            res.fail(f"{len(reports)} checks reported, expected {self.operations}")
        if code != 0 and not res.problems:
            res.fail(f"check command exit code {code}")
        return res


def stationary(seed: int, smoke: bool = False) -> list:
    """A 1D dirichlet sweep over q (tridiagonal eigen-path), one 1D periodic
    solve (dense eigen-path) and one 2D separable solve.  Tolerances are
    four to seven times the errors measured at the reference configuration."""
    rng = np.random.default_rng(seed)
    if smoke:
        qs, n_dir, n_per, n_2d = (0.1, 1.0), 512, 128, 128
        tol_dir, tol_per, tol_2d = (1e-3, 1e-3), (2.5e-2, 3e-3), (2.5e-2, 3e-3)
    else:
        qs, n_dir, n_per, n_2d = (0.01, 0.1, 0.5, 1.0, 2.0, 5.0), 4096, 256, 512
        tol_dir, tol_per, tol_2d = (3e-5, 2e-5), (5e-3, 1e-3), (1.5e-3, 3e-4)
    calls = [Solve(f"dirichlet q={q:g}", 2.0 * q * _jitter(rng, seed), n_dir, 1,
                   "dirichlet", tol_dir) for q in qs]
    calls.append(Solve("periodic", _jitter(rng, seed), n_per, 1, "periodic", tol_per))
    calls.append(Solve("separable 2D", _jitter(rng, seed), n_2d, 2, "dirichlet", tol_2d))
    return calls


def evolve(seed: int, smoke: bool = False) -> list:
    """Two ``cli.run`` evolve configs on small 1D grids with CSV output (a
    periodic spectral run at beta = 0.2 with snapshots, and the CLI default:
    identity model, dirichlet Crank-Nicolson) and a direct ``evolve`` on a
    128x128 periodic grid at beta = 0.2."""
    rng = np.random.default_rng(seed)
    if smoke:
        n_per, steps_per, every, n_id, steps_id, n_2d, steps_2d = 64, 200, 50, 128, 100, 48, 30
    else:
        n_per, steps_per, every, n_id, steps_id, n_2d, steps_2d = 256, 100, 10, 1024, 100, 128, 15
    periodic = dict(command="evolve", beta=0.2, boundary="periodic", grid_points=n_per,
                    grid_extent=12.0, sigma=0.85 * _jitter(rng, seed), dt=1e-3,
                    steps=steps_per, snapshot_every=every)
    zeta = _jitter(rng, seed)
    identity = dict(command="evolve", zeta=zeta, grid_points=n_id, steps=steps_id)
    grid = g.Grid.centered(12.0, n_2d, dims=2, boundary="periodic")
    config_2d = g.EvolutionConfig(dt=1e-3, steps=steps_2d, model=g.DeformationModel.gup(0.2),
                                  potential=g.PotentialSpec.harmonic(1.0))
    return [
        CliEvolve(periodic),
        CliEvolve(identity, math.sqrt(g.harmonic_analytic(0.0, zeta).sigma_sq / 2.0)),
        Evolve(g.gaussian_state(grid, 0.85 * _jitter(rng, seed)), config_2d, "evolve 2D"),
    ]


def check(seed: int, smoke: bool = False) -> list:
    """The ``check`` command, one call per beta of its default betas, with
    the check suite's own 200 plane-wave steps (``SuiteConfig.evolve_steps``)
    rather than the CLI's 1000, so that each call stays short."""
    if smoke:
        return [CliCheck(dict(command="check", seed=seed, betas=[b], steps=50, grid_points=256))
                for b in (0.0, 1e-2)]
    betas = g.cli.config_from_dict(dict(command="check")).betas
    steps = g.checks.SuiteConfig().evolve_steps
    return [CliCheck(dict(command="check", seed=seed, betas=[b], steps=steps)) for b in betas]


WORKLOADS = {
    "stationary": stationary,
    "evolve": evolve,
    "check": check,
}
