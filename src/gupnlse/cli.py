"""Command-line front end: config parsing, dispatch and data-file emission.

Subcommands: stationary, evolve, check, nu-curve, minlength.  Configuration
is a JSON document; command-line flags override document values.  Every run
writes a JSON manifest (resolved config echo, version, timings) next to the
command's data files, and re-running from that manifest reproduces the data
files byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .checks import SuiteConfig, format_report_table, run_all
from .deformation import DeformationModel, UnitsConfig
from .errors import GupnlseError, ParseError, ValidationError
from .evolution import EvolutionConfig, evolve
from .fields import (
    BOUNDARY_DIRICHLET,
    BOUNDARY_PERIODIC,
    Grid,
    _write_csv,
    gaussian_state,
    position_stats,
    save_wavefield,
)
from .stationary import (
    PotentialSpec,
    harmonic_analytic,
    min_position_uncertainty_scan,
    nu_of_q,
    solve_consistent,
)

COMMANDS = ("stationary", "evolve", "check", "nu-curve", "minlength")

_COMMON_KEYS = {"command", "output_dir", "seed", "hbar", "mass", "beta"}
_ALLOWED_KEYS = {
    "stationary": _COMMON_KEYS | {"zeta", "grid_points", "grid_extent"},
    "evolve": _COMMON_KEYS | {
        "zeta", "potential", "grid_points", "grid_extent", "boundary",
        "dt", "steps", "snapshot_every", "sigma", "center", "velocity",
    },
    "check": _COMMON_KEYS | {"betas", "grid_points", "steps", "dt"},
    "nu-curve": _COMMON_KEYS | {"q_min", "q_max", "n_points"},
    "minlength": _COMMON_KEYS | {"q_min", "q_max", "n_points"},
}


@dataclass
class RunConfig:
    command: str
    beta: float = 0.0
    zeta: float = 1.0
    hbar: float = 1.0
    mass: float = 1.0
    grid_points: int = 1024
    grid_extent: float = None  # half-width; None: sized from the state width
    boundary: str = BOUNDARY_DIRICHLET
    potential: str = "harmonic"
    dt: float = 1e-3
    steps: int = 1000
    snapshot_every: int = 0
    sigma: float = None
    center: float = 0.0
    velocity: float = 0.0
    q_min: float = 1e-2
    q_max: float = 1e2
    n_points: int = 200
    betas: tuple = (0.0, 1e-4, 1e-2, 1.0)
    output_dir: str = "out"
    seed: int = 0

    def units(self) -> UnitsConfig:
        return UnitsConfig(hbar=self.hbar, mass=self.mass)

    def model(self) -> DeformationModel:
        if self.beta > 0:
            return DeformationModel.gup(self.beta)
        return DeformationModel.identity()


def _validate(cfg: RunConfig) -> RunConfig:
    if cfg.command not in COMMANDS:
        raise ValidationError(f"command must be one of {COMMANDS}")
    if cfg.beta < 0:
        raise ValidationError("beta must be nonnegative")
    if cfg.zeta <= 0:
        raise ValidationError("zeta must be positive")
    if cfg.hbar <= 0 or cfg.mass <= 0:
        raise ValidationError("hbar and mass must be positive")
    if cfg.grid_points < 16:
        raise ValidationError("grid_points must be at least 16")
    if cfg.grid_extent is not None and cfg.grid_extent <= 0:
        raise ValidationError("grid_extent must be positive")
    if cfg.dt <= 0:
        raise ValidationError("dt must be positive")
    if cfg.steps < 1:
        raise ValidationError("steps must be at least 1")
    if cfg.snapshot_every < 0:
        raise ValidationError("snapshot_every must be nonnegative")
    if cfg.command in ("nu-curve", "minlength"):
        if not 0 < cfg.q_min < cfg.q_max:
            raise ValidationError("need 0 < q_min < q_max")
        if cfg.n_points < 2:
            raise ValidationError("n_points must be at least 2")
    if cfg.command == "minlength" and cfg.beta <= 0:
        raise ValidationError("minlength requires beta > 0")
    if cfg.boundary not in (BOUNDARY_DIRICHLET, BOUNDARY_PERIODIC):
        raise ValidationError("boundary must be dirichlet or periodic")
    if cfg.potential not in ("free", "harmonic"):
        raise ValidationError("potential must be free or harmonic")
    if any(b < 0 for b in cfg.betas):
        raise ValidationError("betas must be nonnegative")
    return cfg


def config_from_dict(doc: dict) -> RunConfig:
    if "config" in doc and isinstance(doc["config"], dict):
        doc = doc["config"]  # manifest echo: re-run from its config block
    if "command" not in doc:
        raise ParseError("missing required key: command")
    command = doc["command"]
    if command not in _ALLOWED_KEYS:
        raise ValidationError(f"command must be one of {COMMANDS}")
    unknown = sorted(set(doc) - _ALLOWED_KEYS[command])
    if unknown:
        raise ParseError(f"unknown keys for {command!r}: {', '.join(unknown)}")
    kwargs = dict(doc)
    if "betas" in kwargs:
        kwargs["betas"] = tuple(float(b) for b in kwargs["betas"])
    try:
        cfg = RunConfig(**kwargs)
    except TypeError as err:
        raise ParseError(str(err)) from None
    return _validate(cfg)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON configuration document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"line {err.lineno}, column {err.colno}: {err.msg}") from None
    if not isinstance(doc, dict):
        raise ParseError("configuration document must be a JSON object")
    return config_from_dict(doc)


def emit_nu_curve(q_min: float, q_max: float, n_points: int, output) -> Path:
    """CSV of q, nu(q), the 16 q^2 asymptote and their ratio, log-spaced in q."""
    if not 0 < q_min < q_max:
        raise ValidationError("need 0 < q_min < q_max")
    q = np.logspace(math.log10(q_min), math.log10(q_max), n_points)
    nu = nu_of_q(q)
    asym = 16 * q**2
    path = Path(output)
    _write_csv(path, ["q", "nu", "sixteen_q_sq", "ratio"], [q, nu, asym, nu / asym])
    return path


def _run_nu_curve(cfg: RunConfig, outdir: Path) -> list:
    path = outdir / "nu_curve.csv"
    emit_nu_curve(cfg.q_min, cfg.q_max, cfg.n_points, path)
    return [path.name]


def _run_minlength(cfg: RunConfig, outdir: Path) -> list:
    units = cfg.units()
    q = np.logspace(math.log10(cfg.q_min), math.log10(cfg.q_max), cfg.n_points)
    vals, infimum = min_position_uncertainty_scan(cfg.beta, q, units)
    csv_path = outdir / "minlength.csv"
    _write_csv(csv_path, ["q", "delta_x_sq"], [q, vals])
    target = units.hbar**2 * cfg.beta
    summary = {
        "beta": cfg.beta,
        "infimum_estimate": infimum,
        "minimal_length_sq": target,
        "relative_gap": infimum / target - 1.0,
        "monotone_decreasing": bool(np.all(np.diff(vals) < 0)),
    }
    spath = outdir / "minlength_summary.json"
    with open(spath, "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return [csv_path.name, spath.name]


def _stationary_grid(cfg: RunConfig) -> Grid:
    units = cfg.units()
    if cfg.grid_extent is not None:
        extent = cfg.grid_extent
    else:
        ana = harmonic_analytic(cfg.beta, cfg.zeta, units)
        extent = 10.0 * math.sqrt(ana.sigma_sq)
    return Grid.centered(extent, cfg.grid_points)


def _run_stationary(cfg: RunConfig, outdir: Path) -> list:
    units = cfg.units()
    grid = _stationary_grid(cfg)
    result = solve_consistent(grid, PotentialSpec.harmonic(cfg.zeta), cfg.model(), units)
    _, delta_x = position_stats(result.psi)
    ana = harmonic_analytic(cfg.beta, cfg.zeta, units)
    payload = {
        "beta": cfg.beta,
        "q": ana.q,
        "nu": result.W_params[0],
        "sigma_sq": 2.0 * delta_x[0] ** 2,
        "energy": result.energy,
        "W_params": list(result.W_params),
        "residual": result.residual,
        "iterations": result.iterations,
        "converged": result.converged,
        "analytic": {"nu": ana.nu, "sigma_sq": ana.sigma_sq},
    }
    jpath = outdir / "stationary_result.json"
    with open(jpath, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    cpath = outdir / "stationary_psi.csv"
    hpath = outdir / "stationary_psi_grid.json"
    save_wavefield(result.psi, cpath, hpath)
    return [jpath.name, cpath.name, hpath.name]


def _run_evolve(cfg: RunConfig, outdir: Path) -> list:
    units = cfg.units()
    model = cfg.model()
    potential = (PotentialSpec.harmonic(cfg.zeta) if cfg.potential == "harmonic"
                 else PotentialSpec.free())
    if cfg.sigma is not None:
        sigma = cfg.sigma
    else:
        ana = harmonic_analytic(cfg.beta, cfg.zeta, units)
        sigma = math.sqrt(ana.sigma_sq)
    if cfg.grid_extent is not None:
        extent = cfg.grid_extent
    else:
        extent = 10.0 * sigma + abs(cfg.center)
    grid = Grid.centered(extent, cfg.grid_points, boundary=cfg.boundary)
    psi0 = gaussian_state(grid, sigma, center=cfg.center,
                          phase_velocity=cfg.velocity if cfg.velocity else None,
                          units=units)
    econf = EvolutionConfig(dt=cfg.dt, steps=cfg.steps, model=model,
                            potential=potential, units=units,
                            snapshot_every=cfg.snapshot_every)
    traj = evolve(psi0, econf)
    names = ["t", "norm"]
    dims = grid.dims
    cols = [traj.times, traj.norms]
    for l in range(dims):
        names += [f"delta_x{l}", f"delta_p{l}", f"fisher{l}", f"W{l}"]
        cols += [
            np.array([s.delta_x[l] for s in traj.stats]),
            np.array([s.delta_p[l] for s in traj.stats]),
            np.array([s.fisher[l] for s in traj.stats]),
            traj.W_history[:, l],
        ]
    tpath = outdir / "trajectory.csv"
    _write_csv(tpath, names, cols)
    files = [tpath.name]
    if cfg.snapshot_every:
        for idx, (t, snap) in enumerate(traj.snapshots):
            cpath = outdir / f"snapshot_{idx:04d}.csv"
            hpath = outdir / f"snapshot_{idx:04d}_grid.json"
            save_wavefield(snap, cpath, hpath)
            files += [cpath.name, hpath.name]
    if traj.failure is not None:
        fpath = outdir / "evolve_failure.json"
        with open(fpath, "w") as fh:
            json.dump({"failed_step": traj.failed_step, "failure": traj.failure},
                      fh, indent=2)
            fh.write("\n")
        files.append(fpath.name)
    return files


def _run_check(cfg: RunConfig, outdir: Path) -> tuple:
    suite = SuiteConfig(betas=tuple(cfg.betas), grid_points=max(cfg.grid_points, 256),
                        evolve_steps=cfg.steps, dt=cfg.dt,
                        units=cfg.units(), seed=cfg.seed)
    reports = run_all(suite)
    jpath = outdir / "check_report.json"
    with open(jpath, "w") as fh:
        json.dump([r.to_dict() for r in reports], fh, indent=2)
        fh.write("\n")
    print(format_report_table(reports))
    failures = sum(0 if r.passed else 1 for r in reports)
    return [jpath.name], failures


def run(cfg: RunConfig) -> int:
    """Dispatch a validated config; returns the process exit code."""
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "version": __version__,
        "command": cfg.command,
        "config": {k: (list(v) if isinstance(v, tuple) else v)
                   for k, v in asdict(cfg).items()
                   if k in _ALLOWED_KEYS[cfg.command]},
        "timings": {},
        "outputs": [],
    }
    t0 = time.perf_counter()
    exit_code = 0
    try:
        if cfg.command == "nu-curve":
            manifest["outputs"] = _run_nu_curve(cfg, outdir)
        elif cfg.command == "minlength":
            manifest["outputs"] = _run_minlength(cfg, outdir)
        elif cfg.command == "stationary":
            manifest["outputs"] = _run_stationary(cfg, outdir)
        elif cfg.command == "evolve":
            manifest["outputs"] = _run_evolve(cfg, outdir)
        elif cfg.command == "check":
            manifest["outputs"], failures = _run_check(cfg, outdir)
            exit_code = 1 if failures else 0
            manifest["failures"] = failures
    except GupnlseError as err:
        manifest["error"] = f"{type(err).__name__}: {err}"
        exit_code = 2
        print(manifest["error"], file=sys.stderr)
    manifest["timings"]["wall_seconds"] = time.perf_counter() - t0
    with open(outdir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return exit_code


_FLAGS = {
    "beta": float,
    "zeta": float,
    "grid_points": int,
    "grid_extent": float,
    "dt": float,
    "steps": int,
    "seed": int,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gupnlse",
        description="Deformed-uncertainty nonlinear Schrodinger toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None,
                       help="JSON config document (or a previous manifest)")
        p.add_argument("--output", type=str, default=None, help="output directory")
        for flag, typ in _FLAGS.items():
            p.add_argument(f"--{flag.replace('_', '-')}", type=typ, default=None)
    args = parser.parse_args(argv)

    doc = {}
    if args.config:
        try:
            doc_text = Path(args.config).read_text()
        except OSError as err:
            print(f"cannot read config: {err}", file=sys.stderr)
            return 2
        try:
            parsed = json.loads(doc_text)
        except json.JSONDecodeError as err:
            print(f"ParseError: line {err.lineno}: {err.msg}", file=sys.stderr)
            return 2
        if isinstance(parsed, dict) and "config" in parsed:
            parsed = parsed["config"]
        if not isinstance(parsed, dict):
            print("ParseError: configuration document must be a JSON object",
                  file=sys.stderr)
            return 2
        doc.update(parsed)
    doc["command"] = args.command
    if args.output is not None:
        doc["output_dir"] = args.output
    for flag in _FLAGS:
        val = getattr(args, flag)
        if val is not None:
            doc[flag] = val
    # keys of another command are dropped, so that one document can serve
    # several commands; a key no command knows is left for config_from_dict
    # to report
    known = set().union(*_ALLOWED_KEYS.values())
    doc = {k: v for k, v in doc.items() if k in _ALLOWED_KEYS[args.command] or k not in known}
    try:
        cfg = config_from_dict(doc)
    except GupnlseError as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
