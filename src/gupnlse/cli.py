"""Command-line front end: config parsing, dispatch and data-file emission.

Subcommands: stationary, evolve, check, nu-curve, minlength.  Configuration
is a JSON document; command-line flags override document values.  A command
takes, flags and echoes only the settings it reads (``_COMMANDS``).  Every run
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
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, NamedTuple, get_type_hints

import numpy as np

from . import __version__
from .checks import SuiteConfig, format_report_table, run_all
from .deformation import DeformationModel, UnitsConfig
from .errors import GupnlseError, ParseError, ValidationError
from .evolution import EvolutionConfig, evolve
from .fields import (
    BOUNDARY_DIRICHLET,
    Grid,
    _wavefield_text,
    _write_csv,
    _write_json,
    _write_wavefield,
    gaussian_state,
    position_stats,
    save_wavefield,
)
from .stationary import (
    HarmonicAnalytic,
    PotentialSpec,
    harmonic_analytic,
    min_position_uncertainty_scan,
    nu_of_q,
    solve_consistent,
)

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
    betas: tuple = SuiteConfig.betas
    output_dir: str = "out"
    seed: int = 0

    def units(self) -> UnitsConfig:
        return UnitsConfig(hbar=self.hbar, mass=self.mass)

    def model(self) -> DeformationModel:
        return DeformationModel(self.beta)

    def analytic(self) -> HarmonicAnalytic:
        """The closed-form deformed harmonic ground state of beta, zeta and the units."""
        return harmonic_analytic(self.beta, self.zeta, self.units())

    def grid(self, width: float, boundary: str = BOUNDARY_DIRICHLET) -> Grid:
        """grid_points over +-grid_extent or, when that is unset, over 10
        widths of the state past |center|."""
        extent = 10.0 * width + abs(self.center) if self.grid_extent is None else self.grid_extent
        return Grid.centered(extent, self.grid_points, boundary=boundary)


def _validate(cfg: RunConfig) -> RunConfig:
    # the value types check units, every beta, zeta and the step settings
    # here, and the grid (boundary, spacing) when a command builds it
    cfg.units()
    EvolutionConfig(cfg.dt, cfg.steps, cfg.model(), PotentialSpec.harmonic(cfg.zeta),
                    cfg.snapshot_every)
    for beta in cfg.betas:
        DeformationModel(beta)
    # float tests are negated comparisons, so that nan and +-inf fail them
    if cfg.grid_points < 16:
        raise ValidationError("grid_points must be at least 16")
    if cfg.grid_extent is not None and not 0 < cfg.grid_extent < math.inf:
        raise ValidationError("grid_extent must be positive and finite")
    if cfg.sigma is not None and not 0 < cfg.sigma < math.inf:
        raise ValidationError("sigma must be positive and finite")
    if not (math.isfinite(cfg.center) and math.isfinite(cfg.velocity)):
        raise ValidationError("center and velocity must be finite")
    if not 0 < cfg.q_min < cfg.q_max < math.inf:
        raise ValidationError("need 0 < q_min < q_max, both finite")
    if cfg.n_points < 2:
        raise ValidationError("n_points must be at least 2")
    if cfg.command == "minlength" and cfg.beta <= 0:
        raise ValidationError("minlength requires beta > 0")
    if cfg.potential not in ("free", "harmonic"):
        raise ValidationError("potential must be free or harmonic")
    return cfg


def _is_number(v) -> bool:
    # JSON true and false arrive as bool, a subclass of int, but count nothing
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# the JSON value each annotation of RunConfig accepts; None only where it is the default
_JSON_TYPES = {
    "float": ("a number", _is_number),
    "int": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "tuple": ("a list of numbers", lambda v: isinstance(v, (list, tuple)) and all(map(_is_number, v))),
}


def _check_types(doc: dict) -> None:
    for f in fields(RunConfig):
        if f.name in doc and not (doc[f.name] is None and f.default is None):
            what, accepts = _JSON_TYPES[f.type]
            if not accepts(doc[f.name]):
                raise ValidationError(f"{f.name} must be {what}, not {doc[f.name]!r}")


def _settings(doc) -> dict:
    """A document's settings or, of a manifest, its config block's: a JSON object."""
    if isinstance(doc, dict) and "config" in doc:
        doc = doc["config"]  # manifest echo: re-run from its config block
    if not isinstance(doc, dict):
        raise ParseError("configuration document must be a JSON object")
    return doc


def config_from_dict(doc: dict) -> RunConfig:
    """The validated RunConfig of a document or of a manifest's config block.
    Keys that only another command reads are dropped, so that one document
    can serve several commands; a key that no command reads raises ParseError."""
    doc = _settings(doc)
    if "command" not in doc:
        raise ParseError("missing required key: command")
    command = doc["command"]
    if not isinstance(command, str) or command not in _COMMANDS:
        raise ValidationError(f"command must be one of {tuple(_COMMANDS)}")
    unknown = sorted(set(doc).difference(*(c.keys() for c in _COMMANDS.values())))
    if unknown:
        raise ParseError(f"unknown keys for {command!r}: {', '.join(unknown)}")
    kwargs = {k: v for k, v in doc.items() if k in _COMMANDS[command].keys()}
    _check_types(kwargs)
    if "betas" in kwargs:
        kwargs["betas"] = tuple(float(b) for b in kwargs["betas"])
    return _validate(RunConfig(**kwargs))


def _load_document(text: str) -> dict:
    """The JSON object of a configuration document; of a manifest, its config block."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"line {err.lineno}, column {err.colno}: {err.msg}") from None
    return _settings(doc)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON configuration document."""
    return config_from_dict(_load_document(text))


def emit_nu_curve(q_min: float, q_max: float, n_points: int, output) -> Path:
    """CSV of q, nu(q), the 16 q^2 asymptote and their ratio, log-spaced in
    q, for 0 < q_min < q_max (which a validated RunConfig holds)."""
    q = np.logspace(math.log10(q_min), math.log10(q_max), n_points)
    nu = nu_of_q(q)
    asym = 16 * q**2
    path = Path(output)
    _write_csv(path, ["q", "nu", "sixteen_q_sq", "ratio"], [q, nu, asym, nu / asym])
    return path


def _run_nu_curve(cfg: RunConfig, outdir: Path) -> dict:
    path = outdir / "nu_curve.csv"
    emit_nu_curve(cfg.q_min, cfg.q_max, cfg.n_points, path)
    return {"outputs": [path.name]}


def _run_minlength(cfg: RunConfig, outdir: Path) -> dict:
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
    _write_json(spath, summary)
    return {"outputs": [csv_path.name, spath.name]}


def _run_stationary(cfg: RunConfig, outdir: Path) -> dict:
    ana = cfg.analytic()
    result = solve_consistent(cfg.grid(math.sqrt(ana.sigma_sq)), PotentialSpec.harmonic(cfg.zeta),
                              cfg.model(), cfg.units())
    _, delta_x = position_stats(result.psi)
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
        "eigen_residual": result.eigen_residual,
        "history": [[list(step) for step in axis] for axis in result.history],
        "analytic": {"nu": ana.nu, "sigma_sq": ana.sigma_sq},
    }
    jpath = outdir / "stationary_result.json"
    _write_json(jpath, payload)
    cpath = outdir / "stationary_psi.csv"
    hpath = outdir / "stationary_psi_grid.json"
    save_wavefield(result.psi, cpath, hpath)
    return {"outputs": [jpath.name, cpath.name, hpath.name]}


def _run_evolve(cfg: RunConfig, outdir: Path) -> dict:
    units = cfg.units()
    potential = (PotentialSpec.harmonic(cfg.zeta) if cfg.potential == "harmonic"
                 else PotentialSpec.free())
    sigma = cfg.sigma if cfg.sigma is not None else math.sqrt(cfg.analytic().sigma_sq)
    grid = cfg.grid(sigma, cfg.boundary)
    psi0 = gaussian_state(grid, sigma, center=cfg.center,
                          phase_velocity=cfg.velocity if cfg.velocity else None,
                          units=units)
    traj = evolve(psi0, EvolutionConfig(dt=cfg.dt, steps=cfg.steps, model=cfg.model(),
                                        potential=potential,
                                        snapshot_every=cfg.snapshot_every))
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
        text = _wavefield_text(grid, units)  # every snapshot's coordinates and header
        for idx, (t, snap) in enumerate(traj.snapshots):
            cpath = outdir / f"snapshot_{idx:04d}.csv"
            hpath = outdir / f"snapshot_{idx:04d}_grid.json"
            _write_wavefield(snap.values, text, cpath, hpath)
            files += [cpath.name, hpath.name]
    if traj.failure is not None:
        fpath = outdir / "evolve_failure.json"
        _write_json(fpath, {"failed_step": traj.failed_step, "failure": traj.failure})
        files.append(fpath.name)
    return {"outputs": files}


def _run_check(cfg: RunConfig, outdir: Path) -> dict:
    suite = SuiteConfig(betas=tuple(cfg.betas), grid_points=cfg.grid_points,
                        evolve_steps=cfg.steps, dt=cfg.dt,
                        units=cfg.units(), seed=cfg.seed)
    reports = run_all(suite)
    jpath = outdir / "check_report.json"
    _write_json(jpath, [r.to_dict() for r in reports])
    print(format_report_table(reports))
    return {"outputs": [jpath.name], "failures": sum(0 if r.passed else 1 for r in reports)}


class _Command(NamedTuple):
    """A command's runner, which returns its manifest entries, and the
    settings it reads: those a command-line flag also sets, then those only
    a document sets.  Every command also reads command and output_dir."""

    run: Callable[[RunConfig, Path], dict]
    flags: tuple
    settings: tuple

    def keys(self) -> set:
        return {"command", "output_dir", *self.flags, *self.settings}


_COMMANDS = {
    "stationary": _Command(_run_stationary, ("beta", "zeta", "grid_points", "grid_extent"),
                           ("hbar", "mass")),
    "evolve": _Command(_run_evolve, ("beta", "zeta", "grid_points", "grid_extent", "dt", "steps"),
                       ("hbar", "mass", "potential", "boundary", "snapshot_every", "sigma",
                        "center", "velocity")),
    "check": _Command(_run_check, ("grid_points", "steps", "dt", "seed"), ("hbar", "mass", "betas")),
    "nu-curve": _Command(_run_nu_curve, (), ("q_min", "q_max", "n_points")),
    "minlength": _Command(_run_minlength, ("beta",), ("hbar", "q_min", "q_max", "n_points")),
}


def run(cfg: RunConfig) -> int:
    """Dispatch a validated config; returns the process exit code."""
    command = _COMMANDS[cfg.command]
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    keys = command.keys()
    manifest = {
        "version": __version__,
        "command": cfg.command,
        "config": {f.name: (list(v) if isinstance(v := getattr(cfg, f.name), tuple) else v)
                   for f in fields(RunConfig) if f.name in keys},
        "timings": {},
        "outputs": [],
    }
    t0 = time.perf_counter()
    try:
        manifest.update(command.run(cfg, outdir))  # check adds its count of failures
        exit_code = 1 if manifest.get("failures") else 0
    except GupnlseError as err:
        manifest["error"] = f"{type(err).__name__}: {err}"
        exit_code = 2
        print(manifest["error"], file=sys.stderr)
    manifest["timings"]["wall_seconds"] = time.perf_counter() - t0
    _write_json(outdir / "manifest.json", manifest)
    return exit_code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gupnlse",
        description="Deformed-uncertainty nonlinear Schrodinger toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    types = get_type_hints(RunConfig)  # the annotations _check_types reads
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None,
                       help="JSON config document (or a previous manifest)")
        p.add_argument("--output", dest="output_dir", help="output directory")
        for flag in command.flags:
            p.add_argument(f"--{flag.replace('_', '-')}", type=types[flag])
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text() if args.config else "{}"
    except OSError as err:
        print(f"cannot read config: {err}", file=sys.stderr)
        return 2
    try:
        doc = _load_document(text)
        doc["command"] = args.command
        for key in ("output_dir", *_COMMANDS[args.command].flags):
            val = getattr(args, key)
            if val is not None:
                doc[key] = val
        cfg = config_from_dict(doc)
    except GupnlseError as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
