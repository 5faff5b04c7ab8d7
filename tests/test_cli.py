"""Configuration parsing, data-file emission and the command-line surface."""

import json
import math

import numpy as np
import pytest

import gupnlse as g
from gupnlse import GupnlseError, ParseError, ValidationError, nu_of_q
from gupnlse.cli import (
    RunConfig,
    config_from_dict,
    emit_nu_curve,
    main,
    parse_config,
    run,
)


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [[float(v) for v in line.split(",")] for line in fh if line.strip()]
    return header, np.array(rows)


GRID = g.Grid.centered(4.0, 32)


@pytest.mark.parametrize("make", [
    lambda: g.Grid((8,), (0.1,), (0.0,)),
    lambda: g.Grid.centered(1e308, 64),
    lambda: g.Grid.centered(4.0, 32, boundary="ring"),
    lambda: g.WaveField(GRID, np.zeros(31)),
    lambda: g.UnitsConfig(hbar=0.0),
    lambda: g.DeformationModel(math.nan),
    lambda: g.PotentialSpec.harmonic(-1.0),
    lambda: g.PotentialSpec("cubic"),
    lambda: g.Hamiltonian(GRID, g.PotentialSpec.free(), (0.0, 0.0), g.UnitsConfig()),
    lambda: g.EvolutionConfig(0.0, 10, g.DeformationModel(), g.PotentialSpec.free()),
], ids=["grid-points", "grid-span", "grid-boundary", "wavefield-shape", "units", "beta",
        "zeta", "potential-kind", "hamiltonian-W", "evolution-dt"])
def test_value_type_rejection_is_a_validation_error(make):
    # one exception type that callers of the standard library and of the
    # package both catch; the command line validates by building these types
    with pytest.raises(ValidationError) as err:
        make()
    assert isinstance(err.value, ValueError) and isinstance(err.value, GupnlseError)


class TestParseConfig:
    def test_minimal_document_fills_defaults(self):
        cfg = parse_config('{"command": "minlength", "beta": 1.0}')
        assert cfg.command == "minlength"
        assert cfg.beta == 1.0
        assert cfg.q_min == 1e-2 and cfg.q_max == 1e2 and cfg.n_points == 200
        assert cfg.hbar == 1.0 and cfg.mass == 1.0
        assert cfg.output_dir == "out"

    def test_negative_beta_rejected(self):
        with pytest.raises(ValidationError, match="beta must be nonnegative"):
            parse_config('{"command": "minlength", "beta": -1}')

    def test_unknown_key_listed(self):
        with pytest.raises(ParseError, match="frobnicate"):
            parse_config('{"command": "nu-curve", "frobnicate": 3}')

    def test_malformed_json_reports_line(self):
        with pytest.raises(ParseError, match="line"):
            parse_config('{"command": "nu-curve",\n  oops}')

    def test_non_object_document(self):
        with pytest.raises(ParseError):
            parse_config("[1, 2, 3]")

    def test_missing_command(self):
        with pytest.raises(ParseError, match="command"):
            parse_config('{"beta": 1.0}')

    def test_bad_command(self):
        with pytest.raises(ValidationError):
            parse_config('{"command": "explode"}')

    def test_validation_messages(self):
        with pytest.raises(ValidationError, match="q_min"):
            config_from_dict({"command": "minlength", "beta": 1.0, "q_min": 5.0, "q_max": 1.0})
        with pytest.raises(ValidationError, match="grid_points"):
            config_from_dict({"command": "stationary", "grid_points": 4})

    def test_manifest_reparse(self):
        manifest = {"version": "x", "config": {"command": "minlength", "beta": 2.0}}
        cfg = config_from_dict(manifest)
        assert cfg.beta == 2.0


class TestNuCurve:
    def test_known_rows(self, tmp_path):
        path = emit_nu_curve(1.0, 100.0, 3, tmp_path / "nu.csv")
        header, rows = read_csv(path)
        assert header == ["q", "nu", "sixteen_q_sq", "ratio"]
        q1 = rows[0]
        assert q1[0] == 1.0
        assert q1[1] == pytest.approx(15.98528137423857, rel=1e-12)
        assert q1[2] == 16.0
        assert q1[3] == pytest.approx(0.99908, abs=1e-5)

    def test_small_q_value(self, tmp_path):
        path = emit_nu_curve(0.01, 1.0, 2, tmp_path / "nu.csv")
        _, rows = read_csv(path)
        assert rows[0][1] == pytest.approx(0.0407060097490176, rel=1e-10)

    def test_ratio_approaches_one_from_below_at_large_q(self, tmp_path):
        path = emit_nu_curve(0.01, 100.0, 120, tmp_path / "nu.csv")
        _, rows = read_csv(path)
        q, ratio = rows[:, 0], rows[:, 3]
        tail = q >= 4.0
        assert np.all(np.diff(ratio[tail]) > 0)
        assert np.all(ratio[tail] < 1.0)
        assert ratio[-1] == pytest.approx(1.0, abs=1e-4)

    def test_full_precision_roundtrip(self, tmp_path):
        path = emit_nu_curve(0.37, 41.0, 7, tmp_path / "nu.csv")
        _, rows = read_csv(path)
        # 17 significant digits reproduce the float64 values exactly
        assert rows[1][1] == nu_of_q(rows[1][0])


class TestRunCommands:
    def test_minlength_outputs(self, tmp_path):
        cfg = config_from_dict({"command": "minlength", "beta": 1.0,
                                "output_dir": str(tmp_path / "ml")})
        assert run(cfg) == 0
        summary = json.loads((tmp_path / "ml" / "minlength_summary.json").read_text())
        assert summary["monotone_decreasing"] is True
        assert summary["minimal_length_sq"] == 1.0
        assert abs(summary["relative_gap"]) <= 2e-4
        header, rows = read_csv(tmp_path / "ml" / "minlength.csv")
        assert header == ["q", "delta_x_sq"]
        assert np.all(np.diff(rows[:, 1]) < 0)

    def test_stationary_outputs(self, tmp_path):
        cfg = config_from_dict({"command": "stationary", "beta": 0.2,
                                "output_dir": str(tmp_path / "st")})
        assert run(cfg) == 0
        res = json.loads((tmp_path / "st" / "stationary_result.json").read_text())
        assert res["converged"] is True
        assert res["q"] == pytest.approx(0.1)
        assert res["nu"] == pytest.approx(res["analytic"]["nu"], rel=1e-4)
        assert res["sigma_sq"] == pytest.approx(res["analytic"]["sigma_sq"], rel=1e-4)
        assert (tmp_path / "st" / "stationary_psi.csv").exists()
        (history,) = res["history"]  # (W_k, C F_k) of every solve of the one axis
        assert len(history) == res["iterations"]
        assert history[-1][0] == res["nu"]
        assert 0.0 < res["eigen_residual"] <= 1e-9 * res["energy"]
        manifest = json.loads((tmp_path / "st" / "manifest.json").read_text())
        assert manifest["command"] == "stationary"
        assert "wall_seconds" in manifest["timings"]

    def test_evolve_outputs(self, tmp_path):
        cfg = config_from_dict({
            "command": "evolve", "beta": 0.1, "potential": "harmonic",
            "grid_points": 256, "boundary": "periodic", "dt": 2e-3, "steps": 50,
            "snapshot_every": 25, "output_dir": str(tmp_path / "ev"),
        })
        assert run(cfg) == 0
        header, rows = read_csv(tmp_path / "ev" / "trajectory.csv")
        assert header == ["t", "norm", "delta_x0", "delta_p0", "fisher0", "W0"]
        assert rows.shape[0] == 51
        assert np.max(np.abs(rows[:, 1] - 1.0)) <= 1e-8
        assert (tmp_path / "ev" / "snapshot_0002.csv").exists()

    def test_evolve_snapshots_are_save_wavefield_bytes(self, tmp_path):
        """The snapshots, written from text formatted once per run, are the
        files save_wavefield writes for the same run's states."""
        from gupnlse import (DeformationModel, EvolutionConfig, Grid, PotentialSpec, evolve,
                             gaussian_state, save_wavefield)

        cfg = config_from_dict({
            "command": "evolve", "beta": 0.2, "boundary": "periodic", "grid_points": 256,
            "grid_extent": 12.0, "sigma": 0.85, "steps": 100, "snapshot_every": 10,
            "output_dir": str(tmp_path / "ev"),
        })
        assert run(cfg) == 0
        psi0 = gaussian_state(Grid.centered(12.0, 256, boundary="periodic"), 0.85)
        traj = evolve(psi0, EvolutionConfig(dt=1e-3, steps=100, model=DeformationModel.gup(0.2),
                                            potential=PotentialSpec.harmonic(1.0),
                                            snapshot_every=10))
        assert len(traj.snapshots) == 11
        for idx, (_, snap) in enumerate(traj.snapshots):
            save_wavefield(snap, tmp_path / "ref.csv", tmp_path / "ref.json")
            for ours, ref in ((f"snapshot_{idx:04d}.csv", "ref.csv"),
                              (f"snapshot_{idx:04d}_grid.json", "ref.json")):
                assert (tmp_path / "ev" / ours).read_bytes() == (tmp_path / ref).read_bytes()

    def test_check_exit_code_and_report(self, tmp_path):
        cfg = config_from_dict({"command": "check", "betas": [0.0, 0.01],
                                "steps": 40, "output_dir": str(tmp_path / "ck")})
        code = run(cfg)
        report = json.loads((tmp_path / "ck" / "check_report.json").read_text())
        assert code == 0
        assert all(r["passed"] for r in report)
        assert {"name", "passed", "measured", "bound", "details"} == set(report[0])

    def test_check_runs_at_the_requested_grid_points(self, tmp_path):
        from gupnlse.checks import SuiteConfig, run_all

        doc = tmp_path / "check.json"
        doc.write_text(json.dumps({"betas": [1.0], "steps": 40}))
        code = main(["check", "--config", str(doc), "--grid-points", "64",
                     "--output", str(tmp_path / "ck")])
        assert code == 0
        manifest = json.loads((tmp_path / "ck" / "manifest.json").read_text())
        assert manifest["config"]["grid_points"] == 64
        report = json.loads((tmp_path / "ck" / "check_report.json").read_text())

        def suite(points):
            reports = run_all(SuiteConfig(betas=(1.0,), grid_points=points, evolve_steps=40,
                                          dt=manifest["config"]["dt"],
                                          seed=manifest["config"]["seed"]))
            return json.loads(json.dumps([r.to_dict() for r in reports]))

        assert report == suite(64)
        assert report != suite(256)  # the grid size shows in the report

    def test_error_recorded_in_manifest(self, tmp_path):
        cfg = RunConfig(command="stationary", beta=50.0, grid_points=256,
                        grid_extent=1.0, output_dir=str(tmp_path / "bad"))
        code = run(cfg)
        assert code == 2
        manifest = json.loads((tmp_path / "bad" / "manifest.json").read_text())
        assert "error" in manifest


class TestManifestRoundTrip:
    def test_rerun_reproduces_data_files(self, tmp_path):
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        cfg = config_from_dict({"command": "nu-curve", "q_min": 0.05, "q_max": 20.0,
                                "n_points": 37, "output_dir": str(out1)})
        assert run(cfg) == 0
        manifest = json.loads((out1 / "manifest.json").read_text())
        manifest["config"]["output_dir"] = str(out2)
        cfg2 = config_from_dict(manifest)
        assert run(cfg2) == 0
        assert (out1 / "nu_curve.csv").read_bytes() == (out2 / "nu_curve.csv").read_bytes()

    @pytest.mark.parametrize("base, names", [
        ({"command": "stationary", "beta": 0.3, "grid_points": 512},
         ["stationary_result.json", "stationary_psi.csv", "stationary_psi_grid.json"]),
        # the units reach evolve only through the initial state
        ({"command": "evolve", "hbar": 0.8, "mass": 1.5, "beta": 0.1, "boundary": "periodic",
          "grid_points": 128, "steps": 20, "snapshot_every": 10},
         ["trajectory.csv"] + [f"snapshot_{i:04d}{suffix}" for i in range(3)
                               for suffix in (".csv", "_grid.json")]),
    ], ids=["stationary", "evolve"])
    def test_rerun_stationary_bitwise(self, tmp_path, base, names):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(config_from_dict({**base, "output_dir": str(out1)})) == 0
        manifest = json.loads((out1 / "manifest.json").read_text())
        assert manifest["outputs"] == names
        manifest["config"]["output_dir"] = str(out2)
        assert run(config_from_dict(manifest)) == 0
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestMain:
    def test_nu_curve_via_argv(self, tmp_path):
        code = main(["nu-curve", "--output", str(tmp_path / "o")])
        assert code == 0
        assert (tmp_path / "o" / "nu_curve.csv").exists()

    def test_flags_override_config(self, tmp_path):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text('{"command": "minlength", "beta": 1.0, "n_points": 11}')
        code = main(["minlength", "--config", str(cfgfile), "--beta", "4.0",
                     "--output", str(tmp_path / "o2")])
        assert code == 0
        summary = json.loads((tmp_path / "o2" / "minlength_summary.json").read_text())
        assert summary["beta"] == 4.0
        assert summary["minimal_length_sq"] == 4.0

    def test_invalid_flag_value(self, tmp_path):
        code = main(["minlength", "--beta", "-2", "--output", str(tmp_path / "x")])
        assert code == 2

    def test_grid_spacing_below_double_precision(self, tmp_path, capsys):
        cfgfile, bigfile = tmp_path / "c.json", tmp_path / "big.json"
        cfgfile.write_text('{"hbar": 1e-200}')
        bigfile.write_text('{"hbar": 1e200}')
        widefile = tmp_path / "wide.json"
        widefile.write_text('{"sigma": 1e200, "grid_points": 64}')
        for i, argv in enumerate([
            # dx^2 underflows to 0: the Hamiltonian has no finite hopping
            ["stationary", "--grid-extent", "1e-160"],
            # the span 2 * extent overflows: the grid spacing is infinite
            ["stationary", "--grid-extent", "1e308"],
            # hbar^2 underflows to 0: the harmonic width sigma0 is 0
            ["evolve", "--config", str(cfgfile)],
            # dx^2 overflows: the hopping is outside double precision
            ["stationary", "--grid-extent", "1e307"],
            # hbar^2 overflows: the harmonic width sigma0 is infinite
            ["stationary", "--config", str(bigfile)],
            # hbar^2 overflows where the scan reads C = hbar^2 / 4
            ["minlength", "--beta", "1", "--config", str(bigfile)],
            # x^2 of the harmonic potential overflows while the hopping is in range
            ["stationary", "--grid-extent", "1e155"],
            # sigma^2 of the initial packet overflows
            ["evolve", "--config", str(widefile)],
        ]):
            out = tmp_path / f"o{i}"
            assert main(argv + ["--output", str(out)]) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("ValidationError") and len(err.splitlines()) == 1, err
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["error"] == err.strip()

    @pytest.mark.parametrize("velocity", ["1e308", "1e300"])
    def test_unsampled_boost_rejected(self, tmp_path, capsys, velocity):
        # 1e308 overflows the boost phase m v x / hbar, 1e300 aliases it: both are
        # refused before the phase is formed, so no RuntimeWarning (an error
        # under this suite's settings) fires
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(f'{{"velocity": {velocity}}}')
        assert main(["evolve", "--config", str(cfgfile), "--output", str(tmp_path / "o")]) == 2
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["error"] == capsys.readouterr().err.strip()
        assert manifest["error"].startswith("ValidationError: boost phase")

    def test_bad_boundary_reported_by_the_grid(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text('{"boundary": "ring"}')
        assert main(["evolve", "--config", str(cfgfile), "--output", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["error"] == err.strip() == "ValidationError: unknown boundary 'ring'"

    def test_unknown_key_in_config_file(self, tmp_path):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text('{"command": "nu-curve", "zeta": 2.0}')
        # zeta is not a nu-curve key: dropped when reused across commands
        code = main(["nu-curve", "--config", str(cfgfile),
                     "--output", str(tmp_path / "y")])
        assert code == 0

    def test_other_commands_key_is_dropped(self, tmp_path):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text('{"command": "nu-curve", "n_points": 5, "dt": 0.01}')
        code = main(["nu-curve", "--config", str(cfgfile), "--output", str(tmp_path / "o")])
        assert code == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert "dt" not in manifest["config"] and manifest["config"]["n_points"] == 5
        assert len((tmp_path / "o" / "nu_curve.csv").read_text().splitlines()) == 6
        # the same policy without the command line
        cfg = config_from_dict({"command": "nu-curve", "n_points": 5, "dt": 0.01})
        assert cfg.n_points == 5 and cfg.dt == RunConfig.dt

    def test_manifest_echoes_only_the_settings_the_command_reads(self, tmp_path):
        out = tmp_path / "o"
        assert main(["nu-curve", "--output", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"] == {"command": "nu-curve", "q_min": 1e-2, "q_max": 1e2,
                                      "n_points": 200, "output_dir": str(out)}

    @pytest.mark.parametrize("argv", [["check", "--zeta", "2"], ["nu-curve", "--beta", "1"],
                                      ["stationary", "--steps", "5"]],
                             ids=["check-zeta", "nu-curve-beta", "stationary-steps"])
    def test_flag_the_command_does_not_read(self, tmp_path, capsys, argv):
        # the subcommand has no such flag: argparse's usage error, exit 2
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--output", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_key_no_command_knows_is_reported(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text('{"command": "nu-curve", "n_ponits": 5}')
        code = main(["nu-curve", "--config", str(cfgfile), "--output", str(tmp_path / "o")])
        assert code == 2
        assert "ParseError" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text", ['{"command": "nu-curve",', '{"config": [1, 2]}'],
                             ids=["malformed", "manifest-config-not-object"])
    def test_bad_config_document(self, tmp_path, capsys, text):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(text)
        code = main(["nu-curve", "--config", str(cfgfile), "--output", str(tmp_path / "o")])
        assert code == 2
        assert "ParseError" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,doc,flags", [
        ("stationary", "{}", ["--beta", "nan"]),
        ("evolve", "{}", ["--beta", "nan"]),
        ("evolve", "{}", ["--beta", "inf"]),
        ("evolve", "{}", ["--dt", "nan"]),
        ("evolve", '{"sigma": -1}', []),
        ("evolve", '{"zeta": NaN}', []),
        ("evolve", '{"beta": Infinity}', []),
        ("evolve", '{"center": NaN}', []),
        ("evolve", '{"velocity": -Infinity}', []),
        ("evolve", '{"grid_extent": NaN}', []),
        ("check", '{"betas": [0.0, NaN]}', []),
        ("nu-curve", '{"q_max": Infinity}', []),
    ], ids=["stationary-beta-nan", "beta-nan", "beta-inf", "dt-nan", "sigma-negative",
            "zeta-nan", "beta-infinity", "center-nan", "velocity-inf", "extent-nan",
            "betas-nan", "q-max-inf"])
    def test_non_finite_or_out_of_range_value(self, tmp_path, capsys, command, doc, flags):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(doc)
        code = main([command, "--config", str(cfgfile), *flags,
                     "--output", str(tmp_path / "o")])
        assert code == 2
        assert "ValidationError" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,doc", [
        ("evolve", '{"steps": 2.5}'),
        ("evolve", '{"steps": true}'),
        ("evolve", '{"beta": "0.2"}'),
        ("evolve", '{"sigma": [1.0]}'),
        ("evolve", '{"boundary": 1}'),
        ("stationary", '{"grid_points": 100.5}'),
        ("stationary", '{"grid_points": 512.0}'),
        ("check", '{"betas": 0.1}'),
        ("check", '{"betas": ["0.1"]}'),
        ("check", '{"betas": [0.0, false]}'),
    ], ids=["steps-float", "steps-bool", "beta-string", "sigma-list", "boundary-number",
            "points-fraction", "points-float", "betas-number", "betas-strings", "betas-bool"])
    def test_json_value_of_wrong_type(self, tmp_path, capsys, command, doc):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(doc)
        code = main([command, "--config", str(cfgfile), "--output", str(tmp_path / "o")])
        assert code == 2
        assert "ValidationError" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_json_null_and_command_types(self):
        cfg = config_from_dict({"command": "evolve", "sigma": None, "grid_extent": None,
                                "beta": 1, "steps": 5})
        assert cfg.sigma is None and cfg.grid_extent is None and cfg.beta == 1
        with pytest.raises(ValidationError, match="dt must be a number"):
            config_from_dict({"command": "evolve", "dt": None})
        with pytest.raises(ValidationError, match="command"):
            config_from_dict({"command": ["nu-curve"]})
