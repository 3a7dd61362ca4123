"""Command-line interface: exit codes, file outputs, determinism."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import routhlab as rl
from routhlab.cli import main
from routhlab.config import verify_tolerances
from test_verify import MAGNETIC_QUARTIC

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def invoke(args):
    return CliRunner().invoke(main, args)


# one malformed field each: the command, the shipped config it edits, the
# path of the field and the value put there
MALFORMED_FIELDS = [
    ("verify", "oscillator_verify.json", ("time", "t_end"), "abc"),
    ("verify", "oscillator_verify.json", ("time", "t_end"), -1),
    ("verify", "oscillator_verify.json", ("time", "samples"), "x"),
    ("verify", "oscillator_verify.json", ("time", "tol"), 0),
    ("verify", "oscillator_verify.json", ("energy",), "high"),
    ("verify", "oscillator_verify.json", ("initial", "x"), "abc"),
    ("verify", "oscillator_verify.json", ("initial", "x"), [0.3, [0.1, 0.2]]),
    ("verify", "oscillator_verify.json", ("lagrangian", "dim"), "two"),
    ("verify", "oscillator_verify.json", ("verify", "drift_tol"), "tight"),
    ("geodesic", "oscillator_verify.json", ("geodesic", "t_end"), "abc"),
    ("describe", "polar_reduction.json", ("lagrangian", "dim"), "two"),
    ("describe", "polar_reduction.json", ("lagrangian", "domain"), {"positive": 1}),
    ("describe", "polar_reduction.json", ("lagrangian", "domain"), {"positive": [3]}),
    ("routh-reduce", "polar_reduction.json", ("momentum",), "abc"),
    ("routh-reduce", "polar_reduction.json", ("momentum",), [1.2, 0.0]),
    # a flag is a JSON boolean, and a string would invert it
    ("geodesic", "disk_verify.json", ("geodesic", "unit_speed"), "false"),
    ("geodesic", "disk_verify.json", ("geodesic", "level"), "no"),
    ("describe", "disk_verify.json", ("initial", "rescale"), "false"),
    ("plot", "disk_verify.json", ("plot", "unit_disk"), "false"),
    ("plot", "disk_verify.json", ("plot",), [1, 2]),
    # each command's own requirements
    ("geodesic", "polar_reduction.json", ("energy",), None),
    ("finslerize", "polar_reduction.json", ("energy",), None),
    ("verify", "polar_reduction.json", ("energy",), None),
    ("plot", "polar_reduction.json", ("lagrangian", "dim"), 3),
    ("routh-reduce", "polar_reduction.json", ("cyclic",), None),
]


# the power family in a ball, gauge-shifted, with a cyclic list: config
# paths no shipped config takes
POWER_GAUGE = {
    "lagrangian": {"family": "power", "dim": 2, "metric": [[1, 0], [0, 1.5]], "degree": 4,
                   "domain": {"ball": 2.0}, "gauge": "0.2*x1*x2"},
    "energy": 1.7,
    "cyclic": [2],
    "initial": {"x": [0.3, -0.4], "v": [1.0, 0.7], "rescale": True},
    "time": {"t_end": 1.0, "samples": 201},
}


class TestExitCodes:
    def test_passing_verification_exits_zero(self, tmp_path):
        r = invoke(
            ["verify", "--config", str(CONFIGS / "oscillator_verify.json"),
             "--out", str(tmp_path)]
        )
        assert r.exit_code == 0, r.output
        assert "[PASS]" in r.output

    def test_wrong_energy_without_rescale_exits_one(self, tmp_path):
        r = invoke(
            ["verify", "--config", str(CONFIGS / "tamper_wrong_energy.json"),
             "--out", str(tmp_path)]
        )
        assert r.exit_code == 1
        assert "[FAIL]" in r.output

    def test_plot_off_the_level_exits_two_and_draws_nothing(self, tmp_path):
        # off the level the geodesic traces no part of the Lagrangian arc
        r = invoke(
            ["plot", "--config", str(CONFIGS / "tamper_wrong_energy.json"),
             "--out", str(tmp_path)]
        )
        assert r.exit_code == 2
        assert "config error: initial energy 0.87 is not on the requested level 5.0" in r.output
        assert list(tmp_path.iterdir()) == []

    def test_noncyclic_declaration_exits_two(self, tmp_path):
        r = invoke(
            ["routh-reduce", "--config", str(CONFIGS / "tamper_bad_cyclic.json"),
             "--out", str(tmp_path)]
        )
        assert r.exit_code == 2
        assert "not cyclic" in r.output

    def test_a_level_metric_that_is_not_positive_fails_verify_and_plot(self, tmp_path):
        # a failed verification: the report names the time from which the
        # level metric is not positive along the Euler-Lagrange arc, and the
        # plot, which has no geodesic length to draw to, a numerical failure
        cfg = {"lagrangian": {"family": "expression", "dim": 2, "source": MAGNETIC_QUARTIC},
               "initial": {"x": [-0.0876, 0.2383], "v": [0.1771, -1.4868], "rescale": True},
               "energy": 1.14214, "time": {"t_end": 2.0}}
        path = tmp_path / "critical.json"
        path.write_text(json.dumps(cfg))
        r = invoke(["verify", "--config", str(path), "--out", str(tmp_path)])
        assert r.exit_code == 1, r.output
        assert "the level metric is not positive along the Euler-Lagrange arc from t=1.94" in r.output
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["overall"] is False and "below the critical value" in report["error"]
        r = invoke(["plot", "--config", str(path), "--out", str(tmp_path)])
        assert r.exit_code == 3, r.output
        assert "numerical failure (PreconditionError): the level metric is not positive" in r.output
        assert not (tmp_path / "trajectories.svg").exists()

    def test_unreachable_energy_exits_three(self, tmp_path):
        r = invoke(
            ["verify", "--config", str(CONFIGS / "tamper_unreachable_energy.json"),
             "--out", str(tmp_path)]
        )
        assert r.exit_code == 3
        assert "EnergyUnreachable" in r.output

    def test_malformed_json_exits_two(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{ not json")
        r = invoke(["describe", "--config", str(bad), "--out", str(tmp_path)])
        assert r.exit_code == 2

    def test_unknown_family_exits_two(self, tmp_path):
        bad = tmp_path / "family.json"
        bad.write_text(json.dumps({"lagrangian": {"family": "nope"}}))
        r = invoke(["describe", "--config", str(bad), "--out", str(tmp_path)])
        assert r.exit_code == 2

    @pytest.mark.parametrize("command, name, field, bad", MALFORMED_FIELDS, ids=[
        f"{command}:{'.'.join(field)}={bad}" for command, _, field, bad in MALFORMED_FIELDS])
    def test_malformed_config_numbers_exit_two(self, tmp_path, command, name, field, bad):
        cfg = json.loads((CONFIGS / name).read_text())
        *outer, key = field
        section = cfg
        for part in outer:
            section = section.setdefault(part, {})
        section[key] = bad
        path = tmp_path / name
        path.write_text(json.dumps(cfg))
        r = invoke([command, "--config", str(path), "--out", str(tmp_path)])
        assert r.exit_code == 2, r.output
        assert "config error:" in r.output
        assert "Traceback" not in r.output

    def test_exit_codes_through_real_processes(self, tmp_path):
        # the documented codes must hold for actual process exits, not just
        # the in-process runner
        cases = [
            ("verify", "oscillator_verify.json", 0),
            ("verify", "tamper_wrong_energy.json", 1),
            ("routh-reduce", "tamper_bad_cyclic.json", 2),
            ("verify", "tamper_unreachable_energy.json", 3),
        ]
        for cmd, cfg, want in cases:
            proc = subprocess.run(
                [sys.executable, "-m", "routhlab.cli", cmd,
                 "--config", str(CONFIGS / cfg), "--out", str(tmp_path / cfg)],
                capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == want, (
                f"{cmd} {cfg}: expected exit {want}, got {proc.returncode}\n"
                f"stdout: {proc.stdout}\nstderr: {proc.stderr}"
            )


class TestCommands:
    def test_describe_reports_model_and_initial_state(self, tmp_path):
        r = invoke(
            ["describe", "--config", str(CONFIGS / "oscillator_verify.json"),
             "--out", str(tmp_path)]
        )
        assert r.exit_code == 0, r.output
        payload = json.loads(r.output)
        assert payload["model"]["family"] == "simple"
        assert payload["model"]["dim"] == 2
        assert payload["initial"]["energy"] == pytest.approx(5.0)
        assert payload["initial"]["strongly_convex"] is True
        # a gauge-shifted power model in a ball, with a cyclic list; its
        # level metric verifies and integrates too
        power = tmp_path / "power_gauge.json"
        power.write_text(json.dumps(POWER_GAUGE))
        r = invoke(["describe", "--config", str(power), "--out", str(tmp_path)])
        assert r.exit_code == 0, r.output
        payload = json.loads(r.output)
        assert payload["model"]["family"] == "k_homogeneous+exact_form"
        assert len(payload["initial"]["cyclic_momentum"]) == 1
        for cmd in ("verify", "geodesic"):
            r = invoke([cmd, "--config", str(power), "--out", str(tmp_path)])
            assert r.exit_code == 0, r.output

    def test_integrate_el_writes_loadable_csv(self, tmp_path):
        r = invoke(
            ["integrate-el", "--config", str(CONFIGS / "oscillator_verify.json"),
             "--out", str(tmp_path)]
        )
        assert r.exit_code == 0, r.output
        traj = rl.read_trajectory_csv(tmp_path / "el_trajectory.csv")
        assert traj.times.shape == (801,)
        assert traj.positions.shape == (801, 2)
        drift = np.max(np.abs(traj.energy_log - traj.energy_log[0]))
        assert drift < 1e-8

    def test_geodesic_writes_unit_speed_run(self, tmp_path):
        r = invoke(
            ["geodesic", "--config", str(CONFIGS / "disk_verify.json"),
             "--out", str(tmp_path)]
        )
        assert r.exit_code == 0, r.output
        traj = rl.read_trajectory_csv(tmp_path / "geodesic_trajectory.csv")
        np.testing.assert_allclose(traj.energy_log, 1.0, atol=1e-8)

    def test_level_geodesic_reports_and_logs_the_energy_it_holds(self, tmp_path):
        cfg = json.loads((CONFIGS / "oscillator_verify.json").read_text())
        cfg["geodesic"] = {"level": True, "unit_speed": False}
        path = tmp_path / "level.json"
        path.write_text(json.dumps(cfg))
        r = invoke(["geodesic", "--config", str(path), "--out", str(tmp_path)])
        assert r.exit_code == 0, r.output
        drift = float(r.output.split("energy drift=")[1].split()[0])
        assert drift <= 1e-8, r.output
        traj = rl.read_trajectory_csv(tmp_path / "geodesic_trajectory.csv")
        np.testing.assert_allclose(traj.energy_log, 5.0, rtol=0.0, atol=1e-8)

    def test_finslerize_reports_scale_and_convexity(self, tmp_path):
        r = invoke(
            ["finslerize", "--config", str(CONFIGS / "oscillator_verify.json"),
             "--out", str(tmp_path)]
        )
        assert r.exit_code == 0, r.output
        payload = json.loads(r.output)
        assert payload["quasi_definite"]["positive"] is True
        assert payload["closed_form_gap"] < 1e-10
        assert payload["metric"]["family"] == "jacobi"

    def test_routh_reduce_round_trip_files(self, tmp_path):
        r = invoke(
            ["routh-reduce", "--config", str(CONFIGS / "polar_reduction.json"),
             "--out", str(tmp_path)]
        )
        assert r.exit_code == 0, r.output
        report = json.loads((tmp_path / "reduction_report.json").read_text())
        assert report["overall"] is True
        traj = rl.read_trajectory_csv(tmp_path / "reconstructed_trajectory.csv")
        assert traj.positions.shape[1] == 2

    def test_routh_reduce_without_a_tolerance_integrates_at_the_library_default(self, tmp_path):
        # the config passes only the settings it has, so the round trip's own 1e-11 holds
        cfg = json.loads((CONFIGS / "polar_reduction.json").read_text())
        del cfg["time"]["tol"]
        path = tmp_path / "polar_reduction.json"
        path.write_text(json.dumps(cfg))
        r = invoke(["routh-reduce", "--config", str(path), "--out", str(tmp_path)])
        assert r.exit_code == 0, r.output
        report = json.loads((tmp_path / "reduction_report.json").read_text())
        assert any("tol=1e-11," in note for note in report["notes"]), report["notes"]

    def test_routh_reduce_takes_its_defaults_from_verify_reduction(self, tmp_path, monkeypatch):
        # the library's signature is the one home of the round trip's defaults
        cfg = json.loads((CONFIGS / "polar_reduction.json").read_text())
        del cfg["time"]["tol"]
        path = tmp_path / "polar_reduction.json"
        path.write_text(json.dumps(cfg))
        monkeypatch.setattr(rl.verify_reduction, "__defaults__", (1e-9, 801, 1e-8))
        r = invoke(["routh-reduce", "--config", str(path), "--out", str(tmp_path)])
        assert r.exit_code == 0, r.output
        report = json.loads((tmp_path / "reduction_report.json").read_text())
        assert any("tol=1e-09," in note for note in report["notes"]), report["notes"]

    def test_verify_report_json_carries_config_name(self, tmp_path):
        r = invoke(
            ["verify", "--config", str(CONFIGS / "disk_verify.json"),
             "--out", str(tmp_path)]
        )
        assert r.exit_code == 0, r.output
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["config"] == "disk_verify.json"
        assert report["overall"] is True
        assert {m["label"] for m in report["metrics"]} >= {
            "trace_distance", "pointwise_mismatch"
        }

    def test_plot_writes_deterministic_svg(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            r = invoke(
                ["plot", "--config", str(CONFIGS / "disk_verify.json"),
                 "--out", str(out)]
            )
            assert r.exit_code == 0, r.output
        svg_a = (a / "trajectories.svg").read_bytes()
        svg_b = (b / "trajectories.svg").read_bytes()
        assert svg_a == svg_b
        assert b"<svg" in svg_a and b"circle" in svg_a


def test_verify_tolerances_pass_only_the_configured_bounds():
    assert verify_tolerances({}) == {}
    assert verify_tolerances({"verify": {"drift_tol": "1e-9"}}) == {"drift_tol": 1e-9}
    with pytest.raises(rl.ConfigError, match="verify.pointset_tol"):
        verify_tolerances({"verify": {"pointset_tol": "loose"}})


class TestTrajectoryFiles:
    def test_csv_round_trip_is_byte_identical(self, tmp_path):
        L = rl.poincare_disk_lagrangian()
        traj = rl.integrate_el(
            L, np.array([0.1, -0.2]), np.array([0.4, 0.3]), 1.0, samples=101
        )
        p1 = tmp_path / "one.csv"
        p2 = tmp_path / "two.csv"
        rl.write_trajectory_csv(p1, traj)
        loaded = rl.read_trajectory_csv(p1)
        rl.write_trajectory_csv(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()
        np.testing.assert_array_equal(traj.times, loaded.times)
        np.testing.assert_array_equal(traj.positions, loaded.positions)
        np.testing.assert_array_equal(traj.velocities, loaded.velocities)
        np.testing.assert_array_equal(traj.energy_log, loaded.energy_log)
        assert loaded.meta["kind"] == "loaded"
        assert loaded.dense is None

    def test_malformed_csv_raises_config_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        header = "t,x1,v1,conserved\n"
        # too few columns, a cell that is not a number, rows of unequal length
        for rows in ("0.0,1.0\n", "0.0,1.0,abc,0.5\n", "0.0,1.0,2.0,0.5\n0.1,1.0\n"):
            bad.write_text(header + rows)
            with pytest.raises(rl.ConfigError, match="malformed trajectory rows"):
                rl.read_trajectory_csv(bad)
        with pytest.raises(OSError):
            rl.read_trajectory_csv(tmp_path / "missing.csv")

    def test_report_json_is_sorted_and_stable(self, tmp_path):
        report = rl.VerificationReport(name="demo")
        report.check("alpha", 1e-9, 1e-6)
        p = tmp_path / "r.json"
        rl.write_report_json(p, report, seed=7)
        payload = json.loads(p.read_text())
        assert payload["seed"] == 7
        keys = list(payload)
        assert keys == sorted(keys)

    def test_curves_svg_draws_given_polylines(self, tmp_path):
        t = np.linspace(0, 2 * np.pi, 100)
        ring = np.column_stack([np.cos(t), np.sin(t)])
        p = tmp_path / "c.svg"
        rl.curves_svg(
            p,
            [{"points": ring, "label": "ring"}],
            show_unit_disk=True,
            title="rings",
        )
        text = p.read_text()
        assert text.count("<polyline") == 1
        assert "rings" in text
