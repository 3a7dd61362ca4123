"""Command line driver.

Exit codes: 0 on success (and on passing verifications), 1 when a
verification ran to completion and failed, 2 for configuration or
expression problems, 3 when a numerical procedure could not complete
(domain exits, singular systems, unreachable energy levels, step failures).

Every command is a function ``fn(cfg, model, out_dir, seed)`` that returns
its exit code, registered by :func:`_command`. The settings come from
:mod:`routhlab.config`, the only reader of the config format.
"""

from __future__ import annotations

import json
import os

import click
import numpy as np

from .config import (
    build_model,
    build_split,
    cyclic_momentum,
    geodesic_flags,
    has_initial,
    initial_state,
    load_config,
    plot_unit_disk,
    time_settings,
    verify_tolerances,
)
from .errors import (
    ConfigError,
    InvarianceError,
    ParseError,
    PreconditionError,
    RouthlabError,
)
from .fileio import curves_svg, write_report_json, write_trajectory_csv
from .homogenize import jacobi_finsler, quasi_definite_check, randers_closed_form
from .lagrangian import MagneticLagrangian, energy, integrate_el, strong_convexity_check
from .routh import _round_trip, check_invariance, momentum, reconstruct
from .spray import integrate_geodesic
from .verify import _arc_length, check_geodesic_equivalence

__all__ = ["main"]

# every command's options, applied in this order, so that its help lists them reversed
_OPTIONS = (
    click.option("--config", "config_path", required=True, help="JSON run configuration.",
                 type=click.Path(exists=True, dir_okay=False)),
    click.option("--out", "out_dir", default=".", type=click.Path(file_okay=False),
                 help="Directory for output files."),
    click.option("--seed", default=0, type=int, help="Seed for sampled checks.",
                 show_default=True),
)


@click.group()
def main() -> None:
    """Numerical toolkit for cyclic reduction and energy-level metrics."""


def _command(name: str):
    """Register fn(cfg, model, out_dir, seed) as the subcommand ``name``.

    The subcommand takes ``--config``, ``--out`` and ``--seed``, loads the
    config, builds its model, runs fn and exits with fn's return value; a
    config or expression error exits 2, as does an I/O error, and any other
    numerical failure exits 3.
    """

    def register(fn):
        def command(config_path, out_dir, seed):
            try:
                cfg = load_config(config_path)
                code = fn(cfg, build_model(cfg), out_dir, seed)
            except (ParseError, ConfigError, InvarianceError) as exc:
                click.echo(f"config error: {exc}", err=True)
                raise SystemExit(2) from exc
            except RouthlabError as exc:
                click.echo(f"numerical failure ({type(exc).__name__}): {exc}", err=True)
                raise SystemExit(3) from exc
            except OSError as exc:
                click.echo(f"io error: {exc}", err=True)
                raise SystemExit(2) from exc
            raise SystemExit(code)

        for option in _OPTIONS:
            command = option(command)
        return main.command(name, help=fn.__doc__)(command)

    return register


def _outpath(out_dir: str, name: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def _energy_state(cfg, model):
    """(x0, v0, e) of a command that needs the config's energy level."""
    x0, v0, e = initial_state(cfg, model)
    if e is None:
        raise ConfigError("this command needs an 'energy' value in the config")
    return x0, v0, e


def _write_run(out_dir: str, name: str, traj, conserved: str) -> int:
    """Write traj as the CSV out_dir/name and echo its steps, rejections and drift."""
    path = _outpath(out_dir, name)
    write_trajectory_csv(path, traj)
    drift = float(np.max(np.abs(traj.energy_log - traj.energy_log[0])))
    click.echo(f"wrote {path}")
    click.echo(f"steps={traj.stats.steps} rejected={traj.stats.rejected} "
               f"{conserved} drift={drift:.3e}")
    return 0


def _write_report(out_dir: str, name: str, report, seed: int) -> str:
    """Write report as out_dir/name, with the seed and the config file's name."""
    path = _outpath(out_dir, name)
    config = os.path.basename(click.get_current_context().params["config_path"])
    write_report_json(path, report, seed=seed, config=config)
    return path


@_command("describe")
def cmd_describe(cfg, model, out_dir, seed):
    """Print the configured model and pointwise diagnostics as JSON."""
    payload = {"model": model.describe()}
    if has_initial(cfg):
        x0, v0, e = initial_state(cfg, model)
        ok, mineig = strong_convexity_check(model, x0, v0)
        payload["initial"] = {
            "x": list(x0),
            "v": list(v0),
            "energy": energy(model, x0, v0),
            "strongly_convex": ok,
            "hessian_min_eigenvalue": mineig,
        }
        split = build_split(cfg, model.dim)
        if split is not None:
            payload["initial"]["cyclic_momentum"] = list(momentum(model, split, x0, v0))
        if e is not None:
            payload["initial"]["target_energy"] = e
    click.echo(json.dumps(payload, indent=2, sort_keys=True))
    return 0


@_command("integrate-el")
def cmd_integrate_el(cfg, model, out_dir, seed):
    """Integrate the Euler-Lagrange flow and write the sampled trajectory."""
    x0, v0, _ = initial_state(cfg, model)
    t_end, run = time_settings(cfg)
    traj = integrate_el(model, x0, v0, t_end, **run)
    return _write_run(out_dir, "el_trajectory.csv", traj, "energy")


@_command("finslerize")
def cmd_finslerize(cfg, model, out_dir, seed):
    """Evaluate the energy-level metric at the initial state."""
    x0, v0, e = _energy_state(cfg, model)
    metric = jacobi_finsler(model, e)
    value = metric.value(x0, v0)
    scale = metric.energy_scale(x0, v0)
    ok, mineig = quasi_definite_check(metric, x0, v0)
    payload = {
        "energy": e,
        "value": value,
        "scale": scale,
        "quasi_definite": {"positive": ok, "min_eigenvalue": mineig},
        "metric": metric.describe(),
    }
    if isinstance(model, MagneticLagrangian):
        closed = randers_closed_form(model, e)
        payload["closed_form_gap"] = abs(closed.value(x0, v0) - value)
    click.echo(json.dumps(payload, indent=2, sort_keys=True))
    return 0


@_command("geodesic")
def cmd_geodesic(cfg, model, out_dir, seed):
    """Integrate a geodesic of the energy-level metric and write it as CSV."""
    x0, v0, e = _energy_state(cfg, model)
    t_end, run = time_settings(cfg, geodesic=True)
    level, unit_speed = geodesic_flags(cfg)
    traj = integrate_geodesic(jacobi_finsler(model, e), x0, v0, t_end, **run,
                              level=level, unit_speed=unit_speed)
    return _write_run(out_dir, "geodesic_trajectory.csv", traj, "energy" if level else "speed")


@_command("verify")
def cmd_verify(cfg, model, out_dir, seed):
    """Check that the energy-level geodesics reproduce the Lagrangian flow."""
    x0, v0, e = _energy_state(cfg, model)
    t_end, run = time_settings(cfg)
    bounds = verify_tolerances(cfg)
    try:
        report = check_geodesic_equivalence(model, e, x0, v0, t_end, **run, **bounds)
    except PreconditionError as exc:
        click.echo(f"[FAIL] geodesic equivalence: {exc}")
        return 1
    path = _write_report(out_dir, "verify_report.json", report, seed)
    click.echo(report.summary())
    click.echo(f"wrote {path}")
    return 0 if report.overall else 1


@_command("routh-reduce")
def cmd_routh_reduce(cfg, model, out_dir, seed):
    """Reduce the declared cyclic coordinates and verify the round trip."""
    split = build_split(cfg, model.dim)
    if split is None:
        raise ConfigError("routh-reduce needs a 'cyclic' list of 1-based indices")
    x0, v0, _ = initial_state(cfg, model)
    t_end, run = time_settings(cfg)
    mu = cyclic_momentum(cfg, split)
    check_invariance(model, split, ref_x=x0, seed=seed)
    if mu is None:
        mu = momentum(model, split, x0, v0)
    # rebuild the reduced flow the round trip integrated, from its model's guess
    report, reduced_traj = _round_trip(model, split, mu, x0, v0, t_end, **run)
    full = reconstruct(model, split, mu, reduced_traj, cyclic_start=x0[split.cyc_idx],
                       guess=v0[split.cyc_idx])
    csv_path = _outpath(out_dir, "reconstructed_trajectory.csv")
    write_trajectory_csv(csv_path, full)
    report_path = _write_report(out_dir, "reduction_report.json", report, seed)
    click.echo(report.summary())
    click.echo(f"wrote {csv_path}")
    click.echo(f"wrote {report_path}")
    return 0 if report.overall else 1


@_command("plot")
def cmd_plot(cfg, model, out_dir, seed):
    """Draw the Lagrangian flow (and level-metric geodesic) as an SVG."""
    if model.dim != 2:
        raise ConfigError("plot requires a 2-dimensional model")
    x0, v0, e = initial_state(cfg, model)
    t_end, run = time_settings(cfg)
    show_disk = plot_unit_disk(cfg)
    traj = integrate_el(model, x0, v0, t_end, **run)
    curves = [{"points": traj.positions, "label": "euler-lagrange", "color": "#1f6feb"}]
    if e is not None:
        metric = jacobi_finsler(model, e)
        arc = integrate_geodesic(metric, x0, v0, _arc_length(model, e, traj), **run, unit_speed=True)
        curves.append({"points": arc.positions, "label": "level-metric geodesic",
                       "color": "#d1242f", "dash": "6,4"})
    path = _outpath(out_dir, "trajectories.svg")
    curves_svg(path, curves, show_unit_disk=show_disk, title="configured flows")
    click.echo(f"wrote {path}")
    return 0


if __name__ == "__main__":
    main()
