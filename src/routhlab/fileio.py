"""Deterministic serialization: trajectory CSV, report JSON, and SVG plots.

Floats are written with 17 significant digits, which round-trips IEEE
doubles exactly: reading a written file and writing it again reproduces the
bytes. The SVG writer contains no timestamps or random identifiers, so a
repeated call with the same data produces an identical file.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import ConfigError
from .integrators import IntegratorStats, Trajectory
from .reporting import VerificationReport

__all__ = [
    "format_float",
    "write_trajectory_csv",
    "read_trajectory_csv",
    "write_report_json",
    "curves_svg",
]


def format_float(v: float) -> str:
    return "%.17g" % float(v)


def write_trajectory_csv(path: str, traj: Trajectory) -> None:
    """Write a sampled trajectory as CSV with exact float round-tripping."""
    n = traj.dim
    header = (
        ["t"]
        + [f"x{i + 1}" for i in range(n)]
        + [f"v{i + 1}" for i in range(n)]
        + ["conserved"]
    )
    rows = [",".join(header)]
    for k in range(len(traj.times)):
        cells = (
            [traj.times[k]]
            + list(traj.positions[k])
            + list(traj.velocities[k])
            + [traj.energy_log[k]]
        )
        rows.append(",".join(format_float(c) for c in cells))
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("\n".join(rows) + "\n")


def read_trajectory_csv(path: str) -> Trajectory:
    """Read a trajectory CSV written by :func:`write_trajectory_csv`."""
    with open(path, encoding="ascii") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    if not lines:
        raise ConfigError(f"{path}: empty trajectory file")
    header = lines[0].split(",")
    if header[0] != "t" or header[-1] != "conserved" or (len(header) - 2) % 2 != 0:
        raise ConfigError(f"{path}: unrecognized trajectory header {header!r}")
    n = (len(header) - 2) // 2
    try:
        data = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
    except ValueError as exc:  # a cell that is not a number, or rows of unequal length
        raise ConfigError(f"{path}: malformed trajectory rows: {exc}") from exc
    if data.ndim != 2 or data.shape[1] != 2 * n + 2:
        raise ConfigError(f"{path}: malformed trajectory rows")
    return Trajectory(
        times=data[:, 0],
        positions=data[:, 1 : n + 1],
        velocities=data[:, n + 1 : 2 * n + 1],
        energy_log=data[:, -1],
        stats=IntegratorStats(steps=0, rejected=0, rhs_evals=0, tolerance=float("nan")),
        dense=None,
        meta={"kind": "loaded", "path": os.path.basename(path)},
    )


def write_report_json(path: str, report: VerificationReport, **extra) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(report.to_json(**extra) + "\n")


# -- plotting --------------------------------------------------------------------

_PALETTE = ["#1f6feb", "#d1242f", "#1a7f37", "#8250df", "#9a6700", "#bf3989"]


def curves_svg(
    path: str,
    curves,
    show_unit_disk: bool = False,
    size: int = 800,
    title: str | None = None,
) -> None:
    """Write planar curves to a standalone SVG file.

    ``curves`` is a sequence of dicts with key ``points`` (a (k, 2) array)
    and optional ``color``, ``width``, ``dash`` and ``label``. With
    ``show_unit_disk`` the unit circle is drawn and included in the bounds.
    Output is byte-deterministic for identical input.
    """
    pts_list = []
    for c in curves:
        arr = np.asarray(c["points"], float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("svg curves must be (k, 2) arrays")
        pts_list.append(arr)

    lo = np.array([-1.0, -1.0]) if show_unit_disk else np.array([np.inf, np.inf])
    hi = -lo
    for arr in pts_list:
        lo = np.minimum(lo, arr.min(axis=0))
        hi = np.maximum(hi, arr.max(axis=0))
    if not np.all(np.isfinite(lo)):
        raise ValueError("nothing to plot")
    span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-9))
    pad = 0.05 * span
    center = 0.5 * (lo + hi)
    half = 0.5 * span + pad
    scale = size / (2.0 * half)

    def to_px(p):
        # y axis points up in data space, down in svg space
        u = (p[0] - (center[0] - half)) * scale
        v = size - (p[1] - (center[1] - half)) * scale
        return u, v

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">'
    )
    if title:
        out.append(f"<title>{title}</title>")
    out.append(f'<rect width="{size}" height="{size}" fill="#ffffff"/>')
    if show_unit_disk:
        cx, cy = to_px((0.0, 0.0))
        r = scale  # unit radius in pixels
        out.append(
            f'<circle cx="{cx:.3f}" cy="{cy:.3f}" r="{r:.3f}" '
            f'fill="none" stroke="#24292f" stroke-width="1.5"/>'
        )
    legend_y = 28.0
    for idx, (spec, arr) in enumerate(zip(curves, pts_list)):
        color = spec.get("color", _PALETTE[idx % len(_PALETTE)])
        width = spec.get("width", 2.0)
        dash = spec.get("dash")
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        coords = " ".join(f"{u:.3f},{v:.3f}" for u, v in (to_px(p) for p in arr))
        out.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"{dash_attr}/>'
        )
        label = spec.get("label")
        if label:
            out.append(
                f'<text x="14" y="{legend_y:.1f}" font-family="monospace" '
                f'font-size="14" fill="{color}">{label}</text>'
            )
            legend_y += 18.0
    out.append("</svg>")
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("\n".join(out) + "\n")
