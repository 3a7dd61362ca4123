"""Numerical checks that level metrics reproduce Lagrangian dynamics.

The central routine integrates one Euler-Lagrange flow and two geodesic
runs of the matching energy-level metric (an affine unit-speed run and a
run reparametrized to hold the Lagrangian energy), then compares traces and
conservation. Traces are compared as curves, on the runs' dense outputs at
points of uniform Euclidean arc length, so the comparison is insensitive to
parametrization; circle fitting and boundary angles quantify the disk-model
predictions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateCurve,
    NoIntersection,
    PreconditionError,
    RouthlabError,
)
from .homogenize import jacobi_finsler, solve_energy_scale
from .lagrangian import LagrangianModel, energy, integrate_el
from .reporting import VerificationReport
from .spray import integrate_geodesic

__all__ = [
    "point_set_distance",
    "rescale_to_energy",
    "check_geodesic_equivalence",
    "CircleFit",
    "circle_fit",
    "boundary_angle",
]

_RESAMPLE = 8192
_SUBINTERVALS = 32  # arc-length table entries per accepted step
_NEWTON = 2  # Newton steps inverting the arc length inside one sub-interval
# the 2-point Gauss-Legendre nodes on [0, 1], 1/2 -+ sqrt(3)/6, each of weight 1/2
_GAUSS = (0.21132486540518713, 0.7886751345948129)


def _chord_lengths(pts: np.ndarray) -> np.ndarray:
    steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    return np.concatenate([[0.0], np.cumsum(steps)])


def _resample(pts: np.ndarray, grid: np.ndarray, s: np.ndarray) -> np.ndarray:
    out = np.empty((grid.shape[0], pts.shape[1]))
    for d in range(pts.shape[1]):
        out[:, d] = np.interp(grid, s, pts[:, d])
    return out


def _directed_distance(a: np.ndarray, sa: np.ndarray, b: np.ndarray, sb: np.ndarray) -> float:
    # sa and sb: the chord lengths of a and b
    common = min(sa[-1], sb[-1])
    grid = np.linspace(0.0, common, _RESAMPLE)
    ra = _resample(a, grid, sa)
    rb = _resample(b, grid, sb)
    return float(np.max(np.linalg.norm(ra - rb, axis=1)))


def point_set_distance(a, b) -> float:
    """Distance between two curves as oriented-from-start point sets.

    Both curves are resampled uniformly in chord length after truncating to
    the shorter total length; the result is the largest pointwise gap, with
    the better of the two orientations of one curve. Arguments are put in a
    canonical order first, so the function is exactly symmetric. Curves of
    (near) zero length raise DegenerateCurve.
    """
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError("curves must be (k, n) arrays over a common space")
    if a.shape[0] < 2 or b.shape[0] < 2:
        raise DegenerateCurve("a curve needs at least two sample points")
    # canonical ordering makes the result exactly symmetric in (a, b)
    if (b.shape, b.tobytes()) < (a.shape, a.tobytes()):
        a, b = b, a
    sa, sb, rb = _chord_lengths(a), _chord_lengths(b), b[::-1]
    if sa[-1] < 1e-12 or sb[-1] < 1e-12:
        raise DegenerateCurve("cannot compare curves of zero arc length")
    return min(_directed_distance(a, sa, b, sb), _directed_distance(a, sa, rb, _chord_lengths(rb)))


def rescale_to_energy(L: LagrangianModel, x0, v0, e: float) -> np.ndarray:
    """Scale v0 along its ray so that the energy at (x0, .) equals e."""
    res = solve_energy_scale(L, x0, v0, e)
    return np.asarray(v0, float) / res.s


def _arc_length(L: LagrangianModel, e: float, traj) -> float:
    """The level-metric length of an energy-e Euler-Lagrange arc, by the trapezoid rule:
    on the level F_e = L + e (to second order in the energy drift), one batch of L.

    Where F_e is not positive at a sample, the level metric is no metric
    along the arc, as for a magnetic Lagrangian below its critical energy,
    and PreconditionError names the first such time.
    """
    f = L.eval_batch(traj.positions, traj.velocities) + e
    bad = np.flatnonzero(f <= 0.0)
    if bad.size:
        raise PreconditionError(
            f"the level metric is not positive along the Euler-Lagrange arc from t={traj.times[bad[0]]:.6g}; "
            f"e = {e:.6g} is below the critical value there")
    return float(np.trapezoid(f, traj.times))


def _speed(dq, theta):
    """|dx/dtheta| of quartic pieces at step fractions theta; dq (4, n, ...) holds dx/dtheta."""
    v = ((dq[3] * theta + dq[2]) * theta + dq[1]) * theta + dq[0]
    return np.sqrt(np.einsum("i...,i...->...", v, v))


def _arc_table(dense, n: int):
    """The C-ordered (4, n, steps) coefficients of dx/dtheta of a dense output's first n
    components (theta the step fraction), and the arc length at every sub-knot:
    _SUBINTERVALS per step, by 2-point Gauss-Legendre."""
    m = _SUBINTERVALS
    dq = dense.qs[:, :n, :] * (dense.hs[:, None, None] * np.array([1.0, 2.0, 3.0, 4.0]))
    dq = np.ascontiguousarray(dq.T)
    speeds = _speed(dq[..., None], (np.arange(m)[:, None] + np.array(_GAUSS)).ravel() / m)
    pieces = (speeds[:, 0::2] + speeds[:, 1::2]) * (0.5 / m)
    return dq, np.concatenate([[0.0], np.cumsum(pieces)])


def _at_arc_length(dense, dq, table, s):
    """The times at which a dense output's arc length reaches s: the sub-interval by
    search, a linear first guess, then _NEWTON Newton steps on the step fraction."""
    m = _SUBINTERVALS
    j = np.clip(np.searchsorted(table, s, side="right") - 1, 0, len(table) - 2)
    step, lo = np.divmod(j, m)
    lo = lo / m
    dq, base = np.take(dq, step, axis=2), table[j]
    width = table[j + 1] - base
    theta = lo + np.divide(s - base, m * width, out=np.zeros_like(s), where=width > 0)
    for _ in range(_NEWTON):
        span = theta - lo
        part = 0.5 * span * (_speed(dq, lo + _GAUSS[0] * span) + _speed(dq, lo + _GAUSS[1] * span))
        slope = _speed(dq, theta)
        theta -= np.divide(base + part - s, slope, out=np.zeros_like(s), where=slope > 0)
        theta = np.clip(theta, lo, lo + 1.0 / m)
    return dense.ts[step] + theta * dense.hs[step]


def _dense_trace_distance(a, b, n: int) -> float:
    """The largest gap between two dense outputs' first n components, both forward from
    their start, at _RESAMPLE points of uniform Euclidean arc length up to the shorter."""
    tables = [_arc_table(d, n) for d in (a, b)]
    common = min(table[-1] for _, table in tables)
    if common < 1e-12:
        raise DegenerateCurve("cannot compare curves of zero arc length")
    s = np.linspace(0.0, common, _RESAMPLE)
    pa, pb = (d.sample(_at_arc_length(d, dq, table, s), slice(n))
              for d, (dq, table) in zip((a, b), tables))
    return float(np.max(np.linalg.norm(pa - pb, axis=1)))


def _check_level(e0: float, e: float) -> None:
    """Raise PreconditionError unless the initial energy e0 lies on the level e."""
    if abs(e0 - e) > 1e-10 * (1.0 + abs(e)):
        raise PreconditionError(
            f"initial energy {e0!r} is not on the requested level {e!r}; "
            "rescale the velocity first"
        )


def check_geodesic_equivalence(
    L: LagrangianModel,
    e: float,
    x0,
    v0,
    t_end: float,
    tol: float = 1e-10,
    samples: int = 801,
    pointset_tol: float = 1e-6,
    pointwise_tol: float = 1e-6,
    drift_tol: float = 1e-8,
) -> VerificationReport:
    """Compare the energy-e Lagrangian flow with its level-metric geodesics.

    Runs three integrations: the Euler-Lagrange flow from (x0, v0); the
    affine geodesic of the level metric from the unit-speed initial ray
    (2 percent past the level-metric length of the Lagrangian arc, so the
    traces overlap fully); and the level-conserving geodesic from (x0, v0)
    itself, which matches the Lagrangian flow pointwise in time.

    ``trace_distance`` is the largest gap between the Lagrangian and affine
    dense outputs at 8192 points of uniform Euclidean arc length (Gauss-Legendre
    on each step's interpolant), up to the shorter length. Both runs start at x0
    along v0, so only the forward orientation is compared: dropping the reversed
    one can only raise the reading, never hide a gap. Numerical failures inside
    the runs are folded into the report as failures rather than raised, named by
    the run that raised, and so is a level metric that is not positive on the
    Euler-Lagrange samples, found before the geodesics run; a wrong initial
    energy raises PreconditionError since the comparison is meaningless off
    the level.
    """
    x0 = np.asarray(x0, float)
    v0 = np.asarray(v0, float)
    _check_level(energy(L, x0, v0), e)

    report = VerificationReport(name=f"geodesic equivalence at e={e}")
    metric = jacobi_finsler(L, e)
    run = "Euler-Lagrange flow"
    try:
        el = integrate_el(L, x0, v0, t_end, tol=tol, samples=samples)
        el_drift = float(np.max(np.abs(el.energy_log - e)))

        run = "affine geodesic"
        length = _arc_length(L, e, el)

        arc = integrate_geodesic(
            metric, x0, v0, 1.02 * length, tol=tol, samples=samples, unit_speed=True
        )
        arc_drift = float(np.max(np.abs(arc.energy_log - arc.energy_log[0])))

        run = "level geodesic"
        lvl = integrate_geodesic(metric, x0, v0, t_end, tol=tol, samples=samples, level=True)
        lvl_drift = float(np.max(np.abs(lvl.energy_log - e)))

        # the traces as curves: both interpolants at uniform arc length
        trace_gap = _dense_trace_distance(el.dense, arc.dense, L.dim)
        pointwise_gap = float(
            np.max(np.linalg.norm(el.positions - lvl.positions, axis=1))
        )
    except RouthlabError as exc:
        report.fail(f"{run}: {type(exc).__name__}: {exc}")
        return report

    report.check("trace_distance", trace_gap, pointset_tol)
    report.check("pointwise_mismatch", pointwise_gap, pointwise_tol)
    report.check("lagrangian_energy_drift", el_drift, drift_tol)
    report.check("geodesic_speed_drift", arc_drift, drift_tol)
    report.check("level_energy_drift", lvl_drift, drift_tol)
    report.notes.append(
        f"t_end={t_end}, samples={samples}, metric length={length:.6g}, "
        f"integrator tol={tol}"
    )
    return report


# -- circle fitting and boundary angles -----------------------------------------


@dataclass(frozen=True)
class CircleFit:
    """Least-squares circle (or line, for collinear input) through points.

    For a line fit, ``radius`` is infinite and the locus is
    normal . p = offset with a unit normal; ``rms`` is the root-mean-square
    orthogonal residual in both cases.
    """

    center: np.ndarray
    radius: float
    rms: float
    is_line: bool
    normal: np.ndarray | None = None
    offset: float | None = None


def circle_fit(points) -> CircleFit:
    """Fit a circle to planar points, degrading gracefully to a line.

    Collinear input (smallest singular value of the centered cloud under
    1e-10 of the largest) returns a line fit. Otherwise an algebraic fit is
    refined by Gauss-Newton on the geometric residuals |p - c| - r.
    """
    pts = np.asarray(points, float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("circle_fit expects an (k, 2) array")
    if pts.shape[0] < 3:
        raise DegenerateCurve("need at least three points to fit a circle")
    mean = pts.mean(axis=0)
    centered = pts - mean
    svals = np.linalg.svd(centered, compute_uv=False)
    if svals[0] < 1e-12:
        raise DegenerateCurve("points nearly coincide; no circle is determined")
    if svals[-1] <= 1e-10 * svals[0]:
        # collinear: the line direction is the leading right singular vector
        _, _, vt = np.linalg.svd(centered)
        normal = vt[-1]
        offset = float(normal @ mean)
        if offset < 0.0:
            normal, offset = -normal, -offset
        res = centered @ normal
        return CircleFit(
            center=mean,
            radius=np.inf,
            rms=float(np.sqrt(np.mean(res**2))),
            is_line=True,
            normal=normal,
            offset=offset,
        )

    # algebraic (Kasa) initialization: |p|^2 = 2 c.p + (r^2 - |c|^2)
    design = np.column_stack([2.0 * pts, np.ones(len(pts))])
    target = np.einsum("ij,ij->i", pts, pts)
    sol, *_ = np.linalg.lstsq(design, target, rcond=None)
    center = sol[:2]
    radius = float(np.sqrt(max(sol[2] + center @ center, 0.0)))

    for _ in range(30):
        diff = pts - center
        dist = np.linalg.norm(diff, axis=1)
        res = dist - radius
        jac = np.empty((len(pts), 3))
        jac[:, :2] = -diff / dist[:, None]
        jac[:, 2] = -1.0
        step, *_ = np.linalg.lstsq(jac, -res, rcond=None)
        center = center + step[:2]
        radius = radius + step[2]
        if np.linalg.norm(step) <= 1e-14 * (1.0 + radius):
            break
    diff = pts - center
    res = np.linalg.norm(diff, axis=1) - radius
    return CircleFit(
        center=center,
        radius=float(radius),
        rms=float(np.sqrt(np.mean(res**2))),
        is_line=False,
    )


def boundary_angle(fit: CircleFit, tol: float = 1e-6) -> float:
    """Intersection angle, in degrees, between a fitted locus and the unit circle.

    Tangency (internal or external, within ``tol``) counts as 0 or 180
    degrees; loci missing the unit circle by more than ``tol`` raise
    NoIntersection.
    """
    if fit.is_line:
        rho = abs(float(fit.offset))
        if rho > 1.0 + tol:
            raise NoIntersection(
                f"line at distance {rho} from the origin misses the unit circle"
            )
        return float(np.degrees(np.arccos(min(rho, 1.0))))

    d = float(np.linalg.norm(fit.center))
    r = fit.radius
    if d > 1.0 + r + tol:
        raise NoIntersection(
            f"circle (|center|={d:.6g}, r={r:.6g}) lies outside the unit circle"
        )
    if d < abs(1.0 - r) - tol:
        raise NoIntersection(
            f"circle (|center|={d:.6g}, r={r:.6g}) is nested with the unit circle"
        )
    cosang = (1.0 + r * r - d * d) / (2.0 * r)
    return float(np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0))))
