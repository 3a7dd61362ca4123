"""Geodesic flow of 1-homogeneous metric functions.

The velocity Hessian of a 1-homogeneous F is degenerate along y, so the
motion equations are formed from the energy E = F^2 / 2 instead: its
velocity Hessian is the fundamental tensor, invertible wherever F is
quasi-definite. The resulting second-order field (the canonical spray) is
2-homogeneous in velocity and conserves F, which makes affine geodesic
parameters unit-speed up to a constant.

Because 1-homogeneity leaves the trace of a geodesic independent of its
parametrization, the spray may be shifted by any multiple of the velocity
without changing trajectories as point sets. :func:`projective_shift` uses
that freedom to hold a chosen function of (x, y) constant along the flow. A
level run holds the base energy of an energy-level metric, which reproduces
the Lagrangian flow pointwise in its own time, and logs that energy.

A :class:`~routhlab.homogenize.JacobiFinslerModel` over a traced base runs
its spray, or its level spray, as the energy-scale solve and one generated
kernel that writes this assembly in straight-line float code
(:func:`routhlab.jets.run_kernel`). Anything else runs the numpy assembly,
which the tests keep as the kernel's oracle.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, PreconditionError, SingularHessian
from .homogenize import JacobiFinslerModel
from .integrators import Trajectory, integrate_sampled
from .jets import ScalarField, SecondJet, run_kernel, solve_linear
from .lagrangian import energies

__all__ = [
    "half_square_jet",
    "canonical_spray",
    "projective_shift",
    "integrate_geodesic",
]


def half_square_jet(F: ScalarField, x, y) -> SecondJet:
    """Second-order jet of E = F^2 / 2 assembled from the jet of F."""
    j = F.eval(np.asarray(x, float), np.asarray(y, float))
    f = j.value
    return SecondJet(
        value=0.5 * f * f,
        d_x=f * j.d_x,
        d_y=f * j.d_y,
        d_yy=np.outer(j.d_y, j.d_y) + f * j.d_yy,
        d_xy=np.outer(j.d_x, j.d_y) + f * j.d_xy,
    )


def canonical_spray(F: ScalarField):
    """Acceleration field of the affine geodesic equation of F.

    Returns ``accel(x, y) -> a`` solving g a = E_x - E_xy^T y with
    g the fundamental tensor (velocity Hessian of F^2/2). The field is
    positively 2-homogeneous in y and its flow conserves F.
    """
    return _spray(F, False)


def _spray(F: ScalarField, level: bool):
    """The acceleration field of F, shifted to hold its base energy if ``level``."""
    if level and not isinstance(F, JacobiFinslerModel):
        raise TypeError(f"a level run needs an energy-level metric, not a {type(F).__name__}")
    if isinstance(F, JacobiFinslerModel) and F.base.expression is not None:

        def generated(x, y):
            x, y = np.asarray(x, float), np.asarray(y, float)
            return run_kernel(F.base, "level-spray" if level else "spray",
                              *x.tolist(), *y.tolist(), F.energy_scale(x, y), F.e)

        return generated
    accel = _assembled_spray(F)
    return projective_shift(accel, F.level_jet) if level else accel


def _assembled_spray(F: ScalarField):
    """The canonical spray of F from ``F.eval`` and :func:`half_square_jet`, in numpy."""

    def accel(x, y):
        j = half_square_jet(F, x, y)
        rhs = j.d_x - j.d_xy.T @ np.asarray(y, float)
        return solve_linear(j.d_yy, rhs, lambda: SingularHessian(
            f"fundamental tensor is singular at x={np.asarray(x)}"))

    return accel


def projective_shift(accel, level_jet):
    """Reparametrize a spray so that a function of (x, y) is conserved.

    ``level_jet(x, y)`` must return (value, d_x, d_y) of the function to
    hold constant. The shifted acceleration a + p y keeps every trajectory's
    trace; p is chosen so the level's total time derivative vanishes.
    """

    def shifted(x, y):
        y = np.asarray(y, float)
        a = accel(x, y)
        _, l_x, l_y = level_jet(x, y)
        den = float(l_y @ y)
        if abs(den) < 1e-14:
            raise DomainError(
                "level function is insensitive to the velocity scale; "
                "no conserving reparametrization exists here"
            )
        p = -(float(l_x @ y) + float(l_y @ a)) / den
        return a + p * y

    return shifted


def integrate_geodesic(
    F: ScalarField,
    x0,
    y0,
    t_end: float,
    tol: float = 1e-10,
    samples: int = 801,
    level: bool = False,
    unit_speed: bool = False,
) -> Trajectory:
    """Integrate the geodesic flow of F from (x0, y0) for time t_end.

    With ``unit_speed`` the initial velocity is rescaled by 1/F(x0, y0), so
    the affine parameter advances one unit of F-length per unit time. With
    ``level`` F must be an energy-level metric, and the projectively shifted
    spray holds its base Lagrangian's energy, which the energy log records;
    otherwise the log records F. Either way it is what the run conserves.
    """
    x0 = np.asarray(x0, float)
    y0 = np.asarray(y0, float)
    n = x0.shape[0]
    accel = _spray(F, level)
    f0 = F.value(x0, y0)
    if not np.isfinite(f0) or f0 <= 0.0:
        raise PreconditionError(
            f"initial velocity has nonpositive metric value F = {f0}"
        )
    if unit_speed:
        y0 = y0 / f0

    def rhs(_, state):
        a = accel(state[:n], state[n:])
        return np.concatenate([state[n:], a])

    return integrate_sampled(rhs, x0, y0, t_end, tol, samples,
                             (lambda xs, ys: energies(F.base, xs, ys)) if level else F.eval_batch,
                             {"kind": "geodesic", "level_conserving": level})
