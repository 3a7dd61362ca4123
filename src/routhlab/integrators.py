"""Adaptive Dormand-Prince 5(4) integration with dense output.

One embedded Runge-Kutta pair drives every flow in the package (base
Euler-Lagrange dynamics, reduced dynamics, geodesic sprays). The fifth-order
solution propagates; the fourth-order one supplies the error estimate; a PI
controller adjusts the step. The first-same-as-last property saves one
right-hand-side evaluation per accepted step.

Right-hand sides may raise DomainError to veto a trial step (adaptive probes
must not wander outside a chart); the step is then retried smaller, and the
run aborts with StepFailure only once the step size underflows or the step
budget runs out.

Each accepted step stores the standard quartic interpolant, so trajectories
can later be sampled at arbitrary times to the integrator's own accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, StepFailure

__all__ = ["IntegratorStats", "DenseOutput", "Trajectory", "solve_ode"]

# Dormand-Prince 5(4) tableau
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
# difference between the 5th- and 4th-order weights
_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)
# quartic dense-output coefficients for the same tableau
_P = np.array(
    [
        [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
        [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
        [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
        [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
        [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)

_SAFETY = 0.9
_MAX_GROW = 5.0
_MIN_SHRINK = 0.2
# PI controller exponents for an order-4 error estimate
_ALPHA = 0.7 / 5.0
_BETA = 0.4 / 5.0
#: accepted plus rejected steps one solve may take
MAX_STEPS = 200_000
#: the smallest step at time t is _H_MIN * max(1, |t|)
_H_MIN = 2e-13


@dataclass(frozen=True)
class IntegratorStats:
    steps: int
    rejected: int
    rhs_evals: int
    tolerance: float


class DenseOutput:
    """Piecewise-quartic interpolant over the accepted steps of one run."""

    def __init__(self, ts, y0s, hs, qs, y_final):
        self.ts = np.asarray(ts)            # (k+1,) knot times
        self.y0s = np.asarray(y0s)          # (k, d) left states
        self.hs = np.asarray(hs)            # (k,)
        self.qs = np.asarray(qs)            # (k, d, 4)
        self.knot_states = np.vstack([self.y0s, y_final[None, :]])

    @property
    def t_min(self) -> float:
        return float(self.ts[0])

    @property
    def t_max(self) -> float:
        return float(self.ts[-1])

    def sample(self, times, components=slice(None)) -> np.ndarray:
        """The states at ``times``, one row each, restricted to ``components``."""
        times = np.atleast_1d(np.asarray(times, float))
        if times.min() < self.t_min - 1e-12 or times.max() > self.t_max + 1e-12:
            raise ValueError(
                f"sample times outside [{self.t_min}, {self.t_max}]"
            )
        idx = np.searchsorted(self.ts, times, side="right") - 1
        idx = np.clip(idx, 0, len(self.hs) - 1)
        theta = (times - self.ts[idx]) / self.hs[idx]
        powers = np.stack([theta, theta**2, theta**3, theta**4], axis=1)
        return self.y0s[idx, components] + self.hs[idx, None] * np.einsum(
            "mdp,mp->md", self.qs[idx, components], powers
        )


@dataclass(frozen=True)
class Trajectory:
    """Sampled flow with its conserved-quantity log and solver statistics.

    ``energy_log`` records the run's conserved quantity at the sample times:
    the Lagrangian energy for Euler-Lagrange flows, the metric function value
    for affine geodesic runs, and the base Lagrangian's energy for level runs.
    """

    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    energy_log: np.ndarray
    stats: IntegratorStats
    dense: DenseOutput | None = None
    meta: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.positions.shape[1]


def _error_norm(err, scale):
    return float(np.sqrt(np.mean((err / scale) ** 2)))


def _initial_step(rhs, t0, y0, f0, t_end, tol):
    scale = tol + tol * np.abs(y0)
    d0 = _error_norm(y0, scale)
    d1 = _error_norm(f0, scale)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, t_end - t0)
    try:
        f1 = rhs(t0 + h0, y0 + h0 * f0)
        d2 = _error_norm(f1 - f0, scale) / h0
    except DomainError:
        d2 = d1
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, t_end - t0)


def solve_ode(rhs, y0, t_end: float, tol: float = 1e-10):
    """Integrate dy/dt = rhs(t, y) from 0 to t_end.

    Returns (DenseOutput, IntegratorStats). Raises StepFailure when the step
    size underflows against repeated rejections or after MAX_STEPS steps.
    """
    if t_end <= 0.0:
        raise ValueError("t_end must be positive")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    y = np.asarray(y0, float).copy()
    d = y.shape[0]
    t = 0.0
    nfev = 0

    f = rhs(t, y)
    nfev += 1
    if not np.all(np.isfinite(f)):
        raise StepFailure("right-hand side not finite at the initial state")

    h = _initial_step(rhs, t, y, f, t_end, tol)
    nfev += 1
    h = max(h, 1e-12)

    knot_ts = [0.0]
    y0s, hs, qs = [], [], []
    steps = 0
    rejected = 0
    err_prev = 1.0
    k = np.empty((7, d))

    while t < t_end * (1.0 - 1e-14):
        h = min(h, t_end - t)
        if t + h < t_end * (1.0 - 1e-14) and t_end - (t + h) < _H_MIN * max(1.0, abs(t + h)):
            h = t_end - t  # the remainder would be a step below its own minimum
        if h < _H_MIN * max(1.0, abs(t)):
            raise StepFailure(
                f"step size underflow at t={t:.6g} (h={h:.3g}); "
                "the flow likely hit a domain boundary or a singularity"
            )

        failed = False
        k[0] = f
        try:
            for s in range(1, 7):
                ys = y + h * (k[:s].T @ _A[s])
                nfev += 1
                k[s] = rhs(t + _C[s] * h, ys)
            y_new = y + h * (k.T @ _B)
            if not np.all(np.isfinite(y_new)) or not np.all(np.isfinite(k)):
                failed = True
        except DomainError:
            failed = True

        if failed:
            rejected += 1
            h *= 0.5
            continue

        scale = tol + tol * np.maximum(np.abs(y), np.abs(y_new))
        err = _error_norm(h * (k.T @ _E), scale)

        if err > 1.0:
            rejected += 1
            h *= max(_MIN_SHRINK, _SAFETY * err ** (-0.2))
            continue

        # accept
        y0s.append(y.copy())
        hs.append(h)
        qs.append(k.T @ _P)
        t = t + h
        knot_ts.append(t)
        y = y_new
        f = k[6]  # first-same-as-last
        steps += 1
        if steps + rejected > MAX_STEPS:
            raise StepFailure(f"step budget exhausted after {steps} accepted steps")

        if err == 0.0:
            factor = _MAX_GROW
        else:
            factor = _SAFETY * err ** (-_ALPHA) * err_prev ** _BETA
        h *= min(_MAX_GROW, max(_MIN_SHRINK, factor))
        err_prev = max(err, 1e-10)

    dense = DenseOutput(np.array(knot_ts), np.array(y0s), np.array(hs), np.array(qs), y)
    return dense, IntegratorStats(steps=steps, rejected=rejected, rhs_evals=nfev, tolerance=tol)


def integrate_sampled(rhs, x0, v0, t_end: float, tol: float, samples: int, conserved,
                      meta: dict) -> Trajectory:
    """Integrate dy/dt = rhs(t, y) from the state (x0, v0) over [0, t_end].

    The run is sampled at ``samples`` evenly spaced times, and
    ``conserved(positions, velocities)`` gives its energy log there.
    """
    n = x0.shape[0]
    dense, stats = solve_ode(rhs, np.concatenate([x0, v0]), t_end, tol=tol)
    times = np.linspace(0.0, t_end, samples)
    states = dense.sample(times)
    positions = states[:, :n]
    velocities = states[:, n:]
    return Trajectory(
        times=times,
        positions=positions,
        velocities=velocities,
        energy_log=conserved(positions, velocities),
        stats=stats,
        dense=dense,
        meta=meta,
    )
