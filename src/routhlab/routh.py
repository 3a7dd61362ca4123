"""Reduction of cyclic coordinates at fixed conjugate momentum.

For a Lagrangian that does not depend on a subset of its coordinates, the
conjugate momenta of those coordinates are conserved. Fixing their value mu
and eliminating the cyclic velocities yields a reduced Lagrangian on the
remaining (shape) coordinates whose Euler-Lagrange flow matches the shape
part of the full flow; the cyclic coordinates are then recovered by
quadrature.

The reduced jets are assembled exactly from the full model's jets through
the implicit function theorem: eliminating the cyclic block turns the
velocity Hessian into its Schur complement, and the mixed block is corrected
the same way. No extra differentiation order is required.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DomainError,
    InvarianceError,
    NoConvergence,
    PreconditionError,
    SingularBlock,
)
from .integrators import Trajectory
from .jets import SecondJet, solve_linear
from .lagrangian import LagrangianModel, energies, integrate_el
from .reporting import VerificationReport

__all__ = [
    "CyclicSplit",
    "check_invariance",
    "momentum",
    "solve_momentum",
    "ReducedLagrangian",
    "routhian",
    "verify_reduction",
    "reconstruct",
]


def _index_array(indices) -> np.ndarray:
    a = np.array(indices, dtype=int)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class CyclicSplit:
    """Partition of coordinate indices into cyclic and shape groups."""

    dim: int
    cyclic: tuple[int, ...]
    shape: tuple[int, ...]

    @classmethod
    def of(cls, dim: int, cyclic_indices) -> "CyclicSplit":
        cyclic = tuple(int(i) for i in cyclic_indices)
        if len(set(cyclic)) != len(cyclic):
            raise ValueError("cyclic indices must be distinct")
        for i in cyclic:
            if not 0 <= i < dim:
                raise ValueError(f"cyclic index {i} out of range for dimension {dim}")
        if not cyclic:
            raise ValueError("at least one cyclic index is required")
        if len(cyclic) >= dim:
            raise ValueError("at least one shape coordinate must remain")
        shape = tuple(i for i in range(dim) if i not in cyclic)
        return cls(dim=dim, cyclic=cyclic, shape=shape)

    @cached_property
    def cyc_idx(self) -> np.ndarray:
        return _index_array(self.cyclic)

    @cached_property
    def shape_idx(self) -> np.ndarray:
        return _index_array(self.shape)

    def embed(self, shape_vals, cyclic_vals) -> np.ndarray:
        full = np.zeros(self.dim)
        full[self.shape_idx] = shape_vals
        full[self.cyc_idx] = cyclic_vals
        return full


def check_invariance(
    L: LagrangianModel,
    split: CyclicSplit,
    ref_x=None,
    samples: int = 24,
    seed: int = 0,
    radius: float = 0.4,
    tol: float = 1e-12,
) -> None:
    """Sample dL/dx on the cyclic slots; raise InvarianceError if any is nonzero.

    Sampling is confined to a ball around ref_x (zeros by default); points
    outside the model domain are redrawn.
    """
    rng = np.random.default_rng(seed)
    center = np.zeros(L.dim) if ref_x is None else np.asarray(ref_x, float)
    checked = 0
    for _ in range(40 * samples):
        if checked >= samples:
            return
        x = center + rng.uniform(-radius, radius, L.dim)
        y = rng.uniform(-1.2, 1.2, L.dim)
        try:
            j = L.eval(x, y)
        except DomainError:
            continue
        checked += 1
        worst = float(np.max(np.abs(j.d_x[split.cyc_idx])))
        if worst > tol * (1.0 + abs(j.value)):
            raise InvarianceError(
                f"coordinate(s) {split.cyclic} are not cyclic: "
                f"sampled |dL/dx| = {worst:.3e} at x={x}"
            )
    if checked == 0:
        raise PreconditionError("no in-domain sample points found for the invariance check")


def momentum(L: LagrangianModel, split: CyclicSplit, x, y) -> np.ndarray:
    """Conjugate momenta of the cyclic coordinates at (x, y)."""
    _, d_y, _ = L.fiber_jet(np.asarray(x, float), np.asarray(y, float))
    return d_y[split.cyc_idx]


def solve_momentum(
    L: LagrangianModel,
    split: CyclicSplit,
    mu,
    x_shape,
    y_shape,
    guess=None,
    tol: float = 1e-12,
    max_iter: int = 50,
) -> np.ndarray:
    """Cyclic velocities where the conjugate momenta equal mu.

    Newton iteration on the cyclic block, starting from ``guess`` (zero by
    default). The iteration halves a step, up to 30 times, while the new
    iterate leaves the model domain or its fiber jet raises DomainError (a
    bounded fiber domain such as |v| < 1), raises SingularBlock when the
    cyclic Hessian block fails to factor, and NoConvergence when the budget
    runs out or the iterates diverge (an unreachable momentum target). With
    one cyclic coordinate, as in every shipped reduction, it runs on floats
    and gives the same bits.
    """
    mu = np.asarray(mu, float)
    x_shape = np.asarray(x_shape, float)
    y_shape = np.asarray(y_shape, float)
    m = len(split.cyclic)
    if mu.shape != (m,):
        raise ValueError(f"mu must have shape ({m},)")
    z = np.zeros(m) if guess is None else np.asarray(guess, float).copy()
    full_x = split.embed(x_shape, np.zeros(m))
    if m == 1:
        return _solve_momentum_1(L, split.cyclic[0], mu.item(), full_x,
                                 split.embed(y_shape, z), y_shape, z.item(), tol, max_iter)
    scale = tol * (1.0 + float(np.linalg.norm(mu)))
    ceiling = 1e8 * (1.0 + float(np.linalg.norm(z)) + float(np.linalg.norm(y_shape)))

    cyc = split.cyc_idx
    residual = None
    _, d_y, d_yy = L.fiber_jet(full_x, split.embed(y_shape, z))
    for it in range(max_iter):
        residual = d_y[cyc] - mu
        if np.linalg.norm(residual) <= scale:
            return z
        step = solve_linear(d_yy[cyc[:, None], cyc], residual, lambda: SingularBlock(
            f"cyclic velocity block is singular at x={full_x}"))
        # backtrack while the new iterate leaves the domain or its jet
        # fails; that jet serves the next iteration, so the last takes none
        for _ in range(30):
            trial = z - step
            full_y = split.embed(y_shape, trial)
            if L.in_domain(full_x, full_y):
                if float(np.linalg.norm(trial)) > ceiling:
                    raise NoConvergence(
                        "momentum solve is diverging; the target momentum may be unreachable"
                    )
                if it + 1 == max_iter:
                    break
                try:
                    _, d_y, d_yy = L.fiber_jet(full_x, full_y)
                    break
                except DomainError:
                    pass
            step = 0.5 * step
        else:
            raise NoConvergence("momentum solve could not stay inside the domain")
        z = trial
    raise NoConvergence(
        f"momentum solve did not converge in {max_iter} iterations "
        f"(residual {np.linalg.norm(residual):.3e})"
    )


def _solve_momentum_1(L, c, mu, full_x, full_y, y_shape, z, tol, max_iter):
    """solve_momentum's loop for the one cyclic velocity full_y[c] = z, on floats.

    A 1-vector's norm is sqrt(r * r) and a 1x1 solve divides (see
    :func:`solve_linear`), so every iterate has the vector loop's bits.
    """
    scale = tol * (1.0 + math.sqrt(mu * mu))
    ceiling = 1e8 * (1.0 + math.sqrt(z * z) + float(np.linalg.norm(y_shape)))
    r = None
    _, d_y, d_yy = L.fiber_jet(full_x, full_y)
    for it in range(max_iter):
        r = d_y.item(c) - mu
        if math.sqrt(r * r) <= scale:
            return np.array([z])
        if d_yy.item(c, c) == 0.0:
            raise SingularBlock(f"cyclic velocity block is singular at x={full_x}")
        step = r / d_yy.item(c, c)
        for _ in range(30):
            trial = z - step
            full_y[c] = trial
            if L.in_domain(full_x, full_y):
                if math.sqrt(trial * trial) > ceiling:
                    raise NoConvergence("momentum solve is diverging; "
                                        "the target momentum may be unreachable")
                if it + 1 == max_iter:
                    break
                try:
                    _, d_y, d_yy = L.fiber_jet(full_x, full_y)
                    break
                except DomainError:
                    pass
            step = 0.5 * step
        else:
            raise NoConvergence("momentum solve could not stay inside the domain")
        z = trial
    raise NoConvergence(f"momentum solve did not converge in {max_iter} iterations "
                        f"(residual {math.sqrt(r * r):.3e})")


class ReducedLagrangian(LagrangianModel):
    """The reduced Lagrangian on shape space at fixed cyclic momentum.

    Evaluation solves the momentum relation for the cyclic velocities from a
    fixed initial guess (so repeated evaluation is deterministic and selects
    a consistent branch), then assembles the reduced jet by Schur
    complementing the cyclic block out of the full jet.
    """

    family = "routhian"

    def __init__(self, base: LagrangianModel, split: CyclicSplit, mu, guess=None):
        if split.dim != base.dim:
            raise ValueError("split dimension does not match the model")
        self.base = base
        self.split = split
        self.mu = np.asarray(mu, float)
        self.dim = len(split.shape)
        m = len(split.cyclic)
        self.guess = np.zeros(m) if guess is None else np.asarray(guess, float)

    def cyclic_velocity(self, x_shape, y_shape) -> np.ndarray:
        """The eliminated cyclic velocities at a shape-space point."""
        return solve_momentum(
            self.base, self.split, self.mu, x_shape, y_shape, guess=self.guess
        )

    def _lift(self, x_shape, y_shape):
        z = self.cyclic_velocity(x_shape, y_shape)
        full_x = self.split.embed(x_shape, np.zeros(len(self.split.cyclic)))
        full_y = self.split.embed(y_shape, z)
        return full_x, full_y, z

    def eval(self, x, y, order: int = 2):
        full_x, full_y, z = self._lift(np.asarray(x, float), np.asarray(y, float))
        j = self.base.eval(full_x, full_y, order)
        if order == 0:
            return j - float(self.mu @ z)
        val, d_y, d_yy = j if order == 1 else (j.value, j.d_y, j.d_yy)
        cyc, shp = self.split.cyc_idx, self.split.shape_idx
        w = solve_linear(d_yy[cyc[:, None], cyc], d_yy[cyc[:, None], shp], lambda: SingularBlock(
            f"cyclic velocity block is singular at x={full_x}"))
        h = d_yy[shp[:, None], shp] - d_yy[shp[:, None], cyc] @ w
        h = 0.5 * (h + h.T)
        if order == 1:
            return val - float(self.mu @ z), d_y[shp], h
        return SecondJet(
            value=val - float(self.mu @ z),
            d_x=j.d_x[shp],
            d_y=d_y[shp],
            d_yy=h,
            d_xy=j.d_xy[shp[:, None], shp] - j.d_xy[shp[:, None], cyc] @ w,
        )


def routhian(
    L: LagrangianModel,
    split: CyclicSplit,
    mu,
    guess=None,
    verify: bool = True,
    ref_x=None,
) -> ReducedLagrangian:
    """Reduced Lagrangian at fixed cyclic momentum mu.

    With ``verify`` on, the declared cyclic coordinates are first checked by
    sampling dL/dx near ref_x; a non-cyclic declaration raises
    InvarianceError.
    """
    if verify:
        check_invariance(L, split, ref_x=ref_x)
    return ReducedLagrangian(L, split, mu, guess=guess)


def verify_reduction(
    L: LagrangianModel,
    split: CyclicSplit,
    mu,
    x0,
    y0,
    t_end: float,
    tol: float = 1e-11,
    samples: int = 801,
    shape_tol: float = 1e-8,
) -> VerificationReport:
    """Integrate the full and reduced flows and compare shape trajectories.

    Precondition: the initial data must realize the requested momentum.
    """
    x0 = np.asarray(x0, float)
    y0 = np.asarray(y0, float)
    mu = np.asarray(mu, float)
    mu0 = momentum(L, split, x0, y0)
    if np.linalg.norm(mu0 - mu) > 1e-10 * (1.0 + np.linalg.norm(mu)):
        raise PreconditionError(
            f"initial momentum {mu0} does not match the requested value {mu}"
        )

    report = VerificationReport(name="cyclic-reduction round trip")
    shp, cyc = split.shape_idx, split.cyc_idx
    full = integrate_el(L, x0, y0, t_end, tol=tol, samples=samples)
    reduced_model = routhian(L, split, mu, guess=y0[cyc], verify=False)
    reduced = integrate_el(reduced_model, x0[shp], y0[shp], t_end, tol=tol, samples=samples)

    mismatch = float(np.max(np.abs(full.positions[:, shp] - reduced.positions)))
    report.check("shape_trajectory_mismatch", mismatch, shape_tol)

    drift = max(
        float(np.linalg.norm(momentum(L, split, full.positions[i], full.velocities[i]) - mu))
        for i in range(0, samples, max(1, samples // 200))
    )
    report.check("momentum_drift", drift, 1e-8)
    report.notes.append(f"t_end={t_end}, tol={tol}, dim={L.dim}, cyclic={split.cyclic}")
    return report


def reconstruct(
    L: LagrangianModel,
    split: CyclicSplit,
    mu,
    reduced: Trajectory,
    cyclic_start,
    guess=None,
) -> Trajectory:
    """Recover the cyclic coordinates along a reduced trajectory.

    The eliminated velocities are evaluated on the trajectory's sample grid
    plus interval midpoints (through the dense output) and integrated with
    composite Simpson quadrature. Solves warm-start from the previous point;
    a branch jump between neighbouring points triggers a warning.
    """
    if reduced.dense is None:
        raise ValueError("reconstruction requires a trajectory with dense output")
    mu = np.asarray(mu, float)
    cyclic_start = np.asarray(cyclic_start, float)
    m = len(split.cyclic)
    if cyclic_start.shape != (m,):
        raise ValueError(f"cyclic_start must have shape ({m},)")

    times = reduced.times
    n_red = reduced.dim
    mids = 0.5 * (times[:-1] + times[1:])
    mid_states = reduced.dense.sample(mids)

    z_prev = np.zeros(m) if guess is None else np.asarray(guess, float)
    jumps = []

    def iota(xs, ys, z0):
        return solve_momentum(L, split, mu, xs, ys, guess=z0)

    z_samples = np.empty((len(times), m))
    z_mids = np.empty((len(mids), m))
    for i, t in enumerate(times):
        z_samples[i] = iota(reduced.positions[i], reduced.velocities[i], z_prev)
        if i > 0:
            jumps.append(float(np.linalg.norm(z_samples[i] - z_samples[i - 1])))
        z_prev = z_samples[i]
    for i in range(len(mids)):
        z_mids[i] = iota(mid_states[i, :n_red], mid_states[i, n_red:], z_samples[i])

    if len(jumps) > 3:
        typical = np.median([j for j in jumps if j > 0.0] or [0.0])
        worst = max(jumps)
        if typical > 0.0 and worst > 50.0 * typical and worst > 0.1:
            warnings.warn(
                f"cyclic velocity jumped by {worst:.3g} between neighbouring samples; "
                "the momentum relation may have crossed branches",
                stacklevel=2,
            )

    # composite Simpson on each interval, then cumulative sum
    h = np.diff(times)[:, None]
    increments = (h / 6.0) * (z_samples[:-1] + 4.0 * z_mids + z_samples[1:])
    cyclic_pos = np.vstack([cyclic_start, cyclic_start + np.cumsum(increments, axis=0)])

    k = len(times)
    positions = np.empty((k, split.dim))
    velocities = np.empty((k, split.dim))
    positions[:, split.shape_idx] = reduced.positions
    positions[:, split.cyc_idx] = cyclic_pos
    velocities[:, split.shape_idx] = reduced.velocities
    velocities[:, split.cyc_idx] = z_samples
    return Trajectory(
        times=times.copy(),
        positions=positions,
        velocities=velocities,
        energy_log=energies(L, positions, velocities),
        stats=reduced.stats,
        dense=None,
        meta={"kind": "reconstructed", "cyclic": split.cyclic},
    )
