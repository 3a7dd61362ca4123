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
from .jets import EVAL_ERRORS, SecondJet, batch_rows, drive, lockstep, run_kernel, solve_linear
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

#: the momentum solve stops where |p - mu| <= MOMENTUM_TOL (1 + |mu|), and
#: gives up after MOMENTUM_MAX_ITER Newton steps
MOMENTUM_TOL = 1e-12
MOMENTUM_MAX_ITER = 50
#: in-domain points the invariance check samples, in a ball of this radius,
#: and the relative bound on |dL/dx| in the cyclic slots
INVARIANCE_SAMPLES = 24
INVARIANCE_RADIUS = 0.4
INVARIANCE_TOL = 1e-12


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

    @cached_property
    def blocks(self) -> tuple:
        """``np.ix_`` grids of the cyclic-cyclic, cyclic-shape, shape-shape and shape-cyclic blocks."""
        c, s = self.cyc_idx, self.shape_idx
        return np.ix_(c, c), np.ix_(c, s), np.ix_(s, s), np.ix_(s, c)

    def embed(self, shape_vals, cyclic_vals) -> np.ndarray:
        full = np.zeros(self.dim)
        full[self.shape_idx] = shape_vals
        full[self.cyc_idx] = cyclic_vals
        return full


def check_invariance(L: LagrangianModel, split: CyclicSplit, ref_x=None, seed: int = 0) -> None:
    """Sample dL/dx on the cyclic slots; raise InvarianceError if any is nonzero.

    Sampling is confined to a ball around ref_x (zeros by default); points
    outside the model domain are redrawn.
    """
    rng = np.random.default_rng(seed)
    center = np.zeros(L.dim) if ref_x is None else np.asarray(ref_x, float)
    checked = 0
    for _ in range(40 * INVARIANCE_SAMPLES):
        if checked >= INVARIANCE_SAMPLES:
            return
        x = center + rng.uniform(-INVARIANCE_RADIUS, INVARIANCE_RADIUS, L.dim)
        y = rng.uniform(-1.2, 1.2, L.dim)
        try:
            j = L.eval(x, y)
        except DomainError:
            continue
        checked += 1
        worst = float(np.max(np.abs(j.d_x[split.cyc_idx])))
        if worst > INVARIANCE_TOL * (1.0 + abs(j.value)):
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
) -> np.ndarray:
    """Cyclic velocities where the conjugate momenta equal mu.

    Newton iteration on the cyclic block, starting from ``guess`` (zero by
    default). The iteration halves a step, up to 30 times, while the fiber
    jet at the new iterate raises DomainError (a bounded fiber domain such
    as |v| < 1; the position never changes), raises SingularBlock when the
    cyclic Hessian block fails to factor, and NoConvergence after
    MOMENTUM_MAX_ITER iterations or where the iterates diverge (an
    unreachable momentum target).

    The rules are written once, in the step routine ``_momentum_steps``: on
    one point :func:`jets.drive` feeds it one fiber jet per iterate, and
    :func:`_solve_momenta` runs it on every row at once for
    :meth:`ReducedLagrangian.eval_batch` and :func:`reconstruct`. With one
    cyclic coordinate, as in every shipped reduction, it runs on floats.
    """
    mu = np.asarray(mu, float)
    x_shape = np.asarray(x_shape, float)
    y_shape = np.asarray(y_shape, float)
    m = len(split.cyclic)
    z = np.zeros(m) if guess is None else np.asarray(guess, float).copy()
    _check_shapes(m, mu=mu, guess=z)
    full_x = split.embed(x_shape, np.zeros(m))
    full_y = split.embed(y_shape, z)
    one = m == 1
    c = split.cyclic[0] if one else split.cyc_idx
    # np.linalg.norm's own sqrt of a dot product, without its overhead
    steps = _momentum_steps(L, c, mu.item() if one else mu, full_x, full_y,
                            z.item() if one else z, math.sqrt(y_shape @ y_shape))
    z = drive(steps, lambda _: _cyclic_jet(L, c, full_x, full_y))
    return np.array([z]) if one else z


def _check_shapes(m: int, **arrays) -> None:
    """Raise a ValueError naming the first of arrays whose shape is not (m,)."""
    for name, a in arrays.items():
        if a.shape != (m,):
            raise ValueError(f"{name} must have shape ({m},)")


def _cyclic_jet(L, c, x, y):
    """(d_y[c], d_yy[c, c]) of L's fiber jet at (x, y); floats where c is one index."""
    _, d_y, d_yy = L.fiber_jet(x, y)
    if isinstance(c, np.ndarray):
        return d_y[c], d_yy[c[:, None], c]
    return d_y.item(c), d_yy.item(c, c)


def _momentum_steps(L, c, mu, full_x, full_y, z, shape_norm):
    """The rules of :func:`solve_momentum` as a step routine, driven jet by jet.

    It writes each iterate z into full_y[c] and yields it, receives
    (d_y[c], d_yy[c, c]) there or the jet's DomainError, and returns the
    solved z; ``shape_norm`` is the norm of the shape velocity. With one
    cyclic velocity, mu, z and the jet's entries are floats, a norm is
    sqrt(r * r) and a step divides, as LAPACK does for a 1x1 system (see
    :func:`solve_linear`); with more they are arrays, a norm is sqrt(r @ r),
    as ``np.linalg.norm`` takes it, and a step is ``np.linalg.solve``.
    """
    one = isinstance(z, float)
    scale, ceiling = _momentum_bounds(mu, z, shape_norm)
    r = None
    full_y[c] = z
    p, h = yield z
    for it in range(MOMENTUM_MAX_ITER):
        r = p - mu
        if math.sqrt(r * r if one else r @ r) <= scale:
            return z
        try:
            step = r / h if one else np.linalg.solve(h, r)
        except (ZeroDivisionError, np.linalg.LinAlgError) as exc:
            raise SingularBlock(f"cyclic velocity block is singular at x={full_x}") from exc
        # backtrack while the new iterate's jet fails; that jet serves the
        # next iteration, so the last takes none
        for _ in range(30):
            trial = z - step
            full_y[c] = trial
            if math.sqrt(trial * trial if one else trial @ trial) > ceiling:
                raise NoConvergence("momentum solve is diverging; "
                                    "the target momentum may be unreachable")
            if it + 1 == MOMENTUM_MAX_ITER:
                break
            try:
                p, h = yield trial
                break
            except DomainError:
                pass
            step = 0.5 * step
        else:
            raise NoConvergence("momentum solve could not stay inside the domain")
        z = trial
    raise NoConvergence(f"momentum solve did not converge in {MOMENTUM_MAX_ITER} iterations "
                        f"(residual {math.sqrt(r * r if one else r @ r):.3e})")


def _momentum_bounds(mu, z, shape_norm):
    """The residual bound and the divergence ceiling of a momentum solve from z."""
    one = isinstance(z, float)
    return (MOMENTUM_TOL * (1.0 + math.sqrt(mu * mu if one else mu @ mu)),
            1e8 * (1.0 + math.sqrt(z * z if one else z @ z) + shape_norm))


def _solve_momenta(L: LagrangianModel, split: CyclicSplit, mu: np.ndarray, xs_shape,
                   ys_shape, guess: np.ndarray) -> np.ndarray:
    """:func:`solve_momentum` on every row, each from the one guess of shape (m,); a (k, m) array.

    Each row runs its own step routine under :func:`jets.lockstep`. With one
    cyclic coordinate and every row's position inside L's position
    predicate, checked once as the positions never change, a round
    evaluates all pending iterates with one batched fiber jet through L's
    ``_eval_rows``, which skips that predicate.
    The rows of a round whose batched jet raises, or a row whose jet is not
    finite, are evaluated again alone, as the scalar solve evaluates them;
    otherwise each row takes its own jets. Where any row fails, the rows run
    in order through ``solve_momentum``, so the first failing row raises.
    """
    xs_shape, ys_shape = batch_rows(xs_shape, ys_shape)
    k, m = len(xs_shape), len(split.cyclic)
    full_x = _embed_rows(split, xs_shape, 0.0)
    full_y = _embed_rows(split, ys_shape, guess)
    norms = np.sqrt((ys_shape[:, None, :] @ ys_shape[:, :, None])[:, 0, 0]).tolist()
    if m == 1:
        c, mu_c, z0 = split.cyclic[0], mu.item(), guess.item()
    else:
        c, mu_c, z0 = split.cyc_idx, mu, guess

    def batch(rows, _):
        _, d_y, d_yy = L._eval_rows(full_x[rows], full_y[rows], 1)
        return [(p, h) if math.isfinite(p) and math.isfinite(h) else None
                for p, h in zip(d_y[:, c].tolist(), d_yy[:, c, c].tolist())]

    # each routine writes its iterates into its own row of full_y
    steps = [_momentum_steps(L, c, mu_c, full_x[i], full_y[i], z0, norms[i]) for i in range(k)]
    try:
        z = lockstep(steps, lambda i, _: _cyclic_jet(L, c, full_x[i], full_y[i]),
                     batch if m == 1 and L._rows_in_domain(full_x, full_y) else None)
    except EVAL_ERRORS:
        z = [solve_momentum(L, split, mu, x, y, guess=guess) for x, y in zip(xs_shape, ys_shape)]
    return np.array(z, float).reshape(k, m)


def _embed_rows(split: CyclicSplit, shape_rows, cyclic_rows) -> np.ndarray:
    """:meth:`CyclicSplit.embed` on every row."""
    full = np.empty((len(shape_rows), split.dim))
    full[:, split.shape_idx] = shape_rows
    full[:, split.cyc_idx] = cyclic_rows
    return full


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
        _check_shapes(m, mu=self.mu, guess=self.guess)

    def cyclic_velocity(self, x_shape, y_shape) -> np.ndarray:
        """The eliminated cyclic velocities at a shape-space point."""
        return solve_momentum(
            self.base, self.split, self.mu, x_shape, y_shape, guess=self.guess
        )

    def _el_kernel(self, x, v):
        """``el_acceleration`` from the base's ``"reduced-el"`` kernel, or None where ``eval`` must run.

        That is where the base has no tree or more than one coordinate is
        cyclic, and where the kernel returns None or raises: ``eval`` then
        meets its own result or error.
        """
        base, split = self.base, self.split
        if base.expression is None or len(split.cyclic) != 1:
            return None
        (c,), z, mu = split.cyclic, self.guess.item(), self.mu.item()
        full_x, full_v = x.tolist(), v.tolist()
        full_x.insert(c, 0.0)
        full_v.insert(c, z)
        try:
            base.domain_check(full_x, full_v)
            return run_kernel(base, "reduced-el", *full_x, *full_v, mu,
                              *_momentum_bounds(mu, z, math.sqrt(v @ v)), cyclic=c)
        except EVAL_ERRORS:
            return None

    def _eval_rows(self, xs, ys, order: int):
        """Orders 0 and 1: one lockstep momentum solve, then stacked Schur steps.

        The cyclic velocities come from :func:`_solve_momenta` with the
        model's guess on every row, and one batched base evaluation feeds
        the assembly of ``eval``. The Schur step divides where the cyclic
        block is 1x1 with one column, as :func:`solve_linear` does, and is a
        stacked ``np.linalg.solve`` otherwise; products are stacked matmuls.
        """
        split = self.split
        z = _solve_momenta(self.base, split, self.mu, xs, ys, self.guess)
        # every row passed the base's position predicate in the solve
        j = self.base._eval_rows(_embed_rows(split, xs, 0.0), _embed_rows(split, ys, z), order)
        mu_z = (self.mu[None, None, :] @ z[:, :, None])[:, 0, 0]
        if order == 0:
            return j - mu_z
        val, d_y, d_yy = j
        cc, cs, ss, sc = split.blocks
        a, b = d_yy[(..., *cc)], d_yy[(..., *cs)]
        with np.errstate(divide="raise", invalid="raise"):
            w = b / a if a.shape[1:] == b.shape[1:] == (1, 1) else np.linalg.solve(a, b)
        h = d_yy[(..., *ss)] - d_yy[(..., *sc)] @ w
        return val - mu_z, d_y[:, split.shape_idx], 0.5 * (h + h.transpose(0, 2, 1))

    def eval(self, x, y, order: int = 2):
        x, y = np.asarray(x, float), np.asarray(y, float)
        z = self.cyclic_velocity(x, y)
        full_x, full_y = self.split.embed(x, np.zeros(len(z))), self.split.embed(y, z)
        j = self.base.eval(full_x, full_y, order)
        if order == 0:
            return j - float(self.mu @ z)
        val, d_y, d_yy = j if order == 1 else (j.value, j.d_y, j.d_yy)
        shp = self.split.shape_idx
        cc, cs, ss, sc = self.split.blocks
        w = solve_linear(d_yy[cc], d_yy[cs], lambda: SingularBlock(
            f"cyclic velocity block is singular at x={full_x}"))
        h = d_yy[ss] - d_yy[sc] @ w
        h = 0.5 * (h + h.T)
        if order == 1:
            return val - float(self.mu @ z), d_y[shp], h
        return SecondJet(
            value=val - float(self.mu @ z),
            d_x=j.d_x[shp],
            d_y=d_y[shp],
            d_yy=h,
            d_xy=j.d_xy[ss] - j.d_xy[sc] @ w,
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
    return _round_trip(L, split, mu, x0, y0, t_end, tol, samples, shape_tol)[0]


def _round_trip(L, split, mu, x0, y0, t_end, tol=1e-11, samples=801, shape_tol=1e-8):
    """:func:`verify_reduction`'s report and the reduced trajectory it integrated."""
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

    every = max(1, samples // 200)
    _, d_y, _ = L.eval_batch(full.positions[::every], full.velocities[::every], 1)
    gaps = d_y[:, cyc] - mu
    # each row's norm as np.linalg.norm takes it, and the row loop's max()
    drift = max(np.sqrt((gaps[:, None, :] @ gaps[:, :, None])[:, 0, 0]).tolist())
    report.check("momentum_drift", drift, 1e-8)
    report.notes.append(f"t_end={t_end}, tol={tol}, dim={L.dim}, cyclic={split.cyclic}")
    return report, reduced


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
    composite Simpson quadrature. Every point solves from the one ``guess``
    (zero by default), in one lockstep solve, so each velocity is the one
    ``ReducedLagrangian(L, split, mu, guess).cyclic_velocity`` gives there:
    with the reduced model's guess, the velocity its flow integrated. An
    isolated spike in the velocity between neighbouring samples, more than
    0.1 and more than 50 times both neighbouring jumps, triggers a warning
    that the guess picked another branch of the momentum relation there.
    """
    if reduced.dense is None:
        raise ValueError("reconstruction requires a trajectory with dense output")
    mu = np.asarray(mu, float)
    cyclic_start = np.asarray(cyclic_start, float)
    m = len(split.cyclic)
    guess = np.zeros(m) if guess is None else np.asarray(guess, float)
    _check_shapes(m, cyclic_start=cyclic_start, guess=guess)

    times = reduced.times
    k, n_red = len(times), reduced.dim
    mid_states = reduced.dense.sample(0.5 * (times[:-1] + times[1:]))
    z = _solve_momenta(L, split, mu, np.vstack([reduced.positions, mid_states[:, :n_red]]),
                       np.vstack([reduced.velocities, mid_states[:, n_red:]]), guess)
    z_samples, z_mids = z[:k], z[k:]

    jumps = np.linalg.norm(np.diff(z_samples, axis=0), axis=1)
    inner = jumps[1:-1]
    spikes = inner[(inner > 0.1) & (inner > 50.0 * np.maximum(jumps[:-2], jumps[2:]))]
    if spikes.size:
        warnings.warn(
            f"cyclic velocity jumped by {spikes.max():.3g} between neighbouring samples; "
            "the momentum relation may have crossed branches",
            stacklevel=2,
        )

    # composite Simpson on each interval, then cumulative sum
    h = np.diff(times)[:, None]
    increments = (h / 6.0) * (z_samples[:-1] + 4.0 * z_mids + z_samples[1:])
    cyclic_pos = np.vstack([cyclic_start, cyclic_start + np.cumsum(increments, axis=0)])

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
