"""Lagrangian model families and the Euler-Lagrange flow.

Families provide exact analytic jets assembled from their coefficient
functions; coefficients (metric entries, magnetic one-form components,
potential) may be constants or position-dependent callables written in
generic arithmetic, in which case their position gradients are obtained by
first-order dual propagation. All families also expose the generic
expression path, so the analytic assemblies can be cross-checked against
plain hyper-dual propagation and against finite differences.

The mixed-derivative convention follows :mod:`routhlab.jets`:
``d_xy[i, j]`` differentiates first in ``x[i]``, then in ``v[j]``.
"""

from __future__ import annotations

import operator

import numpy as np

from .duals import grad_of, seed_first, sqrt, value_of
from .errors import DomainError, PreconditionError, RouthlabError, SingularHessian
from .expressions import Expression, parse_expression
from .integrators import Trajectory, solve_ode
from .jets import ScalarField, SecondJet, batch_rows, chain_jet, entrywise, solve_linear

__all__ = [
    "LagrangianModel",
    "MagneticLagrangian",
    "MechanicalLagrangian",
    "PowerQuadraticLagrangian",
    "HomogeneousLagrangian",
    "ExpressionLagrangian",
    "poincare_disk_lagrangian",
    "parse_lagrangian",
    "energy",
    "energies",
    "strong_convexity_check",
    "el_acceleration",
    "integrate_el",
]


# -- coefficient evaluation ---------------------------------------------------


def _call_spec(spec, x: np.ndarray, grads: bool):
    """A coefficient callable at x: on Grad seeds for gradients, else on floats."""
    xs = seed_first(x) if grads else [float(c) for c in x]
    try:
        return spec(xs)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(str(exc)) from exc


def _coeff_matrix(spec, x: np.ndarray, grads: bool):
    """Values (and optionally x-gradients) of an n-by-n coefficient matrix."""
    n = x.shape[0]
    if isinstance(spec, np.ndarray):
        return spec, (np.zeros((n, n, n)) if grads else None)
    rows = _call_spec(spec, x, grads)
    vals = np.empty((n, n))
    dvals = np.zeros((n, n, n)) if grads else None
    for i in range(n):
        for j in range(n):
            z = rows[i][j]
            vals[i, j] = value_of(z)
            if grads:
                dvals[:, i, j] = grad_of(z, n)
    return vals, dvals


def _coeff_vector(spec, x: np.ndarray, grads: bool):
    n = x.shape[0]
    if spec is None:
        return np.zeros(n), (np.zeros((n, n)) if grads else None)
    if isinstance(spec, np.ndarray):
        return spec, (np.zeros((n, n)) if grads else None)
    comps = _call_spec(spec, x, grads)
    vals = np.empty(n)
    dvals = np.zeros((n, n)) if grads else None
    for i in range(n):
        vals[i] = value_of(comps[i])
        if grads:
            dvals[:, i] = grad_of(comps[i], n)
    return vals, dvals


def _coeff_scalar(spec, x: np.ndarray, grads: bool):
    n = x.shape[0]
    if spec is None:
        return 0.0, (np.zeros(n) if grads else None)
    if isinstance(spec, (int, float)):
        return float(spec), (np.zeros(n) if grads else None)
    z = _call_spec(spec, x, grads)
    return value_of(z), (grad_of(z, n) if grads else None)


_float_pow = entrywise(operator.pow)

#: ufuncs whose float64 results are those of Python float arithmetic
_EXACT_UFUNCS = frozenset({np.add, np.subtract, np.multiply, np.true_divide,
                           np.negative, np.positive, np.absolute})


class _Lanes(np.ndarray):
    """One position coordinate over every row of a batch.

    A coefficient callable runs once on these columns instead of once per
    row, and each entry must come out as the row's float arithmetic gives
    it. So +, -, *, /, abs and the signs run as ufuncs, and ``**`` runs
    Python's float power entry by entry: numpy's power kernels, and the
    square and square root it puts in for ``**2`` and ``**0.5``, round
    differently from libm's ``pow``. Every other ufunc, and conversion to
    one float, raises TypeError, and the batch goes row by row.
    """

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method != "__call__" or kwargs or ufunc not in _EXACT_UFUNCS:
            return NotImplemented
        args = [a.view(np.ndarray) if isinstance(a, _Lanes) else a for a in inputs]
        return ufunc(*args).view(_Lanes)

    def __pow__(self, p):
        return _float_pow(self, p).view(_Lanes)

    def __float__(self):
        raise TypeError("a batch column is not one number")


def _batch_coeff(spec, xs: np.ndarray, shape: tuple):
    """A coefficient on every row of xs as a (k, *shape) array, or None.

    Constants broadcast, and a callable runs once on the position columns.
    None, which sends the batch row by row, means the call raised, hit a
    floating-point exception, or gave an entry that is not finite.
    """
    k, n = xs.shape
    out = np.empty((k, *shape))
    if spec is None:
        out.fill(0.0)
    elif isinstance(spec, np.ndarray if shape else (int, float)):
        out[...] = spec
    else:
        try:
            with np.errstate(all="raise"):
                z = spec([xs[:, i].view(_Lanes) for i in range(n)])
                if len(shape) == 2:
                    for i in range(n):
                        for j in range(n):
                            out[:, i, j] = z[i][j]
                elif shape:
                    for i in range(n):
                        out[:, i] = z[i]
                else:
                    out[:] = z
        except Exception:
            # the row loop calls it on floats and raises what a row raises
            return None
    return out if np.isfinite(out).all() else None


def _normalize_matrix_spec(spec, dim: int):
    if callable(spec):
        return spec
    m = np.asarray(spec, float)
    if m.shape != (dim, dim):
        raise ValueError(f"metric must be {dim}x{dim}, got {m.shape}")
    if not np.allclose(m, m.T, atol=0.0):
        raise ValueError("constant metric must be symmetric")
    return m


def _normalize_vector_spec(spec, dim: int):
    if spec is None or callable(spec):
        return spec
    b = np.asarray(spec, float)
    if b.shape != (dim,):
        raise ValueError(f"one-form must have {dim} components, got {b.shape}")
    return b


def _half_quadratic(metric, xs, ys):
    """1/2 y.g(x).y in generic arithmetic, skipping literal zero entries of g."""
    rows = metric(xs) if callable(metric) else metric
    acc = 0.0
    for i in range(len(ys)):
        for j in range(len(ys)):
            gij = rows[i][j]
            if isinstance(gij, (int, float)) and gij == 0.0:
                continue
            acc = acc + 0.5 * gij * ys[i] * ys[j]
    return acc


# -- model families -----------------------------------------------------------


class LagrangianModel(ScalarField):
    """A time-independent Lagrangian L(x, v) with second-order jets."""


class MagneticLagrangian(LagrangianModel):
    """L = 1/2 v.g(x).v + beta(x).v - V(x).

    ``metric`` must evaluate symmetric positive definite on the domain;
    ``domain`` is an optional predicate on position, and evaluation outside
    it raises DomainError.
    """

    family = "magnetic"

    def __init__(self, dim: int, metric, beta=None, potential=None, domain=None):
        if dim < 1:
            raise ValueError("dim must be at least 1")
        self.dim = int(dim)
        self.metric = _normalize_matrix_spec(metric, self.dim)
        self.beta = _normalize_vector_spec(beta, self.dim)
        self.potential = potential
        self._domain = domain

    def eval(self, x, y, order: int = 2):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        self.domain_check(x, y)
        grads = order == 2
        g, dg = _coeff_matrix(self.metric, x, grads)
        b, db = _coeff_vector(self.beta, x, grads)
        v, dv = _coeff_scalar(self.potential, x, grads)
        gy = g @ y
        val = 0.5 * float(y @ gy) + float(b @ y) - v
        if order == 0:
            return val
        if order == 1:
            return val, gy + b, g
        return SecondJet(
            value=val,
            d_x=0.5 * np.einsum("bij,i,j->b", dg, y, y) + db @ y - dv,
            d_y=gy + b,
            d_yy=g,
            d_xy=np.einsum("bij,j->bi", dg, y) + db,
        )

    def eval_batch(self, xs, ys, order: int = 0):
        """Batched orders 0 and 1: one coefficient call, then stacked matmuls.

        Every product that ``eval`` forms with ``@`` is a stacked ``np.matmul``
        here, which OpenBLAS rounds as it rounds the one-row product.
        """
        xs, ys = batch_rows(xs, ys)
        n = self.dim
        g = _batch_coeff(self.metric, xs, (n, n))
        b = _batch_coeff(self.beta, xs, (n,))
        v = _batch_coeff(self.potential, xs, ())
        if order not in (0, 1) or g is None or b is None or v is None \
                or not self._rows_in_domain(xs, ys):
            return super().eval_batch(xs, ys, order)
        gy = g @ ys[:, :, None]
        by = (b[:, None, :] @ ys[:, :, None])[:, 0, 0]
        val = 0.5 * (ys[:, None, :] @ gy)[:, 0, 0] + by - v
        if order == 0:
            return val
        return val, gy[:, :, 0] + b, g

    def expr(self, xs, ys):
        # generic-arithmetic form, used to cross-check the analytic assembly
        n = self.dim
        acc = _half_quadratic(self.metric, xs, ys)
        if self.beta is not None:
            comps = self.beta(xs) if callable(self.beta) else self.beta
            for i in range(n):
                acc = acc + comps[i] * ys[i]
        if self.potential is not None:
            pot = self.potential(xs) if callable(self.potential) else self.potential
            acc = acc - pot
        return acc


class MechanicalLagrangian(MagneticLagrangian):
    """Kinetic-minus-potential Lagrangian: L = 1/2 v.g(x).v - V(x)."""

    family = "simple"

    def __init__(self, dim: int, metric, potential=None, domain=None):
        super().__init__(dim, metric, beta=None, potential=potential, domain=domain)


class PowerQuadraticLagrangian(LagrangianModel):
    """L = (1/2 v.g(x).v)^(k/2), positively homogeneous of degree k in v.

    Strongly convex on the slit v != 0 for k >= 2 and positive definite g.
    """

    family = "k_homogeneous"

    def __init__(self, dim: int, metric, degree: int, domain=None):
        if degree < 2:
            raise ValueError("degree must be at least 2")
        self.dim = int(dim)
        self.metric = _normalize_matrix_spec(metric, self.dim)
        self.degree = int(degree)
        self._domain = domain

    def eval(self, x, y, order: int = 2):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        self.domain_check(x, y)
        g, dg = _coeff_matrix(self.metric, x, order == 2)
        gy = g @ y
        q = 0.5 * float(y @ gy)
        p = 0.5 * self.degree
        if p != 1.0 and q <= 0.0:
            raise DomainError("velocity outside the slit domain (quadratic form not positive)")
        if order == 0:
            return q if p == 1.0 else q**p
        if order == 1:
            quad = q, gy, g
        else:
            quad = SecondJet(
                value=q,
                d_x=0.5 * np.einsum("bij,i,j->b", dg, y, y),
                d_y=gy,
                d_yy=g,
                d_xy=np.einsum("bij,j->bi", dg, y),
            )
        if p == 1.0:
            return quad
        return chain_jet(quad, q**p, p * q ** (p - 1.0), p * (p - 1.0) * q ** (p - 2.0))

    def eval_batch(self, xs, ys, order: int = 0):
        """Batched orders 0 and 1, as :meth:`MagneticLagrangian.eval_batch`.

        The powers of q run on Python floats, one row at a time.
        """
        xs, ys = batch_rows(xs, ys)
        g = _batch_coeff(self.metric, xs, (self.dim, self.dim))
        if order not in (0, 1) or g is None or not self._rows_in_domain(xs, ys):
            return super().eval_batch(xs, ys, order)
        gy = (g @ ys[:, :, None])[:, :, 0]
        q = 0.5 * (ys[:, None, :] @ gy[:, :, None])[:, 0, 0]
        p = 0.5 * self.degree
        if p == 1.0:
            return q if order == 0 else (q, gy, g)
        if (q <= 0.0).any():
            return super().eval_batch(xs, ys, order)
        qs = q.tolist()
        f0 = np.array([t**p for t in qs])
        if order == 0:
            return f0
        f1 = np.array([p * t ** (p - 1.0) for t in qs])[:, None]
        f2 = np.array([p * (p - 1.0) * t ** (p - 2.0) for t in qs])[:, None, None]
        return f0, f1 * gy, f1[:, :, None] * g + f2 * (gy[:, :, None] * gy[:, None, :])

    def expr(self, xs, ys):
        acc = _half_quadratic(self.metric, xs, ys)
        if self.degree == 2:
            return acc
        if self.degree % 2 == 0:
            return acc ** (self.degree // 2)
        return sqrt(acc) ** self.degree


class HomogeneousLagrangian(LagrangianModel):
    """Wraps a field positively homogeneous of integer degree k in velocity.

    The scaling degree is verified on random sample points at construction;
    a wrapped field that fails the Euler scaling test is rejected.
    """

    family = "k_homogeneous"

    def __init__(self, base: ScalarField, degree: int, verify_samples: int = 25, seed: int = 7):
        if degree < 1:
            raise ValueError("degree must be at least 1")
        self.base = base
        self.dim = base.dim
        self.degree = int(degree)
        self._verify_degree(verify_samples, seed)

    def _verify_degree(self, samples: int, seed: int):
        rng = np.random.default_rng(seed)
        checked = 0
        for _ in range(40 * samples):
            if checked >= samples:
                return
            x = rng.uniform(-0.8, 0.8, self.dim)
            y = rng.uniform(0.5, 1.5, self.dim) * rng.choice([-1.0, 1.0], self.dim)
            lam = rng.uniform(0.5, 2.0)
            try:
                a = self.base.value(x, lam * y)
                b = self.base.value(x, y)
            except DomainError:
                continue
            checked += 1
            if abs(a - lam**self.degree * b) > 1e-10 * (1.0 + abs(a)):
                raise PreconditionError(
                    f"field is not homogeneous of degree {self.degree} in velocity"
                )
        if checked == 0:
            raise PreconditionError(
                "could not find in-domain sample points for the degree check"
            )

    def domain_check(self, x, y):
        self.base.domain_check(x, y)

    def eval(self, x, y, order: int = 2):
        return self.base.eval(x, y, order)


class ExpressionLagrangian(LagrangianModel):
    """Lagrangian defined by parsed expression text in x1..xn, v1..vn."""

    family = "expression"

    def __init__(self, expression: Expression, dim: int, domain=None):
        self.expression = expression
        self.dim = int(dim)
        self._domain = domain

    def expr(self, xs, ys):
        return self.expression.fn(xs, ys)

    def eval(self, x, y, order: int = 2):
        """Value from the float closures, fiber and full jets from the kernels.

        The kernels equal the hyper-dual jets of ``expr`` (``ScalarField.eval``)
        bit for bit wherever those are finite, up to the sign of zero
        entries. The fiber kernel seeds only the velocities, so
        subexpressions of position alone are float arithmetic, as at order
        0. It can therefore succeed where the full kernel cannot: a
        position-only ``sqrt(x1)`` at x1 = 0 is the float 0.0 at orders 0
        and 1, while order 2 raises DomainError because the dual sqrt needs
        x1 > 0.
        """
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        self.domain_check(x, y)
        if order:
            kernel = self.expression.jet_kernel("fiber" if order == 1 else "full", self.dim)
        try:
            if order == 0:
                return float(value_of(self.expression.fn(x.tolist(), y.tolist())))
            out = kernel(*x.tolist(), *y.tolist())
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(str(exc)) from exc
        return out if order == 1 else SecondJet(*out)

    def eval_batch(self, xs, ys, order: int = 0):
        """Batched orders 0 and 1: the ``"columns"`` kernel, run once on all rows.

        Order 0 is the kernel's value entry, which is the float evaluation's
        value. A batch in which a domain guard fires, a floating-point
        operation raises or an entry is not finite goes row by row, so the
        first failing row raises.
        """
        xs, ys = batch_rows(xs, ys)
        if order not in (0, 1) or not self._rows_in_domain(xs, ys):
            return super().eval_batch(xs, ys, order)
        try:
            kernel = self.expression.jet_kernel("columns", self.dim)
            with np.errstate(all="raise"):
                val, d_y, d_yy = kernel(*xs.T, *ys.T)
        except (ArithmeticError, ValueError, TypeError, RouthlabError):
            # the row loop raises what a row raises
            return super().eval_batch(xs, ys, order)
        if not (np.isfinite(val).all() and np.isfinite(d_y).all() and np.isfinite(d_yy).all()):
            return super().eval_batch(xs, ys, order)
        return val if order == 0 else (val, d_y, d_yy)

    def describe(self) -> dict:
        d = super().describe()
        d["expression"] = self.expression.source
        return d


def poincare_disk_lagrangian() -> MagneticLagrangian:
    """The unit-disk magnetic model.

    Hyperbolic kinetic term (disk model, curvature -4 normalization) plus the
    rotationally invariant magnetic one-form; defined for |x| < 1:

        L = (v1^2 + v2^2) / (16 (1 - |x|^2)^2) + (x2 v1 - x1 v2) / (2 (1 - |x|^2))
    """

    def metric(xs):
        c = 1 - (xs[0] * xs[0] + xs[1] * xs[1])
        w = 1 / (8 * c * c)
        return [[w, 0.0], [0.0, w]]

    def beta(xs):
        c = 2 * (1 - (xs[0] * xs[0] + xs[1] * xs[1]))
        return [xs[1] / c, -xs[0] / c]

    model = MagneticLagrangian(
        dim=2,
        metric=metric,
        beta=beta,
        potential=None,
        domain=lambda x: float(x @ x) < 1.0,
    )
    model.family = "poincare_magnetic"
    return model


def parse_lagrangian(text: str, dim: int | None = None, domain=None) -> ExpressionLagrangian:
    """Build a Lagrangian from expression text.

    The dimension is inferred from the highest variable index unless declared;
    a declared dimension turns out-of-range indices into ArityError.
    """
    expression = parse_expression(text, dim=dim)
    n = dim if dim is not None else max(expression.max_x, expression.max_v, 1)
    return ExpressionLagrangian(expression, n, domain=domain)


# -- operations ---------------------------------------------------------------


def energy(L: LagrangianModel, x, v) -> float:
    """E_L = v . dL/dv - L at (x, v)."""
    v = np.asarray(v, float)
    val, d_y, _ = L.fiber_jet(np.asarray(x, float), v)
    return float(v @ d_y) - val


def energies(L: LagrangianModel, xs, vs) -> np.ndarray:
    """``energy`` at every row of (k, n) position and velocity arrays, in one batch."""
    xs, vs = batch_rows(xs, vs)
    val, d_y, _ = L.eval_batch(xs, vs, 1)
    return (vs[:, None, :] @ d_y[:, :, None])[:, 0, 0] - val


def strong_convexity_check(L: LagrangianModel, x, v) -> tuple[bool, float]:
    """Whether the velocity Hessian at (x, v) is positive definite.

    Returns (verdict, smallest eigenvalue); never raises on indefiniteness,
    though evaluation itself may raise DomainError outside the model domain.
    """
    _, _, h = L.fiber_jet(np.asarray(x, float), np.asarray(v, float))
    eigs = np.linalg.eigvalsh(0.5 * (h + h.T))
    smallest = float(eigs[0])
    return smallest > 0.0, smallest


def el_acceleration(L: LagrangianModel, x, v) -> np.ndarray:
    """Acceleration solving g.a = dL/dx - (d2L/dxdv)^T v at (x, v)."""
    x = np.asarray(x, float)
    v = np.asarray(v, float)
    j = L.eval(x, v)
    return solve_linear(j.d_yy, j.d_x - j.d_xy.T @ v, lambda: SingularHessian(
        f"velocity Hessian is singular at x={x}, v={v}"))


def integrate_el(
    L: LagrangianModel,
    x0,
    v0,
    t_end: float,
    tol: float = 1e-10,
    samples: int = 801,
    max_steps: int = 200_000,
) -> Trajectory:
    """Integrate the Euler-Lagrange flow from (x0, v0) over [0, t_end]."""
    x0 = np.asarray(x0, float)
    v0 = np.asarray(v0, float)
    n = L.dim
    if x0.shape != (n,) or v0.shape != (n,):
        raise ValueError(f"initial data must have shape ({n},)")
    ok, smallest = strong_convexity_check(L, x0, v0)
    if not ok:
        raise PreconditionError(
            f"L is not strongly convex at the initial state (min eigenvalue {smallest:.3g})"
        )

    def rhs(t, s):
        x = s[:n]
        v = s[n:]
        j = L.eval(x, v)
        a = solve_linear(j.d_yy, j.d_x - j.d_xy.T @ v, lambda: SingularHessian(
            f"velocity Hessian is singular at x={x}"))
        return np.concatenate([v, a])

    dense, stats = solve_ode(rhs, np.concatenate([x0, v0]), t_end, tol=tol, max_steps=max_steps)
    times = np.linspace(0.0, t_end, samples)
    states = dense.sample(times)
    positions = states[:, :n]
    velocities = states[:, n:]
    return Trajectory(
        times=times,
        positions=positions,
        velocities=velocities,
        energy_log=energies(L, positions, velocities),
        stats=stats,
        dense=dense,
        meta={"kind": "euler_lagrange"},
    )
