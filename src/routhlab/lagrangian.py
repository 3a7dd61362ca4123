"""Lagrangian model families and the Euler-Lagrange flow.

Each family writes its Lagrangian once, as ``expr(xs, ys)`` in generic
arithmetic over coefficients (metric entries, magnetic one-form components,
potential) that are constants or position callables. At construction
``expr`` is traced once into an expression tree, which calls each callable
once, so callables must be pure. The model then evaluates through
:meth:`~routhlab.jets.ScalarField.eval`, the one evaluator of every field,
which runs the tree's compiled kernels as it does for DSL models. A callable
that needs numbers (``float()``, a branch on a value, ``math`` or numpy
functions) leaves the model untraced, and the same evaluator propagates
hyper-duals through ``expr``.

The mixed-derivative convention follows :mod:`routhlab.jets`:
``d_xy[i, j]`` differentiates first in ``x[i]``, then in ``v[j]``.
"""

from __future__ import annotations

import numpy as np

from .duals import positive, power
from .errors import DomainError, PreconditionError, SingularHessian
from .expressions import Expression, parse_expression, trace_expression
from .integrators import Trajectory, integrate_sampled
from .jets import EVAL_ERRORS, ScalarField, batch_rows, require_expr, solve_linear

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


#: in-domain sample points of HomogeneousLagrangian's degree check, and their seed
VERIFY_SAMPLES = 25
VERIFY_SEED = 7


def _normalize_matrix(spec, dim: int):
    if callable(spec):
        return spec
    m = np.asarray(spec, float)
    if m.shape != (dim, dim):
        raise ValueError(f"metric must be {dim}x{dim}, got {m.shape}")
    if not np.allclose(m, m.T, atol=0.0):
        raise ValueError("constant metric must be symmetric")
    return m


def _normalize_vector(spec, dim: int):
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


def _plus_one_form(acc, beta, xs, ys):
    """acc + beta(x).y in generic arithmetic, summed from the left; acc where beta is None."""
    if beta is None:
        return acc
    comps = beta(xs) if callable(beta) else beta
    for i in range(len(ys)):
        acc = acc + comps[i] * ys[i]
    return acc


# -- model families -----------------------------------------------------------


class LagrangianModel(ScalarField):
    """A time-independent Lagrangian L(x, v); :meth:`ScalarField.eval` evaluates it."""


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
        self.metric = _normalize_matrix(metric, self.dim)
        self.beta = _normalize_vector(beta, self.dim)
        self.potential = potential
        self._domain = domain
        self.expression = trace_expression(self.expr, self.dim, "MagneticLagrangian.expr")

    def expr(self, xs, ys):
        acc = _plus_one_form(_half_quadratic(self.metric, xs, ys), self.beta, xs, ys)
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

    Strongly convex on the slit v != 0 for k >= 2 and positive definite g;
    for k != 2, evaluation where the quadratic form is not positive raises
    DomainError.
    """

    family = "k_homogeneous"

    def __init__(self, dim: int, metric, degree: int, domain=None):
        if degree < 2:
            raise ValueError("degree must be at least 2")
        self.dim = int(dim)
        self.metric = _normalize_matrix(metric, self.dim)
        self.degree = int(degree)
        self._domain = domain
        self.expression = trace_expression(self.expr, self.dim, "PowerQuadraticLagrangian.expr")

    def expr(self, xs, ys):
        q = _half_quadratic(self.metric, xs, ys)
        if self.degree == 2:
            return q
        slit = "velocity outside the slit domain (quadratic form not positive)"
        return power(positive(q, slit), 0.5 * self.degree)


class HomogeneousLagrangian(LagrangianModel):
    """Wraps a field positively homogeneous of integer degree k in velocity.

    The scaling degree is verified on random sample points at construction;
    a wrapped field that fails the Euler scaling test is rejected. The
    wrapper takes its base's ``expr`` and tree, so it evaluates as its base.
    """

    family = "k_homogeneous"

    def __init__(self, base: ScalarField, degree: int):
        require_expr(base, "HomogeneousLagrangian")
        if degree < 1:
            raise ValueError("degree must be at least 1")
        self.base = base
        self.dim = base.dim
        self._domain = base._domain
        self.expression = base.expression
        self.degree = int(degree)
        self._verify_degree()

    def _verify_degree(self):
        rng = np.random.default_rng(VERIFY_SEED)
        checked = 0
        for _ in range(40 * VERIFY_SAMPLES):
            if checked >= VERIFY_SAMPLES:
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

    def expr(self, xs, ys):
        return self.base.expr(xs, ys)


class ExpressionLagrangian(LagrangianModel):
    """Lagrangian defined by parsed expression text in x1..xn, v1..vn."""

    family = "expression"

    def __init__(self, expression: Expression, dim: int, domain=None):
        self.expression = expression
        self.dim = int(dim)
        self._domain = domain

    def expr(self, xs, ys):
        return self.expression.fn(xs, ys)

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
    """Acceleration solving g.a = dL/dx - (d2L/dxdv)^T v at (x, v).

    A model with a tree runs its ``"el"`` kernel: the full jet, the right-hand
    side and the solve in one call of float code, which raises as ``eval``
    and the solve raise but sums L_xv^T v from the left, so an entry may
    differ from numpy's in the last bits. A reduction by one cyclic
    coordinate runs its ``"reduced-el"`` kernel where that applies
    (``ReducedLagrangian._el_flow``). This is :func:`integrate_el`'s
    right-hand side (``_el_rhs``) at one point. Otherwise, and as the tests'
    oracle, it is ``eval``'s jet and numpy's solve.
    """
    x = np.asarray(x, float)
    v = np.asarray(v, float)
    return np.array(_el_rhs(L)(0.0, x.tolist() + v.tolist())[L.dim:])


def _el_rhs(L: LagrangianModel):
    """L's Euler-Lagrange right-hand side ``rhs(t, [*x, *v]) -> (*v, *a)``, built once per run.

    The ``"el"`` kernel raises DomainError for a guard's ValueError, as a
    step veto; a step lets every other error through. Where the reduced kind
    declines or raises, and without a kernel, the numpy path runs.
    """
    n = L.dim

    def solved(t, s):
        return (*s[n:], *_el_solve(L, np.array(s[:n]), np.array(s[n:])).tolist())

    def rhs(t, s):
        try:
            return kernel(*s)
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(str(exc)) from exc

    def reduced(t, s):
        try:
            out = kernel(*s, *args)
        except EVAL_ERRORS:
            out = None
        return solved(t, s) if out is None else out

    flow = L._el_flow()
    if flow is None:
        return solved
    kernel, args = flow
    return reduced if args else rhs


def _el_solve(L: LagrangianModel, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``el_acceleration`` from ``eval``'s jet and numpy's solve."""
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

    return integrate_sampled(_el_rhs(L), x0, v0, t_end, tol, samples,
                             lambda xs, vs: energies(L, xs, vs), {"kind": "euler_lagrange"})
