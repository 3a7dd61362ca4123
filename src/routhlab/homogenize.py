"""Homogenization of Lagrangians and the induced energy-level Finsler metric.

A time-independent Lagrangian L(x, v) extends to a positively 1-homogeneous
function on one more coordinate,

    F(x0, x, u, y) = u * L(x, y / u),    u > 0,

where the added coordinate x0 is cyclic and the momentum conjugate to it is
minus the energy of L. Reducing that single cyclic coordinate at momentum -e
eliminates u through the energy relation E(x, y / u) = e and produces a
1-homogeneous function on the original coordinates,

    F_e(x, y) = s * (L(x, y / s) + e),   where E(x, y / s) = e,

whose geodesics trace exactly the energy-e solutions of L. This module
builds both constructions with exact jets (the eliminated scale is
differentiated implicitly, never by finite differences), plus closed forms
for fiberwise-homogeneous and quadratic-plus-linear Lagrangians, gauge
shifts by exact one-forms (which commute with the level metric), and the
pointwise positivity check appropriate for degenerate (1-homogeneous)
velocity Hessians. The lift, a gauge shift and the closed forms write
``expr`` and are traced when built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .duals import positive, power, sqrt
from .errors import DomainError, EnergyUnreachable, NoConvergence, PositionDomainError
from .expressions import SCALE_TOL, Expression, parse_expression, time_derivative, trace_expression
from .jets import ScalarField, SecondJet, drive, require_expr, run_kernel, stack_rows
from .lagrangian import (
    LagrangianModel,
    MagneticLagrangian,
    _half_quadratic,
    _normalize_matrix,
    _normalize_vector,
    _plus_one_form,
)

__all__ = [
    "FinslerModel",
    "HomogenizedLagrangian",
    "EnergyScaleResult",
    "solve_energy_scale",
    "JacobiFinslerModel",
    "jacobi_finsler",
    "RandersModel",
    "randers_closed_form",
    "randers_global_criterion",
    "poincare_randers",
    "homogeneous_closed_form",
    "gauge_shift",
    "quasi_definite_check",
]


class FinslerModel(ScalarField):
    """A positively 1-homogeneous function of the velocity.

    The velocity Hessian of such a function annihilates y, so strong
    convexity is never available; :func:`quasi_definite_check` is the
    appropriate positivity test.
    """

    family: str = "finsler"


# -- homogenization ------------------------------------------------------------


class HomogenizedLagrangian(FinslerModel):
    """F(x0, x, u, y) = u * L(x, y/u) on the half-space u > 0.

    Coordinate 0 of both position and velocity is the added slot; position 0
    never enters the value (it is cyclic by construction) and velocity 0
    must stay positive, a guard of ``expr``. The momentum conjugate to
    coordinate 0 equals minus the energy of the base Lagrangian. ``expr``
    writes the lift over the base's ``expr`` and is traced at construction,
    as the families are; the position predicate is the base's on x[1:].
    """

    family = "homogenized"

    def __init__(self, base: LagrangianModel):
        require_expr(base, "the lift")
        self.base = base
        self.dim = base.dim + 1
        if base._domain is not None:
            self._domain = lambda x: base._domain(x[1:])
        self.expression = trace_expression(self.expr, self.dim, "HomogenizedLagrangian.expr")

    def describe(self) -> dict:
        return {"family": self.family, "dim": self.dim, "base": self.base.describe()}

    def expr(self, xs, ys):
        u = positive(ys[0], "scale velocity must be positive")
        return u * self.base.expr(xs[1:], [y / u for y in ys[1:]])


# -- the energy-scale equation -------------------------------------------------

#: probes at s = |y|, 2|y|, 4|y|, ... that the scale solve tries before it
#: decides that the ray starts outside the fiber domain
FIRST_PROBE_TRIES = 8
#: the scale solve stops where |E - e| <= SCALE_TOL (1 + |e|), and gives up
#: after SCALE_MAX_ITER model or bisection steps
SCALE_MAX_ITER = 80


@dataclass(frozen=True)
class EnergyScaleResult:
    """Root of E(x, y/s) = e with solver diagnostics."""

    s: float
    residual: float
    iterations: int


def solve_energy_scale(
    L: LagrangianModel,
    x,
    y,
    e: float,
) -> EnergyScaleResult:
    """Solve E(x, y/s) = e for the positive scale s.

    Each probe at s evaluates one fiber jet and gives the residual
    r = E(x, y/s) - e and q = v.L_vv.v = -dE/d(ln s). The solve fits the
    model E(s) = C + A s^(-k) to the probe, so that q = k (E - C), and steps
    to the model's root s ((q/k) / (q/k - r))^(1/k). With k = 2 the step is
    exact for quadratic-plus-linear Lagrangians, and after every further
    probe k is refitted as ln(q_prev/q) / ln(s/s_prev), which makes it exact
    for fiberwise-homogeneous ones; a refit outside (1, 64) resets k to 2.

    The residual falls as s grows wherever L is strongly convex along the
    ray, so the probes' signs keep a bracket lo < root < hi (the rtsafe
    safeguard of Numerical Recipes, section 9.4). A model step gives way to
    a geometric step when it is undefined (q <= 0 or q/k <= r), leaves the
    bracket, probes outside the fiber domain, or follows a model step that
    kept the residual's sign without halving it. Once both ends of the
    bracket are known the geometric step is a log-bisection, placed a
    quarter of the way from the end a model step overshot; before that it
    doubles or halves s toward the missing end. Only those expansions
    decide that the requested level does not exist on the ray:
    :class:`EnergyUnreachable` is raised when one leaves the fiber domain,
    when the residual stagnates, or after 200 of them. The result is the
    first probed s with |r| <= SCALE_TOL (1 + |e|), or, once probes of opposite
    sign sit at adjacent floats, the one of them with the smaller |r|;
    ``residual`` is the probed residual and ``iterations`` counts probes.

    The first probe is at s = |y|. A position outside the position
    predicate raises its PositionDomainError there. Where the probe leaves
    the fiber domain, s doubles, up to FIRST_PROBE_TRIES probes in all,
    before the first DomainError is raised. The last scale that failed is
    then the lower end of the bracket, and log-bisection runs until a probe
    replaces it: the fiber domain ends between the two, where the model
    cannot see. If that end meets the upper one at adjacent floats, the
    level is unreachable.

    These rules are written once, in the step routine ``_scale_steps``, which
    :func:`jets.drive` feeds one fiber jet per probe. The level-metric
    kernels of a traced base (``expressions._KernelWriter.scaled``) write
    its usual path, two or three probes, in float code, and run this solve
    wherever they leave that path.
    """
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    steps = _scale_steps(float(np.linalg.norm(y)), e)
    return drive(steps, lambda s: _scale_probe(L, x, y, s, e))


def _scale_probe(L, x, y, s: float, e: float):
    """(r, q) = (E(x, v) - e, v.L_vv.v) at v = y/s, from one fiber jet."""
    w = y / s
    val, d_y, d_yy = L.fiber_jet(x, w)
    return float(w @ d_y) - val - e, float(w @ (d_yy @ w))


def _scale_steps(s: float, e: float):
    """The rules of :func:`solve_energy_scale` as a routine driven probe by probe.

    A generator that starts from s = |y|: it yields each scale to probe,
    receives (r, q) there or has the probe's DomainError thrown in, and
    returns the EnergyScaleResult.
    """
    if s == 0.0:
        raise DomainError("the energy scale is undefined on the zero velocity")
    atol = SCALE_TOL * (1.0 + abs(e))
    stall_tol = 1e-14 * (1.0 + abs(e))

    # y/|y| can round onto the edge of a bounded fiber domain such as
    # |v| < 1; the last scale that failed is then a floor for the bracket
    floor, first_error = 0.0, None
    for _ in range(FIRST_PROBE_TRIES):
        try:
            r, q = yield s
            break
        except PositionDomainError:
            raise
        except DomainError as exc:
            floor, first_error = s, first_error or exc
            s *= 2.0
    else:
        raise first_error
    evals, steps, expansions, stalls = 1, 0, 0, 0
    # residual(lo) > 0 > residual(hi); r_lo and r_hi are the probed residuals
    # at the ends, None at an end that no successful probe has set
    lo, r_lo, hi, r_hi = (s, r, math.inf, None) if r > 0.0 else (floor, None, s, r)
    k, skip_model = 2.0, False
    while abs(r) > atol:
        bracketed = lo > 0.0 and hi < math.inf
        if bracketed and math.nextafter(lo, hi) == hi:
            if r_lo is None or r_hi is None:
                raise EnergyUnreachable(
                    f"energy level {e} is unreachable along this ray "
                    "(fiber domain ends before the level)"
                )
            # the sign change lies between adjacent floats, where a steep
            # energy can keep both residuals above atol (Brent 1973)
            s, r = (lo, r_lo) if abs(r_lo) <= abs(r_hi) else (hi, r_hi)
            break
        t, w = None, 0.5  # w: where a bisection falls in [lo, hi], in ln s
        # the fiber domain ends above a lower end set by a failed first
        # probe, where the model cannot see: bisect until a probe replaces it
        floor_end = lo > 0.0 and r_lo is None
        if not (skip_model or floor_end) and q > 0.0 and q / k > r:
            t = s * ((q / k) / (q / k - r)) ** (1.0 / k)
            if t == s and bracketed:
                # the model puts the root within one ulp of s
                t = float(np.nextafter(s, hi if r > 0.0 else lo))
            if not lo < t < hi:
                # the model overshot an end of the bracket, so the root is
                # likely near that end: bisect a quarter of the way from it
                t, w = None, (0.25 if t <= lo else 0.75)
        model = t is not None
        if model or bracketed:
            steps += 1
            if steps > SCALE_MAX_ITER:
                raise NoConvergence(
                    f"energy scale solve stalled after {SCALE_MAX_ITER} iterations "
                    f"(|residual| = {abs(r):.3e})"
                )
            if not model:
                t = lo ** (1.0 - w) * hi**w
                if not lo < t < hi:
                    # ends a few ulps apart: the power rounds onto one of them
                    t = 0.5 * (lo + hi)
        else:
            expansions += 1
            if expansions > 200:
                raise EnergyUnreachable(f"energy level {e} is unreachable along this ray")
            t = 2.0 * s if r > 0.0 else 0.5 * s
        try:
            r_t, q_t = yield t
        except DomainError as exc:
            if not (model or bracketed):
                raise EnergyUnreachable(
                    f"energy level {e} is unreachable along this ray "
                    "(fiber domain ends before the level)"
                ) from exc
            # a failed model step gives way to a geometric one; a failed
            # bisection narrows the bracket from below while its lower end
            # is a failed first probe, and from above otherwise
            skip_model = model
            if not model and r_lo is None:
                lo = t
            elif not model:
                hi, r_hi = t, None
            continue
        evals += 1
        if not (model or bracketed):
            stalls = stalls + 1 if abs(r - r_t) <= stall_tol else 0
            if stalls >= 3:
                raise EnergyUnreachable(
                    f"energy level {e} is unreachable along this ray "
                    f"(residual stagnates at {r_t:.3e} as the scale "
                    f"{'grows' if r > 0.0 else 'shrinks'})"
                )
        # a model step that keeps the residual's sign without halving it is
        # creeping toward the root: the next step is geometric
        skip_model = model and r * r_t > 0.0 and abs(r_t) > 0.5 * abs(r)
        if q > 0.0 < q_t and t != s:
            k = math.log(q / q_t) / math.log(t / s)
            k = k if 1.0 < k < 64.0 else 2.0
        s, r, q = t, r_t, q_t
        if r > 0.0:
            lo, r_lo = s, r
        else:
            hi, r_hi = s, r
    return EnergyScaleResult(s=float(s), residual=float(r), iterations=evals)


# -- the energy-level Finsler function ------------------------------------------


class JacobiFinslerModel(FinslerModel):
    """F_e(x, y) = s (L(x, y/s) + e) with s the root of E(x, y/s) = e.

    All jets are assembled from a single base-Lagrangian jet at (x, y/s) via
    implicit differentiation of the scale equation. The velocity Hessian
    annihilates y by construction; the value is stationary with respect to
    the eliminated scale, so root-solve error enters the value only at
    second order.

    Over a base with a tree each order of ``eval`` is one kernel call, and
    where it declines or a guard of it raises, :func:`solve_energy_scale` and
    the numpy assembly run and raise what they raise; a batch is that, row
    by row, and the row loop over an untraced base.
    """

    family = "jacobi"

    def __init__(self, base: LagrangianModel, e: float):
        self.base = base
        self.e = float(e)
        self.dim = base.dim
        self._domain = base._domain

    def describe(self) -> dict:
        return {
            "family": self.family,
            "dim": self.dim,
            "energy": self.e,
            "base": self.base.describe(),
        }

    def energy_scale(self, x, y) -> float:
        """The eliminated scale s at (x, y)."""
        return solve_energy_scale(self.base, x, y, self.e).s

    def _rows_at_once(self) -> bool:
        return self.base.expression is not None

    def _eval_rows(self, xs, ys, order: int):
        """``eval`` past the position check on each row in turn."""
        return stack_rows([self._level(x, y, order) for x, y in zip(xs, ys)], order, self.dim)

    def eval(self, x, y, order: int = 2):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        self.domain_check(x, y)
        return self._level(x, y, order)

    def _level_kernel(self, kind: str, x: list, y: list):
        """The base tree's ``kind`` kernel at lists (x, y), with no position check; None where the
        base has no tree or the kernel declines or raises DomainError."""
        if self.base.expression is None:
            return None
        try:
            return run_kernel(self.base, kind, *x, *y, self.e)
        except DomainError:
            return None

    def _level(self, x, y, order: int):
        """``eval`` past the position check: the level kernel, or ``_solved`` where it gives None."""
        out = self._level_kernel(("level-value", "level-fiber", "level-full")[order], x.tolist(), y.tolist())
        if out is None:
            return self._solved(x, y, order)
        return SecondJet(*out) if order == 2 else out

    def _solved(self, x, y, order: int):
        """``eval`` past the position check by :func:`solve_energy_scale` and the numpy assembly."""
        s = self.energy_scale(x, y)
        v = y / s
        j = self.base.eval(x, v, order)
        if order == 0:
            return s * (j + self.e)
        val, d_y, d_yy_b = j if order == 1 else (j.value, j.d_y, j.d_yy)
        gv = d_yy_b @ v
        q = float(v @ gv)
        d_yy = (d_yy_b - np.outer(gv, gv) / q) / s
        d_yy = 0.5 * (d_yy + d_yy.T)
        if order == 1:
            return s * (val + self.e), d_y.copy(), d_yy
        e_x = j.d_xy @ v - j.d_x
        return SecondJet(
            value=s * (val + self.e),
            d_x=s * j.d_x,
            d_y=d_y.copy(),
            d_yy=d_yy,
            d_xy=j.d_xy - np.outer(e_x, gv) / q,
        )

    def level_jet(self, x, y):
        """First jet of the conserved level E_L(x, y) - e.

        Reparametrizing the canonical geodesic flow to hold this function at
        zero reproduces the base Euler-Lagrange flow pointwise in time.
        """
        j = self.base.eval(np.asarray(x, float), np.asarray(y, float))
        y = np.asarray(y, float)
        en = float(y @ j.d_y) - j.value
        return en - self.e, j.d_xy @ y - j.d_x, j.d_yy @ y


def jacobi_finsler(L: LagrangianModel, e: float) -> JacobiFinslerModel:
    """The Finsler function whose geodesics are the energy-e solutions of L."""
    return JacobiFinslerModel(L, e)


# -- quadratic-plus-linear closed form ------------------------------------------


def _coeff(spec, x: np.ndarray, shape: tuple) -> np.ndarray:
    """A coefficient at x as a float array of ``shape``."""
    if not callable(spec):
        return np.broadcast_to(np.asarray(0.0 if spec is None else spec, float), shape)
    try:
        return np.array(spec(x.tolist()), float).reshape(shape)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(str(exc)) from exc


class RandersModel(FinslerModel):
    """F = sqrt(y . G(x) y) + B(x) . y, written once as ``expr`` and traced when built.

    G must evaluate symmetric positive definite wherever the model is used;
    the one-form B must stay shorter than 1 in the G-inverse norm for the
    fundamental tensor to remain positive (checked pointwise by
    :func:`quasi_definite_check`, not at construction).
    """

    family = "randers"

    def __init__(self, dim: int, metric, beta=None, domain=None):
        if dim < 1:
            raise ValueError("dim must be at least 1")
        self.dim = int(dim)
        self.metric = _normalize_matrix(metric, self.dim)
        self.beta = _normalize_vector(beta, self.dim)
        self._domain = domain
        self.expression = trace_expression(self.expr, self.dim, "RandersModel.expr")

    def expr(self, xs, ys):
        a = 2.0 * _half_quadratic(self.metric, xs, ys)
        root = sqrt(positive(a, "metric coefficient matrix is not positive along y"))
        return _plus_one_form(root, self.beta, xs, ys)


def randers_closed_form(L: MagneticLagrangian, e: float) -> RandersModel:
    """Energy-level metric of a quadratic-plus-linear Lagrangian, in closed form.

    For L = 1/2 y.g(x).y + beta.y - V(x) the scale equation solves
    explicitly and F_e = sqrt(2 (e - V) y.g.y) + beta.y. Evaluation where
    V >= e raises DomainError (the level does not reach such points).
    """
    if not isinstance(L, MagneticLagrangian):
        raise TypeError("the closed form needs a quadratic-plus-linear Lagrangian")
    g_spec, b_spec, v_spec = L.metric, L.beta, L.potential
    e = float(e)

    def metric(xs):
        g = g_spec(xs) if callable(g_spec) else g_spec
        if v_spec is None:
            pot = 0.0
        elif callable(v_spec):
            pot = v_spec(xs)
        else:
            pot = float(v_spec)
        f = positive(2.0 * (e - pot), f"energy level {e} does not dominate the potential here")
        n = len(xs)
        return [[f * g[i][j] for j in range(n)] for i in range(n)]

    return RandersModel(L.dim, metric, b_spec, domain=L._domain)


def randers_global_criterion(L: MagneticLagrangian, e: float, points) -> tuple[bool, float]:
    """Is the closed-form level metric positive across the sampled chart?

    The one-form stays shorter than the metric part exactly where
    e > 1/2 beta.g^{-1}.beta + V; the criterion compares e against the
    sampled supremum of that bound and returns (holds, supremum).
    """
    worst = -np.inf
    for p in points:
        x = np.asarray(p, float)
        g = _coeff(L.metric, x, (L.dim, L.dim))
        b = _coeff(L.beta, x, (L.dim,))
        pot = float(_coeff(L.potential, x, ()))
        bound = 0.5 * float(b @ np.linalg.solve(g, b)) + pot
        worst = max(worst, bound)
    if not np.isfinite(worst):
        raise ValueError("criterion needs at least one sample point")
    return bool(e > worst), float(worst)


def poincare_randers(tau: float) -> RandersModel:
    """Rotating-form norm metric on the unit disk.

    F = (|y| + tau (x2 y1 - x1 y2)) / (2 (1 - |x|^2)); the quadratic part is
    the disk metric scaled so that, for tau > 0, the energy-(1/tau^2) level
    metric of the magnetic disk Lagrangian equals sqrt(e) times this F.
    """
    tau = float(tau)

    def metric(xs):
        c = positive(1.0 - (xs[0] * xs[0] + xs[1] * xs[1]), "outside the unit disk")
        w = 1.0 / (4.0 * c * c)
        return [[w, 0.0], [0.0, w]]

    def beta(xs):
        c = positive(1.0 - (xs[0] * xs[0] + xs[1] * xs[1]), "outside the unit disk")
        return [tau * xs[1] / (2.0 * c), (-tau) * xs[0] / (2.0 * c)]

    return RandersModel(
        2, metric, beta if tau != 0.0 else None,
        domain=lambda x: float(x @ x) < 1.0,
    )


# -- fiberwise homogeneous closed form ------------------------------------------


class PowerScaledFinsler(FinslerModel):
    """F_e = c L^{1/k} for a fiberwise k-homogeneous base Lagrangian.

    On a degree-k base the energy is (k-1) L, the scale equation solves in
    closed form, and the level metric is a constant multiple of L^{1/k}
    with c = k ((k-1)/e)^{(1-k)/k}. Defined where L > 0. ``expr`` is
    written over the base's and traced when built.
    """

    family = "power_closed_form"

    def __init__(self, base: LagrangianModel, e: float, degree: float):
        require_expr(base, "the closed form")
        k = float(degree)
        e = float(e)
        if k <= 1.0:
            raise ValueError("the closed form needs homogeneity degree above 1")
        if e <= 0.0:
            raise ValueError("a degree-k kinetic energy only reaches positive levels")
        self.base = base
        self.e = e
        self.degree = k
        self.coefficient = k * ((k - 1.0) / e) ** ((1.0 - k) / k)
        self.dim = base.dim
        self._domain = base._domain
        self.expression = trace_expression(self.expr, self.dim, "PowerScaledFinsler.expr")

    def describe(self) -> dict:
        return {
            "family": self.family,
            "dim": self.dim,
            "energy": self.e,
            "degree": self.degree,
            "base": self.base.describe(),
        }

    def expr(self, xs, ys):
        q = positive(self.base.expr(xs, ys), "the closed form needs a positive base value")
        return self.coefficient * power(q, 1.0 / self.degree)


def homogeneous_closed_form(L: LagrangianModel, e: float, degree: float | None = None):
    """Closed-form level metric for a fiberwise homogeneous Lagrangian."""
    k = degree if degree is not None else getattr(L, "degree", None)
    if k is None:
        raise ValueError("degree not given and the model does not declare one")
    return PowerScaledFinsler(L, e, k)


# -- gauge shifts ---------------------------------------------------------------


class GaugeShiftedModel(ScalarField):
    """Base model plus the exact one-form df contracted with the velocity.

    Adding a total time derivative leaves the motion equations untouched:
    the d/dt and d/dx contributions of grad(f).y cancel identically. The
    velocity Hessian is unchanged, so convexity properties carry over.
    ``expr`` is the base's ``expr`` plus the tree of df/dt
    (:func:`~routhlab.expressions.time_derivative`), traced at construction.
    """

    def __init__(self, base: ScalarField, form: Expression):
        require_expr(base, "a gauge shift", ": shift the Lagrangian first, then build the metric")
        self.base = base
        self.dim = base.dim
        self._domain = base._domain
        self.source = form.source
        self.rate = time_derivative(form)
        self.family = f"{base.family}+exact_form"
        self.expression = trace_expression(self.expr, self.dim, "GaugeShiftedModel.expr")

    def describe(self) -> dict:
        return {"family": self.family, "dim": self.dim, "form": self.source, "base": self.base.describe()}

    def expr(self, xs, ys):
        return self.base.expr(xs, ys) + self.rate(xs, ys)


def gauge_shift(model: ScalarField, f) -> GaugeShiftedModel:
    """Add d(f)/dt to a Lagrangian.

    ``f`` is a position-only function: an expression string, a parsed
    :class:`Expression`, or a callable in generic arithmetic, traced once;
    a callable that does not trace raises TypeError, and a string or an
    Expression that reads a velocity or an index above the model's
    dimension raises ArityError. The returned model has
    identical motion equations; only values and momenta shift. The energy
    does not change, so shifting commutes with the level metric:
    ``jacobi_finsler(gauge_shift(L, f), e)`` is F_e + df.y, and so is the
    shift of a closed form, which writes ``expr``. A base with no ``expr``
    (a level metric, a reduction) raises TypeError: shift the Lagrangian,
    then build the metric.
    """
    if isinstance(f, str):
        f = parse_expression(f)
    elif callable(f) and not isinstance(f, Expression):
        name = getattr(f, "__name__", "<callable>")
        f = trace_expression(lambda xs, ys, form=f: form(xs), model.dim, name)
        if f is None:
            raise TypeError(f"the gauge form {name} does not trace: write it in generic arithmetic")
    if not isinstance(f, Expression):
        raise TypeError("f must be an expression string, Expression, or callable")
    return GaugeShiftedModel(model, f.checked(model.dim, allow_velocity=False))


# -- positivity for degenerate Hessians ------------------------------------------


def quasi_definite_check(F: ScalarField, x, y, tol: float = 1e-12) -> tuple[bool, float]:
    """Pointwise positivity test for 1-homogeneous metric functions.

    The velocity Hessian of a 1-homogeneous F annihilates y, so the best
    possible outcome is positive semidefinite with a one-dimensional kernel.
    Returns (ok, smallest eigenvalue); ok requires F > 0, the smallest
    eigenvalue above -tol times the spectral scale, and all remaining
    eigenvalues strictly positive.
    """
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    j = F.eval(x, y)
    h = 0.5 * (j.d_yy + j.d_yy.T)
    eigs = np.linalg.eigvalsh(h)
    scale = max(1.0, float(np.max(np.abs(eigs))))
    ok = (
        j.value > 0.0
        and eigs[0] >= -tol * scale
        and (len(eigs) == 1 or eigs[1] > 0.0)
    )
    return bool(ok), float(eigs[0])
