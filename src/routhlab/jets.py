"""Second-order jets of scalar fields on position-velocity space.

A :class:`SecondJet` collects exactly the partial derivatives the dynamics
equations consume: value, d_x, d_y, the velocity Hessian d_yy, and the mixed
block d_xy. The pure position Hessian is never needed by any implemented
equation and is deliberately not part of the type.

Index convention: ``d_xy[i, j]`` is the derivative first in ``x[i]``, then in
``y[j]`` (rows indexed by position, columns by velocity).

Every field evaluates through one method, ``eval(x, y, order)``: order 0 is
the value, order 1 the velocity-only fiber jet (value, d_y, d_yy), and order
2 the :class:`SecondJet`. A formula is written once, as ``expr``, and
:meth:`ScalarField.eval` evaluates every one: through its tree's kernels
where it has a tree, by hyper-duals otherwise; a wrapper with an explicit
formula writes ``expr`` over its base's (:func:`require_expr`), and the
closed-form level metrics write one too. Only the implicit wrappers, the
level metric and the reduction, write their own ``eval``; ``value`` and
``fiber_jet`` are one-line wrappers. The sprays run through
:func:`run_kernel`, and the Euler-Lagrange flows through :func:`flow_kernel`.
:func:`jet` adds input and output validation, and the independent
finite-difference oracle :func:`fd_jet` cross-checks every family in the tests.

``ScalarField.eval_batch`` evaluates orders 0 and 1 on every row of (k, n)
arrays, and it is the only one: a family supplies only ``_eval_rows``, its
evaluation of all rows at once with the bits of the row loop. The batch
checks the order, checks the rows once with ``_rows_in_domain``, and calls
``_eval_rows``, which for a field with a tree is its columns kernel; where
a row fails that check, or ``_eval_rows`` raises one of ``EVAL_ERRORS`` or
gives an entry that is not finite, it runs the rows in order through
``value`` or ``fiber_jet`` (``_row_loop``), so the first failing row raises.
Where ``_eval_rows`` is that row loop (``_rows_at_once`` says no), the batch
runs it once, with no domain pass and no second run.

A field's domain is one rule: its position predicate ``_domain``, which
``domain_check`` applies and a wrapper takes from its base when it is
built, plus the guards of its formula. No class overrides ``domain_check``;
a velocity condition is a guard of the formula (``duals.positive``, ``sqrt``,
``log``) or is raised where the value is computed, so a batch's columns
kernel and a solver's probes meet it as ``eval`` does. A predicate that
traces (:func:`~routhlab.expressions.trace_guard`) is the first guard of the
Euler-Lagrange kernels and runs on columns in batches; others run in Python.

The implicit solves (energy scale, cyclic velocities) write their rules
once, as step routines, and :func:`drive` runs one of them at one point. A
batch of cyclic velocities runs on numpy columns, and only its rows at
fault run the routine. The level-metric kernels write the energy scale's
usual path in float code and run the routine where they leave it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .duals import seed_second, value_of
from .errors import DomainError, RouthlabError, StencilDomainError
from .expressions import _outside, trace_guard

__all__ = ["SecondJet", "ScalarField", "jet", "fd_jet", "drive", "FD_STEP"]

#: default finite-difference step scale (cube root of machine epsilon)
FD_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)

#: what evaluating rows at once can raise where a row fails; a batch that
#: meets one goes row by row, so the row's own error is the one raised
EVAL_ERRORS = (RouthlabError, ArithmeticError, ValueError, TypeError)


@dataclass(frozen=True)
class SecondJet:
    """Value and partial derivatives of a scalar field at one (x, y) point."""

    value: float
    d_x: np.ndarray
    d_y: np.ndarray
    d_yy: np.ndarray
    d_xy: np.ndarray

    @property
    def dim(self) -> int:
        return self.d_y.shape[0]


class ScalarField:
    """A scalar function of (x, y) on an n-dimensional configuration space.

    A field writes its formula once, as ``expr`` (generic arithmetic usable
    with floats and dual numbers), and ``expression`` is its tree, parsed or
    traced, or None; only the implicit wrappers (the level metric and the
    reduction) override ``eval`` with their own assembly. ``domain_check`` raises
    :class:`PositionDomainError` where the position predicate ``_domain``,
    if the model has one, says no; every velocity condition is a guard of
    the formula (see the module docstring).
    """

    dim: int = 0
    family: str = "custom"
    _domain = None
    expression = None
    _traced = (None, None)  # the predicate last traced, and its guard

    # -- domain ---------------------------------------------------------

    def domain_check(self, x: np.ndarray, y: np.ndarray) -> None:
        """Raise PositionDomainError where ``_domain`` says no, in Python, as ``eval`` and the sprays
        check; the flow kernels check a predicate that traces as their guard (:func:`flow_kernel`)."""
        if self._domain is not None and not self._domain(np.asarray(x, float)):
            _outside(*x)

    def _position_guard(self):
        """The guard ``_domain`` traces to (:func:`~routhlab.expressions.trace_guard`), or None where
        there is no predicate or it does not trace; traced again whenever ``_domain`` is another object."""
        if self._traced[0] is not self._domain:
            self._traced = self._domain, trace_guard(self._domain, self.dim)
        return self._traced[1]

    def describe(self) -> dict:
        return {"family": self.family, "dim": self.dim}

    # -- evaluation -------------------------------------------------------

    def expr(self, x, y):
        raise NotImplementedError(f"{type(self).__name__} defines no expression form")

    def eval(self, x: np.ndarray, y: np.ndarray, order: int = 2):
        """Value (order 0), fiber jet (order 1) or SecondJet (order 2).

        A field with a tree runs its float closures at order 0 and its fiber
        or full kernel above. Without one, ``expr`` runs on floats at order 0
        and on hyper-duals above: order 1 seeds the velocities, order 2 all 2n
        slots. The kernels give the hyper-dual bits wherever those are finite,
        up to the sign of zeros. Order 1 keeps the positions floats, so
        ``sqrt(x1)`` at x1 = 0 is 0.0 there, while order 2 raises DomainError.
        """
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        self.domain_check(x, y)
        n, tree = self.dim, self.expression
        if tree is not None and order:
            kernel = tree.jet_kernel("fiber" if order == 1 else "full", n)
        try:
            if order == 0:
                fn = self.expr if tree is None else tree.fn
                return float(value_of(fn(x.tolist(), y.tolist())))
            if tree is not None:
                out = kernel(*x.tolist(), *y.tolist())
                return out if order == 1 else SecondJet(*out)
            if order == 1:
                out = self.expr(x.tolist(), seed_second(y))
            else:
                seeds = seed_second(np.concatenate([x, y]))
                out = self.expr(seeds[:n], seeds[n:])
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(str(exc)) from exc
        val = value_of(out)
        m = n if order == 1 else 2 * n
        g, h = (out.g, out.h) if hasattr(out, "h") else (np.zeros(m), np.zeros((m, m)))
        if order == 1:
            return val, np.array(g), np.array(h)
        return SecondJet(
            value=val,
            d_x=np.array(g[:n]),
            d_y=np.array(g[n:]),
            d_yy=np.array(h[n:, n:]),
            d_xy=np.array(h[:n, n:]),
        )

    def _el_flow(self):
        """(kernel, args after the state) of the Euler-Lagrange flow (:func:`flow_kernel`), or None."""
        return None if self.expression is None else (flow_kernel(self, "el"), ())

    def value(self, x, y) -> float:
        """The value at (x, y): ``eval`` at order 0."""
        return self.eval(x, y, 0)

    def fiber_jet(self, x, y):
        """(value, d_y, d_yy) at (x, y): ``eval`` at order 1."""
        return self.eval(x, y, 1)

    def eval_batch(self, xs, ys, order: int = 0):
        """``eval(x, y, order)`` on every row of (k, n) arrays, stacked; order 0 or 1.

        Order 0 gives the (k,) values, order 1 the arrays (value, d_y, d_yy)
        of shapes (k,), (k, n) and (k, n, n), from ``_eval_rows`` or, where a
        row fails, from the row loop, as this module's docstring sets out.
        """
        if order not in (0, 1):
            raise ValueError(f"eval_batch evaluates orders 0 and 1, not {order}")
        xs, ys = batch_rows(xs, ys)
        if self._rows_at_once() and self._rows_in_domain(xs, ys):
            try:
                out = self._eval_rows(xs, ys, order)
                if all(np.isfinite(a).all() for a in (out if order else (out,))):
                    return out
            except EVAL_ERRORS:
                pass
        return self._row_loop(xs, ys, order)

    def _eval_rows(self, xs, ys, order: int):
        """``eval_batch``'s results on rows that passed ``_rows_in_domain``.

        A field with a tree runs its ``"columns"`` kernel on all rows, under
        ``np.errstate(all="raise")``; where ``_rows_at_once`` says no, this is
        the row loop. A family may override it to give the same bits at once,
        skipping the position predicate; a failing row may raise or give
        non-finite entries.
        """
        if not self._rows_at_once():
            return self._row_loop(xs, ys, order)
        kernel = self.expression.jet_kernel("columns", self.dim)
        with np.errstate(all="raise"):
            val, d_y, d_yy = kernel(*xs.T, *ys.T)
        return val if order == 0 else (val, d_y, d_yy)

    def _row_loop(self, xs, ys, order: int):
        """``value`` or ``fiber_jet`` on each row in turn, stacked."""
        at = self.fiber_jet if order else self.value
        return stack_rows([at(x, y) for x, y in zip(xs, ys)], order, ys.shape[1])

    def _rows_at_once(self) -> bool:
        """Whether ``_eval_rows`` evaluates the rows at once, not by the row loop."""
        return type(self)._eval_rows is not ScalarField._eval_rows or self.expression is not None

    def _rows_in_domain(self, xs, ys) -> bool:
        """Whether the position predicate holds on every row, run once on xs's columns where it traces; a
        row that raises says no."""
        guard = self._position_guard()
        if guard is not None:
            with np.errstate(all="ignore"):
                return bool(np.all(guard(xs.T)))
        try:
            return self._domain is None or all(self._domain(x) for x in xs)
        except Exception:
            return False


def require_expr(base: ScalarField, wrapper: str, hint: str = "") -> None:
    """Raise TypeError unless base writes the ``expr`` that a wrapper writes its own over."""
    if type(base).expr is ScalarField.expr:
        raise TypeError(f"{wrapper} needs a base with an expr; {type(base).__name__} has none{hint}")


def stack_rows(rows: list, order: int, n: int):
    """Each row's value (order 0) or fiber jet (order 1), as ``eval_batch`` stacks them."""
    if order == 0:
        return np.array(rows, float)
    return tuple(np.array([r[i] for r in rows], float).reshape(len(rows), *[n] * i) for i in range(3))


def batch_rows(xs, ys):
    """Positions and velocities as C-contiguous float arrays of rows.

    Each row is then a unit-stride vector, like the one ``eval`` gets, and a
    stacked ``np.matmul`` hands every row to the same BLAS kernel as ``@``.
    """
    return np.ascontiguousarray(xs, float), np.ascontiguousarray(ys, float)


def solve_linear(a: np.ndarray, b: np.ndarray, fail):
    """a^-1 b, rounded as LAPACK's dgesv rounds it; raises ``fail()`` where a is singular.

    dgesv divides a 1x1 system with one right-hand side, so that case is a
    float division; with more columns it multiplies by the reciprocal.
    """
    if a.size == 1 and b.size == 1:
        if a.item() == 0.0:
            raise fail()
        s = b.astype(float)
        s.fill(b.item() / a.item())
        return s
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise fail() from exc


def run_kernel(field: ScalarField, kind: str, *args):
    """The ``kind`` kernel of field's tree on args (:meth:`Expression.jet_kernel`).

    A guard's error raises DomainError; no position predicate is checked.
    """
    kernel = field.expression.jet_kernel(kind, field.dim)
    try:
        return kernel(*args)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(str(exc)) from exc


def flow_kernel(field: ScalarField, kind: str, cyclic: int | None = None):
    """The ``kind`` flow kernel of field's tree, which checks field's position predicate first: as its
    guard where it traces, else by ``domain_check`` at the full position, the cyclic slot's 0.0 put back."""
    guard = field._position_guard()
    kernel = field.expression.jet_kernel(kind, field.dim, cyclic, guard)
    if guard is not None or field._domain is None:
        return kernel
    n = field.dim if cyclic is None else field.dim - 1

    def checked(*args):
        field.domain_check(args[:n] if cyclic is None else [*args[:cyclic], 0.0, *args[cyclic:n]], ())
        return kernel(*args)

    return checked


def drive(routine, probe):
    """Run a step routine to its return; what it returns.

    A step routine is a generator that yields the point it needs probed, is
    sent ``probe(point)`` or has the probe's DomainError thrown in, and
    returns its answer. Any other error propagates.
    """
    try:
        point = next(routine)
        while True:
            try:
                result = probe(point)
            except DomainError as exc:
                point = routine.throw(exc)
            else:
                point = routine.send(result)
    except StopIteration as done:
        return done.value


def jet(field: ScalarField, x, y) -> SecondJet:
    """Full second-order jet of field at (x, y), with input/output validation."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    if x.shape != (field.dim,) or y.shape != (field.dim,):
        raise ValueError(
            f"expected x and y of shape ({field.dim},), got {x.shape} and {y.shape}"
        )
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite coordinates")
    j = field.eval(x, y)
    if not np.isfinite(j.value):
        raise DomainError(f"field value is not finite at x={x}, y={y}")
    return j


def _snap(base: float, step: float) -> float:
    # make the step exactly representable relative to the base coordinate,
    # so that (base + h) - (base - h) == 2h holds bitwise
    t = base + step
    return t - base


def fd_jet(field: ScalarField, x, y, h: float | None = None) -> SecondJet:
    """Central-difference jet of field at (x, y).

    Steps scale per coordinate as ``h * max(1, |coordinate|)`` with the
    cube-root-of-epsilon default, and are snapped to exactly representable
    offsets. Stencil points that leave the field's domain raise
    :class:`StencilDomainError`.
    """
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    n = field.dim
    base = FD_STEP if h is None else float(h)

    def f(*moves):
        # the value with each (slot, step) of moves added; slots n and up are velocities
        xx, yy = x.copy(), y.copy()
        for slot, step in moves:
            if slot < n:
                xx[slot] += step
            else:
                yy[slot - n] += step
        try:
            return field.value(xx, yy)
        except DomainError as exc:
            raise StencilDomainError(
                f"stencil point left the domain: x={xx}, y={yy}: {exc}"
            ) from exc

    hx = np.array([_snap(x[i], base * max(1.0, abs(x[i]))) for i in range(n)])
    hy = np.array([_snap(y[i], base * max(1.0, abs(y[i]))) for i in range(n)])

    val = f()

    d_x = np.zeros(n)
    d_y = np.zeros(n)
    for i in range(n):
        d_x[i] = (f((i, hx[i])) - f((i, -hx[i]))) / (2 * hx[i])
        d_y[i] = (f((n + i, hy[i])) - f((n + i, -hy[i]))) / (2 * hy[i])

    d_yy = np.zeros((n, n))
    for i in range(n):
        fp = f((n + i, hy[i]))
        fm = f((n + i, -hy[i]))
        d_yy[i, i] = (fp - 2 * val + fm) / (hy[i] * hy[i])
        for jdx in range(i + 1, n):
            pp = f((n + i, hy[i]), (n + jdx, hy[jdx]))
            pm = f((n + i, hy[i]), (n + jdx, -hy[jdx]))
            mp = f((n + i, -hy[i]), (n + jdx, hy[jdx]))
            mm = f((n + i, -hy[i]), (n + jdx, -hy[jdx]))
            d_yy[i, jdx] = d_yy[jdx, i] = (pp - pm - mp + mm) / (4 * hy[i] * hy[jdx])

    d_xy = np.zeros((n, n))
    for i in range(n):
        for jdx in range(n):
            pp = f((i, hx[i]), (n + jdx, hy[jdx]))
            pm = f((i, hx[i]), (n + jdx, -hy[jdx]))
            mp = f((i, -hx[i]), (n + jdx, hy[jdx]))
            mm = f((i, -hx[i]), (n + jdx, -hy[jdx]))
            d_xy[i, jdx] = (pp - pm - mp + mm) / (4 * hx[i] * hy[jdx])

    return SecondJet(value=val, d_x=d_x, d_y=d_y, d_yy=d_yy, d_xy=d_xy)

