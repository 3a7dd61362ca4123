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
formula writes ``expr`` over its base's (:func:`require_expr`). Implicit
wrappers and closed forms write their own ``eval``; ``value`` and
``fiber_jet`` are one-line wrappers. The other kernels of a tree, the sprays
and the Euler-Lagrange accelerations, run through :func:`run_kernel`.
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
kernel and a solver's probes meet it as ``eval`` does.

The implicit solves (energy scale, cyclic velocities) write their rules
once, as step routines: :func:`lockstep` runs them on every row of a batch,
:func:`drive` runs one of them at one point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .duals import seed_second, value_of
from .errors import DomainError, PositionDomainError, RouthlabError, StencilDomainError

__all__ = ["SecondJet", "ScalarField", "jet", "fd_jet", "chain_jet", "lockstep", "drive", "FD_STEP"]

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
    traced, or None; the implicit wrappers and the closed forms override
    ``eval`` with their own assembly. ``domain_check`` raises
    :class:`PositionDomainError` where the position predicate ``_domain``,
    if the model has one, says no; every velocity condition is a guard of
    the formula (see the module docstring).
    """

    dim: int = 0
    family: str = "custom"
    _domain = None
    expression = None

    # -- domain ---------------------------------------------------------

    def domain_check(self, x: np.ndarray, y: np.ndarray) -> None:
        if self._domain is not None and not self._domain(np.asarray(x, float)):
            raise PositionDomainError(f"position {np.asarray(x)} outside the model domain")

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

    def _el_kernel(self, x: np.ndarray, v: np.ndarray):
        """``el_acceleration`` at (x, v) from the tree's ``"el"`` kernel; None without a tree."""
        if self.expression is None:
            return None
        self.domain_check(x, v)
        return run_kernel(self, "el", *x.tolist(), *v.tolist())

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
        if order == 0:
            return np.array([self.value(x, y) for x, y in zip(xs, ys)], float)
        rows = [self.fiber_jet(x, y) for x, y in zip(xs, ys)]
        k, n = ys.shape
        return tuple(np.array([r[i] for r in rows], float).reshape(k, *[n] * i) for i in range(3))

    def _rows_at_once(self) -> bool:
        """Whether ``_eval_rows`` evaluates the rows at once, not by the row loop."""
        return type(self)._eval_rows is not ScalarField._eval_rows or self.expression is not None

    def _rows_in_domain(self, xs, ys) -> bool:
        """Whether the position predicate holds on every row; a row that raises says no."""
        try:
            return self._domain is None or all(self._domain(x) for x in xs)
        except Exception:
            return False


def require_expr(base: ScalarField, wrapper: str, hint: str = "") -> None:
    """Raise TypeError unless base writes the ``expr`` that a wrapper writes its own over."""
    if type(base).expr is ScalarField.expr:
        raise TypeError(f"{wrapper} needs a base with an expr; {type(base).__name__} has none{hint}")


def batch_rows(xs, ys):
    """Positions and velocities as C-contiguous float arrays of rows.

    Each row is then a unit-stride vector, like the one ``eval`` gets, and a
    stacked ``np.matmul`` hands every row to the same BLAS kernel as ``@``.
    """
    return np.ascontiguousarray(xs, float), np.ascontiguousarray(ys, float)


def entrywise(fn):
    """fn on Python floats, entry by entry over its arguments broadcast together.

    Batches run this where numpy's own kernel rounds differently from the
    float function a row calls, as numpy's power does.
    """

    def each(*args):
        cols = np.broadcast_arrays(*args)
        flat = [c.ravel().tolist() for c in cols]
        return np.array(list(map(fn, *flat)), float).reshape(cols[0].shape)

    return each


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


def run_kernel(field: ScalarField, kind: str, *args, cyclic: int | None = None):
    """The ``kind`` kernel of field's tree on args (:meth:`Expression.jet_kernel`).

    A guard's error raises DomainError; no position predicate is checked.
    """
    kernel = field.expression.jet_kernel(kind, field.dim, cyclic)
    try:
        return kernel(*args)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(str(exc)) from exc


def lockstep(routines, probe, batch=None) -> list:
    """Run step routines to their returns in rounds; the list of what they return.

    A step routine is a generator that yields the point it needs probed, is
    sent the probe's result or has its DomainError thrown in, and returns
    its answer. Each round probes the points of the routines still running,
    with one ``batch(rows, points)`` call where given, which gives one result
    per row or None for a row to probe alone, and ``probe(i, point)`` per
    row otherwise; a batch that raises one of ``EVAL_ERRORS`` probes every
    row alone. Any other error propagates from the round that meets it.
    """
    points = {i: next(r) for i, r in enumerate(routines)}
    returns = [None] * len(routines)
    while points:
        rows = list(points)
        try:
            results = batch(rows, list(points.values())) if batch else [None] * len(rows)
        except EVAL_ERRORS:
            results = [None] * len(rows)
        for i, result in zip(rows, results):
            try:
                if result is None:
                    try:
                        result = probe(i, points[i])
                    except DomainError as exc:
                        points[i] = routines[i].throw(exc)
                        continue
                points[i] = routines[i].send(result)
            except StopIteration as done:
                returns[i] = done.value
                del points[i]
    return returns


def drive(routine, probe):
    """:func:`lockstep` on one routine, with ``probe(point)``; what it returns.

    A single-point solve takes two or three probes, and the upkeep of
    lockstep's rounds would cost it about a fifth more time.
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


def chain_jet(j, f0: float, f1: float, f2: float):
    """Jet of phi(field) from the field's jet and phi's derivatives at its value.

    ``j`` is a SecondJet or a fiber jet (value, d_y, d_yy), and the result
    is of the same kind.
    """
    if not isinstance(j, SecondJet):
        _, d_y, d_yy = j
        return f0, f1 * d_y, f1 * d_yy + f2 * np.outer(d_y, d_y)
    return SecondJet(
        value=f0,
        d_x=f1 * j.d_x,
        d_y=f1 * j.d_y,
        d_yy=f1 * j.d_yy + f2 * np.outer(j.d_y, j.d_y),
        d_xy=f1 * j.d_xy + f2 * np.outer(j.d_x, j.d_y),
    )
