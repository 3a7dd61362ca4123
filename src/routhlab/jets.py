"""Second-order jets of scalar fields on position-velocity space.

A :class:`SecondJet` collects exactly the partial derivatives the dynamics
equations consume: value, d_x, d_y, the velocity Hessian d_yy, and the mixed
block d_xy. The pure position Hessian is never needed by any implemented
equation and is deliberately not part of the type.

Index convention: ``d_xy[i, j]`` is the derivative first in ``x[i]``, then in
``y[j]`` (rows indexed by position, columns by velocity).

Every field evaluates through one method, ``eval(x, y, order)``: order 0 is
the value, order 1 the velocity-only fiber jet (value, d_y, d_yy), and order
2 the :class:`SecondJet`. A formula is written once, as ``expr``, and traced
to its tree when its field is built (:meth:`ScalarField._trace`), or at its
first evaluation where a subclass is built without that; a formula that
does not trace is refused then (:func:`~routhlab.expressions.trace_expression`).
:meth:`ScalarField.eval` evaluates every tree, through its float closures
at order 0 and its compiled kernels above. A wrapper with an explicit
formula writes ``expr`` over its base's (:func:`require_expr`), and the
closed-form level metrics write one too. Only the implicit wrappers, the
level metric and the reduction, write their own ``eval``; ``value`` and
``fiber_jet`` are one-line wrappers. A level metric takes its base tree's
kernels from :func:`tree_kernel`, and so do the Euler-Lagrange flows:
only this module calls ``jet_kernel``.
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
A level metric's ``_eval_rows`` already runs its rows in turn
(``_rows_in_turn``), so its batch runs them once.

A field's domain is one rule: its position guard ``_domain``, plus the
guards of its formula. A position predicate is traced to its guard
(:func:`~routhlab.expressions.trace_guard`) once, where ``_domain`` is set:
when the field is built, or when it is assigned; a predicate that does not
trace is refused there with TypeError. A wrapper takes its base's guard
when it is built. The guard is the first test of the level, spray and
Euler-Lagrange kernels (:func:`tree_kernel`), ``domain_check`` runs its
float code, and a batch runs it once on the position columns. No class
overrides ``domain_check``; a velocity condition is a guard of the formula
(``duals.positive``, ``sqrt``, ``log``) or is raised where the value is
computed, so a batch's columns kernel and a solver's probes meet it as
``eval`` does.

The implicit solves (energy scale, cyclic velocities) are plain loops
that call one fiber jet per probe at one point. A batch of cyclic
velocities runs on numpy columns, and only its rows at fault run the
solve. The level-metric kernels write the energy scale's usual path in
float code and run the solve where they leave it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RouthlabError, StencilDomainError
from .expressions import _outside, trace_expression, trace_guard

__all__ = ["SecondJet", "ScalarField", "jet", "fd_jet", "FD_STEP"]

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

    A field writes its formula once, as ``expr`` (generic arithmetic over
    :mod:`routhlab.duals`), and ``expression`` is its tree, parsed or traced
    by :meth:`_trace` when it is built, as the families do; a subclass built
    without it is traced at its first evaluation. Only the implicit wrappers
    (the level metric and the reduction), which have no tree, override
    ``eval`` with their own assembly. ``domain_check`` raises :class:`PositionDomainError`
    where the position guard ``_domain``, if the model has one, says no;
    every velocity condition is a guard of the formula (see the module
    docstring).
    """

    dim: int = 0
    family: str = "custom"
    _guard = None
    expression = None
    _rows_in_turn = False  # whether ``_eval_rows`` runs the rows in turn, as ``eval`` does

    # -- domain ---------------------------------------------------------

    @property
    def _domain(self):
        """The position guard, an Expression of the positions (:func:`~routhlab.expressions.trace_guard`),
        or None. Setting a position predicate traces it, once; TypeError names the cause where it does not."""
        return self._guard

    @_domain.setter
    def _domain(self, predicate):
        self._guard = None if predicate is None else trace_guard(predicate, self.dim)

    def domain_check(self, x: np.ndarray, y: np.ndarray) -> None:
        """Raise PositionDomainError where the position guard says no, by its float code, as the kernels
        that take it raise (:func:`tree_kernel`)."""
        if self._guard is not None and not self._guard(np.asarray(x, float).tolist()):
            _outside(*x)

    def describe(self) -> dict:
        return {"family": self.family, "dim": self.dim}

    # -- evaluation -------------------------------------------------------

    def expr(self, x, y):
        raise NotImplementedError(f"{type(self).__name__} defines no expression form")

    def _trace(self):
        """Set ``expression`` to ``expr``'s tree, named for the class that writes ``expr``, and return it;
        TypeError names the cause where ``expr`` does not trace (:func:`~routhlab.expressions.trace_expression`)."""
        self.expression = trace_expression(self.expr, self.dim, self.expr.__qualname__)
        return self.expression

    def eval(self, x: np.ndarray, y: np.ndarray, order: int = 2):
        """Value (order 0), fiber jet (order 1) or SecondJet (order 2).

        Order 0 runs the tree's float closures, and orders 1 and 2 its fiber
        and full kernels, which give the bits of the hyper-dual rules wherever
        those are finite, up to the sign of zeros. The fiber kernel keeps the
        positions floats, so ``sqrt(x1)`` at x1 = 0 is 0.0 there, while order
        2 raises DomainError.
        """
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        self.domain_check(x, y)
        tree = self.expression
        if tree is None:
            tree = self._trace()
        try:
            if order == 0:
                return float(tree.fn(x.tolist(), y.tolist()))
            out = tree.jet_kernel("fiber" if order == 1 else "full", self.dim)(*x.tolist(), *y.tolist())
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(str(exc)) from exc
        return out if order == 1 else SecondJet(*out)

    def _el_flow(self):
        """(kernel, args after the state) of the Euler-Lagrange flow (:func:`tree_kernel`), or None."""
        return None if self.expression is None else (tree_kernel(self, "el"), ())

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
        if self._rows_in_domain(xs, ys):
            if self._rows_in_turn:
                return self._eval_rows(xs, ys, order)
            try:
                out = self._eval_rows(xs, ys, order)
                if all(np.isfinite(a).all() for a in (out if order else (out,))):
                    return out
            except EVAL_ERRORS:
                pass
        return self._row_loop(xs, ys, order)

    def _eval_rows(self, xs, ys, order: int):
        """``eval_batch``'s results on rows that passed ``_rows_in_domain``.

        A field runs its tree's ``"columns"`` kernel on all rows, under
        ``np.errstate(all="raise")``. An implicit wrapper overrides it to give
        the same bits; a failing row may
        raise or give non-finite entries. One that runs the rows in turn, as
        ``eval`` does, sets ``_rows_in_turn``, and its batch is then its
        result, as its first error is the first failing row's.
        """
        tree = self.expression
        kernel = (self._trace() if tree is None else tree).jet_kernel("columns", self.dim)
        with np.errstate(all="raise"):
            val, d_y, d_yy = kernel(*xs.T, *ys.T)
        return val if order == 0 else (val, d_y, d_yy)

    def _row_loop(self, xs, ys, order: int):
        """``value`` or ``fiber_jet`` on each row in turn, stacked."""
        at = self.fiber_jet if order else self.value
        return stack_rows([at(x, y) for x, y in zip(xs, ys)], order, ys.shape[1])

    def _rows_in_domain(self, xs, ys) -> bool:
        """Whether the position guard holds on every row, run once on xs's columns."""
        with np.errstate(all="ignore"):
            return self._guard is None or bool(np.all(self._guard(xs.T)))


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


def tree_kernel(field: ScalarField, kind: str, cyclic: int | None = None):
    """The ``kind`` kernel of field's tree (:meth:`Expression.jet_kernel`), or None where it has none: a
    level, spray or flow kind, whose first test is field's position guard (a batch checks its columns
    with ``_rows_in_domain`` instead)."""
    tree = field.expression
    return None if tree is None else tree.jet_kernel(kind, field.dim, cyclic, field._guard)


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

