"""Forward-mode hyper-dual numbers: the tests' oracle of the compiled jet kernels.

:class:`HyperDual` is a second-order truncated Taylor number over a fixed
set of m seed variables: a value, its m-gradient and its m x m Hessian
(hyper-dual style: one evaluation pass yields every mixed partial).
Arithmetic is exact propagation to second order. Hessians stay symmetric by
construction because every update is either a symmetric matrix or an
``outer(a, b) + outer(b, a)`` pair.

Model code reaches these rules through the ``routhlab.duals`` functions,
which call the operand's method of their name (``sqrt``, ``exp``, ``log``,
``sin``, ``cos``, ``positive``) and take ``** p`` for ``power``; numpy's
object loops call the same methods, so ``np.sin`` takes a dual too.
:func:`dual_eval` runs a model's ``expr`` on seeded duals, as the kernels'
orders of ``eval`` do on its tree.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from routhlab import DomainError, SecondJet
from routhlab.duals import exp, log, power


def _as_float(z):
    return float(z) if isinstance(z, (numbers.Real, np.floating, np.integer)) else None


class HyperDual:
    """Second-order scalar: value, gradient, and symmetric Hessian."""

    __slots__ = ("v", "g", "h")

    def __init__(self, v: float, g: np.ndarray, h: np.ndarray):
        self.v = v
        self.g = g
        self.h = h

    def __add__(self, other):
        if isinstance(other, HyperDual):
            return HyperDual(self.v + other.v, self.g + other.g, self.h + other.h)
        c = _as_float(other)
        if c is None:
            return NotImplemented
        return HyperDual(self.v + c, self.g, self.h)

    __radd__ = __add__

    def __neg__(self):
        return HyperDual(-self.v, -self.g, -self.h)

    def __sub__(self, other):
        if isinstance(other, HyperDual):
            return HyperDual(self.v - other.v, self.g - other.g, self.h - other.h)
        c = _as_float(other)
        if c is None:
            return NotImplemented
        return HyperDual(self.v - c, self.g, self.h)

    def __rsub__(self, other):
        c = _as_float(other)
        if c is None:
            return NotImplemented
        return HyperDual(c - self.v, -self.g, -self.h)

    def __mul__(self, other):
        if isinstance(other, HyperDual):
            og = self.g[:, None] * other.g
            return HyperDual(
                self.v * other.v,
                self.g * other.v + other.g * self.v,
                self.h * other.v + other.h * self.v + og + og.T,
            )
        c = _as_float(other)
        if c is None:
            return NotImplemented
        return HyperDual(self.v * c, self.g * c, self.h * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, HyperDual):
            bv = other.v
            val = self.v / bv
            g = (self.g - val * other.g) / bv
            og = g[:, None] * other.g
            h = (self.h - val * other.h - og - og.T) / bv
            return HyperDual(val, g, h)
        c = _as_float(other)
        if c is None:
            return NotImplemented
        return HyperDual(self.v / c, self.g / c, self.h / c)

    def __rtruediv__(self, other):
        c = _as_float(other)
        if c is None:
            return NotImplemented
        bv = self.v
        val = c / bv
        # rounds as __truediv__ does for a numerator with zero gradient
        g = (-val * self.g) / bv
        og = g[:, None] * self.g
        h = (-val * self.h - og - og.T) / bv
        return HyperDual(val, g, h)

    def __pow__(self, p):
        if isinstance(p, HyperDual):
            return exp(p * log(self))
        c = _as_float(p)
        if c is None:
            return NotImplemented
        return _pow_const(self, c)

    def __rpow__(self, base):
        c = _as_float(base)
        if c is None:
            return NotImplemented
        if c <= 0.0:
            raise ValueError("power with non-positive base and varying exponent")
        return exp(self * math.log(c))

    def chain(self, f0: float, f1: float, f2: float) -> "HyperDual":
        """Compose with a scalar map given its value and two derivatives at self.v."""
        return HyperDual(f0, f1 * self.g, f1 * self.h + f2 * (self.g[:, None] * self.g))

    # -- the methods the routhlab.duals functions and numpy's object loops call

    def positive(self, message: str) -> "HyperDual":
        if self.v <= 0.0:
            raise ValueError(message)
        return self

    def sqrt(self):
        if self.v <= 0.0:
            raise ValueError("sqrt of non-positive value")
        s = math.sqrt(self.v)
        return self.chain(s, 0.5 / s, -0.25 / (s * self.v))

    def exp(self):
        f = math.exp(self.v)
        return self.chain(f, f, f)

    def log(self):
        if self.v <= 0.0:
            raise ValueError("log of non-positive value")
        return self.chain(math.log(self.v), 1.0 / self.v, -1.0 / (self.v * self.v))

    def sin(self):
        s, c = math.sin(self.v), math.cos(self.v)
        return self.chain(s, c, -s)

    def cos(self):
        s, c = math.sin(self.v), math.cos(self.v)
        return self.chain(c, -s, -c)

    def __repr__(self):
        return f"HyperDual({self.v!r})"


def _pow_const(z, p: float):
    v = z.v
    f0 = power(v, p)
    if p == 0.0:
        return z.chain(1.0, 0.0, 0.0)
    if p == 1.0:
        return z
    if p == 2.0:  # the general rule's bits: v ** 1.0 is v and v ** 0.0 is 1.0
        return z.chain(f0, 2.0 * v, 2.0)
    return z.chain(f0, p * v ** (p - 1.0), p * (p - 1.0) * v ** (p - 2.0))


def seed_second(values) -> list:
    """Lift values to HyperDual variables with identity gradients, zero Hessians."""
    values = np.asarray(values, float).tolist()
    m = len(values)
    eye = np.eye(m)
    return [HyperDual(values[i], eye[i].copy(), np.zeros((m, m))) for i in range(m)]


def value_of(z) -> float:
    return z.v if isinstance(z, HyperDual) else float(z)


def dual_eval(model, x, y, order: int = 2):
    """The orders of ``model.eval`` from hyper-duals through its ``expr``.

    Order 0 runs ``expr`` on floats, order 1 seeds the velocities and keeps
    the positions floats, and order 2 seeds all 2n slots. A guard's
    ValueError or a ZeroDivisionError raises DomainError, and the position
    predicate is checked first, as ``eval`` checks it.
    """
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    model.domain_check(x, y)
    n = model.dim
    try:
        if order == 0:
            return float(value_of(model.expr(x.tolist(), y.tolist())))
        if order == 1:
            out = model.expr(x.tolist(), seed_second(y))
        else:
            seeds = seed_second(np.concatenate([x, y]))
            out = model.expr(seeds[:n], seeds[n:])
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(str(exc)) from exc
    val = value_of(out)
    m = n if order == 1 else 2 * n
    g, h = (out.g, out.h) if isinstance(out, HyperDual) else (np.zeros(m), np.zeros((m, m)))
    if order == 1:
        return val, np.array(g), np.array(h)
    return SecondJet(
        value=val,
        d_x=np.array(g[:n]),
        d_y=np.array(g[n:]),
        d_yy=np.array(h[n:, n:]),
        d_xy=np.array(h[:n, n:]),
    )
