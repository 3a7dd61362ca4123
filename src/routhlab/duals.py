"""Forward-mode automatic differentiation scalars.

:class:`HyperDual` is a second-order truncated Taylor number over a fixed
set of m seed variables: a value, its m-gradient and its m x m Hessian
(hyper-dual style: one evaluation pass yields every mixed partial).
Arithmetic is exact propagation to second order. Hessians stay symmetric by
construction because every update is either a symmetric matrix or an
``outer(a, b) + outer(b, a)`` pair.

Math functions (:func:`sqrt`, :func:`exp`, ...) dispatch on type so the same
model code runs on plain floats, a :class:`HyperDual`, or a :class:`Symbol`,
which records the operations as an expression tree. They are also the
HyperDual methods of their names, which numpy's object loops call, so
``np.sin`` takes a dual too; the ``math`` functions do not.
:func:`power` is the one constant-exponent rule for floats and duals, so a
float and a dual evaluation of ``z ** p`` take the same value.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = [
    "HyperDual",
    "Symbol",
    "seed_second",
    "value_of",
    "power",
    "positive",
    "sqrt",
    "exp",
    "log",
    "sin",
    "cos",
]


def _as_float(z):
    if type(z) is float:
        return z
    if isinstance(z, (numbers.Real, np.floating, np.integer)):
        return float(z)
    return None


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

    def __repr__(self):
        return f"HyperDual({self.v!r})"


def _untraceable(*_):
    raise TypeError("a traced value is not a number")


def _records(tag: str, reflected: bool = False):
    """The Symbol operator that records ``tag`` on itself and the other operand."""

    def op(self, other):
        if not isinstance(other, Symbol):
            c = _as_float(other)
            if c is None:
                return NotImplemented
            other = Symbol(("num", c))
        return Symbol((tag, other.node, self.node) if reflected else (tag, self.node, other.node))

    return op


class Symbol:
    """A traced scalar: each operation on it builds a node of an expression tree.

    Numbers enter as ``("num", c)`` nodes, and ``**`` with a constant
    exponent records :func:`power`, as duals apply it. Whatever needs the
    number raises TypeError: ``float()``, truth tests, comparisons, numpy
    ufuncs and the ``math`` functions.
    """

    __slots__ = ("node",)
    __array_ufunc__ = None  # numpy scalars and arrays defer to the reflected operators

    def __init__(self, node: tuple):
        self.node = node

    __add__, __radd__ = _records("+"), _records("+", True)
    __sub__, __rsub__ = _records("-"), _records("-", True)
    __mul__, __rmul__ = _records("*"), _records("*", True)
    __truediv__, __rtruediv__ = _records("/"), _records("/", True)
    __rpow__ = _records("^v", True)
    __float__ = __bool__ = __lt__ = __le__ = __gt__ = __ge__ = __eq__ = __ne__ = _untraceable

    def __pow__(self, p):
        # a symbolic exponent takes the exp-log form, as it does on duals
        return _records("^v" if isinstance(p, Symbol) else "^")(self, p)

    def __neg__(self):
        return Symbol(("neg", self.node))

    def call(self, name: str) -> "Symbol":
        return Symbol(("call", name, self.node))

    def __repr__(self):
        return f"Symbol({self.node!r})"


def power(z, p: float):
    """z ** p for a constant exponent p, by one rule for floats and duals.

    The value is z * z for p = 2 and an integer power for other integer p;
    a negative base with a fractional exponent raises ValueError instead of
    turning complex. Duals take their value from this rule and add the
    derivatives; a Symbol records the rule, not the product it takes at p = 2.
    """
    if isinstance(z, HyperDual):
        return _pow_const(z, p)
    if isinstance(z, Symbol):
        return z**p
    if p == 2.0:
        return z * z
    if p == int(p):
        return z ** int(p)
    if z < 0.0:
        raise ValueError("negative base with fractional exponent")
    return z ** p


def positive(z, message: str):
    """z where its value is positive, else ValueError(message); a Symbol records the test."""
    if isinstance(z, Symbol):
        return Symbol(("pos", z.node, message))
    if value_of(z) <= 0.0:
        raise ValueError(message)
    return z


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


# -- seeds and accessors ----------------------------------------------------


def seed_second(values) -> list:
    """Lift values to HyperDual variables with identity gradients, zero Hessians."""
    values = np.asarray(values, float).tolist()
    m = len(values)
    eye = np.eye(m)
    return [HyperDual(values[i], eye[i].copy(), np.zeros((m, m))) for i in range(m)]


def value_of(z) -> float:
    if isinstance(z, HyperDual):
        return z.v
    return float(z)


# -- elementary functions ----------------------------------------------------


def sqrt(z):
    if isinstance(z, HyperDual):
        if z.v <= 0.0:
            raise ValueError("sqrt of non-positive value")
        s = math.sqrt(z.v)
        return z.chain(s, 0.5 / s, -0.25 / (s * z.v))
    return z.call("sqrt") if isinstance(z, Symbol) else math.sqrt(z)


def exp(z):
    if isinstance(z, HyperDual):
        f = math.exp(z.v)
        return z.chain(f, f, f)
    return z.call("exp") if isinstance(z, Symbol) else math.exp(z)


def log(z):
    if isinstance(z, HyperDual):
        if z.v <= 0.0:
            raise ValueError("log of non-positive value")
        return z.chain(math.log(z.v), 1.0 / z.v, -1.0 / (z.v * z.v))
    return z.call("log") if isinstance(z, Symbol) else math.log(z)


def sin(z):
    if isinstance(z, HyperDual):
        s, c = math.sin(z.v), math.cos(z.v)
        return z.chain(s, c, -s)
    return z.call("sin") if isinstance(z, Symbol) else math.sin(z)


def cos(z):
    if isinstance(z, HyperDual):
        s, c = math.sin(z.v), math.cos(z.v)
        return z.chain(c, -s, -c)
    return z.call("cos") if isinstance(z, Symbol) else math.cos(z)


# numpy's object loops call the method of a ufunc's name: np.sin(z) is z.sin()
HyperDual.sqrt, HyperDual.exp, HyperDual.log = sqrt, exp, log
HyperDual.sin, HyperDual.cos = sin, cos
