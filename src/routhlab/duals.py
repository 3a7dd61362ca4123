"""Generic arithmetic: the elementary functions, and the Symbol that traces them.

Model code is written once, in generic arithmetic over these functions, and
runs on plain floats or on a :class:`Symbol`, which records the operations
as an expression tree. On a float, :func:`sqrt`, :func:`exp`, :func:`log`,
:func:`sin` and :func:`cos` are the ``math`` functions; on any other operand
they call its method of the same name, as numpy's object loops call it for
the ufunc of that name, so a number type with those methods (the tests'
hyper-dual oracle) runs the same model code. :func:`power` is the one
constant-exponent rule for floats, and :func:`positive` the one positivity
guard; other operands take ``** p`` and their ``positive`` method.
"""

from __future__ import annotations

import math
import numbers
import operator

import numpy as np

__all__ = [
    "Symbol",
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
    if isinstance(z, np.ndarray) and z.ndim == 0:
        z = z.item()
    if isinstance(z, (numbers.Real, np.floating, np.integer)):
        return float(z)
    return None


def _untraceable(cause: str):
    """A Symbol method that raises TypeError naming what needed a number."""

    def refuse(*_):
        raise TypeError(f"{cause} needs the number of a traced value")

    return refuse


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


#: the elementary functions numpy's ufuncs of their names record
_TRACED_UFUNCS = ("sqrt", "exp", "log", "sin", "cos")

#: the ufuncs a numpy scalar's operators call, each as the operator it takes on a float
_SCALAR_OPERATORS = {np.add: operator.add, np.subtract: operator.sub, np.multiply: operator.mul,
                     np.divide: operator.truediv, np.power: operator.pow, np.less: operator.lt,
                     np.less_equal: operator.le, np.greater: operator.gt, np.greater_equal: operator.ge}


class Symbol:
    """A traced scalar: each operation on it builds a node of an expression tree.

    Numbers enter as ``("num", c)`` nodes, and ``**`` with a constant
    exponent records :func:`power`; a comparison, or ``&`` of two, records a
    condition. numpy's ``sqrt``, ``exp``, ``log``, ``sin`` and ``cos`` record
    calls, and a numpy scalar's operators take the float's. Whatever needs
    the number raises TypeError that names it: ``float()`` and the ``math``
    functions, truth tests (a branch on a value), ``==`` and other ufuncs.
    """

    __slots__ = ("node",)

    def __init__(self, node: tuple):
        self.node = node

    __add__, __radd__ = _records("+"), _records("+", True)
    __sub__, __rsub__ = _records("-"), _records("-", True)
    __mul__, __rmul__ = _records("*"), _records("*", True)
    __truediv__, __rtruediv__ = _records("/"), _records("/", True)
    __rpow__ = _records("^v", True)
    __lt__, __le__, __gt__, __ge__, __and__ = map(_records, ("<", "<=", ">", ">=", "&"))
    __float__ = _untraceable("float() or a math function")
    __bool__ = _untraceable("a branch on a value")
    __eq__ = __ne__ = _untraceable("== or !=")

    def __pow__(self, p):
        # a symbolic exponent takes the exp-log form
        return _records("^v" if isinstance(p, Symbol) else "^")(self, p)

    def __neg__(self):
        return Symbol(("neg", self.node))

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method == "__call__" and not kwargs:
            if ufunc.__name__ in _TRACED_UFUNCS:
                return self.call(ufunc.__name__)
            op = _SCALAR_OPERATORS.get(ufunc)
            if op is not None:
                args = [a if isinstance(a, Symbol) else _as_float(a) for a in inputs]
                return NotImplemented if any(a is None for a in args) else op(*args)
        raise TypeError(f"numpy's {ufunc.__name__} does not trace")

    def call(self, name: str) -> "Symbol":
        return Symbol(("call", name, self.node))

    sqrt, exp, log, sin, cos = ((lambda self, name=name: self.call(name)) for name in _TRACED_UFUNCS)

    def positive(self, message: str) -> "Symbol":
        return Symbol(("pos", self.node, message))

    def __repr__(self):
        return f"Symbol({self.node!r})"


def power(z, p: float):
    """z ** p for a constant exponent p, by one rule on floats.

    The value is z * z for p = 2 and an integer power for other integer p;
    a negative base with a fractional exponent raises ValueError instead of
    turning complex. Any other operand takes ``z ** p``: a Symbol records
    this rule, not the product it takes at p = 2.
    """
    if _as_float(z) is None:
        return z**p
    if p == 2.0:
        return z * z
    if p == int(p):
        return z ** int(p)
    if z < 0.0:
        raise ValueError("negative base with fractional exponent")
    return z ** p


def positive(z, message: str):
    """z where it is a positive float, else ValueError(message); any other operand's ``positive``."""
    if _as_float(z) is None:
        return z.positive(message)
    if z <= 0.0:
        raise ValueError(message)
    return z


def _elementary(name: str):
    """The function ``name``: math's on a float, the operand's method of that name otherwise."""
    on_float = getattr(math, name)

    def fn(z):
        method = None if type(z) is float else getattr(z, name, None)
        return on_float(z) if method is None else method()

    fn.__name__ = fn.__qualname__ = name
    return fn


sqrt, exp, log, sin, cos = map(_elementary, _TRACED_UFUNCS)
