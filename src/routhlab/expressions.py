"""A small expression language for Lagrangians and scalar coefficients.

Grammar (whitespace-insensitive, standard precedence):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('-' | '+') unary | power
    power  := atom ('^' unary)?          right-associative
    atom   := NUMBER | FUNC '(' expr ')' | VARIABLE | '(' expr ')'

Functions: sqrt, sin, cos, exp, log. Variables: x1..xn for positions,
v1..vn for velocities. A constant exponent follows
:func:`routhlab.duals.power`; an exponent that reads a variable is evaluated
as ``exp(e * log(b))``, which needs b > 0.

Text is parsed once, to a tree of tuples; :func:`trace_expression` records
the same kind of tree from generic arithmetic run once on symbols, and
:func:`time_derivative` writes df/dt of a position-only tree. Two
evaluators derive from a tree:

* ``Expression.__call__`` runs over plain floats, Symbols or any number
  type with the methods that the :mod:`routhlab.duals` functions call, so
  one parse serves values, a trace into a larger tree, and the hyper-dual
  jet that the tests keep as the kernels' oracle.
* :meth:`Expression.jet_kernel` generates and compiles, once per expression
  and dimension, a straight-line Python function on plain floats. The
  ``"fiber"`` kernel seeds the n velocities and returns (value, d_y, d_yy);
  the ``"full"`` kernel seeds all 2n slots and returns the blocks of a
  :class:`~routhlab.jets.SecondJet`, skipping the position Hessian. Each
  derivative entry is computed by the rule and summation order of the
  hyper-dual operation it mirrors (forward-mode propagation of a value, its
  gradient and its Hessian over the seeded slots), with only structural-zero
  terms dropped, so a kernel jet equals the hyper-dual jet bit for bit
  wherever that is finite (zero entries may differ in sign).
  Positions stay plain floats in the fiber kernel, as velocity-free
  subexpressions follow the float rules there. The ``"columns"`` kernel is
  the fiber kernel over columns: each argument holds one coordinate of many
  rows, +, -, * and / run as numpy ufuncs, which round as Python floats do,
  and ``**`` and the functions run the float kernels' functions entry by
  entry. ``"level-value"``, ``"level-fiber"`` and ``"level-full"`` take
  (x, y, e), solve for the energy-e level metric's scale s in two or three
  fiber-jet probes and return the orders of ``JacobiFinslerModel.eval``, or
  None where the solve leaves that usual path. The acceleration kinds are
  one Euler-Lagrange step, the solve of L_yy a = L_x - L_xy^T v, over a jet
  source that mirrors its numpy twin: ``"el"`` over the tree's full jet at
  (x, v); ``"spray"`` over the half square of the level metric's, as the
  level kinds solve for it; ``"level-spray"`` adds
  :func:`routhlab.spray.projective_shift`'s shift that holds the energy; and
  ``"reduced-el"`` runs over the reduction by one cyclic coordinate, or
  returns None where two momentum probes do not settle it; each returns a
  tuple of floats, the flow kinds the velocities first. A kernel keeps no
  guard twice, and no assignment that nothing reads and that cannot raise.
  Kernel code is written from the tree alone, never from source text: names
  come from a fixed set and finite constants print with ``repr``.
  :func:`define` compiles it.
"""

from __future__ import annotations

import functools
import linecache
import math
import operator
import re
import weakref
from dataclasses import dataclass, field

import numpy as np

from . import duals
from .errors import ArityError, DomainError, ParseError, PositionDomainError, SingularHessian

__all__ = ["Expression", "parse_expression", "time_derivative", "trace_expression", "trace_guard"]

_FUNCTIONS = {
    "sqrt": duals.sqrt,
    "sin": duals.sin,
    "cos": duals.cos,
    "exp": duals.exp,
    "log": duals.log,
}

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<ws>\s+)"
    r"|(?P<bad>.)"
)

_VAR_RE = re.compile(r"^([xv])([1-9][0-9]*)$")

# Tree nodes are tuples:
#   ("num", c)                  float constant
#   ("x", i), ("v", i)          position / velocity i, zero-based
#   ("neg", a)
#   ("+" | "-" | "*" | "/", a, b)
#   ("call", name, a)           name in _FUNCTIONS
#   ("^", base, exponent)       exponent reads no variable: duals.power
#   ("^v", base, exponent)      exponent reads a variable: exp(exponent * log(base))
#   ("pos", a, message)         a where positive, else ValueError(message): duals.positive
# Only traced trees (trace_expression) and time derivatives hold "pos" nodes
# or share a node, one per value reused; a kernel computes it once.


@dataclass(frozen=True)
class _Token:
    kind: str  # 'num' | 'ident' | 'op' | 'end'
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        s = m.group()
        if kind == "ws":
            nl = s.count("\n")
            if nl:
                line += nl
                col = len(s) - s.rfind("\n")
            else:
                col += len(s)
            continue
        if kind == "bad":
            raise ParseError(f"unexpected character {s!r}", line, col)
        tokens.append(_Token(kind, s, line, col))
        col += len(s)
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.max_x = 0
        self.max_v = 0
        self.n_vars = 0  # variable references parsed so far

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        tok = self.peek()
        if tok.kind == "op" and tok.text == op:
            return self.advance()
        raise ParseError(f"expected {op!r}, found {tok.text or 'end of input'!r}", tok.line, tok.column)

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.column)
        return node

    def expr(self):
        node = self.term()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                node = (tok.text, node, self.term())
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "*/":
                self.advance()
                node = (tok.text, node, self.unary())
            else:
                return node

    def unary(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text in "+-":
            self.advance()
            inner = self.unary()
            return ("neg", inner) if tok.text == "-" else inner
        return self.power()

    def power(self):
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            before = self.n_vars
            exponent = self.unary()
            return ("^" if self.n_vars == before else "^v", base, exponent)
        return base

    def atom(self):
        tok = self.advance()
        if tok.kind == "num":
            return ("num", float(tok.text))
        if tok.kind == "ident":
            if tok.text in _FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return ("call", tok.text, arg)
            m = _VAR_RE.match(tok.text)
            if m:
                kind, idx = m.group(1), int(m.group(2)) - 1
                self.n_vars += 1
                if kind == "x":
                    self.max_x = max(self.max_x, idx + 1)
                else:
                    self.max_v = max(self.max_v, idx + 1)
                return (kind, idx)
            raise ParseError(f"unknown identifier {tok.text!r}", tok.line, tok.column)
        if tok.kind == "op" and tok.text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        what = tok.text if tok.kind != "end" else "end of input"
        raise ParseError(f"unexpected {what!r}", tok.line, tok.column)


# -- generic evaluator ---------------------------------------------------------


def _evaluator(node):
    """Nested closures evaluating node over floats, Symbols or another number type of generic arithmetic."""
    tag = node[0]
    if tag == "num":
        return lambda xs, ys, c=node[1]: c
    if tag == "x":
        return lambda xs, ys, i=node[1]: xs[i]
    if tag == "v":
        return lambda xs, ys, i=node[1]: ys[i]
    if tag == "neg":
        return lambda xs, ys, f=_evaluator(node[1]): -f(xs, ys)
    if tag == "call":
        return lambda xs, ys, f=_FUNCTIONS[node[1]], a=_evaluator(node[2]): f(a(xs, ys))
    if tag == "pos":
        return lambda xs, ys, f=_evaluator(node[1]), m=node[2]: duals.positive(f(xs, ys), m)
    a, b = _evaluator(node[1]), _evaluator(node[2])
    if tag == "+":
        return lambda xs, ys: a(xs, ys) + b(xs, ys)
    if tag == "-":
        return lambda xs, ys: a(xs, ys) - b(xs, ys)
    if tag == "*":
        return lambda xs, ys: a(xs, ys) * b(xs, ys)
    if tag == "/":
        return lambda xs, ys: a(xs, ys) / b(xs, ys)
    if tag in _OPS:  # a comparison, or & of two, as trace_guard records them
        return lambda xs, ys, f=_OPS[tag]: f(a(xs, ys), b(xs, ys))
    if tag == "^":
        return lambda xs, ys, pw=duals.power: pw(a(xs, ys), b(xs, ys))
    # a variable exponent takes the exp-log form on every number type,
    # so a position-only power rounds the same either way
    return lambda xs, ys, exp=duals.exp, log=duals.log: exp(b(xs, ys) * log(a(xs, ys)))


# -- the time derivative of a position-only tree -----------------------------------

_ZERO = ("num", 0.0)


def time_derivative(form: "Expression") -> "Expression":
    """df/dt = sum_i df/dx_i v_i along (x, v), for a form f of the positions only.

    Each x_i becomes v_i, and each node takes the gradient rule of its
    hyper-dual operation. Every guard of f stays a guard: sqrt and division
    keep their operand, log and a fractional power below 2 (whose second
    derivative is undefined at 0) guard theirs as positive, ``pos(a)`` stays
    as ``pos(a) - a``, and a constant that raises as ``0 * c``. A velocity
    in f raises ArityError.
    """
    done = {}  # id of a node: the node, which keeps its id unique, and its derivative

    def d(node):
        if id(node) not in done:
            done[id(node)] = node, rule(node)
        return done[id(node)][1]

    def rule(node):
        tag = node[0]
        if tag in ("x", "v"):
            if tag == "v":
                raise ArityError("a gauge form reads the positions only")
            return ("v", node[1])
        ds = [d(c) for c in node[1:] if type(c) is tuple]
        if all(c is None for c in ds):  # a constant: zero, unless it raises
            try:
                _evaluator(node)((), ())
            except Exception:  # raised again wherever the form is evaluated
                return ("*", _ZERO, node)
            return None
        a, da = node[1], ds[0]
        if tag == "neg":
            return ("neg", da)
        if tag == "pos":
            return ("+", da, ("-", node, a))
        if tag == "call":  # the hyper-dual chain: f'(a) * da
            a = node[2]
            return ("*", {"sqrt": ("/", ("num", 0.5), node), "exp": node,
                          "log": ("/", ("num", 1.0), ("pos", a, "log of non-positive value")),
                          "sin": ("call", "cos", a), "cos": ("neg", ("call", "sin", a))}[node[1]], da)
        if tag == "^v":
            return d(("call", "exp", ("*", node[2], ("call", "log", a))))
        if tag == "^":  # the hyper-dual constant power
            p = _evaluator(node[2])((), ()) if ds[1] is None else math.nan
            if not math.isfinite(p):
                return ("*", _ZERO, node)  # the power raises wherever it is evaluated
            if p in (0.0, 1.0):
                return ("*", _ZERO, da) if p == 0.0 else da
            if p < 2.0 and p != int(p):
                a = ("pos", a, "fractional power below 2 of a non-positive value")
            f1 = ("*", ("num", 2.0), a) if p == 2.0 else ("*", ("num", p), ("^", a, ("num", p - 1.0)))
            return ("*", f1, da)
        b, db = node[2], ds[1]
        if da is None or db is None:  # a float operand, as the hyper-dual float rules take it
            return {"+": da or db, "-": da or ("neg", db), "*": ("*", da or db, b if da else a),
                    "/": ("/", da, b) if da else ("/", ("*", ("neg", node), db), b)}[tag]
        return {"+": ("+", da, db), "-": ("-", da, db), "*": ("+", ("*", da, b), ("*", db, a)),
                "/": ("/", ("-", da, ("*", node, db)), b)}[tag]

    tree = d(form.tree)
    return Expression(f"d/dt({form.source})", _ZERO if tree is None else tree, form.max_x, form.max_x)


# -- jet kernels -----------------------------------------------------------------


def _raise(error, message):
    raise error(message)


def _singular(*x):
    raise SingularHessian(f"fundamental tensor is singular at x={np.array(x)}")


def _singular_hessian(*xv):
    n = len(xv) // 2
    raise SingularHessian(f"velocity Hessian is singular at x={np.array(xv[:n])}, v={np.array(xv[n:])}")


def _outside(*x):
    """Raise the PositionDomainError of a position x outside a model's predicate."""
    raise PositionDomainError(f"position {np.array(x)} outside the model domain")


#: the only global names kernel code can read; temporaries are t0, t1, ...
_KERNEL_GLOBALS = {
    "_sqrt": math.sqrt,
    "_sin": math.sin,
    "_cos": math.cos,
    "_exp": math.exp,
    "_log": math.log,
    "_power": duals.power,
    "_array": np.array,
    "_sqrt_domain": functools.partial(_raise, ValueError, "sqrt of non-positive value"),
    "_log_domain": functools.partial(_raise, ValueError, "log of non-positive value"),
    "_negative_base": functools.partial(_raise, ValueError, "negative base with fractional exponent"),
    "_not_positive": functools.partial(_raise, ValueError),
    "_singular": _singular,
    "_singular_hessian": _singular_hessian,
    "_outside": _outside,
    "_insensitive_level": functools.partial(_raise, DomainError, "level function is insensitive to the "
                                            "velocity scale; no conserving reparametrization exists here"),
    "_fabs": math.fabs,
    "_nextafter": math.nextafter,
    "_INF": math.inf,
    "_NAN": math.nan,
}


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


def _stack(col, entries, *shape):
    """Column kernel entries as one (k, *shape) array, constants broadcast."""
    out = np.empty((len(col), len(entries)))
    for i, e in enumerate(entries):
        out[:, i] = e
    return out.reshape(len(col), *shape)


#: the column kernel's names: the float kernel's functions entry by entry
#: (a complex power fails its conversion to a float array) and ``**`` as _pow
_COLUMN_GLOBALS = {
    **_KERNEL_GLOBALS,
    "_sqrt": entrywise(math.sqrt),
    "_sin": entrywise(math.sin),
    "_cos": entrywise(math.cos),
    "_exp": entrywise(math.exp),
    "_log": entrywise(math.log),
    "_power": entrywise(duals.power),
    "_pow": entrywise(operator.pow),
    "_any": np.any,
    "_stack": _stack,
}

_OPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "**": operator.pow,
    **{"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge, "&": operator.and_},
}

#: each guard's test, as written and as it folds on constants
_COMPARE = {"<=": ("{} <= {}", operator.le), "<": ("{} < {}", operator.lt),
            "not <": ("not {} < {}", lambda a, b: not a < b)}

#: the energy-scale solve stops where |E - e| <= SCALE_TOL (1 + |e|), in
#: ``homogenize.solve_energy_scale`` and in the kernels that write its usual path
SCALE_TOL = 1e-12


def _fold(fn, *args):
    """fn(*args) as a float, or None where the call raises (or turns complex)."""
    try:
        return float(fn(*args))
    except (ArithmeticError, ValueError, TypeError):
        return None


def _const(a) -> bool:
    return type(a) is float


def _is(a, c: float) -> bool:
    return type(a) is float and a == c


_TEMPORARY = re.compile(r"\bt\d+\b")
#: a top-level assignment with no division, power or call on its right
_PURE_ASSIGNMENT = re.compile(r"    (t\d+) = (?!.*(?:/|\*\*|\w\()).*")

#: each kernel kind and the arguments it takes after its state: n positions and velocities, "reduced-el" n - 1
_KINDS = {"fiber": (), "full": (), "columns": (), "el": (), "reduced-el": ("z", "mu", "bound", "lift"),
          **{kind: ("e",) for kind in ("level-value", "level-fiber", "level-full", "spray", "level-spray")}}


class _KernelWriter:
    """Writes one jet kernel as Python source.

    An operand is a float known while writing, or the name of a temporary.
    A jet is ``(value, g, h)``: ``g`` lists one operand per seeded slot and
    ``h`` one per entry of ``self.pairs``, or both are None for a node that
    reads no seeded variable and so evaluates as a plain float, as it does
    under the hyper-dual rules. Values and chain-rule coefficients are computed
    exactly as those rules compute them, so they raise where they raise; derivative
    entries only add, subtract, multiply and divide by values, which cannot
    raise, and drop terms that are structural zeros.
    """

    def __init__(self, n: int, kind: str, cyclic: int | None = None, guard: "Expression | None" = None):
        self.n = n
        self.kind = kind
        self.cyclic = cyclic
        self.guard = guard
        self.seed(kind not in ("fiber", "columns"))
        # the column kernel is the fiber kernel with its operands columns
        self.columns = kind == "columns"
        self.lines = []
        self.guards = set()
        # t0 .. t(2n-1) are the arguments x, then y, and the kind's own follow; the reduced kind
        # reads the shape point, with position 0.0, which is not folded, and velocity z at the cyclic slot
        state = 2 * n if cyclic is None else 2 * n - 2
        self.count = self.arity = state + len(_KINDS[kind])
        self.args = [f"t{k}" for k in range(self.arity)]
        self.slots = self.args[:2 * n]  # the operands x and v read
        if cyclic is not None:
            x, v = self.args[:n - 1], self.args[n - 1:state]
            self.slots = [*x[:cyclic], "0.0", *x[cyclic:], *v[:cyclic], self.args[state], *v[cyclic:]]
        self.x = self.slots[:n]
        self.done = {}  # id of a node already written: its jet
        self.names = {}  # right-hand side already written: its temporary

    def seed(self, full: bool):
        """Seed all 2n slots from here on (the full jet), or the n velocities (the fiber jet)."""
        n = self.n
        self.full = full
        self.m = 2 * n if full else n
        # the full kernel skips the x-x block, which SecondJet never holds
        rows = range(2 * n) if full else range(n)
        cols = range(n, 2 * n) if full else range(n)
        self.pairs = [(i, j) for i in rows for j in cols]

    # -- operands -----------------------------------------------------------

    @staticmethod
    def lit(a) -> str:
        if not _const(a):
            return a
        if math.isnan(a):
            return "_NAN"
        if math.isinf(a):
            return "_INF" if a > 0 else "(-_INF)"
        return f"({a!r})" if math.copysign(1.0, a) < 0 else repr(a)

    def emit(self, text: str) -> str:
        """The temporary holding text, written once: temporaries are assigned once."""
        name = self.names.get(text)
        if name is None:
            name = self.names[text] = f"t{self.count}"
            self.count += 1
            self.lines.append(f"    {name} = {text}")
        return name

    def op(self, sym: str, a, b):
        """a sym b, rounded as the hyper-dual rules round it: values and coefficients."""
        if sym == "**" and _is(b, 0.0):
            return 1.0  # float_pow returns 1.0 for any base
        if sym in ("*", "**") and _is(b, 1.0):
            return a  # a * 1.0 is a, and so is a ** 1.0, which the hyper-dual square uses at p = 2
        if sym == "*" and _is(a, 1.0):
            return b
        if _const(a) and _const(b):
            c = _fold(_OPS[sym], a, b)
            if c is not None:
                return c
        if sym == "**" and self.columns:
            # numpy's power rounds differently from the float power
            return self.emit(f"_pow({self.lit(a)}, {self.lit(b)})")
        return self.emit(f"{self.lit(a)} {sym} {self.lit(b)}")

    def call(self, name: str, a):
        if _const(a):
            c = _fold(getattr(math, name), a)
            if c is not None:
                return c
        return self.emit(f"_{name}({self.lit(a)})")

    def require(self, a, cmp: str, action: str, bound=0.0):
        """Run action, a call that raises or a return, where ``a cmp bound``: a guard of the hyper-dual rules."""
        text, holds = _COMPARE[cmp]
        if _const(a) and _const(bound):
            if holds(a, bound):
                self.lines.append(f"    {action}")
            return
        test = text.format(self.lit(a), self.lit(bound))
        # temporaries are assigned once and every action raises or returns,
        # so a test passed holds from here on, whatever its action
        if test not in self.guards:
            self.guards.add(test)
            self.lines += [f"    if _any({test}):" if self.columns else f"    if {test}:", f"        {action}"]

    # -- derivative entries, structural zeros dropped ---------------------------

    def neg(self, a):
        return -a if _const(a) else self.emit(f"-{a}")

    def add(self, a, b):
        if _const(a) and _const(b):
            return a + b
        if _is(a, 0.0):
            return b
        if _is(b, 0.0):
            return a
        return self.emit(f"{self.lit(a)} + {self.lit(b)}")

    def sub(self, a, b):
        if _const(a) and _const(b):
            return a - b
        if _is(b, 0.0):
            return a
        if _is(a, 0.0):
            return self.neg(b)
        return self.emit(f"{self.lit(a)} - {self.lit(b)}")

    def mul(self, a, b):
        if _const(a) and _const(b):
            return a * b
        if _is(a, 0.0) or _is(b, 0.0):
            return 0.0
        if _is(a, 1.0):
            return b
        if _is(b, 1.0):
            return a
        return self.emit(f"{self.lit(a)} * {self.lit(b)}")

    def div(self, a, b):
        if _const(a) and _const(b):
            c = _fold(operator.truediv, a, b)
            if c is not None:
                return c
        if _is(a, 0.0):
            return 0.0
        if _is(b, 1.0):
            return a
        return self.emit(f"{self.lit(a)} / {self.lit(b)}")

    # -- hyper-dual rules -------------------------------------------------------

    def jet(self, tree):
        """The jet of tree, with a float's derivatives written out as zeros."""
        v, g, h = self.node(tree)
        return (v, g, h) if g is not None else (v, [0.0] * self.m, [0.0] * len(self.pairs))

    def node(self, node):
        """The jet of node, written once however often the tree reuses it."""
        jet = self.done.get(id(node))
        if jet is None:
            jet = self.done[id(node)] = self.rule(node)
        return jet

    def rule(self, node):
        tag = node[0]
        if tag == "num":
            return node[1], None, None
        if tag in ("x", "v"):
            i = node[1]
            if i >= self.n:
                raise ArityError(f"expression references index {i + 1} beyond dimension {self.n}")
            arg = i if tag == "x" else self.n + i
            if tag == "x" and not self.full:
                return self.slots[arg], None, None  # positions stay floats
            slot = arg if self.full else i
            g = [1.0 if k == slot else 0.0 for k in range(self.m)]
            return self.slots[arg], g, [0.0] * len(self.pairs)
        if tag == "neg":
            v, g, h = self.node(node[1])
            if g is None:
                return self.neg(v), None, None
            return self.neg(v), [self.neg(e) for e in g], [self.neg(e) for e in h]
        if tag == "call":
            return self.func(node[1], self.node(node[2]))
        if tag == "pos":
            self.require(self.node(node[1])[0], "<=", f"_not_positive({node[2]!r})")
            return self.node(node[1])
        if tag == "^":
            base = self.node(node[1])
            p, _, _ = self.node(node[2])
            return self.power(base, p)
        if tag == "^v":
            e = self.node(node[2])  # the exponent evaluates first
            return self.func("exp", self.binop("*", e, self.func("log", self.node(node[1]))))
        return self.binop(tag, self.node(node[1]), self.node(node[2]))

    def binop(self, sym: str, a, b):
        av, ag, ah = a
        bv, bg, bh = b
        v = self.op(sym, av, bv)
        if ag is None and bg is None:
            return v, None, None
        pairs = self.pairs
        if sym == "+":
            if ag is None:
                return v, bg, bh
            if bg is None:
                return v, ag, ah
            return v, list(map(self.add, ag, bg)), list(map(self.add, ah, bh))
        if sym == "-":
            if bg is None:
                return v, ag, ah
            if ag is None:
                return v, [self.neg(e) for e in bg], [self.neg(e) for e in bh]
            return v, list(map(self.sub, ag, bg)), list(map(self.sub, ah, bh))
        mul, add, sub, div = self.mul, self.add, self.sub, self.div
        if sym == "*":
            if bg is None:
                return v, [mul(e, bv) for e in ag], [mul(e, bv) for e in ah]
            if ag is None:
                return v, [mul(e, av) for e in bg], [mul(e, av) for e in bh]
            g = [add(mul(ag[k], bv), mul(bg[k], av)) for k in range(self.m)]
            h = [
                add(add(add(mul(ah[p], bv), mul(bh[p], av)), mul(ag[i], bg[j])), mul(ag[j], bg[i]))
                for p, (i, j) in enumerate(pairs)
            ]
            return v, g, h
        if bg is None:  # dual / float
            return v, [div(e, bv) for e in ag], [div(e, bv) for e in ah]
        if ag is None:  # float / dual, which rounds as (-val * g) / b
            nv = self.neg(v)
            g = [div(mul(nv, e), bv) for e in bg]
            h = [
                div(sub(sub(mul(nv, bh[p]), mul(g[i], bg[j])), mul(g[j], bg[i])), bv)
                for p, (i, j) in enumerate(pairs)
            ]
            return v, g, h
        g = [div(sub(ag[k], mul(v, bg[k])), bv) for k in range(self.m)]
        h = [
            div(sub(sub(sub(ah[p], mul(v, bh[p])), mul(g[i], bg[j])), mul(g[j], bg[i])), bv)
            for p, (i, j) in enumerate(pairs)
        ]
        return v, g, h

    def chain(self, a, f0, f1, f2):
        _, g, h = a
        mul = self.mul
        return (
            f0,
            [mul(f1, e) for e in g],
            [self.add(mul(f1, h[p]), mul(f2, mul(g[i], g[j]))) for p, (i, j) in enumerate(self.pairs)],
        )

    def func(self, name: str, a):
        v, g, _ = a
        if g is None:
            return self.call(name, v), None, None
        op = self.op
        if name == "sqrt":
            self.require(v, "<=", "_sqrt_domain()")
            s = self.call("sqrt", v)
            return self.chain(a, s, op("/", 0.5, s), op("/", -0.25, op("*", s, v)))
        if name == "log":
            self.require(v, "<=", "_log_domain()")
            return self.chain(a, self.call("log", v), op("/", 1.0, v), op("/", -1.0, op("*", v, v)))
        if name == "exp":
            f = self.call("exp", v)
            return self.chain(a, f, f, f)
        s, c = self.call("sin", v), self.call("cos", v)
        if name == "sin":
            return self.chain(a, s, c, self.neg(s))
        return self.chain(a, c, self.neg(s), self.neg(c))

    def power_value(self, v, p: float):
        """duals.power(v, p) on a float operand and a finite constant p."""
        if p == 2.0:
            return self.op("*", v, v)
        if p != int(p):
            self.require(v, "<", "_negative_base()")
        return self.op("**", v, p)

    def power(self, a, p):
        v, g, h = a
        if not (_const(p) and math.isfinite(p)):
            # reached only where p's own evaluation raised or duals.power
            # raises on it, so the derivatives are never read
            f0 = self.emit(f"_power({self.lit(v)}, {self.lit(p)})")
            return f0, g, h
        if g is not None and p == 1.0:
            return a  # the hyper-dual power returns z itself; z ** 1 cannot raise
        f0 = self.power_value(v, p)
        if g is None:
            return f0, None, None
        if p == 0.0:
            return self.chain(a, 1.0, 0.0, 0.0)
        op = self.op
        f1 = op("*", p, op("**", v, p - 1.0))
        f2 = op("*", p * (p - 1.0), op("**", v, p - 2.0))
        return self.chain(a, f0, f1, f2)

    # -- jet sources and the Euler-Lagrange step ----------------------------------------
    # A jet source writes (value, d_x, d_y, d_xy, d_yy) at the kernel's point,
    # d_xy and d_yy as rows, each mirroring its numpy twin; an entry no step
    # reads is None, and the scaled and reduced sources may decline with
    # ``return None``.

    def dot(self, a, b):
        """sum(a[i] * b[i]), summed from the left as ``@`` sums a short vector."""
        return functools.reduce(self.add, map(self.mul, a, b), 0.0)

    def base_jet(self, tree, velocity, full: bool = True):
        """The full jet of the tree at (x, velocity), or the fiber jet, whose x entries are None."""
        n = self.n
        self.seed(full)
        self.slots = self.x + velocity  # what the tree's x and v read
        self.done = {}  # a node's jet depends on the point
        v, g, h = self.jet(tree)
        rows = [h[r * n:(r + 1) * n] for r in range(len(h) // n)]
        if not full:
            return v, None, g, None, rows
        return v, g[:n], g[n:], rows[:n], rows[n:]

    def level_jet(self, tree, s, e, jet=None):
        """The jet of F_e over the tree at (x, y) and scale s, as ``JacobiFinslerModel.eval`` assembles it
        from the tree's full jet at (x, y/s), or its fiber jet from the tree's fiber jet given there."""
        n, add, sub, mul, div = self.n, self.add, self.sub, self.mul, self.div
        v = [div(yi, s) for yi in self.args[n:2 * n]]
        val, l_x, l_v, l_xv, l_vv = jet or self.base_jet(tree, v)
        gv = [self.dot(row, v) for row in l_vv]
        q = self.dot(v, gv)
        b = [[div(sub(l_vv[i][j], div(mul(gv[i], gv[j]), q)), s) for j in range(n)] for i in range(n)]
        d_yy = [[mul(0.5, add(b[i][j], b[j][i])) for j in range(n)] for i in range(n)]
        if l_x is None:
            return mul(s, add(val, e)), None, l_v, None, d_yy
        e_x = [sub(self.dot(row, v), d) for row, d in zip(l_xv, l_x)]
        return (mul(s, add(val, e)), [mul(s, d) for d in l_x], l_v,
                [[sub(l_xv[i][j], div(mul(e_x[i], gv[j]), q)) for j in range(n)] for i in range(n)], d_yy)

    def probe(self, tree, s, e):
        """(r, q, jet) of ``homogenize._scale_probe`` at scale s: jet is the tree's fiber jet at (x, y/s)."""
        w = [self.div(yi, s) for yi in self.args[self.n:2 * self.n]]
        jet = val, _, d_y, _, d_yy = self.base_jet(tree, w, full=False)
        r = self.sub(self.sub(self.dot(w, d_y), val), e)
        return r, self.dot(w, [self.dot(row, w) for row in d_yy]), jet

    def scaled(self, tree, e):
        """(s, jet): the root s of E(x, y/s) = e and the tree's fiber jet at (x, y/s).

        It writes the usual path of ``homogenize.solve_energy_scale`` in its float
        operations: the probe at s = |y|, a model step with k = 2 and its
        probe, then, where that probe has not converged (the power families),
        a branch with the refit of k, the second model step and a third
        probe. It declines with ``return None`` wherever the rules leave that
        path, a NaN included, and at a zero velocity.
        """
        n, op, fabs, decline = self.n, self.op, functools.partial(self.call, "fabs"), "return None"
        atol = op("*", SCALE_TOL, op("+", 1.0, fabs(e)))

        def step(s, r, q, k, lo, hi):  # the model step, defined and inside (lo, hi), of which s is one
            self.require(0.0, "not <", decline, q)
            qk = op("/", q, k)
            self.require(r, "not <", decline, qk)
            t = op("*", s, op("**", op("/", qk, op("-", qk, r)), op("/", 1.0, k)))
            self.require(lo, "not <", decline, t)
            self.require(t, "not <", decline, hi)
            return t

        def refit(s, q, t, q_t):  # written where the rules refit k, so it raises where theirs does
            self.require(0.0, "not <", decline, q_t)
            return op("/", self.call("log", op("/", q, q_t)), self.call("log", op("/", t, s)))

        def entries(s, jet):
            return [s, jet[0], *jet[2], *sum(jet[4], [])]

        y = self.args[n:2 * n]
        s = self.call("sqrt", self.dot(y, y))
        self.require(s, "<=", decline)
        r, q, jet = self.probe(tree, s, e)
        self.require(atol, "not <", decline, fabs(r))  # converged, or a residual that is not a number
        lo, hi = self.choose(f"0.0 < {self.lit(r)}", [s, math.inf], [0.0, s])
        t = step(s, r, q, 2.0, lo, hi)
        r_t, q_t, jet_t = self.probe(tree, t, e)
        test = f"{self.lit(atol)} < {self.lit(fabs(r_t))}"
        # the branch's temporaries and guards do not hold after it
        mark, names, guards = len(self.lines), dict(self.names), set(self.guards)
        creep, half = op("*", r, r_t), op("*", 0.5, fabs(r))  # a creeping model step is skipped
        self.lines += [f"    if 0.0 < {self.lit(creep)}:",
                       f"        if {self.lit(half)} < {self.lit(fabs(r_t))}:", "            return None"]
        lo, hi = self.choose(f"0.0 < {self.lit(r_t)}", [t, hi], [lo, t])
        self.require(self.emit(f"_nextafter({self.lit(lo)}, {self.lit(hi)})"), "not <", decline, hi)
        k = refit(s, q, t, q_t)
        self.require(1.0, "not <", decline, k)
        self.require(k, "not <", decline, 64.0)
        t_3 = step(t, r_t, q_t, k, lo, hi)
        r_3, q_3, jet_3 = self.probe(tree, t_3, e)
        self.require(atol, "<", decline, fabs(r_3))
        body = self.lines[mark:]
        del self.lines[mark:]
        self.names, self.guards = names, guards
        s, *out = self.choose(test, entries(t_3, jet_3), entries(t, jet_t), body)
        return s, (out[0], None, out[1:n + 1], None, [out[n * i + 1:n * i + n + 1] for i in range(1, n + 1)])

    def half_square(self, jet):
        """The jet of E = F^2/2 from F's, as ``half_square_jet`` assembles it; E and E_y are None."""
        f, f_x, f_y, f_xy, f_yy = jet
        add, mul, n = self.add, self.mul, self.n
        return (None, [mul(f, d) for d in f_x], None,
                [[add(mul(f_x[i], f_y[j]), mul(f, f_xy[i][j])) for j in range(n)] for i in range(n)],
                [[add(mul(f_y[i], f_y[j]), mul(f, f_yy[i][j])) for j in range(n)] for i in range(n)])

    def reduced_jet(self, tree, mu, bound, lift):
        """The jet of the reduction by the cyclic coordinate at the shape point; its value is None.

        It reads the full point, with 0.0 as the cyclic position and the guess
        as the cyclic velocity, then mu and ``routh._momentum_bounds``, which
        it completes with the shape speed. It writes
        ``routh.solve_momentum``'s first two probes, a fiber jet at the
        guess and, one Newton step on, the full jet, then the float operations
        of ``ReducedLagrangian.eval``'s Schur step. It declines where the solve
        converges at the guess, diverges or needs more steps, or a pivot is zero.
        """
        n, c, op = self.n, self.cyclic, self.op
        v, s = self.slots[n:], [i for i in range(n) if i != c]

        def norm(r):  # |r| on floats, as the momentum solve takes it
            return self.call("sqrt", op("*", r, r))

        shape = [v[j] for j in s]  # the speed summed from the left, as ``@`` sums a short vector
        ceiling = op("*", 1e8, op("+", lift, self.call("sqrt", self.dot(shape, shape))))

        self.seed(False)
        _, g, h = self.jet(tree)
        r, pivot = op("-", g[c], mu), h[c * n + c]
        self.require(norm(r), "<=", "return None", bound)
        self.require(self.call("fabs", pivot), "<=", "return None")
        z = op("-", v[c], op("/", r, pivot))
        self.require(ceiling, "<", "return None", norm(z))
        _, l_x, l_v, l_xv, l_vv = self.base_jet(tree, v[:c] + [z] + v[c + 1:])
        # not converged, or a residual that is not a number
        self.lines += [f"    if not {norm(op('-', l_v[c], mu))} <= {bound}:", "        return None"]
        # dgesv divides a 1x1 system with one column and multiplies by the
        # reciprocal with more; a 1x1 matrix product adds its one term to 0.0
        self.require(self.call("fabs", l_vv[c][c]), "<=", "return None")
        w = {j: op("/", l_vv[c][j], l_vv[c][c]) if n == 2 else op("*", l_vv[c][j], op("/", 1.0, l_vv[c][c]))
             for j in s}

        def schur(block, i, j):
            return op("-", block[i][j], op("+", 0.0, op("*", block[i][c], w[j])))

        # a float entry of L_x is written out, so L_x - L_xv^T v subtracts from it as numpy does
        return (None, [self.emit(self.lit(l_x[j])) if _const(l_x[j]) else l_x[j] for j in s],
                [l_v[j] for j in s], [[schur(l_xv, i, j) for j in s] for i in s],
                [[op("*", 0.5, op("+", schur(l_vv, i, j), schur(l_vv, j, i))) for j in s] for i in s])

    def el(self, jet, v, fail: str):
        """L_yy^-1 (L_x - L_xy^T v) of a jet at velocity v, the acceleration ``el_acceleration`` solves for."""
        _, l_x, _, l_xv, l_vv = jet
        rhs = [self.sub(d, self.dot([row[j] for row in l_xv], v)) for j, d in enumerate(l_x)]
        return self.solve(l_vv, rhs, fail)

    def level_shift(self, tree, y, a):
        """a + p y holding the base energy, as ``projective_shift`` with ``JacobiFinslerModel.level_jet``."""
        add, sub, dot = self.add, self.sub, self.dot
        _, m_x, _, m_xy, m_yy = self.base_jet(tree, y)
        l_x = [sub(dot(row, y), d) for row, d in zip(m_xy, m_x)]
        l_y = [dot(row, y) for row in m_yy]
        den = dot(l_y, y)
        self.require(self.call("fabs", den), "<", "_insensitive_level()", bound=1e-14)
        p = self.div(self.neg(add(dot(l_x, y), dot(l_y, a))), den)
        return [add(ai, self.mul(p, yi)) for ai, yi in zip(a, y)]

    def choose(self, test: str, then: list, other: list, body=()) -> list:
        """Each operand of then where test holds at run time, after the lines body, else of other: in a
        new temporary, or as it stands where the two are one operand."""
        out = [a if self.lit(a) == self.lit(b) else None for a, b in zip(then, other)]
        fresh = [k for k, a in enumerate(out) if a is None]
        for k in fresh:
            out[k] = f"t{self.count}"
            self.count += 1
        if fresh:
            lhs = ", ".join(out[k] for k in fresh)
            self.lines += [f"    if {test}:", *("    " + line for line in body),
                           f"        {lhs} = {', '.join(self.lit(then[k]) for k in fresh)}",
                           "    else:", f"        {lhs} = {', '.join(self.lit(other[k]) for k in fresh)}"]
        return out

    def solve(self, a, b, fail: str):
        """a^-1 b by elimination with partial pivoting, in the order of LAPACK's dgetf2 and dtrsm.

        Each row below the pivot row replaces it where its |entry| is strictly
        larger, so the first largest wins, as idamax picks it. A zero pivot
        runs the statement fail. Multipliers take the pivot's reciprocal and back
        substitution divides, so n = 1 is the division of ``jets.solve_linear``.
        """
        n = len(b)
        rows = [list(a[i]) + [b[i]] for i in range(n)]
        for k in range(n):
            for i in range(k + 1, n):
                if not _is(rows[i][k], 0.0):  # a zero is never larger
                    test = f"_fabs({self.lit(rows[k][k])}) < _fabs({self.lit(rows[i][k])})"
                    top, row = rows[k][k:], rows[i][k:]
                    out = self.choose(test, row + top, top + row)
                    rows[k][k:], rows[i][k:] = out[:len(top)], out[len(top):]
            self.require(self.call("fabs", rows[k][k]), "<=", fail)
            for i in range(k + 1, n):
                m = self.mul(rows[i][k], self.div(1.0, rows[k][k]))
                rows[i][k + 1:] = [self.sub(rows[i][j], self.mul(m, rows[k][j])) for j in range(k + 1, n + 1)]
        out = [None] * n
        for k in reversed(range(n)):
            t = rows[k][n]
            for j in reversed(range(k + 1, n)):
                t = self.sub(t, self.mul(out[j], rows[k][j]))
            out[k] = self.div(t, rows[k][k])
        return out

    # -- the kernel ---------------------------------------------------------------

    def write(self, tree) -> str:
        n, lit, kind = self.n, self.lit, self.kind
        args = self.args
        x, v, extra = args[:n], args[n:2 * n], args[self.arity - len(_KINDS[kind]):]

        def vec(entries):
            return "_array([" + ", ".join(lit(e) for e in entries) + "])"

        def floats(entries):
            return "(" + ", ".join(lit(e) for e in entries) + ",)"

        def mat(rows):
            return "_array([" + ", ".join("[" + ", ".join(lit(e) for e in row) + "]" for row in rows) + "])"

        def stack(entries, shape=""):
            return f"_stack(t0, [{', '.join(lit(e) for e in entries)}]{shape})"

        # an acceleration is the Euler-Lagrange step over its kind's jet source;
        # the flow kinds return the state's derivative, velocities first
        if kind == "el":
            out = [floats(v + self.el(self.base_jet(tree, v), v, f"_singular_hessian({', '.join(x + v)})"))]
        elif kind == "reduced-el":
            shape = self.args[n - 1:2 * n - 2]
            out = [floats(shape + self.el(self.reduced_jet(tree, *extra[1:]), shape, "return None"))]
        elif kind == "level-value":
            s, jet = self.scaled(tree, *extra)
            out = [lit(self.mul(s, self.add(jet[0], *extra)))]
        elif kind in ("level-fiber", "level-full", "spray", "level-spray"):
            s, fiber = self.scaled(tree, *extra)  # the full kinds write the tree's full jet at s
            jet = self.level_jet(tree, s, *extra, fiber if kind == "level-fiber" else None)
            val, d_x, d_y, d_xy, d_yy = jet
            if kind == "level-fiber":
                out = [lit(val), vec(d_y), mat(d_yy)]
            elif kind == "level-full":
                out = [lit(val), vec(d_x), vec(d_y), mat(d_yy), mat(d_xy)]
            else:
                a = self.el(self.half_square(jet), v, f"_singular({', '.join(x)})")
                out = [floats(self.level_shift(tree, v, a) if kind == "level-spray" else a)]
        else:
            val, g, h = self.jet(tree)
            rows = [h[r * n:(r + 1) * n] for r in range(len(h) // n)]
            if self.full:
                out = [lit(val), vec(g[:n]), vec(g[n:]), mat(rows[n:]), mat(rows[:n])]
            elif self.columns:
                out = [stack([val]), stack(g, f", {n}"), stack(h, f", {n}, {n}")]
            else:
                out = [lit(val), vec(g), mat(rows)]
        ret = "    return " + ", ".join(out)
        # the position guard comes first, so its error comes before any of the formula's
        guard = [f"    if not {_guard_code(self.guard.tree, self.x)}:",
                 f"        _outside({', '.join(map(lit, self.x))})"] if self.guard else []
        return "\n".join([f"def kernel({', '.join(args)}):", *guard, *self.live(ret), ret, ""])

    def live(self, ret: str) -> list:
        """The lines without each assignment of +, -, * or negation that nothing after it reads.

        Such an assignment cannot raise on floats, so dropping it changes no
        value and no error; numpy raises on an overflowing product, so the
        column kernel keeps every line."""
        if self.columns:
            return self.lines
        reads, kept = set(_TEMPORARY.findall(ret)), []
        for line in reversed(self.lines):
            pure = _PURE_ASSIGNMENT.fullmatch(line)
            if pure is None or pure[1] in reads:
                reads.update(_TEMPORARY.findall(line))
                kept.append(line)
        return kept[::-1]


#: the live kernel of each linecache name: one text a name, so other text takes a suffix
_KERNELS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _compile_kernel(source: str, tree, kind: str, n: int, cyclic: int | None, guard):
    if kind not in _KINDS:
        raise ValueError(f"unknown kernel kind {kind!r}")
    text = _KernelWriter(n, kind, cyclic, guard).write(tree)
    where = (f"n={n}" if cyclic is None else f"n={n} c={cyclic}") + (f" if {guard.source}" if guard else "")
    name = f"<routhlab-kernel {kind} {where}: {' '.join(source.split())}>"
    filename, k = name, 1
    while (live := _KERNELS.get(filename)) is not None:
        if live.text == text:
            return live
        k += 1
        filename = f"{name[:-1]} #{k}>"
    kernel = _KERNELS[filename] = define(text, filename, "kernel",
                                         _COLUMN_GLOBALS if kind == "columns" else _KERNEL_GLOBALS)
    return kernel


def define(text: str, filename: str, name: str, names: dict):
    """The function ``name`` that ``text`` defines, compiled as ``filename`` over ``names`` and no
    builtins; it keeps its ``text``, which ``linecache`` shows tracebacks while it lives."""
    namespace = dict(names, __builtins__={})
    exec(compile(text, filename, "exec"), namespace)  # noqa: S102 - text is written from data alone
    fn = namespace.pop(name)
    fn.text = text
    linecache.cache[filename] = (len(text), None, text.splitlines(True), filename)
    weakref.finalize(fn, linecache.cache.pop, filename, None).atexit = False
    return fn


@dataclass(frozen=True)
class Expression:
    """A parsed expression with its variable footprint.

    Calling it evaluates the tree over floats or Symbols;
    :meth:`jet_kernel` gives the compiled float kernels.
    """

    source: str
    tree: tuple
    max_x: int
    max_v: int
    fn: object = field(init=False, repr=False, compare=False)
    _kernels: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "fn", _evaluator(self.tree))

    def __call__(self, xs, ys=()):
        return self.fn(xs, ys)

    def checked(self, dim: int | None = None, allow_velocity: bool = True) -> "Expression":
        """self; ArityError where it reads an index above dim or, unless allow_velocity, a velocity."""
        worst = max(self.max_x, self.max_v)
        if dim is not None and worst > dim:
            raise ArityError(f"expression references index {worst} beyond declared dimension {dim}")
        if not allow_velocity and self.max_v > 0:
            raise ArityError("velocity variables are not allowed in this expression")
        return self

    def jet_kernel(self, kind: str, n: int, cyclic: int | None = None, guard: "Expression | None" = None):
        """The compiled kernel of a kind in ``_KINDS``, made on first use (a live equal one is reused) and kept.

        It takes the n positions, the n velocities and then the kind's own
        arguments, as floats or, for the column kernel, as (k,) columns of k
        rows; ``"reduced-el"`` takes the shape point instead. The fiber kernel
        returns (value, d_y, d_yy), the full kernel (value, d_x, d_y, d_yy,
        d_xy), the column kernel the fiber blocks of every row stacked, of
        shapes (k,), (k, n) and (k, n, n), the level kinds what
        ``JacobiFinslerModel.eval`` does, and the acceleration kinds the n
        accelerations, after the velocities for the flow kinds. The level and
        spray kinds return None where their scale solve leaves its usual path,
        and ``"reduced-el"``, of the cyclic index ``cyclic``, where its
        momentum probes do not apply. A ``guard`` (:func:`trace_guard`) raises
        PositionDomainError first, outside it.
        """
        key = (kind, n, cyclic, guard and guard.source)
        kernel = self._kernels.get(key)
        if kernel is None:
            kernel = self._kernels[key] = _compile_kernel(self.source, self.tree, kind, n, cyclic, guard)
        return kernel


def parse_expression(text: str, dim: int | None = None, allow_velocity: bool = True) -> Expression:
    """Parse expression text; optionally enforce a declared dimension.

    With ``dim`` given, any variable index above it raises ArityError. With
    ``allow_velocity=False``, any v-variable raises ArityError (used for
    coefficients that must depend on position only).
    """
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty expression")
    parser = _Parser(_tokenize(text))
    tree = parser.parse()
    return Expression(text, tree, parser.max_x, parser.max_v).checked(dim, allow_velocity)


#: the deepest traced tree compiled: the kernel writer recurses two frames a level
MAX_TRACE_DEPTH = 200


def _footprint(tree) -> tuple[int, int, int, set]:
    """(max_x, max_v, depth, read_x): the highest indices a tree reads, 1-based, its
    levels, and the 0-based indices of the positions it reads."""
    read, depths = {"x": set(), "v": set()}, {}

    def walk(node):
        if id(node) not in depths:
            if node[0] in read:
                read[node[0]].add(node[1])
            depths[id(node)] = 1 + max((walk(c) for c in node[1:] if type(c) is tuple), default=0)
        return depths[id(node)]

    depth = walk(tree)
    return max(read["x"], default=-1) + 1, max(read["v"], default=-1) + 1, depth, read["x"]


def trace_expression(fn, dim: int, source: str) -> Expression:
    """The Expression that ``fn(xs, ys)`` records on Symbol stand-ins, run once.

    A formula that does not trace raises TypeError that names the cause: it
    needs a number (a branch on a value, ``float()``, a ``math`` function),
    calls a function that does not trace (``abs``, a numpy ufunc other than
    sqrt, exp, log, sin and cos), has a constant subtree that raises, so it
    is undefined at every point, or builds a tree deeper than MAX_TRACE_DEPTH.
    Any other error fn raises passes through.
    """
    xs, ys = ([duals.Symbol((kind, i)) for i in range(dim)] for kind in "xv")
    too_deep = f"MAX_TRACE_DEPTH = {MAX_TRACE_DEPTH}"
    try:
        out = fn(xs, ys)
        tree = out.node if isinstance(out, duals.Symbol) else ("num", float(out))
        max_x, max_v, depth, _ = _footprint(tree)
        cause = None if depth <= MAX_TRACE_DEPTH else f"its {depth} levels are more than {too_deep}"
    except TypeError as exc:
        cause = str(exc)
    except (ArithmeticError, ValueError) as exc:
        cause = f"a constant subtree raises {type(exc).__name__}({exc}), so it is undefined at every point"
    except RecursionError:
        cause = f"its tree is too deep to walk, past {too_deep}"
    if cause is not None:
        raise TypeError(f"{source} does not trace: {cause}")
    return Expression(source, tree, max_x, max_v)


# -- position guards ------------------------------------------------------------


class _Positions(tuple):
    """Position symbols that index and slice, and nothing more: numpy's sums and products, ``@``
    among them, may round otherwise than a guard, and a tuple's + and * are not an array's."""

    __add__ = __mul__ = __rmul__ = __matmul__ = __rmatmul__ = __array__ = duals._untraceable(
        "a sum, product or array of positions")

    def __getitem__(self, i):
        return _Positions(tuple.__getitem__(self, i)) if isinstance(i, slice) else tuple.__getitem__(self, i)


def _guard_code(node, x: list, condition: bool = True) -> str:
    """A traced condition as code over the position operands x: comparisons joined by ``&``, of terms
    of +, -, * and negation over positions and constants; TypeError for any other tree."""
    tag = node[0]
    if not condition and tag in ("num", "x"):
        return _KernelWriter.lit(node[1] if tag == "num" else x[node[1]])
    joins = tag in ("&", "<", "<=", ">", ">=")
    if condition != joins or not joins and tag not in ("+", "-", "*", "neg"):
        raise TypeError(f"a guard is comparisons joined by &, of +, -, * and negation over the positions "
                        f"and constants, not {tag!r}")
    args = [_guard_code(c, x, tag == "&") for c in node[1:]]
    if tag == "neg":
        return f"(-{args[0]})"
    a, b = args[::-1] if tag[0] == ">" else args  # b < a is as false as a > b where one is NaN
    return f"({a} {tag.replace('>', '<')} {b})"


def trace_guard(predicate, n: int) -> Expression:
    """The condition that a position predicate, run once on n position symbols, returns.

    It is comparisons joined by ``&``, of terms of +, -, * and negation
    over the positions and constants, which raise on no float and which
    numpy rounds as floats, so it keeps the predicate's verdict everywhere,
    NaN included. Its source is its code over t0, t1, ...; called on a
    position it gives its verdict, and on the (n, k) columns of k positions
    theirs. Any other predicate raises TypeError that names the cause: it
    needs a number (a branch, ``all()``, ``float()``, ``==``), sums or
    multiplies the positions as an array (``@``, ``np.sum``), or returns
    something else (a division, a function, a constant). Any other error
    the predicate raises passes through.
    """
    try:
        out = predicate(_Positions(duals.Symbol(("x", i)) for i in range(n)))
        if not isinstance(out, duals.Symbol):
            raise TypeError(f"it returns {out!r}, not a condition on the positions")
        return Expression(_guard_code(out.node, [f"t{i}" for i in range(n)]), out.node, n, 0)
    except TypeError as exc:
        name = getattr(predicate, "__qualname__", type(predicate).__name__)
        raise TypeError(f"the position predicate {name} does not trace: {exc}") from None
