"""Expression language: grammar, precedence, and error positions."""

import ast
import gc
import inspect
import itertools
import linecache
import math
import re
import traceback

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperdual import HyperDual, seed_second
from routhlab import (
    ArityError,
    CyclicSplit,
    DomainError,
    Expression,
    MagneticLagrangian,
    MechanicalLagrangian,
    ParseError,
    ReducedLagrangian,
    RouthlabError,
    SecondJet,
    SingularHessian,
    StencilDomainError,
    el_acceleration,
    fd_jet,
    gauge_shift,
    momentum,
    parse_expression,
    parse_lagrangian,
    poincare_disk_lagrangian,
    randers_closed_form,
)
from routhlab.duals import power
from routhlab.expressions import _COLUMN_GLOBALS, _KERNEL_GLOBALS


def ev(text, xs=(), ys=()):
    return parse_expression(text)(xs, ys)


def test_numbers_and_scientific_notation():
    assert ev("2") == 2.0
    assert ev("2.5e-3") == 2.5e-3
    assert ev(".5") == 0.5
    assert ev("1e2") == 100.0


def test_precedence_and_associativity():
    assert ev("2+3*4") == 14.0
    assert ev("2*3+4") == 10.0
    assert ev("2-3-4") == -5.0  # left associative subtraction
    assert ev("12/3/2") == 2.0
    assert ev("2^3^2") == 512.0  # right associative power
    assert ev("-2^2") == -4.0  # unary binds looser than power
    assert ev("(2+3)*4") == 20.0
    assert ev("2^-1") == 0.5


def test_variables_and_functions():
    xs = np.array([0.3, -0.7])
    ys = np.array([1.5, 2.0])
    assert ev("x1 + 2*x2", xs, ys) == pytest.approx(0.3 - 1.4)
    assert ev("v1*v2", xs, ys) == pytest.approx(3.0)
    assert ev("sin(x1)^2 + cos(x1)^2", xs, ys) == pytest.approx(1.0)
    assert ev("sqrt(v1^2)", xs, ys) == pytest.approx(1.5)
    assert ev("log(exp(x1))", xs, ys) == pytest.approx(0.3)


def test_variable_footprint_is_recorded():
    e = parse_expression("x3 + v2")
    assert e.max_x == 3
    assert e.max_v == 2
    assert parse_expression("4.2").max_x == 0


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse_expression("1 + $")
    assert info.value.column == 5
    assert info.value.line == 1
    with pytest.raises(ParseError) as info:
        parse_expression("1 +\n  * 2")
    assert info.value.line == 2


def test_parse_error_cases():
    for bad in ["", "   ", "1 +", "(1", "sin 2", "sin(1", "2 3", "x0", "foo(1)"]:
        with pytest.raises(ParseError):
            parse_expression(bad)


def test_arity_enforcement():
    with pytest.raises(ArityError):
        parse_expression("x3", dim=2)
    with pytest.raises(ArityError):
        parse_expression("v1 + x1", allow_velocity=False)
    # within bounds parses fine
    parse_expression("x2 + v2", dim=2)
    parse_expression("x2", dim=2, allow_velocity=False)


def test_arity_error_is_a_parse_error():
    assert issubclass(ArityError, ParseError)


@given(
    a=st.floats(min_value=-5, max_value=5, allow_nan=False),
    b=st.floats(min_value=0.1, max_value=5, allow_nan=False),
)
def test_random_arithmetic_matches_python(a, b):
    xs = np.array([a, b])
    got = ev("x1*x2 - x1/x2 + x2^2", xs)
    want = a * b - a / b + b * b
    assert math.isclose(got, want, rel_tol=1e-14, abs_tol=1e-14)


def test_expression_works_on_dual_inputs():
    e = parse_expression("x1^2 * v1 + sin(x1)")
    x1, v1 = seed_second([0.5, 2.0])
    out = e([x1], [v1])
    assert math.isclose(out.v, 0.25 * 2.0 + math.sin(0.5))
    # d/dx1 = 2*x1*v1 + cos(x1), d/dv1 = x1^2
    assert math.isclose(out.g[0], 2.0 + math.cos(0.5))
    assert math.isclose(out.g[1], 0.25)
    # d2/dx1dv1 = 2*x1
    assert math.isclose(out.h[0, 1], 1.0)


def test_power_follows_one_rule_for_floats_and_duals():
    # exponent 2 is a product on every path, so float and dual values agree;
    # pow(x, 2.0) rounds this x one ulp away from x * x
    x = 0.7559376686872161
    (x1,) = seed_second([x])
    assert ev("x1^2", [x]) == x * x == ev("x1^2", [x1]).v
    assert ev("(-2)^3") == -8.0  # integer exponents allow a negative base
    with pytest.raises(ValueError):
        ev("(-2)^0.5")
    with pytest.raises(ValueError):
        ev("x1^v1", [-2.0], [3.0])  # a variable exponent needs a positive base


@pytest.mark.parametrize("source, x", [("(x1-2)^0.5 + v1^2", 1.0), ("(-2)^0.5 + v1^2", 1.0)])
def test_negative_base_fractional_power_is_a_domain_error(source, x):
    L = parse_lagrangian(source, dim=1)
    for path in (L.value, L.fiber_jet, L.eval):
        with pytest.raises(DomainError):
            path([x], [0.5])
    with pytest.raises(StencilDomainError):
        fd_jet(L, [x], [0.5])


# -- compiled jet kernels ----------------------------------------------------

_LEAVES = st.sampled_from(["x1", "x2", "v1", "v2", "0", "0.5", "2", "3"])
_EXPONENTS = st.sampled_from(["0", "1", "2", "3", "-1", "-2", "0.5", "1.5", "(1/3)"])


def _extend(inner):
    return st.one_of(
        st.builds("(-{})".format, inner),
        st.builds("({} {} {})".format, inner, st.sampled_from("+-*/"), inner),
        st.builds("{}({})".format, st.sampled_from(["sqrt", "sin", "cos", "exp", "log"]), inner),
        st.builds("({})^{}".format, inner, _EXPONENTS),
        # a variable exponent when the inner tree reads one, else a constant
        st.builds("({})^({})".format, inner, inner),
    )


_SOURCES = st.recursive(_LEAVES, _extend, max_leaves=8)


def _outcome(f):
    """f()'s result, or the type of the DomainError, SingularHessian or OverflowError it raised."""
    try:
        with np.errstate(all="ignore"):
            return f(), None
    except (DomainError, SingularHessian, OverflowError) as exc:
        return None, type(exc)


def _velocity_seeded(model, x, y):
    # the fiber kernel's own oracle: float positions, hyper-dual velocities
    try:
        out = model.expr(x.tolist(), seed_second(y))
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(str(exc)) from exc
    if hasattr(out, "h"):
        return out.v, out.g, out.h
    return float(out), np.zeros(2), np.zeros((2, 2))


def _finite(*parts):
    return all(np.all(np.isfinite(p)) for p in parts)


def _points():
    rng = np.random.default_rng(3)
    pts = [(rng.uniform(-1.5, 1.5, 2), rng.uniform(-1.5, 1.5, 2)) for _ in range(12)]
    # exact zeros and ones meet the domain edges of sqrt, log and powers
    pts += [(np.array([0.0, 0.5]), np.array([0.0, -0.5])), (np.ones(2), np.ones(2))]
    return pts


@settings(max_examples=300)
@given(source=_SOURCES)
def test_kernels_equal_the_hyper_dual_oracle(hyper_dual, numpy_el, source):
    model = parse_lagrangian(source, dim=2)
    for x, y in _points():
        oracle, oracle_err = _outcome(lambda: hyper_dual(model, x, y))
        full, full_err = _outcome(lambda: model.eval(x, y))
        assert full_err is oracle_err, source
        # the "el" kernel raises DomainError where the jet raises it and, on
        # a finite jet, raises as the numpy solve does or agrees with it
        # within 1e-14 of its largest entry: it sums L_xv^T v from the left
        accel, accel_err = _outcome(lambda: el_acceleration(model, x, y))
        want, want_err = _outcome(lambda: numpy_el(model, x, y))
        assert (accel_err is DomainError) == (want_err is DomainError) == (full_err is DomainError), source
        if full is not None and _finite(*_jet_blocks(full)):
            assert accel_err is want_err, source
            if want is not None and _finite(want):
                assert np.max(np.abs(accel - want)) <= 1e-14 * np.max(np.abs(want)), (source, x, y)
        fiber, fiber_err = _outcome(lambda: model.fiber_jet(x, y))
        seeded, seeded_err = _outcome(lambda: _velocity_seeded(model, x, y))
        assert fiber_err is seeded_err, source
        if fiber_err is not None:
            # float positions only relax the dual domain rules
            assert oracle_err is not None, source
        if seeded is not None and _finite(*seeded):
            assert fiber[0] == seeded[0], source
            np.testing.assert_array_equal(fiber[1], seeded[1], err_msg=source)
            np.testing.assert_array_equal(fiber[2], seeded[2], err_msg=source)
        if oracle is None or not _finite(
            oracle.value, oracle.d_x, oracle.d_y, oracle.d_yy, oracle.d_xy
        ):
            continue
        assert full.value == oracle.value, source
        for block in ("d_x", "d_y", "d_yy", "d_xy"):
            np.testing.assert_array_equal(
                getattr(full, block), getattr(oracle, block), err_msg=source
            )
        assert fiber[0] == oracle.value, source
        np.testing.assert_array_equal(fiber[1], oracle.d_y, err_msg=source)
        np.testing.assert_array_equal(fiber[2], oracle.d_yy, err_msg=source)


def _jet_blocks(out):
    if out is None or isinstance(out, float):
        return [out]
    return [out.value, out.d_x, out.d_y, out.d_yy, out.d_xy] if hasattr(out, "d_x") else list(out)


@settings(max_examples=200)
@given(sources=st.tuples(_SOURCES, _SOURCES, _SOURCES))
def test_traced_coefficients_equal_the_hyper_dual_oracle(hyper_dual, sources):
    # random trees as the metric, one-form and potential callables of a
    # magnetic model, config-style; the traced tree reuses each one's nodes
    g, b, p = (parse_expression(s.replace("v", "x"), dim=2, allow_velocity=False) for s in sources)
    try:
        model = MagneticLagrangian(
            2,
            lambda xs: [[g(xs, ()), b(xs, ())], [b(xs, ()), 1.5]],
            beta=lambda xs: [b(xs, ()), g(xs, ())],
            potential=lambda xs: p(xs, ()),
        )
    except TypeError as exc:
        # tracing runs a constant subtree on floats, and one that raises
        # there, such as the log(0) of 0^x1, raises at every point, so the
        # model is refused when built
        assert "a constant subtree raises" in str(exc), sources
        for x, _ in _points():
            with pytest.raises((ArithmeticError, ValueError)):
                [f(x.tolist(), ()) for f in (g, b, p)]
        return
    for x, y in _points():
        for order in (0, 1, 2):
            oracle, oracle_err = _outcome(lambda: hyper_dual(model, x, y, order))
            got, got_err = _outcome(lambda: model.eval(x, y, order))
            assert got_err is oracle_err, (sources, order)
            if oracle is not None and _finite(*_jet_blocks(oracle)):
                for a, c in zip(_jet_blocks(got), _jet_blocks(oracle), strict=True):
                    np.testing.assert_array_equal(a, c, err_msg=str(sources))
    xs, ys = (np.array(c) for c in zip(*_points()))
    for order in (0, 1):
        assert _row_outcome(lambda: model.eval_batch(xs, ys, order)) == \
            _row_outcome(lambda: _row_loop(model, xs, ys, order)), (sources, order)


_KERNEL_NODES = (
    ast.Module, ast.FunctionDef, ast.arguments, ast.arg, ast.Assign, ast.Return,
    ast.If, ast.Expr, ast.Call, ast.Compare, ast.BinOp, ast.UnaryOp, ast.List,
    ast.Tuple, ast.Name, ast.Constant, ast.Load, ast.Store, ast.Add, ast.Sub,
    ast.Mult, ast.Div, ast.Pow, ast.USub, ast.Not, ast.LtE, ast.Lt, ast.BitAnd,
)


#: the kinds whose kernels return None where their path does not apply
_DECLINING = {"reduced-el", "level-value", "level-fiber", "level-full", "spray", "level-spray"}

#: the Lagrangian the gauge-shift tests shift
_GAUGE_BASE = "0.5*(v1^2 + 2*v2^2) + 0.3*x1*v2 - x2^2"


def _shift(form):
    """The gauge shift of _GAUGE_BASE by form, or None where a constant subtree of the form
    raises, so that it is undefined at every point, and the shift is refused."""
    try:
        return gauge_shift(parse_lagrangian(_GAUGE_BASE, dim=2), form)
    except TypeError as exc:
        assert "a constant subtree raises" in str(exc), exc
        return None


@settings(max_examples=100)
@given(source=_SOURCES)
def test_kernel_code_reads_only_whitelisted_names(source):
    # the tree of a DSL model, and the traced tree of a shift by the same
    # source as a form, unless the form raises everywhere and so is
    # refused; each tree's reduced kernels by either coordinate too
    shifted = _shift(source.replace("v", "x"))
    expressions = [parse_expression(source, dim=2)] + ([] if shifted is None else [shifted.expression])
    for (kind, cyclic, names), expression in itertools.product(
            (("fiber", None, _KERNEL_GLOBALS), ("full", None, _KERNEL_GLOBALS),
             ("columns", None, _COLUMN_GLOBALS), ("level-value", None, _KERNEL_GLOBALS),
             ("level-fiber", None, _KERNEL_GLOBALS), ("level-full", None, _KERNEL_GLOBALS),
             ("spray", None, _KERNEL_GLOBALS), ("level-spray", None, _KERNEL_GLOBALS),
             ("el", None, _KERNEL_GLOBALS), ("reduced-el", 0, _KERNEL_GLOBALS),
             ("reduced-el", 1, _KERNEL_GLOBALS)), expressions):
        _assert_whitelisted(expression.jet_kernel(kind, 2, cyclic), kind, names)


def _assert_whitelisted(kernel, kind, names):
    tree = ast.parse(inspect.getsource(kernel))
    # the one string a kernel holds is a guard's message, from the tree,
    # and the reduced and scaled kernels return None where their path does not apply
    messages = {id(n.args[0]) for n in ast.walk(tree)
                if isinstance(n, ast.Call) and getattr(n.func, "id", "") == "_not_positive"}
    declines = {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Return)
                and kind in _DECLINING and isinstance(n.value, ast.Constant) and n.value.value is None}
    for node in ast.walk(tree):
        assert isinstance(node, _KERNEL_NODES), ast.dump(node)
        if isinstance(node, ast.Name):
            assert node.id in names or re.fullmatch(r"t\d+", node.id), node.id
        if isinstance(node, ast.Constant) and id(node) not in messages | declines:
            # the column kernel's only integers are the shapes it stacks to
            assert type(node.value) is float and math.isfinite(node.value) or \
                kind == "columns" and node.value == 2, node.value
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            # numpy's power rounds differently from the float power
            assert kind != "columns", ast.unparse(node)
            # v ** 1.0 and v ** 0.0 are folded to v and 1.0 while writing
            assert not (isinstance(node.right, ast.Constant) and node.right.value in (0.0, 1.0))


@pytest.mark.parametrize("predicate", [
    lambda x: x[0] > 0.1, lambda x: x[1] <= -2.0, lambda x: (x[0] > 0) & (x[0] * x[1] - 1 < x[1]),
    lambda x: -x[1] >= float("-inf")], ids=["greater", "at most", "conjunction", "infinite bound"])
def test_guarded_flow_kernels_read_only_whitelisted_names(predicate):
    # a traced position predicate is the first test of the flow and level
    # kernels: comparisons of +, -, * and negation, and the call that raises outside
    for model in (parse_lagrangian(ROUND_TRIP_SOURCES[0], dim=2), poincare_disk_lagrangian()):
        model._domain = predicate
        for kind, cyclic in (("el", None), ("reduced-el", 0), ("reduced-el", 1), ("level-value", None),
                             ("level-fiber", None), ("level-full", None), ("spray", None),
                             ("level-spray", None)):
            kernel = model.expression.jet_kernel(kind, 2, cyclic, model._domain)
            assert "_outside(" in kernel.text.splitlines()[2]
            _assert_whitelisted(kernel, kind, _KERNEL_GLOBALS)


def _row_loop(model, xs, ys, order):
    """eval_batch's reference: each row's eval in turn, stacked."""
    rows = [model.eval(x, y, order) for x, y in zip(xs, ys)]
    if order == 0:
        return np.array(rows, float)
    k, n = np.shape(ys)
    return tuple(np.array([r[i] for r in rows], float).reshape(k, *[n] * i) for i in range(3))


def _row_outcome(f):
    """dtype, shape and bytes of every returned array, or the error's type and message."""
    try:
        out = f()
    except (DomainError, ArithmeticError) as exc:
        return type(exc), str(exc)
    parts = out if isinstance(out, tuple) else (out,)
    return [(p.dtype.str, p.shape, p.tobytes()) for p in parts]


@settings(max_examples=300)
@given(source=_SOURCES)
def test_column_kernel_batches_equal_the_row_loop(source):
    # eval_batch runs the column kernel once over all rows; a batch with a
    # failing row raises what the first failing row raises
    model = parse_lagrangian(source, dim=2)
    xs, ys = (np.array(c) for c in zip(*_points()))
    for rows in (slice(None), slice(None, None, -1), slice(0, 1), slice(0, 0)):
        for order in (0, 1):
            assert _row_outcome(lambda: model.eval_batch(xs[rows], ys[rows], order)) == \
                _row_outcome(lambda: _row_loop(model, xs[rows], ys[rows], order)), \
                (source, rows, order)


@pytest.mark.parametrize("source", ["0.5*(v1^2 + x1^2*v2^2) + 1/x1", "(x1 - v2)^2 * sin(v1)^2"])
def test_kernels_square_without_pow(source):
    expression = parse_expression(source, dim=2)
    for kind in ("fiber", "full"):
        tree = ast.parse(inspect.getsource(expression.jet_kernel(kind, 2)))
        powers = [n for n in ast.walk(tree) if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow)]
        assert not powers, ast.unparse(powers[0])


def test_kernels_write_each_right_hand_side_once():
    # the disk's metric and one-form callables each build 1 - (x1^2 + x2^2):
    # equal values built twice are computed once
    expression = poincare_disk_lagrangian().expression
    for kind in ("fiber", "full", "columns"):
        tree = ast.parse(inspect.getsource(expression.jet_kernel(kind, 2)))
        sides = [ast.unparse(n.value) for n in ast.walk(tree) if isinstance(n, ast.Assign)]
        assert len(sides) > 20 and len(set(sides)) == len(sides), kind


def _oscillator():
    """The unit-mass isotropic oscillator, a quadratic Lagrangian."""
    return MechanicalLagrangian(2, np.eye(2), potential=lambda xs: 0.5 * (xs[0] * xs[0] + xs[1] * xs[1]))


def _oscillator_closed_form():
    """The Randers closed form of the unit-mass oscillator, whose metric has literal zeros."""
    return randers_closed_form(_oscillator(), 2.0)


@pytest.mark.parametrize("kind, cyclic", [("el", None), ("reduced-el", 1), ("level-value", None),
                                          ("level-fiber", None), ("level-full", None), ("spray", None),
                                          ("level-spray", None), ("fiber", None), ("full", None),
                                          ("columns", None)])
def test_kernels_assign_nothing_unread_that_cannot_raise(kind, cyclic):
    # an assignment of +, -, * or negation that nothing reads is dropped; one
    # that can raise (a division, a power, a call) stays, and no guard's test
    # repeats: the closed form's positivity guard covers the sqrt beneath it
    for model in (parse_lagrangian(ROUND_TRIP_SOURCES[0], dim=2), poincare_disk_lagrangian(),
                  _oscillator_closed_form()):
        tree = ast.parse(inspect.getsource(model.expression.jet_kernel(kind, 2, cyclic)))
        body = tree.body[0].body
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in body:
            if isinstance(node, ast.Assign) and node.targets[0].id not in read:
                assert any(isinstance(n, ast.Call) or isinstance(n, ast.BinOp) and
                           isinstance(n.op, (ast.Div, ast.Pow)) for n in ast.walk(node.value)), \
                    ast.unparse(node)
        tests = [ast.unparse(node.test) for node in body if isinstance(node, ast.If)]
        assert len(set(tests)) == len(tests), kind


@pytest.mark.parametrize("kind", ["fiber", "full", "columns"])
def test_closed_form_kernels_multiply_by_no_literal_zero(kind):
    # the oscillator's identity metric keeps its off-diagonal zeros as 0.0,
    # which the quadratic form skips, and its diagonal ones as 1.0, which a
    # product drops
    text = inspect.getsource(_oscillator_closed_form().expression.jet_kernel(kind, 2))
    assert "* 0.0" not in text and "* 1.0" not in text and "1.0 *" not in text


@pytest.mark.parametrize("kind", ["level-value", "level-fiber", "level-full", "spray", "level-spray"])
def test_level_kernels_of_a_quadratic_base_refit_k_only_for_a_third_probe(kind):
    # the second probe converges on a quadratic base, and only a third model
    # step reads the refit of k, so its logs are written in the one branch
    # that takes the third probe, and nowhere else
    for model in (_oscillator(), poincare_disk_lagrangian()):
        body = ast.parse(model.expression.jet_kernel(kind, 2).text).body[0].body

        def logs(node):
            return [n for n in ast.walk(node) if isinstance(n, ast.Call) and getattr(n.func, "id", "") == "_log"]

        branches = [stmt for stmt in body if isinstance(stmt, ast.If) and logs(stmt)]
        assert len(branches) == 1 and len(logs(branches[0])) == 2, kind
        assert not [stmt for stmt in body if stmt not in branches and logs(stmt)], kind


def test_kernel_tracebacks_name_the_generated_file():
    model = parse_lagrangian("x1 + sqrt(v1)", dim=1)
    with pytest.raises(DomainError) as info:
        model.fiber_jet([0.5], [-1.0])
    text = "".join(traceback.format_exception(info.value))
    assert 'File "<routhlab-kernel fiber n=1: x1 + sqrt(v1)>"' in text
    assert "_sqrt_domain()" in text  # the generated line itself
    with pytest.raises(DomainError) as info:
        model.eval([0.5], [-1.0])
    assert "<routhlab-kernel full n=1: x1 + sqrt(v1)>" in "".join(
        traceback.format_exception(info.value)
    )


def test_each_traced_model_shows_its_own_kernel_text():
    # traced models of one family share a source name, so a second text under
    # that name is told apart, and each kernel's source is its own
    one = MechanicalLagrangian(2, np.eye(2), potential=lambda xs: 0.5 * xs[0] * xs[0])
    two = MechanicalLagrangian(2, np.eye(2), potential=lambda xs: 3.0 * xs[1] ** 3)
    kernels = [L.expression.jet_kernel("el", 2) for L in (one, two)]
    first, second = map(inspect.getsource, kernels)
    assert "3.0" in second and "3.0" not in first
    assert kernels[0].__code__.co_filename.startswith("<routhlab-kernel el n=2: MagneticLagrangian.expr")


def _kernel_files():
    return sum(name.startswith("<routhlab-kernel") for name in linecache.cache)


def test_kernel_sources_leave_the_line_cache_with_their_kernels():
    gc.collect()
    before = _kernel_files()
    models = [parse_lagrangian(f"0.5*v1^2 - {k + 1}*x1^2*x2 + v2^2", dim=2) for k in range(300)]
    for model in models:
        model.fiber_jet([0.3, 0.2], [0.5, -0.1])
        el_acceleration(model, [0.3, 0.2], [0.5, -0.1])
    assert _kernel_files() >= before + 600
    del models, model
    gc.collect()
    assert _kernel_files() == before


def test_kernels_refuse_indices_beyond_the_model_dimension():
    # a kernel reads its inputs by position, so an index past n must not
    # silently read another argument
    from routhlab import ExpressionLagrangian

    model = ExpressionLagrangian(parse_expression("x2 + v1^2"), dim=1)
    for path in (model.fiber_jet, model.eval):
        with pytest.raises(ArityError):
            path([0.5], [0.3])


# -- the Euler-Lagrange kernels --------------------------------------------------

#: the round-trip benchmark's models: Kepler and the polar oscillator
ROUND_TRIP_SOURCES = ["0.5*(v1^2 + x1^2*v2^2) + 1/x1", "0.5*(v1^2 + x1^2*v2^2) - 0.5*x1^2"]


@pytest.mark.parametrize("source", ROUND_TRIP_SOURCES)
def test_el_kernels_of_the_round_trip_models_equal_the_numpy_path(numpy_el, source):
    model = parse_lagrangian(source, dim=2, domain=lambda x: x[0] > 0.1)
    split = CyclicSplit.of(2, [1])
    rng = np.random.default_rng(6)
    for _ in range(1000):
        x, v = np.array([rng.uniform(0.5, 1.5), rng.uniform(-3.0, 3.0)]), rng.uniform(-1.5, 1.5, 2)
        assert el_acceleration(model, x, v).tobytes() == numpy_el(model, x, v).tobytes()
        guess = None if rng.random() < 0.5 else rng.uniform(0.5, 1.5, 1)
        red = ReducedLagrangian(model, split, momentum(model, split, x, v), guess=guess)
        kernel, args = red._el_flow()
        assert kernel(*x[:1], *v[:1], *args) is not None
        assert el_acceleration(red, x[:1], v[:1]).tobytes() == numpy_el(red, x[:1], v[:1]).tobytes()


def _exact_outcome(f):
    """The bytes of f()'s result, or the type and message of what it raised."""
    try:
        with np.errstate(all="ignore"):
            return f().tobytes()
    except (RouthlabError, ArithmeticError) as exc:
        return type(exc), str(exc)


@settings(max_examples=150)
@given(source=_SOURCES)
@example(source="0.5*v1^2 - x1^2*sqrt(1 - v2^2)")
def test_reduced_el_kernel_equals_the_schur_assembly(numpy_el, source):
    # the reduced kernel gives the bits of ReducedLagrangian.eval and the
    # numpy solve; where its two probes do not apply, that path runs and
    # raises its own errors, backtracks and Newton failures included. A
    # random tree seldom has a momentum one Newton step solves; the tree as
    # a potential under a coupled kinetic term always has one
    split = CyclicSplit.of(2, [1])
    for text in (source, f"0.5*(v1^2 + (1 + x1^2)*v2^2) + 0.3*x1*v1*v2 - ({source.replace('v', 'x')})"):
        model = parse_lagrangian(text, dim=2)
        for x, y in _points():
            try:
                p = float(momentum(model, split, [x[0], 0.0], y).item())
            except RouthlabError:
                p = 0.5
            for mu, guess in ((0.5, None), (p, [y[1] + 0.125])):
                red = ReducedLagrangian(model, split, np.array([mu]), guess=guess)
                assert _exact_outcome(lambda: el_acceleration(red, x[:1], y[:1])) == \
                    _exact_outcome(lambda: numpy_el(red, x[:1], y[:1])), (text, x, y, mu)


def test_reduced_el_kernel_of_a_lagrangian_free_in_the_shape_position_keeps_numpy_zeros(numpy_el):
    # L_x is a structural zero and L_xv^T v a product that is 0.0 or -0.0:
    # numpy's 0.0 - (+-0.0) is +0.0, where negating the product would give -0.0
    model = parse_lagrangian("v1^2 + v1*v2^2 + 2*v2^2", dim=2)
    split = CyclicSplit.of(2, [1])
    rng = np.random.default_rng(4)
    for _ in range(200):
        x, v = np.array([rng.uniform(-1.0, 1.0), 0.0]), rng.uniform(-1.5, 1.5, 2)
        red = ReducedLagrangian(model, split, momentum(model, split, x, v), guess=[v[1] + 0.125])
        kernel, args = red._el_flow()
        assert kernel(*x[:1], *v[:1], *args) is not None
        assert el_acceleration(red, x[:1], v[:1]).tobytes() == numpy_el(red, x[:1], v[:1]).tobytes()


def _form_jet_assembly(base, form, x, y, order):
    """The jet of gauge_shift(base, form) as the base's jet plus the gradient
    and Hessian of the form run on hyper-dual seeds: the oracle of its tree."""
    j = base.eval(x, y, order)
    try:
        z = form(seed_second(x), ())
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(str(exc)) from exc
    grad, hess = (z.g, z.h) if isinstance(z, HyperDual) else (np.zeros(2), np.zeros((2, 2)))
    shift = float(grad @ y)
    if order == 0:
        return j + shift
    if order == 1:
        return j[0] + shift, j[1] + grad, j[2]
    return SecondJet(j.value + shift, j.d_x + hess @ y, j.d_y + grad, j.d_yy, j.d_xy + hess)


def _term_sizes(tree, x):
    """(value, G, H) of a position tree at x, where G and H bound the size of
    every term its hyper-dual gradient and Hessian sum: the scale of their
    rounding where those terms cancel."""
    n = len(x)

    def chain(a, f0, f1, f2):
        return f0, abs(f1) * a[1], abs(f1) * a[2] + abs(f2) * np.outer(a[1], a[1])

    def walk(node):
        tag = node[0]
        if tag == "num":
            return node[1], np.zeros(n), np.zeros((n, n))
        if tag == "x":
            return x[node[1]], np.eye(n)[node[1]], np.zeros((n, n))
        if tag == "^v":
            return walk(("call", "exp", ("*", node[2], ("call", "log", node[1]))))
        if tag == "neg":
            v, g, h = walk(node[1])
            return -v, g, h
        if tag == "call":
            a = walk(node[2])
            v = a[0]
            f0 = getattr(math, node[1])(v)
            if not a[1].any():  # a constant, with no derivative terms
                return f0, a[1], a[2]
            if node[1] == "sqrt":
                f1, f2 = 0.5 / f0, 0.25 / (f0 * v)
            elif node[1] == "log":
                f1, f2 = 1.0 / v, 1.0 / (v * v)
            else:  # exp, sin and cos: f2 is f0 up to sign
                f1, f2 = {"exp": f0, "sin": math.cos(v), "cos": math.sin(v)}[node[1]], f0
            return chain(a, f0, f1, f2)
        a, b = walk(node[1]), walk(node[2])
        (av, ag, ah), (bv, bg, bh) = a, b
        if tag == "^":
            if not ag.any() or bv in (0.0, 1.0):
                return power(av, bv), bv * ag, bv * ah
            return chain(a, power(av, bv), bv * av ** (bv - 1.0), bv * (bv - 1.0) * av ** (bv - 2.0))
        if tag in "+-":
            return av + bv if tag == "+" else av - bv, ag + bg, ah + bh
        if tag == "*":
            return (av * bv, ag * abs(bv) + bg * abs(av),
                    ah * abs(bv) + bh * abs(av) + np.outer(ag, bg) + np.outer(bg, ag))
        v = av / bv
        g = (ag + abs(v) * bg) / abs(bv)
        return v, g, (ah + abs(v) * bh + np.outer(g, bg) + np.outer(bg, g)) / abs(bv)

    return walk(tree)


def _third_derivative_undefined(tree, x):
    """Whether a fractional power between 2 and 3 of a subtree that reads a
    position meets base 0 at x: the full jet of df/dt takes the power's third
    derivative, which is undefined there, while f's own jet stops at the second."""
    def value(node):
        return Expression("", node, 2, 0)(list(x))

    if tree[0] == "^" and "'x'" in repr(tree[1]) and value(tree[1]) == 0.0:
        p = value(tree[2])
        if 2.0 < p < 3.0 and p != int(p):
            return True
    return any(_third_derivative_undefined(c, x) for c in tree[1:] if type(c) is tuple)


@settings(max_examples=300)
@given(source=_SOURCES)
@example(source="(x1)^(0.5 + 2)")
@example(source="(cos(x1))^(cos(2))")
def test_gauge_shifts_equal_the_form_jet_assembly(source):
    # the shift's tree adds df/dt, written by the time-derivative walker: it
    # raises exactly where the assembly raises, except that its full jet also
    # raises where f's third derivative is undefined, and each block is
    # within 4e-15 of the largest term the block sums (its largest entry,
    # unless terms cancel); the last example, cos(x1)^p at a small base,
    # reaches 1.1e-15, as p - 1 and the power each round a^(p-1) by an ulp
    base = parse_lagrangian(_GAUGE_BASE, dim=2)
    form = parse_expression(source.replace("v", "x"), dim=2, allow_velocity=False)
    shifted = _shift(form)
    if shifted is None:
        # tracing runs a constant subtree on floats, and one that raises
        # there raises at every point, where the assembly raises too
        assert all(_outcome(lambda: _form_jet_assembly(base, form, x, y, 0))[1] for x, y in _points())
        return
    for x, y in _points():
        for order in (0, 1, 2):
            want, want_err = _outcome(lambda: _form_jet_assembly(base, form, x, y, order))
            got, got_err = _outcome(lambda: shifted.eval(x, y, order))
            if order == 2 and got_err is DomainError and want_err is None:
                assert _third_derivative_undefined(form.tree, x), (source, x)
                continue
            assert got_err is want_err, (source, x, order)
            if want is None or not _finite(*_jet_blocks(want)):
                continue
            with np.errstate(all="ignore"):
                _, g, h = _term_sizes(form.tree, x)
            own = _jet_blocks(base.eval(x, y, order))
            value = abs(own[0]) + g @ np.abs(y)
            sizes = [value] if order == 0 else \
                [value, np.abs(own[1]) + g, np.abs(own[2])] if order == 1 else \
                [value, np.abs(own[1]) + h @ np.abs(y), np.abs(own[2]) + g, np.abs(own[3]), np.abs(own[4]) + h]
            for a, b, size in zip(_jet_blocks(got), _jet_blocks(want), sizes, strict=True):
                err = np.max(np.abs(np.subtract(a, b)))
                assert err <= 4e-15 * np.max(size), (source, x, order, err)
