"""Lagrangian models: frozen reference values, energy, convexity, EL flow."""

import math
import re

import numpy as np
import pytest

import routhlab as rl
from routhlab.config import build_model
from routhlab.duals import cos, exp, log, sin, sqrt

# Reference values for the hyperbolic-disk Lagrangian with rotation number 1,
#   L = |v|^2 / (4 (1-|x|^2)^2) + (x2 v1 - x1 v2) / (2 (1-|x|^2)),
# computed symbolically (sympy) and frozen here.
DISK_ACCEL_ORIGIN = np.array([0.0, 8.0])  # x=(0,0), v=(1,0)
DISK_ACCEL_OFF = np.array([-149.0 / 72.0, 91.0 / 24.0])  # x=(0.3,-0.1), v=(0.5,0.25)


def test_disk_acceleration_at_origin():
    L = rl.poincare_disk_lagrangian()
    a = rl.el_acceleration(L, np.zeros(2), np.array([1.0, 0.0]))
    np.testing.assert_allclose(a, DISK_ACCEL_ORIGIN, atol=1e-12)


def test_disk_acceleration_off_origin():
    L = rl.poincare_disk_lagrangian()
    a = rl.el_acceleration(L, np.array([0.3, -0.1]), np.array([0.5, 0.25]))
    np.testing.assert_allclose(a, DISK_ACCEL_OFF, rtol=1e-12)


def test_disk_velocity_hessian_at_origin():
    L = rl.poincare_disk_lagrangian()
    j = L.eval(np.zeros(2), np.array([0.7, -0.2]))
    np.testing.assert_allclose(j.d_yy, np.eye(2) / 8.0, atol=1e-14)


def test_disk_domain_is_the_open_unit_ball():
    L = rl.poincare_disk_lagrangian()
    L.domain_check(np.array([0.99, 0.0]), np.ones(2))
    with pytest.raises(rl.DomainError):
        L.domain_check(np.array([1.0, 0.0]), np.ones(2))
    with pytest.raises(rl.DomainError):
        L.value(np.array([1.2, 0.0]), np.ones(2))


def test_analytic_jets_match_expression_route(rng):
    """The traced magnetic jets agree with the parsed-expression model."""
    analytic = rl.MagneticLagrangian(
        2,
        lambda xs: [[1.0 + xs[1] * xs[1], 0.0], [0.0, 2.0]],
        beta=lambda xs: [xs[1], -xs[0]],
        potential=lambda xs: 0.3 * xs[0] * xs[0] * xs[1],
    )
    parsed = rl.parse_lagrangian(
        "0.5*((1 + x2^2)*v1^2 + 2*v2^2) + x2*v1 - x1*v2 - 0.3*x1^2*x2"
    )
    for _ in range(50):
        x = rng.uniform(-1, 1, 2)
        y = rng.uniform(-1, 1, 2)
        a = analytic.eval(x, y)
        b = parsed.eval(x, y)
        np.testing.assert_allclose(a.value, b.value, atol=1e-13)
        np.testing.assert_allclose(a.d_x, b.d_x, atol=1e-12)
        np.testing.assert_allclose(a.d_y, b.d_y, atol=1e-12)
        np.testing.assert_allclose(a.d_yy, b.d_yy, atol=1e-12)
        np.testing.assert_allclose(a.d_xy, b.d_xy, atol=1e-12)


def test_power_quadratic_jets_match_finite_differences(rng):
    L = rl.PowerQuadraticLagrangian(3, np.diag([1.0, 2.0, 0.5]), degree=3)
    for _ in range(10):
        x = rng.uniform(-1, 1, 3)
        y = rng.uniform(0.3, 1.0, 3)
        a = L.eval(x, y)
        b = rl.fd_jet(L, x, y, h=float(np.finfo(float).eps) ** 0.25)
        np.testing.assert_allclose(a.d_yy, b.d_yy, atol=1e-6)
        np.testing.assert_allclose(a.d_y, b.d_y, atol=1e-8)


def test_energy_of_mechanical_lagrangian_is_kinetic_plus_potential():
    pot = lambda xs: 0.5 * (xs[0] ** 2 + 4.0 * xs[1] ** 2)
    L = rl.MechanicalLagrangian(2, np.eye(2), potential=pot)
    x = np.array([0.3, -0.2])
    v = np.array([1.0, 2.0])
    assert rl.energy(L, x, v) == pytest.approx(0.5 * 5.0 + pot(x), rel=1e-14)


def test_magnetic_term_does_not_change_energy(rng):
    base = rl.MechanicalLagrangian(2, np.eye(2), potential=lambda xs: xs[0] ** 2)
    mag = rl.MagneticLagrangian(
        2, np.eye(2), beta=np.array([0.4, -0.7]), potential=lambda xs: xs[0] ** 2
    )
    for _ in range(20):
        x = rng.uniform(-1, 1, 2)
        v = rng.uniform(-1, 1, 2)
        assert rl.energy(base, x, v) == pytest.approx(rl.energy(mag, x, v), abs=1e-14)


def test_strong_convexity_check_flags_degenerate_directions():
    good = rl.MechanicalLagrangian(2, np.eye(2))
    ok, lam = rl.strong_convexity_check(good, np.zeros(2), np.ones(2))
    assert ok and lam == pytest.approx(1.0)
    saddle = rl.parse_lagrangian("0.5*(v1^2 - v2^2)", dim=2)
    ok, lam = rl.strong_convexity_check(saddle, np.zeros(2), np.ones(2))
    assert not ok
    assert lam == pytest.approx(-1.0)


@pytest.mark.parametrize("failure", ["raises", "not finite"])
def test_row_loop_batch_evaluates_each_row_once(failure):
    # where evaluating the rows at once fails, the batch is the row loop: it
    # stops at the first raising row and keeps a non-finite one, once
    model = rl.parse_lagrangian("(v1^2 + 2*v2^2)^2", dim=2)
    rng = np.random.default_rng(3)
    xs, ys = rng.uniform(-1.0, 1.0, (2, 100, 2))
    calls = []

    def at_once(*args):
        raise rl.DomainError("a row fails")

    def counted(x, y, order=2):
        calls.append(len(calls))
        if len(calls) == 61:
            if failure == "raises":
                raise rl.DomainError("row 60")
            return math.nan
        return type(model).eval(model, x, y, order)

    model.eval, model._eval_rows = counted, at_once
    if failure == "raises":
        with pytest.raises(rl.DomainError, match="row 60"):
            model.eval_batch(xs, ys, 0)
        assert len(calls) == 61
    else:
        values = model.eval_batch(xs, ys, 0)
        assert len(calls) == 100
        assert np.isnan(values[60]) and np.isfinite(np.delete(values, 60)).all()


def test_el_flow_conserves_energy_and_momentum_on_central_force():
    # planar Kepler-like problem in polar coordinates: r, theta
    L = rl.parse_lagrangian(
        "0.5*(v1^2 + x1^2*v2^2) + 1/x1",
        dim=2,
        domain=lambda x: x[0] > 0.05,
    )
    x0 = np.array([1.0, 0.0])
    v0 = np.array([0.3, 1.2])
    traj = rl.integrate_el(L, x0, v0, 8.0, tol=1e-11)
    e_vals = traj.energy_log
    assert np.max(np.abs(e_vals - e_vals[0])) < 1e-9
    # conserved angular momentum mu = x1^2 * v2
    n = traj.times.size
    mus = traj.positions[:, 0] ** 2 * traj.velocities[:, 1]
    assert np.max(np.abs(mus - 1.2)) < 1e-9
    assert n == traj.positions.shape[0] == traj.velocities.shape[0]


def test_el_integration_respects_domain():
    L = rl.parse_lagrangian("0.5*v1^2 + 1/x1", dim=1, domain=lambda x: x[0] > 0.0)
    # falls into the singularity at x1 = 0 and must fail loudly
    with pytest.raises((rl.DomainError, rl.StepFailure)):
        rl.integrate_el(L, np.array([1.0]), np.array([-1.5]), 10.0)


def test_trajectory_dense_output_matches_samples():
    L = rl.MechanicalLagrangian(1, np.eye(1), potential=lambda xs: 0.5 * xs[0] ** 2)
    traj = rl.integrate_el(L, np.array([1.0]), np.array([0.0]), 6.0, samples=301)
    # x(t) = cos t, v(t) = -sin t for the unit oscillator
    np.testing.assert_allclose(traj.positions[:, 0], np.cos(traj.times), atol=1e-9)
    np.testing.assert_allclose(traj.velocities[:, 0], -np.sin(traj.times), atol=1e-9)
    mid = traj.dense.sample(np.array([np.pi / 3]))
    assert mid[0, 0] == pytest.approx(0.5, abs=1e-9)


def test_singular_velocity_hessian_is_reported():
    L = rl.parse_lagrangian("v1*v2", dim=2)  # hessian [[0,1],[1,0]] is fine
    rl.el_acceleration(L, np.zeros(2), np.ones(2))
    flat = rl.parse_lagrangian("v1^2", dim=2)  # v2 direction is flat
    with pytest.raises(rl.SingularHessian):
        rl.el_acceleration(flat, np.zeros(2), np.ones(2))


def _orders_and_batches(model, xs, ys):
    """Every order of eval on every row, then both orders of eval_batch."""
    for x, y in zip(xs, ys):
        for order in (0, 1, 2):
            model.eval(x, y, order)
    model.eval_batch(xs, ys, 0)
    model.eval_batch(xs, ys, 1)


def test_coefficient_callables_are_traced_once(rng):
    # construction traces expr once; no evaluation calls a coefficient again
    calls = []

    def counted(value):
        def fn(xs):
            calls.append(fn)
            return value(xs)
        return fn

    xs = rng.uniform(-0.5, 0.5, (20, 2))
    ys = rng.uniform(0.5, 1.0, (20, 2))
    models = [
        rl.MagneticLagrangian(
            2, counted(lambda xs: [[1.0 + xs[0] * xs[0], 0.1 * xs[1]], [0.1 * xs[1], 2.0]]),
            beta=counted(lambda xs: [xs[1], -xs[0]]),
            potential=counted(lambda xs: 0.3 * xs[0] * xs[1])),
        rl.PowerQuadraticLagrangian(
            2, counted(lambda xs: [[1.0 + xs[0] * xs[0], 0.0], [0.0, 1.5]]), degree=3),
    ]
    assert len(calls) == 4
    for model in models:
        assert model.expression is not None
        _orders_and_batches(model, xs, ys)
    assert len(calls) == 4
    # a level metric over a traced base never calls them either
    level = rl.jacobi_finsler(models[0], 2.0)
    _orders_and_batches(level, xs, ys)
    assert len(calls) == 4


def test_configured_coefficients_are_traced():
    # expression strings in a config become Expression.fn callables, which
    # trace like any other generic arithmetic
    cfg = {"lagrangian": {"family": "magnetic", "dim": 2,
                          "metric": [["1 + 0.25*x1^2", 0], [0, "exp(x2)"]],
                          "beta": ["0.5*x2", "-0.5*x1"], "potential": "sqrt(2 + x1)"}}
    L = build_model(cfg)
    assert L.expression is not None
    twin = rl.parse_lagrangian(
        "0.5*(1 + 0.25*x1^2)*v1*v1 + 0.5*exp(x2)*v2*v2 + 0.5*x2*v1 + (-0.5*x1)*v2 - sqrt(2 + x1)")
    for x, y in [([0.3, -0.2], [0.7, 1.1]), ([-1.0, 0.5], [0.2, -0.4])]:
        a, b = L.eval(x, y), twin.eval(x, y)
        for block in ("d_x", "d_y", "d_yy", "d_xy"):
            np.testing.assert_allclose(getattr(a, block), getattr(b, block), rtol=1e-14)


def _row_loop(model, xs, ys, order):
    """eval_batch's reference: each row's eval in turn, stacked."""
    rows = [model.eval(x, y, order) for x, y in zip(xs, ys)]
    if order == 0:
        return np.array(rows, float)
    k, n = np.shape(ys)
    return tuple(np.array([r[i] for r in rows], float).reshape(k, *[n] * i) for i in range(3))


def _parts(out):
    """The arrays of an eval result at any order, in a fixed order."""
    if isinstance(out, rl.SecondJet):
        return [out.value, out.d_x, out.d_y, out.d_yy, out.d_xy]
    return list(out) if isinstance(out, tuple) else [out]


def test_numpy_elementary_functions_trace_as_the_duals_functions(rng):
    # numpy's sqrt, exp, log, sin and cos record the calls duals.sqrt, ...
    # record, and a numpy scalar's operators the float's, so a callable
    # written with them has its twin's tree, and batches give the rows' bits
    metric = lambda xs: [[1.0 + np.float64(0.25) * xs[1] * xs[1], 0.0], [0.0, 1.5]]  # noqa: E731
    L = rl.MagneticLagrangian(2, metric, beta=[0.1, -0.2], potential=lambda xs: (
        0.3 * np.sin(xs[0]) * np.cos(xs[1]) + np.sqrt(2.0 + np.exp(xs[0])) - np.log(3.0 + xs[1])))
    T = rl.MagneticLagrangian(2, lambda xs: [[1.0 + 0.25 * xs[1] * xs[1], 0.0], [0.0, 1.5]],
                              beta=[0.1, -0.2], potential=lambda xs: (
        0.3 * sin(xs[0]) * cos(xs[1]) + sqrt(2.0 + exp(xs[0])) - log(3.0 + xs[1])))
    assert L.expression.tree == T.expression.tree
    xs, ys = rng.uniform(-0.9, 0.9, (40, 2)), rng.uniform(-1.0, 1.0, (40, 2))
    for order in (0, 1):
        got = L.eval_batch(xs, ys, order)
        want = _row_loop(L, xs, ys, order)
        for a, b in zip(*(o if order else (o,) for o in (got, want))):
            np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("potential, cause", [
    (lambda xs: 0.2 * xs[0] * xs[0] if xs[0] > 0.0 else 0.0, "a branch on a value"),
    (lambda xs: 0.4 * math.cos(xs[1]) * xs[0], "float() or a math function"),
    (lambda xs: 0.2 * float(xs[0]) * xs[1], "float() or a math function"),
    (lambda xs: 0.2 * abs(xs[0]) * xs[1], "abs()"),
    (lambda xs: 0.2 * np.tanh(xs[0]), "numpy's tanh does not trace"),
    (lambda xs: rl.parse_expression("x1 + log(1 - 1)")(xs, ()), "a constant subtree raises ValueError"),
], ids=["branch", "math", "float", "abs", "ufunc", "constant"])
def test_callables_that_do_not_trace_are_refused_when_built(potential, cause):
    # a model's formula becomes its tree when it is built, and one that does
    # not trace has no evaluator: TypeError names what stopped the trace
    with pytest.raises(TypeError, match="MagneticLagrangian.expr does not trace: .*" + re.escape(cause)):
        rl.MagneticLagrangian(2, np.eye(2), beta=[0.1, -0.2], potential=potential)


def test_a_subclass_that_writes_only_expr_is_traced_or_refused(rng):
    # a subclass that does not trace its expr when built, as the families
    # do, is traced at its first evaluation, single or batched, and one
    # whose expr does not trace is refused then, with the families' TypeError
    class Pendulum(rl.LagrangianModel):
        dim = 2

        def expr(self, xs, ys):
            return 0.5 * (ys[0] * ys[0] + ys[1] * ys[1]) + 0.3 * np.cos(xs[0])

    class Branching(Pendulum):
        def expr(self, xs, ys):
            return 0.5 * ys[0] * ys[0] if xs[0] > 0.0 else 0.5 * ys[1] * ys[1]

    class Built(Pendulum):
        def __init__(self):
            self._trace()

    T = Built()
    xs, ys = rng.uniform(-1.0, 1.0, (20, 2)), rng.uniform(-1.0, 1.0, (20, 2))
    for evaluate in (lambda L: L.eval_batch(xs, ys, 1), lambda L: L.eval(xs[0], ys[0])):
        L = Pendulum()
        assert L.expression is None
        got = _parts(evaluate(L))
        assert L.expression.tree == T.expression.tree
        for p, q in zip(got, _parts(evaluate(T)), strict=True):
            np.testing.assert_array_equal(p, q)
        with pytest.raises(TypeError, match="Branching.expr does not trace: .*a branch on a value"):
            evaluate(Branching())


def test_numpy_callables_have_an_order_two_jet(rng, hyper_dual):
    # numpy's object loops call the dual's sin method, so the hyper-dual
    # oracle runs the same expr; the traced model's kernels equal it entry by
    # entry, and its flow is its twin's
    L = rl.MagneticLagrangian(2, np.eye(2), potential=lambda xs: 0.3 * np.sin(xs[0]))
    T = rl.MagneticLagrangian(2, np.eye(2), potential=lambda xs: 0.3 * sin(xs[0]))
    for x, y in zip(rng.uniform(-2.0, 2.0, (50, 2)), rng.uniform(-1.0, 1.0, (50, 2))):
        for order in (0, 1, 2):
            for p, q in zip(*map(_parts, (L.eval(x, y, order), hyper_dual(L, x, y, order))), strict=True):
                np.testing.assert_array_equal(p, q, err_msg=str(order))
    x0, v0 = np.array([0.4, -0.1]), np.array([0.5, 0.3])
    traj = rl.integrate_el(L, x0, v0, 3.0, samples=101)
    twin = rl.integrate_el(T, x0, v0, 3.0, samples=101)
    for part in ("positions", "velocities", "energy_log"):
        np.testing.assert_array_equal(getattr(traj, part), getattr(twin, part))


def test_a_tree_too_deep_for_the_kernel_writer_is_refused():
    # past MAX_TRACE_DEPTH levels the recursive kernel writer could not walk
    # the tree; further down, walking it while tracing runs out of stack
    def deep(levels):
        def potential(xs):
            acc = xs[0]
            for _ in range(levels):
                acc = 0.5 * acc + xs[1]
            return acc
        return potential

    for levels, cause in ((rl.expressions.MAX_TRACE_DEPTH // 2 + 1, r"its \d+ levels are more than"),
                          (5000, "its tree is too deep to walk")):
        with pytest.raises(TypeError, match=f"{cause}.*MAX_TRACE_DEPTH = 200"):
            rl.MechanicalLagrangian(2, np.eye(2), potential=deep(levels))
    L = rl.MechanicalLagrangian(2, np.eye(2), potential=deep(rl.expressions.MAX_TRACE_DEPTH // 2 - 2))
    assert np.isfinite(L.eval([0.1, 0.2], [0.3, 0.4]).value)


@pytest.mark.parametrize("degree", [3, 4, 5])
def test_degree_k_models_keep_the_slit_diagnosis(degree):
    # the quadratic form must be positive for k != 2, at every order and in
    # every row of a batch; an indefinite metric makes it negative on some rays
    L = rl.PowerQuadraticLagrangian(2, np.diag([1.0, -0.5]), degree=degree)
    assert L.expression is not None
    message = "velocity outside the slit domain (quadratic form not positive)"
    x = np.array([0.2, -0.1])
    for y in ([0.0, 0.0], [0.5, 1.0], [1.0, np.sqrt(2.0)]):  # q = 0, q < 0, q a rounding below 0
        for order in (0, 1, 2):
            with pytest.raises(rl.DomainError, match=re.escape(message)):
                L.eval(x, y, order)
    xs = np.tile(x, (4, 1))
    ys = np.array([[1.0, 0.0], [0.3, 0.1], [0.5, 1.0], [1.0, 0.0]])
    for order in (0, 1):
        with pytest.raises(rl.DomainError, match=re.escape(message)):
            L.eval_batch(xs, ys, order)
        L.eval_batch(xs[:2], ys[:2], order)
    # k = 2 is the quadratic form itself, defined on every velocity
    quadratic = rl.PowerQuadraticLagrangian(2, np.diag([1.0, -0.5]), degree=2)
    assert quadratic.value(x, [0.5, 1.0]) < 0.0
