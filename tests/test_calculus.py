"""Jet evaluation versus finite differences, plus homogeneity identities."""

import importlib
import pkgutil

import numpy as np
import pytest

import routhlab as rl
from routhlab import FD_STEP, StencilDomainError, fd_jet, jet
from routhlab.duals import positive, sin
from routhlab.expressions import trace_expression

SHARP_H = float(np.finfo(float).eps) ** 0.25


def _models(rng):
    conformal = rl.MagneticLagrangian(
        2,
        lambda xs: [
            [1.0 + 0.3 * (xs[0] * xs[0] + xs[1] * xs[1]), 0.1 * xs[0]],
            [0.1 * xs[0], 1.2],
        ],
        beta=lambda xs: [0.2 * xs[1], -0.1 * xs[0]],
        potential=lambda xs: 0.4 * xs[0] * xs[0] + 0.1 * xs[1],
    )
    quartic = rl.PowerQuadraticLagrangian(2, np.diag([1.0, 1.5]), degree=4)
    disk = rl.poincare_disk_lagrangian()
    parsed = rl.parse_lagrangian(
        "0.5*(v1^2 + v2^2)*(1 + 0.2*sin(x1)) - 0.3*x2^2 + 0.1*v1*v2"
    )
    return [conformal, quartic, disk, parsed]


def _sample_state(model, rng):
    for _ in range(100):
        x = rng.uniform(-0.5, 0.5, model.dim)
        y = rng.uniform(-1.0, 1.0, model.dim)
        if np.dot(y, y) < 0.05:
            continue
        try:
            model.domain_check(x, y)
        except rl.DomainError:
            continue
        return x, y
    raise AssertionError("could not sample an in-domain state")


def test_jet_matches_finite_differences(rng):
    # cross-check the forward-mode jet against a central-difference stencil
    # at a step tuned for second derivatives
    worst = 0.0
    for model in _models(rng):
        for _ in range(25):
            x, y = _sample_state(model, rng)
            a = jet(model, x, y)
            b = fd_jet(model, x, y, h=SHARP_H)
            scale = 1.0 + abs(a.value)
            for name in ("d_x", "d_y", "d_yy", "d_xy"):
                gap = np.max(np.abs(getattr(a, name) - getattr(b, name))) / scale
                worst = max(worst, gap)
    assert worst <= 1e-6, f"jet vs finite differences disagree by {worst:.3e}"


def test_finite_differences_exact_on_quadratics(rng):
    # a quadratic Lagrangian has an exact central-difference jet even
    # at a large step, which pins down stencil coefficients
    L = rl.MechanicalLagrangian(
        2, np.array([[2.0, 0.3], [0.3, 1.0]]), potential=lambda xs: 0.7 * xs[0] * xs[1]
    )
    x = np.array([0.4, -0.2])
    y = np.array([1.1, 0.5])
    a = jet(L, x, y)
    b = fd_jet(L, x, y, h=0.25)
    for name in ("value", "d_x", "d_y", "d_yy", "d_xy"):
        np.testing.assert_allclose(
            getattr(a, name), getattr(b, name), atol=5e-12, err_msg=name
        )


def test_default_step_is_cube_root_of_eps():
    assert np.isclose(FD_STEP, np.finfo(float).eps ** (1 / 3))


def test_stencil_domain_error_near_boundary():
    disk = rl.poincare_disk_lagrangian()
    x = np.array([1.0 - 1e-10, 0.0])  # inside, but every x-stencil leaves
    y = np.array([0.0, 1.0])
    with pytest.raises(StencilDomainError):
        fd_jet(disk, x, y, h=1e-4)


def chain_jet(j, f0: float, f1: float, f2: float) -> rl.SecondJet:
    """The jet of phi(field) from the field's jet and phi's derivatives at its value."""
    return rl.SecondJet(
        value=f0,
        d_x=f1 * j.d_x,
        d_y=f1 * j.d_y,
        d_yy=f1 * j.d_yy + f2 * np.outer(j.d_y, j.d_y),
        d_xy=f1 * j.d_xy + f2 * np.outer(j.d_x, j.d_y),
    )


def test_chain_jet_reproduces_direct_composition(rng):
    # phi(L) = L^3 computed two ways: the chain rule on the jet of L, and
    # the jet of the parsed cube
    L = rl.MechanicalLagrangian(2, np.eye(2), potential=lambda xs: -xs[0] * xs[1])
    x, y = rng.uniform(0.2, 0.8, 2), rng.uniform(0.5, 1.0, 2)
    j = jet(L, x, y)
    v = j.value
    cubed = chain_jet(j, v ** 3, 3 * v ** 2, 6 * v)
    cube_model = rl.parse_lagrangian(
        "(0.5*(v1^2+v2^2) + x1*x2)^3", dim=2
    )
    direct = jet(cube_model, x, y)
    np.testing.assert_allclose(cubed.value, direct.value, rtol=1e-12)
    np.testing.assert_allclose(cubed.d_y, direct.d_y, atol=1e-11)
    np.testing.assert_allclose(cubed.d_yy, direct.d_yy, atol=1e-10)
    np.testing.assert_allclose(cubed.d_xy, direct.d_xy, atol=1e-10)


def test_euler_identity_for_homogeneous_values(rng):
    """y.d_y == degree * value for fiberwise homogeneous models."""
    quartic = rl.PowerQuadraticLagrangian(2, np.diag([1.0, 1.5]), degree=4)
    worst = 0.0
    for _ in range(1000):
        x = rng.uniform(-1.0, 1.0, 2)
        y = rng.uniform(-1.0, 1.0, 2)
        if np.dot(y, y) < 1e-4:
            continue
        j = quartic.eval(x, y)
        scale = 1.0 + abs(j.value)
        worst = max(worst, abs(float(y @ j.d_y) - 4.0 * j.value) / scale)
    assert worst <= 1e-10


def test_jet_validates_shapes_and_finiteness():
    L = rl.MechanicalLagrangian(2, np.eye(2))
    with pytest.raises(ValueError):
        jet(L, np.zeros(3), np.ones(2))
    with pytest.raises(ValueError):
        jet(L, np.array([np.nan, 0.0]), np.ones(2))


# DSL sources whose compiled fiber and full jets must equal the hyper-dual
# jet exactly: the two round-trip models, a relativistic one, transcendental
# coefficients, powers and quotients mixing position-only and velocity
# operands, a product whose dual d_yy is often not bitwise symmetric, and
# every constant-exponent special case
PARITY_SOURCES = [
    "0.5*(v1^2 + x1^2*v2^2) + 1/x1",
    "0.5*(v1^2 + x1^2*v2^2) - 0.5*x1^2",
    "-sqrt(1 - v1^2 - v2^2) - 0.1*x1^2",
    "exp(x1)*v1^2/2 + sin(x2)*v1*v2 + cos(x1*x2)*v2^2 + log(2+x1)*v1 - x1^3",
    "(1+x1^2)^1.5*v1^2 + v2^4/(3+x2^2) + x1^v1",
    "x1/(1 + v1^2 + x2*v2^2) + v1^x2 + 2^(v1*x1)",
    "(v1+v2^2+x1*v1*v2)*(v2+v1^3+sin(v1*v2))/(1+exp(v1-v2)*v2^2)",
    "-(x1*v1)^3 + cos(v2)^0 + (v1*x2)^1 - 3/(x1-v2) + 2^(v1*x1)",
]
ASYMMETRIC_SOURCE = PARITY_SOURCES[6]


def _every_family(rng):
    """Models of every family class, wrappers over several bases."""
    conformal, quartic, disk, parsed = _models(rng)
    cubic = rl.PowerQuadraticLagrangian(
        2, lambda xs: [[1.0 + xs[0] * xs[0], 0.1 * xs[1]], [0.1 * xs[1], 1.5]], degree=3)
    kepler = rl.parse_lagrangian(PARITY_SOURCES[0], dim=2)
    level = rl.jacobi_finsler(conformal, 2.0)
    return [
        conformal, disk, rl.MechanicalLagrangian(2, np.diag([1.0, 2.0])),
        quartic, cubic, rl.PowerQuadraticLagrangian(2, np.eye(2), degree=2),
        parsed, kepler,
        rl.HomogenizedLagrangian(conformal), rl.HomogenizedLagrangian(kepler),
        level, rl.jacobi_finsler(disk, 2.0), rl.jacobi_finsler(cubic, 1.5),
        rl.randers_closed_form(conformal, 2.0), rl.poincare_randers(0.5),
        rl.homogeneous_closed_form(quartic, 1.7),
        rl.gauge_shift(conformal, "0.4*x1*x2 - 0.3*x1 + sin(x2)"),
        rl.jacobi_finsler(rl.gauge_shift(conformal, "0.2*x1*x2"), 2.0),
        # a callable form with c / f(x)
        rl.gauge_shift(disk, lambda xs: 0.3 / (1.5 + xs[0] * xs[1]) + sin(xs[0]) * xs[1]),
        rl.routhian(kepler, rl.CyclicSplit.of(2, [1]), np.array([0.3]), verify=False),
        rl.routhian(rl.HomogenizedLagrangian(conformal), rl.CyclicSplit.of(3, [0]),
                    np.array([-2.0]), guess=np.array([1.0]), verify=False),
    ]


FAMILY_CLASSES = [
    rl.ScalarField, rl.MagneticLagrangian, rl.PowerQuadraticLagrangian,
    rl.ExpressionLagrangian, rl.HomogenizedLagrangian,
    rl.JacobiFinslerModel, rl.RandersModel,
    importlib.import_module("routhlab.homogenize").PowerScaledFinsler,
    rl.GaugeShiftedModel, rl.ReducedLagrangian,
]


def test_fiber_jet_agrees_with_full_jet(rng, hyper_dual):
    # value and fiber_jet are eval at orders 0 and 1, and each order runs the
    # same assembly: wherever the full jet succeeds, they equal its blocks
    # bit for bit
    models = _every_family(rng)
    assert {type(m) for m in models} >= set(FAMILY_CLASSES[1:])
    for model in models:
        checked = 0
        for _ in range(60):
            x = rng.uniform(-0.5, 0.5, model.dim)
            y = rng.uniform(-1.0, 1.0, model.dim)
            try:
                full = model.eval(x, y)
            except rl.RouthlabError:
                continue
            name = type(model).__name__
            assert model.value(x, y) == full.value, name
            val, d_y, d_yy = model.fiber_jet(x, y)
            assert val == full.value, name
            np.testing.assert_array_equal(d_y, full.d_y, err_msg=name)
            np.testing.assert_array_equal(d_yy, full.d_yy, err_msg=name)
            checked += 1
        assert checked >= 20, type(model).__name__
    for source in PARITY_SOURCES:
        model = rl.parse_lagrangian(source, dim=2)
        checked = asymmetric = 0
        for _ in range(1000):
            x = rng.uniform(-1.5, 1.5, 2)
            y = rng.uniform(-1.0, 1.0, 2)
            # the oracle: hyper-dual propagation of the generic evaluator
            try:
                oracle = hyper_dual(model, x, y)
            except rl.DomainError:
                with pytest.raises(rl.DomainError):
                    model.eval(x, y)
                continue
            full = model.eval(x, y)
            for block in ("d_x", "d_y", "d_yy", "d_xy"):
                np.testing.assert_array_equal(
                    getattr(full, block), getattr(oracle, block), err_msg=source
                )
                assert getattr(full, block).dtype == np.float64
            val, d_y, d_yy = model.fiber_jet(x, y)
            assert val == full.value == oracle.value, source
            np.testing.assert_array_equal(d_y, oracle.d_y, err_msg=source)
            np.testing.assert_array_equal(d_yy, oracle.d_yy, err_msg=source)
            assert d_y.shape == (2,) and d_yy.shape == (2, 2)
            asymmetric += oracle.d_yy[0, 1] != oracle.d_yy[1, 0]
            checked += 1
        assert checked >= 200, source
        if source == ASYMMETRIC_SOURCE:
            # each Hessian entry takes its own rule; mirroring one triangle
            # would miss these
            assert asymmetric >= 100
    # position-only operands are floats in the fiber jet, so sqrt(x1) at
    # x1 = 0 evaluates there, as in value(), while the full jet's dual sqrt
    # refuses it
    model = rl.parse_lagrangian("sqrt(x1)*v1^2", dim=1)
    with pytest.raises(rl.DomainError):
        model.eval([0.0], [0.5])
    val, d_y, d_yy = model.fiber_jet([0.0], [0.5])
    assert val == model.value([0.0], [0.5]) == 0.0
    np.testing.assert_array_equal(d_y, [0.0])
    np.testing.assert_array_equal(d_yy, [[0.0]])


# the classes that write an eval: the one evaluator of every field with an
# expr, which runs its tree's kernels, and the implicit wrappers; the closed
# forms write expr
EVAL_CLASSES = {rl.ScalarField, rl.JacobiFinslerModel, rl.ReducedLagrangian}


def test_only_the_base_field_defines_value_and_fiber_jet():
    # every model evaluates through its one eval; value and fiber_jet are
    # the base class's wrappers
    for info in pkgutil.iter_modules(rl.__path__):
        module = importlib.import_module(f"routhlab.{info.name}")
        for cls in vars(module).values():
            if not isinstance(cls, type) or cls.__module__ != module.__name__:
                continue
            if cls is not rl.ScalarField:
                assert "value" not in vars(cls) and "fiber_jet" not in vars(cls), cls
            assert ("eval" in vars(cls)) == (cls in EVAL_CLASSES), cls


def test_only_the_base_field_defines_domain_check():
    # a model's domain is its position predicate, which a wrapper takes from
    # its base, plus its formula's guards; batches and solver probes see both
    for info in pkgutil.iter_modules(rl.__path__):
        module = importlib.import_module(f"routhlab.{info.name}")
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__:
                assert ("domain_check" in vars(cls)) == (cls is rl.ScalarField), cls


# the classes that define _eval_rows; every other model runs the row loop
BATCH_CLASSES = {rl.ScalarField, rl.JacobiFinslerModel, rl.ReducedLagrangian}


def test_only_the_batching_families_define_eval_batch():
    # eval_batch is written once, and a family supplies only _eval_rows
    for info in pkgutil.iter_modules(rl.__path__):
        module = importlib.import_module(f"routhlab.{info.name}")
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__:
                assert ("eval_batch" in vars(cls)) == (cls is rl.ScalarField), cls
                assert ("_eval_rows" in vars(cls)) == (cls in BATCH_CLASSES), cls


def _blocks(out):
    """The arrays of an eval result at any order, in a fixed order."""
    if isinstance(out, rl.SecondJet):
        return [out.value, out.d_x, out.d_y, out.d_yy, out.d_xy]
    return list(out) if isinstance(out, tuple) else [out]


def test_traced_families_equal_the_hyper_dual_oracle(rng, hyper_dual):
    # a model with a tree runs its kernels, and they give the bits of the
    # hyper-dual propagation of expr wherever that is finite (zeros up to
    # sign); batches give the bits of its row loop
    traced = [m for m in _every_family(rng) if m.expression is not None]
    assert {type(m) for m in traced} == {rl.MagneticLagrangian, rl.MechanicalLagrangian,
                                         rl.PowerQuadraticLagrangian, rl.ExpressionLagrangian,
                                         rl.HomogenizedLagrangian,
                                         rl.GaugeShiftedModel, rl.RandersModel,
                                         importlib.import_module("routhlab.homogenize").PowerScaledFinsler}
    assert len(traced) == 15
    for model in traced:
        name = type(model).__name__
        n = model.dim
        xs = rng.uniform(-0.9, 0.9, (150, n))
        ys = rng.uniform(-1.5, 1.5, (150, n))
        if isinstance(model, rl.HomogenizedLagrangian):
            ys[:, 0] = rng.uniform(0.2, 1.5, 150)  # the lift's slot velocity
        ys[::25] = 0.0
        good = []
        for i, (x, y) in enumerate(zip(xs, ys)):
            for order in (0, 1, 2):
                try:
                    want = hyper_dual(model, x, y, order)
                except rl.DomainError:
                    with pytest.raises(rl.DomainError):
                        model.eval(x, y, order)
                    continue
                got = model.eval(x, y, order)
                for a, b in zip(_blocks(got), _blocks(want), strict=True):
                    np.testing.assert_array_equal(a, b, err_msg=name)
                good += [i] if order == 1 else []
        assert len(good) >= 100, name
        for order in (0, 1):
            got = model.eval_batch(xs[good], ys[good], order)
            want = _row_loop(model, xs[good], ys[good], order)
            for a, b in zip(_blocks(got), _blocks(want), strict=True):
                np.testing.assert_array_equal(a, b, err_msg=name)


def test_the_lifts_of_the_formula_wrappers_equal_the_hyper_dual_oracle(rng, hyper_dual):
    # a gauge shift writes expr over its base's, so it lifts, and the lift
    # runs traced kernels
    conformal = _models(rng)[0]
    for base in (rl.gauge_shift(conformal, "0.2*x1*x2 + sin(x2)"),):
        lift = rl.HomogenizedLagrangian(base)
        assert lift.expression is not None
        xs = rng.uniform(-0.9, 0.9, (40, 3))
        ys = np.column_stack([rng.uniform(0.2, 1.5, 40), rng.uniform(-1.5, 1.5, (40, 2))])
        for x, y in zip(xs, ys):
            for order in (0, 1, 2):
                got, want = lift.eval(x, y, order), hyper_dual(lift, x, y, order)
                for a, b in zip(_blocks(got), _blocks(want), strict=True):
                    np.testing.assert_array_equal(a, b, err_msg=type(base).__name__)


def _row_loop(model, xs, ys, order):
    """The results eval_batch must equal: eval on each row in turn, stacked."""
    rows = [model.eval(x, y, order) for x, y in zip(xs, ys)]
    if order == 0:
        return np.array(rows, float)
    k, n = ys.shape
    return tuple(np.array([r[i] for r in rows], float).reshape(k, *[n] * i) for i in range(3))


def _batch_outcome(f):
    """dtype, shape and bytes of every returned array, or the error's type and message."""
    try:
        out = f()
    except rl.RouthlabError as exc:
        return type(exc), str(exc)
    parts = out if isinstance(out, tuple) else (out,)
    return [(p.dtype.str, p.shape, p.tobytes()) for p in parts]


def test_eval_batch_equals_the_row_loop(rng):
    # orders 0 and 1 of a batch are each row's eval bit for bit, and a batch
    # with failing rows raises what the first of them raises
    mixed = 0
    for model in _every_family(rng):
        name = type(model).__name__
        n = model.dim
        xs = rng.uniform(-1.2, 1.2, (120, n))
        ys = rng.uniform(-1.5, 1.5, (120, n))
        ys[::15] = 0.0
        fails = []
        for i, (x, y) in enumerate(zip(xs, ys)):
            try:
                model.eval(x, y, 1)
            except rl.RouthlabError:
                fails.append(i)
        good = np.setdiff1d(np.arange(120), fails)
        assert len(good) >= 40, name
        batches = [good, good[:1], good[:0]]
        if fails:
            mixed += 1
            # one failing row among good ones; failing rows in both orders
            batches += [np.insert(good[:30], 17, fails[0]),
                        np.concatenate([good[:5], fails[::-1]]), np.array(fails)]
        for rows in batches:
            for order in (0, 1):
                got = _batch_outcome(lambda: model.eval_batch(xs[rows], ys[rows], order))
                want = _batch_outcome(lambda: _row_loop(model, xs[rows], ys[rows], order))
                assert got == want, (name, order, len(rows))
    assert mixed >= 12
    with pytest.raises(ValueError, match="orders 0 and 1"):
        model.eval_batch(xs[:2], ys[:2], 2)


def test_dsl_batches_equal_the_row_loop(rng):
    # the column kernel gives every row's fiber jet and value bit for bit,
    # and a batch with failing rows raises what the first of them raises
    for source in PARITY_SOURCES:
        model = rl.parse_lagrangian(source, dim=2, domain=lambda x: x[0] > -1.2)
        xs = rng.uniform(-1.5, 1.5, (300, 2))
        ys = rng.uniform(-1.0, 1.0, (300, 2))
        fails = []
        for i, (x, y) in enumerate(zip(xs, ys)):
            try:
                model.eval(x, y, 1)
            except rl.RouthlabError:
                fails.append(i)
        good = np.setdiff1d(np.arange(300), fails)
        assert len(good) >= 100 and fails, source
        batches = [good, good[:1], np.insert(good[:40], 25, fails[0]),
                   np.concatenate([good[:5], fails[::-1]]), np.array(fails)]
        for rows in batches:
            for order in (0, 1):
                got = _batch_outcome(lambda: model.eval_batch(xs[rows], ys[rows], order))
                want = _batch_outcome(lambda: _row_loop(model, xs[rows], ys[rows], order))
                assert got == want, (source, order, len(rows))
        # a batch of good rows never reaches the row loop
        model.fiber_jet = model.value = None
        model.eval_batch(xs[good], ys[good], 1)


class _Capped(rl.LagrangianModel):
    """About 0.5 |v|^2 - 0.5 x1^2, on velocities |v| < 1.2 by a guard of its traced expr."""

    dim = 2

    def __init__(self):
        self.expression = trace_expression(self.expr, self.dim, "_Capped.expr")

    def expr(self, xs, ys):
        room = positive(1.44 - (ys[0] * ys[0] + ys[1] * ys[1]), "velocity outside |v| < 1.2")
        return 0.5 * (1.44 - room) - 0.5 * xs[0] * xs[0]


def test_a_velocity_guard_holds_in_batches():
    # the level metric's scale solve probes its base at velocities no batch
    # check saw; at e = 2 the level lies outside |v| < 1.2 on every ray
    L = _Capped()
    xs = np.array([[0.1, 0.0], [0.2, 0.1], [0.3, -0.2]])
    ys = np.array([[0.5, 0.5], [0.3, -0.6], [1.5, 0.0]])
    for model in (L, rl.jacobi_finsler(L, 2.0), rl.jacobi_finsler(L, 0.3)):
        for rows in (slice(0, 2), slice(None)):
            for order in (0, 1):
                got = _batch_outcome(lambda: model.eval_batch(xs[rows], ys[rows], order))
                want = _batch_outcome(lambda: _row_loop(model, xs[rows], ys[rows], order))
                assert got == want, (model, rows, order)


def _no_row_loops(model):
    """model with value and fiber_jet unset on it and every base below it."""
    while model is not None:
        model.fiber_jet = model.value = None
        model = getattr(model, "base", None)


@pytest.mark.parametrize("kind", ["disk", "level", "reduction", "lift", "gauge"])
def test_good_batches_never_reach_the_row_loop(kind):
    # as for DSL models above: a silent fallback keeps every bit and costs
    # only time, so no parity test sees it; here the row loop and a scale
    # solve outside the level kernel fail
    rng = np.random.default_rng(21)
    xs = rng.uniform(-0.6, 0.6, (200, 2))
    ys = rng.uniform(-1.0, 1.0, (200, 2))
    if kind == "reduction":
        kepler = rl.parse_lagrangian(PARITY_SOURCES[0], dim=2, domain=lambda x: x[0] > 0.1)
        model = rl.routhian(kepler, rl.CyclicSplit.of(2, [1]), np.array([0.3]), verify=False)
        xs, ys = np.abs(xs[:, :1]) + 0.3, ys[:, :1]
    elif kind == "lift":
        # the slot velocity u > 0 is a guard of the lift's traced expr
        model = rl.HomogenizedLagrangian(rl.parse_lagrangian(PARITY_SOURCES[0], dim=2,
                                                             domain=lambda x: x[0] > 0.1))
        xs = np.column_stack([xs[:, 1], np.abs(xs[:, 0]) + 0.3, xs[:, 1]])
        ys = np.column_stack([np.abs(ys[:, 0]) + 0.5, ys])
    elif kind == "gauge":
        # the level metric of a shifted Lagrangian: its level kernel is
        # written over the shift's tree
        model = rl.jacobi_finsler(rl.gauge_shift(rl.poincare_disk_lagrangian(), "x1^2*x2 + sin(x2)"), 1.5)
    else:
        model = rl.poincare_disk_lagrangian()
        model = rl.jacobi_finsler(model, 1.5) if kind == "level" else model
    want = [_row_loop(model, xs, ys, order) for order in (0, 1)]
    _no_row_loops(model)
    for order in (0, 1):
        got = model.eval_batch(xs, ys, order)
        for a, b in zip(*(o if order else (o,) for o in (got, want[order])), strict=True):
            np.testing.assert_array_equal(a, b)


def test_batched_coefficients_round_as_the_rows(rng):
    # numpy's power kernels round differently from Python's float power, and
    # math functions refuse arrays: both must still give the rows' bits
    powered = rl.MagneticLagrangian(
        2,
        lambda xs: [[1.0 + xs[0] ** 2 + 0.1 * xs[1] ** 1.5, 0.0],
                    [0.0, 2.0 + xs[1] ** 3 / (2.0 + xs[0] ** -2)]],
        beta=lambda xs: [xs[1] ** 0.5, -xs[0]],
        potential=lambda xs: 0.3 * xs[0] ** 2.5 - xs[1],
    )
    transcendental = rl.MechanicalLagrangian(
        2, np.diag([1.0, 2.0]), potential=lambda xs: rl.duals.sin(xs[0]) * xs[1])
    potential = rl.parse_expression("x1^3 + 0.5*x2^2 - x1^1.5", allow_velocity=False)
    dsl = rl.MechanicalLagrangian(2, np.eye(2), potential=lambda xs: potential(xs, ()))
    xs = rng.uniform(0.1, 1.0, (400, 2))
    ys = rng.uniform(-1.0, 1.0, (400, 2))
    for model in (powered, transcendental, dsl, rl.PowerQuadraticLagrangian(
            2, lambda xs: [[1.0 + xs[0] ** 2, 0.0], [0.0, 1.5]], degree=3)):
        for order in (0, 1):
            assert _batch_outcome(lambda: model.eval_batch(xs, ys, order)) == \
                _batch_outcome(lambda: _row_loop(model, xs, ys, order))


def test_kernels_match_the_oracle_with_non_finite_literals(hyper_dual):
    # 1e999 is inf; the kernels bind it by name, and their structural zeros
    # times inf give the same nan entries as the hyper-dual oracle's arrays
    model = rl.parse_lagrangian("1e999*v1^2 + x1", dim=1)
    x, y = [0.5], [0.3]
    with np.errstate(invalid="ignore"):
        oracle = hyper_dual(model, x, y)
    full = model.eval(x, y)
    assert full.value == oracle.value == np.inf
    for block in ("d_x", "d_y", "d_yy", "d_xy"):
        np.testing.assert_array_equal(getattr(full, block), getattr(oracle, block))
    np.testing.assert_array_equal(oracle.d_x, [np.nan])
    val, d_y, d_yy = model.fiber_jet(x, y)
    assert val == np.inf
    np.testing.assert_array_equal(d_y, [np.inf])
    np.testing.assert_array_equal(d_yy, [[np.inf]])
