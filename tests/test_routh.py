"""Cyclic-coordinate reduction: momenta, Routhian jets, round trips."""

import contextlib
import functools
import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import routhlab as rl
from routhlab import CyclicSplit
from routhlab.jets import EVAL_ERRORS

# planar motion in a central potential, polar coordinates (r, theta);
# theta is cyclic and mu = r^2 v_theta is its conserved momentum
POLAR = "0.5*(v1^2 + x1^2*v2^2) + 1/x1"


def polar_model():
    return rl.parse_lagrangian(POLAR, dim=2, domain=lambda x: x[0] > 0.1)


def reduced_closed_form(r, vr, mu):
    # L restricted to the momentum level minus mu * v_theta
    return 0.5 * vr ** 2 - mu ** 2 / (2 * r ** 2) + 1.0 / r


class TestCyclicSplit:
    def test_of_validates_indices(self):
        s = CyclicSplit.of(3, [2])
        assert s.cyclic == (2,)
        assert s.shape == (0, 1)
        with pytest.raises(ValueError):
            CyclicSplit.of(3, [])
        with pytest.raises(ValueError):
            CyclicSplit.of(3, [0, 1, 2])  # nothing left
        with pytest.raises(ValueError):
            CyclicSplit.of(3, [3])
        with pytest.raises(ValueError):
            CyclicSplit.of(3, [1, 1])

    def test_embed_reassembles_coordinates(self):
        s = CyclicSplit.of(4, [1, 3])
        full = s.embed(np.array([10.0, 20.0]), np.array([-1.0, -2.0]))
        np.testing.assert_allclose(full, [10.0, -1.0, 20.0, -2.0])


def test_invariance_check_accepts_cyclic_and_rejects_noncyclic():
    L = polar_model()
    split = CyclicSplit.of(2, [1])
    rl.check_invariance(L, split, ref_x=np.array([1.0, 0.0]))  # no raise
    bad = CyclicSplit.of(2, [0])  # r appears in the potential
    with pytest.raises(rl.InvarianceError):
        rl.check_invariance(L, bad, ref_x=np.array([1.0, 0.0]))


def test_invariance_check_reads_the_tree_before_sampling():
    # the polar tree never reads x2, which proves it cyclic with no sampled
    # jet; it reads x1, so that declaration is sampled and rejected
    L = polar_model()
    calls, eval_ = [], L.eval
    L.eval = lambda *args: calls.append(args) or eval_(*args)
    rl.check_invariance(L, CyclicSplit.of(2, [1]), ref_x=np.array([1.0, 0.0]))
    assert calls == []
    with pytest.raises(rl.InvarianceError):
        rl.check_invariance(L, CyclicSplit.of(2, [0]), ref_x=np.array([1.0, 0.0]))
    assert calls


def test_momentum_and_solver_are_inverse(rng):
    L = polar_model()
    split = CyclicSplit.of(2, [1])
    for _ in range(20):
        x = np.array([rng.uniform(0.5, 2.0), rng.uniform(-3, 3)])
        y = rng.uniform(-1.5, 1.5, 2)
        mu = rl.momentum(L, split, x, y)
        assert mu[0] == pytest.approx(x[0] ** 2 * y[1], rel=1e-13)
        back = rl.solve_momentum(L, split, mu, x[:1], y[:1], guess=np.array([0.1]))
        assert back[0] == pytest.approx(y[1], abs=1e-11)


def test_routhian_matches_polar_closed_form(rng):
    L = polar_model()
    split = CyclicSplit.of(2, [1])
    mu = np.array([1.2])
    red = rl.routhian(L, split, mu, ref_x=np.array([1.0, 0.0]))
    assert red.dim == 1
    for _ in range(30):
        r = rng.uniform(0.5, 2.5)
        vr = rng.uniform(-2.0, 2.0)
        got = red.value(np.array([r]), np.array([vr]))
        want = reduced_closed_form(r, vr, mu[0])
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_routhian_jets_match_finite_differences(rng):
    # the Schur-complement jets of the reduced model against a plain
    # finite-difference stencil on its value function
    L = polar_model()
    split = CyclicSplit.of(2, [1])
    red = rl.routhian(L, split, np.array([0.8]), ref_x=np.array([1.0, 0.0]))
    h = float(np.finfo(float).eps) ** 0.25
    for _ in range(10):
        x = np.array([rng.uniform(0.6, 2.0)])
        y = np.array([rng.uniform(-1.5, 1.5)])
        a = red.eval(x, y)
        b = rl.fd_jet(red, x, y, h=h)
        np.testing.assert_allclose(a.d_x, b.d_x, atol=1e-7)
        np.testing.assert_allclose(a.d_y, b.d_y, atol=1e-7)
        np.testing.assert_allclose(a.d_yy, b.d_yy, atol=1e-6)
        np.testing.assert_allclose(a.d_xy, b.d_xy, atol=1e-6)


def test_reduced_flow_matches_shape_part_of_full_flow():
    L = polar_model()
    split = CyclicSplit.of(2, [1])
    x0 = np.array([1.0, 0.0])
    v0 = np.array([0.3, 1.2])
    mu = rl.momentum(L, split, x0, v0)
    report = rl.verify_reduction(L, split, mu, x0, v0, 6.0)
    assert report.overall, report.summary()


def test_verify_reduction_rejects_inconsistent_momentum():
    L = polar_model()
    split = CyclicSplit.of(2, [1])
    x0 = np.array([1.0, 0.0])
    v0 = np.array([0.3, 1.2])
    with pytest.raises(rl.PreconditionError):
        rl.verify_reduction(L, split, np.array([99.0]), x0, v0, 1.0)


def test_reconstruction_round_trip_short_window():
    L = polar_model()
    split = CyclicSplit.of(2, [1])
    x0 = np.array([1.0, 0.2])
    v0 = np.array([0.25, 1.1])
    mu = rl.momentum(L, split, x0, v0)
    t_end = 3.0

    full = rl.integrate_el(L, x0, v0, t_end, tol=1e-11)
    red = rl.routhian(L, split, mu, ref_x=x0, verify=False)
    red_traj = rl.integrate_el(red, x0[:1], v0[:1], t_end, tol=1e-11)
    rebuilt = rl.reconstruct(L, split, mu, red_traj, cyclic_start=x0[1:])

    assert rebuilt.meta["kind"] == "reconstructed"
    gap = np.max(np.abs(rebuilt.positions - full.positions))
    assert gap < 1e-8, f"round-trip position gap {gap:.3e}"
    # the reconstructed energy log comes from the full Lagrangian
    drift = np.max(np.abs(rebuilt.energy_log - rebuilt.energy_log[0]))
    assert drift < 1e-8


def test_fast_cyclic_velocity_on_one_branch_does_not_warn():
    # p = x1^2 v2 has one root; near the pericentre x1 ~ 0.31 the velocity
    # changes fast, so the largest jump far exceeds the median one, but
    # not its neighbours
    L = polar_model()
    split = CyclicSplit.of(2, [1])
    x0, v0 = np.array([1.0, 0.3]), np.array([0.3, 0.6])
    mu = rl.momentum(L, split, x0, v0)
    red = rl.routhian(L, split, mu, ref_x=x0)
    traj = rl.integrate_el(red, x0[:1], v0[:1], 2.0, tol=1e-11, samples=301)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rebuilt = rl.reconstruct(L, split, mu, traj, cyclic_start=x0[1:])
    full = rl.integrate_el(L, x0, v0, 2.0, tol=1e-11, samples=301)
    assert np.max(np.abs(rebuilt.positions - full.positions)) < 1e-8


def test_a_branch_switch_at_one_sample_warns():
    # at mu = 0, v2^3 - 3 x1 v2 = mu has the roots 0 and +-sqrt(3 x1); from
    # the guess 1, Newton finds the positive root while x1 < 1 and the
    # negative one just past it. The shape path x1 = 0.613 + t/2 crosses 1
    # between two samples.
    L = rl.parse_lagrangian("0.5*v1^2 + 0.25*v2^4 - 1.5*x1*v2^2", dim=2)
    path = rl.integrate_el(rl.parse_lagrangian("0.5*v1^2", dim=1), [0.613], [0.5], 1.0,
                           samples=101)
    with pytest.warns(UserWarning, match="jumped by 3.46 .* crossed branches"):
        rl.reconstruct(L, CyclicSplit.of(2, [1]), np.zeros(1), path, cyclic_start=np.zeros(1),
                       guess=[1.0])


def test_singular_cyclic_block_is_reported():
    L = rl.parse_lagrangian("0.5*v1^2 + 0.5*(v2 + v3)^2", dim=3)
    split = CyclicSplit.of(3, [1, 2])
    with pytest.raises(rl.SingularBlock):
        rl.solve_momentum(L, split, np.array([1.0, 2.0]), np.zeros(1), np.zeros(1))


@pytest.mark.parametrize("name, call", [
    ("mu", lambda L, s: rl.ReducedLagrangian(L, s, np.array([0.3, 0.1]))),
    ("guess", lambda L, s: rl.ReducedLagrangian(L, s, np.array([0.3]), guess=np.zeros(2))),
    ("mu", lambda L, s: rl.solve_momentum(L, s, np.array([0.3, 0.1]), np.ones(1), np.ones(1))),
    ("guess", lambda L, s: rl.solve_momentum(L, s, np.array([0.3]), np.ones(1), np.ones(1),
                                             guess=np.zeros(2))),
])
def test_shape_errors_name_the_argument(name, call):
    # a wrong guess once first failed at eval, in numpy's broadcasting
    with pytest.raises(ValueError, match=rf"^{name} must have shape \(1,\)$"):
        call(polar_model(), CyclicSplit.of(2, [1]))


def test_unreachable_momentum_is_reported():
    # saturating momentum dL/dv2 = v2/sqrt(1+v2^2) never reaches 2
    L = rl.parse_lagrangian("0.5*v1^2 + sqrt(1 + v2^2)", dim=2)
    split = CyclicSplit.of(2, [1])
    with pytest.raises(rl.NoConvergence):
        rl.solve_momentum(L, split, np.array([2.0]), np.zeros(1), np.zeros(1))


def test_reduced_model_requires_dense_reduced_trajectory():
    L = polar_model()
    split = CyclicSplit.of(2, [1])
    mu = np.array([1.0])
    red = rl.routhian(L, split, mu, ref_x=np.array([1.0, 0.0]), verify=False)
    traj = rl.integrate_el(red, np.array([1.0]), np.array([0.1]), 0.5)
    stripped = traj.__class__(
        times=traj.times,
        positions=traj.positions,
        velocities=traj.velocities,
        energy_log=traj.energy_log,
        stats=traj.stats,
        dense=None,
        meta=traj.meta,
    )
    with pytest.raises(ValueError):
        rl.reconstruct(L, split, mu, stripped, cyclic_start=np.zeros(1))


# -- one cyclic coordinate: the float path against the LAPACK path ------------

OSCILLATOR = "0.5*(v1^2 + x1^2*v2^2) - 0.5*x1^2"
# a v1 v2 coupling makes the Schur complement's division nontrivial
COUPLED = "0.5*(v1^2 + x1^2*v2^2) + 0.2*x1*v1*v2 + 1/x1"
TWO_CYCLIC = "0.5*(v1^2 + x1^2*v2^2 + (1 + x1^2)*v3^2) + 0.3*v2*v3 - 1/x1"


def test_lapack_divides_a_one_by_one_system():
    # solve_linear, and with it the float momentum loop, rests on dgesv
    # rounding a 1x1 system with one right-hand side as a division
    rng = np.random.default_rng(2)
    a = rng.choice([-1.0, 1.0], 10_000) * 10.0 ** rng.uniform(-20, 20, 10_000)
    b = rng.choice([-1.0, 1.0], 10_000) * 10.0 ** rng.uniform(-20, 20, 10_000)
    for ai, bi in zip(a.tolist(), b.tolist()):
        assert np.linalg.solve([[ai]], [bi]).tobytes() == np.array([bi / ai]).tobytes()
        assert np.linalg.solve([[ai]], [[bi]]).tobytes() == np.array([[bi / ai]]).tobytes()


def test_one_by_one_products_add_to_zero():
    # the "reduced-el" kernel of a two-dimensional model takes its Schur step
    # on floats: that rests on a 1x1 matmul and a dot of 1-vectors giving the
    # one product added to 0.0, signed zeros and underflow included
    rng = np.random.default_rng(4)
    a = rng.choice([-1.0, 1.0], 10_000) * 10.0 ** rng.uniform(-200, 200, 10_000)
    b = rng.choice([-1.0, 1.0], 10_000) * 10.0 ** rng.uniform(-200, 200, 10_000)
    a[:8], b[:8] = [0.0, -0.0, 0.0, -0.0, 1e-200, -1e-200, 3.0, -0.0], \
        [1.0, -1.0, -1.0, 1.0, -1e-200, 1e-200, -0.0, -2.0]
    with np.errstate(over="ignore"):
        for ai, bi in zip(a.tolist(), b.tolist()):
            want = np.array(0.0 + ai * bi).tobytes()
            assert (np.array([[ai]]) @ np.array([[bi]])).tobytes() == want
            assert np.array(np.array([ai]) @ np.array([bi])).tobytes() == want


def test_stacked_matmul_rounds_as_one_row():
    # eval_batch rests on OpenBLAS rounding each row of a stacked np.matmul
    # as it rounds the one-row product: 1-D @ goes through FMA, so sums and
    # einsum would differ from it in the last bit
    rng = np.random.default_rng(3)
    k = 10_000

    def draw(*shape):
        return rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-5, 5, shape)

    def rows(a):
        return [r.tobytes() for r in a]

    for n in range(1, 5):
        a, b, g = draw(k, n), draw(k, n), draw(k, n, n)
        dot = (a[:, None, :] @ b[:, :, None])[:, 0, 0]
        gb = g @ b[:, :, None]
        quad = (b[:, None, :] @ gb)[:, 0, 0]
        assert rows(dot) == rows(np.array([float(a[i] @ b[i]) for i in range(k)])), n
        assert rows(gb[:, :, 0]) == rows(np.array([g[i] @ b[i] for i in range(k)])), n
        assert rows(quad) == rows(np.array([float(b[i] @ (g[i] @ b[i])) for i in range(k)])), n
        # and on stacks of one row, and with the matrix broadcast over rows
        assert (a[:1, None, :] @ b[:1, :, None]).item() == float(a[0] @ b[0])
        shared = np.broadcast_to(g[0], g.shape) @ b[:, :, None]
        assert rows(shared[:, :, 0]) == rows(np.array([g[0] @ b[i] for i in range(k)])), n


def _lapack_solve_momentum(L, split, mu, x_shape, y_shape, guess=None, tol=1e-12, max_iter=50):
    """The vector Newton loop of solve_momentum: LAPACK steps, numpy norms.

    A step is halved while the jet at the new iterate raises DomainError;
    that jet serves the next iteration, so the last iteration takes none.
    """
    m = len(split.cyclic)
    z = np.zeros(m) if guess is None else np.asarray(guess, float).copy()
    full_x = split.embed(x_shape, np.zeros(m))
    scale = tol * (1.0 + float(np.linalg.norm(mu)))
    ceiling = 1e8 * (1.0 + float(np.linalg.norm(z)) + float(np.linalg.norm(y_shape)))
    cyc = split.cyc_idx
    residual = None
    _, d_y, d_yy = L.fiber_jet(full_x, split.embed(y_shape, z))
    for it in range(max_iter):
        residual = d_y[cyc] - mu
        if np.linalg.norm(residual) <= scale:
            return z
        try:
            step = np.linalg.solve(d_yy[cyc[:, None], cyc], residual)
        except np.linalg.LinAlgError as exc:
            raise rl.SingularBlock(f"cyclic velocity block is singular at x={full_x}") from exc
        for _ in range(30):
            trial = z - step
            if float(np.linalg.norm(trial)) > ceiling:
                raise rl.NoConvergence(
                    "momentum solve is diverging; the target momentum may be unreachable"
                )
            if it + 1 == max_iter:
                break
            try:
                _, d_y, d_yy = L.fiber_jet(full_x, split.embed(y_shape, trial))
                break
            except rl.DomainError:
                step = 0.5 * step
        else:
            raise rl.NoConvergence("momentum solve could not stay inside the domain")
        z = trial
    raise rl.NoConvergence(
        f"momentum solve did not converge in {max_iter} iterations "
        f"(residual {np.linalg.norm(residual):.3e})"
    )


def _lapack_reduced_eval(red, x, y, order):
    split, mu = red.split, red.mu
    z = _lapack_solve_momentum(red.base, split, mu, x, y, guess=red.guess)
    full_x, full_y = split.embed(x, np.zeros(1)), split.embed(y, z)
    j = red.base.eval(full_x, full_y, order)
    if order == 0:
        return j - float(mu @ z)
    val, d_y, d_yy = j if order == 1 else (j.value, j.d_y, j.d_yy)
    cyc, shp = split.cyc_idx, split.shape_idx
    w = np.linalg.solve(d_yy[cyc[:, None], cyc], d_yy[cyc[:, None], shp])
    h = d_yy[shp[:, None], shp] - d_yy[shp[:, None], cyc] @ w
    h = 0.5 * (h + h.T)
    if order == 1:
        return val - float(mu @ z), d_y[shp], h
    return (val - float(mu @ z), j.d_x[shp], d_y[shp], h,
            j.d_xy[shp[:, None], shp] - j.d_xy[shp[:, None], cyc] @ w)


# a bounded cyclic fiber |v2| < 1, a guard of the formula that only the
# fiber jet knows about, so Newton steps can overshoot it
BOUNDED_FIBER = "0.5*v1^2 - x1^2*sqrt(1 - v2^2)"


def _outcome(f):
    try:
        out = f()
    except rl.RouthlabError as exc:
        return type(exc), str(exc)
    parts = out if isinstance(out, tuple) else (out,)
    if hasattr(out, "d_xy"):
        parts = (out.value, out.d_x, out.d_y, out.d_yy, out.d_xy)
    return [np.asarray(p, float).tobytes() for p in parts]


@pytest.mark.parametrize("source", [POLAR, OSCILLATOR, COUPLED, TWO_CYCLIC])
def test_float_momentum_solve_and_reduced_jets_equal_the_lapack_path(source):
    # v2 and v3 are cyclic in TWO_CYCLIC, whose solve runs on arrays
    dim = 3 if source == TWO_CYCLIC else 2
    L = rl.parse_lagrangian(source, dim=dim, domain=lambda x: x[0] > 0.1)
    split = CyclicSplit.of(dim, range(1, dim))
    rng = np.random.default_rng(8)
    for _ in range(200):
        x, y = rng.uniform(0.2, 2.5, 1), rng.uniform(-1.5, 1.5, 1)
        mu = rng.uniform(-2.0, 2.0, dim - 1)
        guess = None if rng.random() < 0.5 else rng.uniform(-3.0, 3.0, dim - 1)
        assert _outcome(lambda: rl.solve_momentum(L, split, mu, x, y, guess=guess)) == \
            _outcome(lambda: _lapack_solve_momentum(L, split, mu, x, y, guess=guess))
        red = rl.ReducedLagrangian(L, split, mu, guess=guess)
        for order in (0, 1, 2):
            assert _outcome(lambda: red.eval(x, y, order)) == \
                _outcome(lambda: _lapack_reduced_eval(red, x, y, order))


def test_float_momentum_solve_backtracks_as_the_lapack_path():
    # momentum x1^2 v2 / sqrt(1 - v2^2): a Newton step from v2 = 0 toward a
    # large momentum lands past |v2| = 1, where the fiber jet raises, and
    # must be halved back inside
    L = rl.parse_lagrangian(BOUNDED_FIBER, dim=2, domain=lambda x: x[0] > 0.1)
    split = CyclicSplit.of(2, [1])
    backtracks = 0
    fiber_jet = L.fiber_jet

    def counting(x, y):
        nonlocal backtracks
        try:
            return fiber_jet(x, y)
        except rl.DomainError:
            backtracks += 1
            raise

    L.fiber_jet = counting
    rng = np.random.default_rng(9)
    solved = 0
    for _ in range(200):
        x, y = rng.uniform(0.2, 2.0, 1), rng.uniform(-1.0, 1.0, 1)
        mu = rng.uniform(-4.0, 4.0, 1) * x ** 2
        guess = None if rng.random() < 0.5 else rng.uniform(-0.9, 0.9, 1)
        counts = []
        outcomes = []
        for solve in (rl.solve_momentum, _lapack_solve_momentum):
            before = backtracks
            outcomes.append(_outcome(lambda: solve(L, split, mu, x, y, guess=guess)))
            counts.append(backtracks - before)
        assert outcomes[0] == outcomes[1]
        assert counts[0] == counts[1]
        solved += not isinstance(outcomes[0], tuple)
    assert backtracks > 200 and solved > 100


@pytest.mark.parametrize("guess", [None, [0.5]])
def test_momentum_solve_backtracks_from_a_failing_fiber_jet(guess):
    # the first Newton step lands past |v2| = 1, inside the position
    # predicate, but the jet raises DomainError: the step is halved instead
    L = rl.parse_lagrangian(BOUNDED_FIBER, dim=2)
    split = CyclicSplit.of(2, [1])
    x, v = np.array([1.0, 0.0]), np.array([0.2, 0.9])
    mu = rl.momentum(L, split, x, v)
    z = rl.solve_momentum(L, split, mu, x[:1], v[:1], guess=guess)
    assert z.item() == pytest.approx(0.9, abs=1e-12)


def test_vector_momentum_solve_backtracks_from_a_failing_fiber_jet():
    L = rl.parse_lagrangian(BOUNDED_FIBER + " + 0.5*v3^2 + 0.1*v2*v3", dim=3)
    split = CyclicSplit.of(3, [1, 2])
    x, v = np.array([1.0, 0.0, 0.0]), np.array([0.2, 0.9, -0.4])
    mu = rl.momentum(L, split, x, v)
    z = rl.solve_momentum(L, split, mu, x[:1], v[:1])
    np.testing.assert_allclose(z, [0.9, -0.4], atol=1e-12)
    # a momentum no velocity in the fiber reaches keeps failing to the end
    with pytest.raises(rl.NoConvergence):
        rl.solve_momentum(L, CyclicSplit.of(3, [1]), np.array([-1e9]), x[[0, 2]], v[[0, 2]])


def test_zero_one_by_one_blocks_raise_their_own_errors():
    L = rl.parse_lagrangian("0.5*v1^2 + v2", dim=2)
    split = CyclicSplit.of(2, [1])
    with pytest.raises(rl.SingularBlock, match="cyclic velocity block is singular"):
        rl.solve_momentum(L, split, np.array([0.5]), np.zeros(1), np.zeros(1))
    # at mu = 1 the momentum solve converges at once and the Schur
    # complement meets the zero block
    red = rl.ReducedLagrangian(L, split, np.array([1.0]))
    assert red.eval(np.zeros(1), np.zeros(1), 0) == 0.0
    for order in (1, 2):
        with pytest.raises(rl.SingularBlock, match="cyclic velocity block is singular"):
            red.eval(np.zeros(1), np.zeros(1), order)
    flat = rl.parse_lagrangian("v1 + x1^2", dim=1)
    with pytest.raises(rl.SingularHessian, match="velocity Hessian is singular"):
        rl.el_acceleration(flat, np.array([0.5]), np.array([1.0]))


# -- the column momentum solve against the row loop -----------------------------


def _row_loop(model, xs, ys, order):
    """eval_batch's reference: each row's eval in turn, stacked."""
    rows = [model.eval(x, y, order) for x, y in zip(xs, ys)]
    if order == 0:
        return np.array(rows, float)
    k, n = np.shape(ys)
    return tuple(np.array([r[i] for r in rows], float).reshape(k, *[n] * i) for i in range(3))


def _rows(f):
    """f()'s arrays as dtype, shape and bytes, or its error's type and message."""
    try:
        out = f()
    except rl.RouthlabError as exc:
        return type(exc), str(exc)
    parts = out if isinstance(out, tuple) else (out,)
    return [(p.dtype.str, p.shape, p.tobytes()) for p in parts]


def _counting_batches(L):
    """Record the rows of each batched fiber jet L evaluates, and 0 for each single one.

    The column rounds and the root evaluation batch through ``_eval_rows``,
    as the rows' positions passed L's predicate once, before the first round.
    """
    sizes = []
    batch, single = L._eval_rows, L.fiber_jet

    def counting_batch(xs, ys, order=0):
        sizes.append(len(xs))
        return batch(xs, ys, order)

    def counting_single(x, y):
        sizes.append(0)
        return single(x, y)

    L._eval_rows, L.fiber_jet = counting_batch, counting_single
    return sizes


LOCKSTEP_MODELS = [
    (POLAR, 0.3, None),
    (OSCILLATOR, -0.8, [0.4]),
    (COUPLED, 1.1, [-0.2]),
    # Newton steps overshoot |v2| = 1, where the fiber jet raises
    (BOUNDED_FIBER, 0.9, None),
]


@pytest.mark.parametrize("source, mu, guess", LOCKSTEP_MODELS)
def test_reduced_batches_equal_the_row_loop(source, mu, guess):
    L = rl.parse_lagrangian(source, dim=2, domain=lambda x: x[0] > 0.1)
    sizes = _counting_batches(L)
    red = rl.ReducedLagrangian(L, CyclicSplit.of(2, [1]), np.array([mu]), guess=guess)
    rng = np.random.default_rng(10)
    xs, ys = rng.uniform(0.3, 2.0, (200, 1)), rng.uniform(-1.5, 1.5, (200, 1))
    for order in (0, 1):
        sizes.clear()
        got = _rows(lambda: red.eval_batch(xs, ys, order))
        # one batched jet per round and one at the roots; rows leave the
        # columns as they converge, and only a jet past |v2| = 1 sends a
        # round, and then its row, row by row
        assert sizes[0] == sizes[-1] == 200 and len(sizes) >= 3
        if source == BOUNDED_FIBER:
            assert len(set(sizes) - {0}) >= 3, sizes
        else:
            assert 0 not in sizes, sizes
        assert got == _rows(lambda: _row_loop(red, xs, ys, order)), order
        assert not isinstance(got, tuple), got
    # rows that fail, first at the position predicate, then at an
    # unreachable momentum, raise what the first of them raises
    xs[[70, 150]] = 0.05
    assert _rows(lambda: red.eval_batch(xs, ys, 1)) == \
        _rows(lambda: _row_loop(red, xs, ys, 1))
    far = rl.ReducedLagrangian(L, CyclicSplit.of(2, [1]), np.array([1e9]), guess=guess)
    assert _rows(lambda: far.eval_batch(xs[::-1], ys[::-1], 1)) == \
        _rows(lambda: _row_loop(far, xs[::-1], ys[::-1], 1))


def test_reduced_batches_check_each_position_once():
    # the solve checks the rows once; the column rounds, their Newton
    # steps and the root evaluation skip the predicate
    calls = []

    def inside(x):
        calls.append(1)
        return x[0] > 0.1

    L = rl.parse_lagrangian(POLAR, dim=2, domain=inside)
    red = rl.ReducedLagrangian(L, CyclicSplit.of(2, [1]), np.array([0.3]))
    rng = np.random.default_rng(13)
    xs, ys = rng.uniform(0.3, 2.0, (801, 1)), rng.uniform(-1.5, 1.5, (801, 1))
    for order in (0, 1):
        calls.clear()
        got = _rows(lambda: red.eval_batch(xs, ys, order))
        assert len(calls) <= 801, len(calls)
        assert got == _rows(lambda: _row_loop(red, xs, ys, order)), order


def test_reduced_batches_of_a_velocity_checked_base_run_in_lockstep():
    # a homogenized base guards its scale velocity, the cyclic one here, in
    # its formula, where a round's batched jet meets it; the check before the
    # rounds reads positions alone, so every round is one batch
    H = rl.HomogenizedLagrangian(rl.parse_lagrangian(POLAR, dim=2, domain=lambda x: x[0] > 0.1))
    sizes = _counting_batches(H)
    red = rl.ReducedLagrangian(H, CyclicSplit.of(3, [0]), np.array([-2.0]), guess=np.array([1.0]))
    rng = np.random.default_rng(12)
    xs, ys = rng.uniform(0.3, 2.0, (100, 2)), rng.uniform(-1.5, 1.5, (100, 2))
    for order in (0, 1):
        sizes.clear()
        got = _rows(lambda: red.eval_batch(xs, ys, order))
        # the base's columns kernel serves each round; a single fiber jet counts 0
        batches = [s for s in sizes if s]
        assert batches[0] == batches[-1] == 100 and len(batches) >= 3, batches
        assert got == _rows(lambda: _row_loop(red, xs, ys, order)), order
        assert not isinstance(got, tuple), got


@pytest.mark.parametrize("guess", [None, [0.3]])
def test_lockstep_momentum_solve_backtracks_as_the_rows(guess):
    # the bounded fiber backtracks on a jet that raises, with and without a
    # position predicate, and with two cyclic velocities each row runs the
    # vector rules on its own jets
    rng = np.random.default_rng(11)
    one = CyclicSplit.of(2, [1])
    xs, ys = rng.uniform(0.2, 2.0, (150, 1)), rng.uniform(-1.0, 1.0, (150, 1))
    for L, split in (
        (rl.parse_lagrangian(BOUNDED_FIBER, dim=2, domain=lambda x: x[0] > 0.1), one),
        (rl.parse_lagrangian(BOUNDED_FIBER, dim=2), one),
        (rl.parse_lagrangian(BOUNDED_FIBER + " + 0.5*v3^2 + 0.1*v2*v3", dim=3),
         CyclicSplit.of(3, [1, 2])),
    ):
        m = len(split.cyclic)
        g = np.full(m, 0.0 if guess is None else guess[0])
        solved = 0
        # the steep target 100 is out of the Newton budget's reach on some rows
        for mu in [*rng.uniform(-4.0, 4.0, (6, m)), np.full(m, 100.0)]:
            one_by_one = [_rows(lambda: rl.solve_momentum(L, split, mu, x, y, guess=g))
                          for x, y in zip(xs, ys)]
            # the column solve, row by row where no row fails
            got = _rows(lambda: rl.routh._solve_momenta(L, split, mu, xs, ys, g))
            if all(isinstance(r, list) for r in one_by_one):
                solved += 1
                assert got == [("<f8", (150, m), b"".join(r[0][2] for r in one_by_one))]
            else:
                assert got == next(r for r in one_by_one if isinstance(r, tuple))
        assert 2 <= solved < 7


@pytest.mark.parametrize("source", [POLAR, OSCILLATOR, COUPLED])
def test_reconstruction_midpoints_equal_the_row_loop(source, monkeypatch):
    L = rl.parse_lagrangian(source, dim=2, domain=lambda x: x[0] > 0.1)
    split = CyclicSplit.of(2, [1])
    x0, v0 = np.array([1.0, 0.3]), np.array([0.3, 1.2])
    mu = rl.momentum(L, split, x0, v0)
    # the reduced model's default guess, and the round trip's: v0's own
    for guess in (None, v0[1:]):
        red = rl.routhian(L, split, mu, guess=guess, ref_x=x0)
        traj = rl.integrate_el(red, x0[:1], v0[:1], 1.5, tol=1e-11, samples=301)
        sizes = _counting_batches(L)
        columns = rl.reconstruct(L, split, mu, traj, cyclic_start=x0[1:], guess=guess)
        # the 301 samples and 300 midpoints solve on one set of columns, then
        # the energy log batches the samples
        assert sizes[0] == 601 and sizes[-1] == 301 and 0 not in sizes, sizes
        # each rebuilt velocity is the one the reduced flow integrated
        z = np.concatenate([red.cyclic_velocity(x, y)
                            for x, y in zip(traj.positions, traj.velocities)])
        assert columns.velocities[:, 1].tobytes() == z.tobytes()
        # where a position fails the predicate, every row runs solve_momentum,
        # and the energy log runs the row loop
        with monkeypatch.context() as patch:
            patch.setattr(L, "_rows_in_domain", lambda xs, ys: False)
            rows = rl.reconstruct(L, split, mu, traj, cyclic_start=x0[1:], guess=guess)
        for name in ("positions", "velocities", "energy_log"):
            assert getattr(columns, name).tobytes() == getattr(rows, name).tobytes(), name


def test_two_cyclic_reductions_batch_as_the_rows():
    # m >= 2 solves row by row on per-row jets; the stacked Schur step is
    # np.linalg.solve
    L = rl.parse_lagrangian(BOUNDED_FIBER + " + 0.5*v3^2 + 0.1*v2*v3", dim=3)
    red = rl.ReducedLagrangian(L, CyclicSplit.of(3, [1, 2]), np.array([0.5, -0.3]))
    rng = np.random.default_rng(12)
    xs, ys = rng.uniform(0.5, 2.0, (60, 1)), rng.uniform(-1.0, 1.0, (60, 1))
    for order in (0, 1):
        got = _rows(lambda: red.eval_batch(xs, ys, order))
        assert not isinstance(got, tuple)
        assert got == _rows(lambda: _row_loop(red, xs, ys, order))


# -- the column momentum solve against the rows ------------------------------------

# the momentum v2^3 - 3 x1 v2 has a critical point at v2 = 1 where x1 = 1
DOUBLE_WELL = "0.5*v1^2 + 0.25*v2^4 - 1.5*x1*v2^2"


@functools.cache
def _model(source):
    return rl.parse_lagrangian(source, dim=2, domain=lambda x: x[0] > 0.1)


@settings(max_examples=200)
@given(
    source=st.sampled_from([source for source, _, _ in LOCKSTEP_MODELS]),
    mu=st.one_of(st.floats(-4.0, 4.0), st.just(1e9)),
    guess=st.floats(-3.0, 3.0),
    points=st.lists(st.tuples(st.one_of(st.floats(0.2, 2.0), st.just(0.05)),
                              st.floats(-1.5, 1.5)), min_size=1, max_size=12),
)
@example(source=DOUBLE_WELL, mu=0.0, guess=1.0, points=[(0.5, 0.2), (1.0, -0.4), (1.5, 0.7)])
# at x1 = 2/3 Newton's iterates cycle between v2 = 0 and 1 until the budget runs out
@example(source=DOUBLE_WELL, mu=-2.0, guess=0.0, points=[(0.5, 0.2), (2 / 3, 0.1), (1.5, 0.7)])
def test_column_momentum_solve_equals_the_rows(source, mu, guess, points):
    # each row's root bit for bit, or the first failing row's error: rows
    # outside the predicate, at an unreachable momentum, past the bounded
    # fiber or at a singular block
    L, split = _model(source), CyclicSplit.of(2, [1])
    mu, g = np.array([mu]), np.array([guess])
    xs, ys = np.array(points).T[:, :, None]
    rows = [_rows(lambda: rl.solve_momentum(L, split, mu, x, y, guess=g))
            for x, y in zip(xs, ys)]
    got = _rows(lambda: rl.routh._solve_momenta(L, split, mu, xs, ys, g))
    if all(isinstance(r, list) for r in rows):
        assert got == [("<f8", (len(xs), 1), b"".join(r[0][2] for r in rows))]
    else:
        assert got == next(r for r in rows if isinstance(r, tuple))
    if source == DOUBLE_WELL:
        assert got == ((rl.SingularBlock, "cyclic velocity block is singular at x=[1. 0.]")
                       if mu == 0.0 else (rl.NoConvergence, "momentum solve did not converge "
                                          "in 50 iterations (residual 1.000e+00)"))


def test_column_momentum_solve_runs_only_the_rows_at_fault(monkeypatch):
    # a Kepler reconstruction solves its 301 samples and 300 midpoints on
    # columns, with no single-point solve, where the lockstep rounds made
    # one per point
    solve, solves = rl.routh.solve_momentum, []
    monkeypatch.setattr(rl.routh, "solve_momentum",
                        lambda *args, **kw: solves.append(args) or solve(*args, **kw))
    L, split = polar_model(), CyclicSplit.of(2, [1])
    x0, v0 = np.array([1.0, 0.3]), np.array([0.3, 1.2])
    mu = rl.momentum(L, split, x0, v0)
    red = rl.routhian(L, split, mu, guess=v0[1:], verify=False)
    traj = rl.integrate_el(red, x0[:1], v0[:1], 1.5, tol=1e-11, samples=301)
    solves.clear()
    rl.reconstruct(L, split, mu, traj, cyclic_start=x0[1:], guess=v0[1:])
    assert solves == []
    # on the bounded fiber, Newton steps past |v2| = 1 send rounds row by
    # row and their rows to the row path; the lockstep rounds took 5,575
    # single fiber jets on this batch
    bounded = rl.parse_lagrangian(BOUNDED_FIBER, dim=2, domain=lambda x: x[0] > 0.1)
    red = rl.ReducedLagrangian(bounded, split, np.array([0.9]))
    rng = np.random.default_rng(3)
    xs, ys = rng.uniform(0.3, 2.0, (801, 1)), rng.uniform(-1.5, 1.5, (801, 1))
    sizes = _counting_batches(bounded)
    got = _rows(lambda: red.eval_batch(xs, ys, 1))
    assert 0 < sizes.count(0) <= 5575, sizes.count(0)
    assert got == _rows(lambda: _row_loop(red, xs, ys, 1))


def _momentum_sweeps():
    """name: (model, split, [(x_shape, y_shape, mu, guess), ...]) of each pinned sweep."""
    one = CyclicSplit.of(2, [1])
    rng = np.random.default_rng(8)
    kepler = [(rng.uniform(0.2, 2.5, 1), rng.uniform(-1.5, 1.5, 1), rng.uniform(-2.0, 2.0, 1),
               None if rng.random() < 0.5 else rng.uniform(-3.0, 3.0, 1)) for _ in range(200)]
    points = np.random.default_rng(3).uniform([0.3, -1.5], [2.0, 1.5], (400, 2))
    bounded = [(p[:1], p[1:], np.array([0.9]), None) for p in points]
    rng = np.random.default_rng(8)
    two = [(rng.uniform(0.2, 2.5, 1), rng.uniform(-1.5, 1.5, 1), rng.uniform(-2.0, 2.0, 2),
            None if rng.random() < 0.5 else rng.uniform(-3.0, 3.0, 2)) for _ in range(200)]
    wells = [(np.array([x]), np.array([y]), np.array([mu]), np.array([guess]))
             for mu, guess, points in ((0.0, 1.0, [(0.5, 0.2), (1.0, -0.4), (1.5, 0.7)]),
                                       (-2.0, 0.0, [(0.5, 0.2), (2 / 3, 0.1), (1.5, 0.7)]))
             for x, y in points]
    return {
        "kepler": (polar_model(), one, kepler),
        "bounded fiber": (rl.parse_lagrangian(BOUNDED_FIBER, dim=2, domain=lambda x: x[0] > 0.1),
                          one, bounded),
        "two cyclic": (rl.parse_lagrangian(TWO_CYCLIC, dim=3, domain=lambda x: x[0] > 0.1),
                       CyclicSplit.of(3, [1, 2]), two),
        "double well": (_model(DOUBLE_WELL), one, wells),
    }


def test_momentum_sweeps_keep_their_solves(monkeypatch):
    # each point's root bytes, or its error's type and message, and the
    # fiber jets the sweep took, as the solve gave them when its rules were
    # a routine driven jet by jet; on the bounded fiber 653 of the 3,391
    # jets raise and the step is halved
    jet, jets = rl.routh._cyclic_jet, [0]

    def counting(*args):
        jets[0] += 1
        return jet(*args)

    monkeypatch.setattr(rl.routh, "_cyclic_jet", counting)
    got = {}
    for name, (L, split, cases) in _momentum_sweeps().items():
        h, jets[0] = hashlib.sha256(), 0
        for x, y, mu, guess in cases:
            try:
                h.update(rl.solve_momentum(L, split, mu, x, y, guess=guess).tobytes())
            except rl.RouthlabError as exc:
                h.update(repr((type(exc).__name__, str(exc))).encode())
        got[name] = (h.hexdigest()[:16], jets[0])
    assert got == {
        "kepler": ("0e6e9684bea242da", 400),
        "bounded fiber": ("110c9833ef83bdfd", 3391),
        "two cyclic": ("bddfa41d46927b60", 400),
        # a singular block at x1 = 1 and a Newton cycle at x1 = 2/3
        "double well": ("e20b9b32b98ac5bd", 90),
    }


# -- the generated reduced right-hand side against the numpy path ---------------


def _fallback_cases():
    split = CyclicSplit.of(2, [1])
    bounded, flat = (rl.parse_lagrangian(s, dim=2) for s in (BOUNDED_FIBER, "0.5*v1^2 + v2"))
    polar = polar_model()
    x, v = np.array([1.0, 0.0]), np.array([0.2, 0.9])
    x0, v0 = np.array([1.0, 0.3]), np.array([0.3, 1.2])
    return {
        # a Newton step from 0 lands past |v2| = 1, where the solve backtracks
        "backtrack": (rl.ReducedLagrangian(bounded, split, rl.momentum(bounded, split, x, v)),
                      x[:1], v[:1], None),
        "outside": (rl.ReducedLagrangian(polar, split, np.array([1.0])), np.array([0.05]),
                    np.array([0.3]), rl.PositionDomainError),
        # a zero cyclic block: the solve's step meets it at mu = 0.5, the
        # Schur step at mu = 1, where the guess 0 already solves
        "singular step": (rl.ReducedLagrangian(flat, split, np.array([0.5])), np.zeros(1),
                          np.zeros(1), rl.SingularBlock),
        "singular schur": (rl.ReducedLagrangian(flat, split, np.array([1.0])), np.zeros(1),
                           np.zeros(1), rl.SingularBlock),
        # the round trip's first point: its guess is the start's own velocity
        "exact guess": (rl.ReducedLagrangian(polar, split, rl.momentum(polar, split, x0, v0),
                                             guess=v0[1:]), x0[:1], v0[:1], None),
    }


@pytest.mark.parametrize("case", list(_fallback_cases()))
def test_reduced_kernel_falls_back_to_the_numpy_path(numpy_el, case):
    # where the kernel's two probes do not apply, it declines: it returns
    # None, or raises, as at a guard of its jet or of the position predicate;
    # the numpy path then gives its own result or raises its own error
    red, x, v, error = _fallback_cases()[case]
    kernel, args = red._el_flow()
    with pytest.raises(EVAL_ERRORS) if case in ("backtrack", "outside") else contextlib.nullcontext():
        assert kernel(*x, *v, *args) is None
    got = _outcome(lambda: rl.el_acceleration(red, x, v))
    assert got == _outcome(lambda: numpy_el(red, x, v))
    assert got[0] is error if error else isinstance(got, list)


def test_reduced_kepler_right_hand_sides_solve_no_momentum(monkeypatch):
    # each right-hand side writes the momentum solve's probes in the kernel;
    # the initial convexity check's fiber jet still solves once
    red = rl.routhian(polar_model(), CyclicSplit.of(2, [1]), np.array([1.2]), verify=False)
    solve_momentum, el_acceleration = rl.routh.solve_momentum, rl.lagrangian.el_acceleration
    solves, in_rhs = {True: 0, False: 0}, [False]

    def accel(*args):
        in_rhs[0] = True
        try:
            return el_acceleration(*args)
        finally:
            in_rhs[0] = False

    def counting(*args, **kwargs):
        solves[in_rhs[0]] += 1
        return solve_momentum(*args, **kwargs)

    monkeypatch.setattr(rl.lagrangian, "el_acceleration", accel)
    monkeypatch.setattr(rl.routh, "solve_momentum", counting)
    traj = rl.integrate_el(red, np.array([1.0]), np.array([0.3]), 3.0, tol=1e-11)
    assert traj.stats.rhs_evals > 500
    assert solves == {True: 0, False: 1}
