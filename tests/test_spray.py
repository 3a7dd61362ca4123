"""Geodesic sprays of 1-homogeneous metrics and their reparametrizations."""

import numpy as np
import pytest

import routhlab as rl
from routhlab.spray import _assembled_spray, _spray, projective_shift


def sample_metric():
    L = rl.MagneticLagrangian(
        2,
        lambda xs: [
            [1.0 + 0.2 * xs[1] * xs[1], 0.0],
            [0.0, 1.0 + 0.2 * xs[0] * xs[0]],
        ],
        beta=np.array([0.15, -0.1]),
        potential=lambda xs: 0.25 * (xs[0] * xs[0] + xs[1] * xs[1]),
    )
    return rl.jacobi_finsler(L, 2.0)


def test_half_square_jet_consistency(rng):
    F = sample_metric()
    for _ in range(20):
        x = rng.uniform(-0.5, 0.5, 2)
        y = rng.uniform(-1.0, 1.0, 2)
        if y @ y < 0.05:
            continue
        j = F.eval(x, y)
        E = rl.half_square_jet(F, x, y)
        assert E.value == pytest.approx(0.5 * j.value ** 2, rel=1e-13)
        np.testing.assert_allclose(E.d_y, j.value * j.d_y, atol=1e-12)
        np.testing.assert_allclose(
            E.d_yy, np.outer(j.d_y, j.d_y) + j.value * j.d_yy, atol=1e-12
        )


def test_spray_acceleration_is_two_homogeneous(rng):
    F = sample_metric()
    accel = rl.canonical_spray(F)
    worst = 0.0
    for _ in range(1000):
        x = rng.uniform(-0.5, 0.5, 2)
        y = rng.uniform(-1.0, 1.0, 2)
        if y @ y < 0.05:
            continue
        lam = rng.uniform(0.3, 3.0)
        a1 = accel(x, lam * y)
        a2 = lam * lam * accel(x, y)
        scale = 1.0 + float(np.max(np.abs(a2)))
        worst = max(worst, float(np.max(np.abs(a1 - a2))) / scale)
    assert worst <= 1e-8, f"spray 2-homogeneity violated by {worst:.3e}"


def test_geodesics_conserve_the_metric_value(rng):
    F = sample_metric()
    for _ in range(5):
        x0 = rng.uniform(-0.3, 0.3, 2)
        y0 = rng.uniform(-1.0, 1.0, 2)
        if y0 @ y0 < 0.1:
            y0 = np.array([1.0, 0.2])
        traj = rl.integrate_geodesic(F, x0, y0, 1.0, tol=1e-11)
        drift = np.max(np.abs(traj.energy_log - traj.energy_log[0]))
        assert drift < 1e-8, f"metric value drifted by {drift:.3e}"


def test_unit_speed_flag_normalizes_the_start():
    F = sample_metric()
    traj = rl.integrate_geodesic(
        F, np.zeros(2), np.array([3.0, 1.0]), 0.8, unit_speed=True
    )
    assert traj.energy_log[0] == pytest.approx(1.0, rel=1e-12)
    assert traj.meta["kind"] == "geodesic"


def test_geodesic_rejects_degenerate_start():
    F = sample_metric()
    # zero velocity sits outside the slit tangent bundle
    with pytest.raises(rl.DomainError):
        rl.integrate_geodesic(F, np.zeros(2), np.zeros(2), 1.0)
    # non-positive metric value at the start is a precondition failure
    weak = rl.randers_closed_form(
        rl.MagneticLagrangian(2, np.eye(2), beta=np.array([1.2, 0.0])), 0.3
    )
    assert weak.value(np.zeros(2), np.array([-1.0, 0.0])) < 0.0
    with pytest.raises(rl.PreconditionError):
        rl.integrate_geodesic(weak, np.zeros(2), np.array([-1.0, 0.0]), 1.0)


def test_a_level_run_needs_an_energy_level_metric():
    with pytest.raises(TypeError, match="energy-level metric"):
        rl.integrate_geodesic(rl.poincare_randers(0.5), np.array([0.2, 0.0]),
                              np.array([0.0, 1.0]), 1.0, level=True)


def test_flat_disk_diameter_is_a_euclidean_line():
    # without rotation the hyperbolic geodesic through the center is a
    # diameter, hitting the boundary orthogonally
    R = rl.poincare_randers(0.0)
    traj = rl.integrate_geodesic(
        R, np.array([-0.6, 0.0]), np.array([1.0, 0.0]), 1.5, unit_speed=True
    )
    assert np.max(np.abs(traj.positions[:, 1])) < 1e-10
    fit = rl.circle_fit(traj.positions)
    assert fit.is_line
    assert rl.boundary_angle(fit) == pytest.approx(90.0, abs=0.1)


def test_flat_disk_offset_geodesic_is_an_orthogonal_circle():
    R = rl.poincare_randers(0.0)
    traj = rl.integrate_geodesic(
        R, np.array([0.5, 0.0]), np.array([0.0, 1.0]), 2.2, unit_speed=True
    )
    fit = rl.circle_fit(traj.positions)
    assert not fit.is_line
    assert fit.rms < 1e-6 * fit.radius
    assert rl.boundary_angle(fit) == pytest.approx(90.0, abs=0.1)


def test_projective_shift_reproduces_the_lagrangian_clock(rng):
    # shifting the spray by the energy-level factor turns arc-length
    # geodesics into solutions synchronized with the original EL time
    L = rl.MechanicalLagrangian(
        2, np.eye(2), potential=lambda xs: 0.5 * (xs[0] ** 2 + 4.0 * xs[1] ** 2)
    )
    e = 3.0
    Fe = rl.jacobi_finsler(L, e)
    x0 = np.array([0.4, -0.2])
    v0 = rl.rescale_to_energy(L, x0, np.array([0.7, 0.9]), e)
    t_end = 1.2
    el = rl.integrate_el(L, x0, v0, t_end, tol=1e-11)
    geo = rl.integrate_geodesic(Fe, x0, v0, t_end, tol=1e-11, level=True)
    gap = np.max(np.abs(el.positions - geo.positions))
    assert gap < 1e-9, f"pointwise mismatch {gap:.3e}"
    assert geo.meta["level_conserving"]
    # the log is the energy the run holds
    np.testing.assert_array_equal(geo.energy_log,
                                  rl.lagrangian.energies(L, geo.positions, geo.velocities))


def test_unshifted_geodesic_traces_the_same_set_at_its_own_pace():
    L = rl.MechanicalLagrangian(
        2, np.eye(2), potential=lambda xs: 0.5 * (xs[0] ** 2 + 4.0 * xs[1] ** 2)
    )
    e = 3.0
    Fe = rl.jacobi_finsler(L, e)
    x0 = np.array([0.4, -0.2])
    v0 = rl.rescale_to_energy(L, x0, np.array([0.7, 0.9]), e)
    el = rl.integrate_el(L, x0, v0, 0.7, tol=1e-11)
    # metric length of the EL trace
    length = np.trapezoid(
        [Fe.value(x, v) for x, v in zip(el.positions, el.velocities)], el.times
    )
    arc = rl.integrate_geodesic(Fe, x0, v0, float(length), unit_speed=True, tol=1e-11)
    el_pts = el.dense.sample(np.linspace(0.0, el.times[-1], 4001))[:, :2]
    arc_pts = arc.dense.sample(np.linspace(0.0, arc.times[-1], 4001))[:, :2]
    gap = rl.point_set_distance(el_pts, arc_pts)
    assert gap < 1e-6


def test_singular_fundamental_tensor_is_reported():
    # a linear function is 1-homogeneous but its half-square has a rank-1
    # velocity Hessian, so the spray solve must fail loudly
    thin = rl.parse_lagrangian("v1 - v2", dim=2)
    accel = rl.canonical_spray(thin)
    with pytest.raises(rl.SingularHessian):
        accel(np.zeros(2), np.array([2.0, 1.0]))


# -- the generated spray of a traced level metric -----------------------------

def _conformal(xs):
    c = 1.0 + 0.3 * ((xs[0] * 0.7) * (xs[0] * 0.7) + xs[1] * xs[1])
    return [[c, 0.0], [0.0, c]]


# (base, energy, half-width of x or None for Kepler's x1 in [0.8, 2]); DSL
# models last: Kepler, a guarded sqrt, and the elimination in 3 and 1 dimensions
_TRACED_BASES = {
    "oscillator": (rl.MechanicalLagrangian(
        2, np.eye(2), potential=lambda xs: 0.5 * (xs[0] * xs[0] + xs[1] * xs[1])), 2.0, 0.5),
    "disk": (rl.poincare_disk_lagrangian(), 2.0, 0.4),
    "magnetic": (rl.MagneticLagrangian(2, _conformal, beta=np.array([0.1, -0.2]),
                                       potential=lambda xs: 0.2 * xs[0] * xs[0]), 2.0, 0.5),
    "power4": (rl.PowerQuadraticLagrangian(2, np.diag([1.0, 1.5]), degree=4.0), 2.0, 0.5),
    "kepler": (rl.parse_lagrangian("0.5*(v1^2 + x1^2*v2^2) + 1/x1", dim=2,
                                   domain=lambda x: x[0] > 0.1), -0.3, None),
    "sqrt-guard": (rl.parse_lagrangian("0.5*(v1^2 + v2^2) - sqrt(2 - x1^2 - x2^2)", dim=2),
                   3.0, 0.5),
    "coupled-3d": (rl.parse_lagrangian(
        "0.5*(v1^2 + (1 + x1^2)*v2^2 + v3^2) + 0.3*v1*v3 + 0.1*x2*v1 - 0.2*x3^2", dim=3), 2.0, 0.5),
    "oscillator-1d": (rl.parse_lagrangian("0.5*v1^2 - 0.5*x1^2", dim=1), 1.0, 0.5),
}


def _state(rng, half_width, n=2):
    x = (np.array([rng.uniform(0.8, 2.0), rng.uniform(-1.0, 1.0)]) if half_width is None
         else rng.uniform(-half_width, half_width, n))
    return x, rng.uniform(-1.0, 1.0, n)


def _numpy_spray(F, level):
    accel = _assembled_spray(F)
    return projective_shift(accel, F.level_jet) if level else accel


@pytest.mark.parametrize("family", list(_TRACED_BASES))
def test_generated_spray_matches_the_numpy_assembly(rng, family):
    # the kernel reorders no sum, but numpy's products and LAPACK's solve
    # may fuse multiply-adds, so the results agree to rounding, not bits
    L, e, half_width = _TRACED_BASES[family]
    F = rl.jacobi_finsler(L, e)
    assert L.expression is not None
    for level in (False, True):
        generated, oracle = _spray(F, level), _numpy_spray(F, level)
        done = 0
        while done < 300:
            x, y = _state(rng, half_width, L.dim)
            try:
                want = oracle(x, y)
            except rl.RouthlabError:
                continue
            got = generated(x, y)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), (family, x, y)
            done += 1


@pytest.mark.parametrize("family", list(_TRACED_BASES))
def test_level_kernels_match_the_scale_solve_and_numpy_assembly(rng, family, level_parity):
    # every order of eval is one kernel call, and none of these points
    # leaves the scale solve's usual path, so none declines; the parity is a
    # tolerance, not bits, as level_parity says
    L, e, half_width = _TRACED_BASES[family]
    F = rl.jacobi_finsler(L, e)
    declined = sum(not level_parity(F, *_state(rng, half_width, L.dim)) for _ in range(300))
    assert declined == 0


@pytest.mark.parametrize("family", ["oscillator", "disk", "magnetic", "power4"])
def test_an_equivalence_check_solves_for_the_scale_only_to_rescale_its_start(monkeypatch, family):
    # criterion 5's families: the level kernels solve for s inside every
    # right-hand side, energy log and arc length of the check
    L, e, _ = _TRACED_BASES[family]
    calls = {"rescale": 0, "metric": 0}
    solve = rl.homogenize.solve_energy_scale

    def counted(caller):
        def call(*args):
            calls[caller] += 1
            return solve(*args)
        return call

    monkeypatch.setattr(rl.verify, "solve_energy_scale", counted("rescale"))
    monkeypatch.setattr(rl.homogenize, "solve_energy_scale", counted("metric"))
    x0 = np.array([0.2, -0.1])
    v0 = rl.rescale_to_energy(L, x0, np.array([0.6, 0.8]), e)
    report = rl.check_geodesic_equivalence(L, e, x0, v0, 0.6, samples=101)
    assert report.overall
    assert calls == {"rescale": 1, "metric": 0}


def test_generated_spray_matches_finite_differences_of_the_metric(rng):
    # an oracle independent of both assemblies: the spray of fd_jet(F),
    # at criterion 7's step and scaling
    h = float(np.finfo(float).eps) ** 0.25
    worst = 0.0
    for family in ("disk", "magnetic", "kepler"):
        L, e, half_width = _TRACED_BASES[family]
        F = rl.jacobi_finsler(L, e)
        accel = rl.canonical_spray(F)
        for _ in range(20):
            x, y = _state(rng, half_width)
            y *= rng.uniform(0.7, 1.5) / float(np.linalg.norm(y))
            j = rl.fd_jet(F, x, y, h=h)
            e_yy = np.outer(j.d_y, j.d_y) + j.value * j.d_yy
            e_xy = np.outer(j.d_x, j.d_y) + j.value * j.d_xy
            want = np.linalg.solve(e_yy, j.value * j.d_x - e_xy.T @ y)
            got = accel(x, y)
            worst = max(worst, float(np.max(np.abs(got - want))) / (1.0 + float(np.max(np.abs(want)))))
    assert worst <= 1e-6, worst


def _outcome(f):
    try:
        return f()
    except Exception as exc:  # noqa: BLE001 - the type and message are compared
        return type(exc), str(exc)


@pytest.mark.parametrize("source, e, x, y, raised", [
    # a velocity Hessian of rank one: both solves meet an exact zero pivot
    ("0.5*v1^2 + v2", 1.0, [0.3, -0.2], [1.0, 1.0], (rl.SingularHessian,) * 2),
    # the fiber probes read x1 as a float, the full jet's guard refuses sqrt(x1) at 0
    ("0.5*(v1^2 + v2^2) + sqrt(x1)", 1.0, [0.0, 0.3], [0.4, 0.7], (rl.DomainError,) * 2),
    # a velocity too short for the level's denominator
    ("0.5*(v1^2 + v2^2) - 0.5*x1^2", 1.0, [0.2, 0.1], [1e-8, 0.0], (None, rl.DomainError)),
])
def test_generated_spray_raises_what_the_numpy_assembly_raises(source, e, x, y, raised):
    F = rl.jacobi_finsler(rl.parse_lagrangian(source, dim=2), e)
    x, y = np.array(x), np.array(y)
    for level, error in zip((False, True), raised):
        want = _outcome(lambda: _numpy_spray(F, level)(x, y))
        got = _outcome(lambda: _spray(F, level)(x, y))
        if error is None:
            np.testing.assert_allclose(got, want, rtol=1e-14)
        else:
            assert want[0] is error and got == want, (source, level, got)


def _assembly_calls(monkeypatch, F, level):
    """(half_square_jet calls, JacobiFinslerModel.eval calls) per right-hand side of one run."""
    counts = {"half": 0, "eval": 0}
    half, evaluate = rl.spray.half_square_jet, rl.JacobiFinslerModel.eval

    def counted_half(*args):
        counts["half"] += 1
        return half(*args)

    def counted_eval(self, x, y, order=2):
        counts["eval"] += order == 2  # the start's value and the energy log are order 0
        return evaluate(self, x, y, order)

    monkeypatch.setattr(rl.spray, "half_square_jet", counted_half)
    monkeypatch.setattr(rl.JacobiFinslerModel, "eval", counted_eval)
    x0 = np.array([0.2, -0.1])
    run = rl.integrate_geodesic(F, x0, rl.rescale_to_energy(F.base, x0, np.array([0.6, 0.8]), F.e),
                                0.5, level=level, samples=11)
    monkeypatch.undo()
    return counts["half"] / run.stats.rhs_evals, counts["eval"] / run.stats.rhs_evals


def test_only_traced_level_metrics_with_their_own_level_run_the_kernel(monkeypatch):
    traced = rl.jacobi_finsler(_TRACED_BASES["oscillator"][0], 2.0)
    for level in (False, True):
        assert _assembly_calls(monkeypatch, traced, level) == (0.0, 0.0)
    # a base without a tree: a reduction, here by the cyclic x3
    base = rl.parse_lagrangian("0.5*(v1^2 + v2^2 + (2 + x1^2)*v3^2) - 0.5*(x1^2 + x2^2)", dim=3)
    untraced = rl.jacobi_finsler(rl.routhian(base, rl.CyclicSplit.of(3, [2]), np.array([0.3])), 2.0)
    assert untraced.base.expression is None
    for level in (False, True):
        half, evals = _assembly_calls(monkeypatch, untraced, level)
        assert half >= 1.0 and evals >= 1.0, level


def test_a_position_outside_the_domain_raises_at_the_first_probe():
    # no scale of the velocity moves a position, so a generated right-hand
    # side checks the position once, as its kernel's guard, and runs no jet
    # of the base outside the kernel, inside the domain or out of it
    L = rl.poincare_disk_lagrangian()
    calls = {"domain": 0, "jets": 0}
    predicate, fiber_jet = L._domain, L.fiber_jet

    def counted_predicate(x):
        calls["domain"] += 1
        return predicate(x)

    def counted_jet(x, y):
        calls["jets"] += 1
        return fiber_jet(x, y)

    # the predicate is traced once, when it is set, and the level metric
    # takes the base's guard when it is built
    L._domain, L.fiber_jet = counted_predicate, counted_jet
    accel = rl.canonical_spray(rl.jacobi_finsler(L, 2.0))
    with pytest.raises(rl.PositionDomainError):
        accel(np.array([1.5, 0.0]), np.array([0.3, 0.4]))
    assert calls == {"domain": 1, "jets": 0}
    calls.update(domain=0, jets=0)
    rng = np.random.default_rng(5)
    for x, y in zip(rng.uniform(-0.5, 0.5, (50, 2)), rng.uniform(-1.0, 1.0, (50, 2))):
        accel(x, y)
    assert calls == {"domain": 0, "jets": 0}
