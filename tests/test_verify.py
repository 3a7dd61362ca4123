"""Curve comparison, circle fitting, and the flow-equivalence report."""

import numpy as np
import pytest

import routhlab as rl
from routhlab import verify


def unit_circle(n=200, t0=0.0, t1=2 * np.pi, r=1.0, c=(0.0, 0.0)):
    t = np.linspace(t0, t1, n)
    return np.column_stack([c[0] + r * np.cos(t), c[1] + r * np.sin(t)])


class TestPointSetDistance:
    def test_identical_curves_have_zero_distance(self):
        a = unit_circle(150, 0, np.pi)
        assert rl.point_set_distance(a, a.copy()) == 0.0

    def test_orientation_is_ignored(self):
        a = unit_circle(150, 0, np.pi)
        assert rl.point_set_distance(a, a[::-1].copy()) < 1e-12

    def test_symmetry(self, rng):
        t = np.linspace(0, 1, 80)
        a = np.column_stack([t, t ** 2])
        b = np.column_stack([t, t ** 2 + 0.01 * np.sin(6 * t)])
        d_ab = rl.point_set_distance(a, b)
        d_ba = rl.point_set_distance(b, a)
        assert d_ab == d_ba
        assert 0.003 < d_ab < 0.011

    def test_separated_curves_report_their_gap(self):
        t = np.linspace(0, 1, 50)
        a = np.column_stack([t, np.zeros_like(t)])
        b = np.column_stack([t, np.full_like(t, 0.25)])
        assert rl.point_set_distance(a, b) == pytest.approx(0.25, abs=1e-12)

    def test_resampling_is_arclength_uniform(self):
        # same segment sampled uniformly and very unevenly
        t = np.linspace(0, 1, 400)
        a = np.column_stack([t, 2 * t])
        s = t ** 3
        b = np.column_stack([s, 2 * s])
        assert rl.point_set_distance(a, b) < 1e-12

    def test_shape_and_degeneracy_errors(self):
        with pytest.raises(ValueError):
            rl.point_set_distance(np.zeros((5, 2)), np.zeros((5, 3)))
        with pytest.raises(rl.DegenerateCurve):
            rl.point_set_distance(np.zeros((1, 2)), unit_circle(10))
        with pytest.raises(rl.DegenerateCurve):
            rl.point_set_distance(np.zeros((30, 2)), unit_circle(10))


def _circle_run(r, omega, turns, tol=1e-13):
    """A solve_ode run of the circle of radius r at angular speed omega from (r, 0)."""
    dense, _ = rl.solve_ode(lambda t, y: [-omega * y[1], omega * y[0]], [r, 0.0],
                            turns * 2 * np.pi / abs(omega), tol=tol)
    return dense


class TestDenseTraceDistance:
    def test_table_length_of_a_circle(self):
        for r, omega in ((1.0, 1.0), (0.3, 5.0), (2.5, -0.7)):
            _, table = verify._arc_table(_circle_run(r, omega, 1.0), 2)
            assert table[-1] == pytest.approx(2 * np.pi * r, abs=1e-12)

    def test_runs_of_one_ode_at_two_tolerances_agree(self):
        def pendulum(t, y):
            return [y[1], -np.sin(y[0])]

        coarse, _ = rl.solve_ode(pendulum, [2.0, 0.0], 12.0, tol=1e-10)
        fine, _ = rl.solve_ode(pendulum, [2.0, 0.0], 12.0, tol=1e-12)
        assert verify._dense_trace_distance(coarse, fine, 2) <= 1e-9

    def test_concentric_arcs_read_their_closed_form_gap(self):
        # equal turning angle phi: the points at arc length s sit at angles
        # s/r and s/R, so the gap is largest at the shorter arc's end
        r, delta, phi = 1.0, 1e-3, 1.5
        big = r + delta
        gap = verify._dense_trace_distance(
            _circle_run(r, 1.0, phi / (2 * np.pi)), _circle_run(big, 0.5, phi / (2 * np.pi)), 2
        )
        closed = np.sqrt(r * r + big * big - 2 * r * big * np.cos(phi * (1 - r / big)))
        assert gap == pytest.approx(closed, abs=1e-12)
        assert delta < gap < 1.01 * np.hypot(delta, phi * delta)

    def test_slow_parametrization_is_the_same_curve(self):
        # one circle traced at two speeds reads zero, however uneven the steps
        fast, slow = _circle_run(1.0, 3.0, 0.4), _circle_run(1.0, 0.2, 0.4)
        assert verify._dense_trace_distance(fast, slow, 2) <= 1e-11

    def test_zero_length_curves_raise(self):
        still, _ = rl.solve_ode(lambda t, y: [0.0, 0.0], [0.5, 0.5], 1.0)
        with pytest.raises(rl.DegenerateCurve):
            verify._dense_trace_distance(still, _circle_run(1.0, 1.0, 0.5), 2)


class TestCircleFit:
    def test_exact_circle_is_recovered(self, rng):
        for _ in range(10):
            c = rng.uniform(-1, 1, 2)
            r = rng.uniform(0.3, 2.0)
            t0 = rng.uniform(0, 2 * np.pi)
            arc = unit_circle(120, t0, t0 + rng.uniform(1.0, 5.0), r, c)
            fit = rl.circle_fit(arc)
            assert not fit.is_line
            np.testing.assert_allclose(fit.center, c, atol=1e-9)
            assert fit.radius == pytest.approx(r, abs=1e-9)
            assert fit.rms < 1e-10

    def test_line_is_detected(self):
        t = np.linspace(-1, 1, 60)
        pts = np.column_stack([t, 0.5 - t])
        fit = rl.circle_fit(pts)
        assert fit.is_line
        assert fit.rms < 1e-12
        # distance of the line x + y = 0.5 from the origin
        assert abs(fit.offset) == pytest.approx(0.5 / np.sqrt(2), abs=1e-12)

    def test_degenerate_inputs_raise(self):
        with pytest.raises(rl.DegenerateCurve):
            rl.circle_fit(np.zeros((2, 2)))
        with pytest.raises(rl.DegenerateCurve):
            rl.circle_fit(np.tile([0.3, 0.4], (25, 1)))

    def test_noisy_circle_rms_matches_noise_level(self, rng):
        arc = unit_circle(400, 0, 2 * np.pi, 1.5, (0.2, -0.1))
        arc += rng.normal(0, 1e-6, arc.shape)
        fit = rl.circle_fit(arc)
        assert fit.rms < 5e-6
        assert fit.radius == pytest.approx(1.5, abs=1e-6)


class TestBoundaryAngle:
    def test_orthogonal_circle(self):
        # circle centered at distance d with r^2 = d^2 - 1 meets the unit
        # circle at right angles
        d = 1.5
        r = np.sqrt(d * d - 1.0)
        arc = unit_circle(100, 0, 2 * np.pi, r, (d, 0.0))
        assert rl.boundary_angle(rl.circle_fit(arc)) == pytest.approx(90.0, abs=1e-9)

    def test_internally_tangent_circle(self):
        arc = unit_circle(100, 0, 2 * np.pi, 0.25, (0.75, 0.0))
        assert rl.boundary_angle(rl.circle_fit(arc)) == pytest.approx(0.0, abs=1e-6)

    def test_diameter_line_is_orthogonal(self):
        t = np.linspace(-0.9, 0.9, 50)
        pts = np.column_stack([t, np.zeros_like(t)])
        assert rl.boundary_angle(rl.circle_fit(pts)) == pytest.approx(90.0)

    def test_chord_line_angle(self):
        # the line y = 1/2 meets the unit circle at 60 degrees from the
        # radial direction: cos(angle) = 1/2
        t = np.linspace(-0.8, 0.8, 50)
        pts = np.column_stack([t, np.full_like(t, 0.5)])
        assert rl.boundary_angle(rl.circle_fit(pts)) == pytest.approx(60.0, abs=1e-9)

    def test_no_intersection_raises(self):
        arc = unit_circle(80, 0, 2 * np.pi, 0.2, (3.0, 0.0))
        with pytest.raises(rl.NoIntersection):
            rl.boundary_angle(rl.circle_fit(arc))
        inner = unit_circle(80, 0, 2 * np.pi, 0.1, (0.0, 0.0))
        with pytest.raises(rl.NoIntersection):
            rl.boundary_angle(rl.circle_fit(inner))


class TestRescale:
    def test_rescale_hits_the_requested_level(self, rng):
        L = rl.MagneticLagrangian(
            2, np.eye(2), beta=np.array([0.2, 0.1]),
            potential=lambda xs: 0.3 * xs[0] ** 2,
        )
        for _ in range(20):
            x = rng.uniform(-0.5, 0.5, 2)
            v = rng.uniform(-1, 1, 2)
            if v @ v < 0.05:
                continue
            e = rng.uniform(0.5, 3.0)
            w = rl.rescale_to_energy(L, x, v, e)
            assert rl.energy(L, x, w) == pytest.approx(e, abs=1e-11)
            # direction is preserved
            assert v[0] * w[1] - v[1] * w[0] == pytest.approx(0.0, abs=1e-12)
            assert float(v @ w) > 0


class TestEquivalenceReport:
    def test_oscillator_report_passes_and_carries_metrics(self):
        L = rl.MechanicalLagrangian(
            2, np.eye(2), potential=lambda xs: 0.5 * (xs[0] * xs[0] + xs[1] * xs[1])
        )
        e = 5.0
        x0 = np.array([0.3, -0.4])
        v0 = rl.rescale_to_energy(L, x0, np.array([1.0, 0.7]), e)
        report = rl.check_geodesic_equivalence(L, e, x0, v0, 1.5)
        assert report.overall, report.summary()
        labels = [m.label for m in report.metrics]
        assert "trace_distance" in labels
        assert "pointwise_mismatch" in labels
        d = report.to_dict()
        assert d["overall"] is True
        assert d["error"] is None

    def test_energy_precondition_is_enforced(self):
        L = rl.MechanicalLagrangian(2, np.eye(2))
        with pytest.raises(rl.PreconditionError):
            rl.check_geodesic_equivalence(
                L, 5.0, np.zeros(2), np.array([1.0, 0.0]), 1.0
            )

    def test_report_fails_when_flow_leaves_domain(self):
        # hyperbolic disk at high energy: the flow crosses the boundary in
        # finite time; the isotropic oscillator from the origin at e = 0.5
        # reaches the zero-velocity (Hill) curve, where the unit-speed
        # affine run fails. Each must surface as a failed report naming
        # the run that raised, rather than an exception
        oscillator = rl.MechanicalLagrangian(
            2, np.eye(2), potential=lambda xs: 0.5 * (xs[0] * xs[0] + xs[1] * xs[1])
        )
        for L, e, x0, y0, t_end, run in (
            (rl.poincare_disk_lagrangian(), 16.0, [0.3, 0.0], [0.2, 1.0], 5.0,
             "Euler-Lagrange flow: "),
            (oscillator, 0.5, [0.0, 0.0], [1.0, 0.7], 1.5, "affine geodesic: StepFailure: "),
        ):
            x0 = np.array(x0)
            v0 = rl.rescale_to_energy(L, x0, np.array(y0), e)
            report = rl.check_geodesic_equivalence(L, e, x0, v0, t_end)
            assert not report.overall
            assert report.error is not None
            assert "DomainError" in report.error or "StepFailure" in report.error
            assert report.error.startswith(run), report.error


# (v0, t_end) from x0 = (0.9, 0.1): a slow start, and a start near the Hill boundary
OSCILLATOR_CASES = [((0.05, 0.05), 1.0), ((0.05, 0.05), 3.0),
                    ((0.1, 0.05), 0.5), ((0.1, 0.05), 3.0)]


def _oscillator_report(v0, t_end):
    L = rl.MechanicalLagrangian(
        2, np.eye(2), potential=lambda xs: 0.5 * (xs[0] * xs[0] + 4.0 * xs[1] * xs[1])
    )
    x0, v0 = np.array([0.9, 0.1]), np.array(v0)
    return rl.check_geodesic_equivalence(L, rl.energy(L, x0, v0), x0, v0, t_end,
                                         samples=801, tol=1e-10)


def _trace_distance(report):
    return next(m.value for m in report.metrics if m.label == "trace_distance")


class TestSlowPointTraces:
    """Slow points of the Lagrangian flow are fast stretches of the unit-speed
    geodesic; the trace comparison must not read them as a gap."""

    @pytest.mark.parametrize("v0, t_end", OSCILLATOR_CASES)
    def test_slow_and_near_hill_cases_pass(self, v0, t_end):
        report = _oscillator_report(v0, t_end)
        assert report.overall, report.summary()
        assert _trace_distance(report) <= 1e-10

    def test_long_near_hill_case_fails_on_the_speed_drift_alone(self):
        report = _oscillator_report((0.1, 0.05), 6.0)
        failed = [(m.label, m.tolerance) for m in report.metrics if not m.passed]
        assert failed == [("geodesic_speed_drift", 1e-8)], report.summary()
        assert _trace_distance(report) <= 1e-9

    def test_distance_is_converged_in_table_and_newton_steps(self, monkeypatch):
        before = [_oscillator_report(*case) for case in OSCILLATOR_CASES]
        monkeypatch.setattr(verify, "_SUBINTERVALS", 2 * verify._SUBINTERVALS)
        monkeypatch.setattr(verify, "_NEWTON", 2 * verify._NEWTON)
        after = [_oscillator_report(*case) for case in OSCILLATOR_CASES]
        for a, b in zip(before, after):
            assert abs(_trace_distance(a) - _trace_distance(b)) <= 1e-11

    def test_points_drawn_do_not_scale_with_length(self, monkeypatch):
        # a long arc (metric length 39) drew 400,000 points per curve
        # on a grid scaled by length; the comparison draws a fixed number
        drawn = []
        sample = rl.DenseOutput.sample

        def counted(self, times, components=slice(None)):
            drawn.append(np.size(times))
            return sample(self, times, components)

        monkeypatch.setattr(rl.DenseOutput, "sample", counted)
        L = rl.MechanicalLagrangian(
            2, np.eye(2), potential=lambda xs: 0.5 * (xs[0] * xs[0] + xs[1] * xs[1])
        )
        x0 = np.array([0.3, -0.4])
        v0 = rl.rescale_to_energy(L, x0, np.array([1.0, 0.7]), 5.0)
        report = rl.check_geodesic_equivalence(L, 5.0, x0, v0, 8.0, samples=401)
        assert report.overall, report.summary()
        assert sum(drawn) <= 2 * verify._RESAMPLE + 3 * 401
