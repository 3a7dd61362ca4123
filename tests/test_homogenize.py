"""Homogenization, energy-level metrics, and their closed forms."""

import hashlib
import importlib
import re

import numpy as np
import pytest

import routhlab as rl
from hyperdual import seed_second
from routhlab.jets import tree_kernel


def conformal_magnetic():
    return rl.MagneticLagrangian(
        2,
        lambda xs: [
            [1.0 + 0.3 * (0.49 * xs[0] * xs[0] + xs[1] * xs[1]), 0.0],
            [0.0, 1.0 + 0.3 * (0.49 * xs[0] * xs[0] + xs[1] * xs[1])],
        ],
        beta=np.array([0.1, -0.2]),
        potential=lambda xs: 0.2 * xs[0] * xs[0],
    )


def relativistic():
    return rl.parse_lagrangian("-sqrt(1 - v1^2 - v2^2) - 0.1*x1^2", dim=2)


def scale_families():
    """name -> (model, energy range, fiber-jet probes allowed per solve)."""
    return {
        "mechanical": (rl.MechanicalLagrangian(
            2, np.diag([1.0, 2.0]), potential=lambda xs: 0.5 * (xs[0] ** 2 + xs[1] ** 2)),
            (0.5, 5.0), 2),
        "magnetic": (conformal_magnetic(), (0.5, 5.0), 2),
        "disk": (rl.poincare_disk_lagrangian(), (0.5, 16.0), 2),
        "power3": (rl.PowerQuadraticLagrangian(2, np.diag([1.0, 1.5]), degree=3), (0.1, 10.0), 3),
        "power4": (rl.PowerQuadraticLagrangian(2, np.diag([1.0, 1.5]), degree=4), (0.1, 10.0), 3),
    }


def scale_cases(rng, lo_e, hi_e, n=40):
    for _ in range(n):
        x = rng.uniform(-0.5, 0.5, 2)
        y = rng.uniform(-3.0, 3.0, 2)
        if y @ y < 0.05:
            continue
        yield x, y, float(np.exp(rng.uniform(np.log(lo_e), np.log(hi_e))))


def bisection_scale(L, x, y, e):
    """Reference root of E(x, y/s) = e by plain bisection down to adjacent floats.

    A scale whose velocity leaves the fiber domain counts as lying below the
    root, as it does where the energy grows without bound toward the edge of
    the domain (the light cone of the relativistic model).
    """
    def res(s):
        try:
            return rl.energy(L, x, y / s) - e
        except rl.DomainError:
            return np.inf

    lo = hi = float(np.linalg.norm(y))
    while res(lo) <= 0.0:
        lo *= 0.5
    while res(hi) > 0.0:
        hi *= 2.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return min((lo, hi), key=lambda s: abs(res(s)))
        if res(mid) > 0.0:
            lo = mid
        else:
            hi = mid


# rays, energies and roots of the relativistic model at x = (0.3, 0), with the
# probe counts of the bracket-then-Newton solve that the model step replaced
RELATIVISTIC_ROOTS = [
    ((0.1, 0.05), 1.2, 0.2058395840401688, 8),
    ((0.1, 0.05), 5.0, 0.11411744844263146, 12),
    ((0.1, 0.05), 40.0, 0.11183836956554388, 18),
    ((3.0, 1.0), 1.2, 5.822022628456863, 8),
    ((3.0, 1.0), 5.0, 3.2277288658196364, 12),
    ((3.0, 1.0), 40.0, 3.163266780665731, 18),
    ((0.9, 0.1), 1.2, 1.6671735644118248, 8),
    ((0.9, 0.1), 5.0, 0.9242808868315496, 12),
    ((0.9, 0.1), 40.0, 0.9058217548195637, 18),
]


STEEP_RAYS = [(0.1, 0.05), (3.0, 1.0), (0.9, 0.1)]
STEEP_ENERGIES = [200.0, 1000.0, 1e4]


def relativistic_sweep():
    """The 600 rays at level 2 of the first-probe sweep, as (x, y, e)."""
    rng = np.random.default_rng(0)
    out = []
    for _ in range(600):
        x = rng.uniform(-0.5, 0.5, 2)
        out.append((x, rng.uniform(-2.0, 2.0, 2), 2.0))
    return out


def steep_rays():
    """The rays whose root lies where no float meets the tolerance, as (x, y, e)."""
    return [(np.array([0.3, 0.0]), np.array(ray), e)
            for e in STEEP_ENERGIES for ray in STEEP_RAYS]


def assert_batch_is_row_loop(F, xs, ys):
    """eval_batch at orders 0 and 1 has the bits, or the first error, of the row loop."""
    def outcome(f):
        try:
            out = f()
        except rl.RouthlabError as exc:
            return type(exc), str(exc)
        parts = out if isinstance(out, tuple) else (out,)
        return [np.asarray(p, float).tobytes() for p in parts]

    for order in (0, 1):
        def loop():
            rows = [F.eval(x, y, order) for x, y in zip(xs, ys)]
            return np.array(rows) if order == 0 else tuple(
                np.array([r[i] for r in rows]) for i in range(3))

        assert outcome(lambda: F.eval_batch(xs, ys, order)) == outcome(loop), order


class HoledKinetic:
    """L = |v|^2 / 2 whose fiber jet fails for 1 < |v| < 2."""

    def fiber_jet(self, x, y):
        y = np.asarray(y, float)
        if 1.0 < float(np.linalg.norm(y)) < 2.0:
            raise rl.DomainError("hole in the fiber domain")
        return 0.5 * float(y @ y), y.copy(), np.eye(len(y))


class TestHomogenization:
    def test_restriction_to_unit_slot_recovers_the_lagrangian(self, rng):
        L = conformal_magnetic()
        F = rl.HomogenizedLagrangian(L)
        assert F.dim == 3
        for _ in range(50):
            x = rng.uniform(-0.5, 0.5, 2)
            v = rng.uniform(-1.0, 1.0, 2)
            lifted = F.value(np.concatenate([[0.0], x]), np.concatenate([[1.0], v]))
            assert lifted == pytest.approx(L.value(x, v), rel=1e-14, abs=1e-14)

    def test_positive_one_homogeneity(self, rng):
        F = rl.HomogenizedLagrangian(conformal_magnetic())
        for _ in range(200):
            x = rng.uniform(-0.5, 0.5, 3)
            y = np.concatenate([[rng.uniform(0.2, 2.0)], rng.uniform(-1, 1, 2)])
            lam = rng.uniform(0.2, 5.0)
            a = F.value(x, lam * y)
            b = lam * F.value(x, y)
            assert a == pytest.approx(b, rel=1e-12)

    def test_slot_momentum_is_minus_the_energy(self, rng):
        # dF/dy0 at y0=1 equals L - v.dL/dv, the negative of the energy
        L = conformal_magnetic()
        F = rl.HomogenizedLagrangian(L)
        for _ in range(50):
            x = rng.uniform(-0.5, 0.5, 2)
            v = rng.uniform(-1.0, 1.0, 2)
            j = F.eval(np.concatenate([[0.0], x]), np.concatenate([[1.0], v]))
            assert j.d_y[0] == pytest.approx(-rl.energy(L, x, v), rel=1e-13, abs=1e-13)

    def test_jets_match_finite_differences(self, rng):
        F = rl.HomogenizedLagrangian(conformal_magnetic())
        h = float(np.finfo(float).eps) ** 0.25
        for _ in range(10):
            x = rng.uniform(-0.4, 0.4, 3)
            y = np.concatenate([[rng.uniform(0.5, 1.5)], rng.uniform(-1, 1, 2)])
            a = F.eval(x, y)
            b = rl.fd_jet(F, x, y, h=h)
            np.testing.assert_allclose(a.d_x, b.d_x, atol=1e-7)
            np.testing.assert_allclose(a.d_y, b.d_y, atol=1e-7)
            np.testing.assert_allclose(a.d_yy, b.d_yy, atol=1e-6)
            np.testing.assert_allclose(a.d_xy, b.d_xy, atol=1e-6)

    def test_domain_requires_positive_slot_velocity(self):
        F = rl.HomogenizedLagrangian(conformal_magnetic())
        with pytest.raises(rl.DomainError):
            F.value(np.zeros(3), np.array([0.0, 1.0, 0.0]))
        with pytest.raises(rl.DomainError):
            F.value(np.zeros(3), np.array([-1.0, 1.0, 0.0]))

    def test_a_base_without_expr_is_refused(self):
        # the lift is written over its base's expr; reductions and level
        # metrics have none
        L = conformal_magnetic()
        kepler = rl.parse_lagrangian("0.5*(v1^2 + x1^2*v2^2) + 1/x1", dim=2)
        for base in (
            rl.routhian(kepler, rl.CyclicSplit.of(2, [1]), np.array([0.3]), verify=False),
            rl.jacobi_finsler(L, 2.0),
        ):
            with pytest.raises(TypeError, match="needs a base with an expr"):
                rl.HomogenizedLagrangian(base)

    def test_the_lift_of_a_numpy_coefficient_is_its_twins_lift(self, rng):
        # numpy's sin traces as duals.sin does, so a base that calls it, and
        # its lift, has its twin's tree, and every order gives the twin's bits
        L = rl.MagneticLagrangian(2, np.eye(2), potential=lambda xs: 0.3 * np.sin(xs[0]))
        T = rl.MagneticLagrangian(2, np.eye(2), potential=lambda xs: 0.3 * rl.duals.sin(xs[0]))
        lifted, twin = rl.HomogenizedLagrangian(L), rl.HomogenizedLagrangian(T)
        assert lifted.expression.tree == twin.expression.tree
        xs = rng.uniform(-2.0, 2.0, (50, 3))
        ys = np.column_stack([rng.uniform(0.2, 2.0, 50), rng.uniform(-1.0, 1.0, (50, 2))])
        for x, y in zip(xs, ys):
            a, b = lifted.eval(x, y), twin.eval(x, y)
            for block in ("value", "d_x", "d_y", "d_yy", "d_xy"):
                np.testing.assert_array_equal(getattr(a, block), getattr(b, block), err_msg=block)
            assert lifted.value(x, y) == twin.value(x, y)
            for p, q in zip(lifted.fiber_jet(x, y), twin.fiber_jet(x, y)):
                np.testing.assert_array_equal(p, q)


class TestEnergyScale:
    def test_scale_puts_state_on_the_level(self, rng):
        L = conformal_magnetic()
        for _ in range(50):
            x = rng.uniform(-0.5, 0.5, 2)
            y = rng.uniform(-1.0, 1.0, 2)
            if y @ y < 0.05:
                continue
            e = rng.uniform(0.5, 4.0)
            res = rl.solve_energy_scale(L, x, y, e)
            assert abs(rl.energy(L, x, y / res.s) - e) <= 1e-11 * (1 + abs(e))
            assert res.iterations < 60

    def test_scale_is_one_homogeneous_in_y(self, rng):
        L = conformal_magnetic()
        x = np.array([0.1, -0.2])
        y = np.array([0.7, 0.4])
        s1 = rl.solve_energy_scale(L, x, y, 2.0).s
        s2 = rl.solve_energy_scale(L, x, 3.0 * y, 2.0).s
        assert s2 == pytest.approx(3.0 * s1, rel=1e-10)

    @pytest.mark.parametrize("name", ["mechanical", "magnetic", "disk", "power3", "power4"])
    def test_probe_budget(self, rng, name):
        # the model step is exact for quadratic-plus-linear families and,
        # once k is refitted, for fiberwise-homogeneous ones
        L, (lo_e, hi_e), budget = scale_families()[name]
        for x, y, e in scale_cases(rng, lo_e, hi_e):
            assert rl.solve_energy_scale(L, x, y, e).iterations <= budget

    def test_matches_reference_bisection(self, rng):
        for name, (L, (lo_e, hi_e), _) in scale_families().items():
            for x, y, e in scale_cases(rng, lo_e, hi_e, n=10):
                s = rl.solve_energy_scale(L, x, y, e).s
                assert s == pytest.approx(bisection_scale(L, x, y, e), rel=1e-12), name

    @pytest.mark.parametrize("ray,e,root,probes", RELATIVISTIC_ROOTS)
    def test_relativistic_rays(self, ray, e, root, probes):
        # the level sits next to the light-cone pole of the energy, where
        # the model is poor and the bracket does the work
        L = relativistic()
        x, y = np.array([0.3, 0.0]), np.array(ray)
        res = rl.solve_energy_scale(L, x, y, e)
        assert res.iterations <= probes
        assert res.s == pytest.approx(root, rel=1e-12)
        assert res.s == pytest.approx(bisection_scale(L, x, y, e), rel=1e-12)

    def test_first_probe_outside_a_bounded_fiber_domain(self):
        # y/|y| often rounds onto or past the light cone |v| = 1; the level
        # e = 2 lies above the rest energy 1 + V on every ray, so every
        # ray has a root
        L = relativistic()
        outside = 0
        for x, y, _ in relativistic_sweep():
            try:
                rl.energy(L, x, y / np.linalg.norm(y))
            except rl.DomainError:
                outside += 1
            s = rl.solve_energy_scale(L, x, y, 2.0).s
            assert s == pytest.approx(bisection_scale(L, x, y, 2.0), rel=1e-12)
        assert outside >= 300

    @pytest.mark.parametrize("e", STEEP_ENERGIES)
    @pytest.mark.parametrize("ray", STEEP_RAYS)
    def test_steep_root_between_adjacent_floats(self, ray, e):
        # the energy is so steep at the root that no float meets the
        # residual tolerance; the solve stops once the sign change lies
        # between adjacent floats and reports the probed residual
        L = relativistic()
        x, y = np.array([0.3, 0.0]), np.array(ray)
        res = rl.solve_energy_scale(L, x, y, e)
        assert res.s == pytest.approx(bisection_scale(L, x, y, e), rel=1e-12)
        assert res.residual == rl.energy(L, x, y / res.s) - e

    def test_sweeps_keep_their_solves(self):
        # s, residual and probe count of every solve on the two relativistic
        # sweeps, as the solve gave them before its rules became a routine
        # driven probe by probe
        L = relativistic()
        for sweep, digest, probes in (
            (relativistic_sweep(), "e0b89dd33b660113", 4416),
            (steep_rays(), "f3324d4b06b7eb7d", 169),
        ):
            results = np.array([
                (r.s, r.residual, r.iterations)
                for r in (rl.solve_energy_scale(L, x, y, e) for x, y, e in sweep)
            ])
            assert results[:, 2].sum() == probes
            assert hashlib.sha256(results.tobytes()).hexdigest()[:16] == digest

    def test_lockstep_batch_equals_the_row_loop_on_the_relativistic_sweeps(self):
        # one batch of 600 rays, most of them starting outside the light cone
        sweep = relativistic_sweep()
        xs, ys = (np.array([case[i] for case in sweep]) for i in (0, 1))
        assert_batch_is_row_loop(rl.jacobi_finsler(relativistic(), 2.0), xs, ys)
        # steep rays among ordinary ones take more probes than the level
        # kernels write, so their rows run the solve
        for e in STEEP_ENERGIES:
            xs_e = np.concatenate([xs[:40], [[0.3, 0.0]] * len(STEEP_RAYS)])
            ys_e = np.concatenate([ys[:40], STEEP_RAYS])
            order = np.random.default_rng(3).permutation(len(xs_e))
            xs_e, ys_e = xs_e[order], ys_e[order]
            probes = {rl.solve_energy_scale(relativistic(), x, y, e).iterations
                      for x, y in zip(xs_e, ys_e)}
            assert len(probes) >= 3
            assert_batch_is_row_loop(rl.jacobi_finsler(relativistic(), e), xs_e, ys_e)

    def test_lockstep_batch_raises_what_the_first_failing_row_raises(self):
        # the rest energy is 1 + 0.1 x1^2: level 1.05 lies below it where
        # |x1| > 0.71, and those rows stagnate
        F = rl.jacobi_finsler(relativistic(), 1.05)
        rng = np.random.default_rng(4)
        xs = np.stack([rng.uniform(-1.0, 1.0, 60), rng.uniform(-0.5, 0.5, 60)], 1)
        ys = rng.uniform(-2.0, 2.0, (60, 2))
        unreachable = 0.1 * xs[:, 0] ** 2 > 0.05
        assert 10 <= unreachable.sum() <= 50
        for rows in (np.arange(60), np.flatnonzero(unreachable)[::-1]):
            with pytest.raises(rl.EnergyUnreachable, match="stagnates"):
                F.eval_batch(xs[rows], ys[rows])
            assert_batch_is_row_loop(F, xs[rows], ys[rows])
        F.eval_batch(xs[~unreachable], ys[~unreachable])
        assert_batch_is_row_loop(F, xs[~unreachable], ys[~unreachable])

    def test_level_kernels_match_the_scale_solve_on_the_relativistic_rays(self, level_parity):
        # the first probe of most sweep rays leaves the light cone, and the
        # steep rays and the rows below the rest energy take more probes than
        # the kernels write: each declines, and the solve gives its bits or
        # raises its error
        L = relativistic()
        cases = relativistic_sweep() + steep_rays()
        rng = np.random.default_rng(4)
        xs = np.stack([rng.uniform(-1.0, 1.0, 60), rng.uniform(-0.5, 0.5, 60)], 1)
        cases += [(x, y, 1.05) for x, y in zip(xs, rng.uniform(-2.0, 2.0, (60, 2)))]
        for x, y, e in cases:
            level_parity(rl.jacobi_finsler(L, e), x, y)

    def test_level_kernels_decline_where_the_scale_rules_leave_their_usual_path(self):
        # the kernels write the solve's first two or three probes; a point the
        # rules take elsewhere goes to the solve, which takes it there
        osc = rl.MechanicalLagrangian(2, np.eye(2), potential=lambda xs: 0.5 * (xs[0] * xs[0] + xs[1] * xs[1]))
        power4 = rl.PowerQuadraticLagrangian(2, np.diag([1.0, 1.5]), degree=4)
        x, y = [0.3, 0.4], [0.6, 0.8]
        for L, e, x, y, probes, declines in (
            (osc, 2.0, x, y, 2, False),
            (power4, 2.0, x, y, 3, False),
            (osc, 0.625, x, y, 1, True),  # E = e at the first probe
            (relativistic(), 2.0, x, [3.0, 4.0], 8, True),  # the first probe is on the light cone
            # the model step keeps the residual's sign and more than half of it,
            # so the rules take a geometric step next
            (rl.parse_lagrangian("(v1^2 + 2*v2^2)^0.6", dim=2), 3.583839071705356,
             [0.27901175151063984, -0.02990431677853045], [-1.107492153669115, -0.4879113548758043], 4, True),
        ):
            assert rl.solve_energy_scale(L, np.array(x), np.array(y), e).iterations == probes
            kernel = rl.jacobi_finsler(L, e)._level_kernel("level-value", x, y)
            assert (kernel is None) == declines, (probes, kernel)
        assert rl.jacobi_finsler(osc, 2.0)._level_kernel("level-value", [0.3, 0.4], [0.0, 0.0]) is None

    def test_a_batch_over_an_untraced_base_evaluates_as_its_rows(self):
        # a reduction has no tree, so its level metric runs the scale solve on
        # every row; a batch gives the rows' bits, and a row whose first probe
        # raises (1/x1 at x1 = 0) raises what it raises and costs its own solve
        # and the rows before it, nothing more
        kepler = rl.parse_lagrangian("0.5*(v1^2 + x1^2*v2^2) + 1/x1", dim=2)
        L = rl.routhian(kepler, rl.CyclicSplit.of(2, [1]), np.array([0.3]), verify=False)
        F = rl.jacobi_finsler(L, 0.5)
        assert tree_kernel(L, "level-value") is None
        rng = np.random.default_rng(6)
        xs, ys = rng.uniform(0.5, 1.5, (100, 1)), rng.uniform(0.2, 1.0, (100, 1))
        np.testing.assert_array_equal(F.eval_batch(xs, ys, 0), [F.value(x, y) for x, y in zip(xs, ys)])
        rows = [F.fiber_jet(x, y) for x, y in zip(xs, ys)]
        for got, want in zip(F.eval_batch(xs, ys, 1), zip(*rows), strict=True):
            np.testing.assert_array_equal(got, np.array(want))
        xs[60, 0] = 0.0
        calls, evaluate = [0], L.eval

        def counted(*args):
            calls[0] += 1
            return evaluate(*args)

        L.eval = counted
        with pytest.raises(rl.DomainError) as batch:
            F.eval_batch(xs, ys)
        batch_calls, calls[0] = calls[0], 0
        with pytest.raises(rl.DomainError) as row:
            for x, y in zip(xs, ys):
                F.value(x, y)
        assert str(batch.value) == str(row.value)
        assert 0 < batch_calls <= calls[0]

    def test_a_level_batch_runs_its_rows_once(self):
        # over a traced base too, a failing row does not send the rows before
        # it through their level kernels a second time
        L = rl.MagneticLagrangian(2, np.eye(2), potential=lambda xs: 0.5 * xs[0] * xs[0] + 0.1 / xs[1])
        F = rl.jacobi_finsler(L, 2.0)
        rng = np.random.default_rng(6)
        xs, ys = rng.uniform(0.2, 0.5, (100, 2)), rng.uniform(-1.0, 1.0, (100, 2))
        xs[60, 1] = 0.0
        calls, level = [0], F._level_kernel

        def counted(*args):
            calls[0] += 1
            return level(*args)

        F._level_kernel = counted
        with pytest.raises(rl.DomainError):
            F.eval_batch(xs, ys)
        assert calls[0] == 61

    def test_solves_are_independent_of_call_order(self, rng):
        Fe = rl.jacobi_finsler(conformal_magnetic(), 2.0)
        cases = [(x, y) for x, y, _ in scale_cases(rng, 1.0, 2.0)]
        first = [Fe.energy_scale(x, y) for x, y in cases]
        order = rng.permutation(len(cases))
        again = {int(i): Fe.energy_scale(*cases[i]) for i in order}
        assert [again[i] for i in range(len(cases))] == first

    def test_domain_hole_inside_the_bracket_is_reported(self, monkeypatch):
        # every probe strictly between the bracket ends fails: the solve
        # must give up with a diagnosis that carries the last finite residual
        # the function routhlab.homogenize shadows the module of that name
        monkeypatch.setattr(importlib.import_module("routhlab.homogenize"), "SCALE_MAX_ITER", 20)
        with pytest.raises((rl.NoConvergence, rl.EnergyUnreachable)) as info:
            rl.solve_energy_scale(HoledKinetic(), np.zeros(2), np.array([1.0, 0.0]), 1.125)
        if info.type is rl.NoConvergence:
            assert "|residual| = 8.750e-01" in str(info.value)

    def test_relativistic_level_below_rest_energy_is_unreachable(self):
        with pytest.raises(rl.EnergyUnreachable, match="stagnates"):
            rl.solve_energy_scale(relativistic(), np.array([0.3, 0.0]), np.array([0.1, 0.05]), 0.5)

    def test_level_beyond_a_bounded_fiber_domain_is_unreachable(self):
        # E = |v|^2 / 2 < 1/2 on the fiber domain |v| < 1, so e = 1 is out
        # of reach, whether or not the first probe, at |v| = 1, rounds inside
        L = rl.parse_lagrangian("0.5*(v1^2 + v2^2) + 0*sqrt(1 - v1^2 - v2^2)", dim=2)
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.uniform(-0.5, 0.5, 2)
            y = rng.uniform(-2.0, 2.0, 2)
            with pytest.raises(rl.EnergyUnreachable, match="fiber domain ends"):
                rl.solve_energy_scale(L, x, y, 1.0)

    def test_unreachable_energy_raises(self):
        # kinetic-only energy is bounded below by the potential: e below
        # min V cannot be reached by scaling the velocity
        L = rl.MechanicalLagrangian(2, np.eye(2), potential=lambda xs: 1.0 + xs[0] ** 2)
        with pytest.raises(rl.EnergyUnreachable):
            rl.solve_energy_scale(L, np.zeros(2), np.ones(2), 0.5)


class TestEnergyLevelMetric:
    def test_is_one_homogeneous_and_positive(self, rng):
        L = conformal_magnetic()
        Fe = rl.jacobi_finsler(L, 2.0)
        for _ in range(100):
            x = rng.uniform(-0.5, 0.5, 2)
            y = rng.uniform(-1.0, 1.0, 2)
            if y @ y < 0.05:
                continue
            val = Fe.value(x, y)
            assert val > 0.0
            lam = rng.uniform(0.3, 4.0)
            assert Fe.value(x, lam * y) == pytest.approx(lam * val, rel=1e-12)

    def test_matches_reduction_of_the_homogenized_model(self, rng):
        # the energy-level metric equals the cyclic reduction of the
        # homogenized model at momentum -e in the slot coordinate
        L = conformal_magnetic()
        e = 2.0
        Fe = rl.jacobi_finsler(L, e)
        lifted = rl.HomogenizedLagrangian(L)
        split = rl.CyclicSplit.of(3, [0])
        red = rl.routhian(
            lifted, split, np.array([-e]), guess=np.array([1.0]), verify=False
        )
        for _ in range(25):
            x = rng.uniform(-0.5, 0.5, 2)
            y = rng.uniform(-1.0, 1.0, 2)
            if y @ y < 0.05:
                continue
            a = Fe.eval(x, y)
            b = red.eval(x, y)
            assert a.value == pytest.approx(b.value, rel=1e-12)
            np.testing.assert_allclose(a.d_x, b.d_x, atol=1e-11)
            np.testing.assert_allclose(a.d_y, b.d_y, atol=1e-12)
            np.testing.assert_allclose(a.d_yy, b.d_yy, atol=1e-11)
            np.testing.assert_allclose(a.d_xy, b.d_xy, atol=1e-11)

    def test_fiber_hessian_kernel_is_the_ray(self, rng):
        L = conformal_magnetic()
        Fe = rl.jacobi_finsler(L, 1.5)
        worst_kernel = 0.0
        for _ in range(200):
            x = rng.uniform(-0.5, 0.5, 2)
            y = rng.uniform(-1.0, 1.0, 2)
            if y @ y < 0.05:
                continue
            j = Fe.eval(x, y)
            worst_kernel = max(worst_kernel, float(np.max(np.abs(j.d_yy @ y))))
            ok, lam = rl.quasi_definite_check(Fe, x, y)
            assert ok, f"smallest eigenvalue {lam:.3e}"
        assert worst_kernel < 1e-12

    def test_value_is_momentum_pairing_on_the_level(self, rng):
        # on the energy level E = e the metric value equals y . dL/dv
        L = conformal_magnetic()
        e = 2.0
        Fe = rl.jacobi_finsler(L, e)
        for _ in range(25):
            x = rng.uniform(-0.5, 0.5, 2)
            y0 = rng.uniform(-1.0, 1.0, 2)
            if y0 @ y0 < 0.05:
                continue
            v = rl.rescale_to_energy(L, x, y0, e)
            _, d_y, _ = L.fiber_jet(x, v)
            assert Fe.value(x, v) == pytest.approx(float(v @ d_y), rel=1e-12)


class TestClosedForms:
    def test_power_family(self, rng):
        # k-homogeneous kinetic energy has an explicit energy-level metric
        for k in (2, 3, 4):
            L = rl.PowerQuadraticLagrangian(2, np.diag([1.0, 1.5]), degree=k)
            e = 1.7
            numeric = rl.jacobi_finsler(L, e)
            closed = rl.homogeneous_closed_form(L, e)
            for _ in range(100):
                x = rng.uniform(-1.0, 1.0, 2)
                y = rng.uniform(-1.0, 1.0, 2)
                if y @ y < 0.05:
                    continue
                a = numeric.value(x, y)
                b = closed.value(x, y)
                assert a == pytest.approx(b, rel=1e-10)

    def test_power_family_rejects_bad_parameters(self):
        L = rl.PowerQuadraticLagrangian(2, np.eye(2), degree=4)
        with pytest.raises(ValueError):
            rl.homogeneous_closed_form(L, e=-1.0)
        one = rl.parse_lagrangian("sqrt(v1^2 + v2^2)", dim=2)
        with pytest.raises(ValueError):
            rl.homogeneous_closed_form(one, e=1.0, degree=1)

    def test_magnetic_family_reduces_to_randers(self, rng):
        L = conformal_magnetic()
        e = 2.0
        numeric = rl.jacobi_finsler(L, e)
        randers = rl.randers_closed_form(L, e)
        for _ in range(100):
            x = rng.uniform(-0.5, 0.5, 2)
            y = rng.uniform(-1.0, 1.0, 2)
            if y @ y < 0.05:
                continue
            assert numeric.value(x, y) == pytest.approx(
                randers.value(x, y), rel=1e-10
            )

    def test_randers_jets_match_finite_differences(self, rng):
        R = rl.randers_closed_form(conformal_magnetic(), 2.0)
        h = float(np.finfo(float).eps) ** 0.25
        for _ in range(10):
            x = rng.uniform(-0.4, 0.4, 2)
            y = rng.uniform(0.3, 1.0, 2)
            a = R.eval(x, y)
            b = rl.fd_jet(R, x, y, h=h)
            np.testing.assert_allclose(a.d_x, b.d_x, atol=1e-6)
            np.testing.assert_allclose(a.d_y, b.d_y, atol=1e-7)
            np.testing.assert_allclose(a.d_yy, b.d_yy, atol=1e-6)
            np.testing.assert_allclose(a.d_xy, b.d_xy, atol=1e-5)

    def test_randers_positivity_criterion(self, rng):
        # strong magnetic term: positivity needs e above the sampled bound
        L = rl.MagneticLagrangian(
            2, np.eye(2), beta=np.array([1.2, 0.0]), potential=lambda xs: 0.1 * xs[0]
        )
        pts = [rng.uniform(-1, 1, 2) for _ in range(200)]
        ok_high, bound = rl.randers_global_criterion(L, 5.0, pts)
        assert ok_high and bound < 5.0
        ok_low, _ = rl.randers_global_criterion(L, 0.3, pts)
        assert not ok_low
        # and indeed the metric stops being positive below the bound
        R = rl.randers_closed_form(L, 0.3)
        vals = []
        for x in pts:
            for y in ([1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]):
                try:
                    vals.append(R.value(x, np.array(y)))
                except rl.DomainError:
                    pass
        assert vals and min(vals) < 0.0

    def test_closed_form_domain_respects_potential_ceiling(self):
        L = rl.MechanicalLagrangian(2, np.eye(2), potential=lambda xs: xs[0])
        R = rl.randers_closed_form(L, 0.5)
        with pytest.raises(rl.DomainError):
            R.value(np.array([1.0, 0.0]), np.ones(2))  # V = 1 > e

    def test_disk_family_matches_numeric_metric_up_to_constant(self, rng):
        # at energy 1/tau^2 the numeric level metric of the disk model is
        # a constant multiple (1/tau) of the rotating-disk closed form
        L = rl.poincare_disk_lagrangian()
        for tau in (0.25, 0.5, 1.0):
            Fe = rl.jacobi_finsler(L, 1.0 / tau**2)
            Ft = rl.poincare_randers(tau)
            ratios = []
            while len(ratios) < 50:
                x = rng.uniform(-0.4, 0.4, 2)
                y = rng.uniform(-1.0, 1.0, 2)
                if float(y @ y) < 0.05:
                    continue
                ratios.append(Fe.value(x, y) / Ft.value(x, y))
            assert np.max(ratios) - np.min(ratios) < 1e-12
            assert np.mean(ratios) == pytest.approx(1.0 / tau, rel=1e-13)


class TestGaugeShift:
    def test_shift_changes_values_but_not_dynamics(self, rng):
        L = conformal_magnetic()
        shifted = rl.gauge_shift(L, "0.4*x1*x2 - 0.3*x1")
        x0 = np.array([0.2, -0.1])
        v0 = np.array([0.5, 0.8])
        assert shifted.value(x0, v0) != pytest.approx(L.value(x0, v0))
        a = rl.integrate_el(L, x0, v0, 2.0, tol=1e-11)
        b = rl.integrate_el(shifted, x0, v0, 2.0, tol=1e-11)
        gap = np.max(np.abs(a.positions - b.positions))
        assert gap < 1e-9, f"gauge term changed the flow by {gap:.3e}"

    def test_shift_accepts_callables_and_keeps_energy_rule(self, rng):
        L = conformal_magnetic()
        f = lambda xs: 0.25 * xs[0] ** 2 * xs[1]
        shifted = rl.gauge_shift(L, f)
        x = np.array([0.3, 0.4])
        v = np.array([0.7, -0.2])
        # E is insensitive to exact one-forms: d(f)/dv pairs to cancel
        assert rl.energy(shifted, x, v) == pytest.approx(rl.energy(L, x, v), abs=1e-13)

    def test_shifted_jets_match_finite_differences(self, rng):
        shifted = rl.gauge_shift(conformal_magnetic(), "0.4*x1*x2^2")
        h = float(np.finfo(float).eps) ** 0.25
        x = np.array([0.2, -0.3])
        y = np.array([0.6, 0.9])
        a = shifted.eval(x, y)
        b = rl.fd_jet(shifted, x, y, h=h)
        np.testing.assert_allclose(a.d_x, b.d_x, atol=1e-7)
        np.testing.assert_allclose(a.d_xy, b.d_xy, atol=1e-6)
        np.testing.assert_allclose(a.d_yy, b.d_yy, atol=1e-6)

    def test_the_shift_commutes_with_the_closed_form(self, rng):
        # a closed form writes expr, so it shifts as a Lagrangian does, and
        # shifting F_e gives the level metric of the shifted Lagrangian:
        # criterion 5's magnetic family, every block at 300 points
        L, f, e = conformal_magnetic(), "0.4*x1*x2 - 0.3*x1", 2.0
        shifted = rl.gauge_shift(rl.randers_closed_form(L, e), f)
        level = rl.jacobi_finsler(rl.gauge_shift(L, f), e)
        for x, y in zip(rng.uniform(-0.4, 0.4, (300, 2)), rng.uniform(-1.0, 1.0, (300, 2))):
            got, want = shifted.eval(x, y), level.eval(x, y)
            for block in ("value", "d_x", "d_y", "d_yy", "d_xy"):
                a, b = getattr(got, block), getattr(want, block)
                assert np.max(np.abs(a - b)) <= 1e-12 * (1.0 + np.max(np.abs(b))), (block, x, y)

    def test_a_base_without_expr_is_refused(self):
        # the shift is written over its base's expr: shift the Lagrangian,
        # then build its level metric or reduction
        L = conformal_magnetic()
        kepler = rl.parse_lagrangian("0.5*(v1^2 + x1^2*v2^2) + 1/x1", dim=2)
        for base in (
            rl.jacobi_finsler(L, 2.0),
            rl.routhian(kepler, rl.CyclicSplit.of(2, [1]), np.array([0.3]), verify=False),
        ):
            with pytest.raises(TypeError, match="shift the Lagrangian first, then build the metric"):
                rl.gauge_shift(base, "0.2*x1^2")

    @pytest.mark.parametrize("form, message", [
        ("x3*x1", "index 3 beyond declared dimension 2"),
        ("x1*v2", "velocity variables are not allowed"),
    ])
    def test_a_parsed_form_is_checked_as_its_text_is(self, form, message):
        # a parsed Expression once built a shift whose eval raised IndexError
        L = rl.parse_lagrangian("0.5*(v1^2+v2^2)", dim=2)
        for f in (form, rl.parse_expression(form)):
            with pytest.raises(rl.ArityError, match=message):
                rl.gauge_shift(L, f)

    def test_a_callable_form_that_does_not_trace_is_refused(self):
        # the form becomes a tree when the shift is built; one that needs
        # numbers (a branch on a value), or calls abs or a numpy ufunc other
        # than sqrt, exp, log, sin and cos, has none
        L = conformal_magnetic()
        for form, cause in ((lambda xs: 0.2 * xs[0] * xs[1] if xs[0] > -1 else 0.0, "a branch on a value"),
                            (lambda xs: np.tanh(xs[0]) * xs[1], "numpy's tanh"),
                            (lambda xs: abs(xs[0]) * xs[1], "abs()")):
            with pytest.raises(TypeError, match=f"does not trace: .*{re.escape(cause)}"):
                rl.gauge_shift(L, form)

    def test_the_level_metric_of_a_shift_is_the_shifted_level_metric(self, rng):
        # the shift leaves the energy unchanged, so it commutes with the
        # level metric: F_e of L + df.v is F_e + df.y, row by row of a batch
        L = rl.poincare_disk_lagrangian()
        form = rl.parse_expression("x1^2*x2 + sin(x2)", allow_velocity=False)
        shifted, plain = (rl.jacobi_finsler(m, 2.0) for m in (rl.gauge_shift(L, form), L))
        r, t = np.sqrt(rng.uniform(0.0, 0.5, 401)), rng.uniform(0.0, 2 * np.pi, 401)
        xs = np.column_stack([r * np.cos(t), r * np.sin(t)])
        ys = rng.uniform(-1.0, 1.0, (401, 2))
        grads = np.array([form(seed_second(x), ()).g for x in xs])
        val, d_y, d_yy = shifted.eval_batch(xs, ys, 1)
        want_val, want_d_y, want_d_yy = plain.eval_batch(xs, ys, 1)
        for got, want in ((val, want_val + np.sum(grads * ys, axis=1)), (d_y, want_d_y + grads),
                          (d_yy, want_d_yy)):
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
