"""Acceptance gate: every advertised guarantee, one test per criterion.

Each test prints a single [PASS]/[FAIL] line with the measured numbers so a
full run reads as a checklist. Tolerances here are the product contract;
they must not be loosened to make a failing build green.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import routhlab as rl
from routhlab import verify

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _line(ok: bool, label: str, detail: str) -> str:
    return f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}"


def _dense_trace_gap(run_a, run_b, length: float, dim: int = 2,
                     floor: int = 4001) -> float:
    """point_set_distance through dense outputs, sampled by curve length."""
    fine = int(np.clip(np.ceil(length / 2.5e-5), floor, 400_000))
    a = run_a.dense.sample(np.linspace(0.0, run_a.times[-1], fine))[:, :dim]
    b = run_b.dense.sample(np.linspace(0.0, run_b.times[-1], fine))[:, :dim]
    return rl.point_set_distance(a, b)


def _metric_length(F, traj) -> float:
    vals = [F.value(p, v) for p, v in zip(traj.positions, traj.velocities)]
    return float(np.trapezoid(vals, traj.times))


def test_criterion_1_flat_potential_flow_matches_closed_form_metric():
    """Quadratic potential on a bounded chart: the energy-e trajectories
    are geodesics of the conformally rescaled flat metric."""
    t0 = time.monotonic()
    L = rl.MechanicalLagrangian(
        2,
        np.eye(2),
        potential=lambda xs: 0.5 * (xs[0] * xs[0] + xs[1] * xs[1]),
        domain=lambda x: float(x @ x) < 9.0,  # chart |x| < 3, max V = 4.5
    )
    e = 5.0  # above the potential ceiling of the chart
    x0 = np.array([0.6, 0.0])
    v0 = rl.rescale_to_energy(L, x0, np.array([0.4, 1.0]), e)

    el = rl.integrate_el(L, x0, v0, 0.75, tol=1e-11)
    chord = float(np.sum(np.linalg.norm(np.diff(el.positions, axis=0), axis=1)))
    closed = rl.randers_closed_form(L, e)  # beta-free: pure rescaled metric
    length = _metric_length(closed, el)
    arc = rl.integrate_geodesic(closed, x0, v0, 1.02 * length,
                                unit_speed=True, tol=1e-11)
    gap = _dense_trace_gap(el, arc, length)
    elapsed = time.monotonic() - t0

    ok = gap <= 1e-6 and chord >= 2.0 and elapsed < 5.0
    msg = _line(ok, "criterion 1",
                f"trace gap {gap:.3e} (tol 1e-6) over chord length "
                f"{chord:.2f}, {elapsed:.2f} s (budget 5 s)")
    print(msg)
    assert ok, msg


def test_criterion_2_power_kinetic_metrics_match_their_closed_form(rng):
    """Degree-k kinetic energies: the numeric level metric equals
    k ((k-1)/e)^((1-k)/k) L^(1/k) to 1e-10 relative at 1000 points each."""
    e = 1.7
    worst = 0.0
    for k in (2, 3, 4):
        L = rl.PowerQuadraticLagrangian(2, np.diag([1.0, 1.5]), degree=k)
        Fe = rl.jacobi_finsler(L, e)
        c = k * ((k - 1) / e) ** ((1 - k) / k)
        checked = 0
        while checked < 1000:
            x = rng.uniform(-1.0, 1.0, 2)
            y = rng.uniform(-1.0, 1.0, 2)
            if float(y @ y) < 1e-3:
                continue
            numeric = Fe.value(x, y)
            explicit = c * L.value(x, y) ** (1.0 / k)
            worst = max(worst, abs(numeric - explicit) / abs(explicit))
            checked += 1
    ok = worst <= 1e-10
    msg = _line(ok, "criterion 2",
                f"worst relative gap {worst:.3e} (tol 1e-10) "
                f"over k in (2,3,4) x 1000 points")
    print(msg)
    assert ok, msg


def test_criterion_3_magnetic_metrics_match_the_randers_closed_form(rng):
    """Curved metric with a one-form and bounded potential: numeric level
    metric vs the explicit rescaled-norm-plus-drift form, and the global
    positivity criterion vs sampled positivity."""
    beta = rng.uniform(-0.9, 0.9, 2)  # random but frozen by the seed
    L = rl.MagneticLagrangian(
        2,
        lambda xs: [
            [1.0 + 0.25 * (xs[0] * xs[0] + xs[1] * xs[1]), 0.0],
            [0.0, 1.0 + 0.25 * (xs[0] * xs[0] + xs[1] * xs[1])],
        ],
        beta=beta,
        potential=lambda xs: 0.3 * np.sin(xs[0]) * np.cos(xs[1]),  # |V| <= 0.3
    )
    e_high = 2.0
    numeric = rl.jacobi_finsler(L, e_high)
    closed = rl.randers_closed_form(L, e_high)
    worst = 0.0
    checked = 0
    while checked < 1000:
        x = rng.uniform(-1.5, 1.5, 2)
        y = rng.uniform(-1.0, 1.0, 2)
        if float(y @ y) < 1e-3:
            continue
        a = numeric.value(x, y)
        b = closed.value(x, y)
        worst = max(worst, abs(a - b) / abs(b))
        checked += 1

    # positivity: the sampled criterion must agree with brute-force signs
    points = [rng.uniform(-1.5, 1.5, 2) for _ in range(300)]
    dirs = [np.array([np.cos(a), np.sin(a)]) for a in np.linspace(0, 2 * np.pi, 32)]

    def sampled_positive(e):
        R = rl.randers_closed_form(L, e)
        for x in points:
            for y in dirs:
                try:
                    if R.value(x, y) <= 0.0:
                        return False
                except rl.DomainError:
                    return False
        return True

    ok_high, bound = rl.randers_global_criterion(L, e_high, points)
    e_low = 0.5 * (0.3 + bound)  # above sup V, below the criterion bound
    ok_low, _ = rl.randers_global_criterion(L, e_low, points)
    agree = (ok_high == sampled_positive(e_high)) and (
        ok_low == sampled_positive(e_low)
    )

    ok = worst <= 1e-10 and ok_high and not ok_low and agree
    msg = _line(ok, "criterion 3",
                f"worst relative gap {worst:.3e} (tol 1e-10) at 1000 points; "
                f"positivity bound {bound:.3f}: criterion and sampled signs "
                f"{'agree' if agree else 'DISAGREE'} at e={e_high} and e={e_low:.3f}")
    print(msg)
    assert ok, msg


def test_criterion_4_disk_geodesics_are_circles_with_boundary_contact():
    """Rotating hyperbolic-disk metrics: geodesics fit circles to 1e-6
    relative rms; no rotation meets the boundary at 90 deg; critical
    rotation is internally tangent; the disk Lagrangian flow at e = 1/tau^2
    traces the same point sets."""
    details = []
    ok = True

    # circle fits of the metric geodesics
    for tau, T in [(0.0, 2.2), (0.25, 2.2), (0.5, 2.2), (1.0, 0.65)]:
        R = rl.poincare_randers(tau)
        x0 = np.array([0.5, 0.0]) if tau == 0.0 else np.array([0.3, 0.0])
        y0 = np.array([0.0, 1.0]) if tau == 0.0 else np.array([0.2, 1.0])
        run = rl.integrate_geodesic(R, x0, y0, T, unit_speed=True, tol=1e-11)
        fit = rl.circle_fit(run.positions)
        ok = ok and not fit.is_line and fit.rms <= 1e-6 * fit.radius
        if tau == 0.0:
            angle = rl.boundary_angle(fit)
            ok = ok and abs(angle - 90.0) <= 0.1
            details.append(f"tau=0 angle {angle:.4f} deg")
        if tau == 1.0:
            contact = abs(float(np.linalg.norm(fit.center)) + fit.radius - 1.0)
            ok = ok and contact <= 1e-4
            details.append(f"tau=1 contact {contact:.2e}")
        details.append(f"rms/r({tau})={fit.rms / fit.radius:.1e}")

    # the Lagrangian flow at matching energy traces the same sets
    L = rl.poincare_disk_lagrangian()
    worst_gap = 0.0
    for tau, t_el in [(0.25, 0.12), (0.5, 0.25), (1.0, 0.45)]:
        e = 1.0 / tau ** 2
        Ft = rl.poincare_randers(tau)
        x0 = np.array([0.3, 0.0])
        v0 = rl.rescale_to_energy(L, x0, np.array([0.2, 1.0]), e)
        el = rl.integrate_el(L, x0, v0, t_el, tol=1e-11)
        length = _metric_length(Ft, el)
        arc = rl.integrate_geodesic(Ft, x0, v0, 1.02 * length,
                                    unit_speed=True, tol=1e-11)
        worst_gap = max(worst_gap, _dense_trace_gap(el, arc, length))
    ok = ok and worst_gap <= 1e-6
    details.append(f"worst flow/geodesic gap {worst_gap:.2e} (tol 1e-6)")

    msg = _line(ok, "criterion 4", "; ".join(details))
    print(msg)
    assert ok, msg


def _criterion_5_case(rng, k):
    """Criterion 5's case k, one of four families by k % 4, drawn from rng:
    (L, e, x0, v_dir, t_end)."""
    fam = k % 4
    if fam == 0:
        L = rl.MechanicalLagrangian(
            2, np.eye(2),
            potential=lambda xs: 0.5 * (xs[0] * xs[0] + xs[1] * xs[1]),
        )
        e = rng.uniform(1.0, 4.0)
        t_end = rng.uniform(0.5, 1.0)
        x0 = rng.uniform(-0.4, 0.4, 2)
    elif fam == 1:
        L = rl.poincare_disk_lagrangian()
        e = rng.uniform(0.8, 2.5)
        t_end = rng.uniform(0.4, 0.8)
        x0 = rng.uniform(-0.3, 0.3, 2)
    elif fam == 2:
        def metric(xs):
            c = 1.0 + 0.3 * ((xs[0] * 0.7) * (xs[0] * 0.7) + xs[1] * xs[1])
            return [[c, 0.0], [0.0, c]]

        L = rl.MagneticLagrangian(
            2, metric, beta=np.array([0.1, -0.2]),
            potential=lambda xs: 0.2 * xs[0] * xs[0],
        )
        e = rng.uniform(1.0, 3.0)
        t_end = rng.uniform(0.5, 1.0)
        x0 = rng.uniform(-0.4, 0.4, 2)
    else:
        L = rl.PowerQuadraticLagrangian(2, np.diag([1.0, 1.5]), degree=4.0)
        e = rng.uniform(0.8, 3.0)
        t_end = rng.uniform(0.5, 1.0)
        x0 = rng.uniform(-0.4, 0.4, 2)
    v_dir = rng.uniform(-1.0, 1.0, 2)
    while float(v_dir @ v_dir) < 0.05:
        v_dir = rng.uniform(-1.0, 1.0, 2)
    return L, e, x0, v_dir, t_end


def test_criterion_5_randomized_flow_equivalence_matrix():
    """50 random (family, start, energy) cases: every equivalence metric
    passes, within a two-minute budget."""
    t0 = time.monotonic()
    rng = np.random.default_rng(42)
    failures = []
    worst = 0.0
    for k in range(50):
        L, e, x0, v_dir, t_end = _criterion_5_case(rng, k)
        v0 = rl.rescale_to_energy(L, x0, v_dir, e)
        report = rl.check_geodesic_equivalence(L, e, x0, v0, t_end, samples=401)
        worst = max(worst, max(abs(m.value) / m.tolerance for m in report.metrics))
        if not report.overall:
            failures.append((k, report.summary()))
    elapsed = time.monotonic() - t0

    ok = not failures and elapsed < 120.0
    msg = _line(ok, "criterion 5",
                f"{50 - len(failures)}/50 cases pass, worst metric at "
                f"{worst:.3f} of its tolerance, {elapsed:.1f} s (budget 120 s)")
    print(msg)
    assert ok, msg + "".join(f"\ncase {k}:\n{s}" for k, s in failures)


def test_criterion_5_trace_distance_matches_the_polyline_oracle():
    """The check's trace distance (dense outputs at uniform arc length) is
    held to _dense_trace_gap, the chord-resampled polyline, on criterion 5's
    cases: within 1e-8, the polyline's own chord error, far below the 1e-6
    tolerance."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for k in range(50):
        L, e, x0, v_dir, t_end = _criterion_5_case(rng, k)
        v0 = rl.rescale_to_energy(L, x0, v_dir, e)
        el = rl.integrate_el(L, x0, v0, t_end, samples=401)
        length = verify._arc_length(L, e, el)
        arc = rl.integrate_geodesic(rl.jacobi_finsler(L, e), x0, v0, 1.02 * length,
                                    samples=401, unit_speed=True)
        new = verify._dense_trace_distance(el.dense, arc.dense, 2)
        worst = max(worst, abs(new - _dense_trace_gap(el, arc, length)))
    ok = worst <= 1e-8
    msg = _line(ok, "trace oracle",
                f"worst |dense - polyline| {worst:.2e} over 50 cases (tol 1e-8)")
    print(msg)
    assert ok, msg


def test_closed_forms_flow_as_their_level_metrics_pointwise():
    """A closed form and the level metric it equals are one F, so their
    unit-speed geodesics from one start agree pointwise in time, not only
    as traces: the first 20 cases of criterion 5, within 1e-12 of
    max(1, |x|). The power-4 family's geodesics are straight lines, whose
    step counts flip with the last bits of the stages; a flip is reported,
    not asserted away."""
    rng = np.random.default_rng(42)
    worst, flips = 0.0, []
    for k in range(20):
        L, e, x0, v_dir, t_end = _criterion_5_case(rng, k)
        v0 = rl.rescale_to_energy(L, x0, v_dir, e)
        closed = rl.homogeneous_closed_form(L, e) if k % 4 == 3 else rl.randers_closed_form(L, e)
        assert closed.expression is not None
        a = rl.integrate_geodesic(closed, x0, v0, t_end, unit_speed=True)
        b = rl.integrate_geodesic(rl.jacobi_finsler(L, e), x0, v0, t_end, unit_speed=True)
        scale = np.maximum(1.0, np.linalg.norm(b.positions, axis=1))
        worst = max(worst, float(np.max(np.abs(a.positions - b.positions).max(axis=1) / scale)))
        if a.stats.steps != b.stats.steps:
            flips.append(f"case {k}: {a.stats.steps} vs {b.stats.steps} steps")
    ok = worst <= 1e-12
    msg = _line(ok, "closed-form flows",
                f"worst pointwise gap {worst:.2e} of max(1, |x|) (tol 1e-12) over 20 cases; "
                f"step counts differ in {len(flips)}" + "".join(f"; {f}" for f in flips))
    print(msg)
    assert ok, msg


def test_criterion_6_cyclic_reduction_round_trip():
    """Central-force motion: reduce out the angle, integrate the radial
    problem, rebuild the angle, and match the direct run to 1e-7 over a
    long window."""
    L = rl.parse_lagrangian(
        "0.5*(v1^2 + x1^2*v2^2) + 1/x1", dim=2, domain=lambda x: x[0] > 0.1
    )
    split = rl.CyclicSplit.of(2, [1])
    x0 = np.array([1.0, 0.0])
    v0 = np.array([0.3, 1.2])
    t_end = 10.0
    mu = rl.momentum(L, split, x0, v0)

    full = rl.integrate_el(L, x0, v0, t_end, tol=1e-11)
    red = rl.routhian(L, split, mu, ref_x=x0)
    red_run = rl.integrate_el(red, x0[:1], v0[:1], t_end, tol=1e-11)
    rebuilt = rl.reconstruct(L, split, mu, red_run, cyclic_start=x0[1:])
    gap = float(np.max(np.abs(rebuilt.positions - full.positions)))

    ok = gap <= 1e-7
    msg = _line(ok, "criterion 6",
                f"round-trip deviation {gap:.3e} (tol 1e-7) over t_end={t_end}")
    print(msg)
    assert ok, msg


def test_criterion_7_invariant_property_suites(rng):
    """Scaling identities, conservation, derivative cross-checks, and
    Hessian quasi-definiteness, each over 1000 random samples."""
    conformal = rl.MagneticLagrangian(
        2,
        lambda xs: [
            [1.0 + 0.3 * (0.49 * xs[0] * xs[0] + xs[1] * xs[1]), 0.0],
            [0.0, 1.0 + 0.3 * (0.49 * xs[0] * xs[0] + xs[1] * xs[1])],
        ],
        beta=np.array([0.1, -0.2]),
        potential=lambda xs: 0.2 * xs[0] * xs[0],
    )
    e = 2.0
    Fe = rl.jacobi_finsler(conformal, e)
    lifted = rl.HomogenizedLagrangian(conformal)
    randers = rl.randers_closed_form(conformal, e)
    disk = rl.poincare_randers(0.5)

    def draw_state(dim, slot_positive=False):
        while True:
            x = rng.uniform(-0.5, 0.5, dim)
            y = rng.uniform(-1.0, 1.0, dim)
            if slot_positive:
                y[0] = rng.uniform(0.3, 1.5)
            if float(y[-2:] @ y[-2:]) >= 0.05:
                return x, y

    details = []
    ok = True

    # (a) positive 1-homogeneity, Euler form: y . dF/dy = F
    worst = 0.0
    for _ in range(1000):
        model = (Fe, lifted)[int(rng.integers(2))]
        x, y = draw_state(model.dim, slot_positive=model is lifted)
        j = model.eval(x, y)
        worst = max(worst, abs(float(y @ j.d_y) - j.value) / (1.0 + abs(j.value)))
    ok = ok and worst <= 1e-10
    details.append(f"euler {worst:.1e}<=1e-10")

    # (b) spray acceleration is 2-homogeneous
    accel = rl.canonical_spray(Fe)
    worst = 0.0
    for _ in range(1000):
        x, y = draw_state(2)
        lam = rng.uniform(0.3, 3.0)
        a1 = accel(x, lam * y)
        a2 = lam * lam * accel(x, y)
        worst = max(worst, float(np.max(np.abs(a1 - a2))) /
                    (1.0 + float(np.max(np.abs(a2)))))
    ok = ok and worst <= 1e-8
    details.append(f"spray {worst:.1e}<=1e-8")

    # (c) conservation along runs: Lagrangian energy and metric speed
    worst = 0.0
    states = 0
    el = rl.integrate_el(conformal, np.array([0.2, -0.1]),
                         rl.rescale_to_energy(conformal, np.array([0.2, -0.1]),
                                              np.array([0.7, 0.9]), e),
                         2.0, tol=1e-10, samples=601)
    worst = max(worst, float(np.max(np.abs(el.energy_log - e))))
    states += el.times.size
    for F, x0, y0, T in [
        (Fe, np.array([0.1, 0.2]), np.array([0.8, -0.5]), 1.5),
        (disk, np.array([0.3, 0.0]), np.array([0.2, 1.0]), 1.2),
    ]:
        run = rl.integrate_geodesic(F, x0, y0, T, unit_speed=True,
                                    tol=1e-10, samples=601)
        worst = max(worst, float(np.max(np.abs(run.energy_log - 1.0))))
        states += run.times.size
    ok = ok and worst <= 1e-8 and states >= 1000
    details.append(f"conservation {worst:.1e}<=1e-8 over {states} states")

    # (d) forward-mode jets against central differences. The homogeneous
    # models are sampled away from their fiber boundaries (|y| on an
    # annulus; the lifted slot bounded below with the base velocity in a
    # bounded chart): scaling determines the rest of each ray, and
    # stencils near the boundary would measure truncation error rather
    # than the derivatives under test.
    h = float(np.finfo(float).eps) ** 0.25
    worst = 0.0
    plan = [(conformal, 400), (lifted, 200), (randers, 200), (Fe, 200)]
    for model, count in plan:
        done = 0
        while done < count:
            if model is lifted:
                x = rng.uniform(-0.5, 0.5, 3)
                slot = rng.uniform(0.6, 1.4)
                y = np.concatenate(([slot], slot * rng.uniform(-1.0, 1.0, 2)))
            else:
                x, y = draw_state(model.dim)
                if model is not conformal:
                    y = y * (rng.uniform(0.7, 1.5) / float(np.linalg.norm(y)))
            try:
                a = model.eval(x, y)
                b = rl.fd_jet(model, x, y, h=h)
            except (rl.DomainError, rl.StencilDomainError):
                continue
            scale = 1.0 + abs(a.value)
            for name in ("d_x", "d_y", "d_yy", "d_xy"):
                gap = float(np.max(np.abs(getattr(a, name) - getattr(b, name))))
                worst = max(worst, gap / scale)
            done += 1
    ok = ok and worst <= 1e-6
    details.append(f"jets-vs-fd {worst:.1e}<=1e-6")

    # (e) fiber Hessians are quasi-definite with kernel exactly the ray
    worst_eig = 0.0
    worst_kernel = 0.0
    worst_second = np.inf
    for _ in range(1000):
        model = (Fe, randers, disk)[int(rng.integers(3))]
        bound = 0.45 if model is disk else 0.5
        while True:
            x = rng.uniform(-bound, bound, 2)
            y = rng.uniform(-1.0, 1.0, 2)
            if float(y @ y) >= 0.05:
                break
        j = model.eval(x, y)
        hess = 0.5 * (j.d_yy + j.d_yy.T)
        eigs = np.linalg.eigvalsh(hess)
        scale = float(np.max(np.abs(hess)))
        worst_eig = min(worst_eig, eigs[0] / scale)
        worst_second = min(worst_second, eigs[1] / scale)
        kernel = float(np.linalg.norm(hess @ y)) / (
            scale * float(np.linalg.norm(y))
        )
        worst_kernel = max(worst_kernel, kernel)
    ok = ok and worst_eig >= -1e-12 and worst_second > 0 and worst_kernel <= 1e-10
    details.append(
        f"hessian eig>={worst_eig:.1e} (tol -1e-12), kernel {worst_kernel:.1e}"
    )

    msg = _line(ok, "criterion 7", "; ".join(details))
    print(msg)
    assert ok, msg


def test_criterion_8_tampered_configs_fail_with_documented_codes(tmp_path):
    """Broken run configurations exit with the documented process codes:
    1 for a failed verification, 2 for a bad declaration, 3 for a
    numerical impossibility."""
    cases = [
        ("verify", "tamper_wrong_energy.json", 1),
        ("routh-reduce", "tamper_bad_cyclic.json", 2),
        ("verify", "tamper_unreachable_energy.json", 3),
    ]
    got = []
    for cmd, cfg, want in cases:
        proc = subprocess.run(
            [sys.executable, "-m", "routhlab.cli", cmd,
             "--config", str(CONFIGS / cfg), "--out", str(tmp_path / cfg)],
            capture_output=True, text=True, timeout=300,
        )
        got.append((cfg, want, proc.returncode))
    ok = all(w == g for _, w, g in got)
    msg = _line(ok, "criterion 8",
                ", ".join(f"{c}: exit {g} (want {w})" for c, w, g in got))
    print(msg)
    assert ok, msg
