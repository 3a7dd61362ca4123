"""Dormand-Prince driver: its rules, and its generated steps against the numpy stage loop."""

import numpy as np
import pytest

import routhlab as rl
from routhlab import integrators
from routhlab.integrators import MAX_STEPS, _H_MIN, _initial_step


def _oscillator(t, y):
    return np.array([y[1], -y[0]])


def test_a_run_ending_just_past_a_knot_completes():
    # an accepted step landing 1e-13 short of t_end used to leave a remainder
    # below the next step's floor, and the smooth run raised a step underflow
    knots = rl.solve_ode(_oscillator, [0.0, 1.0], 10.0, tol=1e-10)[0].ts
    for k in (5, 20, 40):
        for gap in (5e-14, 1e-13, 1.5e-13):
            t_end = knots[k] + gap
            dense, stats = rl.solve_ode(_oscillator, [0.0, 1.0], t_end, tol=1e-10)
            assert dense.t_max == t_end and stats.steps == k, (k, gap)


def test_rhs_evals_counts_every_call_of_vetoed_steps():
    calls = 0

    def vetoing(t, y):
        nonlocal calls
        calls += 1
        if calls % 17 == 0:
            raise rl.DomainError("vetoed")
        return _oscillator(t, y)

    _, stats = rl.solve_ode(vetoing, [0.0, 1.0], 2.0, tol=1e-8)
    assert stats.rejected > 0 and stats.rhs_evals == calls


def test_a_flow_held_at_a_wall_raises_the_step_underflow():
    # y' = 1 from 0 against a veto past y = 0.5: the steps shrink onto the wall
    def walled(t, y):
        if y[0] > 0.5:
            raise rl.DomainError("past the wall")
        return np.array([1.0])

    with pytest.raises(rl.StepFailure, match=r"^step size underflow at t=0\.5 \(h=.*\); "
                       "the flow likely hit a domain boundary or a singularity$"):
        rl.solve_ode(walled, [0.0], 1.0, tol=1e-10)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_right_hand_side_not_finite_at_the_start_raises(bad):
    with pytest.raises(rl.StepFailure, match="^right-hand side not finite at the initial state$"):
        rl.solve_ode(lambda t, y: [y[1], bad], [0.0, 1.0], 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_stage_not_finite_once_is_rejected_at_half_the_step(bad):
    # calls 0 and 1 are the start and the initial-step probe; call 2 is the
    # first trial's first stage, and the retry's first stage comes at half its offset
    times = []

    def spoiled(t, y):
        times.append(t)
        return [bad, bad] if len(times) == 3 else _oscillator(t, y)

    with np.errstate(invalid="ignore"):  # the stages after the spoiled one read inf
        dense, stats = rl.solve_ode(spoiled, [0.0, 1.0], 2.0, tol=1e-10)
    assert stats.rejected == 1 and stats.rhs_evals == len(times)
    assert times[8] == 0.5 * times[2]
    assert dense.t_max == 2.0
    np.testing.assert_allclose(dense.knot_states[-1], [np.sin(2.0), np.cos(2.0)], atol=1e-8)


def test_the_step_budget_counts_accepted_and_rejected_steps(monkeypatch):
    monkeypatch.setattr(rl.integrators, "MAX_STEPS", 10)
    with pytest.raises(rl.StepFailure, match="^step budget exhausted after 11 accepted steps$"):
        rl.solve_ode(_oscillator, [0.0, 1.0], 100.0, tol=1e-10)
    calls = 0

    def vetoing(t, y):
        nonlocal calls
        calls += 1
        if calls % 17 == 0:
            raise rl.DomainError("vetoed")
        return _oscillator(t, y)

    with pytest.raises(rl.StepFailure, match="^step budget exhausted after [0-9]+ accepted steps$") as info:
        rl.solve_ode(vetoing, [0.0, 1.0], 100.0, tol=1e-10)
    assert 0 < int(str(info.value).split()[-3]) < 11


@pytest.mark.parametrize("t_end, tol, message", [
    (0.0, 1e-10, "t_end must be positive"),
    (-1.0, 1e-10, "t_end must be positive"),
    (1.0, 0.0, "tol must be positive"),
    (1.0, -1e-10, "tol must be positive"),
])
def test_a_run_needs_a_positive_end_and_tolerance(t_end, tol, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        rl.solve_ode(_oscillator, [0.0, 1.0], t_end, tol=tol)


# -- the numpy stage loop, the oracle of the generated steps -------------------------

_C = np.array(integrators._C)
_A = [np.array(row) for row in integrators._A]
_B = np.array(integrators._A[6] + (0.0,))
_E = np.array(integrators._E)


def _numpy_solve(rhs, y0, t_end, tol):
    """The driver's rules over numpy stage arrays: (knot times, knot states, steps, rejected, rhs calls)."""
    y = np.asarray(y0, float).copy()
    t, nfev = 0.0, 1
    f = np.asarray(rhs(t, y.tolist()), float)
    h = max(_initial_step(rhs, t, y, f, t_end, tol), 1e-12)
    nfev += 1
    ts, states, steps, rejected, err_prev = [0.0], [y], 0, 0, 1.0
    k = np.empty((7, len(y)))
    while t < t_end * (1.0 - 1e-14):
        h = min(h, t_end - t)
        if t + h < t_end * (1.0 - 1e-14) and t_end - (t + h) < _H_MIN * max(1.0, abs(t + h)):
            h = t_end - t
        assert h >= _H_MIN * max(1.0, abs(t)), "step size underflow"
        failed = False
        k[0] = f
        try:
            for s in range(1, 7):
                ys = y + h * (k[:s].T @ _A[s])
                nfev += 1
                k[s] = rhs(t + _C[s] * h, ys.tolist())
            y_new = y + h * (k.T @ _B)
            failed = not (np.all(np.isfinite(y_new)) and np.all(np.isfinite(k)))
        except rl.DomainError:
            failed = True
        if failed:
            rejected += 1
            h *= 0.5
            continue
        scale = tol + tol * np.maximum(np.abs(y), np.abs(y_new))
        err = float(np.sqrt(np.mean((h * (k.T @ _E) / scale) ** 2)))
        if err > 1.0:
            rejected += 1
            h *= max(integrators._MIN_SHRINK, integrators._SAFETY * err ** (-0.2))
            continue
        t, y, f = t + h, y_new, k[6].copy()
        ts.append(t)
        states.append(y)
        steps += 1
        assert steps + rejected <= MAX_STEPS, "step budget exhausted"
        factor = (integrators._MAX_GROW if err == 0.0 else
                  integrators._SAFETY * err ** (-integrators._ALPHA) * err_prev ** integrators._BETA)
        h *= min(integrators._MAX_GROW, max(integrators._MIN_SHRINK, factor))
        err_prev = max(err, 1e-10)
    return np.array(ts), np.array(states), steps, rejected, nfev


def _oracle_runs(monkeypatch, run):
    """(rhs, y0, t_end, tol) of every solve that run() makes."""
    solves, solve = [], integrators.solve_ode

    def recording(rhs, y0, t_end, tol):
        solves.append((rhs, np.array(y0, float), t_end, tol))
        return solve(rhs, y0, t_end, tol=tol)

    monkeypatch.setattr(integrators, "solve_ode", recording)
    run()
    monkeypatch.undo()
    return solves


def _criterion_5_cases():
    # one start per family of the equivalence matrix, at energies inside its ranges
    oscillator = rl.MechanicalLagrangian(2, np.eye(2), potential=lambda xs: 0.5 * (xs[0] * xs[0] + xs[1] * xs[1]))

    def metric(xs):
        c = 1.0 + 0.3 * ((xs[0] * 0.7) * (xs[0] * 0.7) + xs[1] * xs[1])
        return [[c, 0.0], [0.0, c]]

    magnetic = rl.MagneticLagrangian(2, metric, beta=np.array([0.1, -0.2]),
                                     potential=lambda xs: 0.2 * xs[0] * xs[0])
    power = rl.PowerQuadraticLagrangian(2, np.diag([1.0, 1.5]), degree=4.0)
    return {"oscillator": (oscillator, 2.5, [0.2, -0.3], [0.6, 0.8], 0.9),
            "disk": (rl.poincare_disk_lagrangian(), 1.5, [0.1, 0.25], [-0.7, 0.4], 0.6),
            "magnetic": (magnetic, 2.0, [-0.3, 0.1], [0.3, 0.9], 0.8),
            "power": (power, 1.5, [0.3, 0.2], [-0.5, -0.6], 0.7)}


def _criterion_6_runs(source):
    L = rl.parse_lagrangian(source, dim=2, domain=lambda x: x[0] > 0.1)
    split = rl.CyclicSplit.of(2, [1])
    x0, v0 = np.array([1.0, 0.0]), np.array([0.3, 1.2])
    reduced = rl.routhian(L, split, rl.momentum(L, split, x0, v0), ref_x=x0)
    rl.integrate_el(L, x0, v0, 10.0, tol=1e-11)
    rl.integrate_el(reduced, x0[:1], v0[:1], 10.0, tol=1e-11)


@pytest.mark.parametrize("case", [*_criterion_5_cases(), "kepler", "polar oscillator"])
def test_generated_steps_follow_the_numpy_stage_loop(monkeypatch, case):
    # the same rules on the same right-hand sides, with every count equal.
    # Sums may round apart in the last bit, which the error estimate's
    # cancellation lifts to 1e-6 or more of a step size, so the knots move
    # apart and the generated run is sampled at the oracle's knots
    if case in ("kepler", "polar oscillator"):
        source = "0.5*(v1^2 + x1^2*v2^2) " + ("+ 1/x1" if case == "kepler" else "- 0.5*x1^2")
        solves = _oracle_runs(monkeypatch, lambda: _criterion_6_runs(source))
    else:
        L, e, x0, v_dir, t_end = _criterion_5_cases()[case]
        v0 = rl.rescale_to_energy(L, np.array(x0), np.array(v_dir), e)
        solves = _oracle_runs(monkeypatch, lambda: rl.check_geodesic_equivalence(L, e, x0, v0, t_end, samples=401))
    assert len(solves) >= 2
    for rhs, y0, t_end, tol in solves:
        dense, stats = rl.solve_ode(rhs, y0, t_end, tol=tol)
        ts, states, steps, rejected, nfev = _numpy_solve(rhs, y0, t_end, tol)
        assert (stats.steps, stats.rejected, stats.rhs_evals) == (steps, rejected, nfev)
        assert np.all(np.abs(dense.sample(ts) - states) <= 1e-12 * (1.0 + np.abs(states)))
