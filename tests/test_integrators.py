"""Dormand-Prince driver: step control at the end of a run and evaluation counts."""

import numpy as np

import routhlab as rl


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
