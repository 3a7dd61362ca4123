"""Position predicates traced into kernel guards and column checks.

A predicate that returns comparisons, joined by ``&``, of +, -, * and
negation over the positions traces once (``expressions.trace_guard``): the
Euler-Lagrange kernels check it in their first lines, and a batch checks it
once on the columns of its positions. Both must give the Python predicate's
verdict at every float point, and the kernel its error. Any other predicate
stays Python and runs as it always did.
"""

import itertools
import math

import numpy as np
import pytest

import routhlab as rl
from routhlab import CyclicSplit
from routhlab.config import _domain_spec
from routhlab.expressions import trace_guard
from routhlab.jets import flow_kernel
from routhlab.lagrangian import energies
from routhlab.routh import _solve_momenta

KEPLER = "0.5*(v1^2 + x1^2*v2^2) + 1/x1"

TRACED = {
    "x1 > 0.1": lambda x: x[0] > 0.1,
    "x2 <= -2": lambda x: x[1] <= -2.0,
    "conjunction": lambda x: (x[0] > 0) & (x[0] * x[1] - 1 < x[1]),
    "negation": lambda x: -x[0] >= 2 - 0.5 * x[1],
    "config positive": _domain_spec({"positive": [1, 2]}, 2),
}


def _around(b):
    return [math.nextafter(b, -math.inf), b, math.nextafter(b, math.inf)]


#: each predicate's boundary values and their neighbouring floats, signed
#: zeros, products that overflow, infinities and NaN
VALUES = [*_around(0.1), *_around(-2.0), *_around(1.0), *_around(2.0), *_around(0.0), -0.0,
          0.5, -3.0, 1e308, -1e308, math.inf, -math.inf, math.nan]


def _outcome(f):
    try:
        return f()
    except rl.RouthlabError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", TRACED)
def test_traced_guards_give_the_predicates_verdict(name):
    predicate = TRACED[name]
    model = rl.parse_lagrangian("0.5*(v1^2 + v2^2)", dim=2, domain=predicate)
    guard = model._position_guard()
    assert guard is not None
    points = np.array(list(itertools.product(VALUES, repeat=2)))
    with np.errstate(all="ignore"):
        verdicts = [bool(predicate(x)) for x in points]
        assert guard(points.T).tolist() == verdicts
    assert 0 < sum(verdicts) < len(verdicts)
    el = flow_kernel(model, "el")
    reduced, args = rl.ReducedLagrangian(model, CyclicSplit.of(2, [1]), np.array([0.5]))._el_flow()
    for x, inside in zip(points, verdicts):
        assert model._rows_in_domain(x[None, :], x[None, :]) is inside
        with np.errstate(all="ignore"):
            want = _outcome(lambda: model.domain_check(x, ()))
        assert _outcome(lambda: el(*x.tolist(), 0.5, -0.25)) == (want or (0.5, -0.25, 0.0, 0.0))
        # the reduced kernel checks the full position, its cyclic slot 0.0
        if x[1] == 0.0 and math.copysign(1.0, x[1]) > 0:
            got = _outcome(lambda: reduced(x.item(0), 0.25, *args))
            assert got == want if want else got[0] == 0.25
    assert model._rows_in_domain(points, points) is all(verdicts)


@pytest.mark.parametrize("predicate", [
    lambda x: float(x @ x) < 1.0,
    lambda x: x @ x < 1.0,
    lambda x: all(x[i] > 0.0 for i in range(2)),
    lambda x: x[0] > 0 if x[1] > 0 else x[0] < 0,
    lambda x: x[0] / x[1] > 1.0,
    lambda x: np.sum(x) < 1.0,
    lambda x: (x + x)[1] > 0.5,
    lambda x: x[0] == 0.5,
], ids=["float of @", "@", "all", "branch", "division", "numpy sum", "list sum", "equality"])
def test_predicates_that_need_numbers_stay_untraced(predicate):
    # a product of numpy's may round otherwise than floats, and x + x is an
    # array's sum but a list's concatenation: none of them traces
    assert trace_guard(predicate, 2) is None


def test_the_disk_and_ball_predicates_stay_untraced():
    assert rl.poincare_disk_lagrangian()._position_guard() is None
    assert trace_guard(_domain_spec({"ball": 2.0}, 2), 2) is None


def test_a_new_predicate_is_traced_again():
    # config and tests assign _domain after construction, so a guard is
    # traced when a kernel first needs it, and again for another predicate
    L = rl.parse_lagrangian(KEPLER, dim=2)
    L._domain = lambda x: x[0] > 0.1
    assert L._position_guard().source == "(0.1 < t0)"
    L._domain = lambda x: x[0] > 0.2
    assert L._position_guard().source == "(0.2 < t0)"
    with pytest.raises(rl.PositionDomainError):
        rl.el_acceleration(L, [0.15, 0.0], [0.3, 1.2])
    L._domain = lambda x: float(x[0]) > 0.2
    assert L._position_guard() is None
    with pytest.raises(rl.PositionDomainError):
        rl.el_acceleration(L, [0.15, 0.0], [0.3, 1.2])


def test_batches_call_a_traced_predicate_no_time_per_row():
    calls = [0]

    def predicate(x):
        calls[0] += 1
        return x[0] > 0.1

    L = rl.parse_lagrangian(KEPLER, dim=2, domain=predicate)
    F = rl.jacobi_finsler(L, 1.0)
    rng = np.random.default_rng(8)
    xs = np.stack([rng.uniform(0.5, 1.5, 200), rng.uniform(-3.0, 3.0, 200)], 1)
    vs = rng.uniform(-1.0, 1.0, (200, 2))
    for field in (L, F):  # each field traces the predicate once, when it first needs it
        field._position_guard()
    assert calls == [2]
    calls[0] = 0
    energies(L, xs, vs)
    _solve_momenta(L, CyclicSplit.of(2, [1]), np.array([0.7]), xs[:, :1], vs[:, :1], np.zeros(1))
    for order in (0, 1):
        F.eval_batch(xs, vs, order)
    assert calls == [0]
