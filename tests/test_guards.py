"""Position predicates traced into kernel guards and column checks.

A predicate that returns comparisons, joined by ``&``, of +, -, * and
negation over the positions traces once, where ``_domain`` is set
(``expressions.trace_guard``): the level, spray and Euler-Lagrange kernels
check it in their first lines, ``domain_check`` runs its float code, and a
batch checks it once on the columns of its positions. Each must give the
Python predicate's verdict at every float point, and the kernels its error.
Any other predicate is refused with TypeError when it is set.
"""

import functools
import itertools
import math
import re

import numpy as np
import pytest

import routhlab as rl
from routhlab import CyclicSplit
from routhlab.config import _domain_spec
from routhlab.expressions import trace_guard
from routhlab.jets import tree_kernel
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
    guard = model._domain
    points = np.array(list(itertools.product(VALUES, repeat=2)))
    with np.errstate(all="ignore"):
        verdicts = [bool(predicate(x)) for x in points]
        assert guard(points.T).tolist() == verdicts
    assert 0 < sum(verdicts) < len(verdicts)
    el = tree_kernel(model, "el")
    reduced, args = rl.ReducedLagrangian(model, CyclicSplit.of(2, [1]), np.array([0.5]))._el_flow()
    level = {kind: (tree_kernel(model, kind), model.expression.jet_kernel(kind, 2))
             for kind in ("level-value", "level-fiber", "level-full", "spray", "level-spray")}
    for x, inside in zip(points, verdicts):
        assert model._rows_in_domain(x[None, :], x[None, :]) is inside
        with np.errstate(all="ignore"):
            want = _outcome(lambda: model.domain_check(x, ()))
        assert (want is None) is inside
        assert _outcome(lambda: el(*x.tolist(), 0.5, -0.25)) == (want or (0.5, -0.25, 0.0, 0.0))
        # the level kinds raise the guard's error first, and inside it give the unguarded kernel's
        for kind, (kernel, unguarded) in level.items():
            got, bare = (_outcome(lambda k=k: k(*x.tolist(), 0.5, -0.25, 1.0)) for k in (kernel, unguarded))
            assert repr(got) == repr(want or bare), kind
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
    lambda x: True,
], ids=["float of @", "@", "all", "branch", "division", "numpy sum", "list sum", "equality", "constant"])
def test_predicates_that_need_numbers_stay_untraced(predicate):
    # a product of numpy's may round otherwise than floats, and x + x is an
    # array's sum but a list's concatenation: none of them traces, and a
    # model refuses each when it is built, naming the cause
    causes = ("a sum, product or array of positions", "a branch on a value",
              "over the positions and constants, not '/'", "== or !=", "it returns True, not a condition")
    for build in (lambda: rl.MechanicalLagrangian(2, np.eye(2), domain=predicate),
                  lambda: rl.parse_lagrangian(KEPLER, dim=2, domain=predicate)):
        with pytest.raises(TypeError, match="the position predicate <lambda> does not trace: ") as info:
            build()
        assert sum(c in str(info.value) for c in causes) == 1, info.value


def test_the_disk_and_ball_predicates_trace():
    disk = "(((t0 * t0) + (t1 * t1)) < 1.0)"
    assert rl.poincare_disk_lagrangian()._domain.source == disk
    assert rl.poincare_randers(0.5)._domain.source == disk
    assert trace_guard(_domain_spec({"ball": 2.0}, 2), 2).source == "(((t0 * t0) + (t1 * t1)) < 4.0)"
    assert trace_guard(_domain_spec({"ball": 3.0}, 1), 1).source == "((t0 * t0) < 9.0)"


def test_a_new_predicate_is_traced_again():
    # config and tests assign _domain after construction: each assignment
    # traces the predicate, once, and one that does not trace is refused,
    # leaving the guard as it was
    L = rl.parse_lagrangian(KEPLER, dim=2)
    L._domain = lambda x: x[0] > 0.1
    assert L._domain.source == "(0.1 < t0)"
    L._domain = lambda x: x[0] > 0.2
    assert L._domain.source == "(0.2 < t0)"
    with pytest.raises(rl.PositionDomainError):
        rl.el_acceleration(L, [0.15, 0.0], [0.3, 1.2])
    with pytest.raises(TypeError, match="a branch on a value"):
        L._domain = lambda x: bool(x[0] > 0.3)
    assert L._domain.source == "(0.2 < t0)"
    L._domain = None
    assert rl.el_acceleration(L, [0.15, 0.0], [0.3, 1.2]).shape == (2,)


def test_batches_call_a_traced_predicate_no_time_per_row():
    calls = [0]

    def predicate(x):
        calls[0] += 1
        return x[0] > 0.1

    L = rl.parse_lagrangian(KEPLER, dim=2, domain=predicate)
    F = rl.jacobi_finsler(L, 1.0)  # which takes L's guard, not its predicate
    rng = np.random.default_rng(8)
    xs = np.stack([rng.uniform(0.5, 1.5, 200), rng.uniform(-3.0, 3.0, 200)], 1)
    vs = rng.uniform(-1.0, 1.0, (200, 2))
    assert calls == [1]
    calls[0] = 0
    energies(L, xs, vs)
    _solve_momenta(L, CyclicSplit.of(2, [1]), np.array([0.7]), xs[:, :1], vs[:, :1], np.zeros(1))
    for order in (0, 1):
        F.eval_batch(xs, vs, order)
    assert calls == [0]


def _counted_disk():
    """The Poincaré disk model with a predicate that counts its calls, and the count."""
    calls = [0]

    def predicate(x):
        calls[0] += 1
        return x[0] * x[0] + x[1] * x[1] < 1.0

    L = rl.poincare_disk_lagrangian()
    L._domain = predicate
    return L, calls


def test_a_disk_equivalence_check_calls_its_predicate_only_when_built():
    # the predicate is traced once, when it is set, and every right-hand
    # side, batch row and position check after that runs its guard
    L, calls = _counted_disk()
    assert calls == [1]
    x0 = np.array([0.15, -0.1])
    v0 = rl.rescale_to_energy(L, x0, np.array([0.6, 0.8]), 1.2)
    report = rl.check_geodesic_equivalence(L, 1.2, x0, v0, 0.6, samples=401)
    assert report.overall, report.summary()
    assert calls == [1]


def test_level_kernels_raise_outside_the_domain_without_the_solve(monkeypatch):
    # the level kinds take the base's guard: outside it they raise
    # PositionDomainError, which no level metric turns into a scale solve
    L, calls = _counted_disk()
    F = rl.jacobi_finsler(L, 2.0)
    solved = []
    monkeypatch.setattr(rl.JacobiFinslerModel, "_solved", lambda self, *args: solved.append(args))
    outside, y = [0.8, 0.7], [0.3, 0.4]
    raises = functools.partial(pytest.raises, rl.PositionDomainError,
                               match=re.escape("position [0.8 0.7] outside the model domain"))
    for kind in ("level-value", "level-fiber", "level-full", "spray", "level-spray"):
        with raises():
            F._level_kernel(kind, outside, y)
        assert F._level_kernel(kind, [0.1, 0.2], y) is not None
    for order in (0, 1, 2):
        with raises():
            F.eval(outside, y, order)
        if order < 2:
            with raises():
                F.eval_batch([[0.1, 0.2], outside], [y, y], order)
    assert solved == [] and calls == [1]
