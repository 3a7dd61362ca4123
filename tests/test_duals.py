"""The tests' forward-mode hyper-dual numbers, through the routhlab.duals functions, against
hand-written derivatives."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperdual import HyperDual, seed_second, value_of
from routhlab.duals import cos, exp, log, sin, sqrt

floats = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
pos_floats = st.floats(min_value=0.1, max_value=3.0, allow_nan=False)


def poly(z0, z1):
    return z0 * z0 * z1 + 2.0 * z1 - z0 / (1.5 + z1 * z1)


def analytic_grad(a, b):
    da = 2 * a * b - 1.0 / (1.5 + b * b)
    db = a * a + 2.0 + a * (2 * b) / (1.5 + b * b) ** 2
    return np.array([da, db])


@given(a=floats, b=floats)
def test_grad_matches_hand_derivative(a, b):
    za, zb = seed_second([a, b])
    out = poly(za, zb)
    assert math.isclose(value_of(out), poly(a, b), rel_tol=0, abs_tol=1e-14)
    np.testing.assert_allclose(out.g, analytic_grad(a, b), atol=1e-12)


@given(a=floats, b=floats)
def test_hyperdual_hessian_is_symmetric_and_correct(a, b):
    za, zb = seed_second([a, b])
    out = poly(za, zb)
    h = out.h
    assert np.allclose(h, h.T, atol=0)
    # d2/da2 = 2b, d2/dadb = 2a + 2b/(1.5+b^2)^2
    assert math.isclose(h[0, 0], 2 * b, abs_tol=1e-12)
    mixed = 2 * a + 2 * b / (1.5 + b * b) ** 2
    assert math.isclose(h[0, 1], mixed, abs_tol=1e-11)


@given(x=pos_floats)
def test_unary_functions_chain_through_second_order(x):
    (z,) = seed_second([x])
    for f, f0, f1, f2 in [
        (sqrt, math.sqrt(x), 0.5 / math.sqrt(x), -0.25 * x ** -1.5),
        (exp, math.exp(x), math.exp(x), math.exp(x)),
        (log, math.log(x), 1.0 / x, -1.0 / (x * x)),
        (sin, math.sin(x), math.cos(x), -math.sin(x)),
        (cos, math.cos(x), -math.sin(x), -math.cos(x)),
    ]:
        out = f(z)
        assert math.isclose(out.v, f0, rel_tol=1e-14, abs_tol=1e-14)
        assert math.isclose(out.g[0], f1, rel_tol=1e-13, abs_tol=1e-13)
        assert math.isclose(out.h[0, 0], f2, rel_tol=1e-12, abs_tol=1e-12)


@given(x=pos_floats)
def test_numpy_ufuncs_call_the_dual_functions(x):
    (z,) = seed_second([x])
    for ufunc, f in [(np.sqrt, sqrt), (np.exp, exp), (np.log, log), (np.sin, sin), (np.cos, cos)]:
        got, want = ufunc(z), f(z)
        assert isinstance(got, HyperDual)
        assert got.v == want.v
        np.testing.assert_array_equal(got.g, want.g)
        np.testing.assert_array_equal(got.h, want.h)


def test_plain_floats_pass_through_function_wrappers():
    assert sqrt(4.0) == 2.0
    assert exp(0.0) == 1.0
    assert log(1.0) == 0.0


@given(a=floats, p=st.sampled_from([2, 3, 4, 0.5, -1.0]))
def test_power_rule(a, p):
    if p != int(p) or p < 0:
        a = abs(a) + 0.5
    (z,) = seed_second([a])
    out = z ** p
    assert math.isclose(out.v, a ** p, rel_tol=1e-12)
    assert math.isclose(out.g[0], p * a ** (p - 1), rel_tol=1e-11, abs_tol=1e-11)
    assert math.isclose(
        out.h[0, 0], p * (p - 1) * a ** (p - 2), rel_tol=1e-10, abs_tol=1e-10
    )


def _bits(a: float) -> bytes:
    return b"nan" if math.isnan(a) else struct.pack("<d", a)


SQUARE_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("v", SQUARE_EDGES + [0.7559376686872161, -3.25])
def test_square_rule_has_the_bits_of_the_general_rule(v):
    # p = 2 takes 2.0 * v and 2.0 instead of p * v ** (p - 1) and
    # p * (p - 1) * v ** (p - 2); those are the same bits, zero signs included
    assert _bits(v ** 1.0) == _bits(v)
    assert v ** 0.0 == 1.0
    p = 2.0
    (z,) = seed_second([v])
    with np.errstate(all="ignore"):  # inf * 0 in the Hessian at the edges
        out = z ** 2
        general = z.chain(v * v, p * v ** (p - 1.0), p * (p - 1.0) * v ** (p - 2.0))
    for part in ("v", "g", "h"):
        got, want = np.ravel(getattr(out, part)), np.ravel(getattr(general, part))
        assert list(map(_bits, got.tolist())) == list(map(_bits, want.tolist())), part


def test_pow_one_returns_the_base_bits_on_random_doubles():
    rng = np.random.default_rng(11)
    values = rng.integers(0, 2**64, 20_000, dtype=np.uint64).view(np.float64)
    for v in values[np.isfinite(values)].tolist():
        assert _bits(v ** 1.0) == _bits(v)


def test_division_by_dual_and_rdiv():
    (z,) = seed_second([2.0])
    out = 3.0 / z
    assert math.isclose(out.v, 1.5)
    assert math.isclose(out.g[0], -3.0 / 4.0)
    assert math.isclose(out.h[0, 0], 6.0 / 8.0)


def test_grad_and_hyperdual_mixed_with_constants():
    za, zb = seed_second([1.0, 2.0])
    out = (za + 1.0) * (2.0 - zb)
    assert value_of(out) == 0.0
    np.testing.assert_allclose(out.g, [0.0, -2.0])


def test_domain_errors_bubble_as_value_error():
    (z,) = seed_second([-1.0])
    with pytest.raises(ValueError):
        sqrt(z)
    with pytest.raises(ValueError):
        log(z)


def test_seed_helpers_return_matching_types():
    g = seed_second([1.0, 2.0, 3.0])
    assert all(z.g.shape == (3,) for z in g)
    h = seed_second([1.0, 2.0])
    assert all(isinstance(z, HyperDual) for z in h)
    assert all(z.h.shape == (2, 2) for z in h)
