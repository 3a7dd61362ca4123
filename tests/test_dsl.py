"""Expression language: grammar, precedence, and error positions."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from routhlab import (
    ArityError,
    DomainError,
    ParseError,
    StencilDomainError,
    fd_jet,
    parse_expression,
    parse_lagrangian,
)


def ev(text, xs=(), ys=()):
    return parse_expression(text)(xs, ys)


def test_numbers_and_scientific_notation():
    assert ev("2") == 2.0
    assert ev("2.5e-3") == 2.5e-3
    assert ev(".5") == 0.5
    assert ev("1e2") == 100.0


def test_precedence_and_associativity():
    assert ev("2+3*4") == 14.0
    assert ev("2*3+4") == 10.0
    assert ev("2-3-4") == -5.0  # left associative subtraction
    assert ev("12/3/2") == 2.0
    assert ev("2^3^2") == 512.0  # right associative power
    assert ev("-2^2") == -4.0  # unary binds looser than power
    assert ev("(2+3)*4") == 20.0
    assert ev("2^-1") == 0.5


def test_variables_and_functions():
    xs = np.array([0.3, -0.7])
    ys = np.array([1.5, 2.0])
    assert ev("x1 + 2*x2", xs, ys) == pytest.approx(0.3 - 1.4)
    assert ev("v1*v2", xs, ys) == pytest.approx(3.0)
    assert ev("sin(x1)^2 + cos(x1)^2", xs, ys) == pytest.approx(1.0)
    assert ev("sqrt(v1^2)", xs, ys) == pytest.approx(1.5)
    assert ev("log(exp(x1))", xs, ys) == pytest.approx(0.3)


def test_variable_footprint_is_recorded():
    e = parse_expression("x3 + v2")
    assert e.max_x == 3
    assert e.max_v == 2
    assert parse_expression("4.2").max_x == 0


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse_expression("1 + $")
    assert info.value.column == 5
    assert info.value.line == 1
    with pytest.raises(ParseError) as info:
        parse_expression("1 +\n  * 2")
    assert info.value.line == 2


def test_parse_error_cases():
    for bad in ["", "   ", "1 +", "(1", "sin 2", "sin(1", "2 3", "x0", "foo(1)"]:
        with pytest.raises(ParseError):
            parse_expression(bad)


def test_arity_enforcement():
    with pytest.raises(ArityError):
        parse_expression("x3", dim=2)
    with pytest.raises(ArityError):
        parse_expression("v1 + x1", allow_velocity=False)
    # within bounds parses fine
    parse_expression("x2 + v2", dim=2)
    parse_expression("x2", dim=2, allow_velocity=False)


def test_arity_error_is_a_parse_error():
    assert issubclass(ArityError, ParseError)


@given(
    a=st.floats(min_value=-5, max_value=5, allow_nan=False),
    b=st.floats(min_value=0.1, max_value=5, allow_nan=False),
)
def test_random_arithmetic_matches_python(a, b):
    xs = np.array([a, b])
    got = ev("x1*x2 - x1/x2 + x2^2", xs)
    want = a * b - a / b + b * b
    assert math.isclose(got, want, rel_tol=1e-14, abs_tol=1e-14)


def test_expression_works_on_dual_inputs():
    from routhlab import seed_second

    e = parse_expression("x1^2 * v1 + sin(x1)")
    x1, v1 = seed_second([0.5, 2.0])
    out = e([x1], [v1])
    assert math.isclose(out.v, 0.25 * 2.0 + math.sin(0.5))
    # d/dx1 = 2*x1*v1 + cos(x1), d/dv1 = x1^2
    assert math.isclose(out.g[0], 2.0 + math.cos(0.5))
    assert math.isclose(out.g[1], 0.25)
    # d2/dx1dv1 = 2*x1
    assert math.isclose(out.h[0, 1], 1.0)


def test_power_follows_one_rule_for_floats_and_duals():
    from routhlab import seed_second

    # exponent 2 is a product on every path, so float and dual values agree;
    # pow(x, 2.0) rounds this x one ulp away from x * x
    x = 0.7559376686872161
    (x1,) = seed_second([x])
    assert ev("x1^2", [x]) == x * x == ev("x1^2", [x1]).v
    assert ev("(-2)^3") == -8.0  # integer exponents allow a negative base
    with pytest.raises(ValueError):
        ev("(-2)^0.5")
    with pytest.raises(ValueError):
        ev("x1^v1", [-2.0], [3.0])  # a variable exponent needs a positive base


@pytest.mark.parametrize("source, x", [("(x1-2)^0.5 + v1^2", 1.0), ("(-2)^0.5 + v1^2", 1.0)])
def test_negative_base_fractional_power_is_a_domain_error(source, x):
    L = parse_lagrangian(source, dim=1)
    for path in (L.value, L.fiber_jet, L.eval):
        with pytest.raises(DomainError):
            path([x], [0.5])
    with pytest.raises(StencilDomainError):
        fd_jet(L, [x], [0.5])
