"""Shared fixtures and deterministic hypothesis settings."""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from routhlab import ScalarField, SingularHessian
from routhlab.jets import solve_linear

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


class _Untraced(ScalarField):
    """A model's domain and ``expr`` without its tree, so ``eval`` runs hyper-duals."""

    def __init__(self, model):
        self.model, self.dim, self._domain = model, model.dim, model._domain

    def expr(self, xs, ys):
        return self.model.expr(xs, ys)


@pytest.fixture(scope="session")
def hyper_dual():
    """``hyper_dual(model, x, y, order=2)``: the hyper-dual jet of the model's
    ``expr``, the oracle of its compiled kernels."""
    return lambda model, x, y, order=2: _Untraced(model).eval(x, y, order)


@pytest.fixture(scope="session")
def numpy_el():
    """``numpy_el(model, x, v)``: ``el_acceleration``'s numpy path, ``eval``'s jet
    and ``solve_linear``, the oracle of the generated ``"el"`` and
    ``"reduced-el"`` kernels."""

    def accel(model, x, v):
        x, v = np.asarray(x, float), np.asarray(v, float)
        j = model.eval(x, v)
        return solve_linear(j.d_yy, j.d_x - j.d_xy.T @ v, lambda: SingularHessian(
            f"velocity Hessian is singular at x={x}, v={v}"))

    return accel
