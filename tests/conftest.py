"""Shared fixtures and deterministic hypothesis settings."""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from hyperdual import dual_eval
from routhlab import SingularHessian
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


@pytest.fixture(scope="session")
def hyper_dual():
    """``hyper_dual(model, x, y, order=2)``: the hyper-dual jet of the model's
    ``expr`` (:func:`hyperdual.dual_eval`), the oracle of its compiled kernels."""
    return dual_eval


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


def _level_outcome(f):
    """The blocks f returns, as arrays, or the error's type and message."""
    try:
        out = f()
    except Exception as exc:  # noqa: BLE001 - the type and message are compared
        return type(exc), str(exc)
    if isinstance(out, float):
        return [np.array(out)]
    parts = out if isinstance(out, tuple) else (out.value, out.d_x, out.d_y, out.d_yy, out.d_xy)
    return [np.asarray(p, float) for p in parts]


@pytest.fixture(scope="session")
def level_parity():
    """``level_parity(F, x, y)``: assert that each order of ``F.eval`` equals the
    scale solve and numpy assembly (``F._solved``) or raises what it raises;
    True where the level kernels ran, False where one declined.

    The kernel's |y| and probe residuals sum from the left, where numpy's
    ``@`` and ``norm`` fuse multiply-adds, so its s can sit a few ulps from
    ``solve_energy_scale``'s (more where a refit of k amplifies them), and a
    block that cancels (Kepler's d_x) carries that into its small entries:
    each jet agrees to 1e-14 of its largest entry, not to the bit.
    """

    def check(F, x, y):
        ran = True
        for order, kind in enumerate(("level-value", "level-fiber", "level-full")):
            want = _level_outcome(lambda: F._solved(x, y, order))
            got = _level_outcome(lambda: F.eval(x, y, order))
            ran = ran and F._level_kernel(kind, x.tolist(), y.tolist()) is not None
            if isinstance(want, tuple):
                assert got == want, (order, x, y)
                continue
            scale = max(float(np.max(np.abs(block), initial=0.0)) for block in want)
            for a, b in zip(got, want, strict=True):
                assert a.shape == b.shape and np.max(np.abs(a - b), initial=0.0) <= 1e-14 * scale, (order, x, y)
        return ran

    return check
