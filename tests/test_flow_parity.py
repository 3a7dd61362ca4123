"""Euler-Lagrange runs and errors pinned to the bit.

Each digest is the SHA-256 of a run's sampled positions, velocities and
solver statistics, recorded before the position predicates of the flows
were written into their kernels; a change to how a right-hand side is
assembled must reproduce every one. The errors of ``el_acceleration`` are
held to their type and message the same way.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

import routhlab as rl
from routhlab import CyclicSplit

#: the round-trip benchmark's models, Kepler and the polar oscillator, as in test_dsl
ROUND_TRIP_SOURCES = ["0.5*(v1^2 + x1^2*v2^2) + 1/x1", "0.5*(v1^2 + x1^2*v2^2) - 0.5*x1^2"]
KEPLER = ROUND_TRIP_SOURCES[0]
BOUNDED_FIBER = "0.5*v1^2 - x1^2*sqrt(1 - v2^2)"


def _digest(traj) -> str:
    h = hashlib.sha256(traj.positions.tobytes())
    h.update(traj.velocities.tobytes())
    h.update(repr(dataclasses.astuple(traj.stats)).encode())
    return h.hexdigest()


def _starts(seed: int):
    """Three starts near criterion 6's, drawn as the round-trip benchmark draws them."""
    rng = np.random.default_rng(seed)
    x0 = np.stack([rng.uniform(0.95, 1.05, 3), rng.uniform(-np.pi, np.pi, 3)], 1)
    v0 = np.stack([rng.uniform(0.2, 0.4, 3), rng.uniform(1.15, 1.25, 3)], 1)
    return list(zip(x0, v0, rng.uniform(2.0, 4.0, 3)))


def _runs(source, x0, v0, t_end, guess, samples=201, domain=lambda x: x[0] > 0.1):
    """The full and the reduced run of a round trip, at the round trip's tolerance."""
    L = rl.parse_lagrangian(source, dim=2, domain=domain)
    split = CyclicSplit.of(2, [1])
    mu = rl.momentum(L, split, x0, v0)
    full = rl.integrate_el(L, x0, v0, t_end, tol=1e-11, samples=samples)
    red = rl.routhian(L, split, mu, guess=guess, ref_x=x0)
    return full, rl.integrate_el(red, x0[:1], v0[:1], t_end, tol=1e-11, samples=samples)


def _cases():
    yield "criterion 6", (KEPLER, np.array([1.0, 0.0]), np.array([0.3, 1.2]), 10.0, None, 801)
    for k, source in enumerate(ROUND_TRIP_SOURCES):
        for i, (x0, v0, t_end) in enumerate(_starts(20 + k)):
            yield f"round trip {k} start {i}", (source, x0, v0, float(t_end), v0[1:], 201)
    yield "bounded fiber", (BOUNDED_FIBER, np.array([1.0, 0.0]), np.array([0.5, 0.5]), 1.0, None, 201)


#: (full, reduced) digests of each case
DIGESTS = {
    "criterion 6": ("d35c909a42a118e11da65c00b9a49c04375e44c44e27fb0145e095fc5b6b69f3",
                    "5641807bede82d3a5e72ed40d070c6b1791b6701a3f82efe2fb1900391821115"),
    "round trip 0 start 0": ("4f89347aa2b3b1c7534f40e7e4c589bcc522aa0c1e7112be428a1ace3cadc7e5",
                             "a92c446509cdf3086d6ccd7b120009a8d37dba0e8ede5c7dce477ac0b8550293"),
    "round trip 0 start 1": ("af5ca91476549acac5b978bc7509d051b4f68e5eb9a9dd5ed5de61aa011727c5",
                             "e4b6ff0617bf8911fc61b0bdd32046c2bcf5c62c3a7d8581dec383fd136541ab"),
    "round trip 0 start 2": ("640f7d569b09b34fc95909124c470d87f587f1d5a35786e247dc640ada8394e7",
                             "0529335d0c63c8d0edf5628edc0795f2805204302e219a85e76346467ef4da7b"),
    "round trip 1 start 0": ("21907d8c7bccdd0e8825d1f7f8be9c40062afb077b78b1d9e069e1beddf4a094",
                             "5c01c5f6fdd621bd0b0100c71d3aeda32a8ae34b85b34324933006da5fdc1532"),
    "round trip 1 start 1": ("59b67c5eb9ede3e5a526860fcef60f7bab2a08c395355e9cf2828e405d0c543a",
                             "f42e1ec64e612001088dfd6ab7b55e1f0f2c6e0696495c9e5834dc68c556655d"),
    "round trip 1 start 2": ("1fe08f4ad692338acd740bf99f5b73342f2347d1c4ee567fd7c263bea28d340e",
                             "93240cb0ffa2516c2d9501e4d3556b6888d910d85d1f1c10d4f03788d6d4dd03"),
    "bounded fiber": ("2234997d02e37d08e688fe11602e4707c35fa6694b7e7ca04056430ba4252196",
                      "067e2af265af84d1f466a60b75e7008fd1db015ee10d75bed43474753ae586e7"),
}


@pytest.mark.parametrize("case", [name for name, _ in _cases()])
def test_el_runs_reproduce_their_pinned_bits(case):
    full, reduced = _runs(*dict(_cases())[case])
    assert (_digest(full), _digest(reduced)) == DIGESTS[case]


def _error(f):
    try:
        f()
    except rl.RouthlabError as exc:
        return type(exc).__name__, str(exc)
    raise AssertionError("no error raised")


def test_el_acceleration_errors_keep_their_type_and_message():
    bare = rl.parse_lagrangian(KEPLER, dim=2)
    singular = rl.parse_lagrangian("0.5*v1^2 + x1*v2", dim=2)
    kepler = rl.parse_lagrangian(KEPLER, dim=2, domain=lambda x: x[0] > 0.1)
    reduced = rl.ReducedLagrangian(kepler, CyclicSplit.of(2, [1]), np.array([1.0]))
    assert _error(lambda: rl.el_acceleration(kepler, [0.05, 0.3], [0.2, 0.4])) == ERRORS["outside"]
    assert _error(lambda: rl.el_acceleration(reduced, [0.05], [0.2])) == ERRORS["outside reduced"]
    assert _error(lambda: rl.el_acceleration(bare, [0.0, 0.3], [0.2, 0.4])) == ERRORS["division"]
    assert _error(lambda: rl.el_acceleration(singular, [0.5, 0.3], [0.2, 0.4])) == ERRORS["singular"]


#: the type and message of each error
ERRORS = {
    "outside": ("PositionDomainError", "position [0.05 0.3 ] outside the model domain"),
    "outside reduced": ("PositionDomainError", "position [0.05 0.  ] outside the model domain"),
    "division": ("DomainError", "float division by zero"),
    "singular": ("SingularHessian", "velocity Hessian is singular at x=[0.5 0.3], v=[0.2 0.4]"),
}


#: the digest of the oscillator run that the domain x1 < 1.000001 vetoes
#: twice, recorded while every predicate ran in Python
VETO_DIGEST = "b38b6157eef990309b823da9e7901f30134912d759bf7e2c9b2cbd337351f682"


def test_a_predicate_still_vetoes_steps_outside_it():
    runs = {}
    for name, predicate in (("traced", lambda x: x[0] < 1.000001), ("none", None)):
        L = rl.parse_lagrangian("0.5*v1^2 - 0.5*x1^2", dim=1, domain=predicate)
        runs[name] = rl.integrate_el(L, [0.0], [1.0], 3.0, tol=1e-10, samples=101)
    assert _digest(runs["traced"]) == VETO_DIGEST
    assert runs["traced"].stats.rejected == 2 and runs["none"].stats.rejected == 0
