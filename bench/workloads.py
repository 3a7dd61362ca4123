"""The benchmark's four workloads, each run closed-loop by one client.

A workload builds its models (``build``), runs one fixed warm-up op per
family or command (``warmup``), lays out a fixed list of seeded ops
(``plan``), runs one op (``run``) and checks its result outside the timed
region (``check``). ``check`` returns whether the op passed and the worst
observed error as a share of its tolerance.

Every input of a timed op comes from the seed; warm-up inputs are fixed, so
set-up does the same work on every seed. The number of ops follows from the
run length and a nominal cost per op measured on a 2-core x86 virtual machine, so a
run does a fixed amount of work and every count repeats for a given seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

import routhlab as rl

# a tail percentile needs ten samples beyond it; 24 ops put it above p50
MIN_OPS = 24
FD_STEP = float(np.finfo(float).eps) ** 0.25  # step of the jets-vs-fd suite


@dataclass(frozen=True)
class Op:
    label: str  # family or command; labels every span of the op
    args: tuple


def _strata(rng, k: int, lo: float, hi: float, order=None) -> np.ndarray:
    """k uniform draws on [lo, hi], one per equal stratum, in seeded order.

    Stratifying keeps the mix of short and long cases the same from seed to
    seed, so the mean cost of a run does not depend on a lucky draw. Draws
    that share an ``order`` (a permutation of range(k)) rise together.
    """
    order = rng.permutation(k) if order is None else order
    return lo + (hi - lo) * (order + rng.uniform(size=k)) / k


def _direction(rng) -> np.ndarray:
    """Direction drawn from the unit square, away from zero, as in criterion 5."""
    v = rng.uniform(-1.0, 1.0, 2)
    while float(v @ v) < 0.05:
        v = rng.uniform(-1.0, 1.0, 2)
    return v


def _block_gap(got, want) -> float:
    """Largest entry gap, relative to one plus the block's largest entry."""
    got = np.asarray(got, float)
    want = np.asarray(want, float)
    return float(np.max(np.abs(got - want))) / (1.0 + float(np.max(np.abs(want))))


class Workload:
    name = ""
    families: tuple[str, ...] = ()
    nominal_op_s = 1.0  # seconds per op on the reference machine
    timing_unit = 1  # consecutive ops timed together as one op_s sample

    def __init__(self, root: str, seed: int, seconds: float):
        self.root = root
        self.seed = seed
        self.seconds = seconds

    def op_count(self) -> int:
        n = max(MIN_OPS, round(self.seconds / self.nominal_op_s))
        cycle = len(self.families)
        return cycle * math.ceil(n / cycle)

    def plan(self) -> list[Op]:
        raise NotImplementedError

    def build(self):
        raise NotImplementedError

    def warmup(self, state) -> None:
        raise NotImplementedError

    def prepare(self, state, op: Op) -> None:
        """Untimed work before an op; nothing by default."""

    def probe_label(self, op: Op) -> str:
        """Label under which the op's energy-scale probes are counted."""
        return op.label

    def run(self, state, op: Op):
        raise NotImplementedError

    def check(self, state, op: Op, result) -> tuple[bool, float | None]:
        raise NotImplementedError


# -- equivalence-matrix ---------------------------------------------------------


def _conformal_metric(xs):
    c = 1.0 + 0.3 * ((xs[0] * 0.7) * (xs[0] * 0.7) + xs[1] * xs[1])
    return [[c, 0.0], [0.0, c]]


class EquivalenceMatrix(Workload):
    """Criterion-5 cases: one ``check_geodesic_equivalence`` per op."""

    name = "equivalence-matrix"
    families = ("oscillator", "disk", "magnetic", "power")
    nominal_op_s = 0.62
    # energy range, t_end range and start half-width, as in criterion 5,
    # except that disk energies start at 1: below it the level metric's
    # one-form outgrows its norm where |x|^2 > e (the Randers positivity
    # bound), and cases that reach that region stop with a step underflow
    ranges = {
        "oscillator": ((1.0, 4.0), (0.5, 1.0), 0.4),
        "disk": ((1.0, 2.5), (0.4, 0.8), 0.3),
        "magnetic": ((1.0, 3.0), (0.5, 1.0), 0.4),
        "power": ((0.8, 3.0), (0.5, 1.0), 0.4),
    }

    def build(self):
        return {
            "oscillator": rl.MechanicalLagrangian(
                2, np.eye(2), potential=lambda xs: 0.5 * (xs[0] * xs[0] + xs[1] * xs[1])),
            "disk": rl.poincare_disk_lagrangian(),
            "magnetic": rl.MagneticLagrangian(
                2, _conformal_metric, beta=np.array([0.1, -0.2]),
                potential=lambda xs: 0.2 * xs[0] * xs[0]),
            "power": rl.PowerQuadraticLagrangian(2, np.diag([1.0, 1.5]), degree=4.0),
        }

    def plan(self):
        rng = np.random.default_rng(self.seed)
        n = self.op_count()
        k = n // len(self.families)
        cases = {}
        for fam in self.families:
            (e_lo, e_hi), (t_lo, t_hi), half = self.ranges[fam]
            angle = _strata(rng, k, 0.0, 2.0 * math.pi)
            # energy and t_end rise together, so every run holds the longest
            # arc (highest level, longest window) that sets memory and error
            size = rng.permutation(k)
            cases[fam] = list(zip(
                _strata(rng, k, e_lo, e_hi, size),
                np.stack([_strata(rng, k, -half, half), _strata(rng, k, -half, half)], 1),
                np.stack([np.cos(angle), np.sin(angle)], 1),
                _strata(rng, k, t_lo, t_hi, size),
                [401] * k,
            ))
        ops = []
        for i in range(n):
            fam = self.families[i % len(self.families)]
            ops.append(Op(fam, tuple(cases[fam][i // len(self.families)])))
        return ops

    def warmup(self, models):
        for fam in self.families:
            (e_lo, e_hi), _, _ = self.ranges[fam]
            op = Op(fam, (0.5 * (e_lo + e_hi), np.array([0.1, -0.1]),
                          np.array([0.6, 0.8]), 0.1, 101))
            ok, _ = self.check(models, op, self.run(models, op))
            if not ok:
                raise RuntimeError(f"warm-up case for {fam} failed")

    def run(self, models, op):
        e, x0, v_dir, t_end, samples = op.args
        L = models[op.label]
        v0 = rl.rescale_to_energy(L, x0, v_dir, e)
        return rl.check_geodesic_equivalence(L, e, x0, v0, t_end, samples=samples)

    def check(self, models, op, report):
        ratios = [abs(m.value) / m.tolerance for m in report.metrics]
        return report.overall, (max(ratios) if ratios else None)


# -- routh-roundtrip -------------------------------------------------------------


class RouthRoundtrip(Workload):
    """Criterion-6 round trips on DSL central-force models."""

    name = "routh-roundtrip"
    families = ("kepler", "oscillator")
    sources = {
        "kepler": "0.5*(v1^2 + x1^2*v2^2) + 1/x1",
        "oscillator": "0.5*(v1^2 + x1^2*v2^2) - 0.5*x1^2",
    }
    nominal_op_s = 1.2
    gap_tol = 1e-7

    def build(self):
        split = rl.CyclicSplit.of(2, [1])
        return {
            fam: (rl.parse_lagrangian(src, dim=2, domain=lambda x: x[0] > 0.1), split)
            for fam, src in self.sources.items()
        }

    def plan(self):
        rng = np.random.default_rng(self.seed)
        n = self.op_count()
        k = n // len(self.families)
        # starts near criterion 6's (1, 0), (0.3, 1.2): moderately eccentric
        # orbits whose cost varies little from case to case
        cases = {}
        for fam in self.families:
            x0 = np.stack([_strata(rng, k, 0.95, 1.05), _strata(rng, k, -math.pi, math.pi)], 1)
            v0 = np.stack([_strata(rng, k, 0.2, 0.4), _strata(rng, k, 1.15, 1.25)], 1)
            cases[fam] = list(zip(x0, v0, _strata(rng, k, 2.0, 4.0)))
        ops = []
        for i in range(n):
            fam = self.families[i % len(self.families)]
            x0, v0, t_end = cases[fam][i // len(self.families)]
            ops.append(Op(fam, (x0, v0, float(t_end), 801)))
        return ops

    def warmup(self, models):
        for fam in self.families:
            op = Op(fam, (np.array([1.0, 0.0]), np.array([0.3, 1.2]), 1.0, 101))
            ok, _ = self.check(models, op, self.run(models, op))
            if not ok:
                raise RuntimeError(f"warm-up round trip for {fam} failed")

    def run(self, models, op):
        x0, v0, t_end, samples = op.args
        L, split = models[op.label]
        mu = rl.momentum(L, split, x0, v0)
        full = rl.integrate_el(L, x0, v0, t_end, tol=1e-11, samples=samples)
        reduced = rl.routhian(L, split, mu, ref_x=x0)
        red_run = rl.integrate_el(reduced, x0[:1], v0[:1], t_end, tol=1e-11,
                                  samples=samples)
        rebuilt = rl.reconstruct(L, split, mu, red_run, cyclic_start=x0[1:])
        return full, rebuilt

    def check(self, models, op, result):
        full, rebuilt = result
        gap = float(np.max(np.abs(rebuilt.positions - full.positions)))
        return gap <= self.gap_tol, gap / self.gap_tol


# -- metric-field -----------------------------------------------------------------


class MetricField(Workload):
    """One energy-level metric evaluation per op at a scattered point.

    Families run round-robin and the evaluation kind (value, fiber_jet,
    eval) advances once per round, so every (family, kind) pair gets the
    same share of ops. Points never repeat within a run, so the metric's
    exact-input cache cannot help.
    """

    name = "metric-field"
    families = ("magnetic", "power2", "power3", "power4", "expression")
    kinds = ("value", "fiber_jet", "eval")
    nominal_op_s = 3.6e-4
    energies = {"magnetic": 2.0, "power2": 1.7, "power3": 1.7, "power4": 1.7,
                "expression": 0.4}
    closed_tol = 1e-10
    fd_tol = 1e-6
    fd_every = 64  # every 64th expression op is also held against fd_jet
    warmup_points = 150

    def op_count(self):
        cycle = len(self.families) * len(self.kinds)
        return cycle * max(1, round(self.seconds / self.nominal_op_s / cycle))

    def build(self):
        lag = {
            "magnetic": rl.MagneticLagrangian(
                2, lambda xs: [
                    [1.0 + 0.25 * (xs[0] * xs[0] + xs[1] * xs[1]), 0.0],
                    [0.0, 1.0 + 0.25 * (xs[0] * xs[0] + xs[1] * xs[1])],
                ],
                beta=np.array([0.4, -0.3]),
                potential=lambda xs: 0.2 * xs[0] * xs[1] - 0.1 * xs[0]),
            "expression": rl.parse_lagrangian(
                "0.5*(v1^2 + x1^2*v2^2) + 1/x1", dim=2, domain=lambda x: x[0] > 0.1),
        }
        for k in (2, 3, 4):
            lag[f"power{k}"] = rl.PowerQuadraticLagrangian(2, np.diag([1.0, 1.5]), degree=k)
        # the DSL model written as an analytic family, for its closed form
        twin = rl.MechanicalLagrangian(
            2, lambda xs: [[1.0, 0.0], [0.0, xs[0] * xs[0]]],
            potential=lambda xs: -1.0 / xs[0], domain=lambda x: x[0] > 0.1)
        metrics = {fam: rl.jacobi_finsler(L, self.energies[fam]) for fam, L in lag.items()}
        closed = {
            "magnetic": rl.randers_closed_form(lag["magnetic"], self.energies["magnetic"]),
            "expression": rl.randers_closed_form(twin, self.energies["expression"]),
        }
        for k in (2, 3, 4):
            closed[f"power{k}"] = rl.homogeneous_closed_form(lag[f"power{k}"], 1.7)
        # fd_jet gets its own metric object so it never touches the timed cache
        fd_metric = rl.jacobi_finsler(lag["expression"], self.energies["expression"])
        return {"metric": metrics, "closed": closed, "fd": fd_metric}

    def _point(self, rng, fam):
        if fam == "expression":
            x = np.array([rng.uniform(0.6, 1.6), rng.uniform(-math.pi, math.pi)])
        else:
            x = rng.uniform(-1.0, 1.0, 2)
        # the metrics are 1-homogeneous in y, so |y| is held to an annulus, as
        # in the jets-vs-fd suite: fd stencils near y = 0 would measure their
        # own truncation error
        y = _direction(rng)
        return x, y * (rng.uniform(0.7, 1.5) / float(np.linalg.norm(y)))

    def plan(self):
        rng = np.random.default_rng(self.seed)
        ops = []
        n_fam = len(self.families)
        expression_ops = 0
        for i in range(self.op_count()):
            fam = self.families[i % n_fam]
            kind = self.kinds[(i // n_fam) % len(self.kinds)]
            x, y = self._point(rng, fam)
            fd = False
            if fam == "expression":
                fd = expression_ops % self.fd_every == 0
                expression_ops += 1
            ops.append(Op(fam, (kind, x, y, fd)))
        return ops

    def warmup(self, state):
        # one op is too small to be real set-up work, so every (family, kind)
        # pair runs on the same fixed points: a ring of directions at a
        # few positions
        angles = np.linspace(0.0, 2.0 * math.pi, self.warmup_points, endpoint=False)
        ys = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        for fam in self.families:
            base = np.array([1.1, 0.3]) if fam == "expression" else np.array([0.2, -0.3])
            for kind in self.kinds:
                for i, y in enumerate(ys):
                    x = base + 0.1 * ys[(3 * i) % len(ys)]
                    op = Op(fam, (kind, x, y, False))
                    ok, _ = self.check(state, op, self.run(state, op))
                    if not ok:
                        raise RuntimeError(f"warm-up {kind} on {fam} failed at {x}, {y}")

    def run(self, state, op):
        kind, x, y, _ = op.args
        return getattr(state["metric"][op.label], kind)(x, y)

    @staticmethod
    def _blocks(kind, result):
        if kind == "value":
            return (result,)
        if kind == "fiber_jet":
            return result
        return (result.value, result.d_x, result.d_y, result.d_yy, result.d_xy)

    def check(self, state, op, result):
        kind, x, y, fd = op.args
        got = self._blocks(kind, result)
        want = self._blocks(kind, getattr(state["closed"][op.label], kind)(x, y))
        # values relative, as in criteria 2 and 3; derivative blocks against
        # one plus their size
        gaps = [abs(got[0] - want[0]) / abs(want[0])]
        gaps += [_block_gap(a, b) for a, b in zip(got[1:], want[1:])]
        ratio = max(gaps) / self.closed_tol
        ok = ratio <= 1.0
        if fd:
            # fd_jet's own truncation error dominates its gap, so it gates
            # the op but is not the program's error reported as tol_used
            j = rl.fd_jet(state["fd"], x, y, h=FD_STEP)
            ref = {"value": (j.value,), "fiber_jet": (j.value, j.d_y, j.d_yy),
                   "eval": self._blocks("eval", j)}[kind]
            scale = 1.0 + abs(ref[0])
            fd_gap = max(float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) / scale
                         for a, b in zip(got, ref))
            ok = ok and fd_gap <= self.fd_tol
        return ok, ratio


# -- cli-configs ---------------------------------------------------------------------

# (command, shipped config, documented exit code)
CLI_CASES = tuple(
    [(cmd, cfg, 0) for cfg in ("disk_verify", "oscillator_verify")
     for cmd in ("describe", "integrate-el", "finslerize", "geodesic", "verify", "plot")]
    + [
        ("routh-reduce", "polar_reduction", 0),
        ("routh-reduce", "tamper_bad_cyclic", 2),
        ("verify", "tamper_unreachable_energy", 3),
        ("verify", "tamper_wrong_energy", 1),
    ]
)
CSV_OUTPUT = {
    "integrate-el": "el_trajectory.csv",
    "geodesic": "geodesic_trajectory.csv",
    "routh-reduce": "reconstructed_trajectory.csv",
}
REPORT_OUTPUT = {"verify": "verify_report.json", "routh-reduce": "reduction_report.json"}
ALL_OUTPUTS = (*CSV_OUTPUT.values(), *REPORT_OUTPUT.values(), "trajectories.svg")


class CliConfigs(Workload):
    """One in-process CLI command on a shipped config per op."""

    name = "cli-configs"
    families = tuple(f"{cmd}:{cfg}" for cmd, cfg, _ in CLI_CASES)
    nominal_op_s = 6.1 / len(CLI_CASES)
    # op_s samples are whole rounds. The median single command is the short
    # integrate-el on the disk config, and this host runs such commands up to
    # 1.8x slower for a whole run, which spread the median 25-39% across seeds
    timing_unit = len(CLI_CASES)
    expected = {f"{cmd}:{cfg}": code for cmd, cfg, code in CLI_CASES}

    def __init__(self, root, seed, seconds):
        super().__init__(root, seed, seconds)
        self.configs = os.path.join(root, "configs")
        self.out = os.path.join(root, ".bench_out", "cli")

    def op_count(self):
        # whole shuffled rounds of all commands, so every run has the same mix
        n = len(CLI_CASES)
        return n * max(1, round(self.seconds / (self.nominal_op_s * n)))

    def build(self):
        from routhlab.cli import main
        from routhlab.config import build_model, load_config

        configs = {}
        for _, cfg, _ in CLI_CASES:
            path = os.path.join(self.configs, f"{cfg}.json")
            configs[cfg] = path
            if not cfg.startswith("tamper_"):
                build_model(load_config(path))
        # reduced copies of two shipped configs drive the warm-up commands
        warm_dir = os.path.join(self.out, "warmup")
        os.makedirs(warm_dir, exist_ok=True)
        warm = {}
        for cfg in ("disk_verify", "polar_reduction"):
            doc = load_config(configs[cfg])
            doc["time"].update({"t_end": 0.1, "samples": 101})
            warm[cfg] = os.path.join(warm_dir, f"{cfg}.json")
            with open(warm[cfg], "w", encoding="ascii") as fh:
                json.dump(doc, fh)
        return {"main": main, "configs": configs, "warm": warm}

    def plan(self):
        rng = np.random.default_rng(self.seed)
        ops = []
        for _ in range(self.op_count() // len(CLI_CASES)):
            for i in rng.permutation(len(CLI_CASES)):
                cmd, cfg, _ = CLI_CASES[i]
                ops.append(Op(f"{cmd}:{cfg}", (cmd, cfg, False)))
        return ops

    def warmup(self, state):
        cmds = ("describe", "integrate-el", "finslerize", "geodesic", "verify", "plot")
        ops = [Op(f"{cmd}:disk_verify", (cmd, "disk_verify", True)) for cmd in cmds]
        ops += [Op("routh-reduce:polar_reduction", ("routh-reduce", "polar_reduction", True)),
                Op("verify:tamper_wrong_energy", ("verify", "tamper_wrong_energy", False))]
        for op in ops:
            self.prepare(state, op)
            ok, _ = self.check(state, op, self.run(state, op))
            if not ok:
                raise RuntimeError(f"warm-up command {op.label} failed")

    def _out_dir(self, op):
        cmd, cfg, warm = op.args
        return os.path.join(self.out, "warmup" if warm else cfg, cmd)

    def probe_label(self, op):
        return op.args[1].removesuffix("_verify")

    def prepare(self, state, op) -> None:
        """Remove the op's earlier outputs, so the check sees fresh files."""
        for name in ALL_OUTPUTS:
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(self._out_dir(op), name))

    def run(self, state, op):
        cmd, cfg, warm = op.args
        path = (state["warm"] if warm else state["configs"])[cfg]
        args = [cmd, "--config", path, "--out", self._out_dir(op), "--seed", str(self.seed)]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                state["main"](args, standalone_mode=False)
            except SystemExit as exc:
                return exc.code
        return 0

    def check(self, state, op, code):
        cmd, cfg, _ = op.args
        if code != self.expected[op.label]:
            return False, None
        if code != 0:
            return True, None
        out = self._out_dir(op)
        ok = True
        if cmd in CSV_OUTPUT:
            ok = self._csv_round_trip(os.path.join(out, CSV_OUTPUT[cmd]))
        ratio = None
        if cmd in REPORT_OUTPUT:
            with open(os.path.join(out, REPORT_OUTPUT[cmd]), encoding="ascii") as fh:
                report = json.load(fh)
            ok = ok and report["overall"]
            ratio = max(abs(m["value"]) / m["tolerance"] for m in report["metrics"])
        return ok, ratio

    @staticmethod
    def _csv_round_trip(path: str) -> bool:
        """write -> read -> write reproduces the command's CSV byte for byte."""
        copy = path + ".again"
        rl.write_trajectory_csv(copy, rl.read_trajectory_csv(path))
        with open(path, "rb") as a, open(copy, "rb") as b:
            same = a.read() == b.read()
        os.remove(copy)
        return same


WORKLOADS = {w.name: w for w in (EquivalenceMatrix, RouthRoundtrip, MetricField, CliConfigs)}
