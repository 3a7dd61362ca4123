"""Layer tracing for the benchmark's traced runs.

The tracer wraps public functions and methods of each ``routhlab`` module
from the outside: nothing in the package changes. Every wrapped call made
while the tracer is active records one span (name, start, end, parent) in
compact ``array`` buffers, so a run of millions of spans stays small in
memory. Spans are written out once, after the run, and the per-layer
metrics are derived from them afterwards.

Two naming traps of the package are handled here. ``routhlab.homogenize``
is the public function, so modules are imported by their full dotted name.
And ``solve_ode``, ``integrate_el``, ``integrate_geodesic`` and
``solve_energy_scale`` are imported by name into other modules, so a
function is replaced in every loaded ``routhlab`` namespace that holds it.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

CLI_COMMANDS = (
    "describe",
    "integrate-el",
    "finslerize",
    "geodesic",
    "verify",
    "routh-reduce",
    "plot",
)
METHODS = ("value", "fiber_jet", "eval")
FAMILIES = ("mechanical", "magnetic", "power", "expression")
# op labels whose energy-scale probes are reported on their own, to compare
# with the probe counts measured on the disk and oscillator cases before
PROBE_LABELS = ("disk", "oscillator")


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {
        "setup.import_s": "s",
        "trace.overhead": "ratio",
        "trace.spans": "count",
        "selfcheck.count_mismatch": "count",
    }
    for m in METHODS:
        units[f"lagrangian.{m}.calls"] = "count"
        for fam in FAMILIES:
            units[f"lagrangian.{m}.us.{fam}"] = "us"
    units.update({
        "expressions.parse.calls": "count",
        "expressions.parse.us": "us",
        "homogenize.scale_solve.calls": "count",
        "homogenize.scale_solve.probes_per_call": "count",
        "homogenize.scale_solve.us": "us",
        "homogenize.energy_scale.hit_rate": "ratio",
    })
    for label in PROBE_LABELS:
        units[f"homogenize.scale_solve.probes_per_call.{label}"] = "count"
    for m in METHODS:
        units[f"homogenize.metric.{m}.calls"] = "count"
    units.update({
        "homogenize.metric.self_us": "us",
        "spray.half_square_jet.calls": "count",
        "spray.half_square_jet.self_us": "us",
        "spray.integrate_geodesic.s": "s",
        "integrators.steps": "count",
        "integrators.rejected": "count",
        "integrators.rhs_evals": "count",
        "integrators.accept_rate": "ratio",
        "integrators.solve_ode.self_s": "s",
        "integrators.sample.s": "s",
        "routh.solve_momentum.calls": "count",
        "routh.solve_momentum.jets_per_call": "count",
        "routh.solve_momentum.us": "us",
        "routh.reduced.eval.calls": "count",
        "routh.reconstruct.s": "s",
        "verify.point_set_distance.s": "s",
        "verify.point_set_distance.points": "count",
        "verify.rescale_to_energy.s": "s",
        "config.build.s": "s",
        "fileio.write.s": "s",
        "fileio.bytes": "B",
        "reporting.to_json.s": "s",
    })
    for cmd in CLI_COMMANDS:
        units[f"cli.{cmd}.s"] = "s"
    return units


def count_metric_names() -> list[str]:
    """Metrics that count work: they must repeat exactly for a fixed seed."""
    return [
        name
        for name, unit in layer_metric_units().items()
        if (unit in ("count", "B") or name.endswith(("hit_rate", "accept_rate")))
        and name != "selfcheck.count_mismatch"
    ]


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._groups: list[str | None] = [None]
        self.counters: dict[str, float] = defaultdict(float)
        self.active = False
        self.label = ""
        self._undo: list[tuple] = []

    # -- spans ------------------------------------------------------------

    def name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name_id: int, group: str) -> int:
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self._groups.append(group)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()
        self._groups.pop()

    def wrap(self, fn, name, group: str, after=None):
        """Traced version of fn.

        ``name`` is a span name, or a callable giving the name id from the
        call's first argument (for per-family method spans). A call made
        while a span of the same group is innermost is passed through
        untraced, so a method that calls a sibling method of its own layer
        counts once. ``after(args, result)`` records counts from the result.
        """
        tracer = self
        fixed = None if callable(name) else self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active or tracer._groups[-1] == group:
                return fn(*args, **kwargs)
            i = tracer.open(fixed if fixed is not None else name(args[0]), group)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if after is not None:
                after(args, out)
            return out

        return traced

    # -- installing the wrappers ---------------------------------------------

    def _patch_function(self, module, attr, name, after=None):
        orig = getattr(module, attr)
        new = self.wrap(orig, name, name, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "routhlab" or mod_name.startswith("routhlab.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, new)
                    self._undo.append((mod, key, orig, True))

    def _patch_method(self, cls, attr, name, group=None):
        own = attr in cls.__dict__
        orig = getattr(cls, attr)
        setattr(cls, attr, self.wrap(orig, name, group or name))
        self._undo.append((cls, attr, orig, own))

    def install(self) -> None:
        mod = {n: importlib.import_module(f"routhlab.{n}") for n in (
            "lagrangian", "expressions", "homogenize", "spray", "integrators",
            "routh", "verify", "config", "fileio", "reporting")}
        lag = mod["lagrangian"]

        families = {
            lag.MechanicalLagrangian: "mechanical",
            lag.MagneticLagrangian: "magnetic",
            lag.PowerQuadraticLagrangian: "power",
            lag.ExpressionLagrangian: "expression",
        }
        for m in METHODS:
            ids = {cls: self.name_id(f"lagrangian.{m}.{fam}") for cls, fam in families.items()}
            for cls in (lag.MagneticLagrangian, lag.PowerQuadraticLagrangian,
                        lag.ExpressionLagrangian):
                # subclasses without their own entry count with the class patched
                self._patch_method(
                    cls, m, lambda obj, ids=ids, cls=cls: ids.get(type(obj), ids[cls]),
                    group="lagrangian")

        self._patch_function(mod["expressions"], "parse_expression", "expressions.parse")

        hom = mod["homogenize"]
        self._patch_function(hom, "solve_energy_scale", "homogenize.scale_solve",
                             after=self._count_probes)
        self._patch_method(hom.JacobiFinslerModel, "energy_scale", "homogenize.energy_scale")
        for m in METHODS:
            self._patch_method(hom.JacobiFinslerModel, m, f"homogenize.metric.{m}",
                               group="homogenize.metric")

        spray = mod["spray"]
        self._patch_function(spray, "half_square_jet", "spray.half_square_jet")
        self._patch_function(spray, "integrate_geodesic", "spray.integrate_geodesic")

        integ = mod["integrators"]
        self._patch_function(integ, "solve_ode", "integrators.solve_ode",
                             after=self._count_steps)
        self._patch_method(integ.DenseOutput, "sample", "integrators.sample")
        self._patch_function(lag, "integrate_el", "lagrangian.integrate_el")

        routh = mod["routh"]
        self._patch_function(routh, "solve_momentum", "routh.solve_momentum")
        self._patch_function(routh, "reconstruct", "routh.reconstruct")
        for m in METHODS:
            self._patch_method(routh.ReducedLagrangian, m, f"routh.reduced.{m}",
                               group="routh.reduced")

        ver = mod["verify"]
        self._patch_function(ver, "point_set_distance", "verify.point_set_distance",
                             after=self._count_points)
        self._patch_function(ver, "rescale_to_energy", "verify.rescale_to_energy")
        self._patch_function(ver, "check_geodesic_equivalence",
                             "verify.check_geodesic_equivalence")

        self._patch_function(mod["config"], "build_model", "config.build")
        for writer in ("write_trajectory_csv", "write_report_json", "curves_svg"):
            self._patch_function(mod["fileio"], writer, "fileio.write",
                                 after=self._count_bytes)
        self._patch_method(mod["reporting"].VerificationReport, "to_json",
                           "reporting.to_json")

        cli = sys.modules.get("routhlab.cli")
        if cli is not None:
            for cmd_name, cmd in cli.main.commands.items():
                orig = cmd.callback
                cmd.callback = self.wrap(orig, f"cli.{cmd_name}", "cli")
                self._undo.append((cmd, "callback", orig, True))

    def uninstall(self) -> None:
        for owner, attr, orig, own in reversed(self._undo):
            if own:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)
        self._undo.clear()

    # -- counts taken from results ----------------------------------------------

    def _count_probes(self, args, result) -> None:
        self.counters["probes"] += result.iterations
        if self.label in PROBE_LABELS:
            self.counters[f"probes.{self.label}"] += result.iterations
            self.counters[f"solves.{self.label}"] += 1

    def _count_steps(self, args, result) -> None:
        stats = result[1]
        self.counters["steps"] += stats.steps
        self.counters["rejected"] += stats.rejected
        self.counters["rhs_evals"] += stats.rhs_evals

    def _count_points(self, args, result) -> None:
        self.counters["points"] += len(args[0]) + len(args[1])

    def _count_bytes(self, args, result) -> None:
        self.counters["bytes"] += os.path.getsize(args[0])

    # -- results ------------------------------------------------------------------

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.intc),
            parent=np.frombuffer(self.parent, dtype=np.intc),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics from the recorded spans and counters.

        ``*.calls`` count spans; ``*.us`` is the mean inclusive time per call
        and ``*.self_us`` the mean self time per call, both in microseconds;
        ``*.s`` is total inclusive and ``*.self_s`` total self time over the
        traced pass. Self time is a span's duration minus the time its child
        spans cover.
        """
        k = len(self.names)
        name = np.frombuffer(self.name, dtype=np.intc).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.intc).astype(np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        calls = np.bincount(name, minlength=k)
        incl = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=dur - child, minlength=k)
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)

        def ids(prefix):
            return [i for i, n in enumerate(self.names) if n == prefix
                    or n.startswith(prefix + ".")]

        def n_calls(prefix):
            return int(sum(calls[i] for i in ids(prefix)))

        def total(prefix, arr=incl):
            return float(sum(arr[i] for i in ids(prefix)))

        def mean_us(prefix, arr=incl):
            c = n_calls(prefix)
            return total(prefix, arr) / c * 1e6 if c else 0.0

        def children_of(child_prefix, parent_prefix):
            kids = np.isin(name, ids(child_prefix))
            return int(np.count_nonzero(kids & np.isin(parent_name, ids(parent_prefix))))

        c = self.counters
        out = {}
        for m in METHODS:
            out[f"lagrangian.{m}.calls"] = n_calls(f"lagrangian.{m}")
            for fam in FAMILIES:
                out[f"lagrangian.{m}.us.{fam}"] = mean_us(f"lagrangian.{m}.{fam}")
        out["expressions.parse.calls"] = n_calls("expressions.parse")
        out["expressions.parse.us"] = mean_us("expressions.parse")

        solves = n_calls("homogenize.scale_solve")
        out["homogenize.scale_solve.calls"] = solves
        out["homogenize.scale_solve.probes_per_call"] = c["probes"] / solves if solves else 0.0
        out["homogenize.scale_solve.us"] = mean_us("homogenize.scale_solve")
        for label in PROBE_LABELS:
            n = c[f"solves.{label}"]
            out[f"homogenize.scale_solve.probes_per_call.{label}"] = (
                c[f"probes.{label}"] / n if n else 0.0)
        lookups = n_calls("homogenize.energy_scale")
        misses = children_of("homogenize.scale_solve", "homogenize.energy_scale")
        out["homogenize.energy_scale.hit_rate"] = (
            (lookups - misses) / lookups if lookups else 0.0)
        for m in METHODS:
            out[f"homogenize.metric.{m}.calls"] = n_calls(f"homogenize.metric.{m}")
        out["homogenize.metric.self_us"] = mean_us("homogenize.metric", own)

        out["spray.half_square_jet.calls"] = n_calls("spray.half_square_jet")
        out["spray.half_square_jet.self_us"] = mean_us("spray.half_square_jet", own)
        out["spray.integrate_geodesic.s"] = total("spray.integrate_geodesic")

        steps, rejected = c["steps"], c["rejected"]
        out["integrators.steps"] = int(steps)
        out["integrators.rejected"] = int(rejected)
        out["integrators.rhs_evals"] = int(c["rhs_evals"])
        out["integrators.accept_rate"] = (
            steps / (steps + rejected) if steps + rejected else 0.0)
        out["integrators.solve_ode.self_s"] = total("integrators.solve_ode", own)
        out["integrators.sample.s"] = total("integrators.sample")

        momentum_solves = n_calls("routh.solve_momentum")
        out["routh.solve_momentum.calls"] = momentum_solves
        out["routh.solve_momentum.jets_per_call"] = (
            children_of("lagrangian", "routh.solve_momentum") / momentum_solves
            if momentum_solves else 0.0)
        out["routh.solve_momentum.us"] = mean_us("routh.solve_momentum")
        out["routh.reduced.eval.calls"] = n_calls("routh.reduced.eval")
        out["routh.reconstruct.s"] = total("routh.reconstruct")

        out["verify.point_set_distance.s"] = total("verify.point_set_distance")
        out["verify.point_set_distance.points"] = int(c["points"])
        out["verify.rescale_to_energy.s"] = total("verify.rescale_to_energy")

        out["config.build.s"] = total("config.build")
        out["fileio.write.s"] = total("fileio.write")
        out["fileio.bytes"] = int(c["bytes"])
        out["reporting.to_json.s"] = total("reporting.to_json")
        for cmd in CLI_COMMANDS:
            out[f"cli.{cmd}.s"] = total(f"cli.{cmd}")
        out["trace.spans"] = len(dur)
        return out
