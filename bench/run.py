"""Seeded, single-process benchmark of routhlab.

Usage, from the root of a checkout:

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: equivalence-matrix, routh-roundtrip, metric-field, cli-configs
(see ``workloads.py`` and ``BENCHMARK.json``). The program is imported from
``src/`` of the same checkout; the benchmark stops with exit code 2 when it
is missing.

``--trace 0`` times every op and prints the end-to-end metrics. ``--trace 1``
runs the first half of the same ops twice, untraced and then traced, and
prints the per-layer metrics with the tracing overhead. Either way the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Outputs go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_out")
DEFAULT_SEED = 1
SETUP_PASSES = 3  # set-up is repeated and its median reported
TAIL_BEYOND = 10  # samples beyond the tail sample
TAIL_CAP = 0.99  # highest tail percentile reported

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "ops_per_s": "1/s",
    "ok_rate": "ratio",
    "tol_used": "ratio",
    "peak_rss_mb": "MB",
}


def tail_rank(n: int) -> int:
    """1-based rank of the tail sample: ten samples beyond it, at most p99.

    Never below the upper median, so short runs report a tail at or above
    their p50.
    """
    return max(n // 2 + 1, min(n - TAIL_BEYOND, math.ceil(TAIL_CAP * n)))


def import_program() -> float:
    """Import routhlab from this checkout's src/; returns the seconds it took."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "routhlab", "__init__.py")):
        sys.exit(f"bench: {src}/routhlab not found; run from a full checkout")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import routhlab

    import_s = time.perf_counter() - t0
    if not os.path.abspath(routhlab.__file__).startswith(src + os.sep):
        sys.exit(f"bench: imported routhlab from {routhlab.__file__}, not from {src}")
    return import_s


class Pass:
    """Times and checks one pass over a list of ops."""

    def __init__(self):
        self.times: list[float] = []
        self.failed = 0
        self.ratios: list[float] = []  # error / tolerance, per checked op

    @property
    def busy_s(self) -> float:
        return sum(self.times)

    def run(self, wl, state, ops, tracer=None) -> None:
        for op in ops:
            wl.prepare(state, op)
            if tracer is not None:
                tracer.label = wl.probe_label(op)
                tracer.active = True
                span = tracer.open(tracer.name_id(f"bench.op.{op.label}"), "bench")
            t0 = time.perf_counter()
            try:
                result = wl.run(state, op)
                error = None
            except Exception:  # an op that raises counts as a failed attempt
                error = traceback.format_exc()
            self.times.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.close(span)
                tracer.active = False
            if error is None:
                try:
                    ok, ratio = wl.check(state, op, result)
                except Exception:
                    ok, ratio, error = False, None, traceback.format_exc()
            else:
                ok, ratio = False, None
            if ratio is not None:
                self.ratios.append(ratio)
            if not ok:
                self.failed += 1
                print(f"bench: op {op.label} {op.args!r} failed", file=sys.stderr)
                if error:
                    print(error, file=sys.stderr)


def source_digest() -> str:
    """Short hash of the program's sources, so counts compare like with like."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "routhlab")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:12]


def count_selfcheck(name: str, seed: int, seconds: float, counts: dict) -> int:
    """Compare count metrics with the last traced run of the same seed and sources.

    Returns how many counts differ (0 when there is no earlier run). Counts
    are exact, so any difference means the program's work is not a function
    of its inputs.
    """
    path = os.path.join(OUT, "counts",
                        f"{name}-seed{seed}-{seconds:g}s-{source_digest()}.json")
    mismatched = 0
    if os.path.isfile(path):
        with open(path, encoding="ascii") as fh:
            before = json.load(fh)
        diff = sorted(k for k in counts if before.get(k) != counts[k])
        mismatched = len(diff)
        if diff:
            print(f"bench: counts differ from the last run with seed {seed}: "
                  + ", ".join(f"{k} {before.get(k)} -> {counts[k]}" for k in diff),
                  file=sys.stderr)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="ascii") as fh:
        json.dump(counts, fh, indent=1, sort_keys=True)
    return mismatched


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # set-up: import, then SETUP_PASSES times build the models and run one
    # fixed warm-up op per family or command
    import_s = import_program()
    if args.workload == "cli-configs":
        t0 = time.perf_counter()
        import routhlab.cli  # noqa: F401  (the CLI is part of this workload's import)

        import_s += time.perf_counter() - t0
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed, args.seconds)
    passes = []
    for _ in range(SETUP_PASSES):
        t0 = time.perf_counter()
        state = wl.build()
        wl.warmup(state)
        passes.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(passes)
    ops = wl.plan()

    if args.trace:
        # the first half of the ops, whole rounds of families or commands
        cycle = len(wl.families)
        ops = ops[: max(cycle, (len(ops) // 2) // cycle * cycle)]
        plain = Pass()
        plain.run(wl, wl.build(), ops)
        tracer = tracing.Tracer()
        tracer.install()
        traced = Pass()
        try:
            traced.run(wl, wl.build(), ops, tracer)
        finally:
            tracer.uninstall()
        os.makedirs(os.path.join(OUT, "trace"), exist_ok=True)
        tracer.save(os.path.join(OUT, "trace", f"{wl.name}-seed{args.seed}.npz"))
        values = tracer.layer_metrics()
        values["setup.import_s"] = import_s
        values["trace.overhead"] = traced.busy_s / plain.busy_s - 1.0
        counts = {k: values[k] for k in tracing.count_metric_names()}
        values["selfcheck.count_mismatch"] = count_selfcheck(
            wl.name, args.seed, args.seconds, counts)
        units = tracing.layer_metric_units()
        attempted = 2 * len(ops)
        failed = plain.failed + traced.failed
        print(f"{wl.name} seed={args.seed}: {len(ops)} ops untraced in "
              f"{plain.busy_s:.2f} s, traced in {traced.busy_s:.2f} s, "
              f"{values['trace.spans']} spans")
    else:
        timed = Pass()
        timed.run(wl, state, ops)
        n = len(timed.times)
        unit = wl.timing_unit
        times = sorted(sum(timed.times[i:i + unit]) for i in range(0, n, unit))
        k = len(times)
        ratios = sorted(timed.ratios)
        # every reported figure is one sample's own value: the upper median,
        # and the sample with ten beyond it, never an average of two
        values = {
            "setup_s": setup_s,
            "op_s.p50": times[k // 2],
            "op_s.tail": times[tail_rank(k) - 1],
            "ops_per_s": n / timed.busy_s,
            "ok_rate": (n - timed.failed) / n,
            # at the tail rank, like op_s.tail: one extreme case out of a few
            # dozen would otherwise set the whole run's figure
            "tol_used": ratios[tail_rank(len(ratios)) - 1] if ratios else float("nan"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        attempted, failed = n, timed.failed
        print(f"{wl.name} seed={args.seed}: {n} ops in {timed.busy_s:.2f} s; "
              f"op_s.tail is p{100 * tail_rank(k) / k:.4g} over {k} samples; worst error "
              f"{max(timed.ratios, default=float('nan')):.3g} of tolerance; set-up passes "
              + ", ".join(f"{p:.3f}" for p in passes) + f" s after {import_s:.3f} s import")

    correct = failed == 0 and all(v == v for v in values.values())
    if args.trace:
        correct = correct and values["selfcheck.count_mismatch"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
