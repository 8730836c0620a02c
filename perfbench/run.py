"""Closed-loop benchmark of fishergeom on three workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {integrals,modes,figures} \\
        --seed N --seconds S --trace {0,1}

One process, one thread, one client: every operation is issued only after
the previous one returns. A run repeats passes over the workload's seeded
operation list for ``--seconds`` and checks every output against an
independent oracle (failures are counted, never fatal). ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` is a separate run that records spans
and reports the per-layer metrics. Every metric is printed by name with its
unit, and the last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Without the library's sources in the checkout the run exits with status 2
and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from time import perf_counter

import env
import inputs
import oracle
from hostspeed import HostSpeed

SETUP_PROBES = 15     # fresh interpreters whose median set-up time is reported
MIN_PASSES = 5
MIN_TRACED_PAIRS = 3

END_TO_END = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p95": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "quadrature.evals.normalization": "count",
    "quadrature.evals.prob": "count",
    "quadrature.evals.expect": "count",
    "quadrature.evals.volume": "count",
    "quadrature.evals.divergent_volume": "count",
    "quadrature.evals_per_digit": "count/digit",
    "quadrature.unconverged": "count",
    "quadrature.ns_per_node": "ns",
    "quadrature.self_ms_per_op": "ms",
    "density.ns_per_eval.closed_form": "ns",
    "density.ns_per_eval.converted": "ns",
    "density.ns_per_eval.chart_view": "ns",
    "density.ns_per_eval.pushforward_arcsin": "ns",
    "density.ns_per_eval.pushforward_reciprocal": "ns",
    "density.self_ms_per_op.integrals": "ms",
    "density.self_ms_per_op.modes": "ms",
    "density.self_ms_per_op.figures": "ms",
    "manifold.ns_per_call.verify_offset": "ns",
    "manifold.ns_per_call.chart_canonical_offset": "ns",
    "manifold.ns_per_call.chart_from_canonical_offset": "ns",
    "mode.evals.map": "count",
    "mode.evals.mapi": "count",
    "mode.self_ms_per_search": "ms",
    "embed.ns_per_row.theta": "ns",
    "embed.ns_per_row.arcsin": "ns",
    "embed.ns_per_row.reciprocal": "ns",
    "embed.self_ms_per_curve": "ms",
    "cli.self_ms.csv": "ms",
    "cli.self_ms.json": "ms",
    "cli.self_ms.svg": "ms",
    "cli.import_ms": "ms",
    "cli.cold_ms_p50": "ms",
    "trace.overhead_ratio": "ratio",
}


class Tally:
    """Operations attempted, and the failures among them."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, attempted: int, failures: list[str]) -> None:
        self.attempted += attempted
        self.failures.extend(failures)


def run_pass(w, calls: list, tracer=None, speed: HostSpeed | None = None):
    """One pass over ``calls``; returns op seconds, failures and outputs.

    With ``speed``, op times are scaled to reference time; without, wall time.
    """
    times, failures, outs = [], [], []
    with w.traced(tracer) if tracer else nullcontext():
        for i, call in enumerate(calls):
            first = len(tracer.spans) if tracer else 0
            factor = speed.current() if speed else 1.0
            t0 = perf_counter()
            try:
                if tracer is None:
                    out = call()
                else:
                    out = tracer.call(f"op.{w.ops[i][0]}", tracer.call, w.layer(i), call)
            except Exception as exc:  # a failed op is counted, the run goes on
                out = exc
            times.append((perf_counter() - t0) * factor)
            if isinstance(out, Exception):
                err = f"raised {out!r}"
            else:
                err = w.check(i, out)
                if not err and tracer:
                    err = w.check_count(i, out, tracer.spans[first + 1])
            if err:
                failures.append(f"{w.name} op {i} {w.ops[i]}: {err}")
            outs.append(out)
    return times, failures, outs


def setup_seconds(name: str, seed: int) -> float:
    """Median set-up time of fresh interpreters, each scaled to reference time."""
    probe = [sys.executable, str(env.ROOT / "perfbench" / "setup_probe.py"), name, str(seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(probe, cwd=env.ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(proc.stdout))
    return statistics.median(samples)


def cold_cli_ms(name: str, seed: int, tally: Tally, speed: HostSpeed) -> float:
    """Median time, in reference ms, of ``python -m fishergeom.cli``
    subprocesses running the workload's own subcommands."""
    golden = {n: oracle.golden_rows(n) for n in inputs.FIGURES}
    child_env = dict(os.environ, PYTHONPATH=str(env.SRC))
    times = []
    for op, argv in inputs.cold_calls(name, seed):
        factor = speed.factor()
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-m", "fishergeom.cli", *argv], cwd=env.ROOT,
                              env=child_env, capture_output=True, text=True, timeout=120)
        times.append((perf_counter() - t0) * factor)
        if proc.returncode != 0:
            err = f"exit status {proc.returncode}: {proc.stderr.strip()}"
        else:
            try:
                err = oracle.check_cold(op, proc.stdout, golden)
            except (KeyError, ValueError) as exc:
                err = f"unreadable output: {exc!r}"
        tally.add(1, [f"cli {' '.join(argv)}: {err}"] if err else [])
    return statistics.median(times) * 1e3


def end_to_end(name: str, seed: int, seconds: float, tally: Tally) -> dict[str, float]:
    setup_s = setup_seconds(name, seed)

    import workloads

    env.check_imported_from_checkout()
    w = workloads.WORKLOADS[name](seed)
    calls = w.build()
    w.warm_up(calls)

    speed = HostSpeed()
    passes = []
    start = perf_counter()
    while perf_counter() - start < seconds or len(passes) < MIN_PASSES:
        times, failures, _ = run_pass(w, calls, speed=speed)
        tally.add(len(times), failures)
        passes.append(times)

    # an op's time is its median over the passes; the metrics run over ops
    op_times = [statistics.median(column) for column in zip(*passes)]
    cuts = statistics.quantiles(op_times, n=100, method="inclusive")
    print(f"# {name}: {len(passes)} passes of {len(calls)} ops, op percentiles over "
          f"{len(op_times)} ops; wall times scaled by {speed.scale():.4f} "
          f"(median of {len(speed.samples)} reference-kernel samples)")
    return {
        "ops_per_s": len(op_times) / sum(op_times),
        "op_ms_p50": cuts[49] * 1e3,
        "op_ms_p95": cuts[94] * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _rows(summary: dict, key: str) -> list[list]:
    """Summary rows of the span named ``key``, or of every span under it
    when ``key`` ends with a dot."""
    return [v for k, v in summary.items()
            if k == key or (key.endswith(".") and k.startswith(key))]


def _per(summary: dict, key: str, column: int = 1) -> float:
    """Total of a summary column over the spans ``key`` selects, per span."""
    rows = _rows(summary, key)
    return sum(r[column] for r in rows) / sum(r[0] for r in rows)


def _spans(summary: dict, key: str) -> int:
    return sum(r[0] for r in _rows(summary, key))


def per_layer(name: str, seed: int, seconds: float, tally: Tally) -> dict[str, float]:
    import layers
    import workloads
    from spans import Tracer

    env.check_imported_from_checkout()
    speed = HostSpeed()
    summaries, last_outs, doc = {}, {}, {"workload": name, "seed": seed, "tracers": {}}
    overhead = None
    # the run's own workload last and longest; one traced pass of each other
    for wname in sorted(workloads.WORKLOADS, key=lambda n: n == name):
        w = workloads.WORKLOADS[wname](seed)
        plain = w.build()
        w.warm_up(plain)
        tracer = Tracer()
        traced = w.build(tracer)
        if wname != name:
            times, failures, last_outs[wname] = run_pass(w, traced, tracer, speed)
            tally.add(len(times), failures)
        else:
            plain_passes, traced_passes = [], []
            deadline = perf_counter() + seconds
            while perf_counter() < deadline or len(traced_passes) < MIN_TRACED_PAIRS:
                for calls, passes, t in ((plain, plain_passes, None),
                                         (traced, traced_passes, tracer)):
                    times, failures, last_outs[wname] = run_pass(w, calls, t, speed)
                    tally.add(len(times), failures)
                    passes.append(sum(times))
            overhead = statistics.median(traced_passes) / statistics.median(plain_passes)
            print(f"# {name}: {len(traced_passes)} traced passes, each after an untraced one")
        summaries[wname] = tracer.summary()
        doc["tracers"][wname] = tracer.to_json()

    env.work_dir().joinpath(f"trace-{name}-seed{seed}.json").write_text(
        json.dumps(doc), encoding="utf-8")

    # traced self times are sums over many passes: scaled by the run's median factor
    scale = speed.scale()
    q, m, f = summaries["integrals"], summaries["modes"], summaries["figures"]
    out = {}
    out["quadrature.self_ms_per_op"] = _per(q, "quadrature.") * 1e3
    for wname, s in summaries.items():
        out[f"density.self_ms_per_op.{wname}"] = s["density"][1] / _spans(s, "op.") * 1e3
    out["mode.self_ms_per_search"] = _per(m, "mode.") * 1e3
    out["embed.self_ms_per_curve"] = _per(f, "embed.") * 1e3
    for fmt in ("csv", "json", "svg"):
        out[f"cli.self_ms.{fmt}"] = _per(f, f"cli.{fmt}") * 1e3
    out = {k: v * scale for k, v in out.items()}
    out["mode.evals.map"] = _per(m, "mode.map", 2)
    out["mode.evals.mapi"] = _per(m, "mode.mapi", 2)
    out["trace.overhead_ratio"] = overhead
    out.update(workloads.Integrals(seed).counts(last_outs["integrals"]))
    out.update(layers.all_layers(speed))
    out["cli.cold_ms_p50"] = cold_cli_ms(name, seed, tally, speed)
    print(f"# traced self times scaled by {scale:.4f}; times paired with "
          f"{len(speed.samples)} reference-kernel samples in all")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("integrals", "modes", "figures"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    try:
        env.require_checkout()
    except env.MissingCheckout as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    tally = Tally()
    if args.trace:
        values, units = per_layer(args.workload, args.seed, args.seconds, tally), PER_LAYER
    else:
        values, units = end_to_end(args.workload, args.seed, args.seconds, tally), END_TO_END

    failed = len(tally.failures)
    for line in tally.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"failed_ratio {failed / tally.attempted:.6g} ({failed} of {tally.attempted} ops)")
    for key, unit in units.items():
        print(f"{key} {values[key]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
