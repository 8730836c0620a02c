"""Microbenchmarks of single layers over a fixed node set.

The node set is the same in every run: points at offsets from each finite
endpoint spanning 1e-300 to 1e-1 of the interval (the smallest ones below
one ulp of a nonzero endpoint, so ``x`` rounds onto it while the offset
stays exact), plus interior points, or growing points on an unbounded side.
Every figure is the median of several timed repeats, each scaled to
reference time by a kernel run just before it (see :mod:`hostspeed`).
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from time import perf_counter

import fishergeom as fg
import fishergeom.manifold as fm

from env import ROOT, SRC
from hostspeed import HostSpeed

REPEATS = 7
OFFSETS = (1e-300, 1e-200, 1e-100, 1e-30, 1e-17, 1e-12, 1e-6, 1e-3, 1e-1)
BETA = fg.BetaParams(1.05, 2.05)


def nodes(interval) -> list[tuple[float, float]]:
    """``(x, xc)`` pairs in ``interval``, with exact signed offsets."""
    lo, hi = interval.lo, interval.hi
    if interval.finite:
        w = hi - lo
        pts = [(lo + d * w, d * w) for d in OFFSETS] + [(hi - d * w, -d * w) for d in OFFSETS]
        return pts + [(lo + f * w, f * w) for f in (0.25, 0.5)]
    pts = [(lo + d, d) for d in OFFSETS]
    return pts + [(lo + d, d) for d in (1.0, 10.0, 1e3, 1e6, 1e12)]


def _ns_per_call(speed: HostSpeed, fn, args: list[tuple], loops: int) -> float:
    samples = []
    for _ in range(REPEATS):
        factor = speed.factor()
        t0 = perf_counter()
        for _ in range(loops):
            for a in args:
                fn(*a)
        samples.append((perf_counter() - t0) * factor / (loops * len(args)))
    return statistics.median(samples) * 1e9


def density_ns_per_eval(speed: HostSpeed) -> dict[str, float]:
    charts = fg.charts_for(fg.bernoulli_model())
    rho = fg.beta_chart_density(BETA)
    p = fg.intrinsic_from_chart(rho)
    kinds = {
        "closed_form": rho,
        "converted": p,
        "chart_view": fg.chart_from_intrinsic(p, charts["arcsin"]),
        "pushforward_arcsin": fg.pushforward(rho, charts["arcsin"]),
        "pushforward_reciprocal": fg.pushforward(rho, charts["reciprocal"]),
    }
    out = {}
    for kind, d in kinds.items():
        domain = d.chart.domain if isinstance(d, fg.ChartDensity) else d.model.canonical_domain
        out[f"density.ns_per_eval.{kind}"] = _ns_per_call(speed, d.value_offset, nodes(domain), 100)
    return out


def manifold_ns_per_call(speed: HostSpeed) -> dict[str, float]:
    s_chart = fg.arclength_chart(fg.bernoulli_model())
    pts = nodes(s_chart.domain)
    canonical = [fm.chart_canonical_offset(s_chart, s, sc) for s, sc in pts]
    return {
        "manifold.ns_per_call.verify_offset": _ns_per_call(
            speed, fm.verify_offset, [(s_chart.domain, s, sc) for s, sc in pts], 300),
        "manifold.ns_per_call.chart_canonical_offset": _ns_per_call(
            speed, fm.chart_canonical_offset, [(s_chart, s, sc) for s, sc in pts], 200),
        "manifold.ns_per_call.chart_from_canonical_offset": _ns_per_call(
            speed, fm.chart_from_canonical_offset, [(s_chart, t, c) for t, c in canonical], 200),
    }


def quadrature_ns_per_node(speed: HostSpeed) -> dict[str, float]:
    """Cost of one DE node with an integrand that does no work."""
    unit = fg.Interval(0.0, 1.0)

    def free(x, xc):
        return 1.0

    evaluations = fg.integrate_chart(free, unit).evaluations
    return {"quadrature.ns_per_node": _ns_per_call(speed, fg.integrate_chart, [(free, unit)], 40)
            / evaluations}


def embed_ns_per_row(speed: HostSpeed) -> dict[str, float]:
    charts = fg.charts_for(fg.bernoulli_model())
    rho = fg.beta_chart_density(BETA)
    n = 1001
    return {f"embed.ns_per_row.{name}":
            _ns_per_call(speed, fg.sample_curve, [(rho, charts[name], n)], 1) / n
            for name in ("theta", "arcsin", "reciprocal")}


def cli_import_ms(speed: HostSpeed) -> dict[str, float]:
    """``import fishergeom.cli`` in a fresh interpreter, less a bare start."""
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(code: str) -> float:
        factor = speed.factor()
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                       stdout=subprocess.DEVNULL, timeout=60)
        return (perf_counter() - t0) * factor

    bare, full = [], []
    for _ in range(REPEATS):
        bare.append(run("pass"))
        full.append(run("import fishergeom.cli"))
    return {"cli.import_ms": (statistics.median(full) - statistics.median(bare)) * 1e3}


def all_layers(speed: HostSpeed) -> dict[str, float]:
    out = {}
    for bench in (quadrature_ns_per_node, density_ns_per_eval, manifold_ns_per_call,
                  embed_ns_per_row, cli_import_ms):
        out.update(bench(speed))
    return out
