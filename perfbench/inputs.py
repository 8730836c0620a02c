"""Seeded inputs of the three workloads, as plain tuples.

Pure Python and free of the library, so the same seed gives the same lists
in every process. Beta shapes are drawn log-uniform on [0.1, 20], which
covers the acceptance grid [0.3, 5]. Shapes below about 0.05 are left out on
purpose: there the reciprocal-chart normalization stops converging and
1e7-scale shapes give silently wrong answers (ROADMAP item 2), so they would
make the timed mix fail rather than measure it. For the same reason the mode
searches draw no shape within 0.1% of a unimodality threshold (1/2 for the
intrinsic density, 1 for the chart density): a density that diverges at a
boundary as weakly as ``(1 - theta)**-1e-4`` reads as finite to the mode
search's boundary probe.
"""

from __future__ import annotations

import math
import random

SHAPE_LO = 0.1
SHAPE_HI = 20.0
CHARTS = ("theta", "arcsin", "reciprocal", "arclength")
MODELS = ("bernoulli", "poisson", "exponential")

INTEGRAL_SHAPES = 35    # 7 integrals each, plus 3 volumes: 248 ops a pass
MODE_SHAPES = 98        # 2 searches each, plus 6 acceptance cases: 202 ops a pass
COLD_CALLS = 20         # CLI subprocesses a traced run
THRESHOLD_BAND = 1e-3   # relative half-width of the shape band kept off each threshold

# name of the golden file -> (alpha, beta, chart) of its `density` command
FIGURES = {
    "fig1_flat_prior_theta": (0.5, 0.5, "theta"),
    "fig2_flat_prior_arcsin": (0.5, 0.5, "arcsin"),
    "fig2_flat_prior_reciprocal": (0.5, 0.5, "reciprocal"),
    "fig5_symmetric_alpha0.49": (0.49, 0.49, "theta"),
    "fig5_symmetric_alpha0.51": (0.51, 0.51, "theta"),
    "fig5_symmetric_alpha0.99": (0.99, 0.99, "theta"),
    "fig5_symmetric_alpha1.01": (1.01, 1.01, "theta"),
    "fig6_skewed_beta": (1.05, 2.05, "theta"),
}
FIGURE_SAMPLES = 1001
EMBED_SAMPLES = 257

# acceptance cases of the mode search: (kind, alpha, beta, chart)
ACCEPTANCE_MODES = (
    ("map_pushed", 0.5, 0.5, "arcsin"),
    ("map_pushed", 0.5, 0.5, "reciprocal"),
    ("mapi", 0.49, 0.49, "arclength"),
    ("mapi", 0.51, 0.51, "arclength"),
    ("map", 0.99, 0.99, "arclength"),
    ("map", 1.01, 1.01, "arclength"),
)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _stratified(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """``n`` uniform draws on [lo, hi], one in each of ``n`` equal bins, shuffled.

    Every seed then gets nearly the same spread of values, so the cost of
    a pass depends little on the seed.
    """
    xs = [lo + (i + rng.random()) * (hi - lo) / n for i in range(n)]
    rng.shuffle(xs)
    return xs


def _shapes(rng: random.Random, n: int) -> list[tuple[float, float]]:
    """``n`` Beta shape pairs, each shape log-uniform on [SHAPE_LO, SHAPE_HI]."""
    lo, hi = math.log(SHAPE_LO), math.log(SHAPE_HI)
    alphas = _stratified(rng, lo, hi, n)
    betas = _stratified(rng, lo, hi, n)
    return [(math.exp(a), math.exp(b)) for a, b in zip(alphas, betas)]


def _off_threshold(shape: float) -> float:
    """Move a shape inside a threshold band to the band's nearer edge."""
    for t in (0.5, 1.0):
        if abs(shape - t) < THRESHOLD_BAND * t:
            return t * (1.0 + math.copysign(THRESHOLD_BAND, shape - t))
    return shape


def _balanced(rng: random.Random, choices: tuple, n: int) -> list:
    """``n`` picks that use every choice equally often, in a seeded order."""
    picks = [choices[i % len(choices)] for i in range(n)]
    rng.shuffle(picks)
    return picks


def integrals(seed: int) -> list[tuple]:
    """One pass: per shape, normalization in the 4 charts and intrinsically,
    P[0, x] and E[theta**k]; then the volumes of the three models."""
    rng = _rng("integrals", seed)
    n = INTEGRAL_SHAPES
    ops = []
    for (a, b), x, k in zip(_shapes(rng, n), _stratified(rng, 0.01, 0.99, n),
                            _balanced(rng, (1, 2, 3), n)):
        for chart in CHARTS:
            ops.append(("normalization", a, b, chart))
        ops.append(("normalization", a, b, "intrinsic"))
        ops.append(("prob", a, b, x))
        ops.append(("expect", a, b, k))
    ops.extend(("volume", m) for m in MODELS)
    return ops


def modes(seed: int) -> list[tuple]:
    """One pass: per shape, MAPI and MAP each searched in a seeded chart;
    then the acceptance cases."""
    rng = _rng("modes", seed)
    n = MODE_SHAPES
    ops = []
    for (a, b), mapi_chart, map_chart in zip(_shapes(rng, n), _balanced(rng, CHARTS, n),
                                             _balanced(rng, CHARTS, n)):
        a, b = _off_threshold(a), _off_threshold(b)
        ops.append(("mapi", a, b, mapi_chart))
        ops.append(("map", a, b, map_chart))
    ops.extend(ACCEPTANCE_MODES)
    return ops


def figures(seed: int) -> list[tuple]:
    """One pass: the golden curves as CSV and as JSON, and the embedded
    manifold as SVG, in a seeded order."""
    ops = [(fmt, name) for fmt in ("csv", "json") for name in FIGURES]
    ops.append(("svg", "embed"))
    _rng("figures", seed).shuffle(ops)
    return ops


def cold_calls(workload: str, seed: int) -> list[tuple]:
    """Arguments of the CLI subprocesses a traced run times, as ``(check, argv)``.

    Each workload times the subcommands that do its kind of work; their
    shapes are the first seeded shapes of the workload's own pass.
    """
    calls: list[tuple] = []
    if workload == "integrals":
        for op in integrals(seed):
            if op[0] == "prob":
                calls.append((op, ["prob", "--alpha", repr(op[1]), "--beta", repr(op[2]),
                                   "--from", "0", "--to", repr(op[3])]))
            elif op[0] == "expect":
                calls.append((op, ["expect", "--alpha", repr(op[1]), "--beta", repr(op[2]),
                                   "--power", str(op[3])]))
                calls.append((("volume", "bernoulli"), ["volume", "--model", "bernoulli"]))
    elif workload == "modes":
        for op in modes(seed)[:2 * MODE_SHAPES]:
            chart = op[3] if op[0] == "mapi" else "theta"
            calls.append((op, ["mode", "--kind", op[0], "--alpha", repr(op[1]),
                               "--beta", repr(op[2]), "--chart", chart]))
    else:
        for fmt, name in figures(seed):
            if fmt == "csv":
                a, b, chart = FIGURES[name]
                calls.append((("csv", name), ["density", "--alpha", str(a), "--beta", str(b),
                                              "--chart", chart, "--samples", str(FIGURE_SAMPLES)]))
            elif fmt == "svg":
                calls.append((("svg", "embed"), ["embed", "--samples", str(EMBED_SAMPLES),
                                                 "--format", "svg"]))
    return (calls * COLD_CALLS)[:COLD_CALLS]
