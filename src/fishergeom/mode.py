"""Mode finding: the chart-dependent and the invariant point estimate.

The argmax of a chart density depends on the chart it is expressed in; the
argmax of the intrinsic density does not. Both are located by the same
derivative-free engine: a coarse scan over interior points of a search
coordinate, golden-section refinement of each local maximum, a parabolic
polish, and explicit probing of the domain boundaries, where the densities
of interest routinely diverge.

Each boundary a finite arc length away is read as the endpoint ``value``
there, by the rule of every density's (``density.endpoint_behaviour``): the
density's local power-law exponent, read from two exact canonical offsets.
A negative exponent is a divergent boundary mode (its value is
``math.inf``), an exponent of 0 a candidate valued at the finite limit, and
a positive one a vanishing boundary, which is no candidate. An offsetless
density (value-only) is probed at offsets theta can hold. A density whose
scan and finite boundary limits all agree to within the tie tolerance is
reported as flat — a distinguished result, since returning one arbitrary
argmax would be misleading; only a divergent boundary rules flatness out.

The engine reads the density through one ``Evaluator``, ``density._canonical``
(at its chart image, the offset checked, for a chart density in a chart but
theta): its core at one canonical point, its column over the scan table, and
its ``value`` at the boundaries, so MAP and MAPI are one argmax, of a chart
density and of an intrinsic one. The scan's points and their exact
canonical offsets, checked once when the table is built, come from the
sample table that curves share (``manifold._chart_samples``); the default
search chart, the model's arc-length chart, is the same object on every call. A search or
report chart of another model raises ``ChartModelMismatchError``. A scan
value of 0 (a tail that underflowed) is never refined, and a scan that is 0
everywhere raises ``ArithmeticError`` rather than reporting ``flat``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .density import (
    BetaParams,
    ChartDensity,
    IntrinsicDensity,
    _canonical,
    beta_chart_density,
    beta_intrinsic_density,
)
from .manifold import Chart, _chart_samples, _require_model, naive_offset

_SCAN_POINTS = 1024
_GOLDEN_TOL = 1e-10
_POLISH_H = 1e-5
_TIE_REL = 1e-9             # relative density window for reporting co-modes
_FLAT_REL = 1e-9

_INV_PHI = 0.5 * (math.sqrt(5.0) - 1.0)


@dataclass(frozen=True)
class ModeResult:
    """A located maximizer (or the flat / boundary-divergent verdict).

    ``all_modes`` lists every canonical point whose density ties the global
    maximum within tolerance, sorted ascending; it is empty only for a flat
    density, where ``canonical_point`` and ``chart_point`` are NaN.
    """

    canonical_point: float
    chart_point: float
    density_value: float
    at_boundary: bool
    all_modes: tuple[float, ...]
    flat: bool = False


def _flat(value: float) -> ModeResult:
    """The verdict for a density without a mode, valued ``value``."""
    return ModeResult(math.nan, math.nan, value, False, (), flat=True)


def _is_flat(levels: list[float]) -> bool:
    """Whether ``levels`` are positive, finite and within ``_FLAT_REL`` of their
    maximum: one ``max``, and a full ``min`` only where the first and the last
    level already fit that window. Finiteness is tested last: a nan or inf
    fails the window or that test."""
    top = max(levels)
    window = _FLAT_REL * max(abs(top), 1e-300)
    return (top > 0.0 and top - levels[0] <= window and top - levels[-1] <= window
            and top - min(levels) <= window and all(map(math.isfinite, levels)))


def _golden_max(f, a: float, b: float, tol: float) -> float:
    x1 = b - _INV_PHI * (b - a)
    x2 = a + _INV_PHI * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_PHI * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_PHI * (b - a)
            f1 = f(x1)
    return 0.5 * (a + b)


def _parabolic_polish(f, x: float, lo: float, hi: float) -> float:
    """One quadratic-vertex step; beats the flat-top noise plateau of pure
    value comparisons near a smooth maximum."""
    h = _POLISH_H * max(1.0, abs(x))
    xm, xp = x - h, x + h
    if xm <= lo or xp >= hi:
        return x
    fm, f0, fp = f(xm), f(x), f(xp)
    if not all(map(math.isfinite, (fm, f0, fp))):
        return x
    denom = fm - 2.0 * f0 + fp
    if denom >= 0.0:
        return x
    shift = 0.5 * h * (fm - fp) / denom
    if abs(shift) > h:
        return x
    return x + shift


def _numeric_mode(d: ChartDensity | IntrinsicDensity, search_chart: Chart | None,
                  report_chart: Chart) -> ModeResult:
    model, canonical = d.model, _canonical(d)
    s_chart = model.arclength    # the default search chart
    search_chart = search_chart or s_chart
    _require_model(search_chart, model)
    _require_model(report_chart, model)
    sdom, dom = search_chart.domain, model.canonical_domain

    def obj(x: float) -> float:
        return canonical.core(*search_chart.canonical_offset(x, naive_offset(sdom, x)))

    samples = _chart_samples(model, search_chart, _SCAN_POINTS)
    grid, thetas = samples.xs, samples.thetas
    vals = canonical.column(samples)

    # the limit at each boundary a finite arc length away; one that vanishes
    # (or cannot be classified) is no candidate
    boundary = []
    for theta_b, s_end in ((dom.lo, s_chart.domain.lo), (dom.hi, s_chart.domain.hi)):
        if math.isfinite(theta_b) and math.isfinite(s_end):
            limit = canonical.value(theta_b)
            if limit > 0.0:
                boundary.append((theta_b, limit))

    if _is_flat(vals + [v for _, v in boundary]):
        # valued from the scan alone: a limit read at a tiny offset
        # carries more rounding than an interior value
        return _flat(0.5 * (max(vals) + min(vals)))

    # a maximum at an end of the scan is refined up to a finite chart end whose
    # boundary is no candidate (a vanishing boundary can hide a mode past the scan)
    taken = {theta for theta, _ in boundary}
    lo_end, hi_end = (dom.lo, dom.hi) if thetas[0] < thetas[-1] else (dom.hi, dom.lo)
    first = sdom.lo if math.isfinite(sdom.lo) and lo_end not in taken else grid[0]
    last = sdom.hi if math.isfinite(sdom.hi) and hi_end not in taken else grid[-1]

    # refine every interior local maximum of the scan, bracketed by its
    # neighbours; a zero (an underflowed tail) is never the maximum of a density
    inf, ends = math.inf, (first, *grid, last)
    peaks = [(lo, hi) for lo, left, v, right, hi
             in zip(ends, [-inf] + vals, vals, vals[1:] + [-inf], ends[2:])
             if not (v < left or v < right) and 0.0 < v < inf]
    candidates: list[tuple[float, float]] = list(boundary)
    for lo, hi in peaks:
        tol = _GOLDEN_TOL * max(1.0, abs(lo), abs(hi))
        x_star = _golden_max(obj, lo, hi, tol)
        x_star = _parabolic_polish(obj, x_star, sdom.lo, sdom.hi)
        theta_star, _ = search_chart.canonical_offset(x_star, naive_offset(sdom, x_star))
        candidates.append((theta_star, obj(x_star)))

    if not candidates:
        raise ArithmeticError(
            "mode search found no positive finite density value: the density "
            "underflowed to 0 (or is not finite) on the whole scan grid")

    # cluster refinements of the same peak
    candidates.sort()
    merged: list[tuple[float, float]] = []
    for theta, v in candidates:
        if merged and abs(theta - merged[-1][0]) < 1e-7:
            if v > merged[-1][1]:
                merged[-1] = (theta, v)
        else:
            merged.append((theta, v))

    best = max(v for _, v in merged)
    if math.isinf(best):
        modes = [(theta, v) for theta, v in merged if math.isinf(v)]
    else:
        cut = best - _TIE_REL * abs(best)
        modes = [(theta, v) for theta, v in merged if v >= cut]

    all_modes = tuple(sorted(theta for theta, _ in modes))
    canonical_point = all_modes[0]
    chart_point, _ = report_chart.from_canonical_offset(
        canonical_point, naive_offset(report_chart.canonical_domain, canonical_point))
    at_boundary = any(theta in taken for theta, _ in modes)
    return ModeResult(canonical_point, chart_point, best, at_boundary, all_modes)


def map_estimate(rho: ChartDensity, search_chart: Chart | None = None) -> ModeResult:
    """Argmax of the chart density over its own chart: chart-dependent by design."""
    return _numeric_mode(rho, search_chart, rho.chart)


def mapi_estimate(p: IntrinsicDensity, report_chart: Chart,
                  search_chart: Chart | None = None) -> ModeResult:
    """Argmax of the intrinsic density: the same point whatever chart the
    search runs in, reported in ``report_chart`` coordinates."""
    return _numeric_mode(p, search_chart, report_chart)


def beta_mode_analytic(params: BetaParams, intrinsic: bool) -> ModeResult:
    """Closed-form mode structure of a Beta density.

    With effective exponents ``(a, b)`` — shifted by one half for the
    intrinsic form — the density is proportional to
    ``theta**a (1-theta)**b``: an interior mode at ``a/(a+b)`` when both are
    positive, boundary or bimodal behaviour otherwise, flat when both vanish.
    """
    shift = 0.5 if intrinsic else 1.0
    a = params.alpha - shift
    b = params.beta - shift
    density = beta_intrinsic_density(params) if intrinsic else beta_chart_density(params)

    if a == 0.0 and b == 0.0:
        return _flat(math.exp(-params.log_norm))
    if a > 0.0 and b > 0.0:
        theta = a / (a + b)
        return ModeResult(theta, theta, density.value(theta), False, (theta,))
    if a < 0.0 or b < 0.0:     # a divergent boundary mode at each negative exponent's end
        ends = tuple(end for end, e in ((0.0, a), (1.0, b)) if e < 0.0)
        return ModeResult(ends[0], ends[0], math.inf, True, ends)
    # one exponent is exactly zero, the other positive: finite boundary mode
    theta = 0.0 if a == 0.0 else 1.0
    return ModeResult(theta, theta, math.exp(-params.log_norm), True, (theta,))
