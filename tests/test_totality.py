"""Every shipped map is total: at a limit it returns the limit, never raises.

The chart maps and Fisher metrics of the shipped models, and the density
conversions built from them, are evaluated at admissible ``(x, xc)`` pairs
(see ``fishergeom.manifold``) out to and at the ends of their intervals:
exact ends, exact offsets down to the smallest subnormal from both anchors,
the degenerate far anchors a full width away, and infinite ends. Each must
return floats; what a value becomes once it cannot be represented (``inf``
for ``1/0``) is decided in the map that produces it, and no caller catches
an arithmetic error.
"""

import math

import pytest

from fishergeom import (
    BetaParams,
    ChartDensity,
    Interval,
    beta_chart_density,
    beta_intrinsic_density,
    bernoulli_model,
    chart_from_intrinsic,
    charts_for,
    exponential_model,
    intrinsic_from_chart,
    poisson_model,
    pushforward,
)
from fishergeom.manifold import verify_offset

MODELS = {m.name: m for m in (bernoulli_model(), poisson_model(), exponential_model())}
COIN_CHARTS = charts_for(bernoulli_model())
# exact offsets from a finite end, nearest first; a full width is added per interval
OFFSETS = (0.0, 5e-324, 1e-320, 1e-310, 1e-300, 1e-200, 1e-160, 1e-154, 1e-100, 1e-17, 1e-8, 0.25)
# distances from the finite end of a half line, out to the largest double
FAR = (1.0, 1e8, 1e154, 1e200, 1e300, 1.7e308)
# points of the whole line, where offsets are NaN
LINE = (-math.inf, -1e300, -746.0, -745.0, -1.0, 0.0, 1.0, 709.0, 710.0, 1e300, math.inf)
SHAPES = ((0.5, 0.5), (1.0, 1.0), (2.0, 3.0), (0.3, 2.0), (1e-3, 20.0))


def admissible(interval: Interval) -> list[tuple[float, float]]:
    """``(x, xc)`` pairs of the closure of ``interval`` that its offset check accepts."""
    lo, hi = interval.lo, interval.hi
    if not (math.isfinite(lo) or math.isfinite(hi)):
        return [(x, math.nan) for x in LINE]
    pairs = []
    for end, sign in ((lo, 1.0), (hi, -1.0)):
        if math.isfinite(end):
            offsets = OFFSETS + ((hi - lo,) if interval.finite else FAR)
            pairs += [(end + sign * off, sign * off) for off in offsets]
        else:
            pairs.append((end, math.nan))
    return pairs


def test_pairs_are_admissible():
    for interval in {c.domain for m in MODELS.values() for c in charts_for(m).values()}:
        for x, xc in admissible(interval):
            assert interval.in_closure(x)
            assert verify_offset(interval, x, xc) == xc or math.isnan(xc)
    # the degenerate far anchors of the coin family: theta = 0 a full width from 1, and back
    assert {(0.0, -1.0), (1.0, 1.0)} <= set(admissible(bernoulli_model().canonical_domain))


def _is_float(v) -> bool:
    return type(v) is float


def _domain(d) -> Interval:
    return d.chart.domain if isinstance(d, ChartDensity) else d.model.canonical_domain


@pytest.mark.parametrize("model", MODELS)
def test_fisher_metric_offset(model):
    m = MODELS[model]
    for theta, co in admissible(m.canonical_domain):
        g = m.fisher_metric_offset(theta, co)
        assert _is_float(g), (theta, co, g)
        assert not g < 0.0, (theta, co, g)


def test_metric_is_inf_at_a_vanishing_coordinate():
    # 1/0: the metric of every shipped model diverges where its canonical
    # coordinate (or, for the coin, its distance to either end) is 0
    coin = bernoulli_model()
    for theta, co in ((0.0, 0.0), (1.0, -0.0), (0.0, -1.0), (1.0, 1.0), (5e-324, 5e-324)):
        assert coin.fisher_metric_offset(theta, co) == math.inf
    assert poisson_model().fisher_metric_offset(0.0, 0.0) == math.inf
    for lam in (0.0, 5e-324, 1e-170):
        assert exponential_model().fisher_metric_offset(lam, lam) == math.inf


@pytest.mark.parametrize("model, chart", [(m, c) for m in MODELS for c in charts_for(MODELS[m])])
def test_chart_maps(model, chart):
    c = charts_for(MODELS[model])[chart]
    for x, xc in admissible(c.domain):
        theta, co = c.canonical_offset(x, xc)
        d = c.d_canonical_offset(x, xc)
        assert _is_float(theta) and _is_float(co) and _is_float(d), (x, xc, theta, co, d)
    for theta, co in admissible(c.canonical_domain):
        x, xc = c.from_canonical_offset(theta, co)
        assert _is_float(x) and _is_float(xc), (theta, co, x, xc)


def test_reciprocal_chart_at_theta_zero_is_its_infinite_end():
    # both anchors of theta = 0, including the far one a full width from 1
    rec = COIN_CHARTS["reciprocal"]
    for co in (0.0, -1.0):
        assert rec.from_canonical_offset(0.0, co) == (math.inf, math.inf)


def _conversions():
    """``(conversion, label, density)`` for every conversion of a Beta density on the coin family."""
    for a, b in SHAPES:
        rho = beta_chart_density(BetaParams(a, b))
        p = beta_intrinsic_density(BetaParams(a, b))
        shape = f"Beta({a:g},{b:g})"
        for name, chart in COIN_CHARTS.items():
            pushed = pushforward(rho, chart)
            yield "intrinsic_from_chart", f"{shape} in {name}", intrinsic_from_chart(pushed)
            yield "chart_from_intrinsic", f"{shape} closed form to {name}", chart_from_intrinsic(p, chart)
            yield ("chart_from_intrinsic", f"{shape} converted to {name}",
                   chart_from_intrinsic(intrinsic_from_chart(rho), chart))
            for other, target in COIN_CHARTS.items():
                yield "pushforward", f"{shape} {name} -> {other}", pushforward(pushed, target)


@pytest.mark.parametrize("conversion", ["pushforward", "intrinsic_from_chart", "chart_from_intrinsic"])
def test_conversions(conversion):
    for kind, label, d in _conversions():
        if kind != conversion:
            continue
        for x, xc in admissible(_domain(d)):
            v = d.value_offset(x, xc)
            assert _is_float(v), (label, x, xc, v)
            assert _is_float(d.value(x)), (label, x)


@pytest.mark.parametrize("model", ["poisson", "exponential"])
def test_conversions_on_a_rate_family(model):
    # a rate family's metric vanishes at lam = inf and its arc-length Jacobian
    # at an end; a conversion's quotient by either is inf
    m = MODELS[model]
    for chart in charts_for(m).values():
        rho = ChartDensity(m, chart, lambda x: 1.0 / (1.0 + x * x), "Cauchy-like")
        for d in (intrinsic_from_chart(rho), *(pushforward(rho, c) for c in charts_for(m).values())):
            for x, xc in admissible(_domain(d)):
                assert _is_float(d.value_offset(x, xc)), (chart.name, x, xc)
                assert _is_float(d.value(x)), (chart.name, x)
