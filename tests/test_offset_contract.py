"""The offset contract that lets each density check an offset only once.

A density's public ``value_offset`` checks the caller's offset against its
domain and calls a trusted core; conversions call their source's core. That
drops only identity checks if ``verify_offset`` accepts a naive offset as
it is and is idempotent, and it keeps user code in the loop only if the
core is found through the ``value_offset`` in hand, so that a density
rebuilt with ``dataclasses.replace`` is evaluated through its new function.
"""

import dataclasses
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from fishergeom import (
    BetaParams,
    ChartDensity,
    Interval,
    beta_chart_density,
    bernoulli_model,
    chart_from_intrinsic,
    charts_for,
    expectation,
    exponential_model,
    integrate_chart,
    integrate_manifold,
    interval_probability,
    intrinsic_from_chart,
    map_estimate,
    mapi_estimate,
    normalization_check,
    poisson_model,
    pushforward,
    sample_curve,
)
from fishergeom.manifold import naive_offset, verify_offset

MODELS = (bernoulli_model(), poisson_model(), exponential_model())
DOMAINS = sorted({c.domain for m in MODELS for c in charts_for(m).values()},
                 key=lambda i: (i.lo, i.hi))
BERNOULLI_CHARTS = charts_for(MODELS[0])
# the smallest offsets are below one ulp of a nonzero endpoint, so the
# coordinate rounds onto the endpoint while the offset stays exact
OFFSETS = (1e-300, 1e-200, 1e-100, 1e-30, 1e-17, 1e-12, 1e-6, 1e-3, 1e-1, 0.25, 0.5)


def nodes(interval):
    """``(x, exact signed offset)`` pairs at both ends of ``interval``."""
    lo, hi = interval.lo, interval.hi
    if interval.finite:
        w = hi - lo
        return ([(lo + d * w, d * w) for d in OFFSETS]
                + [(hi - d * w, -d * w) for d in OFFSETS])
    pts = []
    if math.isfinite(lo):
        pts += [(lo + d, d) for d in OFFSETS + (1.0, 1e3, 1e12)]
    if math.isfinite(hi):
        pts += [(hi - d, -d) for d in OFFSETS + (1.0, 1e3, 1e12)]
    return pts or [(x, math.nan) for x in (-1e12, -1.0, 0.0, 0.5, 1e12)]


NODES = [(i, x, xc) for i in DOMAINS for x, xc in nodes(i)]


def same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


@given(node=st.sampled_from(NODES),
       other=st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                       st.sampled_from([0.0, -0.0] + [s * d for d in OFFSETS for s in (1, -1)])))
@settings(max_examples=400, deadline=None)
def test_verify_offset_identities(node, other):
    interval, x, xc = node
    naive = naive_offset(interval, x)
    assert same(verify_offset(interval, x, naive), naive)
    for candidate in (xc, other):
        once = verify_offset(interval, x, candidate)
        assert same(verify_offset(interval, x, once), once)


def counted(d):
    n = [0]
    inner = d.value_offset

    def value_offset(x, xc):
        n[0] += 1
        return inner(x, xc)

    return dataclasses.replace(d, value_offset=value_offset), n


SHAPES = st.sampled_from([(0.5, 0.5), (1.05, 2.05), (0.3, 5.0), (2.0, 2.0)])
CHART_NAMES = st.sampled_from(sorted(BERNOULLI_CHARTS))


@given(shape=SHAPES, chart=CHART_NAMES, data=st.data())
@settings(max_examples=60, deadline=None)
def test_replaced_value_offset_is_called(shape, chart, data):
    target = BERNOULLI_CHARTS[chart]
    rho = pushforward(beta_chart_density(BetaParams(*shape)), BERNOULLI_CHARTS["arcsin"])
    p = intrinsic_from_chart(rho)
    rho_w, n_rho = counted(rho)
    p_w, n_p = counted(p)
    built = [
        (intrinsic_from_chart(rho_w), intrinsic_from_chart(rho), n_rho),
        (pushforward(rho_w, target), pushforward(rho, target), n_rho),
        (chart_from_intrinsic(p_w, target), chart_from_intrinsic(p, target), n_p),
    ]
    for wrapped, plain, n in built:
        domain = (wrapped.chart.domain if isinstance(wrapped, ChartDensity)
                  else wrapped.model.canonical_domain)
        x, xc = data.draw(st.sampled_from(nodes(domain)))
        assert same(wrapped.value_offset(x, xc), plain.value_offset(x, xc))
        # at the outermost nodes a conversion may blow up and return inf
        # before it reaches its source; at interior ones it cannot
        interior = [node for node in nodes(domain) if abs(node[1]) >= 0.25]
        before = n[0]
        for x, xc in interior:
            assert same(wrapped.value_offset(x, xc), plain.value_offset(x, xc))
        assert n[0] - before == len(interior)

    # each row evaluates the replaced function once, for both densities;
    # a chart density in its own chart twice, once for each
    for d, w, n in ((rho, rho_w, n_rho), (p, p_w, n_p)):
        before = n[0]
        assert sample_curve(w, target, 9) == sample_curve(d, target, 9)
        assert n[0] - before == (18 if w is rho_w and target is rho.chart else 9)


@given(shape=SHAPES, chart=CHART_NAMES)
@settings(max_examples=8, deadline=None)
def test_replaced_value_offset_is_called_by_mode_searches(shape, chart):
    search = BERNOULLI_CHARTS[chart]
    rho = pushforward(beta_chart_density(BetaParams(*shape)), BERNOULLI_CHARTS["arcsin"])
    p = intrinsic_from_chart(rho)
    rho_w, n_rho = counted(rho)
    p_w, n_p = counted(p)
    theta = BERNOULLI_CHARTS["theta"]
    assert (repr(map_estimate(rho_w, search_chart=search))
            == repr(map_estimate(rho, search_chart=search)))
    assert (repr(mapi_estimate(p_w, theta, search_chart=search))
            == repr(mapi_estimate(p, theta, search_chart=search)))
    # the scan alone evaluates the density at every one of its points
    assert n_rho[0] >= 1024
    assert n_p[0] >= 1024


@given(shape=SHAPES, chart=CHART_NAMES)
@settings(max_examples=16, deadline=None)
def test_replaced_value_offset_is_called_by_integrals(shape, chart):
    # whole-domain integrals call a density's trusted core; a replaced
    # value_offset has none and is called at every node, to the same result
    rho = pushforward(beta_chart_density(BetaParams(*shape)), BERNOULLI_CHARTS[chart])
    p = intrinsic_from_chart(rho)
    rho_w, n_rho = counted(rho)
    p_w, n_p = counted(p)
    unit = p.model.canonical_domain
    integrals = [
        (rho, rho_w, n_rho, lambda d: integrate_chart(d.value_offset, d.chart.domain)),
        (p, p_w, n_p, lambda d: integrate_manifold(d.value_offset, d.model)),
        (p, p_w, n_p, lambda d: expectation(d, lambda t: t * t)),
        (p, p_w, n_p, lambda d: interval_probability(d, unit)),
        (p, p_w, n_p, lambda d: interval_probability(d, Interval(0.0, 0.4))),
    ]
    for plain, wrapped, n, integral in integrals:
        before = n[0]
        res = integral(wrapped)
        assert n[0] - before == res.evaluations
        assert res == integral(plain)
    for plain, wrapped, n, integral in integrals[:2]:
        before = n[0]
        assert normalization_check(wrapped) == normalization_check(plain)
        assert n[0] - before == integral(plain).evaluations
