"""Value-only densities: no public function reads ``value`` at a finite end.

A density built from ``value`` alone carries no endpoint offset. Its
``value_offset`` reads ``value`` clamped into the open domain, so integrals,
mode searches, curves and every conversion of it pass ``value`` only
interior points, and its ends are classified from offsets theta can hold.
"""

import math

import pytest

from fishergeom import (
    BetaParams,
    ChartDensity,
    Interval,
    IntrinsicDensity,
    QuadratureConvergenceError,
    beta_chart_density,
    beta_intrinsic_density,
    beta_mode_analytic,
    bernoulli_model,
    chart_from_intrinsic,
    charts_for,
    expectation,
    interval_probability,
    intrinsic_from_chart,
    map_estimate,
    mapi_estimate,
    normalization_check,
    pushforward,
    sample_curve,
)

BERNOULLI = bernoulli_model()
CHARTS = charts_for(BERNOULLI)
THETA = CHARTS["theta"]


def _beta_value(a, b):
    norm = math.exp(BetaParams(a, b).log_norm)
    return lambda t: t ** (a - 1.0) * (1.0 - t) ** (b - 1.0) / norm


# (label, value, intrinsic, Beta shape of the closed form); the arcsine is
# singular at theta = 1, where its value is read only to the digits its own
# 1 - theta keeps (see test_singular_end_keeps_the_digits_of_one)
CASES = [
    ("6t(1-t)", lambda t: 6.0 * t * (1.0 - t), False, (2.0, 2.0)),
    ("arcsine", lambda t: 1.0 / (math.pi * math.sqrt(t * (1.0 - t))), False, (0.5, 0.5)),
    ("flat 1/pi", lambda t: 1.0 / math.pi, True, (0.5, 0.5)),
    ("3t^2", lambda t: 3.0 * t * t, False, (3.0, 1.0)),
    ("Beta(1.001,0.999)", _beta_value(1.001, 0.999), False, (1.001, 0.999)),
]
SINGULAR_AT_ONE = "arcsine"


def _pair(value, intrinsic, label):
    """The value-only density and its conversion: ``(rho, p)`` in the theta chart."""
    if intrinsic:
        p = IntrinsicDensity(BERNOULLI, value, label)
        return chart_from_intrinsic(p, THETA), p
    rho = ChartDensity(BERNOULLI, THETA, value, label)
    return rho, intrinsic_from_chart(rho)


def _mass(d):
    """``normalization_check(d)``, or its best estimate where the arcsine's is
    flagged in the reciprocal chart: near y = 1 its clamped value is a
    staircase in 1 - theta."""
    try:
        return normalization_check(d)
    except QuadratureConvergenceError as e:
        assert (d.label, d.chart.name) == (SINGULAR_AT_ONE, "reciprocal")
        return e.result.value


def _ends(d):
    """The finite ends of ``d``'s domain, each with its theta."""
    if isinstance(d, IntrinsicDensity):
        return [(0.0, 0.0), (1.0, 1.0)]
    dom = d.chart.domain
    return [(x, d.chart.to_canonical(x)) for x in (dom.lo, dom.hi) if math.isfinite(x)]


def _same_limit(got, want):
    return got == want if want in (0.0, math.inf) else got == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize("label,fn,intrinsic,shape", CASES, ids=[c[0] for c in CASES])
def test_no_public_function_reads_value_at_an_end(label, fn, intrinsic, shape):
    seen = []

    def value(t):
        seen.append(t)
        return fn(t)

    rho, p = _pair(value, intrinsic, label)
    source = p if intrinsic else rho        # its value is the recording one itself
    resolved = label != SINGULAR_AT_ONE
    params = BetaParams(*shape)
    closed_rho, closed_p = beta_chart_density(params), beta_intrinsic_density(params)

    masses = [_mass(pushforward(rho, c)) for c in CHARTS.values()]
    masses += [_mass(chart_from_intrinsic(p, c)) for c in CHARTS.values()]
    masses.append(_mass(p))
    assert masses == pytest.approx([1.0] * len(masses), abs=1e-6)
    for region in (Interval(0.0, 1.0), Interval(0.5, 1.0)):
        assert interval_probability(p, region).value == pytest.approx(
            interval_probability(closed_p, region).value, abs=1e-6)
    assert expectation(p, lambda t: t).value == pytest.approx(
        expectation(closed_p, lambda t: t).value, abs=1e-6)

    searches = [(lambda s: map_estimate(rho, s), beta_mode_analytic(params, intrinsic=False)),
                (lambda s: mapi_estimate(p, THETA, s), beta_mode_analytic(params, intrinsic=True))]
    for search, want in searches[:2 if resolved else 1]:
        for chart in CHARTS.values():
            got = search(chart)
            assert (got.flat, got.at_boundary) == (want.flat, want.at_boundary), chart.name
            assert got.all_modes == pytest.approx(want.all_modes, abs=1e-6), chart.name
            assert _same_limit(got.density_value, want.density_value), chart.name

    conversions = [(pushforward(rho, c), pushforward(closed_rho, c)) for c in CHARTS.values()]
    conversions += [(chart_from_intrinsic(p, c), chart_from_intrinsic(closed_p, c))
                    for c in CHARTS.values()]
    conversions.append((p, closed_p))
    for d, closed in conversions:
        for end, theta in _ends(d) if d is not source else ():
            limit = d.value(end)
            if resolved or theta == 0.0:
                assert _same_limit(limit, closed.value(end)), (d.label, end)
    for c in CHARTS.values():
        sample_curve(rho, c, 65)
        sample_curve(p, c, 65)

    assert seen and [t for t in seen if not 0.0 < t < 1.0] == []


def test_singular_end_keeps_the_digits_of_one():
    # a value-only density singular at theta = 1 is read only to the digits its
    # own 1 - theta keeps. The intrinsic arcsine density is flat, and its limit
    # at theta = 1 is right, but its MAPI scan reads rounding noise near 1; in a
    # chart where theta's offset is the square of the chart's (arcsin, arc
    # length) every probe of the end clamps theta, which reads as vanishing
    rho = ChartDensity(BERNOULLI, THETA, CASES[1][1], "arcsine")
    p = intrinsic_from_chart(rho)
    assert p.value(1.0) == pytest.approx(1.0 / math.pi, rel=1e-6)
    got = mapi_estimate(p, THETA)
    assert not got.flat and len(got.all_modes) > 1
    assert got.density_value == pytest.approx(1.0 / math.pi, rel=1e-12)
    for name in ("arcsin", "arclength"):
        assert pushforward(rho, CHARTS[name]).value(CHARTS[name].domain.hi) == 0.0
    with pytest.raises(QuadratureConvergenceError) as info:
        normalization_check(pushforward(rho, CHARTS["reciprocal"]))
    assert info.value.result.value == pytest.approx(1.0, abs=1e-8)
