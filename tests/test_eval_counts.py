"""Exact evaluation counts of the acceptance workloads.

Counts are deterministic, so a change that speeds up an integral or a mode
search by evaluating the density fewer (or more) times shows up here rather
than only in wall time. A change that only moves work around an
evaluation, such as where endpoint offsets are checked, must not move any
of these numbers.
"""

import dataclasses
import math

import pytest

from fishergeom import (
    BetaParams,
    Interval,
    beta_chart_density,
    bernoulli_model,
    charts_for,
    expectation,
    get_model,
    integrate_chart,
    integrate_manifold,
    interval_probability,
    intrinsic_from_chart,
    map_estimate,
    mapi_estimate,
    pushforward,
    volume_result,
)

MODEL = bernoulli_model()
CHARTS = charts_for(MODEL)
SHAPES = [(0.5, 0.5), (1.05, 2.05)]

NORMALIZATION = {
    (0.5, 0.5): {"arclength": 69, "arcsin": 74, "reciprocal": 89, "theta": 79, "intrinsic": 69},
    (1.05, 2.05): {"arclength": 110, "arcsin": 115, "reciprocal": 75, "theta": 65,
                   "intrinsic": 110},
}
PROB = {(0.5, 0.5): 69, (1.05, 2.05): 116}
EXPECT = {(0.5, 0.5): 64, (1.05, 2.05): 109}
MAPI = {
    (0.5, 0.5): {"arclength": 1030, "arcsin": 1030, "reciprocal": 1030, "theta": 1030},
    (1.05, 2.05): {"arclength": 1074, "arcsin": 1072, "reciprocal": 1074, "theta": 1071},
}
MAP = {
    (0.5, 0.5): {"arclength": 1106, "arcsin": 1105, "reciprocal": 1121, "theta": 1104},
    (1.05, 2.05): {"arclength": 1074, "arcsin": 1072, "reciprocal": 1078, "theta": 1071},
}


# divergent integrals stop at refinement level 2, where the tail is seen to grow
DIVERGENT_VOLUME = {"poisson": 41, "exponential": 41}
DIVERGENT_RECIPROCAL = 37
DIVERGENT_EXPECT_RECIPROCAL = 45


def counted(d):
    """Copy of ``d`` counting its evaluations. Two arguments, so quadrature
    and mode search take the same offset-aware path as for ``d`` itself."""
    n = [0]
    inner = d.value_offset

    def value_offset(x, xc):
        n[0] += 1
        return inner(x, xc)

    return dataclasses.replace(d, value_offset=value_offset), n


def densities(a, b):
    rho = beta_chart_density(BetaParams(a, b))
    return rho, intrinsic_from_chart(rho)


def test_bernoulli_volume():
    assert volume_result(MODEL).evaluations == 71


@pytest.mark.parametrize("name", sorted(DIVERGENT_VOLUME))
def test_divergent_volume(name):
    res = volume_result(get_model(name))
    assert not res.converged
    assert res.error_estimate == math.inf
    assert res.evaluations == DIVERGENT_VOLUME[name]


def test_divergent_reciprocal():
    res = integrate_chart(lambda x: 1.0 / x, Interval(0.0, 1.0))
    assert not res.converged
    assert res.error_estimate == math.inf
    assert res.evaluations == DIVERGENT_RECIPROCAL


def test_divergent_expectation_of_reciprocal():
    # E[1/theta] under the flat prior Beta(1/2, 1/2); the tail grows at theta = 0
    _, p = densities(0.5, 0.5)
    res = expectation(p, lambda t: t ** -1)
    assert not res.converged
    assert res.error_estimate == math.inf
    assert res.evaluations == DIVERGENT_EXPECT_RECIPROCAL


@pytest.mark.parametrize("a,b", SHAPES)
@pytest.mark.parametrize("chart", sorted(CHARTS))
def test_normalization_in_chart(a, b, chart):
    rho, _ = densities(a, b)
    d = pushforward(rho, CHARTS[chart])
    res = integrate_chart(d.value_offset, d.chart.domain)
    assert res.evaluations == NORMALIZATION[a, b][chart]


@pytest.mark.parametrize("a,b", SHAPES)
def test_normalization_intrinsic(a, b):
    _, p = densities(a, b)
    res = integrate_manifold(p.value_offset, MODEL)
    assert res.evaluations == NORMALIZATION[a, b]["intrinsic"]


@pytest.mark.parametrize("a,b", SHAPES)
def test_interval_probability(a, b):
    _, p = densities(a, b)
    assert interval_probability(p, Interval(0.0, 0.3)).evaluations == PROB[a, b]


@pytest.mark.parametrize("a,b", SHAPES)
def test_expectation(a, b):
    _, p = densities(a, b)
    assert expectation(p, lambda t: t).evaluations == EXPECT[a, b]


@pytest.mark.parametrize("a,b", SHAPES)
@pytest.mark.parametrize("chart", sorted(CHARTS))
def test_mapi_search(a, b, chart):
    _, p = densities(a, b)
    p, n = counted(p)
    mapi_estimate(p, CHARTS["theta"], search_chart=CHARTS[chart])
    assert n[0] == MAPI[a, b][chart]


@pytest.mark.parametrize("a,b", SHAPES)
@pytest.mark.parametrize("chart", sorted(CHARTS))
def test_map_search(a, b, chart):
    rho, _ = densities(a, b)
    rho, n = counted(rho)
    map_estimate(rho, search_chart=CHARTS[chart])
    assert n[0] == MAP[a, b][chart]


@pytest.mark.parametrize("a,b", SHAPES)
def test_counted_quadrature_matches_reported(a, b):
    _, p = densities(a, b)
    p, n = counted(p)
    res = integrate_manifold(p.value_offset, MODEL)
    assert n[0] == res.evaluations
