"""Chart-dependent and invariant mode estimates, analytic and numeric."""

import dataclasses
import math

import pytest

from fishergeom import (
    BetaParams,
    ChartModelMismatchError,
    beta_chart_density,
    beta_mode_analytic,
    bernoulli_model,
    charts_for,
    intrinsic_from_chart,
    map_estimate,
    mapi_estimate,
    poisson_model,
    pushforward,
)
from fishergeom import manifold, mode

BERNOULLI = bernoulli_model()
CHARTS = charts_for(BERNOULLI)
CHART_NAMES = ("theta", "arcsin", "reciprocal", "arclength")


def intrinsic(a, b):
    return intrinsic_from_chart(beta_chart_density(BetaParams(a, b)))


class TestAnalyticModes:
    def test_chart_mode_interior(self):
        # stationary point of t**(a-1) (1-t)**(b-1)
        r = beta_mode_analytic(BetaParams(1.05, 2.05), intrinsic=False)
        assert r.canonical_point == pytest.approx(0.05 / 1.1, abs=1e-15)
        assert r.all_modes == (r.canonical_point,)
        assert not r.at_boundary

    def test_intrinsic_mode_interior(self):
        # stationary point of t**0.55 (1-t)**1.55
        r = beta_mode_analytic(BetaParams(1.05, 2.05), intrinsic=True)
        assert r.canonical_point == pytest.approx(0.55 / 2.1, abs=1e-15)

    def test_symmetric_chart_mode(self):
        r = beta_mode_analytic(BetaParams(2.0, 2.0), intrinsic=False)
        assert r.canonical_point == pytest.approx(0.5, abs=1e-15)

    def test_flat_intrinsic(self):
        r = beta_mode_analytic(BetaParams(0.5, 0.5), intrinsic=True)
        assert r.flat
        assert r.all_modes == ()
        assert r.density_value == pytest.approx(1.0 / math.pi, rel=1e-14)
        assert math.isnan(r.canonical_point)

    def test_flat_chart(self):
        r = beta_mode_analytic(BetaParams(1.0, 1.0), intrinsic=False)
        assert r.flat
        assert r.density_value == pytest.approx(1.0, rel=1e-14)

    def test_bimodal(self):
        r = beta_mode_analytic(BetaParams(0.4, 0.4), intrinsic=True)
        assert r.all_modes == (0.0, 1.0)
        assert r.at_boundary
        assert math.isinf(r.density_value)

    def test_single_divergent_boundary(self):
        r = beta_mode_analytic(BetaParams(0.4, 2.0), intrinsic=True)
        assert r.all_modes == (0.0,)
        assert math.isinf(r.density_value)

    def test_finite_boundary_mode(self):
        # a == 0 exactly: density decreasing from a finite value at 0
        r = beta_mode_analytic(BetaParams(1.0, 2.0), intrinsic=False)
        assert r.all_modes == (0.0,)
        assert r.at_boundary
        assert r.density_value == pytest.approx(2.0, rel=1e-14)


class TestMapEstimate:
    def test_interior_mode_matches_analytic(self):
        r = map_estimate(beta_chart_density(BetaParams(1.05, 2.05)))
        assert r.canonical_point == pytest.approx(1.0 / 22.0, abs=1e-8)
        assert not r.at_boundary

    def test_flat_prior_bimodal_in_theta(self):
        r = map_estimate(beta_chart_density(BetaParams(0.5, 0.5)))
        assert r.all_modes == (0.0, 1.0)
        assert r.at_boundary
        assert math.isinf(r.density_value)

    def test_flat_prior_single_mode_in_arcsin(self):
        rho = pushforward(beta_chart_density(BetaParams(0.5, 0.5)), CHARTS["arcsin"])
        r = map_estimate(rho)
        assert r.all_modes == (0.0,)
        assert r.chart_point == pytest.approx(0.0, abs=1e-12)
        assert math.isinf(r.density_value)

    def test_flat_prior_single_mode_in_reciprocal(self):
        rho = pushforward(beta_chart_density(BetaParams(0.5, 0.5)), CHARTS["reciprocal"])
        r = map_estimate(rho)
        assert r.all_modes == (1.0,)
        assert r.chart_point == pytest.approx(1.0, abs=1e-12)
        assert math.isinf(r.density_value)

    def test_three_charts_three_answers(self):
        rho = beta_chart_density(BetaParams(0.5, 0.5))
        in_theta = map_estimate(rho).all_modes
        in_arcsin = map_estimate(pushforward(rho, CHARTS["arcsin"])).all_modes
        in_reciprocal = map_estimate(pushforward(rho, CHARTS["reciprocal"])).all_modes
        assert in_theta == (0.0, 1.0)
        assert in_arcsin == (0.0,)
        assert in_reciprocal == (1.0,)

    def test_flat_chart_density(self):
        r = map_estimate(beta_chart_density(BetaParams(1.0, 1.0)))
        assert r.flat
        assert r.density_value == pytest.approx(1.0, rel=1e-9)

    def test_finite_boundary_mode(self):
        r = map_estimate(beta_chart_density(BetaParams(1.0, 2.0)))
        assert r.at_boundary
        assert r.all_modes == (0.0,)
        assert r.density_value == pytest.approx(2.0, rel=1e-5)

    @pytest.mark.parametrize("a,b", [(0.5, 160.0), (0.1, 0.01), (0.015, 4.6)])
    def test_reciprocal_map_of_an_arcsin_chart_density(self, a, b):
        # the boundary probe at y = 1e100 reaches the arcsin chart as an offset
        # of exactly -1 from theta = 1, which must map to a point of its domain
        rho = beta_chart_density(BetaParams(a, b))
        direct = map_estimate(pushforward(rho, CHARTS["reciprocal"]))
        via = map_estimate(pushforward(pushforward(rho, CHARTS["arcsin"]), CHARTS["reciprocal"]))
        assert (via.flat, via.at_boundary) == (direct.flat, direct.at_boundary)
        assert via.all_modes == pytest.approx(direct.all_modes, abs=1e-8)

    @pytest.mark.parametrize("a,b", [(2.0, 2.0), (1.05, 2.05), (3.0, 1.5), (5.0, 5.0)])
    def test_matches_analytic_on_interior_grid(self, a, b):
        num = map_estimate(beta_chart_density(BetaParams(a, b)))
        ana = beta_mode_analytic(BetaParams(a, b), intrinsic=False)
        assert num.canonical_point == pytest.approx(ana.canonical_point, abs=1e-8)
        assert num.density_value == pytest.approx(ana.density_value, rel=1e-9)


class TestMapiEstimate:
    def test_interior_mode_matches_analytic(self):
        r = mapi_estimate(intrinsic(1.05, 2.05), CHARTS["theta"])
        assert r.canonical_point == pytest.approx(11.0 / 42.0, abs=1e-8)

    def test_symmetric_above_half(self):
        for a in (0.7, 1.0, 2.0, 5.0):
            r = mapi_estimate(intrinsic(a, a), CHARTS["theta"])
            assert r.canonical_point == pytest.approx(0.5, abs=1e-8)
            assert r.all_modes == (r.canonical_point,)

    def test_bimodal_below_half(self):
        r = mapi_estimate(intrinsic(0.4, 0.4), CHARTS["theta"])
        assert r.all_modes == (0.0, 1.0)
        assert r.at_boundary
        assert math.isinf(r.density_value)

    def test_flat_prior_reported_flat(self):
        r = mapi_estimate(intrinsic(0.5, 0.5), CHARTS["theta"])
        assert r.flat
        assert r.all_modes == ()
        assert r.density_value == pytest.approx(1.0 / math.pi, rel=1e-9)

    def test_report_chart_coordinates(self):
        p = intrinsic(1.05, 2.05)
        theta_star = 11.0 / 42.0
        r = mapi_estimate(p, CHARTS["arcsin"])
        assert r.chart_point == pytest.approx(math.asin(theta_star), abs=1e-7)
        r = mapi_estimate(p, CHARTS["reciprocal"])
        assert r.chart_point == pytest.approx(1.0 / theta_star, abs=1e-6)

    @pytest.mark.parametrize("a", [0.55, 0.7, 1.05, 2.05, 5.0])
    @pytest.mark.parametrize("b", [0.55, 0.7, 1.05, 2.05, 5.0])
    def test_search_chart_invariance(self, a, b):
        p = intrinsic(a, b)
        points = [
            mapi_estimate(p, CHARTS["theta"], search_chart=CHARTS[name]).canonical_point
            for name in CHART_NAMES
        ]
        assert max(points) - min(points) <= 1e-6
        ana = beta_mode_analytic(BetaParams(a, b), intrinsic=True).canonical_point
        for q in points:
            assert q == pytest.approx(ana, abs=1e-6)

    @pytest.mark.parametrize("a,b", [(0.55, 0.55), (0.7, 2.05), (1.05, 2.05), (2.05, 5.0), (5.0, 0.7)])
    def test_matches_analytic_tightly(self, a, b):
        num = mapi_estimate(intrinsic(a, b), CHARTS["theta"])
        ana = beta_mode_analytic(BetaParams(a, b), intrinsic=True)
        assert num.canonical_point == pytest.approx(ana.canonical_point, abs=1e-8)

    def test_mode_dominates_probe_grid(self):
        # the located maximum beats the density everywhere on a fine grid
        from fishergeom.manifold import interior_grid

        for a, b in [(1.05, 2.05), (2.0, 5.0), (0.7, 0.55), (400.0, 300.0)]:
            p = intrinsic(a, b)
            r = mapi_estimate(p, CHARTS["theta"])
            best = r.density_value
            for t in interior_grid(BERNOULLI.canonical_domain, 2000):
                assert p.value(t) <= best * (1.0 + 1e-9)

    def test_invariant_while_map_is_not(self):
        # the two estimates answer different questions for the same prior
        a, b = 1.05, 2.05
        rho = beta_chart_density(BetaParams(a, b))
        map_theta = map_estimate(rho).canonical_point
        map_arcsin = map_estimate(pushforward(rho, CHARTS["arcsin"])).canonical_point
        assert abs(map_theta - map_arcsin) > 1e-3
        p = intrinsic_from_chart(rho)
        mapi_theta = mapi_estimate(p, CHARTS["theta"], search_chart=CHARTS["theta"]).canonical_point
        mapi_arcsin = mapi_estimate(p, CHARTS["theta"], search_chart=CHARTS["arcsin"]).canonical_point
        assert abs(mapi_theta - mapi_arcsin) <= 1e-6


class TestUnimodalityThresholds:
    def test_intrinsic_switches_at_half(self):
        below = mapi_estimate(intrinsic(0.49, 0.49), CHARTS["theta"])
        assert below.all_modes == (0.0, 1.0)
        assert below.at_boundary
        above = mapi_estimate(intrinsic(0.51, 0.51), CHARTS["theta"])
        assert above.all_modes != (0.0, 1.0)
        assert above.canonical_point == pytest.approx(0.5, abs=1e-6)
        assert not above.at_boundary

    def test_chart_density_switches_at_one(self):
        below = map_estimate(beta_chart_density(BetaParams(0.99, 0.99)))
        assert below.all_modes == (0.0, 1.0)
        assert below.at_boundary
        above = map_estimate(beta_chart_density(BetaParams(1.01, 1.01)))
        assert above.canonical_point == pytest.approx(0.5, abs=1e-6)
        assert not above.at_boundary

    def test_analytic_agrees_with_numeric_at_thresholds(self):
        for a, intr in ((0.49, True), (0.51, True), (0.99, False), (1.01, False)):
            ana = beta_mode_analytic(BetaParams(a, a), intrinsic=intr)
            if intr:
                num = mapi_estimate(intrinsic(a, a), CHARTS["theta"])
            else:
                num = map_estimate(beta_chart_density(BetaParams(a, a)))
            assert num.all_modes == pytest.approx(ana.all_modes, abs=1e-6)
            assert num.at_boundary == ana.at_boundary


class TestBoundaryClassification:
    """Weak divergences and finite limits at the boundaries, read from the
    density's power-law exponent there."""

    @pytest.mark.parametrize("a,b", [(0.2227, 0.99994), (0.5, 0.999999999), (0.99999, 0.99999)])
    def test_weak_divergence_is_a_mode(self, a, b):
        r = map_estimate(beta_chart_density(BetaParams(a, b)))
        assert r == beta_mode_analytic(BetaParams(a, b), intrinsic=False)
        assert r.all_modes == (0.0, 1.0)
        assert r.density_value == math.inf

    def test_finite_boundary_value_is_the_endpoint_value(self):
        p = intrinsic(0.5, 1.0)
        r = mapi_estimate(p, CHARTS["theta"])
        assert r.all_modes == (0.0,)
        assert r.density_value == p.value(0.0)
        rho = beta_chart_density(BetaParams(1.0, 2.0))
        r = map_estimate(rho)
        assert r.all_modes == (0.0,)
        assert r.density_value == rho.value(0.0)

    def test_finite_boundary_maximum_is_at_the_boundary(self):
        # cos(y) in the arcsin chart: the maximum is the limit 1 at y = 0
        r = map_estimate(pushforward(beta_chart_density(BetaParams(1.0, 1.0)), CHARTS["arcsin"]))
        assert r.all_modes == (0.0,)
        assert r.at_boundary
        assert r.density_value == 1.0

    def test_flat_through_reciprocal_chart(self):
        # this core returns inf below theta ~ 1e-108, so the boundary offsets
        # must stay above that
        rho = pushforward(beta_chart_density(BetaParams(0.5, 0.5)), CHARTS["reciprocal"])
        r = mapi_estimate(intrinsic_from_chart(rho), CHARTS["theta"])
        assert r.flat
        assert r.density_value == pytest.approx(1.0 / math.pi, rel=1e-9)


class TestModeNearBoundary:
    """An interior mode nearer a boundary than the first scan point (1e-6 of
    the search chart's width) is refined up to a finite endpoint."""

    NEAR_ZERO = (1.0000000012923262, 1.2607848351562183)    # mode at 4.96e-9
    NEAR_ONE = NEAR_ZERO[::-1]

    @pytest.mark.parametrize("shape,chart", [
        (NEAR_ZERO, "theta"), (NEAR_ZERO, "arcsin"), (NEAR_ZERO, "arclength"),
        (NEAR_ONE, "theta"), (NEAR_ONE, "arcsin"), (NEAR_ONE, "arclength"),
        (NEAR_ONE, "reciprocal"),
    ])
    def test_matches_analytic_within_tie_window(self, shape, chart):
        rho = beta_chart_density(BetaParams(*shape))
        ana = beta_mode_analytic(BetaParams(*shape), intrinsic=False)
        r = map_estimate(rho, search_chart=CHARTS[chart])
        assert not r.at_boundary
        assert r.all_modes == pytest.approx(ana.all_modes, abs=1e-9)
        for value in (r.density_value, rho.value(r.canonical_point)):
            assert value >= ana.density_value * (1.0 - mode._TIE_REL)

    def test_finite_boundary_limit_keeps_its_end_of_the_scan(self):
        # refining towards a boundary that is a candidate would reach values
        # that round above its limit and report an interior point beside it
        r = mapi_estimate(intrinsic(0.5, 2.0), CHARTS["theta"], search_chart=CHARTS["arclength"])
        assert (r.all_modes, r.at_boundary) == ((0.0,), True)
        rho = beta_chart_density(BetaParams(1.2607848351562183, 1.0))
        r = map_estimate(rho, search_chart=CHARTS["arcsin"])
        assert (r.all_modes, r.at_boundary) == ((1.0,), True)


class TestReportedAtAnInfiniteChartEnd:
    def test_mapi_at_theta_zero_in_reciprocal(self):
        # theta = 0 is y = inf in the reciprocal chart: 1/0 raises, and the
        # reported chart point is the chart's infinite end
        r = mapi_estimate(intrinsic(0.3, 2.0), CHARTS["reciprocal"])
        assert (r.canonical_point, r.chart_point) == (0.0, math.inf)
        assert (r.all_modes, r.at_boundary, r.density_value) == ((0.0,), True, math.inf)


class TestUnderflowedScan:
    def test_map_in_reciprocal_is_not_flat(self):
        rho = pushforward(beta_chart_density(BetaParams(1e9, 1e9)), CHARTS["reciprocal"])
        with pytest.raises(ArithmeticError, match="underflowed to 0"):
            map_estimate(rho)

    def test_mapi_in_theta_is_not_flat(self):
        with pytest.raises(ArithmeticError, match="underflowed to 0"):
            mapi_estimate(intrinsic(1e9, 1e9), CHARTS["theta"])


class TestChartOfAnotherModel:
    # a MAP is reported in its density's own chart, which the density
    # already checks; every other chart role is checked by the search
    SEARCHES = {
        "mapi-search": lambda c: mapi_estimate(intrinsic(2.0, 3.0), CHARTS["theta"], search_chart=c),
        "mapi-report": lambda c: mapi_estimate(intrinsic(2.0, 3.0), c),
        "map-search": lambda c: map_estimate(beta_chart_density(BetaParams(2.0, 3.0)),
                                             search_chart=c),
    }

    @pytest.mark.parametrize("search", SEARCHES)
    def test_rejected(self, search):
        with pytest.raises(ChartModelMismatchError,
                           match="^chart 'arclength' is not a chart of model 'bernoulli'$"):
            self.SEARCHES[search](poisson_model().arclength)


class _Unhashable:
    """A callable that cannot be hashed, as a chart field may be."""

    __hash__ = None

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, *args):
        return self.fn(*args)


def counted_intrinsic(a, b):
    n = [0]
    p = intrinsic(a, b)
    inner = p.value_offset

    def value_offset(x, xc):
        n[0] += 1
        return inner(x, xc)

    return dataclasses.replace(p, value_offset=value_offset), n


class TestScanCache:
    @pytest.mark.parametrize("chart", CHART_NAMES)
    def test_miss_matches_hit(self, chart):
        p, n = counted_intrinsic(1.05, 2.05)
        mapi_estimate(p, CHARTS["theta"], search_chart=CHARTS[chart])
        hits = manifold._chart_samples.cache_info().hits
        n[0] = 0
        hit = mapi_estimate(p, CHARTS["theta"], search_chart=CHARTS[chart])
        assert manifold._chart_samples.cache_info().hits == hits + 1
        hit_count, n[0] = n[0], 0
        # the shipped charts are built once, so only an emptied cache misses
        manifold._chart_samples.cache_clear()
        misses = manifold._chart_samples.cache_info().misses
        miss = mapi_estimate(p, CHARTS["theta"], search_chart=CHARTS[chart])
        assert manifold._chart_samples.cache_info().misses == misses + 1
        assert repr(miss) == repr(hit)
        assert n[0] == hit_count

    def test_bounded(self):
        rho = beta_chart_density(BetaParams(2.0, 3.0))
        misses = manifold._chart_samples.cache_info().misses
        for i in range(10):
            chart = dataclasses.replace(CHARTS["arcsin"], name=f"arcsin{i}")
            map_estimate(rho, search_chart=chart)
        assert manifold._chart_samples.cache_info().misses == misses + 10
        assert manifold._chart_samples.cache_info().currsize <= 8

    def test_default_search_chart_hits_for_map_of_pushforward(self):
        rho = pushforward(beta_chart_density(BetaParams(1.05, 2.05)), CHARTS["arcsin"])
        first = map_estimate(rho)
        hits = manifold._chart_samples.cache_info().hits
        assert repr(map_estimate(rho)) == repr(first)
        assert manifold._chart_samples.cache_info().hits == hits + 1

    def test_default_search_chart_hits_for_mapi(self):
        p = intrinsic(1.05, 2.05)
        first = mapi_estimate(p, CHARTS["theta"])
        hits = manifold._chart_samples.cache_info().hits
        assert repr(mapi_estimate(p, CHARTS["theta"])) == repr(first)
        assert manifold._chart_samples.cache_info().hits == hits + 1

    def test_unhashable_chart_is_searched(self):
        arcsin = CHARTS["arcsin"]
        chart = dataclasses.replace(arcsin, canonical_offset=_Unhashable(arcsin.canonical_offset))
        p = intrinsic(1.05, 2.05)
        assert (repr(mapi_estimate(p, CHARTS["theta"], search_chart=chart))
                == repr(mapi_estimate(p, CHARTS["theta"], search_chart=arcsin)))
