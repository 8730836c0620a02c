"""Chart/intrinsic density conversions, pushforwards, and normalization."""

import dataclasses
import itertools
import math
import struct
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import betainc, betaln

from fishergeom import (
    BetaParams,
    ChartDensity,
    ChartModelMismatchError,
    DomainError,
    Interval,
    QuadratureConvergenceError,
    beta_chart_density,
    beta_intrinsic_density,
    bernoulli_model,
    chart_from_intrinsic,
    charts_for,
    identity_chart,
    integrate_chart,
    intrinsic_from_chart,
    map_estimate,
    mapi_estimate,
    normalization_check,
    pushforward,
)
from fishergeom import mode, quadrature
from fishergeom import density
from fishergeom.density import (Evaluator, IntrinsicDensity, _canonical, _images, _per_theta,
                                endpoint_behaviour)
from fishergeom.manifold import _chart_samples, _sample_table, interior_grid, verify_offset
from test_mode import USER_CHARTS

BERNOULLI = bernoulli_model()
CHARTS = charts_for(BERNOULLI)
GRID_AB = [0.3, 0.5, 1.0, 1.05, 2.0, 5.0]
THETAS = interior_grid(BERNOULLI.canonical_domain, 201)


class TestBetaParams:
    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (math.inf, 1.0)])
    def test_invalid_rejected(self, a, b):
        with pytest.raises(ValueError):
            BetaParams(a, b)

    def test_log_norm_matches_scipy(self):
        for a in GRID_AB:
            for b in GRID_AB:
                assert BetaParams(a, b).log_norm == pytest.approx(betaln(a, b), rel=1e-13)


class TestBetaChartDensity:
    def test_flat_prior_midpoint(self):
        # B(1/2, 1/2) = pi, so the value at 1/2 is (1/2)^-1 / pi = 2/pi
        rho = beta_chart_density(BetaParams(0.5, 0.5))
        assert rho.value(0.5) == pytest.approx(2.0 / math.pi, rel=1e-14)

    def test_uniform_in_theta(self):
        rho = beta_chart_density(BetaParams(1.0, 1.0))
        for t in (0.1, 0.5, 0.93):
            assert rho.value(t) == pytest.approx(1.0, rel=1e-14)

    def test_value_via_normalization_oracle(self):
        # Beta(2,2) at 1/2: normalize t(1-t) numerically and evaluate
        norm, _ = quad(lambda t: t * (1.0 - t), 0.0, 1.0)
        expected = 0.25 / norm
        rho = beta_chart_density(BetaParams(2.0, 2.0))
        assert rho.value(0.5) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(1.5, rel=1e-12)

    def test_boundary_divergence_marker(self):
        rho = beta_chart_density(BetaParams(0.5, 0.5))
        assert rho.value(0.0) == math.inf
        assert rho.value(1.0) == math.inf

    def test_boundary_finite_limits(self):
        assert beta_chart_density(BetaParams(1.0, 2.0)).value(0.0) == pytest.approx(2.0, rel=1e-12)
        assert beta_chart_density(BetaParams(2.0, 2.0)).value(0.0) == 0.0

    def test_out_of_closure_rejected(self):
        rho = beta_chart_density(BetaParams(0.5, 0.5))
        with pytest.raises(DomainError):
            rho.value(-0.01)

    def test_large_shapes_stay_finite(self):
        rho = beta_chart_density(BetaParams(400.0, 300.0))
        v = rho.value(400.0 / 700.0)
        assert math.isfinite(v) and v > 0.0


class TestIntrinsicFromChart:
    def test_flat_prior_is_uniform_height(self):
        p = intrinsic_from_chart(beta_chart_density(BetaParams(0.5, 0.5)))
        for t in THETAS:
            assert abs(p.value(t) - 1.0 / math.pi) <= 1e-12

    @pytest.mark.parametrize("a", GRID_AB)
    @pytest.mark.parametrize("b", GRID_AB)
    def test_matches_half_shifted_closed_form(self, a, b):
        p = intrinsic_from_chart(beta_chart_density(BetaParams(a, b)))
        closed = beta_intrinsic_density(BetaParams(a, b))
        for t in THETAS[::5]:
            assert p.value(t) == pytest.approx(closed.value(t), rel=1e-12)

    def test_closed_form_formula_spotcheck(self):
        a, b = 1.05, 2.05
        closed = beta_intrinsic_density(BetaParams(a, b))
        t = 0.3
        expected = t ** (a - 0.5) * (1 - t) ** (b - 0.5) / math.exp(betaln(a, b))
        assert closed.value(t) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("a,b", [(a, b) for a in GRID_AB for b in GRID_AB] + [(1.05, 2.05)])
    def test_chart_independent(self, a, b):
        rho = beta_chart_density(BetaParams(a, b))
        reference = intrinsic_from_chart(rho)
        for chart in CHARTS.values():
            p = intrinsic_from_chart(pushforward(rho, chart))
            for t in THETAS:
                assert p.value(t) == pytest.approx(reference.value(t), rel=1e-13, abs=0.0), (
                    chart.name, t)

    def test_boundary_divergence_classified(self):
        p = intrinsic_from_chart(beta_chart_density(BetaParams(0.3, 0.3)))
        assert p.value(0.0) == math.inf
        assert p.value(1.0) == math.inf

    def test_boundary_decay_classified(self):
        p = intrinsic_from_chart(beta_chart_density(BetaParams(2.0, 2.0)))
        assert p.value(0.0) == pytest.approx(0.0, abs=1e-6)


class TestEndpointBehaviour:
    def test_weak_divergence_of_converted_density(self):
        # exponent alpha - 1/2 = -5e-5 at theta = 0
        p = intrinsic_from_chart(beta_chart_density(BetaParams(0.49995, 0.7)))
        assert p.value(0.0) == math.inf

    @pytest.mark.parametrize("chart", sorted(CHARTS))
    @pytest.mark.parametrize("sign,limit", [(1.0, 0.0), (-1.0, math.inf)])
    def test_tiny_exponent_is_not_zero(self, chart, sign, limit):
        # Beta(1 + d, 1) in theta behaves as theta**d at 0, and so does its
        # intrinsic density converted through any chart, shifted by -1/2
        rho = beta_chart_density(BetaParams(1.0 + sign * 1e-9, 1.0))
        exponent, value = endpoint_behaviour(rho.value_offset, True)
        assert exponent == pytest.approx(sign * 1e-9, rel=1e-6)
        assert value == limit
        view = chart_from_intrinsic(intrinsic_from_chart(pushforward(rho, CHARTS[chart])),
                                    CHARTS["theta"])
        exponent, value = endpoint_behaviour(view.value_offset, True)
        assert exponent == pytest.approx(sign * 1e-9, rel=1e-6)
        assert value == limit

    def test_probe_values_classified_without_logarithm(self):
        def unit(core):
            return Evaluator(core, Interval(0.0, 1.0))
        assert endpoint_behaviour(unit(lambda x, xc: 0.0), True) == (math.inf, 0.0)
        assert endpoint_behaviour(unit(lambda x, xc: math.inf), True) == (-math.inf, math.inf)
        exponent, value = endpoint_behaviour(unit(lambda x, xc: math.nan), False)
        assert math.isnan(exponent) and math.isnan(value)
        # 0 at the farther probe only: growth toward the endpoint
        growth = unit(lambda x, xc: float(xc < 1e-60))
        assert endpoint_behaviour(growth, True) == (-math.inf, math.inf)


class TestChartFromIntrinsic:
    def uniform(self):
        return IntrinsicDensity(
            model=BERNOULLI, value=lambda t: 1.0 / math.pi, label="uniform")

    def test_theta_chart_recovers_flat_prior_form(self):
        rho = chart_from_intrinsic(self.uniform(), CHARTS["theta"])
        for t in (0.01, 0.25, 0.5, 0.9):
            expected = t ** -0.5 * (1 - t) ** -0.5 / math.pi
            assert rho.value(t) == pytest.approx(expected, rel=1e-12)

    def test_arclength_chart_is_constant(self):
        rho = chart_from_intrinsic(self.uniform(), CHARTS["arclength"])
        for s in (0.3, 1.0, 2.0, 3.0):
            assert rho.value(s) == pytest.approx(1.0 / math.pi, rel=1e-12)

    def test_reciprocal_chart_value(self):
        # oracle: pushforward of the flat-prior chart density by y = 1/theta
        rho_theta = beta_chart_density(BetaParams(0.5, 0.5))
        oracle = pushforward(rho_theta, CHARTS["reciprocal"])
        rho = chart_from_intrinsic(self.uniform(), CHARTS["reciprocal"])
        assert rho.value(2.0) == pytest.approx(oracle.value(2.0), rel=1e-10)
        assert rho.value(2.0) == pytest.approx((1.0 / math.pi) * 0.5, rel=1e-12)

    @pytest.mark.parametrize("a", GRID_AB)
    @pytest.mark.parametrize("b", GRID_AB)
    def test_left_inverse_of_intrinsic_from_chart(self, a, b):
        for name in ("theta", "arcsin", "reciprocal", "arclength"):
            chart = CHARTS[name]
            rho = pushforward(beta_chart_density(BetaParams(a, b)), chart)
            back = chart_from_intrinsic(intrinsic_from_chart(rho), chart)
            for x in interior_grid(chart.domain, 41)[::4]:
                assert back.value(x) == pytest.approx(rho.value(x), rel=1e-12)

    def test_model_mismatch_rejected(self):
        from fishergeom import poisson_model, identity_chart

        wrong_chart = identity_chart(poisson_model())
        with pytest.raises(ChartModelMismatchError):
            chart_from_intrinsic(self.uniform(), wrong_chart)


class TestClosedFormOverflow:
    # theta**-0.999 / B(0.001, 1) exceeds the largest double below theta ~ 1e-308
    def test_value_above_the_largest_double_is_inf(self):
        rho = beta_chart_density(BetaParams(0.001, 1.0))
        assert rho.value(1e-320) == math.inf
        assert rho.value_offset(5e-324, 5e-324) == math.inf
        assert rho.value(1e-300) == pytest.approx(1e-3 * 1e-300 ** -0.999, rel=1e-9)


class TestPushforward:
    def test_identity_on_own_chart(self):
        rho = beta_chart_density(BetaParams(2.0, 5.0))
        same = pushforward(rho, CHARTS["theta"])
        for t in THETAS[::20]:
            assert same.value(t) == rho.value(t)

    def test_arcsin_point_value_by_chain_rule(self):
        # rho_y(y) = rho(sin y) cos y; mass over (0, pi/4) must equal the
        # incomplete-beta mass over (0, sin(pi/4))
        rho = beta_chart_density(BetaParams(0.5, 0.5))
        pushed = pushforward(rho, CHARTS["arcsin"])
        y = math.pi / 4
        expected = rho.value(math.sin(y)) * math.cos(y)
        assert pushed.value(y) == pytest.approx(expected, rel=1e-12)
        mass = integrate_chart(pushed.value_offset, Interval(0.0, y))
        assert mass.value == pytest.approx(betainc(0.5, 0.5, math.sin(y)), abs=1e-9)

    def test_reciprocal_closed_form(self):
        rho = beta_chart_density(BetaParams(0.5, 0.5))
        pushed = pushforward(rho, CHARTS["reciprocal"])
        for y in (1.5, 2.0, 10.0, 1000.0):
            assert pushed.value(y) == pytest.approx(1.0 / (math.pi * y * math.sqrt(y - 1.0)), rel=1e-10)
        assert pushed.value(2.0) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)
        # decreasing in y: the whole mass leans on y = 1, i.e. theta = 1
        samples = [pushed.value(y) for y in (1.001, 1.01, 1.1, 2.0, 30.0)]
        assert all(u > v for u, v in zip(samples, samples[1:]))

    @pytest.mark.parametrize("a,b", [(0.5, 0.5), (1.05, 2.05), (0.3, 5.0)])
    def test_mass_preserved(self, a, b):
        rho = beta_chart_density(BetaParams(a, b))
        base = integrate_chart(rho.value_offset, CHARTS["theta"].domain).value
        for chart in CHARTS.values():
            pushed = pushforward(rho, chart)
            mass = integrate_chart(pushed.value_offset, chart.domain).value
            assert mass == pytest.approx(base, abs=1e-9)

    def test_composition(self):
        # an offset anchored at theta = 1 for a point near theta = 0 (the
        # reciprocal chart's) costs up to 4.9e-9 where theta = 1 - d is rebuilt;
        # compared where the value is a normal double, as subnormals lose digits
        charts = ("arcsin", "reciprocal", "arclength")
        for a, b, rel in [(1.05, 2.05, 1e-10), (5.0, 1.0, 1e-8), (60.0, 2000.0, 1e-8)]:
            rho = beta_chart_density(BetaParams(a, b))
            for via_name, target_name in itertools.permutations(charts, 2):
                target = CHARTS[target_name]
                direct = pushforward(rho, target)
                via = pushforward(pushforward(rho, CHARTS[via_name]), target)
                for y in interior_grid(target.domain, 1024):
                    expected = direct.value(y)
                    if expected >= sys.float_info.min:
                        assert via.value(y) == pytest.approx(expected, rel=rel, abs=0.0), (
                            a, b, via_name, target_name, y)

    @pytest.mark.parametrize("y", [1e7, 1e12, 1e17, 1e100])
    def test_composition_far_out_in_reciprocal(self, y):
        # far out the reciprocal chart anchors theta's offset at 0, so a point
        # near theta = 0 reaches the arcsin chart with all its digits
        rho = beta_chart_density(BetaParams(0.5, 160.0))
        target = CHARTS["reciprocal"]
        via = pushforward(pushforward(rho, CHARTS["arcsin"]), target)
        assert via.value(y) == pytest.approx(pushforward(rho, target).value(y), rel=1e-13, abs=0.0)

    def test_model_mismatch_rejected(self):
        from fishergeom import poisson_model, identity_chart

        rho = beta_chart_density(BetaParams(2.0, 2.0))
        with pytest.raises(ChartModelMismatchError):
            pushforward(rho, identity_chart(poisson_model()))

    def test_a_chart_of_the_same_name_is_another_chart(self):
        # y = 2 asin(theta) on (0, pi), also named 'arcsin': a chart is its
        # maps, so pushing an arcsin density there changes the density
        arcsin = CHARTS["arcsin"]
        wide = dataclasses.replace(
            arcsin, domain=Interval(0.0, math.pi),
            canonical_offset=lambda y, yc: arcsin.canonical_offset(0.5 * y, 0.5 * yc),
            from_canonical_offset=lambda t, co: tuple(
                2.0 * v for v in arcsin.from_canonical_offset(t, co)),
            d_canonical_offset=lambda y, yc: 0.5 * arcsin.d_canonical_offset(0.5 * y, 0.5 * yc))
        assert wide.name == arcsin.name
        rho = beta_chart_density(BetaParams(2.0, 3.0))
        pushed = pushforward(pushforward(rho, arcsin), wide)
        assert pushed.chart is wide
        for y in (0.3, 1.0, 2.0, 3.0):
            expected = rho.value(math.sin(0.5 * y)) * 0.5 * math.cos(0.5 * y)
            assert pushed.value(y) == pytest.approx(expected, rel=1e-12)
        assert normalization_check(pushed) == pytest.approx(1.0, abs=1e-9)

    @given(
        a=st.floats(min_value=0.3, max_value=5.0),
        b=st.floats(min_value=0.3, max_value=5.0),
        t=st.floats(min_value=1e-4, max_value=1.0 - 1e-4),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip_through_arcsin(self, a, b, t):
        rho = beta_chart_density(BetaParams(a, b))
        back = pushforward(pushforward(rho, CHARTS["arcsin"]), CHARTS["theta"])
        assert back.value(t) == pytest.approx(rho.value(t), rel=1e-10)


class TestNormalization:
    def test_flat_prior_chart_density(self):
        assert normalization_check(beta_chart_density(BetaParams(0.5, 0.5))) == pytest.approx(1.0, abs=1e-8)

    def test_uniform_intrinsic(self):
        p = IntrinsicDensity(model=BERNOULLI, value=lambda t: 1.0 / math.pi, label="uniform")
        assert normalization_check(p) == pytest.approx(1.0, abs=1e-9)

    def test_heavy_boundary_divergence(self):
        # oracle: the same mass at a tenfold-finer refinement budget
        p = beta_intrinsic_density(BetaParams(0.3, 0.3))
        mass = normalization_check(p)
        with mock.patch.multiple(quadrature, _ABS_TOL=1e-12, _REL_TOL=1e-12, _MAX_LEVEL=14):
            fine = normalization_check(p)
        assert mass == pytest.approx(fine, abs=1e-9)
        assert mass == pytest.approx(1.0, abs=1e-7)

    def test_unnormalized_density_reported_as_is(self):
        p = IntrinsicDensity(model=BERNOULLI, value=lambda t: 2.0 / math.pi, label="double")
        assert normalization_check(p) == pytest.approx(2.0, abs=1e-9)

    def test_value_only_chart_density_integrated_as_plain(self):
        # never evaluated on an endpoint, where log(1 - 1.0) raises
        def f(t):
            return -math.log(1.0 - t)
        theta = identity_chart(BERNOULLI)
        rho = ChartDensity(model=BERNOULLI, chart=theta, value=f, label="x")
        assert normalization_check(rho) == integrate_chart(f, theta.domain).value

    def test_divergent_value_only_chart_density_raises(self):
        # built from its plain value alone; 1/theta has no finite mass on (0, 1)
        rho = ChartDensity(model=BERNOULLI, chart=CHARTS["theta"], value=lambda t: 1.0 / t,
                           label="1/theta")
        assert rho.value_offset(0.25, 0.25) == 4.0
        with pytest.raises(QuadratureConvergenceError) as exc:
            normalization_check(rho)
        res = exc.value.result
        assert res.converged is False
        assert res.error_estimate == math.inf
        assert res.evaluations == integrate_chart(lambda t: 1.0 / t, Interval(0.0, 1.0)).evaluations
        assert str(exc.value).startswith("normalization integral for '1/theta' did not converge")

    @pytest.mark.parametrize("a", GRID_AB)
    @pytest.mark.parametrize("b", GRID_AB)
    def test_grid_all_charts(self, a, b):
        rho = beta_chart_density(BetaParams(a, b))
        for chart in CHARTS.values():
            assert normalization_check(pushforward(rho, chart)) == pytest.approx(1.0, abs=1e-7)
        assert normalization_check(intrinsic_from_chart(rho)) == pytest.approx(1.0, abs=1e-7)

    def test_large_shapes_all_charts(self):
        # a narrow interior spike; log-gamma arithmetic must not overflow
        rho = beta_chart_density(BetaParams(400.0, 300.0))
        for chart in CHARTS.values():
            assert normalization_check(pushforward(rho, chart)) == pytest.approx(1.0, abs=1e-9)
        assert normalization_check(intrinsic_from_chart(rho)) == pytest.approx(1.0, abs=1e-9)

    def test_large_shapes_interval_probability(self):
        from fishergeom import interval_probability

        p = intrinsic_from_chart(beta_chart_density(BetaParams(400.0, 300.0)))
        res = interval_probability(p, Interval(0.5, 0.6))
        oracle = betainc(400.0, 300.0, 0.6) - betainc(400.0, 300.0, 0.5)
        assert res.converged
        assert res.value == pytest.approx(oracle, abs=1e-9)


class TestRowLevelIdentity:
    @pytest.mark.parametrize("a,b", [(0.5, 0.5), (1.05, 2.05), (5.0, 0.3)])
    def test_rho_equals_p_times_metric_root(self, a, b):
        # away from the hairline the naive metric suffices; exact-offset
        # consistency across a full grid is covered by the curve tests
        from fishergeom import metric_in_chart

        rho = beta_chart_density(BetaParams(a, b))
        p = intrinsic_from_chart(rho)
        for name, chart in CHARTS.items():
            pushed = pushforward(rho, chart)
            grid = interior_grid(chart.domain, 31)[2:-2:3]
            for x in grid:
                t = chart.to_canonical(x)
                lhs = p.value(t) * math.sqrt(metric_in_chart(BERNOULLI, chart, x))
                assert lhs == pytest.approx(pushed.value(x), rel=1e-9)


class TestIdentityChartFastPath:
    """Conversions from or to the model's cached identity chart skip its maps;
    built from an equal but distinct copy of that chart they take the general
    path. Both must agree bit for bit everywhere a density is evaluated."""

    SHAPES = [(1e-3, 1e-3), (1e-3, 2000.0), (0.02, 60.0), (0.5, 0.5), (1.0, 1.0),
              (1.05, 2.05), (7.0, 0.3), (2000.0, 2000.0)]
    SEARCH = ("theta", "arcsin", "reciprocal", "arclength")

    @staticmethod
    def sloppy_arcsin():
        # a target map whose canonical offset is not anchored at theta:
        # the conversion must check it where it enters the canonical domain
        arcsin = CHARTS["arcsin"]

        def canonical_offset(y, yc):
            theta, co = arcsin.canonical_offset(y, yc)
            return theta, co * (1.0 + 1e-6)

        return dataclasses.replace(arcsin, name="sloppy", canonical_offset=canonical_offset)

    @staticmethod
    def points(chart):
        """``(x, exact offset)`` in ``chart``: every search chart's scan points,
        the DE nodes of levels 0-8, and endpoint offsets from 1e-300 to 1e-16."""
        pts = []
        for search in TestIdentityChartFastPath.SEARCH:
            s = _chart_samples(BERNOULLI, CHARTS[search], mode._SCAN_POINTS)
            pts += [chart.from_canonical_offset(t, c) for t, c in zip(s.thetas, s.cos)]

        def record(x, xc):
            pts.append((x, xc))
            return 1.0 / (1.0 + x * x)

        with mock.patch.multiple(quadrature, _ABS_TOL=1e-300, _REL_TOL=1e-300, _MAX_LEVEL=8):
            integrate_chart(record, chart.domain)
        for h in (1e-300, 1e-100, 1e-50, 1e-16):
            if math.isfinite(chart.domain.lo):
                pts.append((chart.domain.lo + h, h))
            if math.isfinite(chart.domain.hi):
                pts.append((chart.domain.hi - h, -h))
        return pts

    @staticmethod
    def assert_same(fast, slow, chart):
        def bits(v):
            return struct.pack("<d", v)

        for x, xc in TestIdentityChartFastPath.points(chart):
            assert bits(fast.value_offset(x, xc)) == bits(slow.value_offset(x, xc)), (x, xc)
            if chart.domain.in_closure(x):
                assert bits(fast.value(x)) == bits(slow.value(x)), x
        for end in (chart.domain.lo, chart.domain.hi):
            if math.isfinite(end):
                assert bits(fast.value(end)) == bits(slow.value(end)), end

    @pytest.mark.parametrize("a,b", SHAPES)
    def test_conversions_match_the_general_path(self, a, b):
        theta = identity_chart(BERNOULLI)
        copy = dataclasses.replace(theta)
        assert theta is identity_chart(BERNOULLI) and copy is not identity_chart(BERNOULLI)
        rho = beta_chart_density(BetaParams(a, b))
        rho_slow = dataclasses.replace(rho, chart=copy)
        p, p_slow = intrinsic_from_chart(rho), intrinsic_from_chart(rho_slow)
        self.assert_same(p, p_slow, theta)
        self.assert_same(chart_from_intrinsic(p, theta), chart_from_intrinsic(p, copy), theta)
        for target in (CHARTS["arcsin"], CHARTS["reciprocal"], CHARTS["arclength"],
                       self.sloppy_arcsin()):
            self.assert_same(pushforward(rho, target), pushforward(rho_slow, target), target)

    @pytest.mark.parametrize("a,b", SHAPES)
    def test_mode_results_match_the_general_path(self, a, b):
        theta = identity_chart(BERNOULLI)
        copy = dataclasses.replace(theta)
        rho = beta_chart_density(BetaParams(a, b))
        rho_slow = dataclasses.replace(rho, chart=copy)
        p, p_slow = intrinsic_from_chart(rho), intrinsic_from_chart(rho_slow)
        back, back_slow = chart_from_intrinsic(p, theta), chart_from_intrinsic(p, copy)
        arcsin = CHARTS["arcsin"]
        pushed, pushed_slow = pushforward(rho, arcsin), pushforward(rho_slow, arcsin)

        def result(search, fn, *args):
            try:
                return repr(fn(*args, search_chart=CHARTS[search]))
            except ArithmeticError as e:    # a scan that underflowed everywhere
                return repr(e)

        for search in self.SEARCH:
            assert result(search, map_estimate, rho) == result(search, map_estimate, rho_slow)
            assert (result(search, mapi_estimate, p, theta)
                    == result(search, mapi_estimate, p_slow, theta))
            assert result(search, map_estimate, back) == result(search, map_estimate, back_slow)
        assert repr(map_estimate(pushed)) == repr(map_estimate(pushed_slow))


class TestColumn:
    """A density's column over a sample table is, bit for bit, its value at
    each of the table's canonical points (its core, or for a chart density in
    another chart its core at the point's chart image), on the tables the
    mode scan and the curves read and on tables with a point on an end, a nan
    point, or a value that overflows."""

    SHAPES = [(1e-3, 1e-3), (1e-3, 1.0), (1e-3, 2000.0), (0.5, 0.5), (1.0, 1.0), (1.05, 2.05),
              (0.49, 7.0), (30.0, 1e-3), (60.0, 2000.0), (1e5, 2e5), (3e7, 1e7), (1e9, 1e9),
              # an exponent of exactly 0 beside a huge one: the chart density's, then
              # the intrinsic one's
              (1.0, 1e9), (1e9, 1.0), (0.5, 1e9),
              # an exponent of exactly 0 beside a negative one (the intrinsic form's
              # 0 beside -0.3 for the last two)
              (1.0, 0.3), (0.3, 1.0), (0.5, 0.2), (0.2, 0.5)]

    @staticmethod
    def densities(a, b):
        """The densities with a column, then ``rho`` pushed to each other chart."""
        rho = beta_chart_density(BetaParams(a, b))
        return {"chart": rho, "intrinsic": beta_intrinsic_density(BetaParams(a, b)),
                "converted": intrinsic_from_chart(rho),
                **{f"pushed to {name}": pushforward(rho, chart)
                   for name, chart in CHARTS.items() if name != "theta"}}

    @staticmethod
    def assert_column_is_core(d, samples):
        read = _canonical(d)
        want = list(map(read.core, samples.thetas, samples.cos))
        assert repr(read.column(samples)) == repr(want)

    @pytest.mark.parametrize("name", sorted(CHARTS))
    @pytest.mark.parametrize("n", [257, 1001, 1024])
    def test_shipped_tables(self, name, n):
        samples = _chart_samples(BERNOULLI, CHARTS[name], n)
        for a, b in self.SHAPES:
            for kind, d in self.densities(a, b).items():
                # each carries a column; a pushed one's reads its own chart's tables, so
                # _canonical reads it over the table's image in that chart
                pushed, f = kind.startswith("pushed"), d.value_offset
                assert f.tables == (BERNOULLI, d.chart if pushed else CHARTS["theta"]), kind
                assert (_canonical(d).column is f.column) != pushed, kind
                self.assert_column_is_core(d, samples)

    @staticmethod
    def table_with_ends(first, last):
        """A 257-point theta table whose first canonical point is ``first`` and
        whose last is ``last``, both ``(theta, co)``, from a user chart."""
        theta = CHARTS["theta"]
        xs = interior_grid(theta.domain, 257)

        def canonical_offset(x, xc):
            return first if x == xs[0] else last if x == xs[-1] else (x, xc)

        user_chart = dataclasses.replace(theta, canonical_offset=canonical_offset)
        return _chart_samples(BERNOULLI, user_chart, 257)

    @pytest.mark.parametrize("first,last", [((0.0, 0.0), (0.5, 0.5)), ((0.5, 0.5), (1.0, -0.0))])
    def test_zero_distance_falls_back(self, first, last):
        samples = self.table_with_ends(first, last)
        ends = (samples.thetas[0], samples.cos[0], samples.thetas[-1], samples.cos[-1])
        assert ends == first + last
        assert -math.inf in (samples.log_los[0], samples.log_his[-1])
        for a, b in self.SHAPES:
            for d in self.densities(a, b).values():
                self.assert_column_is_core(d, samples)

    def test_nan_point_reads_nan(self):
        # a nan canonical point has nan logs, not -inf ones, so the column
        # reads nan there whatever the exponents, both 0 included
        samples = self.table_with_ends((math.nan, math.nan), (0.5, 0.5))
        assert all(map(math.isnan, (samples.log_los[0], samples.log_his[0])))
        for a, b in self.SHAPES:
            for kind, d in self.densities(a, b).items():
                assert math.isnan(_canonical(d).column(samples)[0]), (a, b, kind)
                self.assert_column_is_core(d, samples)

    def test_overflow_falls_back(self):
        samples = self.table_with_ends((5e-324, 5e-324), (0.5, 0.5))
        assert _canonical(beta_chart_density(BetaParams(1e-3, 1.0))).column(samples)[0] == math.inf
        for a, b in self.SHAPES:
            for d in self.densities(a, b).values():
                self.assert_column_is_core(d, samples)

    def test_wrappers_and_value_only_densities_are_called_once_a_point(self):
        rho = beta_chart_density(BetaParams(1.05, 2.05))
        calls = []

        def value_offset(x, xc):
            calls.append(x)
            return rho.value_offset(x, xc)

        wrapped = dataclasses.replace(rho, value_offset=value_offset)
        # the converted density's column reads the wrapper through _canonical
        converted = intrinsic_from_chart(wrapped)
        assert converted.value_offset.column is not None
        value_only = IntrinsicDensity(BERNOULLI, lambda t: calls.append(t) or 1.0, "flat")
        samples = _chart_samples(BERNOULLI, CHARTS["arcsin"], 257)
        for d in (wrapped, converted, value_only):
            calls.clear()
            self.assert_column_is_core(d, samples)
            assert len(calls) == 2 * 257    # the column's and the reference's

    @pytest.mark.parametrize("name", sorted(CHARTS))
    def test_de_side_tables(self, name):
        """Every column a whole-domain integral reads over ``name``'s DE side
        tables, levels 0 to 6 and both sides, is its core at each row: at the
        canonical points for a column on them, else at the chart's points."""
        chart, theta = CHARTS[name], CHARTS["theta"]
        tables = {(level, sign): quadrature._side_samples(BERNOULLI, chart, level, sign)[0]
                  for level in range(quadrature._TABLE_LEVELS + 1) for sign in (1, -1)}
        if name == "arclength":
            # the end nodes round onto theta = 1 on side +1 and onto 0 on side -1, so
            # every table has a -inf log there, where a zero exponent reads the core
            for (level, sign), s in tables.items():
                assert -math.inf in (s.log_his if sign > 0 else s.log_los), (level, sign)
        for a, b in self.SHAPES:
            p = beta_intrinsic_density(BetaParams(a, b))
            densities = {**self.densities(a, b), "from intrinsic": chart_from_intrinsic(p, chart),
                         "theta from intrinsic": chart_from_intrinsic(p, theta)}
            read = 0
            for kind, d in densities.items():
                f = d.value_offset
                if f.tables not in ((BERNOULLI, chart), (BERNOULLI, theta)):
                    continue
                read += 1
                for s in tables.values():
                    points = (s.thetas, s.cos) if f.tables[1] is theta else (s.xs, s.xcs)
                    assert repr(f.column(s)) == repr(list(map(f.core, *points))), (kind, a, b)
            assert read == (5 if chart is theta else 6)

    @staticmethod
    def converted(a, b):
        """The chart densities in each chart but theta that read image tables:
        ``rho`` pushed there and the intrinsic density expressed there."""
        rho, p = beta_chart_density(BetaParams(a, b)), beta_intrinsic_density(BetaParams(a, b))
        return {f"{kind} {name}": convert(chart)
                for name, chart in CHARTS.items() if name != "theta"
                for kind, convert in (("pushed to", lambda c: pushforward(rho, c)),
                                      ("from intrinsic to", lambda c: chart_from_intrinsic(p, c)))}

    @pytest.mark.parametrize("name", sorted(CHARTS))
    @pytest.mark.parametrize("n", [257, 1001, 1024])
    def test_image_tables(self, name, n):
        """A chart density in its own chart but theta is read over image
        tables: its column, its per-theta column and its intrinsic density's
        column are each bit for bit the one-call-a-point reads."""
        samples = _chart_samples(BERNOULLI, CHARTS[name], n)
        for a, b in self.SHAPES:
            for kind, d in self.converted(a, b).items():
                assert d.value_offset.tables == (BERNOULLI, d.chart), kind
                self.assert_column_is_core(d, samples)
                q = _per_theta(d)
                assert q.tables is None, kind
                assert repr(q.column(samples)) == repr(list(map(q.core, samples.thetas,
                                                                samples.cos)))
                self.assert_column_is_core(intrinsic_from_chart(d), samples)

    def test_one_image_table_a_scan_table_and_chart(self, monkeypatch):
        """Each image table is built once per (scan table, chart), by
        ``_sample_table``, and ``_canonical``, ``_per_theta`` and
        ``intrinsic_from_chart`` all read that one table. A table is a cache
        key by identity, so two with equal columns are distinct keys; the
        cache is bounded."""
        built = []
        sample_table = density._sample_table
        monkeypatch.setattr(density, "_sample_table",
                            lambda *a: built.append(sample_table(*a)) or built[-1])
        _images.cache_clear()
        scans = [_chart_samples(BERNOULLI, chart, 1024) for chart in CHARTS.values()]
        charts = [c for c in CHARTS.values() if c.name != "theta"]
        for a, b in self.SHAPES:
            for d in self.converted(a, b).values():
                for s in scans:
                    _canonical(d).column(s)
                    _per_theta(d).column(s)
                    _canonical(intrinsic_from_chart(d)).column(s)
        assert len(built) == len(scans) * len(charts)
        # the cached tables are the ones built, and none is built anew
        images = [_images(s, BERNOULLI, c) for s in scans for c in charts]
        assert sorted(map(id, images)) == sorted(map(id, built))
        assert len(built) == len(scans) * len(charts)
        s = _chart_samples(BERNOULLI, CHARTS["theta"], 1024)
        twin = _sample_table(BERNOULLI, CHARTS["theta"], s.xs, s.xcs)
        assert tuple(twin) == tuple(s) and twin != s and len({s, twin}) == 2
        assert _images(twin, BERNOULLI, charts[0]) is not _images(s, BERNOULLI, charts[0])
        bound = _images.cache_info().maxsize
        for n in range(300, 300 + bound + 3):
            pushed = pushforward(beta_chart_density(BetaParams(2.0, 3.0)), CHARTS["arcsin"])
            _canonical(pushed).column(_chart_samples(BERNOULLI, CHARTS["theta"], n))
        assert _images.cache_info().currsize == bound

    @staticmethod
    def moved_arcsin(moved):
        """The arcsin chart but for its inverse map's offset, moved by a factor
        ``1 + moved`` so that it fails its check."""
        arcsin = CHARTS["arcsin"]

        def from_canonical_offset(theta, co):
            y, yc = arcsin.from_canonical_offset(theta, co)
            return y, yc * (1.0 + moved)
        return dataclasses.replace(arcsin, from_canonical_offset=from_canonical_offset)

    def test_a_moved_offset_gets_a_checked_image_table(self):
        """Where checking the chart offsets moves one, the image table holds
        the checked offsets, so every read of a chart density at canonical
        points is its checked ``value_offset`` at the chart image, bit for bit
        its one-call-a-point form, and the mode search finds the MAP."""
        samples = _chart_samples(BERNOULLI, CHARTS["arclength"], mode._SCAN_POINTS)
        for moved in (1e-9, 1e-3):
            chart = self.moved_arcsin(moved)
            image = _images(samples, BERNOULLI, chart)
            raw = list(map(chart.from_canonical_offset, samples.thetas, samples.cos))
            assert image.xs == tuple(x for x, _ in raw)
            assert image.xcs == tuple(verify_offset(chart.domain, x, xc) for x, xc in raw)
            assert image.xcs != tuple(xc for _, xc in raw)
            for a, b in self.SHAPES:
                d = pushforward(beta_chart_density(BetaParams(a, b)), chart)
                self.assert_column_is_core(d, samples)
                assert (repr(_canonical(d).column(samples))
                        == repr([d.value_offset(*p) for p in raw]))
                q = _per_theta(d)
                assert repr(q.column(samples)) == repr(list(map(q.core, samples.thetas,
                                                                samples.cos)))
            d = pushforward(beta_chart_density(BetaParams(2.0, 3.0)), chart)
            assert map_estimate(d).canonical_point == pytest.approx(
                (math.sqrt(5.0) - 1.0) / 4.0, rel=0.0, abs=1e-9), moved


# the user chart y = theta**2 on the canonical domain object itself
SQUARE = USER_CHARTS[0]


class TestFusedColumn:
    """A conversion of a bare Beta law reads the sample table's factor column in
    the law's own pass: ``intrinsic_from_chart`` over ``sqrt(G)``, ``_in_chart``
    times ``|dtheta/dx|``, and an intrinsic law's ``_per_theta`` times
    ``sqrt(G)``. Each equals, by repr, row for row, the two passes it replaces:
    the law's column, then the factor (a quotient by 0 reading inf)."""

    # an exponent exactly 0 in theta (1, b) and intrinsic (1/2, b), both 0, a
    # shape of 1e-3 (its column overflows near theta = 0) and one of 300
    SHAPES = [(1.0, 2.05), (2.05, 1.0), (0.5, 2.05), (2.05, 0.5), (1.0, 1.0), (0.5, 0.5),
              (1.0, 0.5), (1e-3, 1e-3), (1e-3, 2.05), (2.05, 1e-3), (300.0, 300.0),
              (300.0, 1e-3), (2.3, 4.1)]
    CHARTS = {**CHARTS, "square": SQUARE}

    @classmethod
    def tables(cls):
        """Each chart's 1,024-point scan table and its DE side tables, levels 0 to 6."""
        for name, chart in cls.CHARTS.items():
            yield name, _chart_samples(BERNOULLI, chart, mode._SCAN_POINTS)
            for level in range(quadrature._TABLE_LEVELS + 1):
                for sign in (1, -1):
                    yield name, quadrature._side_samples(BERNOULLI, chart, level, sign)[0]

    @staticmethod
    def two_passes(values, factors, divide):
        if divide:
            return [v / g if g else math.inf for v, g in zip(values, factors)]
        return [v * g for v, g in zip(values, factors)]

    @staticmethod
    def overflows(params, samples):
        """Whether the theta law's column in one pass overflows on ``samples``."""
        a, b, log_norm = params.alpha - 1.0, params.beta - 1.0, params.log_norm
        try:
            [math.exp(a * lo + b * hi - log_norm) for lo, hi in zip(samples.log_los,
                                                                     samples.log_his)]
        except OverflowError:
            return True
        return False

    def assert_fused(self, a, b):
        rho, p = beta_chart_density(BetaParams(a, b)), beta_intrinsic_density(BetaParams(a, b))
        law, intrinsic_law = rho.value_offset, p.value_offset
        converted = intrinsic_from_chart(rho).value_offset.column
        per_theta = _per_theta(p).column
        for name, s in self.tables():
            laws = law.column(s)
            assert repr(converted(s)) == repr(self.two_passes(laws, s.root_gs, True)), (a, b, name)
            assert repr(per_theta(s)) == repr(
                self.two_passes(intrinsic_law.column(s), s.root_gs, False)), (a, b, name)
            if name != "theta":
                pushed = pushforward(rho, self.CHARTS[name]).value_offset.column
                assert repr(pushed(s)) == repr(self.two_passes(laws, s.jacobians, False)), (
                    a, b, name)

    @pytest.mark.parametrize("a,b", SHAPES)
    def test_shapes(self, a, b):
        self.assert_fused(a, b)

    @given(log_a=st.floats(-3.0, 2.5), log_b=st.floats(-3.0, 2.5))
    @settings(max_examples=15, deadline=None)
    def test_log_shapes(self, log_a, log_b):
        self.assert_fused(10.0 ** log_a, 10.0 ** log_b)

    def test_each_law_marks_its_column_and_no_conversion_does(self):
        rho = beta_chart_density(BetaParams(2.0, 3.0))
        p = beta_intrinsic_density(BetaParams(2.0, 3.0))
        assert rho.value_offset.column.reads_factors and p.value_offset.column.reads_factors
        # both exponents 0: a nan point reads nan, which one pass would not keep
        for law in (beta_chart_density(BetaParams(1.0, 1.0)),
                    beta_intrinsic_density(BetaParams(0.5, 0.5))):
            assert not law.value_offset.column.reads_factors
        converted = [intrinsic_from_chart(rho), _per_theta(p), pushforward(rho, CHARTS["arcsin"]),
                     chart_from_intrinsic(p, CHARTS["arcsin"]), dataclasses.replace(rho, chart=SQUARE)]
        for d in converted:
            column = getattr(d, "value_offset", d).column
            assert not getattr(column, "reads_factors", False)

    def test_the_overflow_path_is_read(self):
        # a shape of 1e-3 overflows the one-pass column on some tables, which
        # then read the two passes, the core a point where the law overflows
        assert any(self.overflows(BetaParams(1e-3, 2.05), s) for _, s in self.tables())

    def test_a_zero_factor_reads_inf(self):
        s = _chart_samples(BERNOULLI, CHARTS["arcsin"], mode._SCAN_POINTS)
        zeroed = s._replace(root_gs=(0.0, *s.root_gs[1:-1], 0.0))
        for a, b in self.SHAPES:
            rho = beta_chart_density(BetaParams(a, b))
            column = intrinsic_from_chart(rho).value_offset.column(zeroed)
            assert column[0] == column[-1] == math.inf, (a, b)
            assert repr(column) == repr(self.two_passes(rho.value_offset.column(zeroed),
                                                        zeroed.root_gs, True)), (a, b)


def _outcome(f, *args):
    try:
        return repr(f(*args))
    except Exception as exc:
        return f"raised {exc!r}"


def _law_over_root_g(law, theta, co):
    """The three-frame read of a law's intrinsic form: the metric, the law, the quotient."""
    root_g = math.sqrt(BERNOULLI.fisher_metric_offset(theta, co))
    return law(theta, co) / root_g if root_g else math.inf


# shapes with exponents exactly 0 (1 and 1/2), small ones whose law overflows near
# an end, and large ones; any in [1e-3, 1e3]
FUSED_SHAPES = st.one_of(st.sampled_from([1e-3, 0.05, 0.5, 1.0, 1.5, 2.0, 300.0, 1e6]),
                         st.floats(1e-3, 1e3))
# offsets of both signs, exact ends and nan: from 0 where positive, from 1 where negative
FUSED_OFFSETS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-320, -1e-320, 1e-300, -1e-300,
                     2.2250738585072014e-308, 1e-16, -1e-16, 0.5, -0.5, 1.0, -1.0, math.nan]),
    st.floats(-1.0, 1.0),
    st.floats(-1e-300, 1e-300))


@st.composite
def fused_points(draw):
    """``(theta, co)``: a point and its exact offset, an exact end, or a nan."""
    co = draw(FUSED_OFFSETS)
    kind = draw(st.sampled_from(["anchored", "end", "nan"]))
    if kind == "end":
        return draw(st.sampled_from([0.0, 1.0])), co if co == 0.0 else 0.0
    if kind == "nan":
        return draw(st.sampled_from([(math.nan, math.nan), (math.nan, 0.25), (0.25, math.nan)]))
    return (co if co > 0 else 1.0 + co if co < 0 else draw(st.floats(0.0, 1.0))), co


class TestFusedIntrinsicRead:
    """``intrinsic_from_chart`` of a bare Beta law reads a point by the law core's
    ``over_root_g``, in one frame, and equals by repr the law over ``sqrt(G)``
    read in three (inf where ``sqrt(G)`` is 0); every other per-theta evaluator
    keeps the three-frame read."""

    @given(a=FUSED_SHAPES, b=FUSED_SHAPES, point=fused_points())
    @settings(max_examples=1500, deadline=None)
    def test_is_the_law_over_root_g(self, a, b, point):
        law = beta_chart_density(BetaParams(a, b)).value_offset.core
        fused = intrinsic_from_chart(beta_chart_density(BetaParams(a, b))).value_offset.core
        assert fused is not law and fused.__code__ is law.over_root_g.__code__
        assert _outcome(fused, *point) == _outcome(_law_over_root_g, law, *point), (a, b, point)

    @pytest.mark.parametrize("a,b", [(1e-3, 2.0), (2.0, 1e-3), (1e-3, 1e-3)])
    def test_overflowing_laws_are_read(self, a, b):
        # the law overflows to inf at the far subnormal offsets, where sqrt(G) is
        # inf too, and reads nan there both ways
        law = beta_chart_density(BetaParams(a, b)).value_offset.core
        fused = intrinsic_from_chart(beta_chart_density(BetaParams(a, b))).value_offset.core
        points = [(5e-324, 5e-324), (1.0, -5e-324), (1e-300, 1e-300)]
        assert any(law(*point) == math.inf for point in points)
        for point in points:
            assert _outcome(fused, *point) == _outcome(_law_over_root_g, law, *point)

    def test_only_a_bare_law_is_fused(self):
        rho = beta_chart_density(BetaParams(2.0, 3.0))
        core = rho.value_offset.core
        assert intrinsic_from_chart(rho).value_offset.core is core.over_root_g
        # a copy with another label is still the bare law
        relabelled = dataclasses.replace(rho, label="again")
        assert intrinsic_from_chart(relabelled).value_offset.core is core.over_root_g
        # wrapped, replaced, moved to a user chart, composed, or the chart view of an
        # intrinsic law: the per-theta evaluator is not the law, and reads in three frames
        others = [dataclasses.replace(rho, value_offset=lambda x, xc: core(x, xc)),
                  dataclasses.replace(rho, chart=SQUARE),
                  pushforward(pushforward(rho, CHARTS["arcsin"]), CHARTS["theta"]),
                  chart_from_intrinsic(beta_intrinsic_density(BetaParams(2.0, 3.0)),
                                       CHARTS["theta"])]
        for d in others:
            read = intrinsic_from_chart(d).value_offset.core
            assert read is not core.over_root_g and read.__code__ is not core.__code__, d.label
