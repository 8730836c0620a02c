"""Chart/intrinsic density conversions, pushforwards, and normalization."""

import dataclasses
import itertools
import math
import struct
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import betainc, betaln

from fishergeom import (
    BetaParams,
    ChartModelMismatchError,
    DomainError,
    Interval,
    QuadratureConfig,
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
from fishergeom import mode
from fishergeom.density import IntrinsicDensity, _core, endpoint_behaviour
from fishergeom.manifold import _from_canonical_offset, _is_identity, interior_grid

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
        exponent, value = endpoint_behaviour(_core(rho), BERNOULLI.canonical_domain, True)
        assert exponent == pytest.approx(sign * 1e-9, rel=1e-6)
        assert value == limit
        view = chart_from_intrinsic(intrinsic_from_chart(pushforward(rho, CHARTS[chart])),
                                    CHARTS["theta"])
        exponent, value = endpoint_behaviour(_core(view), BERNOULLI.canonical_domain, True)
        assert exponent == pytest.approx(sign * 1e-9, rel=1e-6)
        assert value == limit

    def test_probe_values_classified_without_logarithm(self):
        unit = Interval(0.0, 1.0)
        assert endpoint_behaviour(lambda x, xc: 0.0, unit, True) == (math.inf, 0.0)
        assert endpoint_behaviour(lambda x, xc: math.inf, unit, True) == (-math.inf, math.inf)
        exponent, value = endpoint_behaviour(lambda x, xc: math.nan, unit, False)
        assert math.isnan(exponent) and math.isnan(value)
        # 0 at the farther probe only: growth toward the endpoint
        assert endpoint_behaviour(lambda x, xc: float(xc < 1e-60), unit, True) == (-math.inf, math.inf)


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
        mass = integrate_chart(pushed.value_offset, Interval(0.0, y), QuadratureConfig())
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
        cfg = QuadratureConfig()
        rho = beta_chart_density(BetaParams(a, b))
        base = integrate_chart(rho.value_offset, CHARTS["theta"].domain, cfg).value
        for chart in CHARTS.values():
            pushed = pushforward(rho, chart)
            mass = integrate_chart(pushed.value_offset, chart.domain, cfg).value
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

    def test_model_mismatch_rejected(self):
        from fishergeom import poisson_model, identity_chart

        rho = beta_chart_density(BetaParams(2.0, 2.0))
        with pytest.raises(ChartModelMismatchError):
            pushforward(rho, identity_chart(poisson_model()))

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
        fine = normalization_check(p, QuadratureConfig(abs_tol=1e-12, rel_tol=1e-12,
                                                       max_refinement_levels=14))
        assert mass == pytest.approx(fine, abs=1e-9)
        assert mass == pytest.approx(1.0, abs=1e-7)

    def test_unnormalized_density_reported_as_is(self):
        p = IntrinsicDensity(model=BERNOULLI, value=lambda t: 2.0 / math.pi, label="double")
        assert normalization_check(p) == pytest.approx(2.0, abs=1e-9)

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
            _, thetas, cos = mode._cached_scan_points(CHARTS[search])
            pts += [_from_canonical_offset(chart, t, c) for t, c in zip(thetas, cos)]

        def record(x, xc):
            pts.append((x, xc))
            return 1.0 / (1.0 + x * x)

        cfg = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-300, max_refinement_levels=8)
        integrate_chart(record, chart.domain, cfg)
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
        assert copy == theta
        assert _is_identity(BERNOULLI, theta) and not _is_identity(BERNOULLI, copy)
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
