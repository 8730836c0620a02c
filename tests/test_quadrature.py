"""Double-exponential quadrature: known values, singular endpoints, invariance."""

import math

import pytest
from scipy.integrate import quad
from scipy.special import betainc

from fishergeom import (
    BetaParams,
    Interval,
    QuadratureConfig,
    beta_chart_density,
    bernoulli_model,
    charts_for,
    expectation,
    integrate_chart,
    integrate_manifold,
    interval_probability,
    intrinsic_from_chart,
    pushforward,
)

BERNOULLI = bernoulli_model()
CHARTS = charts_for(BERNOULLI)
CFG = QuadratureConfig()


def eq2_integrand(t, tc):
    """theta**-1/2 (1-theta)**-1/2, singular at both endpoints."""
    lo = tc if tc > 0 else t
    hi = -tc if tc < 0 else 1.0 - t
    return lo ** -0.5 * hi ** -0.5


class TestIntegrateChart:
    def test_constant(self):
        res = integrate_chart(lambda x: 1.0, Interval(0.0, 1.0), CFG)
        assert res.converged
        assert res.value == pytest.approx(1.0, abs=1e-13)

    def test_polynomial(self):
        res = integrate_chart(lambda x: 3.0 * x * x, Interval(0.0, 2.0), CFG)
        assert res.value == pytest.approx(8.0, rel=1e-12)

    def test_doubly_singular_arc_integrand(self):
        res = integrate_chart(eq2_integrand, Interval(0.0, 1.0), CFG)
        assert res.converged
        assert res.value == pytest.approx(math.pi, abs=1e-9)

    def test_plain_integrand_single_zero_side_singularity(self):
        # singular only at the zero endpoint: plain f(x) is already exact there
        res = integrate_chart(lambda x: x ** -0.5, Interval(0.0, 1.0), CFG)
        assert res.converged
        assert res.value == pytest.approx(2.0, abs=1e-12)

    def test_half_infinite_tail(self):
        def f(y, yc):
            return 1.0 / (math.pi * y * math.sqrt(yc))

        res = integrate_chart(f, Interval(1.0, math.inf), CFG)
        assert res.converged
        assert res.value == pytest.approx(1.0, abs=1e-8)
        # oracle: substitute theta = 1/y back to the finite interval
        back = integrate_chart(eq2_integrand, Interval(0.0, 1.0), CFG)
        assert res.value == pytest.approx(back.value / math.pi, abs=1e-9)

    def test_half_infinite_exponential(self):
        res = integrate_chart(lambda x: math.exp(-x), Interval(0.0, math.inf), CFG)
        assert res.value == pytest.approx(1.0, rel=1e-12)

    def test_doubly_infinite_gaussian(self):
        res = integrate_chart(lambda x: math.exp(-x * x), Interval(-math.inf, math.inf), CFG)
        assert res.value == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_nonconvergence_is_flagged(self):
        res = integrate_chart(lambda x: 1.0 / x, Interval(0.0, 1.0), CFG)
        assert not res.converged
        assert res.error_estimate > 0.0

    def test_converged_error_estimate_within_tolerance(self):
        res = integrate_chart(eq2_integrand, Interval(0.0, 1.0), CFG)
        assert res.converged
        assert res.error_estimate <= max(CFG.abs_tol, CFG.rel_tol * abs(res.value))

    def test_error_estimate_decreases_with_budget(self):
        errs = []
        for levels in (1, 2, 3, 5, 8):
            cfg = QuadratureConfig(max_refinement_levels=levels)
            res = integrate_chart(eq2_integrand, Interval(0.0, 1.0), cfg)
            errs.append((res.error_estimate, res.converged))
        estimates = [e for e, _ in errs]
        assert all(b <= a for a, b in zip(estimates, estimates[1:]))
        assert errs[-1][1]

    def test_evaluation_count_reported(self):
        res = integrate_chart(lambda x: x, Interval(0.0, 1.0), CFG)
        assert res.evaluations > 0

    def test_mirrored_half_infinite(self):
        res = integrate_chart(lambda x: math.exp(x), Interval(-math.inf, 0.0), CFG)
        assert res.converged
        assert res.value == pytest.approx(1.0, rel=1e-12)

    def test_builtin_integrand(self):
        # builtins have no introspectable signature; must fall back to f(x)
        res = integrate_chart(math.sin, Interval(0.0, math.pi), CFG)
        assert res.value == pytest.approx(2.0, rel=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            QuadratureConfig(abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureConfig(max_refinement_levels=0)


class TestDivergenceVerdict:
    """From refinement level 2, a tail that still grows ends the integral as divergent."""

    def test_divergent_integrals_flagged(self):
        # 1/x on (0, 1) is pinned with its count in test_eval_counts.py
        for res in (integrate_chart(lambda x: 1.0, Interval(0.0, math.inf), CFG),
                    integrate_chart(lambda x: 1.0, Interval(-math.inf, math.inf), CFG)):
            assert not res.converged
            assert res.error_estimate == math.inf
            assert res.evaluations < 100

    def test_far_out_decay_is_not_divergent(self):
        # still grows at the outermost node of level 0, |t| = 6 (x near 1e138)
        res = integrate_chart(lambda x: math.exp(-x / 1e200), Interval(0.0, math.inf), CFG)
        assert res.converged
        assert res.value == pytest.approx(1e200, rel=1e-10)

    def test_slow_algebraic_decay_is_not_divergent(self):
        res = integrate_chart(lambda x: (1.0 + x) ** -1.05, Interval(0.0, math.inf), CFG)
        assert res.converged
        assert res.value == pytest.approx(20.0, rel=1e-10)

    def test_reciprocal_chart_heavy_tail_is_not_divergent(self):
        # Beta(0.1, 4.26) in xi = 1/theta decays only like xi**-1.1
        d = pushforward(beta_chart_density(BetaParams(0.1, 4.26)), CHARTS["reciprocal"])
        res = integrate_chart(d.value_offset, d.chart.domain, CFG)
        assert res.converged
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_overflowing_integrand_is_zero_weighted(self):
        # x ** -0.99 raises OverflowError at subnormal x; the node is skipped
        res = integrate_chart(lambda x: x ** -0.99, Interval(0.0, 1.0), CFG)
        assert res.evaluations > 0
        assert not res.converged or res.value == pytest.approx(100.0, rel=1e-10)


class TestIntegrateManifold:
    def test_unit_function_gives_total_arc(self):
        res = integrate_manifold(lambda t: 1.0, BERNOULLI, None, CFG)
        assert res.value == pytest.approx(math.pi, abs=1e-9)

    def test_uniform_density_over_left_region(self):
        # constant height times region length, against the incomplete-beta oracle
        res = integrate_manifold(lambda t: 1.0 / math.pi, BERNOULLI, Interval(0.0, 0.1), CFG)
        oracle = betainc(0.5, 0.5, 0.1)
        assert res.value == pytest.approx(oracle, abs=1e-10)
        assert res.value == pytest.approx(2.0 * math.asin(math.sqrt(0.1)) / math.pi, abs=1e-12)

    def test_normalized_density_integrates_to_one(self):
        p = intrinsic_from_chart(beta_chart_density(BetaParams(2.0, 2.0)))
        res = integrate_manifold(p.value_offset, BERNOULLI, None, CFG)
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_region_outside_domain_rejected(self):
        from fishergeom import DomainError

        with pytest.raises(DomainError):
            integrate_manifold(lambda t: 1.0, BERNOULLI, Interval(-0.5, 0.5), CFG)


class TestExpectation:
    def test_symmetric_mean(self):
        p = intrinsic_from_chart(beta_chart_density(BetaParams(0.5, 0.5)))
        res = expectation(p, lambda t: t, CFG)
        assert res.value == pytest.approx(0.5, abs=1e-10)

    def test_mean_against_moment_formula(self):
        a, b = 1.05, 2.05
        p = intrinsic_from_chart(beta_chart_density(BetaParams(a, b)))
        res = expectation(p, lambda t: t, CFG)
        assert res.value == pytest.approx(a / (a + b), abs=1e-10)

    def test_unit_function_has_unit_expectation(self):
        p = intrinsic_from_chart(beta_chart_density(BetaParams(1.05, 2.05)))
        res = expectation(p, lambda t: 1.0, CFG)
        assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_reciprocal_moment_converges(self):
        for a, b in ((2.0, 3.0), (1.5, 0.7), (1.0319, 11.795)):
            p = intrinsic_from_chart(beta_chart_density(BetaParams(a, b)))
            res = expectation(p, lambda t: t ** -1, CFG)
            assert res.converged
            assert res.value == pytest.approx((a + b - 1.0) / (a - 1.0), rel=1e-9)

    def test_reciprocal_moment_divergence_flagged(self):
        for a, b in ((0.9, 2.0), (1.0, 1.0)):
            p = intrinsic_from_chart(beta_chart_density(BetaParams(a, b)))
            res = expectation(p, lambda t: t ** -1, CFG)
            assert not res.converged
            assert res.error_estimate == math.inf

    def test_f_never_called_at_theta_zero(self):
        seen = []

        def f(t):
            seen.append(t)
            return t ** -1

        p = intrinsic_from_chart(beta_chart_density(BetaParams(0.5, 0.5)))
        expectation(p, f, CFG)
        assert seen
        assert min(seen) > 0.0

    def test_agrees_through_every_chart(self):
        # E[f] computed as the chart-coordinate integral of f(theta(x)) rho(x)
        a, b = 2.0, 5.0
        rho_theta = beta_chart_density(BetaParams(a, b))

        def f(t):
            return t * t

        values = []
        for name, chart in CHARTS.items():
            rho = pushforward(rho_theta, chart)

            def integrand(x, xc, _rho=rho, _chart=chart):
                return f(_chart.to_canonical(x)) * _rho.value_offset(x, xc)

            res = integrate_chart(integrand, chart.domain, CFG)
            assert res.converged, name
            values.append(res.value)
        moment = a * (a + 1) / ((a + b) * (a + b + 1))
        for v in values:
            assert v == pytest.approx(moment, abs=1e-8)
        assert max(values) - min(values) <= 1e-8


class TestIntervalProbability:
    def test_flat_prior_left_tail(self):
        p = intrinsic_from_chart(beta_chart_density(BetaParams(0.5, 0.5)))
        res = interval_probability(p, Interval(0.0, 0.1), CFG)
        assert res.value == pytest.approx(betainc(0.5, 0.5, 0.1), abs=1e-8)

    def test_full_interval_and_symmetry(self):
        p = intrinsic_from_chart(beta_chart_density(BetaParams(0.5, 0.5)))
        assert interval_probability(p, Interval(0.0, 1.0), CFG).value == pytest.approx(1.0, abs=1e-9)
        assert interval_probability(p, Interval(0.0, 0.5), CFG).value == pytest.approx(0.5, abs=1e-10)

    def test_additivity(self):
        p = intrinsic_from_chart(beta_chart_density(BetaParams(1.05, 2.05)))
        ab = interval_probability(p, Interval(0.0, 0.3), CFG).value
        bc = interval_probability(p, Interval(0.3, 0.8), CFG).value
        ac = interval_probability(p, Interval(0.0, 0.8), CFG).value
        assert ab + bc == pytest.approx(ac, abs=1e-10)

    @pytest.mark.parametrize("a,b,hi", [(0.5, 0.5, 0.25), (2.0, 2.0, 0.6), (0.3, 5.0, 0.04)])
    def test_against_incomplete_beta(self, a, b, hi):
        p = intrinsic_from_chart(beta_chart_density(BetaParams(a, b)))
        res = interval_probability(p, Interval(0.0, hi), CFG)
        assert res.value == pytest.approx(betainc(a, b, hi), abs=1e-8)


class TestChartInvarianceOfMass:
    @pytest.mark.parametrize("a", [0.3, 0.5, 1.0, 1.05, 2.0, 5.0])
    @pytest.mark.parametrize("b", [0.3, 1.05, 5.0])
    def test_total_mass_same_in_all_charts(self, a, b):
        rho = beta_chart_density(BetaParams(a, b))
        masses = []
        for chart in CHARTS.values():
            res = integrate_chart(pushforward(rho, chart).value_offset, chart.domain, CFG)
            assert res.converged
            masses.append(res.value)
        assert max(masses) - min(masses) <= 1e-8
        # quadpack as an independent cross-check of the theta-chart mass
        oracle, _ = quad(rho.value, 0.0, 1.0)
        assert masses[0] == pytest.approx(oracle, abs=1e-8)
