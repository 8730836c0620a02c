"""Double-exponential quadrature: known values, singular endpoints, invariance."""

import dataclasses
import math

import pytest
from scipy.integrate import quad
from scipy.special import betainc

from fishergeom import (
    BetaParams,
    ChartDensity,
    Interval,
    QuadratureConfig,
    QuadratureResult,
    beta_chart_density,
    beta_intrinsic_density,
    bernoulli_model,
    chart_from_intrinsic,
    charts_for,
    expectation,
    integrate_chart,
    integrate_manifold,
    interval_probability,
    intrinsic_from_chart,
    map_estimate,
    mapi_estimate,
    normalization_check,
    pushforward,
)
from fishergeom import density as density_module
from fishergeom import manifold as manifold_module
from fishergeom import quadrature
from fishergeom.manifold import verify_offset

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
        # a NaN tolerance never converges; a fractional level count fails
        # as a TypeError inside the first integral
        for bad in ({"abs_tol": math.nan}, {"rel_tol": math.nan}, {"abs_tol": -1e-10},
                    {"max_refinement_levels": 2.5}):
            with pytest.raises(ValueError):
                QuadratureConfig(**bad)


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

    def test_f_dividing_by_zero_at_rounded_end_is_skipped(self):
        # theta rounds to 1.0 at nodes whose exact offset is not 0, and
        # 1/(1 - theta) divides by zero there: skipped as an overflow is
        p = intrinsic_from_chart(beta_chart_density(BetaParams(2.0, 3.0)))
        res = expectation(p, lambda t: 1.0 / (1.0 - t), CFG)
        assert res.converged
        assert res.value == pytest.approx(2.0, rel=1e-14)   # (a + b - 1)/(b - 1)
        assert (res.evaluations, res.nonfinite_skipped) == (109, 14)
        for a, b in ((0.5, 0.5), (3.0, 0.7)):   # E[1/(1 - theta)] diverges for b <= 1
            p = intrinsic_from_chart(beta_chart_density(BetaParams(a, b)))
            res = expectation(p, lambda t: 1.0 / (1.0 - t), CFG)
            assert not res.converged
            assert res.error_estimate == math.inf

    def test_f_domain_error_at_rounded_end_raises(self):
        # only arithmetic blow-ups are skipped; log(0) is a ValueError
        p = intrinsic_from_chart(beta_chart_density(BetaParams(2.0, 3.0)))
        with pytest.raises(ValueError):
            expectation(p, lambda t: math.log(1.0 - t), CFG)

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


class TestNonfiniteSkipped:
    def test_overflowing_nodes_are_counted(self):
        # 14 of the 24,065 nodes overflow, and the result still reads converged
        rho = beta_chart_density(BetaParams(0.02369, 0.05))
        res = integrate_chart(rho.value_offset, rho.chart.domain, CFG)
        assert res.converged
        assert res.nonfinite_skipped > 0

    def test_regular_density_skips_nothing(self):
        rho = beta_chart_density(BetaParams(1.05, 2.05))
        p = intrinsic_from_chart(rho)
        assert integrate_chart(rho.value_offset, rho.chart.domain, CFG).nonfinite_skipped == 0
        assert integrate_manifold(p.value_offset, BERNOULLI, None, CFG).nonfinite_skipped == 0

    def test_positional_construction_unchanged(self):
        res = QuadratureResult(1.0, 0.0, True, 5)
        assert res.nonfinite_skipped == 0


@pytest.fixture
def verify_calls(monkeypatch):
    """Counts every ``verify_offset`` call, by density cores and chart maps alike."""
    calls = [0]

    def counted(interval, x, xc):
        calls[0] += 1
        return verify_offset(interval, x, xc)

    monkeypatch.setattr(density_module, "verify_offset", counted)
    monkeypatch.setattr(manifold_module, "verify_offset", counted)
    return calls


def counted_source(d):
    """Copy of ``d`` whose trusted evaluator counts its calls and checks nothing."""
    calls = [0]
    core = density_module._core(d)

    def value_offset(x, xc):
        calls[0] += 1
        return core(x, xc)

    return dataclasses.replace(d, value_offset=value_offset), calls


class TestTrustBoundary:
    """Whole-domain integrals and mode searches call trusted cores, and
    conversions check an offset only where a chart map moves it to a new
    interval; sub-intervals stay checked."""

    def test_mapi_of_a_theta_chart_density_makes_no_checks(self, verify_calls):
        # the identity chart moves no offset, so its conversion checks none
        p = intrinsic_from_chart(beta_chart_density(BetaParams(1.05, 2.05)))
        for chart in CHARTS.values():
            assert mapi_estimate(p, CHARTS["theta"], search_chart=chart).all_modes
        assert verify_calls[0] == 0

    def test_pushforward_from_the_theta_chart_checks_once_per_evaluation(self, verify_calls):
        # the arcsin map's canonical offset is checked where it enters (0, 1)
        rho, evaluations = counted_source(beta_chart_density(BetaParams(1.05, 2.05)))
        map_estimate(pushforward(rho, CHARTS["arcsin"]))
        assert evaluations[0] > 1000
        assert verify_calls[0] == evaluations[0]

    def test_conversions_from_the_arcsin_chart_keep_every_check(self, verify_calls):
        # cos(y) is Beta(1, 1) in the arcsin chart, given here without checks
        src, evaluations = counted_source(ChartDensity(
            BERNOULLI, CHARTS["arcsin"], math.cos, "cos", lambda y, yc: math.cos(y)))
        p = intrinsic_from_chart(src)
        searches = [
            # the arcsin map's output, checked in the arcsin domain
            (1, lambda: mapi_estimate(p, CHARTS["theta"])),
            # that output, and the reciprocal map's output in (0, 1)
            (2, lambda: map_estimate(pushforward(src, CHARTS["reciprocal"]))),
            (2, lambda: map_estimate(chart_from_intrinsic(p, CHARTS["reciprocal"]))),
        ]
        for per_evaluation, search in searches:
            verify_calls[0] = evaluations[0] = 0
            search()
            assert evaluations[0] > 1000
            assert verify_calls[0] == per_evaluation * evaluations[0]

    def test_each_chart_map_output_is_checked_once(self, verify_calls):
        arcsin_src, arcsin_evals = counted_source(ChartDensity(
            BERNOULLI, CHARTS["arcsin"], math.cos, "cos", lambda y, yc: math.cos(y)))
        theta_src, theta_evals = counted_source(beta_chart_density(BetaParams(1.05, 2.05)))
        p = intrinsic_from_chart(theta_src)
        searches = [
            # the arcsin map's output in the arcsin domain; theta moves nothing
            (1, arcsin_evals, lambda: map_estimate(pushforward(arcsin_src, CHARTS["theta"]))),
            # the arcsin map's output in (0, 1)
            (1, theta_evals, lambda: map_estimate(chart_from_intrinsic(p, CHARTS["arcsin"]))),
            (0, theta_evals, lambda: map_estimate(chart_from_intrinsic(p, CHARTS["theta"]))),
        ]
        for per_evaluation, evaluations, search in searches:
            verify_calls[0] = evaluations[0] = 0
            search()
            assert evaluations[0] > 1000
            assert verify_calls[0] == per_evaluation * evaluations[0]

    def test_whole_domain_integrals_make_no_checks(self, verify_calls):
        params = BetaParams(1.05, 2.05)
        rho = beta_chart_density(params)
        p = beta_intrinsic_density(params)
        assert normalization_check(rho) == pytest.approx(1.0, abs=1e-12)
        assert normalization_check(p) == pytest.approx(1.0, abs=1e-12)
        assert expectation(p, lambda t: t).value == pytest.approx(1.05 / 3.1, abs=1e-12)
        assert interval_probability(p, BERNOULLI.canonical_domain).value == pytest.approx(1.0)
        assert verify_calls[0] == 0

    @pytest.mark.parametrize("lo,hi", [(0.0, 0.3), (0.7, 1.0)])
    def test_sub_interval_checks_every_node(self, verify_calls, lo, hi):
        # each node: the arc-length chart map's check; the canonical offset it
        # makes is anchored at an end of (0, 1), so the density trusts it
        p = beta_intrinsic_density(BetaParams(1.05, 2.05))
        res = interval_probability(p, Interval(lo, hi), CFG)
        assert verify_calls[0] == res.evaluations

    def test_chart_sub_interval_checks_every_node(self, verify_calls):
        # offsets anchored at 0.5 would read as distances from 1 unchecked
        rho = beta_chart_density(BetaParams(2.0, 2.0))
        res = integrate_chart(rho.value_offset, Interval(0.0, 0.5), CFG)
        assert res.value == pytest.approx(0.5, abs=1e-12)
        assert verify_calls[0] == res.evaluations

    @pytest.mark.parametrize("lo,hi,value,error,evaluations", [
        (0.0, 0.3, 0.49878807201122644, 0.0, 116),
        (0.7, 1.0, 0.09025370389206991, 5.551115123125783e-17, 113),
    ])
    def test_sub_interval_results_pinned(self, lo, hi, value, error, evaluations):
        # the results before whole-domain integrals dropped their checks
        p = intrinsic_from_chart(beta_chart_density(BetaParams(1.05, 2.05)))
        res = interval_probability(p, Interval(lo, hi), CFG)
        assert (res.value, res.error_estimate, res.converged, res.evaluations) == (
            value, error, True, evaluations)


def reference_node_map(interval):
    """The per-node DE maps the node tables replace: t -> (x, xc, w) or None."""
    lo, hi = interval.lo, interval.hi
    pi_2 = 0.5 * math.pi
    if interval.finite:
        half = 0.5 * (hi - lo)

        def node(t):
            z = pi_2 * math.sinh(t)
            az = abs(z)
            if 2.0 * az > 700.0:
                off = 2.0 * half * math.exp(-2.0 * az)
            else:
                off = 2.0 * half / (math.exp(2.0 * az) + 1.0)
            if az > 300.0:
                sech2 = 4.0 * math.exp(-2.0 * az)
            else:
                c = math.cosh(az)
                sech2 = 1.0 / (c * c)
            w = pi_2 * math.cosh(t) * half * sech2
            if t < 0:
                return lo + off, off, w
            return hi - off, -off, w
    elif math.isfinite(lo) or math.isfinite(hi):
        a, positive = (lo, True) if math.isfinite(lo) else (hi, False)

        def node(t):
            z = pi_2 * math.sinh(t)
            if z > 700.0:
                return None
            off = math.exp(z)
            w = pi_2 * math.cosh(t) * off
            if positive:
                return a + off, off, w
            return a - off, -off, w
    else:
        def node(t):
            z = pi_2 * math.sinh(t)
            if abs(z) > 700.0:
                return None
            w = pi_2 * math.cosh(t) * math.cosh(z)
            return math.sinh(z), math.nan, w
    return node


def side_ks(level, sign):
    """The k of one side of one level, t = sign * k * 2**-level, up to the cap."""
    h = 0.5 ** level
    first, step = ((0 if sign > 0 else 1), 1) if level == 0 else (1, 2)
    return range(first, int(quadrature._T_CAP / h) + 1, step)


def bits(*values):
    return tuple(float(v).hex() for v in values)


NODE_INTERVALS = [Interval(0.0, 1.0), Interval(-2.5, 7.25), Interval(1.0, math.inf),
                  Interval(-math.inf, 2.0), Interval(-math.inf, math.inf)]


class TestNodeTables:
    @pytest.mark.parametrize("level", range(13))
    def test_rows_match_per_node_formulas(self, level):
        for interval in NODE_INTERVALS:
            row, w_scale, off_scale, sides = quadrature._node_map(interval)
            ref = reference_node_map(interval)
            for sign in (+1, -1):
                anchor, sx, sxc = sides[sign]
                rows = []
                while quadrature._extend(rows, row, level, sign):
                    pass
                ks = side_ks(level, sign)
                assert len(rows) == len(ks)
                for k, (p1, p2, m, div, past_min) in zip(ks, rows):
                    t = sign * k * 0.5 ** level
                    assert past_min == (abs(t) >= quadrature._T_TRUNC_MIN)
                    expected = ref(t)
                    w = p1 * w_scale * p2
                    if expected is None:
                        assert w == 0.0
                        continue
                    off = off_scale / m if div else off_scale * m
                    assert bits(anchor + sx * off, sxc * off, w) == bits(*expected)

    @pytest.mark.parametrize("interval", NODE_INTERVALS)
    def test_sweep_visits_reference_nodes(self, interval):
        # with no truncation, a sweep evaluates exactly the usable reference
        # nodes in order and sums their weights in the same order
        node_map = quadrature._node_map(interval)
        ref = reference_node_map(interval)
        for level in (0, 1, 4):
            for sign in (+1, -1):
                seen = []

                def call(x, xc):
                    seen.append(bits(x, xc))
                    return 1.0

                counts = [0, 0]
                total, _ = quadrature._sweep_side(node_map, level, sign, call, True, interval,
                                                  -1.0, counts)
                expected, expected_total = [], 0.0
                for k in side_ks(level, sign):
                    node = ref(sign * k * 0.5 ** level)
                    term = 0.0
                    if node is not None and node[2] > 0.0 and math.isfinite(node[0]) and node[1] != 0.0:
                        expected.append(bits(*node[:2]))
                        term = node[2]
                    expected_total += term
                assert seen == expected
                assert counts == [len(expected), 0]
                assert bits(total) == bits(expected_total)

    def test_slowest_case_table_size(self):
        # interval_probability of Beta(1e5, 2e5) on [0, 0.6] reaches level 11;
        # only levels up to _TABLE_LEVELS are kept
        quadrature._TABLES.clear()
        p = intrinsic_from_chart(beta_chart_density(BetaParams(1e5, 2e5)))
        res = interval_probability(p, Interval(0.0, 0.6), CFG)
        assert res.evaluations == 12311
        assert max(level for _, level, _ in quadrature._TABLES) == quadrature._TABLE_LEVELS
        assert sum(map(len, quadrature._TABLES.values())) <= 1553
