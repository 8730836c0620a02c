"""Double-exponential quadrature: known values, singular endpoints, invariance."""

import dataclasses
import functools
import inspect
import math
import sys
import threading

import numpy
import pytest
from scipy.integrate import quad
from scipy.special import betainc

from fishergeom import (
    BetaParams,
    ChartDensity,
    Interval,
    IntrinsicDensity,
    QuadratureConvergenceError,
    QuadratureResult,
    beta_chart_density,
    beta_intrinsic_density,
    bernoulli_model,
    chart_from_intrinsic,
    charts_for,
    expectation,
    get_model,
    integrate_chart,
    integrate_manifold,
    interval_probability,
    intrinsic_from_chart,
    map_estimate,
    mapi_estimate,
    normalization_check,
    pushforward,
    sample_curve,
    volume_result,
)
from fishergeom import density as density_module
from fishergeom import manifold as manifold_module
from fishergeom import mode as mode_module
from fishergeom import quadrature
from fishergeom.density import Evaluator
from fishergeom.manifold import Chart, verify_offset

BERNOULLI = bernoulli_model()
CHARTS = charts_for(BERNOULLI)


def eq2_integrand(t, tc):
    """theta**-1/2 (1-theta)**-1/2, singular at both endpoints."""
    lo = tc if tc > 0 else t
    hi = -tc if tc < 0 else 1.0 - t
    return lo ** -0.5 * hi ** -0.5


class TestIntegrateChart:
    def test_constant(self):
        res = integrate_chart(lambda x: 1.0, Interval(0.0, 1.0))
        assert res.converged
        assert res.value == pytest.approx(1.0, abs=1e-13)

    def test_builtin_without_a_signature_is_plain(self):
        # inspect.signature raises ValueError on math.hypot, so it is f(x) = |x|
        res = integrate_chart(math.hypot, Interval(0.0, 1.0))
        assert res.converged
        assert res.value == pytest.approx(0.5, abs=1e-12)

    def test_polynomial(self):
        res = integrate_chart(lambda x: 3.0 * x * x, Interval(0.0, 2.0))
        assert res.value == pytest.approx(8.0, rel=1e-12)

    def test_doubly_singular_arc_integrand(self):
        res = integrate_chart(eq2_integrand, Interval(0.0, 1.0))
        assert res.converged
        assert res.value == pytest.approx(math.pi, abs=1e-9)

    def test_plain_integrand_single_zero_side_singularity(self):
        # singular only at the zero endpoint: plain f(x) is already exact there
        res = integrate_chart(lambda x: x ** -0.5, Interval(0.0, 1.0))
        assert res.converged
        assert res.value == pytest.approx(2.0, abs=1e-12)

    def test_half_infinite_tail(self):
        def f(y, yc):
            return 1.0 / (math.pi * y * math.sqrt(yc))

        res = integrate_chart(f, Interval(1.0, math.inf))
        assert res.converged
        assert res.value == pytest.approx(1.0, abs=1e-8)
        # oracle: substitute theta = 1/y back to the finite interval
        back = integrate_chart(eq2_integrand, Interval(0.0, 1.0))
        assert res.value == pytest.approx(back.value / math.pi, abs=1e-9)

    def test_half_infinite_exponential(self):
        res = integrate_chart(lambda x: math.exp(-x), Interval(0.0, math.inf))
        assert res.value == pytest.approx(1.0, rel=1e-12)

    def test_doubly_infinite_gaussian(self):
        res = integrate_chart(lambda x: math.exp(-x * x), Interval(-math.inf, math.inf))
        assert res.value == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_nonconvergence_is_flagged(self):
        res = integrate_chart(lambda x: 1.0 / x, Interval(0.0, 1.0))
        assert not res.converged
        assert res.error_estimate > 0.0

    def test_converged_error_estimate_within_tolerance(self):
        res = integrate_chart(eq2_integrand, Interval(0.0, 1.0))
        assert res.converged
        assert res.error_estimate <= max(quadrature._ABS_TOL, quadrature._REL_TOL * abs(res.value))

    def test_error_estimate_decreases_with_budget(self, monkeypatch):
        errs = []
        for levels in (1, 2, 3, 5, 8):
            monkeypatch.setattr(quadrature, "_MAX_LEVEL", levels)
            res = integrate_chart(eq2_integrand, Interval(0.0, 1.0))
            errs.append((res.error_estimate, res.converged))
        estimates = [e for e, _ in errs]
        assert all(b <= a for a, b in zip(estimates, estimates[1:]))
        assert errs[-1][1]

    def test_evaluation_count_reported(self):
        res = integrate_chart(lambda x: x, Interval(0.0, 1.0))
        assert res.evaluations > 0

    def test_mirrored_half_infinite(self):
        res = integrate_chart(lambda x: math.exp(x), Interval(-math.inf, 0.0))
        assert res.converged
        assert res.value == pytest.approx(1.0, rel=1e-12)

    def test_builtin_integrand(self):
        # math.sin takes one positional parameter, so it is called as f(x)
        res = integrate_chart(math.sin, Interval(0.0, math.pi))
        assert res.value == pytest.approx(2.0, rel=1e-12)

    def test_defaulted_second_parameter_is_no_offset(self):
        # only parameters without a default count: k keeps its default
        res = integrate_chart(lambda x, k=2: x ** k, Interval(0.0, 1.0))
        assert res.converged
        assert res.value == pytest.approx(1.0 / 3.0, rel=1e-12)
        res = integrate_manifold(lambda t, k=1: t ** k, bernoulli_model())
        assert res.converged
        assert res.value == pytest.approx(math.pi / 2, rel=1e-12)

    def test_ufunc_integrand(self):
        # numpy.sin's out=None must not receive the offset
        res = integrate_chart(numpy.sin, Interval(0.0, math.pi))
        assert res.converged
        assert res.value == pytest.approx(2.0, rel=1e-12)


class TestDivergenceVerdict:
    """From refinement level 2, a tail that still grows ends the integral as divergent."""

    def test_divergent_integrals_flagged(self):
        # 1/x on (0, 1) is pinned with its count in test_eval_counts.py
        for res in (integrate_chart(lambda x: 1.0, Interval(0.0, math.inf)),
                    integrate_chart(lambda x: 1.0, Interval(-math.inf, math.inf))):
            assert not res.converged
            assert res.error_estimate == math.inf
            assert res.evaluations < 100

    def test_far_out_decay_is_not_divergent(self):
        # still grows at the outermost node of level 0, |t| = 6 (x near 1e138)
        res = integrate_chart(lambda x: math.exp(-x / 1e200), Interval(0.0, math.inf))
        assert res.converged
        assert res.value == pytest.approx(1e200, rel=1e-10)

    def test_slow_algebraic_decay_is_not_divergent(self):
        res = integrate_chart(lambda x: (1.0 + x) ** -1.05, Interval(0.0, math.inf))
        assert res.converged
        assert res.value == pytest.approx(20.0, rel=1e-10)

    def test_reciprocal_chart_heavy_tail_is_not_divergent(self):
        # Beta(0.1, 4.26) in xi = 1/theta decays only like xi**-1.1
        d = pushforward(beta_chart_density(BetaParams(0.1, 4.26)), CHARTS["reciprocal"])
        res = integrate_chart(d.value_offset, d.chart.domain)
        assert res.converged
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_overflowing_integrand_is_zero_weighted(self):
        # x ** -0.99 raises OverflowError at subnormal x; the node is skipped
        res = integrate_chart(lambda x: x ** -0.99, Interval(0.0, 1.0))
        assert res.evaluations > 0
        assert not res.converged or res.value == pytest.approx(100.0, rel=1e-10)


class TestIntegrateManifold:
    def test_unit_function_gives_total_arc(self):
        res = integrate_manifold(lambda t: 1.0, BERNOULLI)
        assert res.value == pytest.approx(math.pi, abs=1e-9)

    def test_uniform_density_over_left_region(self):
        # constant height times region length, against the incomplete-beta oracle
        res = integrate_manifold(lambda t: 1.0 / math.pi, BERNOULLI, Interval(0.0, 0.1))
        oracle = betainc(0.5, 0.5, 0.1)
        assert res.value == pytest.approx(oracle, abs=1e-10)
        assert res.value == pytest.approx(2.0 * math.asin(math.sqrt(0.1)) / math.pi, abs=1e-12)

    def test_normalized_density_integrates_to_one(self):
        p = intrinsic_from_chart(beta_chart_density(BetaParams(2.0, 2.0)))
        res = integrate_manifold(p.value_offset, BERNOULLI)
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_region_outside_domain_rejected(self):
        from fishergeom import DomainError

        with pytest.raises(DomainError):
            integrate_manifold(lambda t: 1.0, BERNOULLI, Interval(-0.5, 0.5))

    def test_plain_integrand_sees_only_the_open_interior(self):
        # a node whose theta rounds onto 1.0 called log(0) and raised ValueError.
        # 1 - theta is not resolved below one ulp of 1, so the value holds to
        # about 1e-8: 2 pi ln 2
        seen = []

        def f(t):
            seen.append(t)
            return -math.log(1.0 - t)

        res = integrate_manifold(f, BERNOULLI)
        assert 0.0 < min(seen) and max(seen) < 1.0
        assert not res.converged or res.value == pytest.approx(2.0 * math.pi * math.log(2.0),
                                                               rel=1e-7)

    def test_value_only_density_over_a_region_ending_at_one(self):
        # pi ln 2 + 2 G, G Catalan's constant
        p = IntrinsicDensity(BERNOULLI, lambda t: -math.log(1.0 - t), "log")
        res = interval_probability(p, Interval(0.5, 1.0))
        exact = math.pi * math.log(2.0) + 2.0 * 0.915965594177219015
        assert not res.converged or res.value == pytest.approx(exact, rel=1e-7)

    def test_expectation_and_volume_read_no_signature(self, monkeypatch):
        calls = []
        monkeypatch.setattr(quadrature, "wants_offset", lambda f: calls.append(f) or True)
        p = beta_intrinsic_density(BetaParams(2.0, 3.0))
        assert expectation(p, lambda t: t).value == pytest.approx(0.4, abs=1e-10)
        assert volume_result(BERNOULLI).value == math.pi
        assert volume_result(BERNOULLI, Interval(0.0, 0.5)).value == pytest.approx(0.5 * math.pi)
        assert calls == []


def _two(x, xc):
    return x


def _one(x):
    return x


def _three(k, x, xc):
    return x


def _posonly_default(x, /, xc=0.0):
    return x


def _over_long_defaults(a, b, c, d):
    return a


# as set, inspect reads the first two of four as required
_over_long_defaults.__defaults__ = (1, 2, 3, 4, 5, 6)


def _with_signature(x):
    return x


_with_signature.__signature__ = inspect.signature(_two)


def _with_attribute(x, xc):
    return x


_with_attribute.note = "any attribute"


class _Methods:
    def two(self, x, xc):
        return x

    def one(self, x):
        return x


class _CallTwo:
    def __call__(self, x, xc):
        return x


class _CallOne:
    def __call__(self, x):
        return x


def _wrapping(inner):
    @functools.wraps(inner)
    def wrapper(*args, **kwargs):
        return inner(*args, **kwargs)
    return wrapper


# (callable, whether it is f(x, xc)), as inspect.signature reads each
PLAIN_FUNCTIONS = {
    "lambda-one": (lambda x: x, False),
    "lambda-two": (lambda x, xc: x, True),
    "lambda-three": (lambda x, xc, k: x, True),
    "lambda-no-parameter": (lambda: 0.0, False),
    "default": (lambda x, xc=0.0: x, False),
    "three-one-default": (lambda x, xc, k=2: x, True),
    "star-args": (lambda *args: 0.0, False),
    "one-and-star-args": (lambda x, *args: x, False),
    "two-and-star-args": (lambda x, xc, *args, **kwargs: x, True),
    "keyword-only": (lambda x, *, xc: x, False),
    "positional-only": (lambda x, xc, /: x, True),
    "positional-only-and-default": (_posonly_default, False),
    "def-two": (_two, True),
    "def-one": (_one, False),
}
OTHER_CALLABLES = {
    "partial-two-left": (functools.partial(_three, 1), True),
    "partial-one-left": (functools.partial(_two, 1), False),
    "partial-keyword": (functools.partial(_two, xc=1.0), False),
    "wraps-two": (_wrapping(_two), True),
    "wraps-one": (_wrapping(_one), False),
    "wraps-builtin": (_wrapping(math.atan2), True),
    "over-long-defaults": (_over_long_defaults, True),
    "signature-attribute": (_with_signature, True),
    "other-attribute": (_with_attribute, True),
    "bound-method-two": (_Methods().two, True),
    "bound-method-one": (_Methods().one, False),
    "builtin-two": (math.atan2, True),
    "builtin-one": (math.sin, False),
    "builtin-no-signature": (math.hypot, False),
    "ufunc": (numpy.sin, False),
    "instance-two": (_CallTwo(), True),
    "instance-one": (_CallOne(), False),
    "class": (_CallOne, False),
    "evaluator": (Evaluator(lambda x, xc: x, Interval(0.0, 1.0)), True),
}


class TestWantsOffset:
    """Which integrands are ``f(x, xc)``: pinned on each kind of callable."""

    @pytest.mark.parametrize("f,offset", [*PLAIN_FUNCTIONS.values(), *OTHER_CALLABLES.values()],
                             ids=[*PLAIN_FUNCTIONS, *OTHER_CALLABLES])
    def test_dispatch(self, f, offset):
        assert quadrature.wants_offset(f) is offset

    def test_plain_functions_read_no_signature(self, monkeypatch):
        def no_signature(f, *args, **kwargs):
            raise AssertionError(f"signature of {f!r} read")

        monkeypatch.setattr(inspect, "signature", no_signature)
        for name, (f, offset) in PLAIN_FUNCTIONS.items():
            assert quadrature.wants_offset(f) is offset, name


class TestExpectation:
    def test_symmetric_mean(self):
        p = intrinsic_from_chart(beta_chart_density(BetaParams(0.5, 0.5)))
        res = expectation(p, lambda t: t)
        assert res.value == pytest.approx(0.5, abs=1e-10)

    def test_mean_against_moment_formula(self):
        a, b = 1.05, 2.05
        p = intrinsic_from_chart(beta_chart_density(BetaParams(a, b)))
        res = expectation(p, lambda t: t)
        assert res.value == pytest.approx(a / (a + b), abs=1e-10)

    def test_unit_function_has_unit_expectation(self):
        p = intrinsic_from_chart(beta_chart_density(BetaParams(1.05, 2.05)))
        res = expectation(p, lambda t: 1.0)
        assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_reciprocal_moment_converges(self):
        for a, b in ((2.0, 3.0), (1.5, 0.7), (1.0319, 11.795)):
            p = intrinsic_from_chart(beta_chart_density(BetaParams(a, b)))
            res = expectation(p, lambda t: t ** -1)
            assert res.converged
            assert res.value == pytest.approx((a + b - 1.0) / (a - 1.0), rel=1e-9)

    def test_reciprocal_moment_divergence_flagged(self):
        for a, b in ((0.9, 2.0), (1.0, 1.0)):
            p = intrinsic_from_chart(beta_chart_density(BetaParams(a, b)))
            res = expectation(p, lambda t: t ** -1)
            assert not res.converged
            assert res.error_estimate == math.inf

    def test_f_dividing_by_zero_at_rounded_end_is_skipped(self):
        # theta rounds to 1.0 at nodes whose exact offset is not 0, and
        # 1/(1 - theta) divides by zero there: skipped as an overflow is
        p = intrinsic_from_chart(beta_chart_density(BetaParams(2.0, 3.0)))
        res = expectation(p, lambda t: 1.0 / (1.0 - t))
        assert res.converged
        assert res.value == pytest.approx(2.0, rel=1e-14)   # (a + b - 1)/(b - 1)
        assert (res.evaluations, res.nonfinite_skipped) == (109, 14)
        for a, b in ((0.5, 0.5), (3.0, 0.7)):   # E[1/(1 - theta)] diverges for b <= 1
            p = intrinsic_from_chart(beta_chart_density(BetaParams(a, b)))
            res = expectation(p, lambda t: 1.0 / (1.0 - t))
            assert not res.converged
            assert res.error_estimate == math.inf

    def test_f_domain_error_at_rounded_end_raises(self):
        # only arithmetic blow-ups are skipped; log(0) is a ValueError
        p = intrinsic_from_chart(beta_chart_density(BetaParams(2.0, 3.0)))
        with pytest.raises(ValueError):
            expectation(p, lambda t: math.log(1.0 - t))

    def test_value_only_density_sees_only_the_open_interior(self):
        # as in the normalisation and interval_probability, a value-only
        # density's value is never called at theta = 1.0, where log(1 - t) raises
        seen = []

        def value(t):
            seen.append(t)
            return 0 * math.log(1 - t) + 1 / math.pi

        p = IntrinsicDensity(BERNOULLI, value, "flat")
        assert normalization_check(p) == pytest.approx(1.0, abs=1e-12)
        assert interval_probability(p, Interval(0.0, 1.0)).value == pytest.approx(1.0, abs=1e-12)
        res = expectation(p, lambda t: t)
        assert res.converged
        assert res.value == pytest.approx(0.5, abs=1e-12)
        assert 0.0 < min(seen) and max(seen) < 1.0

    def test_f_never_called_at_theta_zero(self):
        seen = []

        def f(t):
            seen.append(t)
            return t ** -1

        p = intrinsic_from_chart(beta_chart_density(BetaParams(0.5, 0.5)))
        expectation(p, f)
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

            res = integrate_chart(integrand, chart.domain)
            assert res.converged, name
            values.append(res.value)
        moment = a * (a + 1) / ((a + b) * (a + b + 1))
        for v in values:
            assert v == pytest.approx(moment, abs=1e-8)
        assert max(values) - min(values) <= 1e-8


class TestIntervalProbability:
    def test_flat_prior_left_tail(self):
        p = intrinsic_from_chart(beta_chart_density(BetaParams(0.5, 0.5)))
        res = interval_probability(p, Interval(0.0, 0.1))
        assert res.value == pytest.approx(betainc(0.5, 0.5, 0.1), abs=1e-8)

    def test_full_interval_and_symmetry(self):
        p = intrinsic_from_chart(beta_chart_density(BetaParams(0.5, 0.5)))
        assert interval_probability(p, Interval(0.0, 1.0)).value == pytest.approx(1.0, abs=1e-9)
        assert interval_probability(p, Interval(0.0, 0.5)).value == pytest.approx(0.5, abs=1e-10)

    def test_additivity(self):
        p = intrinsic_from_chart(beta_chart_density(BetaParams(1.05, 2.05)))
        ab = interval_probability(p, Interval(0.0, 0.3)).value
        bc = interval_probability(p, Interval(0.3, 0.8)).value
        ac = interval_probability(p, Interval(0.0, 0.8)).value
        assert ab + bc == pytest.approx(ac, abs=1e-10)

    @pytest.mark.parametrize("a,b,hi", [(0.5, 0.5, 0.25), (2.0, 2.0, 0.6), (0.3, 5.0, 0.04)])
    def test_against_incomplete_beta(self, a, b, hi):
        p = intrinsic_from_chart(beta_chart_density(BetaParams(a, b)))
        res = interval_probability(p, Interval(0.0, hi))
        assert res.value == pytest.approx(betainc(a, b, hi), abs=1e-8)


class TestChartInvarianceOfMass:
    @pytest.mark.parametrize("a", [0.3, 0.5, 1.0, 1.05, 2.0, 5.0])
    @pytest.mark.parametrize("b", [0.3, 1.05, 5.0])
    def test_total_mass_same_in_all_charts(self, a, b):
        rho = beta_chart_density(BetaParams(a, b))
        masses = []
        for chart in CHARTS.values():
            res = integrate_chart(pushforward(rho, chart).value_offset, chart.domain)
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
        res = integrate_chart(rho.value_offset, rho.chart.domain)
        assert res.converged
        assert res.nonfinite_skipped > 0

    def test_regular_density_skips_nothing(self):
        rho = beta_chart_density(BetaParams(1.05, 2.05))
        p = intrinsic_from_chart(rho)
        assert integrate_chart(rho.value_offset, rho.chart.domain).nonfinite_skipped == 0
        assert integrate_manifold(p.value_offset, BERNOULLI).nonfinite_skipped == 0

    def test_no_finite_term_is_not_converged(self):
        # a sum of skipped nodes is 0 at every level, which proves nothing
        res = integrate_chart(lambda x, xc: math.inf, Interval(0.0, 1.0))
        assert (res.value, res.error_estimate, res.converged) == (0.0, math.inf, False)
        assert res.evaluations == res.nonfinite_skipped > 0

    def test_no_evaluation_is_not_converged(self):
        # no double lies strictly inside, so a plain integrand, or a value-only
        # density on that domain, is never called: its clamp reads nan at every node
        region = Interval(0.3, math.nextafter(0.3, 1.0))
        calls = []
        res = integrate_chart(lambda x: calls.append(x) or 1.0, region)
        assert (res.error_estimate, res.converged) == (math.inf, False)
        assert res.evaluations == res.nonfinite_skipped > 0
        tiny = dataclasses.replace(CHARTS["theta"], name="tiny", domain=region)
        rho = ChartDensity(BERNOULLI, tiny, lambda x: calls.append(x) or 1.0, "tiny")
        assert integrate_chart(rho.value_offset, region) == res
        with pytest.raises(QuadratureConvergenceError):
            normalization_check(rho)
        assert calls == []

    def test_normalization_with_no_finite_term_raises(self):
        with pytest.raises(QuadratureConvergenceError):
            normalization_check(IntrinsicDensity(BERNOULLI, lambda t: math.nan, "nan"))

    def test_positional_construction_unchanged(self):
        res = QuadratureResult(1.0, 0.0, True, 5)
        assert res.nonfinite_skipped == 0


@pytest.fixture
def verify_calls(monkeypatch):
    """Counts every ``verify_offset`` call, by density cores, chart maps and
    quadrature readers alike: each ``fishergeom`` module that binds it is patched."""
    calls = [0]

    def counted(interval, x, xc):
        calls[0] += 1
        return verify_offset(interval, x, xc)

    patched = [module for name, module in list(sys.modules.items())
               if name.split(".")[0] == "fishergeom"
               and vars(module).get("verify_offset") is verify_offset]
    assert {density_module, manifold_module} <= set(patched)
    for module in patched:
        monkeypatch.setattr(module, "verify_offset", counted)
    return calls


def counted_source(d):
    """Copy of ``d`` whose trusted evaluator records each ``(x, xc)`` it is
    called at and checks nothing."""
    calls = []
    core = d.value_offset.core

    def value_offset(x, xc):
        calls.append((x, xc))
        return core(x, xc)

    return dataclasses.replace(d, value_offset=value_offset), calls


class TestTrustBoundary:
    """Whole-domain integrals and mode searches call trusted cores, and each
    chart map's output is checked where it enters its new interval, whether
    a conversion or a read at canonical points makes it; sub-intervals stay
    checked."""

    @staticmethod
    def warm_scan_tables(verify_calls):
        # a cold scan table, or a cold image of one in a chart, checks each of its
        # offsets once, when built: build them first, so what is counted is per evaluation
        density_module._images.cache_clear()
        scan = manifold_module._chart_samples(BERNOULLI, CHARTS["arclength"],
                                              mode_module._SCAN_POINTS)
        for chart in CHARTS.values():
            if chart is not CHARTS["theta"]:
                density_module._images(scan, BERNOULLI, chart)
        verify_calls[0] = 0

    @staticmethod
    def check_cold_then_warm(verify_calls, calls, searches):
        # each (per_evaluation, built, search, domain): a source of a chart but theta
        # scans by its column over image tables, whose rows are checked when built,
        # once in the chart's domain and once in (0, 1); so, cold, the search builds
        # ``built`` image tables of 1,024 rows, and, warm, it checks only its other
        # evaluations, ``per_evaluation`` times each. Its source is called only at
        # offsets anchored at an end of the source's domain.
        scan = mode_module._SCAN_POINTS
        for per_evaluation, built, search, domain in searches:
            for tables in (built, 0):
                verify_calls[0] = 0
                calls.clear()
                search()
                assert len(calls) > scan
                assert verify_calls[0] == per_evaluation * (len(calls) - scan) + 2 * scan * tables
                assert all(verify_offset(domain, x, xc) == xc for x, xc in calls)

    def test_mapi_of_a_theta_chart_density_makes_no_checks(self, verify_calls):
        # the identity chart moves no offset, so its conversion checks none;
        # a cold scan table checks each of its canonical offsets once, when built
        p = intrinsic_from_chart(beta_chart_density(BetaParams(1.05, 2.05)))
        manifold_module._chart_samples.cache_clear()
        for chart in CHARTS.values():
            verify_calls[0] = 0
            manifold_module._chart_samples(BERNOULLI, chart, mode_module._SCAN_POINTS)
            assert verify_calls[0] == 1024
        verify_calls[0] = 0
        for chart in CHARTS.values():
            assert mapi_estimate(p, CHARTS["theta"], search_chart=chart).all_modes
        assert verify_calls[0] == 0

    def test_pushforward_from_the_theta_chart_checks_once_per_evaluation(self, verify_calls):
        self.warm_scan_tables(verify_calls)
        # the search reads the pushed density at the arcsin images of canonical
        # points: the arcsin map's output is checked where it enters the arcsin
        # domain, and the inverse map's where it enters (0, 1)
        rho, calls = counted_source(beta_chart_density(BetaParams(1.05, 2.05)))
        self.check_cold_then_warm(verify_calls, calls, [
            (2, 0, lambda: map_estimate(pushforward(rho, CHARTS["arcsin"])), rho.chart.domain),
        ])

    def test_conversions_from_the_arcsin_chart_keep_every_check(self, verify_calls):
        self.warm_scan_tables(verify_calls)
        # cos(y) is Beta(1, 1) in the arcsin chart, given here without checks
        src, calls = counted_source(ChartDensity(
            BERNOULLI, CHARTS["arcsin"], math.cos, "cos", lambda y, yc: math.cos(y)))
        p = intrinsic_from_chart(src)
        domain = src.chart.domain
        self.check_cold_then_warm(verify_calls, calls, [
            # the arcsin map's output, checked in the arcsin domain
            (1, 0, lambda: mapi_estimate(p, CHARTS["theta"]), domain),
            # that output, the reciprocal map's output in the reciprocal domain
            # where the search reads at canonical points, and the inverse map's in
            # (0, 1); the scan reads the image in arcsin of the scan's reciprocal image
            (3, 1, lambda: map_estimate(pushforward(src, CHARTS["reciprocal"])), domain),
            (3, 0, lambda: map_estimate(chart_from_intrinsic(p, CHARTS["reciprocal"])), domain),
        ])

    def test_each_chart_map_output_is_checked_once(self, verify_calls):
        self.warm_scan_tables(verify_calls)
        arcsin_src, arcsin_calls = counted_source(ChartDensity(
            BERNOULLI, CHARTS["arcsin"], math.cos, "cos", lambda y, yc: math.cos(y)))
        theta_src, theta_calls = counted_source(beta_chart_density(BetaParams(1.05, 2.05)))
        p = intrinsic_from_chart(theta_src)
        # the arcsin map's output in the arcsin domain; theta moves nothing
        self.check_cold_then_warm(verify_calls, arcsin_calls, [
            (1, 0, lambda: map_estimate(pushforward(arcsin_src, CHARTS["theta"])),
             arcsin_src.chart.domain),
        ])
        self.check_cold_then_warm(verify_calls, theta_calls, [
            # the arcsin map's output in the arcsin domain where the search reads
            # at canonical points, and the inverse map's in (0, 1)
            (2, 0, lambda: map_estimate(chart_from_intrinsic(p, CHARTS["arcsin"])),
             theta_src.chart.domain),
            (0, 0, lambda: map_estimate(chart_from_intrinsic(p, CHARTS["theta"])),
             theta_src.chart.domain),
        ])

    def test_whole_domain_integrals_make_no_checks(self, verify_calls):
        # a cold DE side table checks each of its canonical offsets once, when built
        quadrature._side_samples.cache_clear()
        for chart in (CHARTS["theta"], CHARTS["arclength"]):
            for level in range(quadrature._TABLE_LEVELS + 1):
                for sign in (1, -1):
                    verify_calls[0] = 0
                    rows = len(quadrature._side_samples(BERNOULLI, chart, level, sign)[0].xs)
                    assert verify_calls[0] == rows
        verify_calls[0] = 0
        params = BetaParams(1.05, 2.05)
        rho = beta_chart_density(params)
        p = beta_intrinsic_density(params)
        assert normalization_check(rho) == pytest.approx(1.0, abs=1e-12)
        assert normalization_check(p) == pytest.approx(1.0, abs=1e-12)
        assert expectation(p, lambda t: t).value == pytest.approx(1.05 / 3.1, abs=1e-12)
        assert interval_probability(p, BERNOULLI.canonical_domain).value == pytest.approx(1.0)
        assert verify_calls[0] == 0

    @staticmethod
    def region_evaluator(density):
        """``(model, Evaluator)`` of ``region_integral``'s density, as its region
        integral reads it."""
        if density in ("poisson", "exponential"):
            return get_model(density), Evaluator(lambda lam, co: math.exp(-co),
                                                 get_model(density).canonical_domain)
        p = intrinsic_from_chart(beta_chart_density(BetaParams(*density)))
        return p.model, p.value_offset

    @pytest.mark.parametrize("density,lo,hi,checked", [
        pytest.param((1.05, 2.05), 0.0, 0.3, (), id="0.0-0.3"),
        pytest.param((1.05, 2.05), 0.7, 1.0, (), id="0.7-1.0"),
        pytest.param((2.5, 4.0), 0.2, 0.7, (), id="beta-2.5-4-0.2-0.7"),
        pytest.param((2.5, 4.0), 0.5, 1.0 - 1e-16, (), id="beta-2.5-4-0.5-1-1e-16"),
        # s_lo ~ 2e-150 lies within the check's tolerance of s = 0: the check keeps
        # the offsets of side -1, anchored there
        pytest.param((2.5, 4.0), 1e-300, 0.5, (-1,), id="beta-2.5-4-1e-300-0.5"),
        # both sides anchored at s = 2: the check keeps the far nodes' offsets
        pytest.param("poisson", 1.0, math.inf, (1, -1), id="poisson-1-inf"),
        pytest.param("poisson", 0.0, 4.0, (), id="poisson-0-4"),
        pytest.param("exponential", 0.5, 2.0, (), id="exponential-0.5-2"),
        pytest.param("exponential", 1.0, math.inf, (), id="exponential-1-inf"),
    ])
    def test_sub_interval_checks_every_node(self, verify_calls, monkeypatch, density, lo, hi,
                                            checked):
        # every offset the density's core is given is anchored at an end of the
        # canonical domain; the arc-length map's check runs at each node of a side
        # whose offsets it may keep, and at no node of a side where it replaces
        # every one (an anchor at the chart domain's own end, or far from it)
        model, ev = self.region_evaluator(density)
        seen = []

        def core(theta, co):
            seen.append((theta, co))
            return ev.core(theta, co)

        reads = {1: 0, -1: 0}
        sweep = quadrature._de_integrate

        def counted_sweep(call, interval, *args):
            def side(sign):
                def read(s, sc):
                    reads[sign] += 1
                    return call[sign](s, sc)
                return read
            return sweep({sign: side(sign) for sign in (1, -1)}, interval, *args)

        monkeypatch.setattr(quadrature, "_de_integrate", counted_sweep)
        region = Interval(lo, hi)
        res = integrate_manifold(Evaluator(core, model.canonical_domain), model, region)
        assert res.converged
        assert len(seen) == res.evaluations == reads[1] + reads[-1]
        assert reads[1] > 0 and reads[-1] > 0
        assert verify_calls[0] == sum(reads[sign] for sign in checked)
        # far out on a half line the map returns its limit (inf, inf), which no check keeps
        assert all(verify_offset(model.canonical_domain, theta, co) == co
                   or theta == co == math.inf for theta, co in seen)
        monkeypatch.undo()
        assert repr(res) == repr(self.region_integral(density)(region))

    @pytest.mark.parametrize("density,lo,hi", [
        ((2.5, 4.0), 0.2, 0.7), ((2.5, 4.0), 0.0, 0.37), ((0.3, 4.0), 0.6, 1.0),
        ((2.5, 4.0), 0.5, 1.0 - 1e-16), ((0.3, 0.3), 1e-300, 1e-3),
        ("poisson", 0.0, 4.0), ("poisson", 0.5, 2.0), ("exponential", 0.5, 2.0),
        ("exponential", 1.0, math.inf), ("exponential", 1e-300, 1e-3),
    ])
    def test_naive_sides_read_finite_nodes_only(self, monkeypatch, density, lo, hi):
        # a side read by the naive offset reads its rule, picked once, only at finite
        # arc lengths of the region's closure, where it is naive_offset's bit for bit
        # (test_manifold.py's TestNaiveReader)
        model, _ = self.region_evaluator(density)
        seen = []
        build = quadrature._naive_reader

        def recording(core, domain, to_canonical=None):
            read = build(core, domain, to_canonical)

            def recorded(s, sc):
                seen.append((domain, s))
                return read(s, sc)
            return recorded

        monkeypatch.setattr(quadrature, "_naive_reader", recording)
        res = self.region_integral(density)(Interval(lo, hi))
        monkeypatch.undo()
        assert repr(res) == repr(self.region_integral(density)(Interval(lo, hi)))
        s_lo, s_hi = map(model.arc_length_from_origin, (lo, hi))
        assert seen
        for domain, s in seen:
            assert domain is model.arclength.domain
            assert math.isfinite(s) and s_lo <= s <= s_hi, s

    def test_chart_sub_interval_checks_every_node(self, verify_calls):
        # offsets anchored at 0.5 would read as distances from 1 unchecked
        rho = beta_chart_density(BetaParams(2.0, 2.0))
        res = integrate_chart(rho.value_offset, Interval(0.0, 0.5))
        assert res.value == pytest.approx(0.5, abs=1e-12)
        assert verify_calls[0] == res.evaluations

    @staticmethod
    def region_integral(density):
        """The integral of ``density`` over a canonical region: a Beta
        ``(alpha, beta)`` by ``interval_probability``, a rate family's
        exp(-lam), read at the offset its core is given, by ``integrate_manifold``."""
        if density in ("poisson", "exponential"):
            d = IntrinsicDensity(get_model(density), lambda lam: math.exp(-lam), "exp(-lam)",
                                 value_offset=lambda lam, co: math.exp(-co))
            return lambda region: integrate_manifold(d.value_offset, d.model, region)
        p = intrinsic_from_chart(beta_chart_density(BetaParams(*density)))
        return lambda region: interval_probability(p, region)

    @pytest.mark.parametrize("density,lo,hi,value,error,evaluations,skipped", [
        pytest.param((1.05, 2.05), 0.0, 0.3, 0.49878807201122644, 0.0, 116, 0,
                     id="0.0-0.3-0.49878807201122644-0.0-116"),
        pytest.param((1.05, 2.05), 0.7, 1.0, 0.09025370389206991, 5.551115123125783e-17, 113, 0,
                     id="0.7-1.0-0.09025370389206991-5.551115123125783e-17-113"),
        # both anchors interior: every node's offset falls back to the naive one on one side
        pytest.param((1.05, 2.05), 0.2, 0.7, 0.5632142734424979, 0.0, 120, 0,
                     id="beta-1.05-2.05-0.2-0.7"),
        pytest.param((0.3, 4.0), 0.2, 0.7, 0.10942847199970132, 1.9770990400402866e-11, 68, 0,
                     id="beta-0.3-4-0.2-0.7"),
        pytest.param((1.05, 2.05), 0.0, 1e-3, 0.0014882116965632838, 6.472686969738461e-16, 62, 0,
                     id="beta-1.05-2.05-0-1e-3"),
        pytest.param((0.3, 4.0), 0.0, 1e-3, 0.2068870363044471, 2.831068712794149e-15, 73, 2,
                     id="beta-0.3-4-0-1e-3"),
        # a half-infinite arc-length domain, and a doubly infinite one (nan offsets)
        pytest.param("poisson", 0.0, 4.0, 1.7641627815248437, 0.0, 121, 0, id="poisson-0-4"),
        pytest.param("exponential", 0.5, 2.0, 0.5108730840680997, 0.0, 120, 0,
                     id="exponential-0.5-2"),
    ])
    def test_sub_interval_results_pinned(self, density, lo, hi, value, error, evaluations,
                                         skipped):
        # the results before whole-domain integrals dropped their checks, and before
        # region integrals read each node through one closure
        res = self.region_integral(density)(Interval(lo, hi))
        assert repr(res) == repr(QuadratureResult(value, error, True, evaluations, skipped))


def _counting(inner, calls):
    def value_offset(x, xc):
        calls[0] += 1
        return inner(x, xc)
    return value_offset


class TestTrustRule:
    """A core is trusted only where ``value_offset`` is exactly an
    ``Evaluator``; anything else, however it looks, is called as given."""

    RHO = beta_chart_density(BetaParams(2.0, 3.0))

    def check_called_as_given(self, replaced, calls):
        """Four callers evaluate ``replaced`` only through its ``value_offset``,
        to the results of the density it replaces."""
        rho = self.RHO
        res = integrate_chart(replaced.value_offset, rho.chart.domain)
        assert res == integrate_chart(rho.value_offset, rho.chart.domain)
        assert calls[0] == res.evaluations
        calls[0] = 0
        assert normalization_check(replaced) == normalization_check(rho)
        assert calls[0] == res.evaluations
        calls[0] = 0
        assert repr(map_estimate(replaced)) == repr(map_estimate(rho))
        assert calls[0] >= 1024
        for chart in (CHARTS["theta"], CHARTS["arcsin"]):
            calls[0] = 0
            assert sample_curve(replaced, chart, 9) == sample_curve(rho, chart, 9)
            assert calls[0] == 9

    def test_wraps_wrapper_is_called_at_every_evaluation(self):
        # functools.wraps copies an instance's attributes, not its type
        calls = [0]
        inner = self.RHO.value_offset
        wrapper = functools.wraps(inner)(_counting(inner, calls))
        self.check_called_as_given(dataclasses.replace(self.RHO, value_offset=wrapper), calls)

    def test_core_and_domain_attributes_are_not_trusted(self):
        calls = [0]
        inner = self.RHO.value_offset
        look_alike = _counting(inner, calls)
        look_alike.core, look_alike.domain = inner.core, inner.domain
        self.check_called_as_given(dataclasses.replace(self.RHO, value_offset=look_alike), calls)

    def test_replaced_evaluator_keeps_the_trusted_path(self, verify_calls):
        # the route to count a density's evaluations without leaving its fast path
        params = BetaParams(2.0, 3.0)
        for plain in (self.RHO, beta_intrinsic_density(params), intrinsic_from_chart(self.RHO)):
            calls = [0]
            domain = plain.value_offset.domain
            d = dataclasses.replace(plain, value_offset=Evaluator(
                _counting(plain.value_offset.core, calls), domain))
            if isinstance(d, ChartDensity):
                integrals = [lambda d: integrate_chart(d.value_offset, domain)]
            else:
                integrals = [lambda d: integrate_manifold(d.value_offset, d.model),
                             lambda d: expectation(d, lambda t: t * t),
                             lambda d: interval_probability(d, domain)]
            for integral in integrals:
                calls[0] = verify_calls[0] = 0
                res = integral(d)
                assert res == integral(plain)
                assert calls[0] == res.evaluations
                assert verify_calls[0] == 0
            calls[0] = 0
            assert normalization_check(d) == normalization_check(plain)
            assert calls[0] == integrals[0](plain).evaluations

    def test_evaluator_is_offset_aware_without_its_signature(self, monkeypatch):
        p = intrinsic_from_chart(self.RHO)
        want = [integrate_chart(self.RHO.value_offset, self.RHO.chart.domain),
                integrate_manifold(p.value_offset, p.model)]

        def no_signature(f, *args, **kwargs):
            raise AssertionError(f"signature of {f!r} read")

        monkeypatch.setattr(inspect, "signature", no_signature)
        assert [integrate_chart(self.RHO.value_offset, self.RHO.chart.domain),
                integrate_manifold(p.value_offset, p.model)] == want


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


def readable(node):
    """Whether the sweep reads a reference node: in the map's range, x finite,
    a positive weight and a nonzero offset."""
    return (node is not None and math.isfinite(node[0]) and node[2] > 0.0
            and node[1] != 0.0)


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
                rows, trunc_from = quadrature._table(row, level, sign)
                ks = side_ks(level, sign)
                assert len(rows) == len(ks)
                for i, (k, (p1, p2, m, div)) in enumerate(zip(ks, rows)):
                    t = sign * k * 0.5 ** level
                    assert (i >= trunc_from) == (abs(t) >= quadrature._T_TRUNC_MIN)
                    expected = ref(t)
                    w = p1 * w_scale * p2
                    if expected is None:
                        assert w == 0.0
                        continue
                    off = off_scale / m if div else off_scale * m
                    assert bits(anchor + sx * off, sxc * off, w) == bits(*expected)

    @pytest.mark.parametrize("interval", NODE_INTERVALS + [
        Interval(5e-324, 1e-323), Interval(1.0, 1.0 + 2.0 ** -52), Interval(1e300, math.inf),
        Interval(-math.inf, -1e300), Interval(-1.7e308, 1.7e308), Interval(0.0, 1e308)])
    def test_unreadable_nodes_end_each_side(self, interval):
        # the sweeps end a side at its first unreadable node, reading no node past it:
        # none may be readable, on the widest and narrowest intervals and far out too
        ref = reference_node_map(interval)
        for level in range(13):
            for sign in (+1, -1):
                flags = [readable(ref(sign * k * 0.5 ** level)) for k in side_ks(level, sign)]
                assert flags == sorted(flags, reverse=True), (level, sign)

    @pytest.mark.parametrize("interval", NODE_INTERVALS)
    def test_sweep_visits_reference_nodes(self, interval, monkeypatch):
        # with no truncation and no convergence, each level evaluates exactly
        # the usable reference nodes in order, side +1 before side -1, and
        # folds their terms as value = 0.5 * value + h * (side+ + side-); a
        # constant 1 would grow on the infinite maps and return at level 2
        monkeypatch.setattr(quadrature, "_ABS_TOL", -1.0)
        monkeypatch.setattr(quadrature, "_REL_TOL", -1.0)
        ref = reference_node_map(interval)

        def f(x):
            return 1.0 / (1.0 + x * x)

        for top in (0, 1, 4):
            monkeypatch.setattr(quadrature, "_MAX_LEVEL", top)
            seen = []

            def call(x, xc):
                seen.append(bits(x, xc))
                return f(x)

            res = quadrature._de_integrate(call, interval)
            expected, value = [], 0.0
            for level in range(top + 1):
                odd = 0.0
                for sign in (+1, -1):
                    total = 0.0
                    for k in side_ks(level, sign):
                        node = ref(sign * k * 0.5 ** level)
                        term = 0.0
                        if (node is not None and node[2] > 0.0 and math.isfinite(node[0])
                                and node[1] != 0.0):
                            expected.append(bits(*node[:2]))
                            term = node[2] * f(node[0])
                        total += term
                    odd += total
                value = 0.5 * value + 0.5 ** level * odd
            assert seen == expected
            assert res.evaluations == len(expected)
            assert (res.nonfinite_skipped, res.converged) == (0, False)
            assert bits(res.value) == bits(value)

    def test_slowest_case_table_size(self):
        # interval_probability of Beta(1e5, 2e5) on [0, 0.6] reaches level 11;
        # only levels up to _TABLE_LEVELS are kept
        quadrature._TABLES.clear()
        p = intrinsic_from_chart(beta_chart_density(BetaParams(1e5, 2e5)))
        res = interval_probability(p, Interval(0.0, 0.6))
        assert res.evaluations == 12311
        assert max(level for _, level, _ in quadrature._TABLES) == quadrature._TABLE_LEVELS
        assert sum(len(rows) for rows, _ in quadrature._TABLES.values()) <= 1553

    def test_tables_are_shared_by_threads_without_a_lock(self):
        # 8 threads start together on cleared tables: each gets the sequential
        # results, and the tables they publish are the sequential ones
        rho = beta_chart_density(BetaParams(0.7, 2.5))
        p = intrinsic_from_chart(rho)
        calls = [functools.partial(integrate_chart, d.value_offset, d.chart.domain)
                 for d in (pushforward(rho, chart) for chart in CHARTS.values())]
        calls += [functools.partial(integrate_manifold, p.value_offset, BERNOULLI),
                  functools.partial(interval_probability, p, Interval(0.0, 0.3)),
                  functools.partial(expectation, p, lambda t: t * t)]
        calls += [functools.partial(volume_result, get_model(name))
                  for name in ("bernoulli", "poisson", "exponential")]

        def run():
            return [repr(call()) for call in calls]

        # the column path reads no _table once its side tables are cached: clear them too
        quadrature._TABLES.clear()
        quadrature._side_samples.cache_clear()
        want = run()
        want_tables = dict(quadrature._TABLES)
        quadrature._TABLES.clear()
        quadrature._side_samples.cache_clear()
        start = threading.Barrier(8)
        got = [None] * 8

        def worker(i):
            start.wait(timeout=60)
            got[i] = run()

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)     # switch threads often, mid-table too
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [want] * 8
        assert quadrature._TABLES == want_tables


def side_reads(integral):
    """``integral()`` and how many DE side tables it read."""
    before = quadrature._side_samples.cache_info()
    res = integral()
    after = quadrature._side_samples.cache_info()
    return res, after.hits + after.misses - before.hits - before.misses


class TestColumnSweep:
    """A whole-domain integral of a density with a column reads that column
    over cached DE side tables, to the per-node path's result bit for bit."""

    # (1, 3) and (1, 1) have theta-chart exponents of 0; (0.05, 2) converges
    # past the table levels in the reciprocal chart
    SHAPES = [(0.5, 0.5), (1.05, 2.05), (2.3, 4.1), (0.1, 20.0), (30.0, 1e-3), (1e-3, 1e-3),
              (1.0, 3.0), (1.0, 1.0), (0.05, 2.0)]

    @staticmethod
    def per_node(d):
        """``d`` with its ``value_offset`` wrapped in a plain function."""
        f = d.value_offset
        return dataclasses.replace(d, value_offset=lambda x, xc: f(x, xc))

    @pytest.mark.parametrize("name", sorted(CHARTS))
    def test_side_tables_hold_the_sweep_nodes(self, name):
        # each table is the readable prefix of its side's nodes, each row its node and
        # weight; no node past it is readable, and it stops where its _table stops
        chart = CHARTS[name]
        row = quadrature._node_map(chart.domain)[0]
        ref = reference_node_map(chart.domain)
        for level in range(quadrature._TABLE_LEVELS + 1):
            for sign in (+1, -1):
                s, weights, trunc_from = quadrature._side_samples(BERNOULLI, chart, level, sign)
                nodes = [ref(sign * k * 0.5 ** level) for k in side_ks(level, sign)]
                n = len(weights)
                assert len(s.xs) == len(s.xcs) == n
                assert [bits(*node) for node in nodes[:n]] == list(map(bits, s.xs, s.xcs, weights))
                assert all(map(readable, nodes[:n]))
                assert not any(map(readable, nodes[n:]))
                assert trunc_from == quadrature._table(row, level, sign)[1]

    def test_a_side_with_no_readable_node_reads_nothing(self):
        # on (0, 5e-324) half the width rounds to 0.0, so every weight is 0.0 and
        # each side table is empty: the column sweep reads no row, as the per-node one
        tiny_width = 5e-324
        tiny = Chart("tiny", Interval(0.0, tiny_width), BERNOULLI.canonical_domain,
                     lambda x, xc: (x / tiny_width, xc / tiny_width),
                     lambda t, co: (t * tiny_width, co * tiny_width),
                     lambda x, xc: 1.0 / tiny_width)
        d = pushforward(beta_chart_density(BetaParams(2.0, 3.0)), tiny)
        res, reads = side_reads(lambda: integrate_chart(d.value_offset, tiny.domain))
        assert reads > 0
        assert repr(res) == repr(integrate_chart(self.per_node(d).value_offset, tiny.domain))
        assert repr(res) == repr(QuadratureResult(0.0, math.inf, False, 0, 0))
        with pytest.raises(QuadratureConvergenceError):
            normalization_check(d)

    @pytest.mark.parametrize("a,b", SHAPES)
    def test_results_are_the_per_node_paths(self, a, b):
        rho = beta_chart_density(BetaParams(a, b))
        p = beta_intrinsic_density(BetaParams(a, b))
        for chart in CHARTS.values():
            for d in (pushforward(rho, chart), chart_from_intrinsic(p, chart)):
                res, reads = side_reads(lambda: integrate_chart(d.value_offset, chart.domain))
                assert reads > 0
                want = integrate_chart(self.per_node(d).value_offset, chart.domain)
                assert repr(res) == repr(want)
        for d in (p, intrinsic_from_chart(rho)):
            slow = self.per_node(d)
            integrals = [lambda d: integrate_manifold(d.value_offset, d.model)]
            integrals += [lambda d, k=k: expectation(d, lambda t: t ** k) for k in (1, 2, -1)]
            # f divides by zero where theta rounds onto 1, and overflows near 0
            integrals += [lambda d: expectation(d, lambda t: 1 / (1 - t)),
                          lambda d: expectation(d, lambda t: math.exp(1 / t))]
            for integral in integrals:
                res, reads = side_reads(lambda: integral(d))
                assert reads > 0
                assert repr(res) == repr(integral(slow))

    @pytest.mark.parametrize("a,b,k", [(2.3, 4.1, 1), (0.5, 0.5, -1)])
    def test_expectation_calls_f_at_the_same_thetas(self, a, b, k):
        # E[theta], and E[1/theta], which diverges under Beta(0.5, 0.5)
        p = intrinsic_from_chart(beta_chart_density(BetaParams(a, b)))
        seen, results = [], []
        for d in (p, self.per_node(p)):
            thetas = []
            results.append(repr(expectation(d, lambda t: thetas.append(t) or t ** k)))
            seen.append(bits(*thetas))
        assert seen[0] == seen[1]
        assert results[0] == results[1]
        assert ("converged=False" in results[0]) == (k < 0)


def reference_de_integrate(call, interval, column=None, tables=None, f=None):
    """``quadrature._de_integrate`` as it was when each row paid a count, an
    ``isfinite`` call, two ``abs`` calls and a 0.0 term at a skipped node, and
    one ``call`` read both sides; kept as the reference for its results."""
    q = quadrature
    row, w_scale, off_scale, sides = q._node_map(interval)
    isfinite = math.isfinite
    evaluations = skipped = 0

    h, value = 2.0, 0.0
    for level in range(q._MAX_LEVEL + 1):
        h *= 0.5
        term_tol = 0.05 * q._ABS_TOL / h
        odd = 0.0
        for sign in (+1, -1):
            total = 0.0
            small = 0
            last = prev = math.inf
            if tables and level <= q._TABLE_LEVELS:
                s, weights, trunc_from = q._side_samples(*tables, level, sign)
                thetas, cos = s.thetas, s.cos
                for i, (w, v) in enumerate(zip(weights, column(s))):
                    if f is not None:
                        try:
                            v = math.nan if cos[i] == 0.0 else f(thetas[i]) * v
                        except (OverflowError, ZeroDivisionError):
                            v = math.inf
                    evaluations += 1
                    term = 0.0
                    if isfinite(v):
                        term = w * v
                        prev, last = last, abs(term)
                    else:
                        skipped += 1
                    total += term
                    if abs(term) <= term_tol:
                        small += 1
                        if small >= 3 and i >= trunc_from:
                            break
                    else:
                        small = 0
            else:
                rows, trunc_from = q._table(row, level, sign)
                anchor, sx, sxc = sides[sign]
                for i, (p1, p2, m, div) in enumerate(rows):
                    off = off_scale / m if div else off_scale * m
                    x, xc, w = anchor + sx * off, sxc * off, p1 * w_scale * p2
                    if not (w > 0.0 and isfinite(x) and xc != 0.0):
                        break
                    try:
                        v = call(x, xc)
                    except (OverflowError, ZeroDivisionError):
                        v = math.inf
                    evaluations += 1
                    term = 0.0
                    if isfinite(v):
                        term = w * v
                        prev, last = last, abs(term)
                    else:
                        skipped += 1
                    total += term
                    if abs(term) <= term_tol:
                        small += 1
                        if small >= 3 and i >= trunc_from:
                            break
                    else:
                        small = 0
            if level >= 2 and term_tol < last and prev < last:
                return QuadratureResult(value, math.inf, False, evaluations, skipped)
            odd += total
        if level >= 2 and skipped == evaluations:
            return QuadratureResult(value, math.inf, False, evaluations, skipped)
        new_value = 0.5 * value + h * odd
        err = abs(new_value - value)
        value = new_value
        if level >= 2 and err <= max(q._ABS_TOL, q._REL_TOL * abs(value)):
            return QuadratureResult(value, err, True, evaluations, skipped)

    return QuadratureResult(value, err, False, evaluations, skipped)


def outcome(sweep, *args):
    """The ``repr`` of ``sweep(*args)``, or of the error it raised."""
    try:
        return repr(sweep(*args))
    except Exception as exc:    # noqa: BLE001 - the error is the outcome compared
        return f"raises {exc!r}"


def one_reader(call):
    """One ``(x, xc)`` reader for both sides from a sweep's ``call``. A dict of
    one reader a side reads with side +1's at the negative offsets of a finite
    interval and with side -1's at the positive ones; a half line's two sides
    share one reader."""
    if type(call) is not dict or call[1] is call[-1]:
        return call[1] if type(call) is dict else call
    return lambda x, xc: call[1 if xc < 0 else -1](x, xc)


class TestSweepRowBody:
    """Each sweep returns, by ``repr``, what the reference sweep returns on the
    same integrand, and each region integral what one check a node gives."""

    INTERVALS = {"unit": Interval(0.0, 1.0), "shifted": Interval(-2.5, 7.25), "half": Interval(1.0, math.inf),
                 "mirrored": Interval(-math.inf, 2.0), "line": Interval(-math.inf, math.inf),
                 # inf weights, where a value of 0 makes a nan term
                 "inf-weights": Interval(0.0, 1e308),
                 # sides ending at a node whose x overflows or whose offset is 0
                 "far": Interval(1e300, math.inf), "narrow": Interval(1.0, 1.0 + 2.0 ** -52)}
    INTEGRANDS = {
        "int": lambda x, xc: 1, "int-zero": lambda x, xc: 0, "huge-int": lambda x, xc: 10 ** 400,
        "minus-zero": lambda x, xc: -0.0, "nan": lambda x, xc: math.nan,
        "inf": lambda x, xc: math.inf, "minus-inf": lambda x, xc: -math.inf,
        # w * v overflows wherever w > 1 (at the middle nodes of shifted)
        "overflow": lambda x, xc: 1.7e308,
        "lorentz": lambda x, xc: 1.0 / (1.0 + x * x), "gauss": lambda x, xc: math.exp(-x * x),
        "numpy": lambda x, xc: numpy.float64(1.0) / (1.0 + x * x),
        "reciprocal": lambda x, xc: 1.0 / x, "log-abs": lambda x, xc: math.log(abs(x)),
        "mixed": lambda x, xc: (math.nan if 0.25 < x < 0.5 else -0.0 if x > 0.75
                               else math.inf if x < 1e-4 else 3),
        "eq2": lambda x, xc: eq2_integrand(x, xc) if 0.0 < x < 1.0 else math.nan,
    }

    @pytest.mark.parametrize("integrand", sorted(INTEGRANDS))
    @pytest.mark.parametrize("interval", sorted(INTERVALS))
    def test_raw_sweeps_are_the_reference(self, interval, integrand):
        interval, call = self.INTERVALS[interval], self.INTEGRANDS[integrand]
        assert (outcome(quadrature._de_integrate, call, interval)
                == outcome(reference_de_integrate, call, interval))

    def test_column_and_reader_sweeps_are_the_reference(self, monkeypatch):
        # every sweep the public calls make, over cached side tables or once a node,
        # with expectation's guard nodes, an f that overflows or divides by 0, and
        # regions read by one reader a side
        sweep, compared = quadrature._de_integrate, []

        def both(call, interval, column=None, tables=None, f=None):
            res = sweep(call, interval, column, tables, f)
            want = reference_de_integrate(one_reader(call), interval, column, tables, f)
            assert repr(res) == repr(want)
            compared.append(tables is not None)
            return res

        monkeypatch.setattr(quadrature, "_de_integrate", both)
        for a, b in [(0.5, 0.5), (2.3, 4.1), (1e-3, 1e-3), (1.0, 3.0), (0.05, 2.0)]:
            rho = beta_chart_density(BetaParams(a, b))
            p = beta_intrinsic_density(BetaParams(a, b))
            for chart in CHARTS.values():
                integrate_chart(pushforward(rho, chart).value_offset, chart.domain)
            for d in (p, intrinsic_from_chart(rho)):
                integrate_manifold(d.value_offset, BERNOULLI)
                for f in (lambda t: t, lambda t: 1 / t, lambda t: 1 / (1 - t),
                          lambda t: math.exp(1 / t), lambda t: 10 ** 400 if t < 0.5 else 1):
                    outcome(expectation, d, f)
                for lo, hi in [(0.0, 0.37), (0.3, 1.0), (0.2, 0.7), (1e-300, 0.5)]:
                    interval_probability(d, Interval(lo, hi))
        for name in ("bernoulli", "poisson", "exponential"):
            volume_result(get_model(name))
            volume_result(get_model(name), Interval(1.0 if name != "bernoulli" else 0.5,
                                                    math.inf if name != "bernoulli" else 1.0))
        assert True in compared and False in compared

    @staticmethod
    def checked_reader(ev, model):
        """The region reader that checks every node's arc-length offset."""
        canon, s_dom = model.arclength.canonical_offset, model.arclength.domain
        return lambda s, sc: ev.core(*canon(s, verify_offset(s_dom, s, sc)))

    @pytest.mark.parametrize("lo,hi", [
        (0.0, 0.3), (0.0, 0.37), (0.0, 1e-3), (0.6, 1.0), (0.3, 1.0), (1e-27, 1.0), (1e-28, 1.0),
        (0.2, 0.7), (1e-300, 0.5), (0.5, 1.0 - 1e-16), (0.0, 1.0 - 1e-16), (1e-300, 1e-299),
        # s_lo ~ 2e-15, within the check's tolerance of s = 0 at every node
        (1e-30, 0.5), (1e-30, 1.0)])
    def test_region_readers_are_the_checked_reader(self, lo, hi):
        region = Interval(lo, hi)
        s_interval = Interval(*map(BERNOULLI.arc_length_from_origin, (lo, hi)))
        for a, b in [(2.5, 4.0), (0.3, 4.0), (1.05, 2.05), (1e-3, 0.5), (300.0, 60.0)]:
            for d in (beta_intrinsic_density(BetaParams(a, b)),
                      intrinsic_from_chart(beta_chart_density(BetaParams(a, b)))):
                want = reference_de_integrate(self.checked_reader(d.value_offset, BERNOULLI),
                                              s_interval)
                assert repr(interval_probability(d, region)) == repr(want), (a, b)

    @pytest.mark.parametrize("name", ["poisson", "exponential"])
    @pytest.mark.parametrize("lo,hi", [(1.0, math.inf), (1e-300, math.inf), (1e10, math.inf),
                                       (0.0, 4.0), (0.5, 2.0), (1e-300, 1.0)])
    def test_rate_family_regions_are_the_checked_reader(self, name, lo, hi):
        model = get_model(name)
        region = Interval(lo, hi)
        s_interval = Interval(*map(model.arc_length_from_origin, (lo, hi)))
        for ev in (Evaluator(lambda lam, co: math.exp(-co), model.canonical_domain),
                   Evaluator(lambda lam, co: 1.0, model.canonical_domain)):
            want = reference_de_integrate(self.checked_reader(ev, model), s_interval)
            assert repr(integrate_manifold(ev, model, region)) == repr(want)
