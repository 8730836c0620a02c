"""Models, charts, metric transformation, arc length, distance, volume."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fishergeom
from fishergeom import density, manifold
from fishergeom import (
    ChartModelMismatchError,
    DomainError,
    Interval,
    NonFiniteVolumeError,
    QuadratureConvergenceError,
    arclength_chart,
    arcsin_chart,
    bernoulli_model,
    charts_for,
    exponential_model,
    fisher_rao_distance,
    get_chart,
    get_model,
    identity_chart,
    interior_grid,
    metric_in_chart,
    poisson_model,
    reciprocal_chart,
    volume,
    volume_result,
)

BERNOULLI = bernoulli_model()
CHARTS = charts_for(BERNOULLI)


def central_diff(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


class TestInterval:
    def test_order_enforced(self):
        with pytest.raises(ValueError):
            Interval(1.0, 0.0)

    def test_membership(self):
        iv = Interval(0.0, 1.0)
        assert not iv.contains_interior(0.0)
        assert iv.contains_interior(0.5)
        assert iv.in_closure(0.0) and iv.in_closure(1.0)


class TestInteriorGrid:
    @pytest.mark.parametrize("n", [2, 3, 64, 1001])
    def test_unbounded_below(self, n):
        xs = interior_grid(Interval(-math.inf, 2.0), n)
        assert len(xs) == n
        assert all(map(math.isfinite, xs))
        assert all(u < v for u, v in zip(xs, xs[1:]))
        assert xs[-1] < 2.0


def reference_naive_offset(interval, x):
    """``manifold.naive_offset`` as it was first written, kept as the reference."""
    lo_off = x - interval.lo if math.isfinite(interval.lo) else math.inf
    hi_off = interval.hi - x if math.isfinite(interval.hi) else math.inf
    if math.isinf(lo_off) and math.isinf(hi_off):
        return math.nan
    return lo_off if lo_off <= hi_off else -hi_off


def reference_accepts(interval, x, xc):
    """Whether the reference ``verify_offset`` keeps ``xc``."""
    if math.isfinite(xc):
        tol = 4e-15 * max(1.0, abs(x))
        if xc > 0 and math.isfinite(interval.lo):
            return abs((interval.lo + xc) - x) <= tol
        if xc < 0 and math.isfinite(interval.hi):
            return abs((interval.hi + xc) - x) <= tol
    return False


def reference_verify_offset(interval, x, xc):
    """``manifold.verify_offset`` as it was first written, kept as the reference."""
    return xc if reference_accepts(interval, x, xc) else reference_naive_offset(interval, x)


class TestOffsetChecks:
    """``verify_offset`` and ``naive_offset`` return, by ``repr``, what the
    reference bodies return: at signed zeros, subnormals, nan and infinities,
    at infinite ends, and on both sides of the tolerance boundary."""

    INTERVALS = [Interval(0.0, 1.0), Interval(0.0, math.pi), Interval(1.0, math.inf),
                 Interval(-math.inf, 0.0), Interval(-math.inf, math.inf)]
    SPECIALS = [0.0, -0.0, 5e-324, -5e-324, math.nan, math.inf, -math.inf]

    @classmethod
    def points(cls, interval):
        pts = [*cls.SPECIALS, 0.3, -0.7, 1.0, 1.5, math.pi, 1e10, -1e300, 1.7976931348623157e308]
        for end in (interval.lo, interval.hi):
            if math.isfinite(end):
                pts += [end, math.nextafter(end, math.inf), math.nextafter(end, -math.inf)]
        return pts

    @classmethod
    def offsets(cls, interval, x):
        xcs = [*cls.SPECIALS, 1e-20, -1e-20, 0.5, -0.5, 1e300, -1e300]
        for end in (interval.lo, interval.hi):
            if math.isfinite(end) and math.isfinite(x):
                xc = x - end
                xcs += [xc, -xc, math.nextafter(xc, math.inf), math.nextafter(xc, -math.inf)]
        return xcs

    @staticmethod
    def last_accepted(interval, x, inside, outside):
        """The adjacent doubles between ``inside`` (kept) and ``outside`` (not)."""
        while math.nextafter(inside, outside) != outside:
            mid = 0.5 * inside + 0.5 * outside
            if mid in (inside, outside):
                mid = math.nextafter(inside, outside)
            if reference_accepts(interval, x, mid):
                inside = mid
            else:
                outside = mid
        return inside, outside

    @classmethod
    def boundary_cases(cls):
        """``(interval, x, xc)`` exactly at the last offset the tolerance keeps
        and one ulp past it, on each side of each finite anchor."""
        xs = {Interval(0.0, 1.0): [0.0, -0.0, 5e-324, 1e-20, 0.3, 0.999, 1.0, 1.5],
              Interval(0.0, math.pi): [0.0, 1.0, 2.0, 3.0, math.pi],
              Interval(1.0, math.inf): [1.0, 1.5, 2.0 ** 30, 1e10, 1e300],
              Interval(-math.inf, 0.0): [-0.0, -5e-324, -1.0, -1e10, -1e300]}
        cases = []
        for interval, points in xs.items():
            for x in points:
                for end, sign in ((interval.lo, 1.0), (interval.hi, -1.0)):
                    if not math.isfinite(end):
                        continue
                    tol = 4e-15 * max(1.0, abs(x))
                    inside = x - end
                    if not inside * sign > 0.0:
                        inside = math.copysign(5e-324, sign)
                    if not reference_accepts(interval, x, inside):
                        continue
                    outsides = [inside + sign * 8.0 * tol]
                    if inside * sign > 8.0 * tol:
                        outsides.append(inside - sign * 8.0 * tol)
                    for outside in outsides:
                        assert not reference_accepts(interval, x, outside)
                        kept, past = cls.last_accepted(interval, x, inside, outside)
                        cases += [(interval, x, kept, end), (interval, x, past, end)]
        return cases

    def test_naive_offset_is_the_reference(self):
        for interval in self.INTERVALS:
            for x in self.points(interval):
                assert repr(manifold.naive_offset(interval, x)) == repr(
                    reference_naive_offset(interval, x)), (interval, x)

    def test_verify_offset_is_the_reference(self):
        for interval in self.INTERVALS:
            for x in self.points(interval):
                for xc in self.offsets(interval, x):
                    assert repr(manifold.verify_offset(interval, x, xc)) == repr(
                        reference_verify_offset(interval, x, xc)), (interval, x, xc)

    def test_verify_offset_at_the_tolerance(self):
        cases = self.boundary_cases()
        at = past = 0
        for interval, x, xc, end in cases:
            assert repr(manifold.verify_offset(interval, x, xc)) == repr(
                reference_verify_offset(interval, x, xc)), (interval, x, xc)
            diff, tol = abs((end + xc) - x), 4e-15 * max(1.0, abs(x))
            at += diff == tol
            past += tol < diff
        # each boundary gives a kept and a dropped offset; some sit exactly on the tolerance
        assert past == len(cases) // 2 > 20
        assert at >= 2


class TestModels:
    def test_bernoulli_metric_value(self):
        assert BERNOULLI.fisher_metric(0.5) == pytest.approx(4.0, abs=1e-15)

    def test_bernoulli_arc_length_total(self):
        assert BERNOULLI.arc_length_from_origin(1.0) == pytest.approx(math.pi, abs=1e-15)

    def test_bernoulli_arc_length_midpoint(self):
        # symmetric metric under theta <-> 1-theta halves the arc
        assert BERNOULLI.arc_length_from_origin(0.5) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_metric_positive_on_grid(self):
        for model in (BERNOULLI, poisson_model(), exponential_model()):
            for theta in interior_grid(model.canonical_domain, 1000):
                assert model.fisher_metric(theta) > 0.0

    def test_arc_length_strictly_increasing(self):
        for model in (BERNOULLI, poisson_model(), exponential_model()):
            grid = interior_grid(model.canonical_domain, 200)
            ss = [model.arc_length_from_origin(t) for t in grid]
            assert all(a < b for a, b in zip(ss, ss[1:]))

    def test_get_model_unknown(self):
        with pytest.raises(KeyError):
            get_model("cauchy")

    def test_poisson_metric_against_score_variance(self):
        # Fisher information as the variance of the finite-difference score,
        # summed over the probability mass function
        for lam in (0.3, 1.0, 4.5):
            def log_pmf(k, rate):
                return k * math.log(rate) - rate - math.lgamma(k + 1)

            h = 1e-5 * lam
            info = 0.0
            for k in range(0, 200):
                pmf = math.exp(log_pmf(k, lam))
                score = (log_pmf(k, lam + h) - log_pmf(k, lam - h)) / (2 * h)
                info += pmf * score * score
            assert poisson_model().fisher_metric(lam) == pytest.approx(info, rel=1e-6)

    def test_exponential_metric_against_score_variance(self):
        from scipy.integrate import quad

        for lam in (0.5, 1.0, 3.0):
            def log_pdf(x, rate):
                return math.log(rate) - rate * x

            h = 1e-6 * lam

            def integrand(x):
                score = (log_pdf(x, lam + h) - log_pdf(x, lam - h)) / (2 * h)
                return lam * math.exp(-lam * x) * score * score

            info, _ = quad(integrand, 0, math.inf)
            assert exponential_model().fisher_metric(lam) == pytest.approx(info, rel=1e-6)


def moderate_grid(interval, n):
    """Interior grid with a 1e-3 relative margin.

    The plain chart maps lose precision within ~1e-6 of a quadratic tangency
    (theta = sin y near y = pi/2 flattens: information loss in the double,
    not in the map); the hairline is covered by the offset-aware round trip
    below.
    """
    lo, hi = interval.lo, interval.hi
    if math.isinf(hi):
        return interior_grid(interval, n)
    d = (hi - lo) * 1e-3
    return [lo + d + i * (hi - lo - 2 * d) / (n - 1) for i in range(n)]


MODEL_NAMES = ("bernoulli", "poisson", "exponential")


class TestModelsAsData:
    """Shipped models and their charts are built once and carry their facts."""

    @pytest.mark.parametrize("name,factory", zip(MODEL_NAMES, (bernoulli_model, poisson_model,
                                                              exponential_model)))
    def test_model_built_once(self, name, factory):
        assert get_model(name) is get_model(name) is factory()

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_charts_built_once(self, name):
        model = get_model(name)
        charts = charts_for(model)
        for chart in charts:
            assert charts_for(model)[chart] is charts[chart]
        assert arclength_chart(model) is charts["arclength"]
        assert identity_chart(model) is charts["theta"]

    def test_chart_factories_return_the_models_charts(self):
        # a chart built anew would compare unequal and miss the sample table
        assert arcsin_chart() is charts_for(BERNOULLI)["arcsin"]
        assert reciprocal_chart() is charts_for(BERNOULLI)["reciprocal"]

    def test_chart_sets(self):
        assert list(charts_for(BERNOULLI)) == ["theta", "arclength", "arcsin", "reciprocal"]
        for name in ("poisson", "exponential"):
            assert list(charts_for(get_model(name))) == ["theta", "arclength"]

    def test_charts_for_returns_a_copy(self):
        charts = charts_for(BERNOULLI)
        del charts["arcsin"]
        assert "arcsin" in charts_for(BERNOULLI)

    def test_identity_chart_name_given_or_defaulted(self):
        # one chart, named theta, so a search or curve in it hits the same cache entry
        for model in (BERNOULLI, get_model("poisson")):
            assert identity_chart(model) is identity_chart(model)
            assert identity_chart(model) is charts_for(model)["theta"]
            assert identity_chart(model).name == "theta"


class TestCharts:
    @pytest.mark.parametrize("name", ["theta", "arcsin", "reciprocal", "arclength"])
    def test_round_trip(self, name):
        chart = CHARTS[name]
        for x in moderate_grid(chart.domain, 257):
            back = chart.from_canonical(chart.to_canonical(x))
            assert abs(back - x) <= 1e-12 * max(1.0, abs(x))

    @pytest.mark.parametrize("name", ["theta", "arcsin", "reciprocal", "arclength"])
    def test_offset_round_trip_exact_to_the_edge(self, name):
        from fishergeom.manifold import chart_canonical_offset, chart_from_canonical_offset, naive_offset

        chart = CHARTS[name]
        for x in interior_grid(chart.domain, 257):
            xc = naive_offset(chart.domain, x)
            theta, co = chart_canonical_offset(chart, x, xc)
            back, back_c = chart_from_canonical_offset(chart, theta, co)
            assert abs(back - x) <= 1e-12 * max(1.0, abs(x))

    @pytest.mark.parametrize("name", ["theta", "arcsin", "reciprocal", "arclength"])
    def test_jacobian_matches_finite_differences(self, name):
        chart = CHARTS[name]
        for x in interior_grid(chart.domain, 101)[2:-2]:
            h = 1e-6 * max(1.0, abs(x))
            fd = (chart.to_canonical(x + h) - chart.to_canonical(x - h)) / (2 * h)
            assert chart.d_canonical(x) == pytest.approx(fd, rel=1e-5)

    @pytest.mark.parametrize("name", ["theta", "arcsin", "reciprocal", "arclength"])
    def test_jacobian_nonzero_in_interior(self, name):
        chart = CHARTS[name]
        for x in interior_grid(chart.domain, 500):
            assert chart.d_canonical(x) != 0.0

    def test_offset_companions_match_plain_maps(self):
        # every chart of every model, at the offsets from the lower and the
        # nearer end; the round trip is exact from the nearer end (from the
        # lower one it is as conditioned as the plain maps, see test_round_trip)
        from fishergeom.manifold import naive_offset

        for model in map(get_model, MODEL_NAMES):
            for chart in charts_for(model).values():
                dom = chart.domain
                for x in interior_grid(dom, 63):
                    plain = chart.to_canonical(x)
                    if not model.canonical_domain.contains_interior(plain):
                        continue    # exp under- or overflows far out on the real line
                    near = naive_offset(dom, x)
                    for xc in (x - dom.lo, near):
                        theta, _ = chart.canonical_offset(x, xc)
                        assert theta == pytest.approx(plain, rel=1e-12, abs=0.0), (chart, x, xc)
                    back, _ = chart.from_canonical_offset(*chart.canonical_offset(x, near))
                    assert abs(back - x) <= 1e-14 * max(1.0, abs(x)), (chart, x)

    def test_arcsin_inverse_far_from_its_anchor(self):
        # a point near theta = 0 given by its offset from theta = 1, as the
        # reciprocal chart produces: yc = -acos(theta) to full precision
        chart = CHARTS["arcsin"]
        for k in range(1, 61):
            theta = 2.0 ** -k
            y, yc = chart.from_canonical_offset(theta, -(1.0 - theta))
            assert yc == pytest.approx(-math.acos(theta), rel=1e-15, abs=0.0), k
            assert chart.domain.in_closure(y), k

    def test_get_chart_unknown(self):
        with pytest.raises(KeyError):
            get_chart(BERNOULLI, "polar")


class TestMetricInChart:
    def test_identity_chart_is_plain_metric(self):
        assert metric_in_chart(BERNOULLI, CHARTS["theta"], 0.5) == pytest.approx(4.0, abs=1e-15)

    def test_arcsin_chart_value(self):
        # oracle: finite-difference Jacobian through the chart map
        y = math.pi / 6
        chart = CHARTS["arcsin"]
        fd = central_diff(chart.to_canonical, y)
        oracle = BERNOULLI.fisher_metric(math.sin(y)) * fd * fd
        got = metric_in_chart(BERNOULLI, chart, y)
        assert got == pytest.approx(oracle, rel=1e-9)
        assert got == pytest.approx(4.0 * math.cos(y) ** 2, rel=1e-14)
        assert got == pytest.approx(3.0, rel=1e-14)

    def test_reciprocal_chart_value(self):
        y = 2.0
        chart = CHARTS["reciprocal"]
        fd = central_diff(chart.to_canonical, y)
        oracle = BERNOULLI.fisher_metric(0.5) * fd * fd
        got = metric_in_chart(BERNOULLI, chart, y)
        assert got == pytest.approx(oracle, rel=1e-9)
        assert got == pytest.approx(0.25, rel=1e-14)

    # G_chart without cancellation: (1 + sin y)/sin y in arcsin, 1/(y^2 (y - 1)) in reciprocal
    CLOSED_FORMS = {
        "theta": lambda x: 1.0 / (x * (1.0 - x)),
        "arcsin": lambda y: 1.0 + 1.0 / math.sin(y),
        "reciprocal": lambda y: 1.0 / (y * y * (y - 1.0)),
        "arclength": lambda s: 1.0,
    }

    @pytest.mark.parametrize("name", ["theta", "arcsin", "reciprocal", "arclength"])
    def test_closed_form_on_the_full_grid(self, name):
        # the grid's ends sit 1e-6 of the width (reciprocal: y ~ 1e6) from the edges
        chart, closed_form = CHARTS[name], self.CLOSED_FORMS[name]
        for x in interior_grid(chart.domain, 2001):
            assert metric_in_chart(BERNOULLI, chart, x) == pytest.approx(
                closed_form(x), rel=1e-14, abs=0.0), x

    @pytest.mark.parametrize("model_name,s", [("exponential", -380.0), ("exponential", -700.0),
                                              ("exponential", 400.0), ("exponential", 700.0),
                                              ("poisson", 1e-160)])
    def test_unrepresentable_metric_rejected(self, model_name, s):
        # the canonical image is interior, but its metric or Jacobian over- or
        # underflows: no raw ZeroDivisionError, 0, inf or nan
        model = get_model(model_name)
        with pytest.raises(DomainError):
            metric_in_chart(model, get_chart(model, "arclength"), s)

    @pytest.mark.parametrize("model_name,s", [("exponential", -300.0), ("poisson", 1e-150)])
    def test_arclength_metric_far_out(self, model_name, s):
        model = get_model(model_name)
        chart = get_chart(model, "arclength")
        assert metric_in_chart(model, chart, s) == pytest.approx(1.0, rel=1e-15, abs=0.0)

    def test_arclength_chart_metric_is_one(self):
        chart = CHARTS["arclength"]
        for s in interior_grid(chart.domain, 101):
            assert metric_in_chart(BERNOULLI, chart, s) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("name", ["theta", "arcsin", "reciprocal", "arclength"])
    def test_positive_on_grid(self, name):
        chart = CHARTS[name]
        for x in interior_grid(chart.domain, 1000):
            assert metric_in_chart(BERNOULLI, chart, x) > 0.0

    def test_positive_on_grid_other_models(self):
        from fishergeom import charts_for

        for model in (poisson_model(), exponential_model()):
            for chart in charts_for(model).values():
                for x in interior_grid(chart.domain, 1000):
                    # far out on an unbounded axis the canonical image can
                    # underflow onto the boundary; those points are outside
                    # the representable interior
                    if not model.canonical_domain.contains_interior(chart.to_canonical(x)):
                        continue
                    assert metric_in_chart(model, chart, x) > 0.0

    def test_boundary_evaluation_rejected(self):
        with pytest.raises(DomainError):
            metric_in_chart(BERNOULLI, CHARTS["theta"], 0.0)
        with pytest.raises(DomainError):
            metric_in_chart(BERNOULLI, CHARTS["theta"], 1.0)

    def test_chart_model_mismatch_rejected(self):
        with pytest.raises(DomainError):
            metric_in_chart(poisson_model(), CHARTS["arcsin"], 0.3)

    def test_chart_model_mismatch_is_the_one_mismatch_error(self):
        # the check densities and the mode search make, in the module that owns charts
        with pytest.raises(ChartModelMismatchError,
                           match="^chart 'arcsin' is not a chart of model 'poisson'$"):
            metric_in_chart(poisson_model(), CHARTS["arcsin"], 0.3)
        assert issubclass(ChartModelMismatchError, DomainError)
        assert (fishergeom.ChartModelMismatchError is density.ChartModelMismatchError
                is manifold.ChartModelMismatchError)

    def test_a_model_of_the_same_name_is_another_model(self):
        # a chart belongs to the model whose canonical domain it maps into,
        # so a Poisson model named 'bernoulli' does not take the arcsin chart
        impostor = dataclasses.replace(poisson_model(), name="bernoulli")
        with pytest.raises(ChartModelMismatchError,
                           match="^chart 'arcsin' is not a chart of model 'bernoulli'$"):
            metric_in_chart(impostor, arcsin_chart(), 0.3)

    def test_transformation_consistency_between_charts(self):
        # invariant line element: G_A dx_A^2 == G_B dx_B^2, chained through
        # the canonical chart
        names = ["theta", "arcsin", "reciprocal", "arclength"]
        for theta in interior_grid(BERNOULLI.canonical_domain, 41):
            for na in names:
                for nb in names:
                    ca, cb = CHARTS[na], CHARTS[nb]
                    xa, xb = ca.from_canonical(theta), cb.from_canonical(theta)
                    ga = metric_in_chart(BERNOULLI, ca, xa)
                    gb = metric_in_chart(BERNOULLI, cb, xb)
                    # dx_A/dx_B = (dtheta/dx_B) / (dtheta/dx_A)
                    dab = cb.d_canonical(xb) / ca.d_canonical(xa)
                    assert ga * dab * dab == pytest.approx(gb, rel=1e-9)


class TestFisherRaoDistance:
    def test_full_arc(self):
        assert fisher_rao_distance(BERNOULLI, 0.0, 1.0) == pytest.approx(math.pi, abs=1e-15)

    def test_identity_of_indiscernibles(self):
        assert fisher_rao_distance(BERNOULLI, 0.3, 0.3) == 0.0
        # coincident ends an infinite arc length away are 0 apart, not inf - inf
        assert fisher_rao_distance(poisson_model(), math.inf, math.inf) == 0.0
        assert fisher_rao_distance(exponential_model(), 0.0, 0.0) == 0.0
        assert fisher_rao_distance(exponential_model(), math.inf, math.inf) == 0.0
        assert fisher_rao_distance(poisson_model(), 1.0, math.inf) == math.inf
        assert fisher_rao_distance(exponential_model(), 1.0, math.inf) == math.inf

    def test_center_pairs_closer_than_edge_pairs(self):
        d_mid = fisher_rao_distance(BERNOULLI, 0.5, 0.6)
        d_edge = fisher_rao_distance(BERNOULLI, 0.0, 0.1)
        # closed form: 2 asin(sqrt(.)) differences
        assert d_mid == pytest.approx(2 * (math.asin(math.sqrt(0.6)) - math.asin(math.sqrt(0.5))), abs=1e-14)
        assert d_edge == pytest.approx(2 * math.asin(math.sqrt(0.1)), abs=1e-14)
        assert d_mid < d_edge
        assert d_mid == pytest.approx(0.2014, abs=5e-5)
        assert d_edge == pytest.approx(0.6435, abs=5e-5)

    def test_out_of_domain_rejected(self):
        with pytest.raises(DomainError):
            fisher_rao_distance(BERNOULLI, -0.1, 0.5)

    @given(
        a=st.floats(min_value=0.0, max_value=1.0),
        b=st.floats(min_value=0.0, max_value=1.0),
        c=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_metric_axioms_and_additivity(self, a, b, c):
        d_ab = fisher_rao_distance(BERNOULLI, a, b)
        d_ba = fisher_rao_distance(BERNOULLI, b, a)
        assert d_ab >= 0.0
        assert d_ab == d_ba
        assert fisher_rao_distance(BERNOULLI, a, a) == 0.0
        lo, mid, hi = sorted((a, b, c))
        left = fisher_rao_distance(BERNOULLI, lo, mid) + fisher_rao_distance(BERNOULLI, mid, hi)
        assert left == pytest.approx(fisher_rao_distance(BERNOULLI, lo, hi), abs=1e-10)


class TestVolume:
    def test_bernoulli_total(self):
        assert volume(BERNOULLI) == pytest.approx(math.pi, abs=1e-9)

    def test_bernoulli_half(self):
        assert volume(BERNOULLI, Interval(0.0, 0.5)) == pytest.approx(math.pi / 2, abs=1e-10)

    def test_bernoulli_restricted(self):
        # closed-form antiderivative of sqrt(G): 2 asin(sqrt(theta))
        expected = 2.0 * math.asin(math.sqrt(0.1))
        assert volume(BERNOULLI, Interval(0.0, 0.1)) == pytest.approx(expected, abs=1e-10)

    def test_poisson_volume_diverges(self):
        with pytest.raises(NonFiniteVolumeError):
            volume(poisson_model())

    def test_exponential_volume_diverges(self):
        with pytest.raises(NonFiniteVolumeError):
            volume(exponential_model())

    @pytest.mark.parametrize("model", [poisson_model(), exponential_model()], ids=lambda m: m.name)
    def test_divergent_volume_error_carries_the_result(self, model):
        with pytest.raises(NonFiniteVolumeError) as info:
            volume(model)
        assert isinstance(info.value, QuadratureConvergenceError)
        assert info.value.result.converged is False
        assert info.value.result.evaluations == 41
        assert info.value.result == volume_result(model)

    def test_poisson_restricted_volume_finite(self):
        # integral of lam**-0.5 over (0, 4] = 2 sqrt(4) = 4
        assert volume(poisson_model(), Interval(0.0, 4.0)) == pytest.approx(4.0, abs=1e-9)
