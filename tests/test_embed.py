"""Quarter-circle embedding and density-curve sampling."""

import dataclasses
import math

import numpy as np
import pytest

from fishergeom import (
    BetaParams,
    ChartDensity,
    ChartModelMismatchError,
    IntrinsicDensity,
    beta_chart_density,
    beta_intrinsic_density,
    bernoulli_model,
    chart_from_intrinsic,
    charts_for,
    fisher_rao_distance,
    get_model,
    intrinsic_from_chart,
    metric_in_chart,
    pushforward,
    sample_curve,
)
from fishergeom import density, manifold

BERNOULLI = bernoulli_model()
CHARTS = charts_for(BERNOULLI)


def polyline_length(theta1, theta2, segments):
    ts = np.linspace(theta1, theta2, segments + 1)
    xs = 2.0 * np.sqrt(ts)
    ys = 2.0 * np.sqrt(1.0 - ts)
    return float(np.hypot(np.diff(xs), np.diff(ys)).sum())


class TestEmbedding:
    def test_endpoints(self):
        assert BERNOULLI.embedding(0.0) == (0.0, 2.0)
        assert BERNOULLI.embedding(1.0) == (2.0, 0.0)

    def test_symmetry_point(self):
        x, y = BERNOULLI.embedding(0.5)
        assert x == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert y == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_circle_constraint(self):
        for t in np.linspace(0.0, 1.0, 1001):
            x, y = BERNOULLI.embedding(float(t))
            assert x * x + y * y == pytest.approx(4.0, abs=1e-12)
            assert x >= 0.0 and y >= 0.0

    def test_full_arc_length(self):
        assert polyline_length(0.0, 1.0, 100_000) == pytest.approx(math.pi, abs=1e-6)

    def test_isometry_on_random_pairs(self):
        rng = np.random.default_rng(20240817)
        for _ in range(100):
            t1, t2 = sorted(rng.uniform(0.0, 1.0, size=2))
            if t2 - t1 < 1e-6:
                t2 = min(1.0, t1 + 1e-6)
            arc = polyline_length(t1, t2, 10_000)
            dist = fisher_rao_distance(BERNOULLI, t1, t2)
            assert arc == pytest.approx(dist, rel=1e-5)


class TestSampleCurve:
    def test_uniform_height_rows(self):
        p = intrinsic_from_chart(beta_chart_density(BetaParams(0.5, 0.5)))
        curve = sample_curve(p, CHARTS["theta"], 5)
        assert len(curve.rows) == 5
        for row in curve.rows:
            assert row.p == pytest.approx(1.0 / math.pi, abs=1e-12)

    def test_uniform_is_constant_in_arclength_chart_too(self):
        p = intrinsic_from_chart(beta_chart_density(BetaParams(0.5, 0.5)))
        curve = sample_curve(p, CHARTS["arclength"], 3)
        for row in curve.rows:
            assert row.rho == pytest.approx(1.0 / math.pi, abs=1e-12)

    def test_rows_strictly_increasing(self):
        rho = beta_chart_density(BetaParams(1.05, 2.05))
        for chart in CHARTS.values():
            curve = sample_curve(rho, chart, 101)
            xs = [r.chart_coord for r in curve.rows]
            assert all(a < b for a, b in zip(xs, xs[1:]))

    def test_metadata(self):
        rho = beta_chart_density(BetaParams(2.0, 2.0))
        curve = sample_curve(rho, CHARTS["arcsin"], 11)
        assert curve.model_name == "bernoulli"
        assert curve.chart_name == "arcsin"
        assert curve.samples == 11
        assert "Beta" in curve.label

    def test_mode_shift_between_columns(self):
        # the two columns peak in visibly different places for a skewed prior
        curve = sample_curve(beta_chart_density(BetaParams(1.05, 2.05)), CHARTS["theta"], 10001)
        rho_argmax = max(curve.rows, key=lambda r: r.rho).canonical_coord
        p_argmax = max(curve.rows, key=lambda r: r.p).canonical_coord
        assert rho_argmax == pytest.approx(1.0 / 22.0, abs=2e-4)
        assert p_argmax == pytest.approx(11.0 / 42.0, abs=2e-4)

    def test_embedded_coordinates_on_circle(self):
        curve = sample_curve(beta_chart_density(BetaParams(2.0, 5.0)), CHARTS["theta"], 101)
        for row in curve.rows:
            assert row.embed_x ** 2 + row.embed_y ** 2 == pytest.approx(4.0, abs=1e-12)

    @pytest.mark.parametrize("model_name", ["poisson", "exponential"])
    def test_no_embedding_off_the_coin_family(self, model_name):
        model = get_model(model_name)
        p = IntrinsicDensity(model=model, value=lambda lam: math.exp(-lam), label="exp(-lam)")
        for chart in charts_for(model).values():
            curve = sample_curve(p, chart, 11)
            assert curve.model_name == model_name
            for row in curve.rows:
                assert math.isnan(row.embed_x) and math.isnan(row.embed_y)
                assert row.p == pytest.approx(math.exp(-row.canonical_coord), rel=1e-12)

    def test_chart_of_another_model_rejected(self):
        # both are named "theta": the name alone does not tell them apart
        rho = beta_chart_density(BetaParams(2.0, 3.0))
        poisson_theta = charts_for(get_model("poisson"))["theta"]
        for d in (rho, intrinsic_from_chart(rho)):
            with pytest.raises(ChartModelMismatchError):
                sample_curve(d, poisson_theta, 5)

    @pytest.mark.parametrize("name", ["theta", "arcsin", "reciprocal", "arclength"])
    def test_coin_family_rows_on_circle_in_every_chart(self, name):
        p = intrinsic_from_chart(beta_chart_density(BetaParams(0.5, 0.5)))
        for row in sample_curve(p, CHARTS[name], 11).rows:
            assert (row.embed_x, row.embed_y) == BERNOULLI.embedding(row.canonical_coord)
            assert row.embed_x ** 2 + row.embed_y ** 2 == pytest.approx(4.0, abs=1e-12)

    @pytest.mark.parametrize("a,b", [(0.5, 0.5), (1.05, 2.05), (0.3, 5.0)])
    @pytest.mark.parametrize("name", ["theta", "arcsin", "reciprocal", "arclength"])
    def test_row_identity_rho_equals_p_root_metric(self, a, b, name):
        # rho and p columns are tied by the metric in every row; at the grid
        # hairline the metric needs the offset-exact evaluation, same as the
        # density pipeline uses
        from fishergeom.manifold import (
            chart_canonical_offset,
            naive_offset,
        )

        chart = CHARTS[name]
        curve = sample_curve(beta_chart_density(BetaParams(a, b)), chart, 101)
        for row in curve.rows:
            if not (math.isfinite(row.rho) and math.isfinite(row.p)):
                continue
            x = row.chart_coord
            xc = naive_offset(chart.domain, x)
            theta, co = chart_canonical_offset(chart, x, xc)
            d = chart.d_canonical_offset(x, xc)
            g = BERNOULLI.fisher_metric_offset(theta, co) * d * d
            if not math.isfinite(g):
                continue
            assert row.p * math.sqrt(g) == pytest.approx(row.rho, rel=1e-10)
            # away from the hairline the plain public metric agrees too
            if 1e-3 < theta < 1.0 - 1e-3:
                g_naive = metric_in_chart(BERNOULLI, chart, x)
                assert row.p * math.sqrt(g_naive) == pytest.approx(row.rho, rel=1e-10)

    def test_half_infinite_grid_spans_wide(self):
        curve = sample_curve(beta_chart_density(BetaParams(0.5, 0.5)), CHARTS["reciprocal"], 101)
        xs = [r.chart_coord for r in curve.rows]
        assert xs[0] < 1.001
        assert xs[-1] > 1e5

    def test_minimum_samples_enforced(self):
        with pytest.raises(ValueError):
            sample_curve(beta_chart_density(BetaParams(2.0, 2.0)), CHARTS["theta"], 1)

    def test_intrinsic_input_equivalent_to_chart_input(self):
        rho = beta_chart_density(BetaParams(2.0, 5.0))
        via_chart = sample_curve(rho, CHARTS["arcsin"], 51)
        via_intrinsic = sample_curve(intrinsic_from_chart(rho), CHARTS["arcsin"], 51)
        for r1, r2 in zip(via_chart.rows, via_intrinsic.rows):
            assert r1.rho == pytest.approx(r2.rho, rel=1e-10)
            assert r1.p == pytest.approx(r2.p, rel=1e-10)


def counted(d):
    n = [0]
    inner = d.value_offset

    def value_offset(x, xc):
        n[0] += 1
        return inner(x, xc)

    return dataclasses.replace(d, value_offset=value_offset), n


class _Unhashable:
    """A callable that cannot be hashed, as a chart field may be."""

    __hash__ = None

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, *args):
        return self.fn(*args)


class TestCurveCache:
    @pytest.mark.parametrize("name", ["theta", "arcsin", "reciprocal", "arclength"])
    def test_miss_and_hit_call_each_core_once_per_row(self, name, monkeypatch):
        column_rows = []
        canonical_of = density._canonical

        def counting_canonical(d):
            read = canonical_of(d)

            def counted_column(samples):
                values = read.column(samples)
                column_rows.append(len(values))
                return values

            return read._replace(column=counted_column)

        monkeypatch.setattr(density, "_canonical", counting_canonical)
        rho = beta_chart_density(BetaParams(1.05, 2.05))
        wrapped, n = counted(rho)
        assert canonical_of(rho) is rho.value_offset
        curves = []
        for hit in (False, True):
            if not hit:
                manifold._chart_samples.cache_clear()
            for d in (rho, wrapped):
                before = manifold._chart_samples.cache_info()
                column_rows.clear()
                n[0] = 0
                curves.append(sample_curve(d, CHARTS[name], 101))
                after = manifold._chart_samples.cache_info()
                miss = not hit and d is rho
                assert (after.hits - before.hits, after.misses - before.misses) == (not miss, miss)
                # one column of per-theta values gives both the chart density
                # and the intrinsic one; a replaced function is called once a row
                assert column_rows == [101]
                assert n[0] == (101 if d is wrapped else 0)
        assert len(set(map(repr, curves))) == 1

    def test_bounded(self):
        rho = beta_chart_density(BetaParams(2.0, 3.0))
        misses = manifold._chart_samples.cache_info().misses
        for i in range(10):
            chart = dataclasses.replace(CHARTS["arcsin"], name=f"arcsin{i}")
            sample_curve(rho, chart, 11)
        for n in range(12, 17):
            sample_curve(rho, CHARTS["theta"], n)
        assert manifold._chart_samples.cache_info().misses == misses + 15
        assert manifold._chart_samples.cache_info().currsize <= 8

    def test_unhashable_chart_is_sampled(self):
        arcsin = CHARTS["arcsin"]
        chart = dataclasses.replace(arcsin, canonical_offset=_Unhashable(arcsin.canonical_offset))
        rho = beta_chart_density(BetaParams(1.05, 2.05))
        assert sample_curve(rho, chart, 31).rows == sample_curve(rho, arcsin, 31).rows


def _reference_rows(d, chart, n):
    """The rows of ``sample_curve(d, chart, n)`` from the scalar conversions:
    ``rho`` from the core of ``pushforward``/``chart_from_intrinsic`` at
    ``(x, xc)``, ``p`` from the core of ``intrinsic_from_chart`` (or the
    intrinsic density's own) at ``(theta, co)``."""
    if isinstance(d, IntrinsicDensity):
        rho, p = chart_from_intrinsic(d, chart), d
    else:
        rho, p = pushforward(d, chart), intrinsic_from_chart(d)
    rho_core, p_core = rho.value_offset.core, p.value_offset.core
    s = manifold._chart_samples(d.model, chart, n)
    return [(x, theta, rho_core(x, xc), p_core(theta, co), *d.model.embedding(theta))
            for x, xc, theta, co in zip(s.xs, s.xcs, s.thetas, s.cos)]


# y = 1 - theta: a user chart on the canonical-domain object, whose maps are not theta's
FLIP = manifold.Chart("flip", BERNOULLI.canonical_domain, BERNOULLI.canonical_domain,
                      lambda y, yc: (1.0 - y, -yc), lambda t, co: (1.0 - t, -co),
                      lambda y, yc: -1.0)


def _theta_chart_sources(a, b):
    """Theta-chart densities whose ``value_offset`` carries a column made for theta."""
    rho = beta_chart_density(BetaParams(a, b))
    return {"beta": rho, "plain": ChartDensity(BERNOULLI, CHARTS["theta"], rho.value, "plain"),
            "converted": pushforward(pushforward(rho, CHARTS["arcsin"]), CHARTS["theta"])}


def _without_core(d):
    """``d`` with its ``value_offset`` replaced by a function, which becomes
    the core of an ``Evaluator`` with a column of one core call a point."""
    inner = d.value_offset
    return dataclasses.replace(d, value_offset=lambda x, xc: inner(x, xc))


class TestCurveReference:
    """Each row's ``rho`` and ``p`` come from one evaluation of the density,
    bit for bit the scalar conversions' values at the row's points."""

    SHAPES = [(1e-3, 1e-3), (1e-3, 1.0), (0.5, 0.5), (1.05, 2.05), (0.49, 7.0), (30.0, 1e-3),
              (60.0, 2000.0), (1e5, 2e5), (3e7, 1e7), (1e9, 1e9)]

    @staticmethod
    def coin_inputs(a, b):
        rho = beta_chart_density(BetaParams(a, b))
        return {
            "theta": rho,
            "arcsin": pushforward(rho, CHARTS["arcsin"]),
            "reciprocal": pushforward(rho, CHARTS["reciprocal"]),
            "intrinsic": intrinsic_from_chart(rho),
            "closed-form intrinsic": beta_intrinsic_density(BetaParams(a, b)),
            "intrinsic of reciprocal": intrinsic_from_chart(pushforward(rho, CHARTS["reciprocal"])),
            "replaced theta": _without_core(rho),
            "replaced arcsin": _without_core(pushforward(rho, CHARTS["arcsin"])),
            "replaced intrinsic": _without_core(intrinsic_from_chart(rho)),
            **{f"{kind} moved to flip": dataclasses.replace(d, chart=FLIP)
               for kind, d in _theta_chart_sources(a, b).items()},
        }

    @pytest.mark.parametrize("name", ["theta", "arcsin", "reciprocal", "arclength"])
    def test_coin_family(self, name):
        chart = CHARTS[name]
        for a, b in self.SHAPES:
            for kind, d in self.coin_inputs(a, b).items():
                for n in (5, 257, 1024):
                    rows = list(map(tuple, sample_curve(d, chart, n).rows))
                    assert repr(rows) == repr(_reference_rows(d, chart, n)), (a, b, kind)

    @pytest.mark.parametrize("first", ["arcsin", "reciprocal", "arclength"])
    @pytest.mark.parametrize("second", ["arcsin", "reciprocal", "arclength"])
    def test_composed_density_in_its_own_chart(self, first, second):
        # its rho column, read over its own chart's table, is its core row by row
        rho = beta_chart_density(BetaParams(2.0, 3.0))
        d = pushforward(pushforward(rho, CHARTS[first]), CHARTS[second])
        s = manifold._chart_samples(BERNOULLI, d.chart, 257)
        rows = sample_curve(d, d.chart, 257).rows
        assert repr([row.rho for row in rows]) == repr(list(map(d.value_offset.core, s.xs, s.xcs)))

    def test_column_moved_to_another_chart_is_not_read(self):
        # dataclasses.replace keeps a value_offset made for the theta chart, its
        # column with it; in the flip chart, its own, the density is its core
        for a, b in self.SHAPES:
            for kind, source in _theta_chart_sources(a, b).items():
                d = dataclasses.replace(source, chart=FLIP)
                assert d.value_offset.core is source.value_offset.core, kind
                assert d.value_offset.tables is None, kind
                s = manifold._chart_samples(BERNOULLI, FLIP, 257)
                rows = sample_curve(d, FLIP, 257).rows
                want = list(map(d.value_offset.core, s.xs, s.xcs))
                assert repr([r.rho for r in rows]) == repr(want), (a, b, kind)
                p = intrinsic_from_chart(d).value_offset.core
                assert repr([r.p for r in rows]) == repr(list(map(p, s.thetas, s.cos)))

    @pytest.mark.parametrize("model_name", ["poisson", "exponential"])
    def test_rate_families(self, model_name):
        # every shipped chart, including the exponential arc-length chart,
        # whose last grid point maps to lam = inf
        model = get_model(model_name)
        theta, arclength = charts_for(model)["theta"], model.arclength
        rho = ChartDensity(model, theta, lambda lam: 1.0 / (1.0 + lam * lam), "cauchy")
        inputs = [
            rho,
            pushforward(rho, arclength),
            ChartDensity(model, arclength, lambda s: math.exp(-abs(s)), "laplace"),
            intrinsic_from_chart(rho),
            IntrinsicDensity(model, lambda lam: lam * math.exp(-lam), "gamma"),
            _without_core(pushforward(rho, arclength)),
        ]
        for chart in charts_for(model).values():
            for d in inputs:
                for n in (5, 257, 1001, 1024):
                    rows = list(map(tuple, sample_curve(d, chart, n).rows))
                    assert repr(rows) == repr(_reference_rows(d, chart, n)), (chart.name, d.label)
