"""One-parameter statistical manifolds, their Fisher metrics, and charts.

A model is described by a canonical coordinate (``theta`` for the coin
family), the Fisher information metric in that coordinate, and its
arc-length chart in closed form. Charts are alternative coordinate systems
given by bijections to/from the canonical coordinate together with their
derivative, so metric values, densities and distances can be moved between
parametrizations without ever differentiating numerically in production
code.

Several quantities of interest blow up like ``(1 - theta)**-q`` at a
*nonzero* endpoint, where a bare double cannot represent its own distance to
the endpoint. Every map of a chart and of a model's metric therefore takes
``(coordinate, signed offset)`` pairs, where a positive offset measures from
the interval's lower endpoint and a negative one from the upper (NaN on an
interval without a finite end, whose maps ignore it). Everything downstream
(density conversions, quadrature, mode search) composes these to keep
endpoint distances exact. The plain one-argument maps (``to_canonical``,
``fisher_metric``, ``arc_length_from_origin``, ...) are the same maps
evaluated at the lower-end offset ``x - lo``.

An offset is checked (:func:`verify_offset`) once, where it enters an
interval: the public ``chart_*_offset`` functions check the caller's offset,
then call the chart's maps, which trust it. Code that built an offset itself
or has checked it calls the maps directly; a map's output is checked in its
new interval, a chart density's read at a canonical point's chart image
too, except the cached identity chart's own, which moves no offset there.

A model is data: its metric, its arc-length chart, its extra charts and its
planar embedding (NaN off the coin family). Each shipped map is total: at a
limit it returns the limit (``inf`` for ``1/0``) instead of raising. Every
interval is open. Models and charts compare by identity; the shipped ones are
built once and cached for the life of the process. A chart belongs to the
model whose canonical domain it maps into, the very ``Interval`` object: the
coin family and all its charts share one. Integrals against the Riemannian
measure, the volume among them, live in :mod:`fishergeom.quadrature`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import Callable, NamedTuple


class DomainError(ValueError):
    """A coordinate lies outside the interval it must belong to."""


class ChartModelMismatchError(DomainError):
    """A chart was combined with a model (or a density on one) it does not belong to."""


@dataclass(frozen=True)
class Interval:
    """An open real interval.

    Attributes
    ----------
    lo, hi : float
        Endpoints, ``lo < hi``; either may be infinite.
    """

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"interval endpoints must satisfy lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def finite(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    def contains_interior(self, x: float) -> bool:
        return self.lo < x < self.hi

    def in_closure(self, x: float) -> bool:
        return self.lo <= x <= self.hi


def naive_offset(interval: Interval, x: float) -> float:
    """Signed offset of ``x`` from the nearer finite endpoint of ``interval``.

    Positive means ``x = lo + offset``, negative ``x = hi + offset``; NaN when
    neither endpoint is finite. "Naive" because the subtraction rounds; exact
    offsets come from the quadrature node maps and the chart maps.
    """
    lo_off = x - interval.lo if math.isfinite(interval.lo) else math.inf
    hi_off = interval.hi - x if math.isfinite(interval.hi) else math.inf
    if math.isinf(lo_off) and math.isinf(hi_off):
        return math.nan
    return lo_off if lo_off <= hi_off else -hi_off


def _naive_reader(core: Callable[[float, float], float], interval: Interval,
                  to_canonical: Callable[[float, float], tuple[float, float]] | None = None):
    """``core`` at ``(x, naive_offset(interval, x))``, or at its image under
    ``to_canonical`` (a chart's ``canonical_offset``) where that is given, as
    one function of ``x`` (a second argument is ignored) whose offset rule is
    picked once from ``interval``: :func:`naive_offset`'s own comparison on a
    finite interval, the offset from the finite end of a half line, nan with
    no finite end. Its offset is ``naive_offset``'s, bit for bit, at every
    finite ``x`` whose offset from a finite end does not overflow; it may not
    be at an infinite or nan ``x``, which no mode search or region node reads."""
    lo, hi = interval.lo, interval.hi
    if math.isfinite(lo) and math.isfinite(hi):
        if to_canonical is None:
            def read(x: float, xc: float = math.nan) -> float:
                lo_off, hi_off = x - lo, hi - x
                return core(x, lo_off if lo_off <= hi_off else -hi_off)
        else:
            def read(x: float, xc: float = math.nan) -> float:
                lo_off, hi_off = x - lo, hi - x
                return core(*to_canonical(x, lo_off if lo_off <= hi_off else -hi_off))
        return read
    offset = ((lambda x: x - lo) if math.isfinite(lo) else (lambda x: -(hi - x))
              if math.isfinite(hi) else (lambda x: math.nan))
    if to_canonical is None:
        return lambda x, xc=math.nan: core(x, offset(x))
    return lambda x, xc=math.nan: core(*to_canonical(x, offset(x)))


def verify_offset(interval: Interval, x: float, xc: float) -> float:
    """Accept ``xc`` only if it is anchored at an endpoint of ``interval``.

    Offsets travel alongside coordinates, and an offset produced for one
    interval (say, an integration sub-interval) must not be interpreted
    against another (a chart's full domain). The anchor is checked by
    reconstruction; on mismatch the naive offset is used instead.
    """
    end = interval.lo if xc > 0.0 else interval.hi if xc < 0.0 else math.nan
    if math.isfinite(xc) and math.isfinite(end):
        ax = abs(x)
        if abs((end + xc) - x) <= 4e-15 * (ax if ax > 1.0 else 1.0):   # 4e-15 * max(1, |x|)
            return xc
    return naive_offset(interval, x)


def interior_grid(interval: Interval, n: int) -> list[float]:
    """Strictly increasing grid of ``n`` interior points of ``interval``.

    Finite intervals are sampled uniformly on ``[lo + d, hi - d]`` with
    ``d = (hi - lo) * 1e-6``. Half-infinite intervals are sampled uniformly
    in the compactifying coordinate ``u`` with ``x = lo + (1 - u)/u`` (for
    the reciprocal chart on (1, inf) this is exactly ``u = 1/x``), and a
    doubly infinite interval through a tangent map. The grid approaches the
    endpoints without ever evaluating them.
    """
    if n < 2:
        raise ValueError("grid needs at least 2 points")
    lo, hi = interval.lo, interval.hi
    if interval.finite:
        delta = (hi - lo) * 1e-6
        a, b = lo + delta, hi - delta
        step = (b - a) / (n - 1)
        return [a + i * step for i in range(n)]
    eps = 1e-6
    us = [eps + i * (1.0 - 2 * eps) / (n - 1) for i in range(n)]
    if math.isfinite(lo) and math.isinf(hi):
        return sorted(lo + (1.0 - u) / u for u in us)
    if math.isinf(lo) and math.isfinite(hi):
        return sorted(hi - (1.0 - u) / u for u in us)
    return [math.tan(math.pi * (u - 0.5)) for u in us]


@dataclass(frozen=True, eq=False)
class Chart:
    """A coordinate system on a model, defined relative to its canonical one.

    ``canonical_offset`` maps a point of ``domain`` and its offset (see the
    module docstring) to ``(theta, co)`` in ``canonical_domain``, and
    ``from_canonical_offset`` is its inverse; ``d_canonical_offset`` is the
    signed derivative ``d theta / dx``, nonzero on the interior. The plain
    ``to_canonical``, ``from_canonical`` and ``d_canonical`` evaluate them at
    the lower-end offset. The chart belongs to the model whose
    ``canonical_domain`` is this very object.
    """

    name: str
    domain: Interval
    canonical_domain: Interval
    canonical_offset: Callable[[float, float], tuple[float, float]]
    from_canonical_offset: Callable[[float, float], tuple[float, float]]
    d_canonical_offset: Callable[[float, float], float]

    def to_canonical(self, x: float) -> float:
        return self.canonical_offset(x, x - self.domain.lo)[0]

    def from_canonical(self, theta: float) -> float:
        return self.from_canonical_offset(theta, theta - self.canonical_domain.lo)[0]

    def d_canonical(self, x: float) -> float:
        return self.d_canonical_offset(x, x - self.domain.lo)


def chart_canonical_offset(chart: Chart, x: float, xc: float) -> tuple[float, float]:
    """Map a chart point plus signed offset to ``(theta, canonical offset)``."""
    return chart.canonical_offset(x, verify_offset(chart.domain, x, xc))


def chart_from_canonical_offset(chart: Chart, theta: float, co: float) -> tuple[float, float]:
    """Inverse of :func:`chart_canonical_offset`."""
    return chart.from_canonical_offset(theta, verify_offset(chart.canonical_domain, theta, co))


def _require_model(chart: Chart, model: ManifoldModel) -> None:
    if chart.canonical_domain is not model.canonical_domain:
        raise ChartModelMismatchError(f"chart '{chart.name}' is not a chart of model '{model.name}'")


def _no_embedding(theta: float) -> tuple[float, float]:
    return math.nan, math.nan


@dataclass(frozen=True, eq=False)
class ManifoldModel:
    """A one-parameter statistical family with its Fisher metric.

    ``fisher_metric_offset(theta, co)`` is the (positive) metric value at a
    canonical point and its offset. ``arclength`` is the arc-length chart,
    in which the metric is identically 1; its maps extend continuously to
    the closure of the canonical domain. ``extra_charts`` join the identity
    and arc-length charts, and ``embedding`` maps theta into the plane (to
    NaN for a model without one). The plain ``fisher_metric`` and
    ``arc_length_from_origin`` evaluate these maps at the lower-end offset.
    """

    name: str
    canonical_domain: Interval
    fisher_metric_offset: Callable[[float, float], float]
    arclength: Chart
    extra_charts: tuple[Chart, ...] = ()
    embedding: Callable[[float], tuple[float, float]] = _no_embedding

    def fisher_metric(self, theta: float) -> float:
        return self.fisher_metric_offset(theta, theta - self.canonical_domain.lo)

    def arc_length_from_origin(self, theta: float) -> float:
        return self.arclength.from_canonical(theta)


# the canonical domain of the coin family and of each of its charts
_COIN_DOMAIN = Interval(0.0, 1.0)


@cache
def bernoulli_model() -> ManifoldModel:
    """The coin-toss family in its success-probability coordinate.

    The metric is ``1/(theta (1 - theta))`` on (0, 1); arc length from the
    origin is ``2 asin(sqrt(theta))``, so the total length is pi. The model
    carries the two reparametrizations used as running examples (arcsin and
    reciprocal) and its isometric embedding on the radius-2 quarter circle.
    """

    def metric_offset(theta: float, co: float) -> float:
        lo_off = co if co > 0 else theta
        hi_off = -co if co < 0 else 1.0 - theta
        d = lo_off * hi_off
        return 1.0 / d if d else math.inf

    # theta = sin^2(s/2); at the far end 1 - theta = sin^2((pi - s)/2),
    # both exact in the respective arc-length offset
    def canonical_offset(s: float, sc: float) -> tuple[float, float]:
        d = math.sin(0.5 * sc) ** 2
        if sc < 0:
            return 1.0 - d, -d
        return d, d

    def from_canonical_offset(theta: float, co: float) -> tuple[float, float]:
        if co < 0:
            u = 2.0 * math.asin(math.sqrt(-co))
            return math.pi - u, -u
        s = 2.0 * math.asin(math.sqrt(theta))
        return s, s

    def d_canonical_offset(s: float, sc: float) -> float:
        if sc < 0:
            return math.sin(0.5 * s) * math.sin(-0.5 * sc)
        return 0.5 * math.sin(s)

    return ManifoldModel(
        name="bernoulli",
        canonical_domain=_COIN_DOMAIN,
        fisher_metric_offset=metric_offset,
        arclength=Chart("arclength", Interval(0.0, math.pi), _COIN_DOMAIN,
                        canonical_offset, from_canonical_offset, d_canonical_offset),
        extra_charts=(arcsin_chart(), reciprocal_chart()),
        embedding=lambda theta: (2.0 * math.sqrt(theta), 2.0 * math.sqrt(1.0 - theta)),
    )


@cache
def poisson_model() -> ManifoldModel:
    """Poisson rate family: metric ``1/lam`` on (0, inf), arc length ``s = 2 sqrt(lam)``.

    Both coordinates start at 0, so each point is its own offset.
    """

    def canonical_offset(s: float, sc: float) -> tuple[float, float]:
        half = 0.5 * s
        lam = math.inf if half > 1.3e154 else half * half
        return lam, lam

    def from_canonical_offset(lam: float, co: float) -> tuple[float, float]:
        s = 2.0 * math.sqrt(lam)
        return s, s

    domain = Interval(0.0, math.inf)
    return ManifoldModel(
        name="poisson",
        canonical_domain=domain,
        fisher_metric_offset=lambda lam, co: 1.0 / lam if lam else math.inf,
        arclength=Chart("arclength", Interval(0.0, math.inf), domain,
                        canonical_offset, from_canonical_offset, lambda s, sc: 0.5 * s),
    )


@cache
def exponential_model() -> ManifoldModel:
    """Exponential rate family: metric ``1/lam**2`` on (0, inf), arc length ``log(lam)``.

    The arc-length origin is ``lam = 1``; the arc-length coordinate covers
    the whole real line, so its offsets are NaN and its maps ignore them.
    """

    def canonical_offset(s: float, sc: float) -> tuple[float, float]:
        try:
            lam = math.exp(s)
        except OverflowError:
            lam = math.inf
        return lam, lam

    def from_canonical_offset(lam: float, co: float) -> tuple[float, float]:
        return (-math.inf if lam == 0.0 else math.log(lam)), math.nan

    domain = Interval(0.0, math.inf)
    return ManifoldModel(
        name="exponential",
        canonical_domain=domain,
        fisher_metric_offset=lambda lam, co: 1.0 / (lam * lam) if lam * lam else math.inf,
        arclength=Chart("arclength", Interval(-math.inf, math.inf), domain,
                        canonical_offset, from_canonical_offset,
                        lambda s, sc: canonical_offset(s, sc)[0]),
    )


_MODEL_FACTORIES = {
    "bernoulli": bernoulli_model,
    "poisson": poisson_model,
    "exponential": exponential_model,
}


def get_model(name: str) -> ManifoldModel:
    """Look up a shipped model (the same object every call) by its identifier."""
    try:
        return _MODEL_FACTORIES[name]()
    except KeyError:
        raise KeyError(f"unknown model '{name}'; available: {sorted(_MODEL_FACTORIES)}") from None


@cache
def identity_chart(model: ManifoldModel) -> Chart:
    """The canonical coordinate viewed as a chart named ``theta``."""
    return Chart(
        name="theta",
        domain=model.canonical_domain,
        canonical_domain=model.canonical_domain,
        canonical_offset=lambda x, xc: (x, xc),
        from_canonical_offset=lambda theta, co: (theta, co),
        d_canonical_offset=lambda x, xc: 1.0,
    )


@cache
def arcsin_chart() -> Chart:
    """``y = asin(theta)`` on the coin family, domain (0, pi/2)."""

    def canonical_offset(y: float, yc: float) -> tuple[float, float]:
        # sin(pi/2 + yc) = cos(yc) = 1 - 2 sin^2(yc/2), exact in the offset
        if yc < 0:
            d = 2.0 * math.sin(0.5 * yc) ** 2
            return 1.0 - d, -d
        theta = math.sin(yc)
        return theta, theta

    def from_canonical_offset(theta: float, co: float) -> tuple[float, float]:
        if co < 0:
            # yc = -acos(1 - d) = -2 asin(sqrt(d/2)), well conditioned up to
            # d = 1, where asin rounds past pi/4: keep y = pi/2 + yc in the domain
            yc = max(-2.0 * math.asin(math.sqrt(-0.5 * co)), -0.5 * math.pi)
            return 0.5 * math.pi + yc, yc
        y = math.asin(theta)
        return y, y

    def d_canonical_offset(y: float, yc: float) -> float:
        # cos(pi/2 + yc) = -sin(yc)
        if yc < 0:
            return -math.sin(yc)
        return math.cos(y)

    return Chart(
        name="arcsin",
        domain=Interval(0.0, 0.5 * math.pi),
        canonical_domain=_COIN_DOMAIN,
        canonical_offset=canonical_offset,
        from_canonical_offset=from_canonical_offset,
        d_canonical_offset=d_canonical_offset,
    )


@cache
def reciprocal_chart() -> Chart:
    """``y = 1/theta`` on the coin family, domain (1, inf)."""

    def canonical_offset(y: float, yc: float) -> tuple[float, float]:
        # 1 - theta = (y - 1)/y, exact in the offset from y = 1. Far out that
        # offset rounds towards -1 and loses theta, which is then anchored at
        # theta = 0 instead; the switch lies past the golden curves' last point
        if y > 4e6:
            return 1.0 / y, 1.0 / y
        return 1.0 / y, -yc / y

    def from_canonical_offset(theta: float, co: float) -> tuple[float, float]:
        y = 1.0 / theta if theta else math.inf
        if co < 0 and theta:
            return y, -co / theta
        return y, y - 1.0

    return Chart(
        name="reciprocal",
        domain=Interval(1.0, math.inf),
        canonical_domain=_COIN_DOMAIN,
        canonical_offset=canonical_offset,
        from_canonical_offset=from_canonical_offset,
        d_canonical_offset=lambda y, yc: -1.0 / (y * y),
    )


def arclength_chart(model: ManifoldModel) -> Chart:
    """Arc-length coordinate of ``model``; the metric is identically 1 here."""
    return model.arclength


def charts_for(model: ManifoldModel) -> dict[str, Chart]:
    """All shipped charts of a model, keyed by their stable names: the
    identity and arc-length charts every model has, then its extra charts.
    """
    charts = (identity_chart(model), model.arclength, *model.extra_charts)
    return {c.name: c for c in charts}


class ChartSamples(NamedTuple):
    """The columns of a chart's sample table (:func:`_sample_table`)."""

    xs: tuple[float, ...]           # the chart points
    xcs: tuple[float, ...]          # and their offsets
    thetas: tuple[float, ...]       # their canonical points
    cos: tuple[float, ...]          # and offsets, checked in the canonical domain
    root_gs: tuple[float, ...]      # sqrt(G)
    jacobians: tuple[float, ...]    # |dtheta/dx|
    # log of the exact distance to each canonical end, co or theta - lo and
    # -co or hi - theta; -inf where it is not positive, nan where it is nan
    log_los: tuple[float, ...]
    log_his: tuple[float, ...]
    # compared and hashed by identity, so a table is its own cache key
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


def _log_distance(d: float) -> float:
    return math.log(d) if d > 0.0 else -math.inf if d <= 0.0 else d


def _sample_table(model: ManifoldModel, chart: Chart, xs: tuple, xcs: tuple) -> ChartSamples:
    """The :class:`ChartSamples` table of the chart points ``xs`` with their
    offsets ``xcs``, each column computed once; no points make an empty table."""
    dom = model.canonical_domain
    thetas, cos = tuple(zip(*map(chart.canonical_offset, xs, xcs))) or ((), ())
    cos = tuple(map(verify_offset, [dom] * len(xs), thetas, cos))
    root_gs = tuple(map(math.sqrt, map(model.fisher_metric_offset, thetas, cos)))
    jacobians = tuple(map(abs, map(chart.d_canonical_offset, xs, xcs)))
    points = list(zip(thetas, cos))
    log_los = tuple(_log_distance(co if co > 0 else theta - dom.lo) for theta, co in points)
    log_his = tuple(_log_distance(-co if co < 0 else dom.hi - theta) for theta, co in points)
    return ChartSamples(xs, xcs, thetas, cos, root_gs, jacobians, log_los, log_his)


# Keyed by model and chart identity: the shipped charts are built once, so
# only a chart a caller makes anew misses, and the bound keeps such charts
# from piling up; it holds the mode scan's four search charts and four curves.
@lru_cache(maxsize=8)
def _chart_samples(model: ManifoldModel, chart: Chart, n: int) -> ChartSamples:
    """The ``n``-point interior grid of ``chart`` as a :func:`_sample_table`:
    the points of the mode scan and of every sampled curve."""
    xs = tuple(interior_grid(chart.domain, n))
    return _sample_table(model, chart, xs, tuple(naive_offset(chart.domain, x) for x in xs))


def get_chart(model: ManifoldModel, name: str) -> Chart:
    charts = charts_for(model)
    try:
        return charts[name]
    except KeyError:
        raise KeyError(
            f"unknown chart '{name}' for model '{model.name}'; available: {sorted(charts)}"
        ) from None


def metric_in_chart(model: ManifoldModel, chart: Chart, x: float) -> float:
    """Fisher metric expressed in ``chart`` coordinates at interior ``x``.

    Transforms by the squared Jacobian: ``G_chart(x) = G(theta) * (d theta/dx)**2``,
    each factor taken from the offset maps at the offset of ``x`` from its
    nearer end. Evaluation at an exact boundary is an error, as the metric
    of the shipped models diverges there while arc length stays finite; so
    is a point whose canonical image rounds onto a boundary or whose chart
    metric is not a finite positive double (far out on an unbounded axis).
    A chart of another model raises :class:`ChartModelMismatchError`.
    """
    _require_model(chart, model)
    if not chart.domain.contains_interior(x):
        raise DomainError(f"coordinate {x!r} is not interior to chart '{chart.name}' "
                          f"domain ({chart.domain.lo}, {chart.domain.hi})")
    xc = naive_offset(chart.domain, x)
    theta, co = chart.canonical_offset(x, xc)
    d = chart.d_canonical_offset(x, xc)
    g = model.fisher_metric_offset(theta, co) * d * d
    if not (model.canonical_domain.contains_interior(theta) and 0.0 < g < math.inf):
        raise DomainError(
            f"the '{chart.name}' chart metric at {x!r} (canonical image {theta!r}) "
            f"is not a finite positive double"
        )
    return g


def fisher_rao_distance(model: ManifoldModel, theta1: float, theta2: float) -> float:
    """Geodesic distance between two points given in canonical coordinates.

    On a one-parameter manifold this is the absolute arc-length difference;
    endpoints of the closure are allowed, and coincident points are 0 apart
    even at an infinite arc length.
    """
    dom = model.canonical_domain
    for theta in (theta1, theta2):
        if not dom.in_closure(theta):
            raise DomainError(f"coordinate {theta!r} is outside the closure of the '{model.name}' "
                              f"canonical domain [{dom.lo}, {dom.hi}]")
    s1 = model.arc_length_from_origin(theta1)
    s2 = model.arc_length_from_origin(theta2)
    return 0.0 if s1 == s2 else abs(s2 - s1)
