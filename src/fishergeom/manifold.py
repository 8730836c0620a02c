"""One-parameter statistical manifolds, their Fisher metrics, and charts.

A model is described by a canonical coordinate (``theta`` for the coin
family), the Fisher information metric in that coordinate, and a closed-form
arc length. Charts are alternative coordinate systems given by bijections
to/from the canonical coordinate together with their derivative, so metric
values, densities and distances can be moved between parametrizations
without ever differentiating numerically in production code.

Several quantities of interest blow up like ``(1 - theta)**-q`` at a
*nonzero* endpoint, where a bare double cannot represent its own distance to
the endpoint. Charts therefore optionally carry offset-aware companions of
their three maps: these take and return ``(coordinate, signed offset)``
pairs, where a positive offset measures from the interval's lower endpoint
and a negative one from the upper. Everything downstream (density
conversions, quadrature, mode search) composes these to keep endpoint
distances exact; the plain maps remain the public face.

An offset is checked (:func:`verify_offset`) once, where it enters an
interval: the public ``chart_*_offset`` maps check the caller's offset, then
call private forms that trust it. Code that built an offset itself or has
checked it calls those directly; a map's output is checked in its new
interval, except the cached identity chart's own: it moves no offset there.
A whole-domain integral's node offsets are anchored exactly at the domain's
endpoints, so it trusts them; a sub-interval integral checks every node.

A model is data: it also carries its arc-length chart's offset companions,
its extra charts and its planar embedding (``None`` or empty if it has none).
Models compare by identity; the shipped ones, and each model's identity and
arc-length charts, are built once and cached for the life of the process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Callable


class DomainError(ValueError):
    """A coordinate lies outside the interval it must belong to."""


class NonFiniteVolumeError(ArithmeticError):
    """The volume integral of a model diverges (or failed to converge)."""

    def __init__(self, message: str, error_estimate: float = math.inf):
        super().__init__(message)
        self.error_estimate = error_estimate


@dataclass(frozen=True)
class Interval:
    """A real interval; infinite endpoints are always open.

    Attributes
    ----------
    lo, hi : float
        Endpoints, ``lo < hi``; either may be infinite.
    open_lo, open_hi : bool
        Whether the corresponding endpoint is excluded.
    """

    lo: float
    hi: float
    open_lo: bool = True
    open_hi: bool = True

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"interval endpoints must satisfy lo < hi, got [{self.lo}, {self.hi}]")
        if math.isinf(self.lo) and not self.open_lo:
            raise ValueError("an infinite lower endpoint must be open")
        if math.isinf(self.hi) and not self.open_hi:
            raise ValueError("an infinite upper endpoint must be open")

    @property
    def finite(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    def contains(self, x: float) -> bool:
        """Membership test honouring open/closed endpoints."""
        if x < self.lo or x > self.hi:
            return False
        if x == self.lo and self.open_lo:
            return False
        if x == self.hi and self.open_hi:
            return False
        return True

    def contains_interior(self, x: float) -> bool:
        return self.lo < x < self.hi

    def in_closure(self, x: float) -> bool:
        return self.lo <= x <= self.hi


def naive_offset(interval: Interval, x: float) -> float:
    """Signed offset of ``x`` from the nearer finite endpoint of ``interval``.

    Positive means ``x = lo + offset``, negative ``x = hi + offset``; NaN when
    neither endpoint is finite. "Naive" because the subtraction rounds; exact
    offsets come from the quadrature node maps and the chart companions.
    """
    lo_off = x - interval.lo if math.isfinite(interval.lo) else math.inf
    hi_off = interval.hi - x if math.isfinite(interval.hi) else math.inf
    if math.isinf(lo_off) and math.isinf(hi_off):
        return math.nan
    return lo_off if lo_off <= hi_off else -hi_off


def verify_offset(interval: Interval, x: float, xc: float) -> float:
    """Accept ``xc`` only if it is anchored at an endpoint of ``interval``.

    Offsets travel alongside coordinates, and an offset produced for one
    interval (say, an integration sub-interval) must not be interpreted
    against another (a chart's full domain). The anchor is checked by
    reconstruction; on mismatch the naive offset is used instead.
    """
    if math.isfinite(xc):
        tol = 4e-15 * max(1.0, abs(x))
        if xc > 0 and math.isfinite(interval.lo):
            if abs((interval.lo + xc) - x) <= tol:
                return xc
        elif xc < 0 and math.isfinite(interval.hi):
            if abs((interval.hi + xc) - x) <= tol:
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


@dataclass(frozen=True)
class Chart:
    """A coordinate system on a model, defined relative to its canonical one.

    ``to_canonical`` and ``from_canonical`` are mutual inverses between
    ``domain`` and ``canonical_domain``; ``d_canonical`` is the signed
    derivative of ``to_canonical`` and is nonzero on the interior. The three
    ``*_offset`` fields are optional offset-aware companions (see module
    docstring); when absent, naive offsets are used.
    """

    name: str
    model_name: str
    domain: Interval
    canonical_domain: Interval
    to_canonical: Callable[[float], float]
    from_canonical: Callable[[float], float]
    d_canonical: Callable[[float], float]
    canonical_offset: Callable[[float, float], tuple[float, float]] | None = None
    from_canonical_offset: Callable[[float, float], tuple[float, float]] | None = None
    d_canonical_offset: Callable[[float, float], float] | None = None

    def require_interior(self, x: float) -> None:
        if not self.domain.contains_interior(x):
            raise DomainError(
                f"coordinate {x!r} is not interior to chart '{self.name}' "
                f"domain ({self.domain.lo}, {self.domain.hi})"
            )


def _canonical_offset(chart: Chart, x: float, xc: float) -> tuple[float, float]:
    if chart.canonical_offset is not None and math.isfinite(xc):
        return chart.canonical_offset(x, xc)
    theta = chart.to_canonical(x)
    return theta, naive_offset(chart.canonical_domain, theta)


def _from_canonical_offset(chart: Chart, theta: float, co: float) -> tuple[float, float]:
    if chart.from_canonical_offset is not None and math.isfinite(co):
        return chart.from_canonical_offset(theta, co)
    x = chart.from_canonical(theta)
    return x, naive_offset(chart.domain, x)


def _d_canonical_offset(chart: Chart, x: float, xc: float) -> float:
    if chart.d_canonical_offset is not None and math.isfinite(xc):
        return chart.d_canonical_offset(x, xc)
    return chart.d_canonical(x)


def chart_canonical_offset(chart: Chart, x: float, xc: float) -> tuple[float, float]:
    """Map a chart point plus signed offset to ``(theta, canonical offset)``."""
    return _canonical_offset(chart, x, verify_offset(chart.domain, x, xc))


def chart_from_canonical_offset(chart: Chart, theta: float, co: float) -> tuple[float, float]:
    """Inverse of :func:`chart_canonical_offset`."""
    return _from_canonical_offset(chart, theta, verify_offset(chart.canonical_domain, theta, co))


def chart_d_canonical_offset(chart: Chart, x: float, xc: float) -> float:
    """``d theta / dx`` evaluated with offset accuracy where available."""
    if chart.d_canonical_offset is None:
        return chart.d_canonical(x)
    return _d_canonical_offset(chart, x, verify_offset(chart.domain, x, xc))


@dataclass(frozen=True, eq=False)
class ManifoldModel:
    """A one-parameter statistical family with its Fisher metric.

    ``fisher_metric`` maps a canonical coordinate to the (positive) metric
    value; ``arc_length_from_origin`` and ``arc_length_inverse`` are the
    closed-form arc-length map and its inverse, extended continuously to the
    closure of the canonical domain. ``fisher_metric_offset`` and the three
    ``arclength_*`` fields are optional offset-aware companions of the metric
    and the arc-length chart; ``extra_charts`` join those two charts and
    ``embedding`` maps theta into the plane.
    """

    name: str
    canonical_domain: Interval
    fisher_metric: Callable[[float], float]
    arc_length_from_origin: Callable[[float], float]
    arc_length_inverse: Callable[[float], float]
    fisher_metric_offset: Callable[[float, float], float] | None = None
    arclength_canonical_offset: Callable[[float, float], tuple[float, float]] | None = None
    arclength_from_canonical_offset: Callable[[float, float], tuple[float, float]] | None = None
    arclength_d_canonical_offset: Callable[[float, float], float] | None = None
    extra_charts: tuple[Chart, ...] = ()
    embedding: Callable[[float], tuple[float, float]] | None = None

    def require_in_closure(self, theta: float) -> None:
        if not self.canonical_domain.in_closure(theta):
            raise DomainError(
                f"coordinate {theta!r} is outside the closure of the "
                f"'{self.name}' canonical domain "
                f"[{self.canonical_domain.lo}, {self.canonical_domain.hi}]"
            )


def model_fisher_metric_offset(model: ManifoldModel, theta: float, co: float) -> float:
    if model.fisher_metric_offset is not None and math.isfinite(co):
        return model.fisher_metric_offset(theta, co)
    return model.fisher_metric(theta)


@cache
def bernoulli_model() -> ManifoldModel:
    """The coin-toss family in its success-probability coordinate.

    The metric is ``1/(theta (1 - theta))`` on (0, 1); arc length from the
    origin is ``2 asin(sqrt(theta))``, so the total length is pi. The model
    carries the two reparametrizations used as running examples (arcsin and
    reciprocal) and its isometric embedding on the radius-2 quarter circle.
    """

    def metric(theta: float) -> float:
        return 1.0 / (theta * (1.0 - theta))

    def metric_offset(theta: float, co: float) -> float:
        lo_off = co if co > 0 else theta
        hi_off = -co if co < 0 else 1.0 - theta
        return 1.0 / (lo_off * hi_off)

    def arc_length(theta: float) -> float:
        return 2.0 * math.asin(math.sqrt(theta))

    def arc_length_inv(s: float) -> float:
        return math.sin(0.5 * s) ** 2

    # theta = sin^2(s/2); at the far end 1 - theta = sin^2((pi - s)/2),
    # both exact in the respective arc-length offset
    def arclength_canonical_offset(s: float, sc: float) -> tuple[float, float]:
        d = math.sin(0.5 * sc) ** 2
        if sc < 0:
            return 1.0 - d, -d
        return d, d

    def arclength_from_canonical_offset(theta: float, co: float) -> tuple[float, float]:
        if co < 0:
            u = 2.0 * math.asin(math.sqrt(-co))
            return math.pi - u, -u
        s = 2.0 * math.asin(math.sqrt(theta))
        return s, s

    def arclength_d_canonical_offset(s: float, sc: float) -> float:
        if sc < 0:
            return math.sin(0.5 * s) * math.sin(-0.5 * sc)
        return 0.5 * math.sin(s)

    return ManifoldModel(
        name="bernoulli",
        canonical_domain=Interval(0.0, 1.0),
        fisher_metric=metric,
        arc_length_from_origin=arc_length,
        arc_length_inverse=arc_length_inv,
        fisher_metric_offset=metric_offset,
        arclength_canonical_offset=arclength_canonical_offset,
        arclength_from_canonical_offset=arclength_from_canonical_offset,
        arclength_d_canonical_offset=arclength_d_canonical_offset,
        extra_charts=(arcsin_chart(), reciprocal_chart()),
        embedding=lambda theta: (2.0 * math.sqrt(theta), 2.0 * math.sqrt(1.0 - theta)),
    )


@cache
def poisson_model() -> ManifoldModel:
    """Poisson rate family: metric ``1/lam`` on (0, inf), arc length ``2 sqrt(lam)``."""

    def arc_length_inv(s: float) -> float:
        half = 0.5 * s
        if half > 1.3e154:
            return math.inf
        return half * half

    return ManifoldModel(
        name="poisson",
        canonical_domain=Interval(0.0, math.inf),
        fisher_metric=lambda lam: 1.0 / lam,
        arc_length_from_origin=lambda lam: 2.0 * math.sqrt(lam),
        arc_length_inverse=arc_length_inv,
    )


@cache
def exponential_model() -> ManifoldModel:
    """Exponential rate family: metric ``1/lam**2`` on (0, inf), arc length ``log(lam)``.

    The arc-length origin is ``lam = 1``; the arc-length coordinate covers
    the whole real line.
    """

    def arc_length(lam: float) -> float:
        if lam == 0.0:
            return -math.inf
        return math.log(lam)

    def arc_length_inv(s: float) -> float:
        try:
            return math.exp(s)
        except OverflowError:
            return math.inf

    return ManifoldModel(
        name="exponential",
        canonical_domain=Interval(0.0, math.inf),
        fisher_metric=lambda lam: 1.0 / (lam * lam),
        arc_length_from_origin=arc_length,
        arc_length_inverse=arc_length_inv,
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


def identity_chart(model: ManifoldModel, name: str = "theta") -> Chart:
    """The canonical coordinate viewed as a chart."""
    return _identity_chart(model, name)     # one cache key however name is given


def _is_identity(model: ManifoldModel, chart: Chart) -> bool:
    return chart.domain is model.canonical_domain and chart is _identity_chart(model, chart.name)


@cache
def _identity_chart(model: ManifoldModel, name: str) -> Chart:
    return Chart(
        name=name,
        model_name=model.name,
        domain=model.canonical_domain,
        canonical_domain=model.canonical_domain,
        to_canonical=lambda x: x,
        from_canonical=lambda theta: theta,
        d_canonical=lambda x: 1.0,
        canonical_offset=lambda x, xc: (x, xc),
        from_canonical_offset=lambda theta, co: (theta, co),
    )


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
            d = -co
            yc = -math.asin(math.sqrt(d * (2.0 - d)))
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
        model_name="bernoulli",
        domain=Interval(0.0, 0.5 * math.pi),
        canonical_domain=Interval(0.0, 1.0),
        to_canonical=math.sin,
        from_canonical=math.asin,
        d_canonical=math.cos,
        canonical_offset=canonical_offset,
        from_canonical_offset=from_canonical_offset,
        d_canonical_offset=d_canonical_offset,
    )


def reciprocal_chart() -> Chart:
    """``y = 1/theta`` on the coin family, domain (1, inf)."""

    def to_canonical(y: float) -> float:
        return 1.0 / y

    def d_canonical(y: float) -> float:
        return -1.0 / (y * y)

    def canonical_offset(y: float, yc: float) -> tuple[float, float]:
        # 1 - theta = (y - 1)/y, exact in the offset from y = 1
        return 1.0 / y, -yc / y

    def from_canonical_offset(theta: float, co: float) -> tuple[float, float]:
        y = 1.0 / theta
        if co < 0:
            return y, -co / theta
        return y, y - 1.0

    return Chart(
        name="reciprocal",
        model_name="bernoulli",
        domain=Interval(1.0, math.inf),
        canonical_domain=Interval(0.0, 1.0),
        to_canonical=to_canonical,
        from_canonical=lambda theta: 1.0 / theta,
        d_canonical=d_canonical,
        canonical_offset=canonical_offset,
        from_canonical_offset=from_canonical_offset,
    )


@cache
def arclength_chart(model: ManifoldModel) -> Chart:
    """Arc-length coordinate of ``model``; the metric is identically 1 here.

    ``d theta / d s = 1 / sqrt(G(theta(s)))`` follows from the definition of
    arc length, so no extra closed form is needed per model.
    """
    s_lo = model.arc_length_from_origin(model.canonical_domain.lo)
    s_hi = model.arc_length_from_origin(model.canonical_domain.hi)

    def d_canonical(s: float) -> float:
        theta = model.arc_length_inverse(s)
        return 1.0 / math.sqrt(model.fisher_metric(theta))

    return Chart(
        name="arclength",
        model_name=model.name,
        domain=Interval(s_lo, s_hi),
        canonical_domain=model.canonical_domain,
        to_canonical=model.arc_length_inverse,
        from_canonical=model.arc_length_from_origin,
        d_canonical=d_canonical,
        canonical_offset=model.arclength_canonical_offset,
        from_canonical_offset=model.arclength_from_canonical_offset,
        d_canonical_offset=model.arclength_d_canonical_offset,
    )


def charts_for(model: ManifoldModel) -> dict[str, Chart]:
    """All shipped charts of a model, keyed by their stable names: the
    identity and arc-length charts every model has, then its extra charts.
    """
    charts = (identity_chart(model), arclength_chart(model), *model.extra_charts)
    return {c.name: c for c in charts}


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

    Transforms by the squared Jacobian: ``G_chart(x) = G(theta) * (d theta/dx)**2``.
    Evaluation at an exact boundary is an error; the metric of the shipped
    models diverges there while arc length stays finite.
    """
    if chart.model_name != model.name:
        raise DomainError(f"chart '{chart.name}' belongs to model '{chart.model_name}', not '{model.name}'")
    chart.require_interior(x)
    theta = chart.to_canonical(x)
    if not model.canonical_domain.contains_interior(theta):
        # extreme chart coordinates can round the canonical image onto a
        # boundary in floating point (e.g. exp underflow far out on an
        # unbounded arc-length axis)
        raise DomainError(
            f"canonical image {theta!r} of chart coordinate {x!r} is not "
            f"interior to the '{model.name}' domain"
        )
    d = chart.d_canonical(x)
    return model.fisher_metric(theta) * d * d


def fisher_rao_distance(model: ManifoldModel, theta1: float, theta2: float) -> float:
    """Geodesic distance between two points given in canonical coordinates.

    On a one-parameter manifold this is the absolute arc-length difference;
    endpoints of the closure are allowed.
    """
    model.require_in_closure(theta1)
    model.require_in_closure(theta2)
    s1 = model.arc_length_from_origin(theta1)
    s2 = model.arc_length_from_origin(theta2)
    return abs(s2 - s1)


def volume(model: ManifoldModel, region: Interval | None = None, cfg=None) -> float:
    """Riemannian volume ``integral of sqrt(G) d theta`` over ``region``.

    Defaults to the full canonical domain. A divergent or non-convergent
    integral raises :class:`NonFiniteVolumeError` with the achieved error
    estimate attached.
    """
    return finite_volume_result(model, region, cfg).value


def finite_volume_result(model: ManifoldModel, region: Interval | None = None, cfg=None):
    """Like :func:`volume_result`, but raising where :func:`volume` raises."""
    res = volume_result(model, region, cfg)
    if not res.converged or not math.isfinite(res.value):
        raise NonFiniteVolumeError(
            f"volume integral for '{model.name}' did not converge "
            f"(best estimate {res.value!r}, error estimate {res.error_estimate!r})",
            error_estimate=res.error_estimate,
        )
    return res


def volume_result(model: ManifoldModel, region: Interval | None = None, cfg=None):
    """Like :func:`volume` but returning the full quadrature result."""
    from .quadrature import integrate_manifold

    return integrate_manifold(lambda theta: 1.0, model, region, cfg)
