"""Intrinsic densities, chart densities, the conversions between them, and curves.

A chart density ``rho`` is a density with respect to the Lebesgue measure of
one particular coordinate; the intrinsic density ``p`` is the density with
respect to the Riemannian volume measure and does not depend on any chart.
They are related pointwise by ``rho = p * sqrt(G_chart)``, and chart
densities move between charts by the usual change-of-variables rule with the
absolute Jacobian.

Densities are carried as evaluation functions plus metadata, never as sample
arrays; only a sampled curve holds columns of values. Every density is read
through one type, :class:`Evaluator` ``(core, domain)``: a density's
``value_offset`` is always one, on the density's domain, as its constructor
makes it (:func:`_evaluator`). A missing ``value_offset`` becomes ``value``
:func:`_clamped` into the open domain, an ``offsetless`` core read to the
digits its ``1 - theta`` keeps; any other callable becomes the core of an
``Evaluator``. Called as ``(x, xc)`` (the quadrature module's exact-offset
convention), an ``Evaluator`` checks the offset once and calls its core;
conversions, integrals, mode searches and curves call the core at offsets
anchored at the ends of its domain. Its ``value`` method, the density's
``value``, returns at a finite endpoint the one-sided limit (``math.inf``
where the density diverges) from :func:`endpoint_behaviour`.

Every density's ``Evaluator`` has a ``column``, bit for bit its core over a
sample table (``manifold._chart_samples``); a density built with none, or
with one whose ``tables`` name another chart, gets one of a core call a
point. One rule reads a density at canonical points
``(theta, co)``, for mode searches, curves and conversions: :func:`_canonical`.
For an intrinsic density, or one on the model's identity chart itself, it is
the density's own ``Evaluator``. For a chart density in any other chart its
core reads the density's core at the point's chart image
(``chart.from_canonical_offset``), the offset checked where it enters the
chart's domain, and its column the density's column over the table's one
image table in that chart (:func:`_images`, built once, with the same checked
offsets). The Beta reader (:func:`_power_pair`) reads a point by one rule in
its core and, over the table's cached logs of each point's distances to both
ends, in its column, which calls the core only where a value overflows (the
arc-length node tables' end nodes round onto theta = 0 or 1, log -inf).
Whole-domain integrals read a column over tables of the quadrature nodes of
the chart its ``tables`` name.

Conversions are built from one per-theta ``Evaluator`` (:func:`_per_theta`),
the density per unit theta (``p * sqrt(G)``, or ``rho(x(theta)) /
|dtheta/dx|`` for a chart density), and one chart view of it,
``q(theta(x)) * |dtheta/dx|``. Each builds its ``Evaluator`` from the
per-theta one with ``_replace``, so a field it does not compute, such as the
``offsetless`` mark, is carried over. Each checks an offset only where a
chart map moves it to another interval; the identity chart adds no map.
:func:`sample_curve` applies the same rules column-wise, one value of ``q``
a point, bit for bit, over the sample table the mode scan shares.
Conversions catch nothing: the maps return their limits, a quotient by a
zero Jacobian or ``sqrt(G)`` is ``inf``, and below endpoint offsets of about
1e-200 a converted value may read ``inf`` or ``nan``, neither right. Charts
are told apart by identity; a density on a chart of another model raises
``ChartModelMismatchError``. Beta arithmetic runs through log-gamma and
``exp``; a closed-form value above the largest double is ``inf``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat
from typing import Callable, NamedTuple

from .manifold import (
    Chart,
    ChartModelMismatchError,  # noqa: F401  (re-exported)
    ChartSamples,
    DomainError,
    Interval,
    ManifoldModel,
    _chart_samples,
    _require_model,
    _sample_table,
    bernoulli_model,
    identity_chart,
    naive_offset,
    verify_offset,
)


# Exact endpoint offsets of endpoint_behaviour's log-slope. Nearer ones
# fail: a core derived through the reciprocal chart loses digits where the
# pushed density goes subnormal (below theta ~ 1e-104 for Beta(2, 3)) and
# returns inf below theta ~ 1e-154 (its Jacobian 1/y**2 underflows), and the
# arcsin chart's theta offset, half the square of its own, underflows below
# y ~ 1e-154.
_NEAR, _FAR = 1e-100, 1e-50
_EXPONENT_TOL = 1e-12


@dataclass(frozen=True)
class BetaParams:
    """Shape parameters of a Beta density; both must be positive."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha!r}")
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be positive and finite, got {self.beta!r}")

    @property
    def log_norm(self) -> float:
        """``log B(alpha, beta)`` via log-gamma."""
        return math.lgamma(self.alpha) + math.lgamma(self.beta) - math.lgamma(self.alpha + self.beta)


class Evaluator(NamedTuple):
    """The one type a density is read through, a density's ``value_offset``:
    its trusted ``core`` and the ``domain`` whose endpoint offsets the core
    takes as given. A call ``(x, xc)`` checks the offset once, then calls
    ``core``; ``value`` is the density's ``value``. ``column``, which every
    density's has, is ``core`` over a sample table (``manifold.ChartSamples``)
    of its chart, bit for bit ``map(core, xs, xcs)``, or of any chart's
    canonical points for a core on them; ``tables``, ``(model, chart)`` or None,
    names the chart (identity for canonical points) a density keeps the column
    on, and whose node tables a whole-domain integral may read it over;
    ``offsetless`` marks a core that ignores ``xc``."""

    core: Callable[[float, float], float]
    domain: Interval
    column: Callable[[ChartSamples], list[float]] | None = None
    tables: tuple[ManifoldModel, Chart] | None = None
    offsetless: bool = False

    def __call__(self, x: float, xc: float) -> float:
        return self.core(x, verify_offset(self.domain, x, xc))

    def value(self, x: float) -> float:
        lo, hi = self.domain.lo, self.domain.hi
        if not self.domain.in_closure(x):
            raise DomainError(f"coordinate {x!r} is outside the closure of [{lo}, {hi}]")
        if (x == lo or x == hi) and math.isfinite(x):
            return endpoint_behaviour(self, x == lo)[1]
        return self.core(x, naive_offset(self.domain, x))


def _evaluator(fn: Callable[[float, float], float], domain: Interval) -> Evaluator:
    """The one rule for reading an ``(x, xc)`` callable on ``domain``: ``fn``
    itself if it is exactly an :class:`Evaluator` on ``domain``, else an
    ``Evaluator`` with ``fn`` as its core, so each offset is checked before
    ``fn`` sees it."""
    return fn if type(fn) is Evaluator and fn.domain == domain else Evaluator(fn, domain)


def _canonical(d) -> Evaluator:
    """The one rule for reading ``d`` at canonical points ``(theta, co)``: an
    :class:`Evaluator` on the canonical domain. For an intrinsic density or one
    on ``identity_chart(model)`` itself, its own; else its core at the chart
    image ``chart.from_canonical_offset``, the offset checked in the chart's
    domain, its column over the table's :func:`_images`, and no ``tables``."""
    f, model = d.value_offset, d.model
    chart = getattr(d, "chart", identity_chart(model))
    if chart is identity_chart(model):
        return f

    def read(theta: float, co: float) -> float:
        x, xc = chart.from_canonical_offset(theta, co)
        return f.core(x, verify_offset(chart.domain, x, xc))
    return f._replace(core=read, domain=model.canonical_domain, tables=None,
                      column=lambda samples: f.column(_images(samples, model, chart)))


# Keyed by identity, as a ChartSamples table compares by it. MAP and MAPI of a density
# converted twice, in all four search charts, build 8 (an image and its image for
# each scan table); one pass of the modes benchmark builds 2.
@lru_cache(maxsize=12)
def _images(samples: ChartSamples, model: ManifoldModel, chart: Chart) -> ChartSamples:
    """The image table of ``samples``' canonical points in ``chart``: its points
    ``chart.from_canonical_offset(theta, co)``, their offsets checked in
    ``chart.domain``, as :func:`_canonical` checks them."""
    xs, xcs = zip(*map(chart.from_canonical_offset, samples.thetas, samples.cos))
    return _sample_table(model, chart, xs, tuple(map(verify_offset, repeat(chart.domain), xs, xcs)))


def _built(cls, evaluator: Evaluator, **fields):
    """A ``cls`` density this module builds, read through ``evaluator``, column and all."""
    d = cls(value=evaluator.value, value_offset=evaluator, **fields)
    object.__setattr__(d, "value_offset", evaluator)
    return d


def _clamped(fn: Callable[[float], float], interval: Interval) -> Evaluator:
    """``fn`` as an offsetless :class:`Evaluator`, the one rule for an offsetless callable: its
    core reads ``fn`` at ``x`` clamped into the open ``interval``; nan if no double lies inside."""
    lo, hi = math.nextafter(interval.lo, interval.hi), math.nextafter(interval.hi, interval.lo)
    return Evaluator(lambda x, xc: fn(min(max(x, lo), hi)) if lo <= hi else math.nan,
                     interval, offsetless=True)


def _set_evaluator(d, chart: Chart) -> None:
    """Set ``d``'s ``value_offset`` to an :class:`Evaluator` on ``chart``'s domain,
    ``value`` :func:`_clamped` or else :func:`_evaluator` of it, which keeps its
    column only where its ``tables`` name ``chart`` (``dataclasses.replace`` may
    move it) and else gets one of a core call a point: at a table's canonical
    points on the identity chart itself, else at its chart points; no ``tables``."""
    f = d.value_offset
    f = _clamped(d.value, chart.domain) if f is None else _evaluator(f, chart.domain)
    if f.tables != (d.model, chart):
        own = chart is identity_chart(d.model)
        points = operator.attrgetter(*(("thetas", "cos") if own else ("xs", "xcs")))
        f = f._replace(column=lambda samples, core=f.core: list(map(core, *points(samples))),
                       tables=None)
    object.__setattr__(d, "value_offset", f)


@dataclass(frozen=True)
class ChartDensity:
    """A density over one chart coordinate (the integration form). Its
    ``value_offset`` is an :class:`Evaluator` on the chart's domain; built
    from ``value`` alone, it reads ``value`` :func:`_clamped` into it."""

    model: ManifoldModel
    chart: Chart
    value: Callable[[float], float]
    label: str
    value_offset: Callable[[float, float], float] = field(default=None, repr=False)

    def __post_init__(self):
        _require_model(self.chart, self.model)
        _set_evaluator(self, self.chart)


@dataclass(frozen=True)
class IntrinsicDensity:
    """A density with respect to the Riemannian measure; chart-free. Its
    ``value_offset`` is an :class:`Evaluator` on the canonical domain; built
    from ``value`` alone, it reads ``value`` :func:`_clamped` into it."""

    model: ManifoldModel
    value: Callable[[float], float]
    label: str
    value_offset: Callable[[float, float], float] = field(default=None, repr=False)

    def __post_init__(self):
        _set_evaluator(self, identity_chart(self.model))


def _power_pair(a_exp: float, b_exp: float, log_norm: float) -> Evaluator:
    """The :class:`Evaluator` of ``lo**a * hi**b / exp(log_norm)`` on the coin
    family's canonical domain, its column over the identity chart's tables.

    ``lo`` and ``hi`` are the distances to 0 and 1, the near one taken
    exactly from the trusted offset. Core and column read a point by one
    rule: a side whose exponent is exactly 0 adds nothing, any other adds
    ``exponent * log(distance)``, a distance of 0 giving log -inf, so an end
    reads its one-sided limit (0, the finite value, or inf); a nan point
    reads nan, and a value above the largest double is inf. The column reads
    the logs of both distances from the sample table, in the core's operand
    order: both sides, the one side with a nonzero exponent, or the constant
    at each point that is not nan. It calls the core only where a value
    overflows.
    """
    exp, log, inf, nan = math.exp, math.log, math.inf, math.nan

    def core(theta: float, co: float) -> float:
        lo_off = co if co > 0 else theta
        hi_off = -co if co < 0 else 1.0 - theta
        if lo_off <= 0.0 or hi_off <= 0.0:
            log_v = ((a_exp and a_exp * (log(lo_off) if lo_off > 0.0 else -inf))
                     + (b_exp and b_exp * (log(hi_off) if hi_off > 0.0 else -inf)))
        else:
            log_v = a_exp * log(lo_off) + b_exp * log(hi_off)
        try:
            return exp(log_v - log_norm)
        except OverflowError:   # above the largest double
            return inf

    # the nonzero exponent where only one is, bound here so that a column call makes no cell
    one = a_exp or b_exp

    def column(samples: ChartSamples) -> list[float]:
        los, his = samples.log_los, samples.log_his
        try:
            if a_exp and b_exp:
                return [exp(a_exp * lo + b_exp * hi - log_norm) for lo, hi in zip(los, his)]
            if one:
                return [exp(one * lg - log_norm) for lg in (los if a_exp else his)]
            return [exp(-log_norm) if lg == lg else nan for lg in los]
        except OverflowError:   # above the largest double
            return list(map(core, samples.thetas, samples.cos))

    model = bernoulli_model()
    return Evaluator(core, model.canonical_domain, column, (model, identity_chart(model)))


def beta_chart_density(params: BetaParams) -> ChartDensity:
    """The Beta pdf as a chart density on the coin family, theta chart.

    ``rho(theta) = theta**(alpha-1) (1-theta)**(beta-1) / B(alpha, beta)``.
    """
    f = _power_pair(params.alpha - 1.0, params.beta - 1.0, params.log_norm)
    model, chart = f.tables
    return _built(ChartDensity, f, model=model, chart=chart,
                  label=f"Beta({params.alpha:g},{params.beta:g})")


def beta_intrinsic_density(params: BetaParams) -> IntrinsicDensity:
    """Closed form of the intrinsic Beta density on the coin family.

    Dividing the Beta pdf by ``sqrt(G)`` shifts both exponents by one half:
    ``p(theta) = theta**(alpha-0.5) (1-theta)**(beta-0.5) / B(alpha, beta)``.
    """
    f = _power_pair(params.alpha - 0.5, params.beta - 0.5, params.log_norm)
    return _built(IntrinsicDensity, f, model=f.tables[0],
                  label=f"Beta({params.alpha:g},{params.beta:g}) intrinsic")


def endpoint_behaviour(f: Evaluator, at_lo: bool) -> tuple[float, float]:
    """``(exponent, limit)`` of an :class:`Evaluator`'s core at a finite
    endpoint of its domain.

    The core is taken as ``c * h**exponent`` in the endpoint offset ``h``,
    the exponent read as its log-slope between the exact offsets ``_NEAR``
    and ``_FAR``. A negative exponent gives the limit inf, a positive one 0,
    and one within ``_EXPONENT_TOL`` of 0 the core's value at ``_NEAR``; the
    slope is within 1e-15 of the exact exponent for every shipped chart and
    view at shapes from 1e-3 to 20. A probe of inf, or of 0 at ``_FAR``
    alone, diverges; 0 at ``_NEAR`` vanishes; nan gives ``(nan, nan)``.
    Where ``ulp(end) > _NEAR``, an ``offsetless`` core is read at ``ulp(end)``
    and 1e-8, tolerance 1e-6.
    """
    end, sign = (f.domain.lo, 1.0) if at_lo else (f.domain.hi, -1.0)
    h_near, h_far, tol = ((math.ulp(end), 1e-8, 1e-6) if f.offsetless and math.ulp(end) > _NEAR
                          else (_NEAR, _FAR, _EXPONENT_TOL))
    near = f.core(end + sign * h_near, sign * h_near)
    far = f.core(end + sign * h_far, sign * h_far)
    if math.isnan(near) or math.isnan(far):
        return math.nan, math.nan
    if near == 0.0 and not math.isinf(far):
        return math.inf, 0.0
    if far == 0.0 or math.isinf(near) or math.isinf(far):
        return -math.inf, math.inf
    exponent = (math.log(near) - math.log(far)) / math.log(h_near / h_far)
    if abs(exponent) <= tol:
        return exponent, near
    return exponent, math.inf if exponent < 0.0 else 0.0


def _quotients(qs: list[float], divisors: tuple[float, ...]) -> list[float]:
    """``q / g`` a row, inf where ``g`` is 0."""
    try:
        return list(map(operator.truediv, qs, divisors))
    except ZeroDivisionError:
        return [q / g if g else math.inf for q, g in zip(qs, divisors)]


def _per_theta(d: ChartDensity | IntrinsicDensity) -> Evaluator:
    """``d`` per unit theta, :func:`_canonical` of ``d`` with ``_replace``d core
    and column: ``p * sqrt(G)``, or ``rho(x(theta)) / |dtheta/dx|`` with the
    chart map's output checked where it enters the chart's domain (in the
    identity chart, ``rho`` itself); the column over the table's ``sqrt(G)``
    or the ``|dtheta/dx|`` of its :func:`_images`."""
    model, source = d.model, _canonical(d)
    read, own = source.core, source.column
    if isinstance(d, IntrinsicDensity):
        def per_theta(theta: float, co: float) -> float:
            return read(theta, co) * math.sqrt(model.fisher_metric_offset(theta, co))
        return source._replace(core=per_theta,
                               column=lambda s: list(map(operator.mul, own(s), s.root_gs)))
    chart, core = d.chart, d.value_offset.core
    if chart is identity_chart(model):
        return source

    def per_theta(theta: float, co: float) -> float:
        x, xc = chart.from_canonical_offset(theta, co)
        xc = verify_offset(chart.domain, x, xc)
        jacobian = abs(chart.d_canonical_offset(x, xc))
        return core(x, xc) / jacobian if jacobian else math.inf
    return source._replace(core=per_theta,
                           column=lambda s: _quotients(own(s), _images(s, model, chart).jacobians))


def _in_chart(d: ChartDensity | IntrinsicDensity, chart: Chart) -> ChartDensity:
    """``d`` as a chart density in ``chart``: ``q(theta(x)) * |dtheta/dx|``
    for its per-theta :class:`Evaluator` ``q``, with the chart map's output
    checked as it enters the canonical domain. In the model's identity chart
    it is ``q``. Its column over ``chart``'s tables is ``q``'s times their
    ``|dtheta/dx|``.
    """
    model, q = d.model, _per_theta(d)
    if chart is not identity_chart(model):
        per_theta, q_column = q.core, q.column

        def core(x: float, xc: float) -> float:
            theta, co = chart.canonical_offset(x, xc)
            co = verify_offset(model.canonical_domain, theta, co)
            return per_theta(theta, co) * abs(chart.d_canonical_offset(x, xc))

        def column(samples: ChartSamples) -> list[float]:
            return list(map(operator.mul, q_column(samples), samples.jacobians))
        q = q._replace(core=core, domain=chart.domain, column=column,
                       tables=q.tables and (model, chart))
    return _built(ChartDensity, q, model=model, chart=chart, label=d.label)


def intrinsic_from_chart(rho: ChartDensity) -> IntrinsicDensity:
    """Recover the chart-free density: ``p = rho / sqrt(G_chart)``.

    The result is the same whichever chart ``rho`` was expressed in; that is
    the point of the construction. Its column is its per-theta column over
    the table's ``sqrt(G)``.
    """
    model, q = rho.model, _per_theta(rho)
    per_theta, q_column = q.core, q.column

    def core(theta: float, co: float) -> float:
        root_g = math.sqrt(model.fisher_metric_offset(theta, co))
        return per_theta(theta, co) / root_g if root_g else math.inf
    q = q._replace(core=core, column=lambda s: _quotients(q_column(s), s.root_gs))
    return _built(IntrinsicDensity, q, model=model, label=rho.label)


def chart_from_intrinsic(p: IntrinsicDensity, chart: Chart) -> ChartDensity:
    """Express an intrinsic density for integration in ``chart``:
    ``rho(x) = p(theta(x)) * sqrt(G_chart(x))``."""
    return _in_chart(p, chart)


def pushforward(rho: ChartDensity, target: Chart) -> ChartDensity:
    """Re-express a chart density in another chart of the same model.

    Change of variables with the absolute Jacobian:
    ``rho_target(y) = rho_source(x(y)) * |dx/dy|``; the total mass is
    preserved. Pushing a density to its own chart (the same object) returns
    it unchanged; a chart of another model raises ``ChartModelMismatchError``.
    """
    if target is rho.chart:
        return rho
    return _in_chart(rho, target)


class CurveRow(NamedTuple):
    chart_coord: float
    canonical_coord: float
    rho: float
    p: float
    embed_x: float
    embed_y: float


@dataclass(frozen=True)
class DensityCurve:
    model_name: str
    chart_name: str
    label: str
    samples: int
    rows: tuple[CurveRow, ...]


def _curve_columns(d: ChartDensity | IntrinsicDensity, chart: Chart,
                   n: int) -> tuple[ChartSamples, list[float], list[float]]:
    """The sample table of a curve of ``d`` over ``n`` interior grid points of
    ``chart``, and its ``rho`` and ``p`` columns, bit for bit the scalar
    conversions' values.

    One evaluation of ``d`` a row gives its per-theta value ``q``: ``rho = q *
    |dtheta/dx|`` (``q`` in the identity chart) and ``p = q / sqrt(G)`` (inf
    where ``sqrt(G)`` is 0); an intrinsic ``p`` gives ``q = p * sqrt(G)``. An
    intrinsic density is read by :func:`_canonical`'s column, a chart density
    by its per-theta one; in its own chart but theta, ``rho`` is its own column.
    """
    model = d.model
    _require_model(chart, model)
    s = _chart_samples(model, chart, n)
    if isinstance(d, IntrinsicDensity):
        ps = _canonical(d).column(s)
        qs = list(map(operator.mul, ps, s.root_gs))
    else:
        qs = _per_theta(d).column(s)
        ps = _quotients(qs, s.root_gs)
    if chart is identity_chart(model):
        rhos = qs
    elif chart is getattr(d, "chart", None):
        rhos = d.value_offset.column(s)
    else:
        rhos = list(map(operator.mul, qs, s.jacobians))
    return s, rhos, ps


def sample_curve(d: ChartDensity | IntrinsicDensity, chart: Chart, n: int) -> DensityCurve:
    """Tabulate a density over ``n`` interior grid points of ``chart``: rows
    strictly increasing in the chart coordinate, with the :func:`_curve_columns`
    ``rho`` and ``p`` and the embedded point (NaN for a model without one)."""
    s, rhos, ps = _curve_columns(d, chart, n)
    exs, eys = zip(*map(d.model.embedding, s.thetas))
    rows = map(tuple.__new__, repeat(CurveRow), zip(s.xs, s.thetas, rhos, ps, exs, eys))
    return DensityCurve(model_name=d.model.name, chart_name=chart.name, label=d.label,
                        samples=n, rows=tuple(rows))
