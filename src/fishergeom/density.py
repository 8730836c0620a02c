"""Intrinsic densities, chart densities, and the conversions between them.

A chart density ``rho`` is a density with respect to the Lebesgue measure of
one particular coordinate; the intrinsic density ``p`` is the density with
respect to the Riemannian volume measure and does not depend on any chart.
They are related pointwise by ``rho = p * sqrt(G_chart)``, and chart
densities move between charts by the usual change-of-variables rule with the
absolute Jacobian.

Densities are carried as evaluation functions plus metadata, never as
sample arrays; grids appear only at the emit layer. Every density holds two
evaluators: the public single-argument ``value`` defined on the domain
closure, and ``value_offset(x, xc)`` following the quadrature module's
exact-offset convention; it checks the caller's offset once, then calls a
trusted core. At a finite endpoint ``value`` returns the one-sided limit
(``math.inf`` where the density diverges) from :func:`endpoint_behaviour`,
which reads the local power-law exponent off the trusted core at two exact
offsets; the mode search classifies its boundaries with the same function.
Conversions are built from one per-theta core, the density per unit theta
(``p * sqrt(G)``, or ``rho(x(theta)) / |dtheta/dx|`` for a chart density),
and one chart view of it, ``q(theta(x)) * |dtheta/dx|``. Each checks an
offset only where a chart map moves it to another interval, and the model's
identity chart adds no map. Charts are told apart by identity; a density
built on a chart of another model raises ``ChartModelMismatchError``. All
Beta arithmetic runs through log-gamma and ``exp`` so large shape parameters
cannot overflow; a closed-form value above the largest double is ``inf``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .manifold import (
    Chart,
    ChartModelMismatchError,  # noqa: F401  (re-exported)
    DomainError,
    Interval,
    ManifoldModel,
    _require_model,
    bernoulli_model,
    identity_chart,
    naive_offset,
    verify_offset,
)
from .quadrature import QuadratureConfig, _require_converged, integrate_chart, integrate_manifold


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


@dataclass(frozen=True)
class ChartDensity:
    """A density over one chart coordinate (the integration form)."""

    model: ManifoldModel
    chart: Chart
    value: Callable[[float], float]
    label: str
    value_offset: Callable[[float, float], float] = field(default=None, repr=False)

    def __post_init__(self):
        _require_model(self.chart, self.model)
        if self.value_offset is None:
            fn = self.value
            object.__setattr__(self, "value_offset", lambda x, xc: fn(x))


@dataclass(frozen=True)
class IntrinsicDensity:
    """A density with respect to the Riemannian measure; chart-free."""

    model: ManifoldModel
    value: Callable[[float], float]
    label: str
    value_offset: Callable[[float, float], float] = field(default=None, repr=False)

    def __post_init__(self):
        if self.value_offset is None:
            fn = self.value
            object.__setattr__(self, "value_offset", lambda x, xc: fn(x))


def _evaluators(core, interval: Interval) -> dict:
    """Constructor keywords ``value`` and ``value_offset`` for a trusted
    ``core`` on ``interval``: ``value_offset`` checks the caller's offset
    once (and keeps ``core`` and ``domain``); ``value`` takes the closure,
    with the one-sided limit from :func:`endpoint_behaviour` at a finite end."""

    def value_offset(x: float, xc: float) -> float:
        return core(x, verify_offset(interval, x, xc))

    def value(x: float) -> float:
        if not interval.in_closure(x):
            raise DomainError(
                f"coordinate {x!r} is outside the closure of [{interval.lo}, {interval.hi}]"
            )
        if (x == interval.lo or x == interval.hi) and math.isfinite(x):
            return endpoint_behaviour(core, interval, x == interval.lo)[1]
        return core(x, naive_offset(interval, x))

    value_offset.core, value_offset.domain = core, interval
    return {"value": value, "value_offset": value_offset}


def _core(d):
    """Trusted evaluator of ``d``; a ``value_offset`` supplied or swapped in
    from outside has none and is called as given."""
    return getattr(d.value_offset, "core", d.value_offset)


def _power_pair_core(a_exp: float, b_exp: float, log_norm: float):
    """Evaluator for ``lo**a * hi**b / exp(log_norm)`` on the unit interval.

    ``lo`` and ``hi`` are the distances to 0 and 1, the near one taken
    exactly from the trusted offset. Exact zeros are endpoint evaluations
    and return the one-sided limit (0, the finite value, or inf); a value
    above the largest double is inf.
    """

    def core(theta: float, co: float) -> float:
        lo_off = co if co > 0 else theta
        hi_off = -co if co < 0 else 1.0 - theta
        if lo_off <= 0.0:
            if a_exp != 0.0:
                return 0.0 if a_exp > 0.0 else math.inf
            log_v = b_exp * math.log(hi_off)
        elif hi_off <= 0.0:
            if b_exp != 0.0:
                return 0.0 if b_exp > 0.0 else math.inf
            log_v = a_exp * math.log(lo_off)
        else:
            log_v = a_exp * math.log(lo_off) + b_exp * math.log(hi_off)
        try:
            return math.exp(log_v - log_norm)
        except OverflowError:   # above the largest double
            return math.inf

    return core


def beta_chart_density(params: BetaParams) -> ChartDensity:
    """The Beta pdf as a chart density on the coin family, theta chart.

    ``rho(theta) = theta**(alpha-1) (1-theta)**(beta-1) / B(alpha, beta)``.
    """
    model = bernoulli_model()
    chart = identity_chart(model)
    core = _power_pair_core(params.alpha - 1.0, params.beta - 1.0, params.log_norm)
    return ChartDensity(model=model, chart=chart, label=f"Beta({params.alpha:g},{params.beta:g})",
                        **_evaluators(core, chart.domain))


def beta_intrinsic_density(params: BetaParams) -> IntrinsicDensity:
    """Closed form of the intrinsic Beta density on the coin family.

    Dividing the Beta pdf by ``sqrt(G)`` shifts both exponents by one half:
    ``p(theta) = theta**(alpha-0.5) (1-theta)**(beta-0.5) / B(alpha, beta)``.
    """
    model = bernoulli_model()
    core = _power_pair_core(params.alpha - 0.5, params.beta - 0.5, params.log_norm)
    return IntrinsicDensity(model=model, label=f"Beta({params.alpha:g},{params.beta:g}) intrinsic",
                            **_evaluators(core, model.canonical_domain))


def _guard(core):
    """Map arithmetic blow-ups at sub-ulp limit-region points to ``inf``.

    Composed evaluators can be driven closer to a boundary than their
    intermediate quantities can represent (underflowed offsets, divergent
    metric); the quadrature zero-weights non-finite values there, and the
    public closure evaluators never reach this path.
    """

    def guarded(x: float, xc: float) -> float:
        try:
            return core(x, xc)
        except (ZeroDivisionError, OverflowError, ValueError):
            return math.inf

    return guarded


def endpoint_behaviour(core, interval: Interval, at_lo: bool) -> tuple[float, float]:
    """``(exponent, limit)`` of a trusted ``(x, xc)`` core at a finite
    endpoint of ``interval``.

    The core is taken as ``c * h**exponent`` in the endpoint offset ``h``,
    the exponent read as its log-slope between the exact offsets ``_NEAR``
    and ``_FAR``. A negative exponent gives the limit inf, a positive one 0,
    and one within ``_EXPONENT_TOL`` of 0 the core's value at ``_NEAR``; the
    slope is within 1e-15 of the exact exponent for every shipped chart and
    view at shapes from 1e-3 to 20. A probe of inf, or of 0 at ``_FAR``
    alone, diverges; 0 at ``_NEAR`` vanishes; nan gives ``(nan, nan)``.
    """
    end, sign = (interval.lo, 1.0) if at_lo else (interval.hi, -1.0)
    near = core(end + sign * _NEAR, sign * _NEAR)
    far = core(end + sign * _FAR, sign * _FAR)
    if math.isnan(near) or math.isnan(far):
        return math.nan, math.nan
    if near == 0.0 and not math.isinf(far):
        return math.inf, 0.0
    if far == 0.0 or math.isinf(near) or math.isinf(far):
        return -math.inf, math.inf
    exponent = (math.log(near) - math.log(far)) / math.log(_NEAR / _FAR)
    if abs(exponent) <= _EXPONENT_TOL:
        return exponent, near
    return exponent, math.inf if exponent < 0.0 else 0.0


def _per_theta(d: ChartDensity | IntrinsicDensity):
    """Trusted ``(theta, co)`` core of ``d`` per unit theta: ``p * sqrt(G)``,
    or ``rho(x(theta)) / |dtheta/dx|`` with the chart map's output checked
    where it enters the chart's domain; in the identity chart, ``rho``'s core."""
    model, source = d.model, _core(d)
    if isinstance(d, IntrinsicDensity):
        def per_theta(theta: float, co: float) -> float:
            return source(theta, co) * math.sqrt(model.fisher_metric_offset(theta, co))
        return per_theta
    chart = d.chart
    if chart is identity_chart(model):
        return source

    def per_theta(theta: float, co: float) -> float:
        x, xc = chart.from_canonical_offset(theta, co)
        xc = verify_offset(chart.domain, x, xc)
        return source(x, xc) / abs(chart.d_canonical_offset(x, xc))
    return per_theta


def _in_chart(d: ChartDensity | IntrinsicDensity, chart: Chart) -> ChartDensity:
    """``d`` as a chart density in ``chart``: ``q(theta(x)) * |dtheta/dx|``
    for its per-theta core ``q``, with the chart map's output checked as it
    enters the canonical domain. In the model's identity chart it is ``q``.
    """
    model, per_theta = d.model, _per_theta(d)
    if chart is identity_chart(model):
        core = per_theta
    else:
        def core(x: float, xc: float) -> float:
            theta, co = chart.canonical_offset(x, xc)
            co = verify_offset(model.canonical_domain, theta, co)
            return per_theta(theta, co) * abs(chart.d_canonical_offset(x, xc))
    return ChartDensity(model=model, chart=chart, label=d.label,
                        **_evaluators(_guard(core), chart.domain))


def intrinsic_from_chart(rho: ChartDensity) -> IntrinsicDensity:
    """Recover the chart-free density: ``p = rho / sqrt(G_chart)``.

    The result is the same whichever chart ``rho`` was expressed in; that is
    the point of the construction.
    """
    model, per_theta = rho.model, _per_theta(rho)

    def core(theta: float, co: float) -> float:
        return per_theta(theta, co) / math.sqrt(model.fisher_metric_offset(theta, co))
    return IntrinsicDensity(model=model, label=rho.label,
                            **_evaluators(_guard(core), model.canonical_domain))


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


def normalization_check(d: ChartDensity | IntrinsicDensity,
                        cfg: QuadratureConfig | None = None) -> float:
    """Numerically computed total mass of a density.

    The caller compares against 1; nothing is renormalized here, so tests
    can feed deliberately broken densities through. Non-convergent
    quadrature raises :class:`QuadratureConvergenceError` with its result.
    """
    if isinstance(d, ChartDensity):
        res = integrate_chart(d.value_offset, d.chart.domain, cfg)
    else:
        res = integrate_manifold(d.value_offset, d.model, None, cfg)
    return _require_converged(res, f"normalization integral for '{d.label}'").value
