"""Double-exponential quadrature over charts and over the manifold.

Finite intervals use the tanh-sinh transform, half-infinite ones exp-sinh,
and doubly infinite ones sinh-sinh. All three push the endpoints to infinity
in the transformed variable, so integrable endpoint singularities (the rule
rather than the exception here: the flat-prior integrand diverges at both
ends of (0, 1)) converge geometrically.

Endpoint offsets
----------------
A double ``x`` very close to a nonzero endpoint cannot represent its own
distance to that endpoint: the probability mass hiding within one ulp of
``theta = 1`` is of order ``eps**(1-q)`` for a ``(1-theta)**-q`` singularity,
which is far above the tolerances this package promises. Integrands may
therefore accept a second argument: ``f(x, xc)`` is called with ``xc`` the
exact signed offset of the node from the nearest finite endpoint
(``x = lo + xc`` when ``xc > 0``, ``x = hi + xc`` when ``xc < 0``, NaN when
no finite endpoint exists). Plain single-argument integrands work too and
are accurate whenever their singular endpoints sit at zero or nowhere.

Divergence
----------
From refinement level 2 on, a side of the node sweep whose tail grows ends
the integration at once: its last finite term exceeds the truncation
tolerance and the finite term before it. The result is then
``converged=False`` with ``error_estimate=inf`` and the value of the last
completed level. A convergent transformed integrand decays
double-exponentially in |t| (Mori & Sugihara, J. Comput. Appl. Math. 127,
2001), so one still growing at the end of the representable range cannot
converge at any step size. Skipped nodes (rounded onto an endpoint, past the
map's range, or with a non-finite or overflowing integrand) are not terms,
so divergence at a finite endpoint, such as ``1/x`` on (0, 1), is caught as
well. A divergent volume stops at about 40 evaluations rather than after the
whole 12-level budget (over 40,000).

The verdict waits for level 2 because the last nodes of levels 0 and 1,
|t| = 6 and 6.5 (x near 1e138 and 1e227 on a half line), can still lie
inside the support of an integrand that only decays far out:
``exp(-x / 1e200)`` on (0, inf) still grows at |t| = 6. Level 2 reaches
|t| = 6.75, where x is near 1e291. An integrand that only starts to decay
beyond x of about 1e255 still grows at the last node of level 2 or 3 and is
called divergent, although the full budget would converge on it.

Manifold integrals are evaluated in the arc-length coordinate, where the
volume element is identically 1; this removes the metric's own endpoint
divergence before the integrand is ever seen.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable

from .manifold import DomainError, Interval, ManifoldModel, arclength_chart, chart_canonical_offset

_PI_2 = 0.5 * math.pi
# |t| beyond which every transform's weight underflows in double precision
_T_CAP = 6.8
# truncation of a level's node sweep may start only past this |t|, so an
# integrand spike close to an endpoint cannot be skipped over
_T_TRUNC_MIN = 3.0


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and refinement budget for the adaptive schemes."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_refinement_levels: int = 12

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_refinement_levels < 1:
            raise ValueError("need at least one refinement level")


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    converged: bool
    evaluations: int


class QuadratureConvergenceError(ArithmeticError):
    """Raised where a non-converged integral cannot be reported as a flag."""

    def __init__(self, message: str, result: QuadratureResult):
        super().__init__(f"{message} (best estimate {result.value!r}, "
                         f"error estimate {result.error_estimate!r})")
        self.result = result


def wants_offset(f) -> bool:
    """Whether ``f`` follows the two-argument ``f(x, xc)`` convention."""
    try:
        params = inspect.signature(f).parameters.values()
    except (TypeError, ValueError):
        return False
    positional = [
        p for p in params
        if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
    ]
    return len(positional) >= 2


def _finite_map(a: float, b: float):
    """tanh-sinh node map for (a, b): signed t -> (x, xc, weight)."""
    half = 0.5 * (b - a)

    def node(t: float):
        z = _PI_2 * math.sinh(t)
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
        w = _PI_2 * math.cosh(t) * half * sech2
        if t < 0:
            return a + off, off, w
        return b - off, -off, w

    return node


def _half_infinite_map(a: float, positive: bool):
    """exp-sinh node map for (a, inf) (or mirrored (-inf, a))."""

    def node(t: float):
        z = _PI_2 * math.sinh(t)
        if z > 700.0:
            return None
        off = math.exp(z)
        w = _PI_2 * math.cosh(t) * off
        if positive:
            return a + off, off, w
        return a - off, -off, w

    return node


def _doubly_infinite_map():
    """sinh-sinh node map for (-inf, inf)."""

    def node(t: float):
        z = _PI_2 * math.sinh(t)
        if abs(z) > 700.0:
            return None
        w = _PI_2 * math.cosh(t) * math.cosh(z)
        return math.sinh(z), math.nan, w

    return node


def _sweep_side(node_map, usable, call, h: float, first: int, step: int, sign: int,
                term_tol: float, counter: list[int]) -> tuple[float, bool]:
    """Sum weighted integrand values at t = sign*k*h for k = first, first+step, ...

    Stops at the hard |t| cap, or once three consecutive contributions past
    |t| = _T_TRUNC_MIN fall below ``term_tol`` (the double-exponential tail
    then contributes less than a couple of ``term_tol``). Returns the sum and
    whether the tail grows: the last finite term exceeds ``term_tol`` and
    the finite term before it. Skipped nodes (no node, a node rounding onto
    an endpoint, a non-finite or overflowing integrand) are not terms.
    """
    total = 0.0
    small = 0
    last = prev = math.inf
    k = first
    while k * h <= _T_CAP:
        r = node_map(sign * k * h)
        term = 0.0
        if r is not None:
            x, xc, w = r
            if w > 0.0 and usable(x, xc):
                try:
                    v = call(x, xc)
                except OverflowError:
                    v = math.inf
                counter[0] += 1
                if math.isfinite(v):
                    term = w * v
                    prev, last = last, abs(term)
        total += term
        if abs(term) <= term_tol:
            small += 1
            if small >= 3 and k * h >= _T_TRUNC_MIN:
                break
        else:
            small = 0
        k += step
    return total, term_tol < last and prev < last


def _de_integrate(node_map, usable, call, cfg: QuadratureConfig) -> QuadratureResult:
    """Trapezoid sums of the transformed integrand with step halving.

    Level L uses step ``h = 2**-L`` and reuses all previous evaluations, so
    only odd multiples of h are new. The level-to-level difference is the
    error estimate. From level 2 on, a side whose tail grows ends the
    integration as divergent (see the module docstring).
    """
    counter = [0]

    h = 1.0
    term_tol = 0.05 * cfg.abs_tol / h
    s = (_sweep_side(node_map, usable, call, h, 0, 1, +1, term_tol, counter)[0]
         + _sweep_side(node_map, usable, call, h, 1, 1, -1, term_tol, counter)[0])
    value = h * s
    err = math.inf

    for level in range(1, cfg.max_refinement_levels + 1):
        h *= 0.5
        term_tol = 0.05 * cfg.abs_tol / h
        odd = 0.0
        for sign in (+1, -1):
            side, grows = _sweep_side(node_map, usable, call, h, 1, 2, sign, term_tol, counter)
            if grows and level >= 2:
                return QuadratureResult(value, math.inf, False, counter[0])
            odd += side
        new_value = 0.5 * value + h * odd
        err = abs(new_value - value)
        value = new_value
        if level >= 2 and err <= max(cfg.abs_tol, cfg.rel_tol * abs(value)):
            return QuadratureResult(value, err, True, counter[0])

    return QuadratureResult(value, err, False, counter[0])


def integrate_chart(f: Callable, interval: Interval,
                    cfg: QuadratureConfig | None = None) -> QuadratureResult:
    """Integrate ``f`` over a chart interval with respect to the coordinate.

    ``f`` may diverge at open endpoints as long as the singularity is
    integrable; it is never evaluated outside the open interior. Integrands
    singular at a nonzero finite endpoint should use the two-argument
    ``f(x, xc)`` form (see module docstring) to be evaluated at full
    precision. On non-convergence the best estimate is returned with
    ``converged=False``.
    """
    if cfg is None:
        cfg = QuadratureConfig()
    lo, hi = interval.lo, interval.hi
    if interval.finite:
        node_map = _finite_map(lo, hi)
    elif math.isfinite(lo):
        node_map = _half_infinite_map(lo, positive=True)
    elif math.isfinite(hi):
        node_map = _half_infinite_map(hi, positive=False)
    else:
        node_map = _doubly_infinite_map()

    offset_aware = wants_offset(f)
    if offset_aware:
        call = f
    else:
        def call(x, xc, _f=f):
            return _f(x)

    def usable(x: float, xc: float) -> bool:
        # An offset-aware integrand is evaluated even where the node rounds
        # onto a finite endpoint: its exact offset is nonzero and that is
        # what the integrand uses. Plain integrands only see open-interior x.
        if not math.isfinite(x):
            return False
        if offset_aware and not math.isnan(xc):
            return xc != 0.0
        return lo < x < hi

    return _de_integrate(node_map, usable, call, cfg)


def integrate_manifold(f: Callable, model: ManifoldModel,
                       region: Interval | None = None,
                       cfg: QuadratureConfig | None = None) -> QuadratureResult:
    """Integrate ``f`` over ``region`` with respect to the Riemannian measure.

    Internally substitutes the arc-length coordinate, in which the volume
    element is 1, so ``integral f dmu = integral f(theta(s)) ds``. ``f`` may
    be offset-aware (``f(theta, co)``); the canonical offset is then derived
    exactly from the arc-length one.
    """
    if cfg is None:
        cfg = QuadratureConfig()
    domain = model.canonical_domain
    if region is None:
        region = domain
    if region.lo < domain.lo or region.hi > domain.hi:
        raise DomainError(
            f"region [{region.lo}, {region.hi}] exceeds the canonical domain "
            f"closure of '{model.name}'"
        )
    s_lo = model.arc_length_from_origin(region.lo)
    s_hi = model.arc_length_from_origin(region.hi)
    s_interval = Interval(s_lo, s_hi)
    s_chart = arclength_chart(model)

    if wants_offset(f):
        # chart_canonical_offset only trusts offsets anchored at the chart's
        # own endpoints; integration offsets anchored at an interior region
        # boundary fall back to naive ones, which are well conditioned there.
        def g(s: float, sc: float) -> float:
            theta, co = chart_canonical_offset(s_chart, s, sc)
            return f(theta, co)
    else:
        def g(s: float, sc: float) -> float:
            return f(model.arc_length_inverse(s))

    return integrate_chart(g, s_interval, cfg)


def expectation(p, f: Callable[[float], float],
                cfg: QuadratureConfig | None = None) -> QuadratureResult:
    """Expectation of ``f`` under an intrinsic density: ``integral f p dmu``.

    ``f`` is only called in the open interior. A node whose canonical offset
    underflows to 0.0 sits on an endpoint in theta: the density is still
    evaluated there, once like at every node, but the node is skipped as if
    its value were not finite.
    """

    def integrand(theta: float, co: float) -> float:
        v = p.value_offset(theta, co)
        if co == 0.0:
            return math.nan
        return f(theta) * v

    return integrate_manifold(integrand, p.model, None, cfg)


def interval_probability(p, region: Interval,
                         cfg: QuadratureConfig | None = None) -> QuadratureResult:
    """Probability mass an intrinsic density assigns to a canonical region."""
    return integrate_manifold(p.value_offset, p.model, region, cfg)
