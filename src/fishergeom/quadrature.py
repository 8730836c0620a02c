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
map's range, or where the integrand is not finite, overflows or divides by
zero) are not terms, so divergence at a finite endpoint, such as ``1/x`` on
(0, 1), is caught as well. A divergent volume stops at about 40 evaluations
rather than after the whole 12-level budget (over 40,000).

The verdict waits for level 2 because the last nodes of levels 0 and 1,
|t| = 6 and 6.5 (x near 1e138 and 1e227 on a half line), can still lie
inside the support of an integrand that only decays far out:
``exp(-x / 1e200)`` on (0, inf) still grows at |t| = 6. Level 2 reaches
|t| = 6.75, where x is near 1e291. An integrand that only starts to decay
beyond x of about 1e255 still grows at the last node of level 2 or 3 and is
called divergent, although the full budget would converge on it.

Manifold integrals, the volume among them, are evaluated in the arc-length
coordinate, where the volume element is identically 1; this removes the
metric's own endpoint divergence before the integrand is ever seen. Results
are flagged, not raised; where a converged finite value is needed, one check
raises :class:`QuadratureConvergenceError` with the whole result attached.

Node tables and trusted offsets
-------------------------------
Each node map's t-only parts are cached per map, level and side as far as
sweeps reach (Bailey, Jeyabalan & Li, Exp. Math. 14, 2005; levels past 8 are
not kept); the rest of a node keeps the per-node arithmetic order, so results
are bit-identical. Node offsets are exact and anchored at the endpoints of
the interval integrated over, so an integral over a density's own domain
calls its trusted ``core``. A manifold integral checks each offset once,
where it enters: a sub-region's arc-length offset as it enters the chart's
domain. The chart map's canonical offsets are anchored at the canonical
domain's ends, so the density's trusted core takes them as given.
"""

from __future__ import annotations

import inspect
import math
import threading
from dataclasses import dataclass
from functools import partial
from typing import Callable

from .manifold import DomainError, Interval, ManifoldModel, chart_canonical_offset

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
        if not (self.abs_tol > 0 and self.rel_tol > 0):     # NaN fails too
            raise ValueError("tolerances must be positive")
        if not isinstance(self.max_refinement_levels, int):
            raise ValueError("the refinement level count must be an int")
        if self.max_refinement_levels < 1:
            raise ValueError("need at least one refinement level")


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    converged: bool
    evaluations: int
    nonfinite_skipped: int = 0  # evaluations zero-weighted: non-finite, overflow, division by 0


class QuadratureConvergenceError(ArithmeticError):
    """Raised where a non-converged integral cannot be reported as a flag."""

    def __init__(self, message: str, result: QuadratureResult):
        super().__init__(f"{message} (best estimate {result.value!r}, "
                         f"error estimate {result.error_estimate!r})")
        self.result = result


class NonFiniteVolumeError(QuadratureConvergenceError):
    """The volume integral of a model diverges (or failed to converge)."""


def _require_converged(res: QuadratureResult, what: str,
                       error=QuadratureConvergenceError) -> QuadratureResult:
    """``res`` if it converged to a finite value; else raise ``error`` with it."""
    if res.converged and math.isfinite(res.value):
        return res
    raise error(f"{what} did not converge", res)


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


def _finite_row(t: float) -> tuple:
    """tanh-sinh: ``pi/2 cosh t``, ``sech^2 z``, and ``e^{2|z|} + 1`` to divide
    ``2 half`` by (past 2|z| = 700, ``e^{-2|z|}`` to multiply it by)."""
    z = _PI_2 * math.sinh(t)
    az = abs(z)
    if az > 300.0:
        sech2 = 4.0 * math.exp(-2.0 * az)
    else:
        c = math.cosh(az)
        sech2 = 1.0 / (c * c)
    if 2.0 * az > 700.0:
        return _PI_2 * math.cosh(t), sech2, math.exp(-2.0 * az), False
    return _PI_2 * math.cosh(t), sech2, math.exp(2.0 * az) + 1.0, True


_NO_NODE = (0.0, 1.0, 1.0, False)  # zero weight: past an infinite map's range


def _half_infinite_row(t: float) -> tuple:
    """exp-sinh: the weight and the distance ``e^z``."""
    z = _PI_2 * math.sinh(t)
    if z > 700.0:
        return _NO_NODE
    off = math.exp(z)
    return _PI_2 * math.cosh(t) * off, 1.0, off, False


def _doubly_infinite_row(t: float) -> tuple:
    """sinh-sinh: the weight and the node ``sinh z``."""
    z = _PI_2 * math.sinh(t)
    if abs(z) > 700.0:
        return _NO_NODE
    return _PI_2 * math.cosh(t) * math.cosh(z), 1.0, math.sinh(z), False


def _node_map(interval: Interval) -> tuple:
    """``(row, w_scale, off_scale, sides)``: ``row(t) = (p1, p2, m, div)`` gives weight
    ``p1 * w_scale * p2``, distance ``off = off_scale / m`` (``* m`` unless ``div``), and
    with ``sides[sign] = (anchor, sx, sxc)`` node ``anchor + sx * off``, offset ``sxc * off``."""
    lo, hi = interval.lo, interval.hi
    if interval.finite:
        half = 0.5 * (hi - lo)
        return _finite_row, half, 2.0 * half, {-1: (lo, 1.0, 1.0), 1: (hi, -1.0, -1.0)}
    if math.isfinite(lo):
        return _half_infinite_row, 1.0, 1.0, dict.fromkeys((-1, 1), (lo, 1.0, 1.0))
    if math.isfinite(hi):
        return _half_infinite_row, 1.0, 1.0, dict.fromkeys((-1, 1), (hi, -1.0, -1.0))
    return _doubly_infinite_row, 1.0, 1.0, dict.fromkeys((-1, 1), (0.0, 1.0, math.nan))


# (row, level, sign) -> rows in sweep order, each flagged |t| >= _T_TRUNC_MIN.
# Deeper levels (<1% of sweeps) are not kept: Beta(0.02369, 0.05) alone would keep 14 MB.
_TABLES: dict[tuple, list] = {}
_TABLE_LEVELS = 8
_TABLE_LOCK = threading.Lock()


def _extend(rows: list, row, level: int, sign: int) -> bool:
    """Append the next row of a table; False past ``_T_CAP``."""
    first, step = ((0 if sign > 0 else 1), 1) if level == 0 else (1, 2)
    with _TABLE_LOCK:
        kh = (first + len(rows) * step) * 0.5 ** level
        if kh > _T_CAP:
            return False
        rows.append(row(sign * kh) + (kh >= _T_TRUNC_MIN,))
    return True


def _sweep_side(node_map, level: int, sign: int, call, offset_aware: bool,
                interval: Interval, term_tol: float, counts: list[int]) -> tuple[float, bool]:
    """Sum weighted integrand values at t = sign*k*2**-level, for k = 0, 1, ...
    at level 0 (from 1 on side -1) and odd k later, from the node tables.

    Stops at the hard |t| cap, or once three consecutive contributions past
    |t| = _T_TRUNC_MIN fall below ``term_tol`` (the double-exponential tail
    then contributes less than a couple of ``term_tol``). Returns the sum and
    whether the tail grows: the last finite term exceeds ``term_tol`` and
    the finite term before it. Skipped nodes (no node, a node rounding onto
    an endpoint, an integrand that is not finite, overflows or divides by
    zero, counted in ``counts[1]``; ``counts[0]`` counts evaluations) are
    not terms. An offset-aware integrand is evaluated where its node rounds
    onto a finite endpoint, as its exact offset is nonzero; plain ones only
    see the open interior.
    """
    row, w_scale, off_scale, sides = node_map
    anchor, sx, sxc = sides[sign]
    lo, hi = interval.lo, interval.hi
    isfinite = math.isfinite
    rows = _TABLES.setdefault((row, level, sign), []) if level <= _TABLE_LEVELS else []
    total = 0.0
    small = 0
    last = prev = math.inf
    i = 0
    while i < len(rows) or _extend(rows, row, level, sign):
        p1, p2, m, div, past_min = rows[i]
        i += 1
        w = p1 * w_scale * p2
        term = 0.0
        if w > 0.0:
            off = off_scale / m if div else off_scale * m
            x = anchor + sx * off
            xc = sxc * off
            if isfinite(x) and (xc != 0.0 if offset_aware else lo < x < hi):
                try:
                    v = call(x, xc)
                except (OverflowError, ZeroDivisionError):
                    v = math.inf
                counts[0] += 1
                if isfinite(v):
                    term = w * v
                    prev, last = last, abs(term)
                else:
                    counts[1] += 1
        total += term
        if abs(term) <= term_tol:
            small += 1
            if small >= 3 and past_min:
                break
        else:
            small = 0
    return total, term_tol < last and prev < last


def _de_integrate(call, offset_aware: bool, interval: Interval,
                  cfg: QuadratureConfig) -> QuadratureResult:
    """Trapezoid sums of the transformed integrand with step halving.

    Level L uses step ``h = 2**-L`` and reuses all previous evaluations, so
    past level 0 only odd multiples of h are new. The level-to-level
    difference is the error estimate. From level 2 on, a side whose tail
    grows ends the integration as divergent (see the module docstring).
    """
    node_map = _node_map(interval)
    counts = [0, 0]

    h, value = 2.0, 0.0     # level 0's value is then 0.0 + odd == odd: no side sums to -0.0
    for level in range(cfg.max_refinement_levels + 1):
        h *= 0.5
        term_tol = 0.05 * cfg.abs_tol / h
        odd = 0.0
        for sign in (+1, -1):
            side, grows = _sweep_side(node_map, level, sign, call, offset_aware, interval,
                                      term_tol, counts)
            if grows and level >= 2:
                return QuadratureResult(value, math.inf, False, *counts)
            odd += side
        new_value = 0.5 * value + h * odd
        err = abs(new_value - value)
        value = new_value
        if level >= 2 and err <= max(cfg.abs_tol, cfg.rel_tol * abs(value)):
            return QuadratureResult(value, err, True, *counts)

    return QuadratureResult(value, err, False, *counts)


def _trusted(f, interval: Interval):
    """The trusted core of ``f`` if ``f`` checks its offsets against
    ``interval`` (a density's ``value_offset``), else ``f`` as given."""
    return f.core if getattr(f, "domain", None) == interval else f


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
    offset_aware = wants_offset(f)
    if offset_aware:
        call = _trusted(f, interval)
    else:
        def call(x, xc, _f=f):
            return _f(x)
    return _de_integrate(call, offset_aware, interval, cfg)


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
    s_chart = model.arclength

    if wants_offset(f):
        # Over the whole domain no check can change an offset. Offsets anchored
        # at an interior region boundary fail the chart's check and fall back
        # to naive ones, which are well conditioned there. Either way the map's
        # canonical offsets are anchored at the canonical domain's ends.
        f = _trusted(f, domain)
        if region == domain:
            to_canonical = s_chart.canonical_offset
        else:
            to_canonical = partial(chart_canonical_offset, s_chart)

        def g(s: float, sc: float) -> float:
            theta, co = to_canonical(s, sc)
            return f(theta, co)
    else:
        def g(s: float, sc: float) -> float:
            return f(s_chart.to_canonical(s))

    return _de_integrate(g, True, s_interval, cfg)


def expectation(p, f: Callable[[float], float],
                cfg: QuadratureConfig | None = None) -> QuadratureResult:
    """Expectation of ``f`` under an intrinsic density: ``integral f p dmu``.

    ``f`` is called off the endpoints, at a theta that may round to 1.0: a
    node where ``f`` overflows or divides by zero is skipped, while any
    other error (``ValueError`` from ``log(1 - t)``) is raised. A node whose
    canonical offset underflows to 0.0 sits on an endpoint in theta: the
    density is still evaluated there, once like at every node, but the node
    is skipped as if its value were not finite.
    """
    density = _trusted(p.value_offset, p.model.canonical_domain)

    def integrand(theta: float, co: float) -> float:
        v = density(theta, co)
        if co == 0.0:
            return math.nan
        return f(theta) * v

    return integrate_manifold(integrand, p.model, None, cfg)


def interval_probability(p, region: Interval,
                         cfg: QuadratureConfig | None = None) -> QuadratureResult:
    """Probability mass an intrinsic density assigns to a canonical region."""
    return integrate_manifold(p.value_offset, p.model, region, cfg)


def volume_result(model: ManifoldModel, region: Interval | None = None,
                  cfg: QuadratureConfig | None = None) -> QuadratureResult:
    """Riemannian volume ``integral of sqrt(G) d theta`` over ``region``
    (default the whole canonical domain), flagged if it does not converge."""
    return integrate_manifold(lambda theta: 1.0, model, region, cfg)


def volume(model: ManifoldModel, region: Interval | None = None,
           cfg: QuadratureConfig | None = None) -> float:
    """Like :func:`volume_result`, but only the value; a divergent or
    non-convergent integral raises :class:`NonFiniteVolumeError` with the
    whole result attached."""
    return _require_converged(volume_result(model, region, cfg),
                              f"volume integral for '{model.name}'", NonFiniteVolumeError).value
