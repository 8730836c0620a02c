"""Double-exponential quadrature over charts and over the manifold.

Finite intervals use the tanh-sinh transform, half-infinite ones exp-sinh,
and doubly infinite ones sinh-sinh. All three push the endpoints to infinity
in the transformed variable, so integrable endpoint singularities (the rule
rather than the exception here: the flat-prior integrand diverges at both
ends of (0, 1)) converge geometrically. Every integral has one fixed accuracy:
levels 0 to 12 of step halving, converged from level 2 on once a level
changes the value by at most ``max(1e-10, 1e-10 * |value|)``.

Endpoint offsets
----------------
A double ``x`` very close to a nonzero endpoint cannot represent its own
distance to that endpoint: the probability mass hiding within one ulp of
``theta = 1`` is of order ``eps**(1-q)`` for a ``(1-theta)**-q`` singularity,
which is far above the tolerances this package promises. Integrands may
therefore accept a second argument: ``f(x, xc)`` is called with ``xc`` the
exact signed offset of the node from the nearest finite endpoint
(``x = lo + xc`` when ``xc > 0``, ``x = hi + xc`` when ``xc < 0``, NaN when
no finite endpoint exists). Plain single-argument integrands work too, are
only called on the open interior (``density._clamped``), and are accurate
whenever their singular endpoints sit at zero or nowhere.

Divergence
----------
From refinement level 2 on, a side of the node sweep whose tail grows ends
the integration at once: its last finite term exceeds the truncation
tolerance and the finite term before it. The result is then
``converged=False`` with ``error_estimate=inf`` and the value of the last
completed level. A convergent transformed integrand decays
double-exponentially in |t| (Mori & Sugihara, J. Comput. Appl. Math. 127,
2001), so one still growing at the end of the representable range cannot
converge at any step size. A side ends at its first node that cannot be read
(past the map's range, at weight 0, x not finite, or an exact offset of 0), as
no later one can be either. Skipped nodes, where the integrand is not finite,
overflows or divides by zero, are not terms, so divergence at a finite
endpoint, such as ``1/x`` on (0, 1), is caught as well. A divergent volume
stops at about 40 evaluations rather than after the whole 12-level budget (over
40,000). An integral with no finite term by level 2, every evaluation skipped
or none made, ends so too.

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
Each node map's t-only parts are tabulated per map, level and side to the |t|
cap, built whole once and never changed, so concurrent integrals share them
without a lock (Bailey, Jeyabalan & Li, Exp. Math. 14, 2005; levels past 6 are
not kept); the per-node loop of ``_de_integrate`` reads them and finishes each
node in the per-node arithmetic order, so results are bit-identical. Node offsets
are exact and anchored at the endpoints of the interval integrated over, so
each integral calls the trusted ``core`` of its integrand as a
:class:`~fishergeom.density.Evaluator` on that interval (:func:`_integrand`,
the one rule): a density's own on its domain, and on a sub-interval one whose
core is the density's, which checks each offset. A manifold integral over a
sub-region gives each side's arc-length offsets the chart's check, decided once
a side as it would fall at every node: none where the side is anchored at the
chart domain's end, the naive offset where that end is infinite or far from
the anchor, else one check a node. The chart map's canonical offsets are
anchored at the canonical domain's ends, so a density's core trusts them. Where that
``Evaluator`` has ``tables`` (a column with no call a point), levels to 6
read its column over a cached sample table of each side's readable nodes in
its chart, checked once a row when built, and the nodes' weights cached with it:
``integrate_chart`` over its chart's domain, ``integrate_manifold`` and
``expectation`` over the whole domain (in the arc-length chart) for a core on
canonical points. ``evaluations`` still counts the rows the sweep reads, and
``expectation`` calls ``f`` only there. Every other integral runs once a node.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from functools import lru_cache
from types import FunctionType
from typing import Callable

from .density import ChartDensity, Evaluator, _clamped, _evaluator
from .manifold import (Chart, ChartSamples, DomainError, Interval, ManifoldModel, _sample_table,
                       identity_chart, naive_offset, verify_offset)

_PI_2 = 0.5 * math.pi
# |t| beyond which every transform's weight underflows in double precision
_T_CAP = 6.8
# truncation of a level's node sweep may start only past this |t|, so an
# integrand spike close to an endpoint cannot be skipped over
_T_TRUNC_MIN = 3.0
_ABS_TOL = _REL_TOL = 1e-10
_MAX_LEVEL = 12


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    converged: bool
    evaluations: int
    # evaluations zero-weighted: non-finite, overflow, division by 0, and expectation's
    # co == 0.0 guard nodes, until ROADMAP item 11 counts them apart
    nonfinite_skipped: int = 0


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
    """Whether ``f`` is ``f(x, xc)``: an :class:`Evaluator`, or two positional
    parameters without a default, read from a plain function's code (one with no
    attributes, so no ``__wrapped__``) as ``inspect.signature`` reads them."""
    if isinstance(f, Evaluator):
        return True
    if type(f) is FunctionType and not f.__dict__:
        required = f.__code__.co_argcount - len(f.__defaults__ or ())
        if required >= 0:   # else __defaults__ was set longer than the parameters
            return required >= 2
    try:
        params = inspect.signature(f).parameters.values()
    except (TypeError, ValueError):
        return False
    required = [p for p in params if p.default is p.empty
                and p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    return len(required) >= 2


def _integrand(f: Callable, interval: Interval) -> Evaluator:
    """The one rule for an integrand: ``f(x, xc)`` :func:`density._evaluator`
    on ``interval``, a plain ``f(x)`` :func:`density._clamped` into it."""
    return _evaluator(f, interval) if wants_offset(f) else _clamped(f, interval)


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


# (row, level, sign) -> a _table, published once. Over the `integrals` seeds 1-40 no op
# passed level 6 and 3 reached it; deeper levels are built per sweep (to 8: 4x the rows).
_TABLES: dict[tuple, tuple] = {}
_TABLE_LEVELS = 6


def _table(row, level: int, sign: int) -> tuple[tuple, int]:
    """The rows at t = sign * k * 2**-level up to _T_CAP (k from 1 on side -1 at
    level 0, odd k later) and the index of the first at |t| >= _T_TRUNC_MIN."""
    table = _TABLES.get((row, level, sign))
    if table is None:
        h = 0.5 ** level
        first, step = ((0 if sign > 0 else 1), 1) if level == 0 else (1, 2)
        ts = [k * h for k in range(first, int(_T_CAP / h) + 1, step)]
        table = tuple(row(sign * t) for t in ts), sum(t < _T_TRUNC_MIN for t in ts)
        if level <= _TABLE_LEVELS:
            table = _TABLES.setdefault((row, level, sign), table)
    return table


# Keyed by identity like manifold._chart_samples, and bounded to the tables of four charts.
@lru_cache(maxsize=4 * 2 * (_TABLE_LEVELS + 1))
def _side_samples(model: ManifoldModel, chart: Chart, level: int,
                  sign: int) -> tuple[ChartSamples, tuple, int]:
    """One side's nodes of one level over ``chart.domain`` to the first the sweep cannot
    read (see ``_de_integrate``), as a sample table, their weights, and the stop index."""
    row, w_scale, off_scale, sides = _node_map(chart.domain)
    anchor, sx, sxc = sides[sign]
    rows, trunc_from = _table(row, level, sign)
    nodes = []
    for p1, p2, m, div in rows:
        off = off_scale / m if div else off_scale * m
        x, xc, w = anchor + sx * off, sxc * off, p1 * w_scale * p2
        if not (w > 0.0 and math.isfinite(x) and xc != 0.0):
            break
        nodes.append((x, xc, w))
    xs, xcs, ws = zip(*nodes) if nodes else ((), (), ())
    return _sample_table(model, chart, xs, xcs), ws, trunc_from


def _de_integrate(call, interval: Interval, column=None, tables=None,
                  f=None) -> QuadratureResult:
    """Trapezoid sums of the transformed integrand with step halving.

    Level L uses step ``h = 2**-L`` and reuses all previous evaluations, so past
    level 0 only odd multiples of h are new: side +1, then side -1, each over
    its ``_table``, read by ``call`` or by ``call[sign]``, one reader a side. A
    side stops at its first node that cannot be read (no node or weight 0.0, x
    not finite, or an exact offset of 0), at the |t| cap, or once three
    consecutive terms fall below ``term_tol``, the last at or past the table's
    stop index (the double-exponential tail then contributes less than a couple
    of ``term_tol``); the row index ``i`` where it stopped counts its reads.
    Skipped nodes (an integrand that is not finite, overflows or divides by
    zero) add no term, and a nan term counts as large; a node whose x rounds
    onto a finite endpoint is read, as its exact offset is nonzero. The
    level-to-level difference is the error estimate. From level 2 on, a side
    whose tail grows (its last finite term exceeds ``term_tol`` and the finite
    term before it) ends the integration unconverged before the other side is
    swept, and so does no finite term yet after both sides. Up to
    ``_TABLE_LEVELS``, given ``tables = (model, chart)``, a loop of its own
    reads each side's :func:`_side_samples` weights beside ``column`` over its
    table, what ``call`` returns at each row's node, ``v`` at ``(theta, co)``
    read as ``nan if co == 0.0 else f(theta) * v`` given ``f``, then runs the
    per-node loop's row body. Every other level and integral runs once a node.
    """
    row, w_scale, off_scale, sides = _node_map(interval)
    isfinite = math.isfinite
    calls = call if type(call) is dict else dict.fromkeys((1, -1), call)
    evaluations = skipped = 0

    h, value = 2.0, 0.0     # level 0's value is then 0.0 + odd == odd: no side sums to -0.0
    for level in range(_MAX_LEVEL + 1):
        h *= 0.5
        term_tol = 0.05 * _ABS_TOL / h
        odd = 0.0
        for sign in (+1, -1):
            total = 0.0
            small = 0
            last = prev = math.inf
            i = -1
            if tables and level <= _TABLE_LEVELS:
                s, weights, trunc_from = _side_samples(*tables, level, sign)
                thetas, cos = s.thetas, s.cos
                for i, (w, v) in enumerate(zip(weights, column(s))):
                    if f is not None:
                        try:
                            v = math.nan if cos[i] == 0.0 else f(thetas[i]) * v
                        except (OverflowError, ZeroDivisionError):
                            v = math.inf
                    if v - v == 0.0:    # finite
                        term = w * v
                        total += term
                        prev, last = last, abs(term)
                        if not last <= term_tol:
                            small = 0
                            continue
                    else:
                        skipped += 1
                    small += 1
                    if small >= 3 and i >= trunc_from:
                        break
            else:
                rows, trunc_from = _table(row, level, sign)
                anchor, sx, sxc = sides[sign]
                side_call = calls[sign]
                for i, (p1, p2, m, div) in enumerate(rows):
                    off = off_scale / m if div else off_scale * m
                    x, xc, w = anchor + sx * off, sxc * off, p1 * w_scale * p2
                    if not (w > 0.0 and isfinite(x) and xc != 0.0):
                        i -= 1  # unread, as is every later node of the side
                        break
                    try:
                        v = side_call(x, xc)
                    except (OverflowError, ZeroDivisionError):
                        v = math.inf
                    if v - v == 0.0:    # finite
                        term = w * v
                        total += term
                        prev, last = last, abs(term)
                        if not last <= term_tol:
                            small = 0
                            continue
                    else:
                        skipped += 1
                    small += 1
                    if small >= 3 and i >= trunc_from:
                        break
            evaluations += i + 1
            if level >= 2 and term_tol < last and prev < last:     # the tail grows
                return QuadratureResult(value, math.inf, False, evaluations, skipped)
            odd += total
        if level >= 2 and skipped == evaluations:   # no finite term yet
            return QuadratureResult(value, math.inf, False, evaluations, skipped)
        new_value = 0.5 * value + h * odd
        err = abs(new_value - value)
        value = new_value
        if level >= 2 and err <= max(_ABS_TOL, _REL_TOL * abs(value)):
            return QuadratureResult(value, err, True, evaluations, skipped)

    return QuadratureResult(value, err, False, evaluations, skipped)


def integrate_chart(f: Callable, interval: Interval) -> QuadratureResult:
    """Integrate ``f`` over a chart interval with respect to the coordinate.

    ``f`` may diverge at open endpoints as long as the singularity is
    integrable; it is never evaluated outside the open interior. Integrands
    singular at a nonzero finite endpoint should use the two-argument
    ``f(x, xc)`` form (see module docstring) to be evaluated at full
    precision. On non-convergence the best estimate is returned with
    ``converged=False``.
    """
    f = _integrand(f, interval)
    return _de_integrate(f.core, interval, f.column, f.tables)


def integrate_manifold(f: Callable, model: ManifoldModel,
                       region: Interval | None = None) -> QuadratureResult:
    """Integrate ``f`` over ``region`` with respect to the Riemannian measure.

    Internally substitutes the arc-length coordinate, in which the volume
    element is 1, so ``integral f dmu = integral f(theta(s)) ds``. ``f`` may
    be offset-aware (``f(theta, co)``); the canonical offset is then derived
    exactly from the arc-length one. A plain ``f(theta)`` sees only the open
    interior: at a node whose theta rounds onto an end it is called at the
    nearest interior double.
    """
    return _integrate_manifold(_integrand(f, model.canonical_domain), model, region)


def _integrate_manifold(ev: Evaluator, model: ManifoldModel,
                        region: Interval | None = None, f=None) -> QuadratureResult:
    """:func:`integrate_manifold` of an :class:`Evaluator` ``ev`` on the
    canonical domain; where ``f`` is given (by :func:`expectation`, over the
    whole domain), of ``f(theta) * ev(theta, co)``, nan where ``co == 0.0``."""
    domain = model.canonical_domain
    region = region or domain
    if region.lo < domain.lo or region.hi > domain.hi:
        raise DomainError(f"region [{region.lo}, {region.hi}] exceeds the canonical domain "
                          f"closure of '{model.name}'")
    s_interval = Interval(*map(model.arc_length_from_origin, (region.lo, region.hi)))
    s_chart = model.arclength

    # Over the whole domain the map's offsets go unchecked. On the coin family
    # no check changes one; on the Poisson family one would past s ~ 2.6e154,
    # where the map returns (inf, inf) and a side table's checked offset is
    # nan, but no rate-family density carries ``tables``, so no column is read
    # there. Over a sub-region a side anchored at the chart domain's end on its
    # offsets' side reads them unchecked too: ``end + sc`` is the node, bit for
    # bit. Where that end is infinite, or more than ``bound`` from the anchor,
    # the check would replace every offset, as its tolerance is below 0.41 of
    # ``bound`` and the rounding of ``end + sc`` and of the node below 0.03 of it
    # plus 2**-52 |end - anchor|; so the naive one is taken. Any other side is
    # checked once a node. The map's canonical offsets are anchored at the canonical
    # domain's ends either way. The readers are picked once: one closure a node.
    core, canon, s_dom = ev.core, s_chart.canonical_offset, s_chart.domain

    def exact(s: float, sc: float) -> float:
        return core(*canon(s, sc))

    def naive(s: float, sc: float) -> float:
        return core(*canon(s, naive_offset(s_dom, s)))

    def checked(s: float, sc: float) -> float:
        return core(*canon(s, verify_offset(s_dom, s, sc)))

    if f is not None:   # over the whole domain: the core first, then the guard, then f
        def g(s: float, sc: float) -> float:
            theta, co = canon(s, sc)
            v = core(theta, co)
            return math.nan if co == 0.0 else f(theta) * v
    elif region == domain:
        g = exact
    else:
        lo, hi = s_interval.lo, s_interval.hi
        bound = 1e-14 * (hi - lo + max(1.0, abs(lo), abs(hi)))     # inf unless s is finite
        g = {}
        for sign, (anchor, sx, sxc) in _node_map(s_interval)[3].items():
            end = s_dom.lo if sxc > 0 else s_dom.hi if sxc < 0 else math.nan
            g[sign] = (exact if anchor == end and sx == sxc else naive
                       if not math.isfinite(end) or abs(end - anchor) > bound else checked)

    # over the whole domain, the column of a core on canonical points
    whole = ev.tables == (model, identity_chart(model)) and s_interval == s_chart.domain
    return _de_integrate(g, s_interval, ev.column, (model, s_chart) if whole else None, f)


def expectation(p, f: Callable[[float], float]) -> QuadratureResult:
    """Expectation of ``f`` under an intrinsic density: ``integral f p dmu``.

    ``f`` is called off the endpoints, at a theta that may round to 1.0: a
    node where ``f`` overflows or divides by zero is skipped, while any
    other error (``ValueError`` from ``log(1 - t)``) is raised. A node whose
    canonical offset underflows to 0.0 sits on an endpoint in theta: the
    density is still evaluated there, once like at every node, but the node
    is skipped as if its value were not finite, and ``nonfinite_skipped``
    counts it (E[theta] under Beta(1/2, 1/2) reports 1).
    """
    return _integrate_manifold(p.value_offset, p.model, None, f)


def interval_probability(p, region: Interval) -> QuadratureResult:
    """Probability mass an intrinsic density assigns to a canonical region."""
    return integrate_manifold(p.value_offset, p.model, region)


def normalization_check(d) -> float:
    """Total mass of a chart or intrinsic density, not compared against 1;
    a non-convergent integral raises :class:`QuadratureConvergenceError`."""
    if isinstance(d, ChartDensity):
        res = integrate_chart(d.value_offset, d.chart.domain)
    else:
        res = integrate_manifold(d.value_offset, d.model)
    return _require_converged(res, f"normalization integral for '{d.label}'").value


def volume_result(model: ManifoldModel, region: Interval | None = None) -> QuadratureResult:
    """Riemannian volume ``integral of sqrt(G) d theta`` over ``region``
    (default the whole canonical domain), flagged if it does not converge."""
    return _integrate_manifold(Evaluator(lambda theta, co: 1.0, model.canonical_domain),
                               model, region)


def volume(model: ManifoldModel, region: Interval | None = None) -> float:
    """Like :func:`volume_result`, but only the value; a divergent or
    non-convergent integral raises :class:`NonFiniteVolumeError` with the
    whole result attached."""
    return _require_converged(volume_result(model, region),
                              f"volume integral for '{model.name}'", NonFiniteVolumeError).value
