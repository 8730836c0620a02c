"""Every density is read through one ``Evaluator``.

A density's ``value_offset`` may be replaced by any ``(x, xc)`` callable: a
plain function, a ``functools.wraps`` wrapper, an ``Evaluator`` subclass, or
a look-alike that carries ``core`` and ``domain`` but is no ``Evaluator``.
Each becomes the core of an ``Evaluator`` on the density's domain, so every
reader, sub-interval integrals included, hands it checked offsets; the
``offsetless`` mark travels on the ``Evaluator`` and through conversions.
"""

import dataclasses
import functools
import math

import pytest

from fishergeom import (
    BetaParams,
    ChartDensity,
    Interval,
    IntrinsicDensity,
    beta_chart_density,
    bernoulli_model,
    chart_from_intrinsic,
    charts_for,
    integrate_chart,
    intrinsic_from_chart,
    map_estimate,
    pushforward,
)
from fishergeom.density import Evaluator, _canonical, endpoint_behaviour
from fishergeom.manifold import _chart_samples, verify_offset

BERNOULLI = bernoulli_model()
CHARTS = charts_for(BERNOULLI)
THETA = CHARTS["theta"]
UNIT = BERNOULLI.canonical_domain
HALF = Interval(0.0, 0.5)


class _Subclass(Evaluator):
    """An ``Evaluator`` in all but its type."""


class _LookAlike:
    """Carries ``core`` and ``domain`` as an ``Evaluator`` does, and calls its
    core with whatever offset it is given."""

    def __init__(self, core, domain):
        self.core, self.domain = core, domain

    def __call__(self, x, xc):
        return self.core(x, xc)


def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def _recording(kind, seen):
    """A replacement ``value_offset`` of the Beta(2, 3) theta-chart density of
    the given kind, appending each ``(x, xc)`` its core is handed to ``seen``."""
    beta = beta_chart_density(BetaParams(2.0, 3.0)).value_offset

    def core(x, xc):
        seen.append((x, xc))
        return beta.core(x, xc)

    if kind == "function":
        return core
    if kind == "wraps":
        @functools.wraps(beta)
        def wrapper(x, xc):
            return core(x, xc)
        return wrapper
    if kind == "subclass":
        return _Subclass(core, UNIT)
    return _LookAlike(core, UNIT)


KINDS = ["function", "wraps", "subclass", "look-alike"]


@pytest.mark.parametrize("kind", KINDS)
def test_a_replaced_value_offset_is_the_core_of_an_evaluator(kind):
    seen = []
    w = _recording(kind, seen)
    rho = dataclasses.replace(beta_chart_density(BetaParams(2.0, 3.0)), value_offset=w)
    assert type(rho.value_offset) is Evaluator and rho.value_offset.core is w
    assert rho.value_offset.domain == UNIT
    for d in (ChartDensity(BERNOULLI, THETA, rho.value, "w", w),
              IntrinsicDensity(BERNOULLI, rho.value, "w", w)):
        assert type(d.value_offset) is Evaluator and d.value_offset.core is w
    # conversions and mode searches read it too
    seen.clear()
    intrinsic_from_chart(rho).value(0.3)
    pushforward(rho, CHARTS["arcsin"]).value(0.3)
    map_estimate(rho)
    assert seen


@pytest.mark.parametrize("kind", KINDS)
def test_a_sub_interval_offset_reaches_the_core_checked(kind):
    # over (0, 0.5) the nodes near 0.5 carry offsets anchored at 0.5, which
    # (0, 1) rejects: the density's Evaluator checks them before its core
    seen = []
    rho = dataclasses.replace(beta_chart_density(BetaParams(2.0, 3.0)),
                              value_offset=_recording(kind, seen))
    res = integrate_chart(rho.value_offset, HALF)
    assert res.converged and res.evaluations == len(seen)
    assert all(_same(verify_offset(UNIT, x, xc), xc) for x, xc in seen)
    # as given, those offsets would not pass the check
    raw = []
    integrate_chart(lambda x, xc: raw.append((x, xc)) or 1.0, HALF)
    assert not all(_same(verify_offset(UNIT, x, xc), xc) for x, xc in raw)


@pytest.mark.parametrize("kind", KINDS)
def test_endpoint_behaviour_reads_the_mark_from_the_evaluator(kind):
    # at theta = 1, where ulp(1) > 1e-100, an offsetless core is probed at
    # offsets theta can hold; one that reads offsets, at the exact ones
    seen = []
    f = dataclasses.replace(beta_chart_density(BetaParams(2.0, 3.0)),
                            value_offset=_recording(kind, seen)).value_offset
    assert not f.offsetless
    exponent, limit = endpoint_behaviour(f, False)
    assert (exponent, limit) == endpoint_behaviour(beta_chart_density(BetaParams(2.0, 3.0))
                                                   .value_offset, False)
    assert [xc for _, xc in seen] == [-1e-100, -1e-50]
    seen.clear()
    assert endpoint_behaviour(f._replace(offsetless=True), False)[1] == 0.0
    assert [xc for _, xc in seen] == [-math.ulp(1.0), -1e-8]


def test_conversions_carry_the_offsetless_mark():
    rho = ChartDensity(BERNOULLI, THETA, lambda t: 6.0 * t * (1.0 - t), "6t(1-t)")
    p = IntrinsicDensity(BERNOULLI, lambda t: 1.0 / math.pi, "flat")
    converted = [intrinsic_from_chart(rho), chart_from_intrinsic(p, THETA),
                 *[pushforward(rho, c) for c in CHARTS.values()],
                 *[chart_from_intrinsic(p, c) for c in CHARTS.values()]]
    for d in (rho, p, *converted):
        assert d.value_offset.offsetless and _canonical(d).offsetless, d.label
    beta = beta_chart_density(BetaParams(2.0, 3.0))
    assert not any(d.value_offset.offsetless
                   for d in (beta, intrinsic_from_chart(beta), pushforward(beta, CHARTS["arcsin"])))


@pytest.mark.parametrize("kind", KINDS + ["value-only", "value-only intrinsic"])
def test_canonical_column_is_always_set(kind):
    if kind == "value-only":
        d = ChartDensity(BERNOULLI, THETA, lambda t: 6.0 * t * (1.0 - t), kind)
    elif kind == "value-only intrinsic":
        d = IntrinsicDensity(BERNOULLI, lambda t: 1.0 / math.pi, kind)
    else:
        d = dataclasses.replace(beta_chart_density(BetaParams(2.0, 3.0)),
                                value_offset=_recording(kind, []))
    samples = _chart_samples(BERNOULLI, CHARTS["arclength"], 257)
    for each in (d, pushforward(d, CHARTS["arcsin"]) if kind != "value-only intrinsic" else d):
        read = _canonical(each)
        assert type(read) is Evaluator and read.domain == UNIT and read.column is not None
        assert repr(read.column(samples)) == repr(list(map(read.core, samples.thetas,
                                                           samples.cos)))
