"""Planar embedding of the coin family and density-curve sampling.

The coin family with its Fisher metric is isometric to the quarter circle of
radius 2: ``e(theta) = (2 sqrt(theta), 2 sqrt(1 - theta))``, with theta = 0
at (0, 2) and theta = 1 at (2, 0). Curve length along the embedding equals
the Fisher-Rao distance, which the tests verify against fine polylines.

``sample_curve`` tabulates a density over a chart grid, carrying *both* the
chart density and the intrinsic density per row (plus the embedded point):
the data needed to plot the two side by side. Its points, their embedding
and the conversion factors ``sqrt(G)`` and ``|dtheta/dx|`` at them come from
the sample table the mode scan shares (``manifold._chart_samples``), which
depends only on the model, the chart and ``n``; a curve looks it up once.
Each row evaluates the density once (``density._curve_columns``); an
intrinsic or theta-chart density is evaluated over the whole table at once
by its column (``density._column``), which for a Beta density reads the
table's cached log distances to both ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

from .density import ChartDensity, IntrinsicDensity, _curve_columns
from .manifold import Chart, DomainError, _chart_samples, _require_model, bernoulli_model


@dataclass(frozen=True)
class EmbeddedPoint:
    x: float
    y: float


def embed_bernoulli(theta: float) -> EmbeddedPoint:
    """Embed a coin-family point on the radius-2 quarter circle."""
    if not 0.0 <= theta <= 1.0:
        raise DomainError(f"theta must lie in [0, 1], got {theta!r}")
    return EmbeddedPoint(*bernoulli_model().embedding(theta))


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


def sample_curve(d: ChartDensity | IntrinsicDensity, chart: Chart, n: int) -> DensityCurve:
    """Tabulate a density over ``n`` interior grid points of ``chart``.

    Rows are strictly increasing in the chart coordinate and hold the chart
    density, the intrinsic density (both from one evaluation of ``d``; two in
    a chart density's own non-identity chart), and the embedded point (NaN
    for a model without an embedding).
    """
    model = d.model
    _require_model(chart, model)
    s = _chart_samples(model, chart, n)
    rhos, ps = _curve_columns(d, chart, s)
    rows = map(tuple.__new__, repeat(CurveRow), zip(s.xs, s.thetas, rhos, ps, s.exs, s.eys))
    return DensityCurve(model_name=model.name, chart_name=chart.name, label=d.label,
                        samples=n, rows=tuple(rows))
