"""Fisher-metric geometry of one-parameter statistical families.

Represents probability distributions over a statistical manifold both as
chart densities (tied to one parametrization) and as intrinsic densities
(with respect to the Riemannian volume measure), converts between the two,
and computes parametrization-invariant quantities: volume, Fisher-Rao
distance, expectations, interval probabilities, and the invariant analogue
of the maximum a posteriori point estimate.
"""

__version__ = "0.1.0"

from .density import (
    BetaParams,
    ChartDensity,
    ChartModelMismatchError,
    IntrinsicDensity,
    beta_chart_density,
    beta_intrinsic_density,
    chart_from_intrinsic,
    intrinsic_from_chart,
    normalization_check,
    pushforward,
)
from .embed import CurveRow, DensityCurve, EmbeddedPoint, embed_bernoulli, sample_curve
from .manifold import (
    Chart,
    DomainError,
    Interval,
    ManifoldModel,
    arclength_chart,
    arcsin_chart,
    bernoulli_model,
    charts_for,
    exponential_model,
    fisher_rao_distance,
    get_chart,
    get_model,
    identity_chart,
    interior_grid,
    metric_in_chart,
    poisson_model,
    reciprocal_chart,
)
from .mode import ModeResult, beta_mode_analytic, map_estimate, mapi_estimate
from .quadrature import (
    NonFiniteVolumeError,
    QuadratureConfig,
    QuadratureConvergenceError,
    QuadratureResult,
    expectation,
    integrate_chart,
    integrate_manifold,
    interval_probability,
    volume,
    volume_result,
)

__all__ = [
    "BetaParams",
    "Chart",
    "ChartDensity",
    "ChartModelMismatchError",
    "CurveRow",
    "DensityCurve",
    "DomainError",
    "EmbeddedPoint",
    "Interval",
    "IntrinsicDensity",
    "ManifoldModel",
    "ModeResult",
    "NonFiniteVolumeError",
    "QuadratureConfig",
    "QuadratureConvergenceError",
    "QuadratureResult",
    "arclength_chart",
    "arcsin_chart",
    "beta_chart_density",
    "beta_intrinsic_density",
    "beta_mode_analytic",
    "bernoulli_model",
    "chart_from_intrinsic",
    "charts_for",
    "embed_bernoulli",
    "expectation",
    "exponential_model",
    "fisher_rao_distance",
    "get_chart",
    "get_model",
    "identity_chart",
    "integrate_chart",
    "integrate_manifold",
    "interior_grid",
    "interval_probability",
    "intrinsic_from_chart",
    "map_estimate",
    "mapi_estimate",
    "metric_in_chart",
    "normalization_check",
    "poisson_model",
    "pushforward",
    "reciprocal_chart",
    "sample_curve",
    "volume",
    "volume_result",
]
