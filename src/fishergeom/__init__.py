"""Fisher-metric geometry of one-parameter statistical families.

Represents probability distributions over a statistical manifold both as
chart densities (tied to one parametrization) and as intrinsic densities
(with respect to the Riemannian volume measure), converts between the two,
and computes parametrization-invariant quantities: volume, Fisher-Rao
distance, expectations, interval probabilities, and the invariant analogue
of the maximum a posteriori point estimate.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the module it lives in. A module is imported when one
# of its names is first read (PEP 562), so ``import fishergeom.cli`` loads
# only what the command line needs up front.
_MODULES = {
    **dict.fromkeys((
        "BetaParams", "ChartDensity", "ChartModelMismatchError", "CurveRow",
        "DensityCurve", "IntrinsicDensity", "beta_chart_density",
        "beta_intrinsic_density", "chart_from_intrinsic", "intrinsic_from_chart",
        "pushforward", "sample_curve",
    ), "density"),
    **dict.fromkeys((
        "Chart", "DomainError", "Interval", "ManifoldModel", "arclength_chart",
        "arcsin_chart", "bernoulli_model", "charts_for", "exponential_model",
        "fisher_rao_distance", "get_chart", "get_model", "identity_chart",
        "interior_grid", "metric_in_chart", "poisson_model", "reciprocal_chart",
    ), "manifold"),
    **dict.fromkeys((
        "ModeResult", "beta_mode_analytic", "map_estimate", "mapi_estimate",
    ), "mode"),
    **dict.fromkeys((
        "NonFiniteVolumeError", "QuadratureConvergenceError", "QuadratureResult",
        "expectation", "integrate_chart", "integrate_manifold", "interval_probability",
        "normalization_check", "volume", "volume_result",
    ), "quadrature"),
}

__all__ = sorted(_MODULES)


def __getattr__(name: str):
    module = _MODULES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULES})
