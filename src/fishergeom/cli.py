"""Command-line interface: analyze Beta priors over the coin manifold.

Subcommands cover the library surface: ``volume``, ``density``, ``mode``,
``expect``, ``prob``, ``distance``, ``embed``. Results are emitted as CSV
(default), JSON, or a self-contained SVG line plot; output is deterministic
for a fixed request apart from the version header.

Exit codes: 0 success, 1 numerical failure (non-convergent quadrature or
optimizer, with the achieved error estimate on stderr, or any other
arithmetic error), 2 usage error (nothing is written).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

from . import __version__
from .density import BetaParams, beta_chart_density, intrinsic_from_chart, pushforward
from .embed import DensityCurve, sample_curve
from .manifold import (
    DomainError,
    Interval,
    charts_for,
    finite_volume_result,
    fisher_rao_distance,
    get_model,
)
from .mode import map_estimate, mapi_estimate
from .quadrature import QuadratureConvergenceError, expectation, interval_probability

_FORMATS = ("csv", "json", "svg")
_MODELS = ("bernoulli", "poisson", "exponential")


@dataclass(frozen=True)
class CliRequest:
    subcommand: str
    model: str = "bernoulli"
    chart: str = "theta"
    alpha: float | None = None
    beta: float | None = None
    lo: float | None = None
    hi: float | None = None
    p1: float | None = None
    p2: float | None = None
    power: int = 1
    kind: str = "mapi"
    samples: int = 1001
    fmt: str = "csv"
    output: str = "-"


class UsageError(ValueError):
    pass


def _fmt(v: float) -> str:
    """17 significant digits; divergence as the literal token ``inf``."""
    if math.isnan(v):
        return "nan"
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return f"{v:.17g}"


def _jsonable(v):
    if isinstance(v, float):
        if math.isnan(v):
            return None
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
    return v


def _require_beta(req: CliRequest) -> BetaParams:
    if req.model != "bernoulli":
        raise UsageError(f"'{req.subcommand}' needs a Beta density and therefore --model bernoulli")
    if req.alpha is None or req.beta is None:
        raise UsageError(f"'{req.subcommand}' requires --alpha and --beta")
    try:
        return BetaParams(req.alpha, req.beta)
    except ValueError as e:
        raise UsageError(str(e)) from None


def _get_chart(model, name: str):
    charts = charts_for(model)
    if name not in charts:
        raise UsageError(f"unknown chart '{name}' for model '{model.name}'; "
                         f"available: {', '.join(sorted(charts))}")
    return charts[name]


def _request_meta(req: CliRequest) -> dict:
    meta = {"subcommand": req.subcommand, "model": req.model}
    if req.subcommand in ("density", "mode", "embed"):
        meta["chart"] = req.chart
    if req.alpha is not None:
        meta["alpha"] = req.alpha
    if req.beta is not None:
        meta["beta"] = req.beta
    if req.subcommand == "prob":
        meta["from"] = req.lo
        meta["to"] = req.hi
    if req.subcommand == "distance":
        meta["p1"] = req.p1
        meta["p2"] = req.p2
    if req.subcommand == "expect":
        meta["power"] = req.power
    if req.subcommand == "mode":
        meta["kind"] = req.kind
    if req.subcommand in ("density", "embed"):
        meta["samples"] = req.samples
    return meta


def _emit(req: CliRequest, text: str) -> None:
    if req.output == "-":
        sys.stdout.write(text)
    else:
        with open(req.output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _scalar_csv(req: CliRequest, fields: dict, error_estimate: float | None) -> str:
    lines = [f"# fishergeom {req.subcommand}", f"# version: {__version__}"]
    for k, v in _request_meta(req).items():
        lines.append(f"# {k}: {v}")
    lines.append("field,value")
    for k, v in fields.items():
        if isinstance(v, float):
            lines.append(f"{k},{_fmt(v)}")
        elif isinstance(v, (tuple, list)):
            lines.append(f"{k},\"{' '.join(_fmt(x) for x in v)}\"")
        else:
            lines.append(f"{k},{v}")
    if error_estimate is not None:
        lines.append(f"error_estimate,{_fmt(error_estimate)}")
    return "\n".join(lines) + "\n"


def _curve_csv(req: CliRequest, curve: DensityCurve) -> str:
    lines = [
        f"# fishergeom {req.subcommand}",
        f"# version: {__version__}",
        f"# model: {curve.model_name}",
        f"# chart: {curve.chart_name}",
        f"# label: {curve.label}",
        f"# samples: {curve.samples}",
        "chart_coord,canonical_coord,rho,p,embed_x,embed_y",
    ]
    for r in curve.rows:
        lines.append(",".join(_fmt(v) for v in
                              (r.chart_coord, r.canonical_coord, r.rho, r.p, r.embed_x, r.embed_y)))
    return "\n".join(lines) + "\n"


def _json_doc(req: CliRequest, result, error_estimate: float | None) -> str:
    doc = {
        "request": _request_meta(req),
        "result": result,
        "error_estimate": _jsonable(error_estimate) if error_estimate is not None else None,
        "version": __version__,
    }
    return json.dumps(doc, indent=2) + "\n"


def _curve_json(curve: DensityCurve) -> dict:
    return {
        "metadata": {
            "model": curve.model_name,
            "chart": curve.chart_name,
            "label": curve.label,
            "samples": curve.samples,
        },
        "columns": ["chart_coord", "canonical_coord", "rho", "p", "embed_x", "embed_y"],
        "rows": [
            [_jsonable(v) for v in (r.chart_coord, r.canonical_coord, r.rho, r.p, r.embed_x, r.embed_y)]
            for r in curve.rows
        ],
    }


def _svg_plot(series: list[tuple[str, str, list[tuple[float, float]]]],
              title: str, x_label: str, y_label: str) -> str:
    """Self-contained polyline plot; series are (name, color, points)."""
    width, height = 800, 560
    ml, mr, mt, mb = 70, 20, 40, 50
    pw, ph = width - ml - mr, height - mt - mb

    pts = [(x, y) for _, _, s in series for x, y in s
           if math.isfinite(x) and math.isfinite(y)]
    if not pts:
        raise UsageError("nothing finite to plot")
    xs, ys = zip(*pts)
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(min(ys), 0.0), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(x):
        return ml + (x - x0) / (x1 - x0) * pw

    def sy(y):
        return mt + ph - (y - y0) / (y1 - y0) * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
        # axes
        f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="black"/>',
        f'<text x="{ml:.1f}" y="{mt + ph + 18:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11">{x0:.4g}</text>',
        f'<text x="{ml + pw:.1f}" y="{mt + ph + 18:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11">{x1:.4g}</text>',
        f'<text x="{ml - 8:.1f}" y="{mt + ph:.1f}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{y0:.4g}</text>',
        f'<text x="{ml - 8:.1f}" y="{mt + 10:.1f}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{y1:.4g}</text>',
        f'<text x="{ml + pw / 2:.1f}" y="{height - 12:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{x_label}</text>',
        f'<text x="18" y="{mt + ph / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {mt + ph / 2:.1f})">{y_label}</text>',
    ]
    legend_y = mt + 14
    for name, color, s in series:
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in s
                          if math.isfinite(x) and math.isfinite(y))
        out.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{coords}"/>')
        out.append(f'<line x1="{ml + pw - 150}" y1="{legend_y}" x2="{ml + pw - 120}" '
                   f'y2="{legend_y}" stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{ml + pw - 112}" y="{legend_y + 4}" '
                   f'font-family="sans-serif" font-size="12">{name}</text>')
        legend_y += 18
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _emit_scalar(req: CliRequest, fields: dict, error_estimate: float | None) -> None:
    if req.fmt == "svg":
        raise UsageError(f"SVG output is only available for curve subcommands, not '{req.subcommand}'")
    if req.fmt == "json":
        result = {k: (_jsonable(v) if isinstance(v, float) else
                      [_jsonable(x) for x in v] if isinstance(v, (tuple, list)) else v)
                  for k, v in fields.items()}
        _emit(req, _json_doc(req, result, error_estimate))
    else:
        _emit(req, _scalar_csv(req, fields, error_estimate))


def _emit_curve(req: CliRequest, curve: DensityCurve) -> None:
    if req.fmt == "json":
        _emit(req, _json_doc(req, _curve_json(curve), None))
    elif req.fmt == "csv":
        _emit(req, _curve_csv(req, curve))
    else:
        if req.subcommand == "embed":
            pts = [(r.embed_x, r.embed_y) for r in curve.rows]
            svg = _svg_plot([("manifold", "steelblue", pts)],
                            f"{curve.label} on the embedded manifold", "x", "y")
        else:
            rho_pts = [(r.chart_coord, r.rho) for r in curve.rows]
            p_pts = [(r.chart_coord, r.p) for r in curve.rows]
            svg = _svg_plot(
                [("chart density", "steelblue", rho_pts), ("intrinsic density", "firebrick", p_pts)],
                f"{curve.label} in chart '{curve.chart_name}'", curve.chart_name, "density")
        _emit(req, svg)


def run(req: CliRequest) -> int:
    """Execute a validated request; returns the process exit status."""
    try:
        model = get_model(req.model) if req.model in _MODELS else None
        if model is None:
            raise UsageError(f"unknown model '{req.model}'; available: {', '.join(_MODELS)}")

        if req.subcommand == "volume":
            res = finite_volume_result(model)
            _emit_scalar(req, {"value": res.value}, res.error_estimate)

        elif req.subcommand == "distance":
            if req.p1 is None or req.p2 is None:
                raise UsageError("'distance' requires --p1 and --p2 (canonical coordinates)")
            d = fisher_rao_distance(model, req.p1, req.p2)
            _emit_scalar(req, {"value": d}, 0.0)

        elif req.subcommand == "density":
            params = _require_beta(req)
            chart = _get_chart(model, req.chart)
            curve = sample_curve(beta_chart_density(params), chart, req.samples)
            _emit_curve(req, curve)

        elif req.subcommand == "embed":
            alpha = 0.5 if req.alpha is None else req.alpha
            beta = 0.5 if req.beta is None else req.beta
            params = BetaParams(alpha, beta)
            if req.model != "bernoulli":
                raise UsageError("'embed' is defined for --model bernoulli only")
            chart = _get_chart(model, req.chart)
            curve = sample_curve(intrinsic_from_chart(beta_chart_density(params)),
                                 chart, req.samples)
            _emit_curve(req, curve)

        elif req.subcommand == "mode":
            params = _require_beta(req)
            chart = _get_chart(model, req.chart)
            rho = beta_chart_density(params)
            if req.kind == "map":
                r = map_estimate(pushforward(rho, chart))
            else:
                r = mapi_estimate(intrinsic_from_chart(rho), chart)
            _emit_scalar(req, {
                "canonical_point": r.canonical_point,
                "chart_point": r.chart_point,
                "density_value": r.density_value,
                "at_boundary": r.at_boundary,
                "all_modes": r.all_modes,
                "flat": r.flat,
            }, None)

        elif req.subcommand == "expect":
            params = _require_beta(req)
            p = intrinsic_from_chart(beta_chart_density(params))
            k = req.power
            res = expectation(p, lambda t: t ** k)
            if not res.converged:
                raise QuadratureConvergenceError("expectation did not converge", res)
            _emit_scalar(req, {"value": res.value}, res.error_estimate)

        elif req.subcommand == "prob":
            params = _require_beta(req)
            if req.lo is None or req.hi is None:
                raise UsageError("'prob' requires --from and --to (canonical coordinates)")
            p = intrinsic_from_chart(beta_chart_density(params))
            res = interval_probability(p, Interval(req.lo, req.hi))
            if not res.converged:
                raise QuadratureConvergenceError("interval probability did not converge", res)
            _emit_scalar(req, {"value": res.value}, res.error_estimate)

        else:
            raise UsageError(f"unknown subcommand '{req.subcommand}'")

    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (DomainError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ArithmeticError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fishergeom",
        description="Chart and intrinsic densities over one-parameter statistical manifolds.",
    )
    parser.add_argument("--version", action="version", version=f"fishergeom {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, chart=False, beta=False, samples=False):
        p.add_argument("--model", default="bernoulli", help="model id (default: bernoulli)")
        if chart:
            p.add_argument("--chart", default="theta", help="chart id (default: theta)")
        if beta:
            p.add_argument("--alpha", type=float, default=None, help="Beta shape alpha")
            p.add_argument("--beta", type=float, default=None, help="Beta shape beta")
        if samples:
            p.add_argument("--samples", type=int, default=1001, help="grid size (default: 1001)")
        p.add_argument("--format", dest="fmt", choices=_FORMATS, default="csv",
                       help="output format (default: csv)")
        p.add_argument("--output", default="-", help="output path, '-' for stdout (default)")

    p = sub.add_parser("volume", help="Riemannian volume of the model")
    common(p)

    p = sub.add_parser("density", help="tabulate a Beta density (chart and intrinsic) over a chart")
    common(p, chart=True, beta=True, samples=True)

    p = sub.add_parser("mode", help="MAP (chart-dependent) or MAPI (invariant) estimate")
    common(p, chart=True, beta=True)
    p.add_argument("--kind", choices=("map", "mapi"), default="mapi",
                   help="map: argmax of the chart density; mapi: argmax of the intrinsic one")

    p = sub.add_parser("expect", help="expectation of theta**k under a Beta density")
    common(p, beta=True)
    p.add_argument("--power", type=int, default=1, help="moment order k (default: 1)")

    p = sub.add_parser("prob", help="probability of a canonical-coordinate interval")
    common(p, beta=True)
    p.add_argument("--from", dest="lo", type=float, default=None,
                   help="interval start (canonical coordinate)")
    p.add_argument("--to", dest="hi", type=float, default=None,
                   help="interval end (canonical coordinate)")

    p = sub.add_parser("distance", help="Fisher-Rao distance between two canonical points")
    common(p)
    p.add_argument("--p1", type=float, default=None, help="first canonical coordinate")
    p.add_argument("--p2", type=float, default=None, help="second canonical coordinate")

    p = sub.add_parser("embed", help="embedded manifold curve with a density as height")
    common(p, chart=True, beta=True, samples=True)

    return parser


def request_from_args(args: argparse.Namespace) -> CliRequest:
    return CliRequest(
        subcommand=args.subcommand,
        model=getattr(args, "model", "bernoulli"),
        chart=getattr(args, "chart", "theta"),
        alpha=getattr(args, "alpha", None),
        beta=getattr(args, "beta", None),
        lo=getattr(args, "lo", None),
        hi=getattr(args, "hi", None),
        p1=getattr(args, "p1", None),
        p2=getattr(args, "p2", None),
        power=getattr(args, "power", 1),
        kind=getattr(args, "kind", "mapi"),
        samples=getattr(args, "samples", 1001),
        fmt=getattr(args, "fmt", "csv"),
        output=getattr(args, "output", "-"),
    )


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return run(request_from_args(args))


if __name__ == "__main__":
    sys.exit(main())
