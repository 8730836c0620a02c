"""Command-line interface: analyze Beta priors over the coin manifold.

Subcommands cover the library surface: ``volume``, ``density``, ``mode``,
``expect``, ``prob``, ``distance``, ``embed``. Results are emitted as CSV
(default), JSON, or a self-contained SVG line plot; output is deterministic
for a fixed request apart from the version header.

Exit codes: 0 success, 1 numerical failure (non-convergent quadrature or
optimizer, with the achieved error estimate on stderr, or any other
arithmetic error), 2 usage error, an unwritable ``--output`` included
(nothing is written). ``argparse``, ``json`` and the ``mode`` and
``quadrature`` modules are imported where a call first needs them, not with
this module. CSV and JSON curves are written from the density's ``rho`` and
``p`` columns through one cached body template per sample table (model,
chart, sample count) and format; only SVG reads ``sample_curve`` rows.
"""

from __future__ import annotations

import dataclasses
import math
import re
import sys
from functools import cache, lru_cache
from typing import TYPE_CHECKING

from . import __version__
from .density import (BetaParams, CurveRow, _curve_columns, beta_chart_density,
                      intrinsic_from_chart, pushforward, sample_curve)
from .manifold import Interval, fisher_rao_distance, get_chart, get_model

if TYPE_CHECKING:
    import argparse

_FORMATS = ("csv", "json", "svg")
_CURVES = ("density", "embed")
_CURVE_COLUMNS = CurveRow._fields
# One curve row as text, rho and p escaped to fill per call, and the text
# between two rows: CSV as f"{v:.17g}" per value writes it; JSON as
# json.dumps(indent=2) writes a finite row at the depth of doc["result"]["rows"]
# (%r on a float is float.__repr__, as json's).
_ROW_FORMS = {
    "csv": (",".join(["%.17g"] * 2 + ["%%.17g"] * 2 + ["%.17g"] * 2), "\n"),
    "json": ("[\n        " + ",\n        ".join(["%r"] * 2 + ["%%r"] * 2 + ["%r"] * 2)
             + "\n      ]", ",\n      "),
}
# A JSON row's non-finite reprs, as _jsonable and json.dumps write them. The
# rows' text holds only float reprs and punctuation, and a finite float's repr
# has no letter n, so each match is one of these values.
_JSON_TOKENS = {"nan": "null", "inf": '"inf"', "-inf": '"-inf"'}
_NON_FINITE = re.compile("-?inf|nan")

# Each option a subcommand may take: its Namespace field -> (flag, argparse
# keywords). Every subcommand takes --format and --output; a request's
# metadata lists the other options of its subcommand that are set.
_OPTIONS = {
    "model": ("--model", dict(default="bernoulli", help="model id (default: bernoulli)")),
    "chart": ("--chart", dict(default="theta", help="chart id (default: theta)")),
    "alpha": ("--alpha", dict(type=float, default=None, help="Beta shape alpha")),
    "beta": ("--beta", dict(type=float, default=None, help="Beta shape beta")),
    "samples": ("--samples", dict(type=int, default=1001, help="grid size (default: 1001)")),
    "kind": ("--kind", dict(
        choices=("map", "mapi"), default="mapi",
        help="map: argmax of the chart density; mapi: argmax of the intrinsic one")),
    "power": ("--power", dict(type=int, default=1, help="moment order k (default: 1)")),
    "lo": ("--from", dict(type=float, default=None, help="interval start (canonical coordinate)")),
    "hi": ("--to", dict(type=float, default=None, help="interval end (canonical coordinate)")),
    "p1": ("--p1", dict(type=float, default=None, help="first canonical coordinate")),
    "p2": ("--p2", dict(type=float, default=None, help="second canonical coordinate")),
    "fmt": ("--format", dict(choices=_FORMATS, default="csv", help="output format (default: csv)")),
    "output": ("--output", dict(default="-", help="output path, '-' for stdout (default)")),
}
_CURVE_OPTIONS = ("model", "chart", "alpha", "beta", "samples")
# subcommand -> (help, options before --format, options after --output), in
# the order each usage line lists them
_SUBCOMMANDS = {
    "volume": ("Riemannian volume of the model", ("model",), ()),
    "density": ("tabulate a Beta density (chart and intrinsic) over a chart", _CURVE_OPTIONS, ()),
    "mode": ("MAP (chart-dependent) or MAPI (invariant) estimate",
             ("model", "chart", "alpha", "beta"), ("kind",)),
    "expect": ("expectation of theta**k under a Beta density", ("model", "alpha", "beta"),
               ("power",)),
    "prob": ("probability of a canonical-coordinate interval", ("model", "alpha", "beta"),
             ("lo", "hi")),
    "distance": ("Fisher-Rao distance between two canonical points", ("model",), ("p1", "p2")),
    "embed": ("embedded manifold curve with a density as height", _CURVE_OPTIONS, ()),
}


class UsageError(ValueError):
    pass


def _jsonable(v):
    if isinstance(v, (tuple, list)):
        return [_jsonable(x) for x in v]
    if isinstance(v, float):
        if math.isnan(v):
            return None
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
    return v


def _require_beta(req: argparse.Namespace, default: float | None = None) -> BetaParams:
    """The request's Beta shapes on the coin family, each ``default`` if not given."""
    if req.model != "bernoulli":
        raise UsageError(f"'{req.subcommand}' needs a Beta density and therefore --model bernoulli")
    alpha = default if req.alpha is None else req.alpha
    beta = default if req.beta is None else req.beta
    if alpha is None or beta is None:
        raise UsageError(f"'{req.subcommand}' requires --alpha and --beta")
    try:
        return BetaParams(alpha, beta)
    except ValueError as e:
        raise UsageError(str(e)) from None


def _request_meta(req: argparse.Namespace) -> dict:
    _, before, after = _SUBCOMMANDS[req.subcommand]
    meta = {"subcommand": req.subcommand}
    for key in before + after:
        value = getattr(req, key)
        if value is not None:
            meta[_OPTIONS[key][0].lstrip("-")] = value
    return meta


def _emit(req: argparse.Namespace, text: str) -> None:
    if req.output == "-":
        sys.stdout.write(text)
        return
    try:
        with open(req.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise UsageError(f"cannot write '{req.output}': {e.strerror}") from None


def _csv_header(req: argparse.Namespace, meta: dict) -> list[str]:
    """The comment lines a CSV document opens with: subcommand, version, and
    one ``# key: value`` line per item of ``meta``."""
    return [f"# fishergeom {req.subcommand}", f"# version: {__version__}",
            *[f"# {k}: {v}" for k, v in meta.items()]]


def _scalar_csv(req: argparse.Namespace, fields: dict, error_estimate: float | None) -> str:
    lines = _csv_header(req, _request_meta(req))
    lines.append("field,value")
    for k, v in fields.items():
        if isinstance(v, float):
            lines.append(f"{k},{v:.17g}")
        elif isinstance(v, (tuple, list)):
            lines.append(f"{k},\"{' '.join(f'{x:.17g}' for x in v)}\"")
        else:
            lines.append(f"{k},{v}")
    if error_estimate is not None:
        lines.append(f"error_estimate,{error_estimate:.17g}")
    return "\n".join(lines) + "\n"


# Keyed by identity, as a model and a ChartSamples table compare by it.
@lru_cache(maxsize=8)
def _body(model, samples, fmt: str) -> str:
    """The rows of every curve over a sample table of ``model`` as one
    template: each row's chart-only columns (chart and canonical coordinate,
    and the embedding, computed here once) written in and its rho and p left
    to fill, the rows joined by the format's separator; a formatted float
    holds no %."""
    form, sep = _ROW_FORMS[fmt]
    exs, eys = zip(*map(model.embedding, samples.thetas))
    return sep.join(map(form.__mod__, zip(samples.xs, samples.thetas, exs, eys)))


def _json_doc(req: argparse.Namespace, result, error_estimate: float | None) -> str:
    import json

    doc = {
        "request": {k: _jsonable(v) for k, v in _request_meta(req).items()},
        "result": result,
        "error_estimate": _jsonable(error_estimate),
        "version": __version__,
    }
    return json.dumps(doc, indent=2) + "\n"


def _curve_text(req: argparse.Namespace, meta: dict, fmt: str, body: str,
                rhos: list[float], ps: list[float]) -> str:
    """The curve with metadata ``meta`` (model, chart, label, samples) as CSV,
    or as the JSON document json.dumps(indent=2) writes. The rows, which are
    nearly all of it, are ``body`` filled by one % with each row's rho and p."""
    vals = rhos + ps    # interleaved in place: rho, p of the first row, ...
    vals[0::2], vals[1::2] = rhos, ps
    rows = body % tuple(vals)
    if fmt == "csv":
        return "\n".join([*_csv_header(req, meta), ",".join(_CURVE_COLUMNS), rows]) + "\n"
    if "n" in rows:     # a non-finite value; the scan is far cheaper than the pass
        rows = _NON_FINITE.sub(lambda m: _JSON_TOKENS[m[0]], rows)
    result = {"metadata": meta, "columns": list(_CURVE_COLUMNS), "rows": []}
    # an encoded string escapes its quotes, so this is the structural key
    head, tail = _json_doc(req, result, None).split('"rows": []', 1)
    return f'{head}"rows": [\n      {rows}\n    ]{tail}'


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


def _emit_scalar(req: argparse.Namespace, fields: dict, error_estimate: float | None) -> None:
    if req.fmt == "json":
        _emit(req, _json_doc(req, {k: _jsonable(v) for k, v in fields.items()}, error_estimate))
    else:
        _emit(req, _scalar_csv(req, fields, error_estimate))


def _emit_curve(req: argparse.Namespace, d, chart) -> None:
    model, n = d.model, req.samples
    if req.fmt != "svg":    # CSV and JSON read the columns; only SVG reads rows
        samples, rhos, ps = _curve_columns(d, chart, n)
        meta = {"model": model.name, "chart": chart.name, "label": d.label, "samples": n}
        _emit(req, _curve_text(req, meta, req.fmt, _body(model, samples, req.fmt), rhos, ps))
        return
    curve = sample_curve(d, chart, n)
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


def run(req: argparse.Namespace) -> int:
    """Execute a validated request; returns the process exit status."""
    try:
        model = get_model(req.model)
        if req.fmt == "svg" and req.subcommand not in _CURVES:
            raise UsageError(f"SVG output is only available for curve subcommands, not '{req.subcommand}'")

        # every subcommand but these two reads a Beta density, which lives on
        # the coin family; embed draws Beta(1/2, 1/2) unless told otherwise
        if req.subcommand not in ("volume", "distance"):
            rho = beta_chart_density(_require_beta(req, 0.5 if req.subcommand == "embed" else None))

        if req.subcommand == "volume":
            from .quadrature import NonFiniteVolumeError, _require_converged, volume_result
            res = _require_converged(volume_result(model), f"volume integral for '{model.name}'",
                                     NonFiniteVolumeError)
            _emit_scalar(req, {"value": res.value}, res.error_estimate)

        elif req.subcommand == "distance":
            if req.p1 is None or req.p2 is None:
                raise UsageError("'distance' requires --p1 and --p2 (canonical coordinates)")
            d = fisher_rao_distance(model, req.p1, req.p2)
            _emit_scalar(req, {"value": d}, 0.0)

        elif req.subcommand in _CURVES:     # embed draws the intrinsic density
            d = intrinsic_from_chart(rho) if req.subcommand == "embed" else rho
            _emit_curve(req, d, get_chart(model, req.chart))

        elif req.subcommand == "mode":
            from .mode import map_estimate, mapi_estimate
            chart = get_chart(model, req.chart)
            if req.kind == "map":
                r = map_estimate(pushforward(rho, chart))
            else:
                r = mapi_estimate(intrinsic_from_chart(rho), chart)
            _emit_scalar(req, dataclasses.asdict(r), None)

        elif req.subcommand == "expect":
            from .quadrature import _require_converged, expectation
            k = req.power
            res = _require_converged(expectation(intrinsic_from_chart(rho), lambda t: t ** k),
                                     "expectation")
            _emit_scalar(req, {"value": res.value}, res.error_estimate)

        elif req.subcommand == "prob":
            if req.lo is None or req.hi is None:
                raise UsageError("'prob' requires --from and --to (canonical coordinates)")
            from .quadrature import _require_converged, interval_probability
            res = _require_converged(
                interval_probability(intrinsic_from_chart(rho), Interval(req.lo, req.hi)),
                "interval probability")
            _emit_scalar(req, {"value": res.value}, res.error_estimate)

    except (ValueError, KeyError) as e:     # UsageError, DomainError, unknown model or chart
        # str() of a KeyError quotes its message
        print(f"error: {e.args[0] if isinstance(e, KeyError) else e}", file=sys.stderr)
        return 2
    except ArithmeticError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 1
    return 0


@cache     # parse_args fills a new Namespace on every call
def _build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="fishergeom",
        description="Chart and intrinsic densities over one-parameter statistical manifolds.",
    )
    parser.add_argument("--version", action="version", version=f"fishergeom {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, before, after) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for key in (*before, "fmt", "output", *after):
            flag, kwargs = _OPTIONS[key]
            p.add_argument(flag, dest=key, **kwargs)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
