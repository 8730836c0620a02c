"""Independent answers for every operation the benchmark times.

Nothing here calls the library: masses are 1, moments and interval
probabilities come from closed forms and a continued fraction, modes from
the Beta exponents, and figures from the golden files. Each ``check_*``
returns an empty string when the output is right, else what is wrong.
"""

from __future__ import annotations

import json
import math
import re

from env import GOLDEN
from inputs import EMBED_SAMPLES, FIGURE_SAMPLES

MASS_TOL = 1e-7
MOMENT_TOL = 1e-8
PROB_TOL = 1e-8
PI_TOL = 1e-9
MODE_TOL = 1e-6

# MAP of Beta(1/2, 1/2) after pushing the density to another chart
PUSHED_MAP_MODES = {"arcsin": (0.0,), "reciprocal": (1.0,)}


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c, d = 1.0, 1.0 - qab * x / qap
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        m2 = 2 * m
        for num in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                    -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-16:
            return h
    raise ArithmeticError(f"incomplete beta continued fraction did not converge at {a}, {b}, {x}")


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta ``I_x(a, b)``."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def moment(a: float, b: float, k: int) -> float:
    """``E[theta**k]`` under Beta(a, b)."""
    return math.prod((a + i) / (a + b + i) for i in range(k))


def integral_answer(op: tuple) -> tuple[float, float] | None:
    """``(value, tolerance)`` of a convergent integral; None for a divergent volume."""
    kind = op[0]
    if kind == "normalization":
        return 1.0, MASS_TOL
    if kind == "prob":
        return betainc(op[1], op[2], op[3]), PROB_TOL
    if kind == "expect":
        return moment(op[1], op[2], op[3]), MOMENT_TOL
    if op[1] == "bernoulli":
        return math.pi, PI_TOL
    return None


def check_integral(answer, value: float, converged: bool) -> str:
    if answer is None:
        if converged and math.isfinite(value):
            return f"divergent volume came back converged at {value!r}"
        return ""
    want, tol = answer
    if not converged:
        return f"did not converge (estimate {value!r}, want {want!r})"
    if not abs(value - want) <= tol:
        return f"value {value!r}, want {want!r} within {tol:g}"
    return ""


def correct_digits(answer, value: float) -> float:
    """Correct decimal digits of a convergent integral, at most 16."""
    want, _ = answer
    rel = abs(value - want) / abs(want)
    return -math.log10(max(rel, 1e-16))


def mode_answer(op: tuple):
    """Expected mode: ``("point", theta)`` for an interior mode, else
    ``("set", modes)`` with the exact boundary mode set."""
    kind, a, b, chart = op
    if kind == "map_pushed":
        if (a, b) != (0.5, 0.5) or chart not in PUSHED_MAP_MODES:
            raise ValueError(f"no oracle for {op}")
        return "set", PUSHED_MAP_MODES[chart]
    shift = 0.5 if kind == "mapi" else 1.0
    ea, eb = a - shift, b - shift
    if ea > 0.0 and eb > 0.0:
        return "point", ea / (ea + eb)
    if ea < 0.0 and eb < 0.0:
        return "set", (0.0, 1.0)
    if ea < 0.0 and eb > 0.0:
        return "set", (0.0,)
    if eb < 0.0 and ea > 0.0:
        return "set", (1.0,)
    raise ValueError(f"no oracle for the threshold shape {op}")


def check_mode(answer, flat: bool, canonical_point: float, all_modes: tuple) -> str:
    form, want = answer
    if flat:
        return "reported flat"
    if form == "set":
        if tuple(all_modes) != want:
            return f"modes {tuple(all_modes)}, want {want}"
        return ""
    if len(all_modes) != 1 or not abs(canonical_point - want) <= MODE_TOL:
        return f"modes {tuple(all_modes)}, want ({want!r},) within {MODE_TOL:g}"
    return ""


def golden_rows(name: str) -> list[str]:
    """Data section (header and rows, no ``#`` lines) of a golden figure."""
    text = (GOLDEN / f"{name}.csv").read_text(encoding="utf-8")
    return [line for line in text.splitlines() if not line.startswith("#")]


def check_curve_csv(golden: list[str], text: str) -> str:
    rows = [line for line in text.splitlines() if not line.startswith("#")]
    if rows != golden:
        bad = next((i for i, (x, y) in enumerate(zip(rows, golden)) if x != y),
                   min(len(rows), len(golden)))
        return f"data section differs from golden at data line {bad}"
    return ""


def _json_cell(cell: str):
    if cell == "nan":
        return None
    if cell in ("inf", "-inf"):
        return cell
    return float(cell)


def check_curve_json(golden: list[str], text: str) -> str:
    """Rows must carry the golden CSV's values exactly: both formats print
    doubles that read back to the same bits."""
    doc = json.loads(text)
    result = doc["result"]
    if result["columns"] != golden[0].split(","):
        return f"columns {result['columns']}"
    if result["metadata"]["samples"] != FIGURE_SAMPLES:
        return f"samples {result['metadata']['samples']}"
    want = [[_json_cell(c) for c in line.split(",")] for line in golden[1:]]
    if result["rows"] != want:
        return "rows differ from golden"
    return ""


_NUM = r"([-0-9.]+)"
_LINE = re.compile(rf'<line x1="{_NUM}" y1="{_NUM}" x2="{_NUM}" y2="{_NUM}"')
_POLYLINE = re.compile(r'<polyline [^>]*points="([^"]*)"')


def check_embed_svg(text: str) -> str:
    """The default ``embed`` curve must trace the radius-2 quarter circle.

    Plot geometry is read from the two axis lines; the data range follows
    from the documented interior grid, which stops 1e-6 short of each end.
    """
    if not text.startswith("<svg") or not text.endswith("</svg>\n"):
        return "not a complete svg document"
    axes = _LINE.findall(text)
    lines = _POLYLINE.findall(text)
    if len(axes) < 2 or len(lines) != 1:
        return "missing axes or polyline"
    (left, bottom, right, _), (_, top, _, _) = [tuple(map(float, ln)) for ln in axes[:2]]
    points = [tuple(map(float, p.split(","))) for p in lines[0].split()]
    if len(points) != EMBED_SAMPLES:
        return f"{len(points)} points, want {EMBED_SAMPLES}"
    edge = 1e-6
    x0, x1 = 2.0 * math.sqrt(edge), 2.0 * math.sqrt(1.0 - edge)
    y1 = x1
    worst = 0.0
    for px, py in points:
        x = x0 + (px - left) / (right - left) * (x1 - x0)
        y = (bottom - py) / (bottom - top) * y1
        worst = max(worst, abs(x * x + y * y - 4.0))
    if not worst <= 1e-3:
        return f"points leave the quarter circle by {worst:.3g}"
    if any(q[0] <= p[0] for p, q in zip(points, points[1:])):
        return "points not increasing in x"
    return ""


def csv_field(text: str, field: str) -> str:
    for line in text.splitlines():
        if line.startswith(field + ","):
            return line[len(field) + 1:]
    raise KeyError(field)


def check_cold(op: tuple, text: str, golden: dict) -> str:
    """Check the stdout of one CLI subprocess against the oracle."""
    kind = op[0]
    if kind in ("prob", "expect", "volume"):
        value = float(csv_field(text, "value"))
        return check_integral(integral_answer(op), value, True)
    if kind in ("map", "mapi"):
        modes = tuple(float(v) for v in csv_field(text, "all_modes").strip('"').split())
        return check_mode(mode_answer(op), csv_field(text, "flat") == "True",
                          float(csv_field(text, "canonical_point")), modes)
    if kind == "csv":
        return check_curve_csv(golden[op[1]], text)
    return check_embed_svg(text)
