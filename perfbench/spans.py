"""In-memory spans for the traced run.

Spans are recorded only around calls the benchmark itself makes: one span
per operation, one per library layer call under it, and, inside the layer
call, the density evaluations aggregated into a count and a time (one span
per evaluation would cost more than the evaluation). Densities are counted
from outside by replacing their ``value_offset`` with a two-argument wrapper,
so the quadrature still takes its offset-aware path. Inside the CLI, the
names ``fishergeom.cli`` imported are rebound for the length of a traced pass.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


@dataclasses.dataclass
class Span:
    id: int
    parent: int
    name: str
    start: float
    end: float
    density_n: int = 0
    density_s: float = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.density_n = 0
        self.density_s = 0.0

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside a span named ``name``."""
        span = Span(len(self.spans), self._open[-1] if self._open else -1, name, 0.0, 0.0)
        self.spans.append(span)
        self._open.append(span.id)
        n0, s0 = self.density_n, self.density_s
        span.start = perf_counter()
        try:
            return fn(*args)
        finally:
            span.end = perf_counter()
            self._open.pop()
            span.density_n = self.density_n - n0
            span.density_s = self.density_s - s0

    def counted(self, density):
        """Copy of ``density`` whose evaluations add to this tracer's totals."""
        inner = density.value_offset
        clock = perf_counter

        def value_offset(x, xc):
            t0 = clock()
            v = inner(x, xc)
            self.density_s += clock() - t0
            self.density_n += 1
            return v

        return dataclasses.replace(density, value_offset=value_offset)

    @contextmanager
    def rebound_cli(self, cli_module):
        """Trace ``sample_curve`` and count the Beta densities inside CLI calls."""
        sample_curve = cli_module.sample_curve
        beta_chart_density = cli_module.beta_chart_density
        cli_module.sample_curve = lambda *a: self.call("embed.sample_curve", sample_curve, *a)
        cli_module.beta_chart_density = lambda params: self.counted(beta_chart_density(params))
        try:
            yield
        finally:
            cli_module.sample_curve = sample_curve
            cli_module.beta_chart_density = beta_chart_density

    def summary(self) -> dict[str, list]:
        """``name -> [spans, self seconds, density evaluations]`` per span
        name, and ``"density" -> [evaluations, seconds]`` for the aggregated
        density evaluations. Self time is a span's duration less its child
        spans and the density evaluations made directly under it."""
        child_s: dict[int, float] = defaultdict(float)
        child_density: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent >= 0:
                child_s[s.parent] += s.end - s.start
                child_density[s.parent] += s.density_s
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0])
        for s in self.spans:
            own_density = s.density_s - child_density[s.id]
            entry = out[s.name]
            entry[0] += 1
            entry[1] += s.end - s.start - child_s[s.id] - own_density
            entry[2] += s.density_n
            if s.parent < 0:
                out["density"][0] += s.density_n
                out["density"][1] += s.density_s
        return dict(out)

    def to_json(self) -> dict:
        return {"fields": [f.name for f in dataclasses.fields(Span)],
                "spans": [dataclasses.astuple(s) for s in self.spans]}
