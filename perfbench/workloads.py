"""The three workloads: what one pass calls, and how each output is checked.

A workload turns its seeded input tuples into zero-argument calls on the
library's public API. ``build`` makes the models, charts and densities the
calls need; given a tracer, it builds the same calls on counted densities.
Each call's output is checked against :mod:`oracle` outside the timed region.
"""

from __future__ import annotations

from contextlib import nullcontext
from functools import partial

import fishergeom as fg
import fishergeom.cli as fcli

import inputs
import oracle
from env import work_dir


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.ops: list[tuple] = []

    def build(self, tracer=None) -> list:
        """One zero-argument call per op, on densities counted by ``tracer``."""
        raise NotImplementedError

    def layer(self, i: int) -> str:
        """Span name of the library call op ``i`` makes: ``<module>.<what>``."""
        raise NotImplementedError

    def check(self, i: int, out) -> str:
        raise NotImplementedError

    def check_count(self, i: int, out, span) -> str:
        """Check the density evaluations counted under the layer ``span``."""
        return ""

    def traced(self, tracer):
        """Context in which ``build(tracer)`` calls record their spans."""
        return nullcontext()

    def warm_up(self, calls: list) -> None:
        """Run the first op of each kind once."""
        seen = set()
        for i, op in enumerate(self.ops):
            key = self.layer(i)
            if key not in seen:
                seen.add(key)
                calls[i]()


class Integrals(Workload):
    name = "integrals"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.ops = inputs.integrals(seed)
        self.answers = [oracle.integral_answer(op) for op in self.ops]

    def build(self, tracer=None) -> list:
        wrap = tracer.counted if tracer else (lambda d: d)
        charts = fg.charts_for(fg.bernoulli_model())
        models = {m: fg.get_model(m) for m in inputs.MODELS}
        densities = {}
        calls = []
        for op in self.ops:
            kind = op[0]
            if kind == "volume":
                calls.append(partial(fg.volume_result, models[op[1]]))
                continue
            a, b = op[1], op[2]
            if (a, b) not in densities:
                rho = fg.beta_chart_density(fg.BetaParams(a, b))
                densities[a, b] = rho, wrap(fg.intrinsic_from_chart(rho))
            rho, p = densities[a, b]
            if kind == "normalization" and op[3] == "intrinsic":
                calls.append(partial(fg.integrate_manifold, p.value_offset, p.model))
            elif kind == "normalization":
                d = wrap(fg.pushforward(rho, charts[op[3]]))
                calls.append(partial(fg.integrate_chart, d.value_offset, d.chart.domain))
            elif kind == "prob":
                calls.append(partial(fg.interval_probability, p, fg.Interval(0.0, op[3])))
            else:
                calls.append(partial(fg.expectation, p, partial(pow, exp=op[3])))
        return calls

    def layer(self, i: int) -> str:
        op = self.ops[i]
        if op[0] == "volume" and op[1] != "bernoulli":
            return "quadrature.divergent_volume"
        return f"quadrature.{op[0]}"

    def check(self, i: int, out) -> str:
        return oracle.check_integral(self.answers[i], out.value, out.converged)

    def check_count(self, i: int, out, span) -> str:
        if self.ops[i][0] != "volume" and span.density_n != out.evaluations:
            return (f"counted {span.density_n} density evaluations, "
                    f"the quadrature reports {out.evaluations}")
        return ""

    def counts(self, outs: list) -> dict[str, float]:
        """Exact per-layer counts of one pass, from its quadrature results
        (an op that raised has none and is left out)."""
        done = [(i, out) for i, out in enumerate(outs) if not isinstance(out, Exception)]
        evals: dict[str, list[int]] = {}
        for i, out in done:
            evals.setdefault(self.layer(i), []).append(out.evaluations)
        scored = [(out.evaluations, oracle.correct_digits(self.answers[i], out.value))
                  for i, out in done if self.answers[i] is not None and out.converged]
        counts = {"quadrature.evals." + layer.split(".", 1)[1]: sum(v) / len(v)
                  for layer, v in evals.items()}
        counts["quadrature.evals_per_digit"] = (sum(e for e, _ in scored)
                                                / sum(d for _, d in scored))
        counts["quadrature.unconverged"] = sum(not out.converged for _, out in done)
        return counts


class Modes(Workload):
    name = "modes"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.ops = inputs.modes(seed)
        self.answers = [oracle.mode_answer(op) for op in self.ops]

    def build(self, tracer=None) -> list:
        wrap = tracer.counted if tracer else (lambda d: d)
        charts = fg.charts_for(fg.bernoulli_model())
        calls = []
        for kind, a, b, chart in self.ops:
            rho = fg.beta_chart_density(fg.BetaParams(a, b))
            if kind == "mapi":
                p = wrap(fg.intrinsic_from_chart(rho))
                calls.append(partial(fg.mapi_estimate, p, charts["theta"],
                                     search_chart=charts[chart]))
            elif kind == "map":
                calls.append(partial(fg.map_estimate, wrap(rho), search_chart=charts[chart]))
            else:
                calls.append(partial(fg.map_estimate, wrap(fg.pushforward(rho, charts[chart]))))
        return calls

    def layer(self, i: int) -> str:
        return "mode.mapi" if self.ops[i][0] == "mapi" else "mode.map"

    def check(self, i: int, out) -> str:
        return oracle.check_mode(self.answers[i], out.flat, out.canonical_point, out.all_modes)


class Figures(Workload):
    """In-process ``fishergeom.cli.main``, writing each figure to a file."""

    name = "figures"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.ops = inputs.figures(seed)
        self.golden = {name: oracle.golden_rows(name) for name in inputs.FIGURES}
        out_dir = work_dir("out")
        self.paths = [out_dir / f"{name}.{fmt}" for fmt, name in self.ops]
        self.argv = []
        for (fmt, name), path in zip(self.ops, self.paths):
            if fmt == "svg":
                args = ["embed", "--samples", str(inputs.EMBED_SAMPLES)]
            else:
                a, b, chart = inputs.FIGURES[name]
                args = ["density", "--alpha", str(a), "--beta", str(b), "--chart", chart,
                        "--model", "bernoulli", "--samples", str(inputs.FIGURE_SAMPLES)]
            self.argv.append(args + ["--format", fmt, "--output", str(path)])

    def build(self, tracer=None) -> list:
        return [partial(fcli.main, argv) for argv in self.argv]

    def traced(self, tracer):
        return tracer.rebound_cli(fcli)

    def layer(self, i: int) -> str:
        return f"cli.{self.ops[i][0]}"

    def check(self, i: int, out) -> str:
        if out != 0:
            return f"exit status {out}"
        fmt, name = self.ops[i]
        text = self.paths[i].read_text(encoding="utf-8")
        if fmt == "csv":
            return oracle.check_curve_csv(self.golden[name], text)
        if fmt == "json":
            return oracle.check_curve_json(self.golden[name], text)
        return oracle.check_embed_svg(text)


WORKLOADS = {w.name: w for w in (Integrals, Modes, Figures)}
