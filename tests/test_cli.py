"""CLI surface: formats, exit codes, determinism, golden figure data."""

import dataclasses
import errno
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

from fishergeom import (
    BetaParams,
    CurveRow,
    DensityCurve,
    IntrinsicDensity,
    QuadratureResult,
    __version__,
    beta_chart_density,
    charts_for,
    get_model,
    intrinsic_from_chart,
    sample_curve,
)
from fishergeom import cli, quadrature
from fishergeom.cli import main
from fishergeom.manifold import _chart_samples

GOLDEN = Path(__file__).parent / "golden"


def run_cli(tmp_path, *args, name="out.txt"):
    out = tmp_path / name
    rc = main([*args, "--output", str(out)])
    return rc, out.read_text() if out.exists() else None


def data_section(csv_text):
    """Everything after the comment header, version-independent."""
    return [line for line in csv_text.splitlines() if not line.startswith("#")]


def parse_rows(csv_text):
    lines = data_section(csv_text)
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        rows.append({k: float(v) for k, v in zip(header, line.split(","))})
    return rows


class TestJsonOutputs:
    def test_volume(self, tmp_path):
        rc, text = run_cli(tmp_path, "volume", "--model", "bernoulli", "--format", "json")
        assert rc == 0
        doc = json.loads(text)
        assert set(doc) == {"request", "result", "error_estimate", "version"}
        assert doc["result"]["value"] == pytest.approx(math.pi, abs=1e-9)
        assert doc["error_estimate"] <= 1e-9

    def test_mapi_mode(self, tmp_path):
        rc, text = run_cli(tmp_path, "mode", "--model", "bernoulli", "--alpha", "1.05",
                           "--beta", "2.05", "--kind", "mapi", "--format", "json")
        assert rc == 0
        doc = json.loads(text)
        assert doc["result"]["canonical_point"] == pytest.approx(11.0 / 42.0, abs=1e-6)
        assert doc["request"]["kind"] == "mapi"

    def test_map_mode(self, tmp_path):
        rc, text = run_cli(tmp_path, "mode", "--alpha", "1.05", "--beta", "2.05",
                           "--kind", "map", "--format", "json")
        doc = json.loads(text)
        assert doc["result"]["canonical_point"] == pytest.approx(1.0 / 22.0, abs=1e-6)

    def test_mode_at_an_infinite_chart_end(self, tmp_path):
        # the MAPI of Beta(0.3, 2) is theta = 0, the reciprocal chart's y = inf
        rc, text = run_cli(tmp_path, "mode", "--alpha", "0.3", "--beta", "2",
                           "--chart", "reciprocal")
        assert rc == 0
        assert "canonical_point,0\nchart_point,inf\n" in text

    def test_divergent_mode_serializes_inf_token(self, tmp_path):
        rc, text = run_cli(tmp_path, "mode", "--alpha", "0.5", "--beta", "0.5",
                           "--kind", "map", "--format", "json")
        doc = json.loads(text)
        assert doc["result"]["density_value"] == "inf"
        assert doc["result"]["all_modes"] == [0.0, 1.0]

    def test_prob(self, tmp_path):
        rc, text = run_cli(tmp_path, "prob", "--alpha", "0.5", "--beta", "0.5",
                           "--from", "0", "--to", "0.1", "--format", "json")
        assert rc == 0
        doc = json.loads(text)
        expected = 2.0 / math.pi * math.asin(math.sqrt(0.1))
        assert doc["result"]["value"] == pytest.approx(expected, abs=1e-8)

    def test_expect(self, tmp_path):
        rc, text = run_cli(tmp_path, "expect", "--alpha", "1.05", "--beta", "2.05",
                           "--format", "json")
        doc = json.loads(text)
        assert doc["result"]["value"] == pytest.approx(1.05 / 3.10, abs=1e-9)

    def test_distance(self, tmp_path):
        rc, text = run_cli(tmp_path, "distance", "--p1", "0", "--p2", "1", "--format", "json")
        doc = json.loads(text)
        assert doc["result"]["value"] == pytest.approx(math.pi, abs=1e-12)

    def test_density_round_trip(self, tmp_path):
        rc, text = run_cli(tmp_path, "density", "--alpha", "0.5", "--beta", "0.5",
                           "--samples", "11", "--format", "json")
        doc = json.loads(text)
        rows = doc["result"]["rows"]
        assert len(rows) == 11
        cols = doc["result"]["columns"]
        p_idx = cols.index("p")
        for row in rows:
            assert row[p_idx] == pytest.approx(1.0 / math.pi, abs=1e-12)


class TestCsvOutputs:
    def test_curve_columns(self, tmp_path):
        rc, text = run_cli(tmp_path, "density", "--alpha", "2", "--beta", "2",
                           "--samples", "7", name="c.csv")
        assert rc == 0
        lines = data_section(text)
        assert lines[0] == "chart_coord,canonical_coord,rho,p,embed_x,embed_y"
        assert len(lines) == 8

    def test_scalar_fields(self, tmp_path):
        rc, text = run_cli(tmp_path, "volume", name="v.csv")
        assert rc == 0
        lines = data_section(text)
        assert lines[0] == "field,value"
        fields = dict(line.split(",", 1) for line in lines[1:])
        assert float(fields["value"]) == pytest.approx(math.pi, abs=1e-9)

    def test_determinism(self, tmp_path):
        args = ("density", "--alpha", "1.05", "--beta", "2.05", "--samples", "101")
        _, a = run_cli(tmp_path, *args, name="a.csv")
        _, b = run_cli(tmp_path, *args, name="b.csv")
        assert data_section(a) == data_section(b)

    def test_seventeen_significant_digits(self, tmp_path):
        _, text = run_cli(tmp_path, "distance", "--p1", "0", "--p2", "1", name="d.csv")
        fields = dict(line.split(",", 1) for line in data_section(text)[1:])
        assert fields["value"] == f"{math.pi:.17g}"

    def test_stdout_default(self, capsys):
        rc = main(["distance", "--p1", "0.2", "--p2", "0.2"])
        assert rc == 0
        assert "value,0" in capsys.readouterr().out


# one successful call per subcommand: its CSV header lines (after the
# version line) and its JSON request object, in order
REQUESTS = [
    (["volume"], ["# subcommand: volume", "# model: bernoulli"],
     {"subcommand": "volume", "model": "bernoulli"}),
    (["distance", "--p1", "0.1", "--p2", "0.7"],
     ["# subcommand: distance", "# model: bernoulli", "# p1: 0.1", "# p2: 0.7"],
     {"subcommand": "distance", "model": "bernoulli", "p1": 0.1, "p2": 0.7}),
    (["density", "--alpha", "2", "--beta", "3", "--chart", "arcsin", "--samples", "3"],
     ["# model: bernoulli", "# chart: arcsin", "# label: Beta(2,3)", "# samples: 3"],
     {"subcommand": "density", "model": "bernoulli", "chart": "arcsin",
      "alpha": 2.0, "beta": 3.0, "samples": 3}),
    (["embed", "--alpha", "0.3", "--samples", "3"],
     ["# model: bernoulli", "# chart: theta", "# label: Beta(0.3,0.5)", "# samples: 3"],
     {"subcommand": "embed", "model": "bernoulli", "chart": "theta", "alpha": 0.3,
      "samples": 3}),
    (["mode", "--alpha", "2", "--beta", "3", "--kind", "map", "--chart", "reciprocal"],
     ["# subcommand: mode", "# model: bernoulli", "# chart: reciprocal", "# alpha: 2.0",
      "# beta: 3.0", "# kind: map"],
     {"subcommand": "mode", "model": "bernoulli", "chart": "reciprocal", "alpha": 2.0,
      "beta": 3.0, "kind": "map"}),
    (["expect", "--alpha", "2", "--beta", "3", "--power", "2"],
     ["# subcommand: expect", "# model: bernoulli", "# alpha: 2.0", "# beta: 3.0",
      "# power: 2"],
     {"subcommand": "expect", "model": "bernoulli", "alpha": 2.0, "beta": 3.0, "power": 2}),
    (["prob", "--alpha", "2", "--beta", "3", "--from", "0.1", "--to", "0.4"],
     ["# subcommand: prob", "# model: bernoulli", "# alpha: 2.0", "# beta: 3.0",
      "# from: 0.1", "# to: 0.4"],
     {"subcommand": "prob", "model": "bernoulli", "alpha": 2.0, "beta": 3.0, "from": 0.1,
      "to": 0.4}),
]


class TestRequestMetadata:
    @pytest.mark.parametrize("argv,header,meta", REQUESTS, ids=[r[0][0] for r in REQUESTS])
    def test_csv_header_and_json_request(self, tmp_path, argv, header, meta):
        rc, text = run_cli(tmp_path, *argv, name="r.csv")
        assert rc == 0
        comments = [line for line in text.splitlines() if line.startswith("#")]
        assert comments == [f"# fishergeom {argv[0]}", f"# version: {__version__}", *header]
        rc, text = run_cli(tmp_path, *argv, "--format", "json", name="r.json")
        assert rc == 0
        assert list(json.loads(text)["request"].items()) == list(meta.items())

    def test_non_finite_request_values_are_strict_json(self, tmp_path):
        def reject(token):
            raise ValueError(f"not strict JSON: {token}")

        rc, text = run_cli(tmp_path, "distance", "--model", "poisson", "--p1", "inf", "--p2", "inf",
                           "--format", "json", name="r.json")
        assert rc == 0
        doc = json.loads(text, parse_constant=reject)
        assert (doc["request"]["p1"], doc["request"]["p2"]) == ("inf", "inf")


class TestSvgOutput:
    def test_density_svg(self, tmp_path):
        rc, text = run_cli(tmp_path, "density", "--alpha", "2", "--beta", "2",
                           "--samples", "64", "--format", "svg", name="d.svg")
        assert rc == 0
        assert text.startswith("<svg")
        assert text.rstrip().endswith("</svg>")
        assert "polyline" in text

    def test_embed_svg(self, tmp_path):
        rc, text = run_cli(tmp_path, "embed", "--samples", "64", "--format", "svg", name="e.svg")
        assert rc == 0
        assert text.startswith("<svg")

    def test_nothing_finite_to_plot(self):
        with pytest.raises(cli.UsageError, match="^nothing finite to plot$"):
            cli._svg_plot([("s", "black", [(math.nan, 1.0), (0.5, math.inf)])], "t", "x", "y")

    def test_single_point_gets_unit_ranges(self):
        # x spans [2, 3] and y [0, 1], so the point sits at the lower left corner
        svg = cli._svg_plot([("s", "black", [(2.0, 0.0)])], "t", "x", "y")
        assert 'points="70.00,510.00"' in svg
        for tick in (">2</text>", ">3</text>", ">0</text>", ">1</text>"):
            assert tick in svg

    def test_svg_rejected_for_scalars(self, tmp_path, capsys):
        rc = main(["volume", "--format", "svg"])
        assert rc == 2

    @pytest.mark.parametrize("args", [
        ["mode", "--alpha", "1e9", "--beta", "1e9", "--kind", "map", "--chart", "reciprocal"],
        ["volume", "--model", "poisson"],
    ])
    def test_svg_rejected_before_a_numerical_failure(self, args, capsys):
        rc = main([*args, "--format", "svg"])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err.startswith("error: SVG output is only available for curve subcommands")

    def test_svg_rejected_before_the_mode_search(self, monkeypatch, capsys):
        import fishergeom.mode as mode

        def searched(*args, **kwargs):
            raise AssertionError("the mode search ran")

        monkeypatch.setattr(mode, "map_estimate", searched)
        monkeypatch.setattr(mode, "mapi_estimate", searched)
        for kind in ("map", "mapi"):
            rc = main(["mode", "--alpha", "2", "--beta", "3", "--kind", kind, "--format", "svg"])
            out, err = capsys.readouterr()
            assert rc == 2
            assert out == ""
            assert "SVG output is only available" in err


class TestExitCodes:
    def test_usage_error_unknown_model(self, capsys):
        assert main(["volume", "--model", "gamma"]) == 2
        # manifold.get_model's message, in the format of the unknown-chart one
        assert capsys.readouterr().err == (
            "error: unknown model 'gamma'; available: ['bernoulli', 'exponential', 'poisson']\n")

    def test_usage_error_missing_beta(self, capsys):
        assert main(["density"]) == 2

    def test_usage_error_beta_on_poisson(self, capsys):
        assert main(["density", "--model", "poisson", "--alpha", "1", "--beta", "1"]) == 2

    def test_usage_error_invalid_shape(self, capsys):
        assert main(["density", "--alpha", "-1", "--beta", "1"]) == 2

    def test_usage_error_bad_chart(self, capsys):
        assert main(["density", "--alpha", "1", "--beta", "1", "--chart", "polar"]) == 2
        # manifold.get_chart's message, without the quotes str() of a KeyError adds
        assert capsys.readouterr().err == (
            "error: unknown chart 'polar' for model 'bernoulli'; "
            "available: ['arclength', 'arcsin', 'reciprocal', 'theta']\n")

    def test_usage_error_prob_without_to(self, capsys):
        assert main(["prob", "--alpha", "1", "--beta", "1", "--from", "0"]) == 2
        assert capsys.readouterr() == (
            "", "error: 'prob' requires --from and --to (canonical coordinates)\n")

    def test_usage_error_distance_without_p2(self, capsys):
        assert main(["distance", "--p1", "0.2"]) == 2
        assert capsys.readouterr() == (
            "", "error: 'distance' requires --p1 and --p2 (canonical coordinates)\n")

    def test_usage_error_embed_non_bernoulli(self, capsys):
        assert main(["embed", "--model", "poisson"]) == 2

    @pytest.mark.parametrize("model", ["poisson", "exponential"])
    @pytest.mark.parametrize("shape", [[], ["--alpha", "-1"]])
    def test_embed_non_bernoulli_message(self, model, shape, capsys):
        # the one check every Beta subcommand makes, before the shapes are read
        assert main(["embed", "--model", model, *shape]) == 2
        assert capsys.readouterr() == (
            "", "error: 'embed' needs a Beta density and therefore --model bernoulli\n")

    def test_usage_error_too_few_samples(self, capsys):
        assert main(["density", "--alpha", "1", "--beta", "1", "--samples", "1"]) == 2
        assert capsys.readouterr() == ("", "error: grid needs at least 2 points\n")

    @pytest.mark.parametrize("argv", [["density", "--alpha", "1", "--beta", "1"], ["volume"]])
    @pytest.mark.parametrize("where", ["missing_dir", "directory"])
    def test_unwritable_output(self, argv, where, tmp_path, capsys):
        # a curve and a scalar subcommand: one error line, no traceback, nothing on stdout
        path, code = {"missing_dir": (tmp_path / "missing" / "x.csv", errno.ENOENT),
                      "directory": (tmp_path, errno.EISDIR)}[where]
        assert main([*argv, "--output", str(path)]) == 2
        assert capsys.readouterr() == (
            "", f"error: cannot write '{path}': {os.strerror(code)}\n")

    def test_usage_error_inverted_prob_range(self, capsys):
        assert main(["prob", "--alpha", "1", "--beta", "1", "--from", "0.7", "--to", "0.2"]) == 2

    def test_argparse_usage_exit(self):
        with pytest.raises(SystemExit) as exc:
            main(["mode", "--kind", "nonsense", "--alpha", "1", "--beta", "1"])
        assert exc.value.code == 2

    def test_numerical_failure_divergent_volume(self, capsys):
        assert main(["volume", "--model", "poisson"]) == 1
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "error estimate" in err

    def test_divergent_volume_stderr_pinned(self, capsys):
        assert main(["volume", "--model", "poisson"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("numerical failure: volume integral for 'poisson' did not converge "
                       "(best estimate 1.960384255398833e+229, error estimate inf)\n")

    def test_arithmetic_error_is_numerical_failure(self):
        # E[1/theta] under the flat prior diverges; the quadrature flags it
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "fishergeom.cli", "expect", "--alpha", "0.5", "--beta", "0.5",
             "--power", "-1"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr.startswith("numerical failure:")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_divergent_expectation_is_numerical_failure(self, capsys):
        # E[1/theta] under the flat prior diverges: in-process, nothing written
        assert main(["expect", "--alpha", "0.5", "--beta", "0.5", "--power", "-1"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("numerical failure: expectation did not converge")
        assert "error estimate inf" in err

    def test_moment_with_no_finite_term_is_numerical_failure(self, capsys):
        # every t ** k overflows at k = -10**400: no node gives a term, so no 0 is printed
        assert main(["expect", "--alpha", "2", "--beta", "3", "--power", "-1" + "0" * 400]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("numerical failure: expectation did not converge")
        assert "error estimate inf" in err

    def test_prob_nonconvergence_is_numerical_failure(self, monkeypatch, capsys):
        def unconverged(*args, **kwargs):
            return QuadratureResult(0.25, 1e-3, False, 45)

        monkeypatch.setattr(quadrature, "interval_probability", unconverged)
        assert main(["prob", "--alpha", "2", "--beta", "2", "--from", "0", "--to", "0.5"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("numerical failure: interval probability did not converge "
                       "(best estimate 0.25, error estimate 0.001)\n")

    def test_mode_search_failure_is_numerical_failure(self, monkeypatch, capsys):
        import fishergeom.mode as mode

        def no_values(*args, **kwargs):
            raise ArithmeticError("mode search found no usable density values on the scan grid")

        monkeypatch.setattr(mode, "mapi_estimate", no_values)
        assert main(["mode", "--alpha", "2", "--beta", "2"]) == 1
        assert capsys.readouterr().err.startswith("numerical failure: mode search")

    @pytest.mark.parametrize("kind,chart", [("map", "reciprocal"), ("mapi", "theta")])
    def test_underflowed_scan_is_numerical_failure(self, kind, chart, capsys):
        # Beta(1e9, 1e9) underflows to 0 on the whole scan grid: no false `flat`
        rc = main(["mode", "--alpha", "1e9", "--beta", "1e9", "--kind", kind, "--chart", chart])
        out, err = capsys.readouterr()
        assert rc == 1
        assert out == ""
        assert err.startswith("numerical failure:")

    def test_nothing_written_on_usage_error(self, tmp_path):
        out = tmp_path / "never.csv"
        rc = main(["density", "--model", "poisson", "--alpha", "1", "--beta", "1",
                   "--output", str(out)])
        assert rc == 2
        assert not out.exists()


class TestGoldenFigures:
    """Emitted figure data is pinned in-repo; the data sections must match
    byte for byte and their argmax rows must sit where the mode analysis
    puts them."""

    @pytest.mark.parametrize("name,args", [
        ("fig1_flat_prior_theta.csv",
         ["density", "--model", "bernoulli", "--alpha", "0.5", "--beta", "0.5", "--chart", "theta"]),
        ("fig2_flat_prior_arcsin.csv",
         ["density", "--model", "bernoulli", "--alpha", "0.5", "--beta", "0.5", "--chart", "arcsin"]),
        ("fig2_flat_prior_reciprocal.csv",
         ["density", "--model", "bernoulli", "--alpha", "0.5", "--beta", "0.5", "--chart", "reciprocal"]),
        ("fig5_symmetric_alpha0.49.csv",
         ["density", "--model", "bernoulli", "--alpha", "0.49", "--beta", "0.49", "--chart", "theta"]),
        ("fig5_symmetric_alpha0.51.csv",
         ["density", "--model", "bernoulli", "--alpha", "0.51", "--beta", "0.51", "--chart", "theta"]),
        ("fig5_symmetric_alpha0.99.csv",
         ["density", "--model", "bernoulli", "--alpha", "0.99", "--beta", "0.99", "--chart", "theta"]),
        ("fig5_symmetric_alpha1.01.csv",
         ["density", "--model", "bernoulli", "--alpha", "1.01", "--beta", "1.01", "--chart", "theta"]),
        ("fig6_skewed_beta.csv",
         ["density", "--model", "bernoulli", "--alpha", "1.05", "--beta", "2.05", "--chart", "theta"]),
    ])
    def test_structural_match(self, tmp_path, name, args):
        golden = (GOLDEN / name).read_text()
        rc, fresh = run_cli(tmp_path, *args, "--samples", "1001", name=name)
        assert rc == 0
        golden_lines = data_section(golden)
        fresh_lines = data_section(fresh)
        assert fresh_lines[0] == "chart_coord,canonical_coord,rho,p,embed_x,embed_y"
        assert len(fresh_lines) == 1002
        assert fresh_lines == golden_lines

    def test_fig1_argmax_at_both_edges(self):
        rows = parse_rows((GOLDEN / "fig1_flat_prior_theta.csv").read_text())
        best = max(rows, key=lambda r: r["rho"])
        assert best["canonical_coord"] < 1e-5 or best["canonical_coord"] > 1 - 1e-5
        edge_lo = rows[0]["rho"]
        edge_hi = rows[-1]["rho"]
        mid = rows[len(rows) // 2]["rho"]
        assert edge_lo > mid and edge_hi > mid

    def test_fig1_intrinsic_column_flat(self):
        rows = parse_rows((GOLDEN / "fig1_flat_prior_theta.csv").read_text())
        ps = [r["p"] for r in rows]
        assert max(ps) - min(ps) <= 1e-12
        assert ps[0] == pytest.approx(1.0 / math.pi, abs=1e-12)

    def test_fig2_arcsin_single_mode_at_zero(self):
        rows = parse_rows((GOLDEN / "fig2_flat_prior_arcsin.csv").read_text())
        best = max(rows, key=lambda r: r["rho"])
        assert best["canonical_coord"] < 1e-5
        assert rows[-1]["rho"] < best["rho"]

    def test_fig2_reciprocal_single_mode_at_one(self):
        rows = parse_rows((GOLDEN / "fig2_flat_prior_reciprocal.csv").read_text())
        best = max(rows, key=lambda r: r["rho"])
        assert best["chart_coord"] == pytest.approx(1.0, abs=1e-3)
        assert best["canonical_coord"] > 1 - 1e-3

    def test_fig5_intrinsic_bimodal_below_threshold(self):
        rows = parse_rows((GOLDEN / "fig5_symmetric_alpha0.49.csv").read_text())
        best = max(rows, key=lambda r: r["p"])
        assert best["canonical_coord"] < 1e-5 or best["canonical_coord"] > 1 - 1e-5

    def test_fig5_intrinsic_unimodal_above_threshold(self):
        rows = parse_rows((GOLDEN / "fig5_symmetric_alpha0.51.csv").read_text())
        best = max(rows, key=lambda r: r["p"])
        assert best["canonical_coord"] == pytest.approx(0.5, abs=1e-3)

    def test_fig5_chart_bimodal_below_one(self):
        rows = parse_rows((GOLDEN / "fig5_symmetric_alpha0.99.csv").read_text())
        best = max(rows, key=lambda r: r["rho"])
        assert best["canonical_coord"] < 1e-5 or best["canonical_coord"] > 1 - 1e-5

    def test_fig5_chart_unimodal_above_one(self):
        rows = parse_rows((GOLDEN / "fig5_symmetric_alpha1.01.csv").read_text())
        best = max(rows, key=lambda r: r["rho"])
        assert best["canonical_coord"] == pytest.approx(0.5, abs=1e-3)

    def test_fig6_mode_shift(self):
        rows = parse_rows((GOLDEN / "fig6_skewed_beta.csv").read_text())
        rho_best = max(rows, key=lambda r: r["rho"])
        p_best = max(rows, key=lambda r: r["p"])
        assert rho_best["canonical_coord"] == pytest.approx(1.0 / 22.0, abs=2e-3)
        assert p_best["canonical_coord"] == pytest.approx(11.0 / 42.0, abs=2e-3)


COLUMNS = ("chart_coord", "canonical_coord", "rho", "p", "embed_x", "embed_y")


def reference_csv(req, curve):
    """The curve CSV as f-strings joined per value wrote it."""
    lines = [
        f"# fishergeom {req.subcommand}",
        f"# version: {__version__}",
        f"# model: {curve.model_name}",
        f"# chart: {curve.chart_name}",
        f"# label: {curve.label}",
        f"# samples: {curve.samples}",
        ",".join(COLUMNS),
    ]
    for r in curve.rows:
        lines.append(",".join(f"{getattr(r, c):.17g}" for c in COLUMNS))
    return "\n".join(lines) + "\n"


def reference_json(req, curve):
    """The curve JSON as json.dumps(indent=2) over _jsonable rows wrote it."""
    doc = {
        "request": cli._request_meta(req),
        "result": {
            "metadata": {"model": curve.model_name, "chart": curve.chart_name,
                         "label": curve.label, "samples": curve.samples},
            "columns": list(COLUMNS),
            "rows": [[cli._jsonable(getattr(r, c)) for c in COLUMNS] for r in curve.rows],
        },
        "error_estimate": None,
        "version": __version__,
    }
    return json.dumps(doc, indent=2) + "\n"


SPECIAL = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e-300,
           1e308, -1e308, 1.0 / 3.0, 1e16, 1e-5, 123456789.0, 2.0 ** 0.5)


def special_curve():
    """Every special value in every column, rows whose sum overflows, and
    non-finite densities beside finite chart-only columns."""
    values = SPECIAL * 2
    rows = [CurveRow(*values[i:i + 6]) for i in range(len(SPECIAL))]
    rows += [CurveRow(*[1e308] * 6), CurveRow(1e-6, 0.25, 1.5, 2.5, 1.0, math.sqrt(3.0))]
    rows += [CurveRow(0.5, 0.5, v, 1.0, 1.0, 1.0) for v in (math.nan, math.inf, -math.inf, 1e308)]
    rows += [CurveRow(0.5, 0.5, 1.0, v, 1.0, 1.0) for v in (math.nan, math.inf, -math.inf, 1e308)]
    return DensityCurve(model_name="bernoulli", chart_name="theta",
                        label='Beta "q" \\ "rows": [] \u00e9', samples=len(rows), rows=tuple(rows))


FIXED = ("chart_coord", "canonical_coord")


class OwnColumns(NamedTuple):
    """The chart-only columns a body reads from a sample table."""
    xs: tuple
    thetas: tuple


class OwnEmbedding:
    """A model whose embedding gives a curve's own embedded points, one a call."""

    def __init__(self, curve):
        points = iter([(r.embed_x, r.embed_y) for r in curve.rows])
        self.embedding = lambda theta: next(points)


def own_bodies(curve):
    """Per format, the body built over the curve's own chart-only columns, as
    for a curve that no chart produced."""
    columns = OwnColumns(*[tuple(getattr(r, c) for r in curve.rows) for c in FIXED])
    return lambda fmt: cli._body(OwnEmbedding(curve), columns, fmt)


def chart_body(model, chart, n, fmt):
    """The cached body of ``chart``'s sample table at ``n`` samples."""
    return cli._body(model, _chart_samples(model, chart, n), fmt)


def chart_bodies(model, chart, n):
    """Per format, :func:`chart_body`."""
    return lambda fmt: chart_body(model, chart, n, fmt)


def writer_text(req, curve, fmt, body):
    """The curve written by cli._curve_text from its rho and p columns."""
    meta = {"model": curve.model_name, "chart": curve.chart_name, "label": curve.label,
            "samples": curve.samples}
    return cli._curve_text(req, meta, fmt, body, [r.rho for r in curve.rows],
                           [r.p for r in curve.rows])


def assert_writers_match(req, curve, bodies):
    assert writer_text(req, curve, "csv", bodies("csv")) == reference_csv(req, curve)
    assert writer_text(req, curve, "json", bodies("json")) == reference_json(req, curve)


class TestCurveWriters:
    """Curve rows are written as text from a per-chart body template filled
    with the rho and p columns; each writer must give the bytes of the
    construction it replaced."""

    @pytest.mark.parametrize("subcommand", ["density", "embed"])
    def test_special_values(self, subcommand):
        curve = special_curve()
        assert any(not math.isfinite(getattr(r, c)) for r in curve.rows for c in COLUMNS)
        req = cli._build_parser().parse_args([subcommand, "--alpha", "2", "--beta", "3"])
        assert_writers_match(req, curve, own_bodies(curve))

    @pytest.mark.parametrize("chart", ["theta", "arcsin", "reciprocal", "arclength"])
    def test_sampled_curves(self, chart):
        req = cli._build_parser().parse_args(["density", "--alpha", "1.05", "--beta", "2.05",
                                             "--chart", chart, "--samples", "301"])
        model = get_model("bernoulli")
        c = charts_for(model)[chart]
        curve = sample_curve(beta_chart_density(BetaParams(1.05, 2.05)), c, 301)
        assert_writers_match(req, curve, chart_bodies(model, c, 301))

    def test_curve_without_embedding(self):
        # NaN embedding columns
        model = get_model("exponential")
        p = IntrinsicDensity(model=model, value=lambda lam: math.exp(-lam), label="exp(-lam)")
        chart = charts_for(model)["arclength"]
        curve = sample_curve(p, chart, 21)
        req = cli._build_parser().parse_args(["embed", "--model", "exponential"])
        assert_writers_match(req, curve, chart_bodies(model, chart, 21))

    def test_chart_made_anew_writes_the_shipped_bytes(self):
        model = get_model("bernoulli")
        shipped = charts_for(model)["arcsin"]
        anew = dataclasses.replace(shipped)
        rho = beta_chart_density(BetaParams(0.7, 3.5))
        req = cli._build_parser().parse_args(["density", "--alpha", "0.7", "--beta", "3.5",
                                             "--chart", "arcsin", "--samples", "101"])
        for fmt in ("csv", "json"):
            texts = [writer_text(req, sample_curve(rho, c, 101), fmt,
                                 chart_body(model, c, 101, fmt)) for c in (shipped, anew)]
            assert texts[0] == texts[1]
        assert chart_body(model, anew, 101, "csv") is not chart_body(model, shipped, 101, "csv")

    def test_sample_counts_do_not_share_text(self):
        model = get_model("bernoulli")
        chart = charts_for(model)["reciprocal"]
        rho = beta_chart_density(BetaParams(2.0, 5.0))
        for n in (51, 101):
            req = cli._build_parser().parse_args(["density", "--alpha", "2", "--beta", "5",
                                                 "--chart", "reciprocal", "--samples", str(n)])
            # the body holds n rows, each with rho and p left to fill
            csv = chart_body(model, chart, n, "csv") % ((0.5,) * 2 * n)
            assert len(csv.split("\n")) == n
            assert len(json.loads("[" + chart_body(model, chart, n, "json") % ((0.5,) * 2 * n)
                                  + "]")) == n
            assert_writers_match(req, sample_curve(rho, chart, n), chart_bodies(model, chart, n))


GOLDEN_COMMANDS = [
    ["density", "--alpha", "0.5", "--beta", "0.5", "--chart", "theta"],
    ["density", "--alpha", "0.5", "--beta", "0.5", "--chart", "arcsin"],
    ["density", "--alpha", "0.5", "--beta", "0.5", "--chart", "reciprocal"],
    ["density", "--alpha", "0.49", "--beta", "0.49", "--chart", "theta"],
    ["density", "--alpha", "0.51", "--beta", "0.51", "--chart", "theta"],
    ["density", "--alpha", "0.99", "--beta", "0.99", "--chart", "theta"],
    ["density", "--alpha", "1.01", "--beta", "1.01", "--chart", "theta"],
    ["density", "--alpha", "1.05", "--beta", "2.05", "--chart", "theta"],
]
EMBED_COMMANDS = [["embed", "--chart", c] for c in ("theta", "arcsin", "reciprocal", "arclength")]


class TestCurveFilesMatchReference:
    """What cli.main writes to a file is the reference writers' text over
    sample_curve's rows, byte for byte."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv", GOLDEN_COMMANDS + EMBED_COMMANDS,
                             ids=lambda argv: "-".join(a for a in argv if a[0] != "-"))
    def test_file_output(self, tmp_path, argv, fmt):
        argv = [*argv, "--format", fmt]
        rc, text = run_cli(tmp_path, *argv)
        assert rc == 0
        req = cli._build_parser().parse_args(argv)
        model = get_model(req.model)
        rho = beta_chart_density(BetaParams(req.alpha or 0.5, req.beta or 0.5))
        d = intrinsic_from_chart(rho) if req.subcommand == "embed" else rho
        curve = sample_curve(d, charts_for(model)[req.chart], req.samples)
        assert text == (reference_csv if fmt == "csv" else reference_json)(req, curve)


def fresh_process(argv):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "fishergeom.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


class TestParserBuiltOnce:
    def test_one_parser_per_process(self):
        assert cli._build_parser() is cli._build_parser()

    def test_calls_in_one_process_match_fresh_processes(self, capsys):
        # each subcommand leaves defaults another one reads: no call may see
        # the fields of the one before
        sequence = [
            ["density", "--alpha", "2", "--beta", "3", "--chart", "arcsin", "--samples", "5"],
            ["embed", "--samples", "5"],
            ["mode", "--alpha", "2", "--beta", "3"],
            ["embed", "--samples", "5", "--format", "json", "--alpha", "0.3", "--beta", "4"],
            ["density", "--alpha", "2", "--beta", "3", "--samples", "5", "--format", "json"],
            ["mode", "--alpha", "2", "--beta", "3", "--kind", "map", "--chart", "reciprocal"],
            ["prob", "--alpha", "2", "--beta", "3", "--from", "0.1", "--to", "0.4"],
            ["density", "--alpha", "2"],
            ["embed", "--chart", "polar"],
            ["distance", "--p1", "0.1", "--p2", "0.7", "--format", "json"],
            ["expect", "--alpha", "2", "--beta", "3"],
        ]
        for argv in sequence:
            rc = main(argv)
            out, err = capsys.readouterr()
            assert (rc, out, err) == fresh_process(argv), argv

    def test_argparse_error_leaves_the_parser_usable(self, capsys):
        with pytest.raises(SystemExit):
            main(["density", "--format", "xml"])
        capsys.readouterr()
        argv = ["density", "--alpha", "2", "--beta", "3", "--samples", "3"]
        rc = main(argv)
        assert (rc, *capsys.readouterr()) == fresh_process(argv)


class TestLazyImports:
    @staticmethod
    def fresh_python(code: str) -> str:
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60, check=True)
        return proc.stdout

    def test_cli_import_loads_no_search_quadrature_or_parser(self):
        # each is imported by the subcommand (or the parse) that needs it
        out = self.fresh_python(
            "import sys, fishergeom.cli\n"
            "print([m for m in ('fishergeom.mode', 'fishergeom.quadrature', 'argparse')"
            " if m in sys.modules])")
        assert out == "[]\n"

    def test_cli_import_loads_no_json(self):
        # the JSON writer imports it on its first document
        out = self.fresh_python("import sys, fishergeom.cli\nprint('json' in sys.modules)")
        assert out == "False\n"

    def test_every_public_name_resolves(self):
        # each name is its module's object, star-imports, and is listed by dir()
        out = self.fresh_python(
            "import importlib, fishergeom\n"
            "from fishergeom import *\n"
            "names = fishergeom.__all__\n"
            "print(len(names), [n for n in names if n not in dir(fishergeom) or globals()[n]"
            " is not getattr(importlib.import_module('fishergeom.' + fishergeom._MODULES[n]), n)])\n"
            "try:\n"
            "    fishergeom.no_such_name\n"
            "except AttributeError as e:\n"
            "    print(e)")
        assert out == "43 []\nmodule 'fishergeom' has no attribute 'no_such_name'\n"
