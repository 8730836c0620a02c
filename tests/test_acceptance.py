"""Acceptance gate: every shipped claim at its pinned tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and asserts the same condition, so the suite doubles as a human-readable
checklist.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import betainc

from fishergeom import (
    BetaParams,
    Interval,
    beta_chart_density,
    beta_intrinsic_density,
    beta_mode_analytic,
    bernoulli_model,
    charts_for,
    fisher_rao_distance,
    integrate_chart,
    interior_grid,
    interval_probability,
    intrinsic_from_chart,
    map_estimate,
    mapi_estimate,
    normalization_check,
    pushforward,
    volume,
)
from fishergeom.cli import main

BERNOULLI = bernoulli_model()
CHARTS = charts_for(BERNOULLI)
GOLDEN = Path(__file__).parent / "golden"


def report(ok: bool, label: str, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {label}" + (f" ({detail})" if detail else ""))
    assert ok, f"{label}: {detail}"


def test_01_manifold_volume():
    v = volume(BERNOULLI)
    err = abs(v - math.pi)
    report(err <= 1e-9, "01 manifold volume is pi", f"|err|={err:.3e}, tol 1e-9")


def test_02_flat_prior_uniform_height():
    p = intrinsic_from_chart(beta_chart_density(BetaParams(0.5, 0.5)))
    dev = max(abs(p.value(t) - 1.0 / math.pi)
              for t in interior_grid(BERNOULLI.canonical_domain, 1000))
    report(dev <= 1e-12, "02 flat prior has constant intrinsic height 1/pi",
           f"max dev={dev:.3e}, tol 1e-12")


def test_03_intrinsic_closed_form():
    grid = [0.3, 0.5, 1.0, 1.05, 2.0, 5.0]
    thetas = interior_grid(BERNOULLI.canonical_domain, 200)
    worst = 0.0
    for a in grid:
        for b in grid:
            converted = intrinsic_from_chart(beta_chart_density(BetaParams(a, b)))
            closed = beta_intrinsic_density(BetaParams(a, b))
            for t in thetas:
                c = closed.value(t)
                rel = abs(converted.value(t) - c) / c
                worst = max(worst, rel)
    report(worst <= 1e-12, "03 intrinsic density matches half-shifted closed form",
           f"worst rel={worst:.3e}, tol 1e-12")


def test_04_mode_shift():
    rho = beta_chart_density(BetaParams(1.05, 2.05))
    m = map_estimate(rho).canonical_point
    mi = mapi_estimate(intrinsic_from_chart(rho), CHARTS["theta"]).canonical_point
    err_map = abs(m - 1.0 / 22.0)
    err_mapi = abs(mi - 11.0 / 42.0)
    report(err_map <= 1e-8 and err_mapi <= 1e-8,
           "04 chart mode 1/22 vs invariant mode 11/42",
           f"|map err|={err_map:.3e}, |mapi err|={err_mapi:.3e}, tol 1e-8")


def test_05_mapi_chart_invariance():
    settings = [(0.55, 0.55), (0.7, 2.05), (1.05, 2.05), (2.05, 5.0), (5.0, 0.7)]
    worst = 0.0
    for a, b in settings:
        p = intrinsic_from_chart(beta_chart_density(BetaParams(a, b)))
        pts = [mapi_estimate(p, CHARTS["theta"], search_chart=CHARTS[n]).canonical_point
               for n in ("theta", "arcsin", "reciprocal", "arclength")]
        worst = max(worst, max(pts) - min(pts))
    report(worst <= 1e-6, "05 invariant mode agrees across all four search charts",
           f"worst spread={worst:.3e}, tol 1e-6")


def test_06_map_chart_dependence():
    rho = beta_chart_density(BetaParams(0.5, 0.5))
    in_theta = map_estimate(rho).all_modes
    in_arcsin = map_estimate(pushforward(rho, CHARTS["arcsin"])).all_modes
    in_reciprocal = map_estimate(pushforward(rho, CHARTS["reciprocal"])).all_modes
    ok = in_theta == (0.0, 1.0) and in_arcsin == (0.0,) and in_reciprocal == (1.0,)
    report(ok, "06 chart mode gives three different answers in three charts",
           f"theta={in_theta}, arcsin={in_arcsin}, reciprocal={in_reciprocal}")


def test_07_unimodality_thresholds():
    r_bi = mapi_estimate(intrinsic_from_chart(beta_chart_density(BetaParams(0.49, 0.49))),
                         CHARTS["theta"])
    r_uni = mapi_estimate(intrinsic_from_chart(beta_chart_density(BetaParams(0.51, 0.51))),
                          CHARTS["theta"])
    c_bi = map_estimate(beta_chart_density(BetaParams(0.99, 0.99)))
    c_uni = map_estimate(beta_chart_density(BetaParams(1.01, 1.01)))
    ok = (r_bi.all_modes == (0.0, 1.0)
          and len(r_uni.all_modes) == 1 and abs(r_uni.canonical_point - 0.5) <= 1e-6
          and c_bi.all_modes == (0.0, 1.0)
          and len(c_uni.all_modes) == 1 and abs(c_uni.canonical_point - 0.5) <= 1e-6)
    report(ok, "07 intrinsic switches at 1/2, chart density at 1",
           f"intrinsic 0.49 -> {r_bi.all_modes}, 0.51 -> {r_uni.all_modes}; "
           f"chart 0.99 -> {c_bi.all_modes}, 1.01 -> {c_uni.all_modes}")


def test_08_interval_probability():
    params = BetaParams(0.5, 0.5)
    p = intrinsic_from_chart(beta_chart_density(params))
    got = interval_probability(p, Interval(0.0, 0.1)).value
    analytic = betainc(0.5, 0.5, 0.1)
    assert analytic == pytest.approx(2.0 / math.pi * math.asin(math.sqrt(0.1)), abs=1e-15)
    # brute-force oracle: adaptive quadrature of the chart density,
    # tolerances tightened tenfold past the requirement
    rho = beta_chart_density(params)
    oracle, _ = quad(rho.value, 0.0, 0.1, epsabs=1e-9 / 10, epsrel=1e-9 / 10, limit=400)
    err_analytic = abs(got - analytic)
    err_oracle = abs(got - oracle)
    report(err_analytic <= 1e-8 and err_oracle <= 1e-8,
           "08 left-tail probability equals the incomplete-beta value",
           f"|err| vs analytic={err_analytic:.3e}, vs oracle={err_oracle:.3e}, tol 1e-8")


def test_09_singular_quadrature():
    # the flat-prior integrand diverges at both ends; singular integrands
    # use the documented offset-aware form (distance to the nearest
    # endpoint), which is what keeps the endpoint mass representable
    def integrand(t, tc):
        lo = tc if tc > 0 else t
        hi = -tc if tc < 0 else 1.0 - t
        return lo ** -0.5 * hi ** -0.5

    res = integrate_chart(integrand, Interval(0.0, 1.0))
    err = abs(res.value - math.pi)
    report(res.converged and err <= 1e-9,
           "09 doubly singular integrand integrates to pi",
           f"|err|={err:.3e}, tol 1e-9, converged={res.converged}")


def test_10_normalization_suite():
    grid = [0.3, 0.5, 1.0, 1.05, 2.0, 5.0]
    start = time.time()
    worst = 0.0
    count = 0
    for a in grid:
        for b in grid:
            rho = beta_chart_density(BetaParams(a, b))
            masses = [normalization_check(pushforward(rho, chart))
                      for chart in CHARTS.values()]
            masses.append(normalization_check(intrinsic_from_chart(rho)))
            count += len(masses)
            worst = max(worst, max(abs(m - 1.0) for m in masses))
    elapsed = time.time() - start
    report(worst <= 1e-7 and elapsed <= 30.0,
           "10 every density in every chart integrates to 1",
           f"{count} integrals, worst |mass-1|={worst:.3e} (tol 1e-7), {elapsed:.1f}s (limit 30s)")


def test_11_isometry():
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(100):
        t1, t2 = sorted(rng.uniform(0.0, 1.0, size=2))
        if t2 - t1 < 1e-6:
            t2 = min(1.0, t1 + 1e-6)
        ts = np.linspace(t1, t2, 10_001)
        xs, ys = 2.0 * np.sqrt(ts), 2.0 * np.sqrt(1.0 - ts)
        arc = float(np.hypot(np.diff(xs), np.diff(ys)).sum())
        dist = fisher_rao_distance(BERNOULLI, t1, t2)
        worst = max(worst, abs(arc - dist) / dist)
    report(worst <= 1e-5, "11 embedded polyline length matches the metric distance",
           f"worst rel={worst:.3e}, tol 1e-5")


def test_12_figure_reproduction(tmp_path):
    figures = {
        "fig1_flat_prior_theta.csv": ["density", "--alpha", "0.5", "--beta", "0.5", "--chart", "theta"],
        "fig2_flat_prior_arcsin.csv": ["density", "--alpha", "0.5", "--beta", "0.5", "--chart", "arcsin"],
        "fig5_symmetric_alpha0.49.csv": ["density", "--alpha", "0.49", "--beta", "0.49", "--chart", "theta"],
        "fig5_symmetric_alpha0.51.csv": ["density", "--alpha", "0.51", "--beta", "0.51", "--chart", "theta"],
        "fig6_skewed_beta.csv": ["density", "--alpha", "1.05", "--beta", "2.05", "--chart", "theta"],
    }
    problems = []
    for name, args in figures.items():
        out = tmp_path / name
        rc = main([*args, "--model", "bernoulli", "--samples", "1001",
                   "--format", "csv", "--output", str(out)])
        if rc != 0:
            problems.append(f"{name}: exit {rc}")
            continue
        fresh = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        golden = [l for l in (GOLDEN / name).read_text().splitlines() if not l.startswith("#")]
        if fresh != golden:
            problems.append(f"{name}: data section differs from golden")

    def argmax_theta(name, column):
        lines = [l for l in (GOLDEN / name).read_text().splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        idx, cidx = header.index(column), header.index("canonical_coord")
        best = max(lines[1:], key=lambda l: float(l.split(",")[idx]))
        return float(best.split(",")[cidx])

    if abs(argmax_theta("fig6_skewed_beta.csv", "rho") - 1.0 / 22.0) > 2e-3:
        problems.append("fig6 rho argmax off 1/22")
    if abs(argmax_theta("fig6_skewed_beta.csv", "p") - 11.0 / 42.0) > 2e-3:
        problems.append("fig6 p argmax off 11/42")
    m = argmax_theta("fig5_symmetric_alpha0.49.csv", "p")
    if not (m < 1e-5 or m > 1 - 1e-5):
        problems.append("fig5 alpha=0.49 p argmax not at an edge")
    if abs(argmax_theta("fig5_symmetric_alpha0.51.csv", "p") - 0.5) > 1e-3:
        problems.append("fig5 alpha=0.51 p argmax not at 1/2")
    m = argmax_theta("fig1_flat_prior_theta.csv", "rho")
    if not (m < 1e-5 or m > 1 - 1e-5):
        problems.append("fig1 rho argmax not at an edge")
    if argmax_theta("fig2_flat_prior_arcsin.csv", "rho") > 1e-5:
        problems.append("fig2 arcsin rho argmax not at theta=0")

    report(not problems, "12 emitted figure data matches the pinned goldens",
           "; ".join(problems) if problems else "5 figures byte-stable, argmax rows in place")
