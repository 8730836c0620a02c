"""The same-bits corpus: named groups of integral results, pinned by digest.

Each group enumerates named outputs of the public API, each the ``repr`` of a
``QuadratureResult`` or of the error its call raised, over Beta shapes from
1e-3 to 300 in all four charts, regions, expectations and raw integrands.
``tests/golden/corpus.sha256`` holds one sha256 a group over its
``name repr`` lines. The digests were recorded on CPython 3.11, as
``seed_results.txt`` was; bits may differ with the Python version or libm.

    python tests/corpus.py --check [GROUP ...]   # groups (default all) against their digests
    python tests/corpus.py --write [GROUP ...]   # record groups' digests
    python tests/corpus.py --against REV         # every output against REV's src/

A group that moves under ``--check`` is rebuilt at the commit that last wrote
the digest file, and the first output that differs is printed by name. The
library is read from ``--src`` (default this checkout's ``src/``). A change
that moves a group on purpose rewrites its digest and names it in CHANGES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "golden" / "corpus.sha256"
ALPHAS = (1e-3, 0.02369, 0.05, 0.1, 0.3, 0.5, 0.7, 1.0, 1.05, 2.0, 3.7, 20.0, 300.0)
BETAS = (1e-3, 0.05, 0.5, 1.0, 2.05, 4.1, 60.0)
REGIONS = ((0.0, 0.3), (0.2, 0.7), (0.6, 1.0), (0.0, 1e-3), (1e-300, 0.5), (0.5, 1.0 - 1e-16))


def groups() -> dict:
    """Every group's name and a function yielding its ``(name, call)`` pairs in order."""
    import fishergeom as fg

    coin = fg.bernoulli_model()
    charts = fg.charts_for(coin)
    shapes = [(a, b) for a in ALPHAS for b in BETAS]

    def beta(a, b):
        return fg.BetaParams(a, b), f"Beta({a!r},{b!r})"

    def chart_normalisations(density):
        for name, chart in charts.items():
            for a, b in shapes:
                params, label = beta(a, b)
                yield f"{name} {label}", lambda params=params, chart=chart: fg.integrate_chart(
                    density(params, chart).value_offset, chart.domain)

    def intrinsics(params):
        rho = fg.beta_chart_density(params)
        return {"closed": fg.beta_intrinsic_density(params),
                "from-chart": fg.intrinsic_from_chart(rho)}

    def manifold():
        for a, b in shapes:
            params, label = beta(a, b)
            ps = intrinsics(params)
            ps["from-arcsin"] = fg.intrinsic_from_chart(
                fg.pushforward(fg.beta_chart_density(params), charts["arcsin"]))
            for kind, p in ps.items():
                yield f"{kind} {label}", lambda p=p: fg.integrate_manifold(p.value_offset, coin)

    functions = {f"t**{k}": lambda t, k=k: t ** k for k in (1, 2, -1, -2)}
    functions["1/(1-t)"] = lambda t: 1 / (1 - t)
    functions["exp(1/t)"] = lambda t: math.exp(1 / t)

    def expectations():
        for a, b in shapes:
            params, label = beta(a, b)
            for kind, p in intrinsics(params).items():
                for name, f in functions.items():
                    yield f"{kind} {label} E[{name}]", lambda p=p, f=f: fg.expectation(p, f)

    def regions():
        for a, b in shapes:
            params, label = beta(a, b)
            for kind, p in intrinsics(params).items():
                for lo, hi in REGIONS:
                    yield (f"{kind} {label} [{lo!r}, {hi!r}]",
                           lambda p=p, r=fg.Interval(lo, hi): fg.interval_probability(p, r))

    def plain_intrinsic():
        for a, b in shapes:
            params, label = beta(a, b)
            p = fg.IntrinsicDensity(coin, fg.beta_intrinsic_density(params).value, label)
            yield label, lambda p=p: fg.integrate_manifold(p.value_offset, coin)

    def volumes():
        rate_regions = ((0.0, 4.0), (0.5, 2.0), (1e-300, 1e-3), (1.0, math.inf), (1e300, math.inf))
        for name in ("bernoulli", "poisson", "exponential"):
            model = fg.get_model(name)
            yield f"{name} volume", lambda model=model: fg.volume_result(model)
            if name == "bernoulli":
                continue
            p = fg.IntrinsicDensity(model, lambda lam: math.exp(-lam), "exp(-lam)",
                                    value_offset=lambda lam, co: math.exp(-co))
            for lo, hi in rate_regions:
                region = fg.Interval(lo, hi)
                yield f"{name} volume [{lo!r}, {hi!r}]", lambda m=model, r=region: (
                    fg.volume_result(m, r))
                yield f"{name} exp(-lam) [{lo!r}, {hi!r}]", lambda m=model, r=region, p=p: (
                    fg.integrate_manifold(p.value_offset, m, r))

    def raw():
        intervals = ((0.0, math.inf), (-math.inf, math.inf), (1.0, math.inf), (-math.inf, -1.0),
                     (1e300, math.inf), (-math.inf, -1e300), (0.0, 1e-300),
                     (5e-324, 1e-323), (0.0, 5e-324), (1.0, 1.0 + 2.0 ** -52),
                     (-1.7e308, 1.7e308), (0.0, 1e308), (1e300, 2e300), (-2.5, 7.25))
        integrands = {
            "1/(1+x*x)": lambda x: 1.0 / (1.0 + x * x),
            "exp(-|x|)": lambda x: math.exp(-abs(x)),
            "1": lambda x: 1.0,
            "1/x": lambda x: 1.0 / x,
            "|xc|**-0.5": lambda x, xc: abs(xc) ** -0.5 if xc == xc else 1.0 / (1.0 + x * x),
            "exp(-|xc|)": lambda x, xc: math.exp(-abs(xc if xc == xc else x)),
        }
        for lo, hi in intervals:
            interval = fg.Interval(lo, hi)
            for name, f in integrands.items():
                yield f"{name} on [{lo!r}, {hi!r}]", lambda f=f, i=interval: (
                    fg.integrate_chart(f, i))

    return {
        "chart-beta": lambda: chart_normalisations(
            lambda params, chart: fg.pushforward(fg.beta_chart_density(params), chart)),
        "chart-intrinsic-view": lambda: chart_normalisations(
            lambda params, chart: fg.chart_from_intrinsic(fg.beta_intrinsic_density(params), chart)),
        "chart-composed": lambda: chart_normalisations(
            lambda params, chart: fg.pushforward(
                fg.pushforward(fg.beta_chart_density(params), charts["arcsin"]), chart)),
        "manifold": manifold,
        "expectations": expectations,
        "regions": regions,
        "plain-intrinsic": plain_intrinsic,
        "volumes": volumes,
        "raw": raw,
    }


def _outcome(call) -> str:
    try:
        return repr(call())
    except Exception as exc:
        return f"raised {exc!r}"


def lines(group: str) -> list[str]:
    """One ``name repr`` line per output of ``group``."""
    return [f"{name} {_outcome(call)}" for name, call in groups()[group]()]


def digest(group_lines: list[str]) -> str:
    return hashlib.sha256("".join(line + "\n" for line in group_lines).encode()).hexdigest()


def recorded() -> dict[str, str]:
    """The digest file's ``{group: digest}``."""
    return {group: hexdigest for hexdigest, group in
            (line.split() for line in DIGESTS.read_text(encoding="utf-8").splitlines())}


def lines_at(rev: str, names: list[str]) -> dict[str, list[str]]:
    """``{group: lines}`` of ``names`` computed by this script on ``rev``'s ``src/``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                         check=True, capture_output=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
            archive.extractall(tmp, **({"filter": "data"} if hasattr(tarfile, "data_filter")
                                       else {}))
        out = subprocess.run([sys.executable, __file__, "--src", str(Path(tmp) / "src"),
                              "--dump", *names], check=True, capture_output=True, text=True)
    return json.loads(out.stdout)


def first_difference(got: list[str], want: list[str]) -> str | None:
    """The first line where ``got`` and ``want`` differ, both shown; None if none does."""
    for g, w in zip(got, want):
        if g != w:
            return f"- {w}\n+ {g}"
    if len(got) != len(want):
        return f"{len(got)} outputs, {len(want)} at the reference"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="compare groups with their digests")
    mode.add_argument("--write", action="store_true", help="record the groups' digests, keeping others'")
    mode.add_argument("--against", metavar="REV", help="compare every output with REV's")
    mode.add_argument("--dump", action="store_true", help="print the groups' lines as JSON")
    parser.add_argument("--src", default=str(ROOT / "src"), help="the library's source directory")
    parser.add_argument("groups", nargs="*", help="groups to read (default: all)")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    names = args.groups or list(groups())
    unknown = sorted(set(names) - set(groups()))
    if unknown:
        parser.error(f"unknown groups {unknown}; known: {list(groups())}")
    if args.dump:
        print(json.dumps({name: lines(name) for name in names}))
        return 0
    if args.write:
        kept = recorded() if DIGESTS.exists() else {}
        kept.update((name, digest(lines(name))) for name in names)
        DIGESTS.write_text("".join(f"{kept[name]}  {name}\n" for name in groups() if name in kept),
                           encoding="utf-8")
        return 0
    if args.against:
        theirs, bad, total = lines_at(args.against, names), 0, 0
        for name in names:
            ours = lines(name)
            total += len(ours)
            moved = sum(o != t for o, t in zip(ours, theirs[name]))
            moved += abs(len(ours) - len(theirs[name]))
            bad += moved
            print(f"{name}: {len(ours)} outputs, {moved} differ")
            if moved:
                print(first_difference(ours, theirs[name]))
        print(f"corpus: {total} outputs against {args.against}, {bad} differ")
        return int(bad > 0)
    want, moved = recorded(), []
    for name in names:
        ours = lines(name)
        same = digest(ours) == want.get(name)
        print(f"{name}: {len(ours)} outputs, {'same digest' if same else 'MOVED'}")
        if not same:
            moved.append((name, ours))
    if moved:
        rev = subprocess.run(["git", "-C", str(ROOT), "log", "-1", "--format=%H", "--",
                              str(DIGESTS)], capture_output=True, text=True).stdout.strip()
        if not rev:
            print("no commit wrote the digest file; --against REV names what moved")
            return 1
        theirs = lines_at(rev, [name for name, _ in moved])
        for name, ours in moved:
            print(f"{name}, first output moved since {rev}:")
            print(first_difference(ours, theirs[name]) or "none; its digest was not its own")
    return int(bool(moved))


if __name__ == "__main__":
    sys.exit(main())
