"""The benchmark's seed 1-3 ``integrals`` and ``modes`` results, pinned.

Each op of those passes is built by ``perfbench/workloads.py`` and run twice:
plainly, and on the densities a ``perfbench/spans.Tracer`` counts, inside the
layer span the benchmark records. The two runs must return the same result,
and the traced one must count as many density evaluations as the quadrature
reports. One line per op, ``workload seed index repr``, is then compared with
``tests/golden/seed_results.txt``. A change that moves a result on purpose
rewrites that file (``python tests/test_seed_results.py``) and lists the ops
that moved.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "seed_results.txt"
SEEDS = (1, 2, 3)
NAMES = ("integrals", "modes")
SHOWN = 5   # moved ops named in a failure


def _perfbench():
    """The benchmark's ``workloads`` and ``spans`` modules, from the checkout."""
    path = str(ROOT / "perfbench")
    if path not in sys.path:
        sys.path.insert(0, path)
    import spans
    import workloads
    return workloads, spans


def _outcome(call) -> tuple:
    """``(output, its repr)`` of ``call()``; an op that raises is pinned by its error."""
    try:
        out = call()
    except Exception as exc:
        return None, f"raised {exc!r}"
    return out, repr(out)


def _lines(name: str, seed: int) -> list[str]:
    """One line per op of the ``name`` workload's pass at ``seed``; an op whose
    traced run differs from its plain one fails here."""
    workloads, spans = _perfbench()
    w = workloads.WORKLOADS[name](seed)
    plain = [_outcome(call)[1] for call in w.build()]
    tracer = spans.Tracer()
    lines = []
    with w.traced(tracer):
        for i, call in enumerate(w.build(tracer)):
            where = f"{name} seed {seed} op {i} {w.ops[i]}"
            out, traced = _outcome(lambda: tracer.call(w.layer(i), call))
            assert traced == plain[i], f"{where}: traced {traced}, plain {plain[i]}"
            err = "" if out is None else w.check_count(i, out, tracer.spans[-1])
            assert not err, f"{where}: {err}"
            lines.append(f"{name} {seed} {i} {plain[i]}")
    return lines


def _all_lines() -> list[str]:
    return [line for name in NAMES for seed in SEEDS for line in _lines(name, seed)]


def test_seed_results_are_pinned():
    got, want = _all_lines(), GOLDEN.read_text(encoding="utf-8").splitlines()
    moved = [f"- {w}\n+ {g}" for g, w in zip(got, want) if g != w]
    assert len(got) == len(want), f"{len(got)} ops, {len(want)} pinned"
    assert not moved, f"{len(moved)} ops moved; the first:\n" + "\n".join(moved[:SHOWN])


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    GOLDEN.write_text("\n".join(_all_lines()) + "\n", encoding="utf-8")
