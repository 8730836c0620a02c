"""Scaling of wall times to a fixed reference speed of the host.

The shared hosts this benchmark runs on slow their CPUs by up to 2x, for
seconds to minutes at a time, so the same code measured minutes apart can
read 30% slower or more. So every timed op and set-up is paired with a run
of a fixed pure-Python kernel shortly before it (for ops, at most
``REFRESH_S`` of wall time earlier) and reported multiplied by
``REFERENCE_S / t_kernel``. Medians of the scaled samples moved by about 5%
from one minute to the next where plain medians moved by 30%.
``REFERENCE_S`` is the kernel's time on the host the benchmark was defined
on when it was not slowed, so scaled times read as that host's time. A
slower program moves the sample and not the kernel, so it moves the scaled
figure by the same share.

The kernel does the kind of work the library does: closures, float ``math``
calls, tuples and frozen-dataclass attribute reads. It never changes: it is
part of the benchmark's definition, like the workloads.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from time import perf_counter

REFERENCE_S = 0.0032
REFRESH_S = 0.05      # wall time after which the next sample gets a fresh kernel run


@dataclass(frozen=True)
class _Shape:
    a: float
    b: float


def kernel_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    shape = _Shape(0.7, 1.3)

    def f(x: float, xc: float) -> tuple[float, float]:
        lo = xc if xc > 0 else x
        return math.exp(shape.a * math.log(lo) + shape.b * math.log1p(-x)), lo

    t0 = perf_counter()
    total = 0.0
    for i in range(1, 8000):
        v, _ = f(i / 8001, i / 8001)
        total += v
    return perf_counter() - t0


class HostSpeed:
    """Reference-kernel samples taken through a run."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = -REFRESH_S
        self._factor = 1.0

    def factor(self) -> float:
        """Run the kernel now; the factor that turns a wall time measured
        next into reference time."""
        t = kernel_seconds()
        self.samples.append(t)
        self._last = perf_counter()
        self._factor = REFERENCE_S / t
        return self._factor

    def current(self) -> float:
        """The factor for a short sample timed next: the last kernel run's,
        or a fresh one once ``REFRESH_S`` has passed since it."""
        if perf_counter() - self._last >= REFRESH_S:
            return self.factor()
        return self._factor

    def scale(self) -> float:
        """The run's median factor, for times not paired with a sample."""
        return REFERENCE_S / statistics.median(self.samples)
