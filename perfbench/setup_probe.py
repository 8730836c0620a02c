"""Set-up time of one workload in a fresh interpreter.

Usage: ``python3 perfbench/setup_probe.py <workload> <seed>``. Prints the
seconds spent importing ``fishergeom``, building the models, charts and
densities, and running one warm-up op of each kind, scaled to reference
time by a kernel run just before (see :mod:`hostspeed`). Input generation
and the oracle are not counted.
"""

import sys
from time import perf_counter

import env
from hostspeed import HostSpeed

env.require_checkout()
factor = HostSpeed().factor()
t0 = perf_counter()
import workloads  # noqa: E402  (the import of fishergeom is what is timed)

t1 = perf_counter()
workload = workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]))
t2 = perf_counter()
workload.warm_up(workload.build())
t3 = perf_counter()
print(repr(((t1 - t0) + (t3 - t2)) * factor))
