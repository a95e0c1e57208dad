"""Contention-corrected timing for a shared machine.

The 2-core machine the benchmark was tuned on shares its host with other
tenants. A fixed pure-Python loop there took from 32 ms to 51 ms within one
minute. Thread CPU time moved the same way, so the loss is slower execution,
not time taken away. A run of 15 s cannot average such swings out: the same
sweep_k seed read 840 to 1290 cases/s.

So the runner times this loop, which does the same kind of work as powres
(modular powers and dict stores), right before every operation. Each
operation's time is then multiplied by REF_NS / (the median loop time over
its neighbours). That gives the time the operation would take on a machine
where the loop takes REF_NS. With this, the spread of the same sweep_k
measurement across seeds fell from +-20% to +-3%. The raw wall-clock figures
are printed too, in the metadata line.
"""

from __future__ import annotations

import statistics
from time import perf_counter_ns

# About the fastest loop time seen on the 2-core Xeon (KVM) host; times
# scaled to it read as plain wall-clock time there when the host is quiet.
REF_NS = 600_000
NEIGHBOURS = 10


def loop_ns() -> int:
    """Time one pass of the fixed reference loop."""
    p, table = 1000003, {}
    start = perf_counter_ns()
    for i in range(1, 3001):
        table[pow(i, 3, p)] = i
    return perf_counter_ns() - start


def scale_factors(loop_times: list[int]) -> list[float]:
    """REF_NS over the median loop time of each index's neighbourhood."""
    return [REF_NS / statistics.median(
                loop_times[max(0, j - NEIGHBOURS):j + NEIGHBOURS + 1])
            for j in range(len(loop_times))]
