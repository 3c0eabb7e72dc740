"""Side process of a run: how fast is the host running right now?

    python3 perf/hostprobe.py PERIOD

Every ``PERIOD`` seconds it runs one fixed kernel twice, on the one core it
inherits from the run, and times the second run, in thread CPU time (so being
descheduled by the workload does not count, while a busy hyper-thread sibling
or a throttled core does).  When standard input is readable it writes every reading as JSON ``[stamp, nanoseconds]`` to
standard output and exits.  ``stamp`` is ``time.perf_counter()``, which on
Linux is the one ``CLOCK_MONOTONIC`` every process of the host shares.

Imports nothing of the program and nothing heavy: it starts in ~20 ms.
"""

from __future__ import annotations

import gc
import json
import select
import sys
import time


def kernel() -> None:
    """~0.15 ms of what the program's Python layers do: allocate, hash, sort.

    Chosen because it slows down by the same factor as the workloads when the
    host does (a bare arithmetic loop slows down less, see perf/README.md).
    """
    table = {}
    for i in range(600):
        table[str(i)] = [i, i + 1]
    sorted(table)


def main() -> None:
    period = float(sys.argv[1])
    gc.disable()  # nothing here makes cycles; a collection would be a false reading
    readings = []
    while not select.select([sys.stdin], [], [], period)[0]:
        kernel()  # pays for waking up and for caches the workload has filled
        stamp = time.perf_counter()
        began = time.thread_time_ns()
        kernel()
        readings.append((stamp, time.thread_time_ns() - began))
    json.dump(readings, sys.stdout)


if __name__ == "__main__":
    main()
