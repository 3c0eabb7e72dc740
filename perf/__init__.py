"""The repository's performance benchmark (see perf/README.md).

``python3 -m perf.run --workload <name> --seed <n> --seconds <s> --trace <0|1>``
is the contract entry point named in ``BENCHMARK.json``; without
``--workload`` the same command runs all four workloads, each in a fresh
subprocess, and prints every metric by name with its unit.

The benchmark measures the program from outside: it times calls into the
public functions of ``src/repro`` and reads the counters the program already
exports.  It changes nothing under ``src/``.
"""
