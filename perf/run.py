"""Entry point of the benchmark (the ``command`` of ``BENCHMARK.json``).

Contract mode, one workload per process::

    python3 -m perf.run --workload door_warm_rw --seed 3 --seconds 15 --trace 0

prints, as the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Without ``--workload`` the command runs all four workloads, each in a fresh
subprocess that does the timed pass and then the traced pass, and prints
every metric by name with its unit::

    python3 -m perf.run --seed 0
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: pinned before numpy is imported: one BLAS thread, a fixed string hash seed
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
#: the contract file names the workloads; perf/workloads.py implements them
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = tuple(entry["name"] for entry in BENCH["workloads"])


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python3 -m perf.run", description=__doc__)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(BENCH["run_seconds"]))
    parser.add_argument(
        "--trace", choices=("0", "1", "both"), default="both",
        help="0: end-to-end metrics; 1: per-layer metrics; both: timed then traced pass",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="a twentieth of the operations on a fifth of the rows (smoke test)",
    )
    return parser.parse_args(argv)


# -- one workload, in this process -----------------------------------------------------------


def _pin_environment(argv: list[str]) -> None:
    """Re-exec once with the pinned environment (the hash seed is read at start-up)."""
    if all(os.environ.get(key) == value for key, value in PINNED_ENV.items()):
        return
    env = {**os.environ, **PINNED_ENV}
    os.execve(sys.executable, [sys.executable, "-m", "perf.run", *argv], env)


def measure(args: argparse.Namespace) -> dict:
    """Run one workload and return the contract's result object."""
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"perf.run: nothing to measure: {ROOT / 'src' / 'repro'} is missing")
    sys.path.insert(0, str(ROOT / "src"))

    import gc
    import hashlib
    import shutil
    import statistics
    import time

    import numpy as np

    from . import driver
    from .oracle import Oracle
    from .probes import Battery
    from .workloads import WORKLOADS, answer_key

    driver.adopt_orphans()
    clock = time.perf_counter()

    def stage(name: str) -> None:
        """Where the run's wall time went, on stderr (sizing aid, not a metric)."""
        nonlocal clock
        now = time.perf_counter()
        print(f"perf.run {args.workload}: {name} {now - clock:.2f}s", file=sys.stderr)
        clock = now

    workload = WORKLOADS[args.workload](args.seed, quick=args.quick)
    timed = args.trace in ("0", "both")
    traced = args.trace in ("1", "both")
    metrics: dict[str, tuple[float, str]] = {}

    # one core for the whole tree (threads, shard workers, the host probe
    # inherit it): the probe then reads the speed of the core the work runs on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workload.prepare()
    builds: list[tuple[float, float]] = []

    def build() -> driver.LeakGuard:
        guard = driver.LeakGuard()
        started = time.perf_counter()
        workload.build()
        builds.append((started, time.perf_counter()))
        return guard

    def close(guard: driver.LeakGuard) -> None:
        workload.close()
        guard.check(f"{workload.name} after build {len(builds)}")

    generations = driver.Generations()
    samples: list[driver.Sample] = []
    cursor = 0

    def run(count: int | None, seconds: float | None = None, clients: int | None = None):
        """Run ``count`` cycles (None: until ``seconds``) from where the last run ended."""
        nonlocal cursor
        stop = n_cycles - reserve if count is None else cursor + count
        phase = driver.run_cycles(
            [client_cycles[cursor:stop] for client_cycles in cycles[:clients]],
            workload.execute,
            answer_key,
            generations,
            seconds=seconds,
        )
        cursor += len(phase.boundaries) - 1
        samples.extend(phase.samples)
        return phase

    def primary(phase) -> list[driver.Sample]:
        return [
            sample for sample in phase.timed_samples()
            if sample.op.cls == workload.primary and sample.error is None
        ]

    def p50(phase) -> float:
        return statistics.median((s.ended - s.started) * 1e3 for s in primary(phase))

    with driver.HostProbe(workload.host_sensitivity) as host:
        kept = build()
        stage("first build")

        # every op is generated before anything is timed: cycle 0 warms up, the
        # timed phase may use twice the reference count, the traced pass 3
        reserve = 3
        n_cycles = 1 + (2 * workload.reference_cycles if timed else 0) + reserve
        cycles = [
            [workload.cycle(client, index) for index in range(n_cycles)]
            for client in range(workload.clients)
        ]
        gc.collect()
        gc.freeze()
        stage("operation lists")

        run(1)  # warm-up, fixed length, untimed
        stage("warm-up")
        phase = run(None, args.seconds) if timed else None
        if timed:
            peak_rss = driver.tree_peak_rss_mb()
            stage(f"timed phase of {len(phase.boundaries) - 1} cycles")
        if traced:
            calib_before = driver.calibrate()
            plain = run(1)
            workload.traced = True
            with_trace = run(1)
            workload.traced = False
            alone = run(1, clients=1) if workload.clients > 1 else plain
            calib_after = driver.calibrate()
            stage("traced replay")
        close(kept)
        if timed:
            # the other two builds come after peak memory is read, so that it
            # is one topology's and not three builds' leftovers
            close(build())
            close(build())
            stage("builds " + " ".join(f"{ended - started:.3f}" for started, ended in builds))

    if timed:
        # every duration is scaled to reference host speed (perf/README.md,
        # "Reference-speed time"); medians throughout
        answered, wall, cpu = phase.per_cycle()
        speed = host.speed(phase.boundaries[:-1], phase.boundaries[1:])
        ops = primary(phase)
        started = np.array([s.started for s in ops])
        ended = np.array([s.ended for s in ops])
        built = np.array(builds)
        metrics["setup_s"] = (
            float(np.median((built[:, 1] - built[:, 0]) * host.speed(*built.T))), "s"
        )
        metrics["throughput_qps"] = (float(np.median(answered / (wall * speed))), "1/s")
        metrics["latency_p50_ms"] = (
            float(np.median((ended - started) * host.speed(started, ended)) * 1e3), "ms"
        )
        metrics["cpu_ms_per_query"] = (float(np.median(cpu * speed / answered) * 1e3), "ms")
        metrics["peak_rss_mb"] = (peak_rss, "MB")
        print(
            f"perf.run {args.workload}: as clocked {np.median(answered / wall):.2f} q/s, "
            f"p50 {p50(phase):.2f} ms, host speed per cycle "
            + " ".join(f"{value:.2f}" for value in speed),
            file=sys.stderr,
        )

    if traced:
        diagnostic = phase or plain
        window = [(s.ended - s.started) * 1e3 for s in primary(diagnostic)]
        rank, value = driver.tail(window)
        answered, wall, _cpu = diagnostic.per_cycle()
        digest = hashlib.sha256()
        for client_cycles in cycles:
            for cycle in client_cycles[: 1 + reserve]:  # the cycles every mode generates
                for op in cycle:
                    digest.update(op.describe().encode())
        metrics.update({
            "driver.samples": (float(len(window)), "count"),
            "driver.latency_tail_ms": (value, "ms"),
            "driver.tail_percentile": (rank, "%"),
            "driver.segment_qps_iqr": (driver.iqr_share(list(answered / wall)), "ratio"),
            "driver.host_speed": (
                float(host.speed(diagnostic.boundaries[0], diagnostic.boundaries[-1])),
                "ratio",
            ),
            "driver.calib_ms": ((calib_before + calib_after) / 2, "ms"),
            "driver.trace_overhead_ratio": (p50(with_trace) / p50(plain), "ratio"),
            "driver.concurrency_wait_ms": (p50(plain) - p50(alone), "ms"),
            # the first 48 bits: a number every JSON reader keeps exactly
            "driver.oplist_sha": (float(int(digest.hexdigest()[:12], 16)), "sha48"),
        })

    oracle = Oracle(workload)
    try:
        problems = oracle.verify(samples)
    finally:
        oracle.close()
    stage("oracle")

    if traced:
        workdir = ROOT / ".perf_work" / str(os.getpid())
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            metrics.update(Battery(workload, str(workdir)).run())
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            if not any(workdir.parent.iterdir()):
                workdir.parent.rmdir()
        layer = {name: value for name, (value, _unit) in metrics.items()}
        metrics["driver.unattributed_share"] = (
            max(0.0, 1.0 - workload.attributed_ms(layer) / p50(plain)), "ratio"
        )
        stage("probe battery")

    for problem in problems[:20]:
        print(f"FAILED {workload.name}: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": len(samples),
        "failed": len(problems),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


# -- all workloads, one subprocess each ------------------------------------------------------


def run_all(args: argparse.Namespace) -> int:
    failed = False
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, "-m", "perf.run", "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", args.trace,
        ] + (["--quick"] if args.quick else [])
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"{name}: exited {done.returncode} without a result")
            failed = True
            continue
        result = json.loads(lines[-1])
        failed = failed or done.returncode != 0 or not result["correct"]
        print(
            f"== {name}: {result['attempted']} operations, {result['failed']} failed, "
            f"{'correct' if result['correct'] else 'WRONG ANSWERS'}"
        )
        for metric, entry in result["metrics"].items():
            print(f"{name:20s} {metric:42s} {entry['value']!r:>24} {entry['unit']}")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _parse(argv)
    if args.workload is None:
        return run_all(args)
    _pin_environment(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # leave through ``finally``
    try:
        result = measure(args)
    finally:
        # on every path out: no process of this run outlives it
        from .driver import stop_tree

        killed = stop_tree()
    if killed:
        print(f"perf.run {args.workload}: had to kill leftover processes {killed}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
