"""Does the benchmark repeat?  Run it N times, twice over, and compare the sets.

    python3 -m perf.agree                 # 2 x 5 runs of every workload
    python3 -m perf.agree --runs 10       # what the acceptance driver does

Every run is the contract command with ``--trace 0`` and a seed of its own.
Sets A and B alternate run by run, so a slow spell of the host lands in both.
Per (workload, end-to-end metric) the table shows both medians, the gap
between them as a share of the smaller, and each set's quartile spread as a
share of its median.  Exit status is non-zero if any gap, in either direction,
or any spread exceeds the metric's bound in ``BENCHMARK.json``; the target is
half the bound for gaps and a third for spreads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from .driver import iqr_share

ROOT = Path(__file__).resolve().parent.parent


def run_once(bench: dict, workload: str, seed: int) -> dict[str, float]:
    done = subprocess.run(
        [*bench["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(bench["run_seconds"]), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed operations")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(prog="python3 -m perf.agree", description=__doc__)
    parser.add_argument("--runs", type=int, default=5, help="runs per set (default 5)")
    parser.add_argument("--seed", type=int, default=0, help="first seed (default 0)")
    args = parser.parse_args(argv)
    workloads = [entry["name"] for entry in bench["workloads"]]

    sets: dict[str, tuple[list, list]] = {name: ([], []) for name in workloads}
    for k in range(args.runs):
        for workload in workloads:
            for half in (0, 1):
                seed = args.seed + half * args.runs + k
                sets[workload][half].append(run_once(bench, workload, seed))

    rejected = False
    print(
        f"{'workload':20s} {'metric':18s} {'median A':>12s} {'median B':>12s} "
        f"{'gap':>7s} {'spread A':>9s} {'spread B':>9s} {'bound':>6s}"
    )
    for workload in workloads:
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first, second = ([run[name] for run in runs] for runs in sets[workload])
            a, b = statistics.median(first), statistics.median(second)
            gap = (b - a) / min(a, b)
            spreads = [iqr_share(first), iqr_share(second)]
            verdict = ""
            if max(spreads) > bound:
                verdict = "  <-- unresolved: spread wider than the bound"
            elif abs(gap) > bound:
                verdict = "  <-- the sets disagree by more than the bound"
            rejected = rejected or bool(verdict)
            print(
                f"{workload:20s} {name:18s} {a:12.4f} {b:12.4f} {gap:+7.1%} "
                f"{spreads[0]:9.1%} {spreads[1]:9.1%} {bound:6.0%}{verdict}"
            )
    return 1 if rejected else 0


if __name__ == "__main__":
    sys.exit(main())
