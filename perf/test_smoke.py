"""Smoke test of the benchmark itself: ``pytest perf -q`` (not part of tier-1).

Runs the ``--quick`` mode (a twentieth of the operations on a fifth of the
rows) and checks the shape of what comes out, not the numbers.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
#: counts made by the program or the driver: equal at equal seeds
EXACT = (
    "driver.oplist_sha",
    "driver.samples",
    "cluster.coordinator.legs_per_query",
    "service.cache.result_hit_ratio",
    "service.cache.estimator_hit_ratio",
    "service.cache.view_hit_ratio",
    "core.estimator.fits",
)


def run(*arguments: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*BENCH["command"], *arguments], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def contract_run(workload: str, seed: int, trace: str) -> dict:
    done = run("--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", trace, "--quick")
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def quick_table() -> dict[tuple[str, str], tuple[str, str]]:
    """``(workload, metric) -> (value, unit)`` from one run of the whole command."""
    started = time.monotonic()
    done = run("--seed", "0", "--seconds", "1", "--quick")
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert elapsed < 40, f"--quick took {elapsed:.0f}s"
    table: dict[tuple[str, str], tuple[str, str]] = {}
    for line in done.stdout.splitlines():
        if line.startswith("=="):
            assert " 0 failed, correct" in line, line
            continue
        workload, metric, value, unit = line.split()
        assert (workload, metric) not in table, f"{workload} {metric} printed twice"
        table[workload, metric] = (value, unit)
    return table


def test_contract_file_is_within_its_limits():
    assert set(BENCH) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert BENCH["paths"] == ["perf"]
    assert 2 <= len(BENCH["workloads"]) <= 8
    assert 1 <= len(BENCH["end_to_end"]) <= 16
    assert 1 <= len(BENCH["per_layer"]) <= 128
    assert isinstance(BENCH["run_seconds"], int) and 1 <= BENCH["run_seconds"] <= 60
    names = [w["name"] for w in BENCH["workloads"]]
    names += [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in BENCH["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in BENCH["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCH["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    runs = 4 + 22 * len(BENCH["workloads"])
    assert runs * 2 * BENCH["run_seconds"] <= 3420, "no room for set-up and checking"


def test_every_workload_prints_every_metric_once(quick_table):
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
    for workload in (w["name"] for w in BENCH["workloads"]):
        printed = {metric: unit for (w, metric), (_v, unit) in quick_table.items() if w == workload}
        assert printed == expected, set(printed) ^ set(expected)
    assert len(quick_table) == len(BENCH["workloads"]) * len(expected)


def test_contract_mode_splits_the_metrics_by_trace():
    timed = contract_run("engine_cold_mix", 0, "0")
    assert set(timed) == {"correct", "attempted", "failed", "metrics"}
    assert timed["correct"] is True and timed["failed"] == 0 and timed["attempted"] >= 1
    assert set(timed["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(entry["value"] > 0 for entry in timed["metrics"].values())
    for pid in filter(str.isdigit, os.listdir("/proc")):  # the run stopped its side process
        try:
            command = Path(f"/proc/{pid}/cmdline").read_bytes()
        except OSError:
            continue
        assert b"hostprobe.py" not in command, f"host probe {pid} outlived its run"


def test_a_run_leaves_no_process_behind():
    """Not the shard workers, and not multiprocessing's resource tracker either."""
    process = subprocess.Popen(
        [*BENCH["command"], "--workload", "pool_batch_commits", "--seed", "0",
         "--seconds", "1", "--trace", "0", "--quick"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,  # so that its session id, its pid, names all it starts
    )
    _out, err = process.communicate(timeout=300)
    assert process.returncode == 0, err[-2000:]
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except OSError:
            continue
        session = stat[stat.rfind(")") + 2 :].split()[3]
        assert session != str(process.pid), f"the run left a process behind: {stat}"


def test_same_seed_same_operations_other_seed_other_operations(quick_table):
    again = contract_run("cluster_batches", 0, "1")["metrics"]
    other = contract_run("cluster_batches", 1, "1")["metrics"]
    assert set(again) == {m["name"] for m in BENCH["per_layer"]}
    for name in EXACT:
        if name != "driver.samples":  # the table's count is of the timed phase
            assert float(quick_table["cluster_batches", name][0]) == again[name]["value"], name
    assert other["driver.oplist_sha"]["value"] != again["driver.oplist_sha"]["value"]
    for name in EXACT[1:]:
        assert other[name]["value"] == again[name]["value"], name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perf", tmp_path / "perf", ignore=shutil.ignore_patterns("__pycache__")
    )
    done = run("--workload", "engine_cold_mix", "--seed", "0", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
