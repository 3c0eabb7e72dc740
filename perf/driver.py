"""Measurement primitives: the closed loop, process-tree accounting, leak checks.

Everything here is independent of what is being measured; the four workloads
live in :mod:`perf.workloads`.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


# -- statistics --------------------------------------------------------------------------


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of ``values`` (``p`` in 0..100)."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(p / 100.0 * (len(ordered) - 1)))))
    return ordered[rank]


def tail(values: Sequence[float]) -> tuple[float, float]:
    """``(p, value)`` for the highest ladder percentile with >= 10 samples beyond it."""
    chosen = _PERCENTILE_LADDER[0]
    for p in _PERCENTILE_LADDER:
        if len(values) * (1.0 - p / 100.0) >= 10.0:
            chosen = p
    return chosen, percentile(values, chosen)


def iqr_share(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# -- process tree ------------------------------------------------------------------------


def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            raw = handle.read().decode("ascii", "replace")
    except OSError:
        return None
    # the command name may contain spaces; fields resume after the last ')'
    return raw[raw.rfind(")") + 2 :].split()


def _is_not_the_programs(pid: int) -> bool:
    """The harness's host probe, or multiprocessing's resource tracker."""
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            command = handle.read()
    except OSError:
        return False
    return b"hostprobe.py" in command or b"resource_tracker" in command


def descendants(root: int | None = None, *, everything: bool = False) -> list[int]:
    """Live descendants of ``root`` (default: this process) that belong to the program.

    Left out unless ``everything``: the harness's host probe and
    multiprocessing's resource tracker, which lives as long as its parent by
    design — it is the stdlib's process, not the workload's.
    """
    root = os.getpid() if root is None else root
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(int(entry))
    found: list[int] = []
    frontier = [root]
    while frontier:
        for child in children.get(frontier.pop(), []):
            if not everything and _is_not_the_programs(child):
                continue
            found.append(child)
            frontier.append(child)
    return found


def adopt_orphans() -> None:
    """Make this process the parent of every descendant whose own parent exits.

    ``PR_SET_CHILD_SUBREAPER``: without it an orphan goes to the container's
    process 1, which need not reap, and stays behind as a zombie after the run.
    """
    import ctypes

    pr_set_child_subreaper = 36
    ctypes.CDLL(None, use_errno=True).prctl(pr_set_child_subreaper, 1, 0, 0, 0)


def stop_tree(grace: float = 5.0) -> list[int]:
    """Stop every process this run started and wait until each has ended.

    Called on every path out of a run.  The one process that is still alive
    after a clean run is multiprocessing's resource tracker (started by the
    first shared-memory segment): it ends when its pipe closes, which the
    stdlib leaves to interpreter exit — too late for the parent to wait for
    it.  Anything else still alive is killed after ``grace`` seconds.
    Returns the pids that had to be killed.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        # what the stdlib's own ``_stop`` does, minus its blocking wait (a
        # worker that is still alive holds the pipe open; the loop below
        # deals with both)
        os.close(tracker._fd)
        tracker._fd = tracker._pid = None
    # a segment finalised later (interpreter exit after a failed run) must not
    # start a new tracker that would outlive this process; the old tracker
    # has unlinked whatever was still registered when its pipe closed
    resource_tracker.register = resource_tracker.unregister = lambda *_args: None
    killed: list[int] = []
    deadline = time.monotonic() + grace
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            pass  # nothing left to wait for
        alive = descendants(everything=True)
        if not alive:
            return killed
        if time.monotonic() > deadline:
            for pid in alive:
                try:
                    os.kill(pid, 9)
                    killed.append(pid)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + grace
        time.sleep(0.02)


def tree_cpu_seconds(children: Sequence[int] | None = None) -> float:
    """user+sys CPU of this process and its live descendants.

    This process is read from its own clock (nanoseconds); descendants from
    ``/proc/<pid>/stat`` (10 ms ticks).  ``children`` skips the scan of
    ``/proc`` when the caller knows the tree has not changed (the cycle
    boundaries of a timed phase).
    """
    total = time.process_time()
    for pid in descendants() if children is None else children:
        fields = _stat_fields(pid)
        if fields is not None:
            total += (int(fields[11]) + int(fields[12])) / _CLK_TCK
    return total


def tree_peak_rss_mb() -> float:
    """Sum of ``VmHWM`` over this process and its live descendants."""
    total_kb = 0
    for pid in [os.getpid(), *descendants()]:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


# -- host calibration --------------------------------------------------------------------


def calibrate() -> float:
    """Milliseconds for a fixed numpy + pure-Python kernel (median of 5).

    If this moves together with a metric, the host moved, not the program.
    """
    ids = (np.arange(400_000) * 7919) % 1024
    weights = np.linspace(0.0, 1.0, ids.size)
    samples = []
    for _ in range(5):
        started = time.perf_counter()
        np.bincount(ids, weights=weights, minlength=1024)
        acc = 0
        for i in range(60_000):
            acc += i * i % 7
        samples.append((time.perf_counter() - started) * 1e3)
    return statistics.median(samples)


class HostProbe:
    """The host-speed side process (``perf/hostprobe.py``) and what it read.

    The reference host shares its cores' hyper-threads with other tenants: for
    spells of milliseconds to minutes a core runs everything 1.3 to 1.8 times
    slower, in CPU time as much as in wall time, and no estimator inside one
    run can see past that.  So the run measures it: the side process times a
    fixed kernel on the run's one core, a hundred times a second, and every timed interval is scaled by how fast the kernel ran
    during it.  The scale is fixed, not found per run: a duration is reported
    as what it would have been on a core that runs the kernel in
    ``REFERENCE_KERNEL_NS`` — a quiet core of the reference host.

    ``sensitivity`` is the workload's own: a workload that slows down by
    ``f ** sensitivity`` when the kernel slows down by ``f`` (compute-bound
    Python a little more than the kernel, a topology that spends its time in
    sockets and pipes a good deal less; frozen per workload on the reference
    host, see perf/README.md).
    """

    PERIOD = 0.01
    REFERENCE_KERNEL_NS = 120_000.0

    def __init__(self, sensitivity: float) -> None:
        self._sensitivity = sensitivity
        self._process = subprocess.Popen(
            [
                sys.executable,
                str(Path(__file__).with_name("hostprobe.py")),
                str(self.PERIOD),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        self._stamps = np.empty(0)
        self._running = np.zeros(1)

    def __enter__(self) -> "HostProbe":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        """End the side process, wait for it, and keep its readings."""
        if exc_info[0] is not None:  # the run failed: no readings needed
            self._process.kill()
            self._process.communicate()
            return
        # a byte, not just end-of-file: a worker forked by the program while
        # the probe ran holds a copy of the pipe, and may still be alive
        raw, _ = self._process.communicate(b"\n")
        if self._process.returncode != 0:
            raise RuntimeError(f"host probe exited {self._process.returncode}")
        stamps, kernel_ns = np.array(json.loads(raw), dtype=float).T
        self._stamps = stamps
        speed = (self.REFERENCE_KERNEL_NS / kernel_ns) ** self._sensitivity
        self._running = np.concatenate([[0.0], np.cumsum(speed)])

    def speed(self, started: Any, ended: Any) -> np.ndarray:
        """Mean speed of the workload over each ``[started, ended]``, 1.0 at reference.

        A duration times this is the duration at reference speed: work done is
        the integral of speed over time, so speeds average arithmetically.
        Vectorised over intervals; an interval is widened by one period on
        both sides so that the shortest operation still has readings.
        """
        last = len(self._stamps) - 1
        low = np.searchsorted(self._stamps, np.asarray(started, dtype=float) - self.PERIOD)
        high = np.searchsorted(self._stamps, np.asarray(ended, dtype=float) + self.PERIOD)
        low = np.minimum(low, last)
        high = np.maximum(high, low + 1)
        return (self._running[high] - self._running[low]) / (high - low)


# -- leak checks -------------------------------------------------------------------------


def _listening_sockets() -> int:
    """Listening TCP sockets owned by this process."""
    inodes = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue
        if target.startswith("socket:["):
            inodes.add(target[8:-1])
    listening = 0
    for table in ("/proc/self/net/tcp", "/proc/self/net/tcp6"):
        try:
            with open(table) as handle:
                next(handle)
                for line in handle:
                    parts = line.split()
                    if parts[3] == "0A" and parts[9] in inodes:
                        listening += 1
        except (OSError, StopIteration):
            continue
    return listening


class LeakError(RuntimeError):
    """A topology left a shm segment, a listening port or a child behind."""


class LeakGuard:
    """Snapshot before a build; :meth:`check` after its ``close()``."""

    def __init__(self) -> None:
        self._shm = self._shm_entries()
        self._listening = _listening_sockets()

    @staticmethod
    def _shm_entries() -> set[str]:
        try:
            return set(os.listdir("/dev/shm"))
        except OSError:
            return set()

    def check(self, what: str) -> None:
        # worker processes are joined by close(); give the kernel a moment to
        # reap a child that has exited but whose parent has not yet waited
        deadline = time.monotonic() + 2.0
        while True:
            children = descendants()
            if not children or time.monotonic() > deadline:
                break
            time.sleep(0.02)
        leaked_shm = self._shm_entries() - self._shm
        leaked_ports = _listening_sockets() - self._listening
        problems = []
        if leaked_shm:
            problems.append(f"/dev/shm segments {sorted(leaked_shm)}")
        if leaked_ports > 0:
            problems.append(f"{leaked_ports} listening sockets")
        if children:
            problems.append(f"child processes {children}")
        if problems:
            raise LeakError(f"{what} leaked " + ", ".join(problems))


# -- the closed loop ---------------------------------------------------------------------


@dataclass
class Sample:
    """One executed operation."""

    op: Any
    started: float
    ended: float
    #: commits finished before the request was sent / started by the time the
    #: answer arrived: the answer must match the oracle at a generation in
    #: this window (both ends equal when nothing raced a commit)
    generation_low: int
    generation_high: int
    answers: Any = None
    error: BaseException | None = None


@dataclass
class Phase:
    """The samples of one run of whole cycles, with the pacer's boundaries."""

    samples: list[Sample] = field(default_factory=list)
    #: start stamp of every cycle of client 0, plus the end of its last one
    boundaries: list[float] = field(default_factory=list)
    #: process-tree CPU seconds read at each boundary
    cpu_marks: list[float] = field(default_factory=list)

    def timed_samples(self) -> list[Sample]:
        low, high = self.boundaries[0], self.boundaries[-1]
        return [s for s in self.samples if low <= s.ended <= high]

    def per_cycle(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """For each cycle: queries answered (all clients), wall seconds, tree CPU seconds."""
        done = sorted((s.ended, s.op.n_queries) for s in self.samples if s.error is None)
        ends = np.array([ended for ended, _ in done])
        running = np.concatenate([[0], np.cumsum([n for _, n in done])])
        marks = running[np.searchsorted(ends, self.boundaries, side="right")]
        return np.diff(marks), np.diff(self.boundaries), np.diff(self.cpu_marks)


class Generations:
    """Commit counters shared by the clients of one workload."""

    def __init__(self) -> None:
        self.started = 0
        self.done = 0


def _run_op(
    execute: Callable[[int, Any], Any],
    key: Callable[[Any], Any],
    client: int,
    op: Any,
    generations: Generations,
) -> Sample:
    low = generations.done
    if op.kind == "commit":
        generations.started += 1
    started = time.perf_counter()
    try:
        raw = execute(client, op)
        ended = time.perf_counter()
        sample = Sample(op, started, ended, low, generations.started)
        # reduce to comparable keys now: a result object holds per-block
        # arrays, and thousands of them would distort peak RSS
        sample.answers = None if op.kind == "commit" else [key(r) for r in raw]
    except Exception as error:  # noqa: BLE001 - a failed operation is counted, not fatal
        sample = Sample(op, started, time.perf_counter(), low, generations.started, error=error)
    if op.kind == "commit":
        generations.done += 1
    return sample


def run_cycles(
    cycles: Sequence[Sequence[Sequence[Any]]],
    execute: Callable[[int, Any], Any],
    key: Callable[[Any], Any],
    generations: Generations,
    *,
    seconds: float | None,
) -> Phase:
    """Run whole cycles in a closed loop, one thread per client.

    ``cycles[c]`` is client ``c``'s list of cycles (each a list of ops).
    Client 0 paces: its cycle starts are the segment boundaries, and it stops
    everyone at the cycle end nearest to ``seconds`` (``seconds=None`` runs
    every given cycle).  The other clients run their
    own cycles back to back and stop after the operation in flight.  With
    one client everything runs on the calling thread, so a process pool
    started by the workload may still fork.
    """
    phase = Phase()
    stop = threading.Event()
    per_client: list[list[Sample]] = [[] for _ in cycles]

    def follower(client: int) -> None:
        for cycle in cycles[client]:
            for op in cycle:
                if stop.is_set():
                    return
                per_client[client].append(
                    _run_op(execute, key, client, op, generations)
                )

    threads = [
        threading.Thread(target=follower, args=(client,), name=f"perf-client-{client}")
        for client in range(1, len(cycles))
    ]
    tree = descendants()  # workers exist before a phase starts
    origin = time.perf_counter()
    for thread in threads:
        thread.start()
    try:
        for done, cycle in enumerate(cycles[0], start=1):
            phase.boundaries.append(time.perf_counter())
            phase.cpu_marks.append(tree_cpu_seconds(tree))
            for op in cycle:
                per_client[0].append(_run_op(execute, key, 0, op, generations))
            elapsed = time.perf_counter() - origin
            if seconds is not None and elapsed + elapsed / done / 2 >= seconds:
                break  # the nearest whole number of cycles to ``seconds``
        phase.boundaries.append(time.perf_counter())
        phase.cpu_marks.append(tree_cpu_seconds(tree))
    finally:
        stop.set()
        for thread in threads:
            thread.join()
    for samples in per_client:
        phase.samples.extend(samples)
    return phase
