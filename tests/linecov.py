"""Every line of ``src/`` runs in some test: a stdlib line collector for pytest.

Run it as::

    python -m pytest -p tests.linecov -m "not wallclock" -q

The plugin records the lines of ``src/`` that run, in the pytest process and
in every Python process the suite starts: it puts ``tests/linecov_site`` (a
``sitecustomize``) on ``PYTHONPATH`` and a hits directory in ``LINECOV_DIR``
for the children, and pool workers forked from a recording process write
their lines on the way out (see ``tests/linecov_site/sitecustomize.py``).
``src/`` knows nothing of it.

A line is executable when the compiler gives it an instruction a ``line``
event can report.  At the end of the session each executable line that never
ran must be excused by :data:`ALLOWLIST`, else the session fails; an entry
that excuses no unrun line fails too, so the list cannot outlive what it
excuses.

Tests marked ``wallclock`` assert a ratio of two timings; tracing slows
Python-heavy code unevenly, so the line run deselects them.
"""

from __future__ import annotations

import ast
import importlib.util
import json
import os
import shutil
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SITE = Path(__file__).resolve().parent / "linecov_site"

_PERF_ONLY = "only perf/probes.py reaches it; it goes with ROADMAP 1(d)"
_TYPING = "imported for annotations only (TYPE_CHECKING): a runtime import cycles"
_TEARDOWN = "best-effort teardown: the resource failed to close under the test's feet"
_SHM = "a shared-memory segment the platform refuses to map, close or unlink"
_RACE = "a job that ages out or is cancelled between two steps of one call: a race"
_DOOR = "a client that goes away mid-request, or a loop without signal handlers"
_POOL = "a worker process that dies or stops answering mid-scatter"

#: (``module:qualname`` of the innermost enclosing def or class, the line's
#: text without indentation, why it may stay unrun).  An entry excuses every
#: unrun line of that text in that scope; module level is ``module:<module>``.
ALLOWLIST: list[tuple[str, str, str]] = [
    # perf/probes.py's own imports (ROADMAP 1(d) deletes them and this code)
    ("repro.service.server:<module>", '"""``make_server``: the door of :mod:`repro.aserve` behind the four names', _PERF_ONLY),
    ("repro.service.server:<module>", "from __future__ import annotations", _PERF_ONLY),
    ("repro.service.server:<module>", "from ..aserve import BackgroundAsyncServer", _PERF_ONLY),
    ("repro.service.server:<module>", "from .backend import ServiceBackend", _PERF_ONLY),
    ("repro.service.server:<module>", '__all__ = ["make_server"]', _PERF_ONLY),
    ("repro.service.server:_Server", "class _Server(BackgroundAsyncServer):", _PERF_ONLY),
    ("repro.service.server:_Server", "shutdown = BackgroundAsyncServer.stop", _PERF_ONLY),
    ("repro.service.server:_Server", "@property", _PERF_ONLY),
    ("repro.service.server:_Server.server_address", "def server_address(self) -> tuple[str, int]:", _PERF_ONLY),
    ("repro.service.server:_Server.server_address", "return self.address", _PERF_ONLY),
    ("repro.service.server:_Server.serve_forever", "def serve_forever(self) -> None:", _PERF_ONLY),
    ("repro.service.server:_Server.serve_forever", "self._thread.join()  # the door serves from start(); this waits for stop()", _PERF_ONLY),
    ("repro.service.server:_Server.server_close", "def server_close(self) -> None:", _PERF_ONLY),
    ("repro.service.server:make_server", 'def make_server(service: ServiceBackend, host: str = "127.0.0.1", port: int = 8000):', _PERF_ONLY),
    ("repro.service.server:make_server", "return _Server(service, host=host, port=port).start()", _PERF_ONLY),
    ("repro.cluster.wire:decode_what_if_partial", 'raise WireError(f"what-if partial must be an object, got {type(payload).__name__}")', _PERF_ONLY),
    ("repro.cluster.wire:decode_what_if_partial", "except KeyError as error:", _PERF_ONLY),
    ("repro.cluster.wire:decode_what_if_partial", 'raise WireError(f"what-if partial missing field {error}") from None', _PERF_ONLY),
    ("repro.relational.columnar:fused_mask_aggregate", "return np.bincount(group_ids, minlength=n_groups).astype(float)", _PERF_ONLY),
    ("repro.relational.columnar:fused_mask_aggregate", 'raise ExpressionError(f"fused aggregate {how!r} needs values")', _PERF_ONLY),
    ("repro.relational.columnar:fused_mask_aggregate", 'raise ExpressionError(f"unsupported fused aggregate {how!r}; supported: sum, count, avg")', _PERF_ONLY),
    ("repro.optim.solver:BranchAndBoundSolver.solve", "break", "the branch-and-bound is a test oracle and a perf/ probe; it goes with ROADMAP 12(b)"),
    ("repro.optim.solver:BranchAndBoundSolver.solve", "continue", "the branch-and-bound is a test oracle and a perf/ probe; it goes with ROADMAP 12(b)"),
    ("repro.optim.solver:BranchAndBoundSolver.solve", "return Solution(status=SolveStatus.INFEASIBLE, n_nodes_explored=nodes_explored)", "the branch-and-bound is a test oracle and a perf/ probe; it goes with ROADMAP 12(b)"),
    ("repro.optim.solver:BranchAndBoundSolver._most_fractional", "continue", "the branch-and-bound is a test oracle and a perf/ probe; it goes with ROADMAP 12(b)"),
    # imports for annotations only, where importing at run time cycles
    ("repro.jobs.executor:<module>", "from .manager import JobManager", _TYPING),
    ("repro.service.session:<module>", "from ..shard.pool import ShardPool", _TYPING),
    ("repro.service.state:<module>", "from ..shard.pool import ShardPool", _TYPING),
    # the async client's transport faults
    ("repro.api.aclient:AsyncHypeRClient._acquire", "self._discard(conn)", "a pooled connection the server closed while it idled"),
    ("repro.api.aclient:AsyncHypeRClient._acquire", "raise _timed_out(timeout) from None", "a connect that outlasts the budget (an unroutable peer)"),
    ("repro.api.aclient:AsyncHypeRClient._discard", "except Exception:  # noqa: BLE001 - best-effort teardown", _TEARDOWN),
    ("repro.api.aclient:AsyncHypeRClient._discard", "pass", _TEARDOWN),
    ("repro.api.aclient:AsyncHypeRClient._bounded", "if not conn.expired:", "a read the peer or the budget timer cuts off mid-response"),
    ("repro.api.aclient:AsyncHypeRClient._bounded", "raise", "a read the peer or the budget timer cuts off mid-response"),
    ("repro.api.aclient:AsyncHypeRClient._bounded", "raise _timed_out(timeout) from error", "a read the peer or the budget timer cuts off mid-response"),
    ("repro.api.calls:LineDecoder.whole", "yield body", "a streamed verb answered by a plain JSON body: an older server"),
    ("repro.api.aclient:AsyncHypeRClient._stream", "yield item", "a streamed verb answered by a plain JSON body: an older server"),
    ("repro.api.aclient:AsyncHypeRClient._lines", "yield item", "a stream whose last line lacks its newline: no door of this repo sends one"),
    ("repro.api.endpoints:RouteTable.match", "break", "a route row with two paths that both match one request (no row has)"),
    # the door
    ("repro.aserve.admission:AdmissionController.acquire_slot", "except asyncio.CancelledError:", _DOOR),
    ("repro.aserve.admission:AdmissionController.acquire_slot", "self.cancel_reservation()", _DOOR),
    ("repro.aserve.admission:AdmissionController.acquire_slot", "raise", _DOOR),
    ("repro.aserve.app:AsyncApp.abort_all_connections", "writer.close()", _DOOR),
    ("repro.aserve.app:AsyncApp.handle_connection", "continue", _DOOR),
    ("repro.aserve.app:AsyncApp._stream_batch.run_one", "raise", _DOOR),
    ("repro.aserve.app:AsyncApp._stream_batch", "except (ConnectionError, asyncio.TimeoutError):", _DOOR),
    ("repro.aserve.app:AsyncApp._stream_batch", "self.admission.cancel_reservation(len(texts))", _DOOR),
    ("repro.aserve.app:AsyncApp._stream_batch", "return False", _DOOR),
    ("repro.aserve.runner:AsyncServingRunner.install_signal_handlers", "except (NotImplementedError, RuntimeError):  # pragma: no cover", _DOOR),
    ("repro.aserve.runner:AsyncServingRunner.install_signal_handlers", "break  # non-Unix loop or nested loop: rely on request_shutdown", _DOOR),
    ("repro.aserve.runner:AsyncServingRunner.shutdown", "print(", "a drain that outlasts --drain-timeout"),
    ("repro.aserve.runner:AsyncServingRunner.shutdown", 'f"drain timeout after {self.drain_timeout}s; "', "a drain that outlasts --drain-timeout"),
    ("repro.aserve.runner:AsyncServingRunner.shutdown", 'f"{self.admission.occupied} unit(s) abandoned",', "a drain that outlasts --drain-timeout"),
    ("repro.aserve.runner:AsyncServingRunner.shutdown", "flush=True,", "a drain that outlasts --drain-timeout"),
    ("repro.aserve.runner:run_async_server", "except KeyboardInterrupt:  # pragma: no cover - interactive fallback", "Ctrl-C at an interactive terminal"),
    ("repro.aserve.runner:run_async_server", "pass", "Ctrl-C at an interactive terminal"),
    ("repro.aserve.runner:BackgroundAsyncServer.start", 'raise RuntimeError("async server failed to start within 120s")', "a door whose loop hangs for two minutes at start"),
    # the cluster's node faults
    ("repro.cluster.coordinator:ClusterCoordinator.close", "except Exception:  # noqa: BLE001 - best-effort teardown", _TEARDOWN),
    ("repro.cluster.coordinator:ClusterCoordinator.close", "pass", _TEARDOWN),
    ("repro.cluster.coordinator:ClusterCoordinator._probe_forever", "except Exception:  # noqa: BLE001 - stays unhealthy", "the health probe of a node that is still down"),
    ("repro.cluster.coordinator:ClusterCoordinator._probe_forever", "continue", "the health probe of a node that is still down"),
    ("repro.cluster.coordinator:ClusterCoordinator._ask", "raise", "a deadline error from a leg that carried no budget: cannot happen"),
    ("repro.cluster.coordinator:ClusterCoordinator._node_rows", "except Exception:  # noqa: BLE001 - stats never fail the endpoint", "the coordinator's loop failing while stats gather"),
    ("repro.cluster.coordinator:ClusterCoordinator._node_rows", "pass", "the coordinator's loop failing while stats gather"),
    # jobs
    ("repro.jobs.api:poll_events", "except JobNotFound:", _RACE),
    ("repro.jobs.api:poll_events", "raise ApiError(", _RACE),
    ("repro.jobs.api:poll_events", '404, ErrorEnvelope("not_found", f"unknown job {job_id!r}")', _RACE),
    ("repro.jobs.api:poll_events", ") from None", _RACE),
    ("repro.jobs.executor:JobExecutor._execute", "return None", _RACE),
    ("repro.jobs.manager:JobManager._gc_loop", "except Exception:  # noqa: BLE001 - the sweeper must survive", "the journal failing under the sweeper"),
    ("repro.jobs.manager:JobManager._gc_loop", "if self._closed:", "the journal failing under the sweeper"),
    ("repro.jobs.manager:JobManager._gc_loop", "return", "the journal failing under the sweeper"),
    # the engine's guards
    ("repro.core.estimator:build_view_dag.map_node", "return attribute", "a foreign attribute a view selects verbatim: no USE syntax makes one"),
    ("repro.core.estimator:adjustment_set", "except IdentificationError:", "a pair with no backdoor set: no bundled DAG has one"),
    ("repro.core.estimator:adjustment_set", "adjustment |= everything_else", "a pair with no backdoor set: no bundled DAG has one"),
    ("repro.core.estimator:PostUpdateEstimator.__post_init__", "raise QuerySemanticsError(", "validate_query refuses such a query before an estimator is built"),
    ("repro.core.estimator:PostUpdateEstimator.__post_init__", 'f"outcome attributes {missing} are not columns of the relevant view"', "validate_query refuses such a query before an estimator is built"),
    ("repro.core.estimator:PostUpdateEstimator._fit_fresh", 'raise QuerySemanticsError("the training target must align with the view rows")', "every caller builds the target from the view it fits"),
    ("repro.core.estimator:PostUpdateEstimator.regressor_for", "except BaseException:", "a regressor fit that raises: the next caller takes over as builder"),
    ("repro.core.estimator:PostUpdateEstimator.regressor_for", "with self._fit_lock:", "a regressor fit that raises: the next caller takes over as builder"),
    ("repro.core.estimator:PostUpdateEstimator.regressor_for", "event = self._pending_fits.pop(cache_key, None)", "a regressor fit that raises: the next caller takes over as builder"),
    ("repro.core.estimator:PostUpdateEstimator.regressor_for", "if event is not None:", "a regressor fit that raises: the next caller takes over as builder"),
    ("repro.core.estimator:PostUpdateEstimator.regressor_for", "event.set()", "a regressor fit that raises: the next caller takes over as builder"),
    ("repro.core.estimator:PostUpdateEstimator.regressor_for", "raise", "a regressor fit that raises: the next caller takes over as builder"),
    ("repro.core.howto:_present_values", "except (TypeError, ValueError):", "a numeric domain whose column holds a non-number"),
    ("repro.core.howto:_present_values", "pass  # mixed content: keep the objects, admissibility goes value by value", "a numeric domain whose column holds a non-number"),
    ("repro.service.session:HypeRService._step", "except Exception as error:  # noqa: BLE001 - each of the step's queries'", "a plan group whose kernel raises after validation: an engine fault"),
    ("repro.service.session:HypeRService._step", "outcomes = [error] * n", "a plan group whose kernel raises after validation: an engine fault"),
    ("repro.causal.scm:StructuralCausalModel._as_float_if_possible", "except (TypeError, ValueError):", "an intervention with a non-numeric value on a parent"),
    ("repro.causal.scm:StructuralCausalModel._as_float_if_possible", "return values", "an intervention with a non-numeric value on a parent"),
    ("repro.probdb.decomposable:check_decomposability", "return False", "every aggregate of the paper decomposes exactly"),
    ("repro.lang.template:ShapeMemo._compile.emit", 'raise TypeError(f"a {kind.__name__} in the probe, not in the text")', "a probe the parser shapes otherwise than the text: the binder check"),
    ("repro.lang.template:ShapeMemo._compile.emit", 'raise KeyError("the probe\'s mapping has other keys")', "a probe the parser shapes otherwise than the text: the binder check"),
    ("repro.lang.template:ShapeMemo._compile", "except Exception:  # noqa: BLE001 - a node the binder cannot rebuild", "a probe the parser shapes otherwise than the text: the binder check"),
    ("repro.lang.template:ShapeMemo._compile", "return False", "a probe the parser shapes otherwise than the text: the binder check"),
    # the pool and shared memory
    ("repro.shard.pool:_keep_freed_heap", "except (OSError, AttributeError):", "a libc without mallopt (musl, macOS)"),
    ("repro.shard.pool:_keep_freed_heap", "pass", "a libc without mallopt (musl, macOS)"),
    ("repro.shard.pool:ShardPool._start_processes", "method = None", "a platform with neither fork nor forkserver"),
    ("repro.shard.pool:ShardPool._teardown_processes", "except Exception:  # noqa: BLE001 - best-effort shutdown", _TEARDOWN),
    ("repro.shard.pool:ShardPool._teardown_processes", "pass", _TEARDOWN),
    ("repro.shard.pool:ShardPool._teardown_processes", "process.terminate()", _POOL),
    ("repro.shard.pool:ShardPool._teardown_processes", "process.join(timeout=1.0)", _POOL),
    ("repro.shard.pool:ShardPool._scatter", "except ShardPoolError:", _POOL),
    ("repro.shard.pool:ShardPool._scatter", "raise", _POOL),
    ("repro.shard.pool:ShardPool._scatter", "except Exception as error:  # noqa: BLE001 - uniform report", _POOL),
    ("repro.shard.pool:ShardPool._scatter", "raise _worker_error(index, _describe_error(error))", _POOL),
    ("repro.shard.pool:ShardPool._scatter", "continue  # stale result from an abandoned scatter", _POOL),
    ("repro.shard.shm:shm_available", "except Exception:  # noqa: BLE001 - sandboxed /dev/shm, missing _posixshmem", _SHM),
    ("repro.shard.shm:shm_available", "_shm_probe = False", _SHM),
    ("repro.shard.shm:resolve_buffers", 'raise ValueError("a shm descriptor needs a SegmentAttachment to resolve")', "every caller that holds a descriptor passes its attachment"),
    ("repro.shard.shm:SegmentManager._unlink", "except BufferError:", _SHM),
    ("repro.shard.shm:SegmentManager._unlink", "_disarm(segment)", _SHM),
    ("repro.shard.shm:SegmentManager._unlink", "except Exception:  # noqa: BLE001 - never fail a retire over cleanup", _SHM),
    ("repro.shard.shm:SegmentManager._unlink", "pass", _SHM),
    ("repro.shard.shm:SegmentManager._unlink", "except FileNotFoundError:  # pragma: no cover - already gone", _SHM),
    ("repro.shard.shm:SegmentAttachment._unmap", "except Exception:  # noqa: BLE001 - best-effort unmap", _SHM),
    ("repro.shard.shm:SegmentAttachment._unmap", "pass", _SHM),
]

_STATE = pytest.StashKey[tuple]()
_RESULT = pytest.StashKey[tuple]()


# --- static side: executable lines, scopes ---------------------------------


def _recorder_module():
    """``tests/linecov_site/sitecustomize.py`` under a name of its own, so it
    does not shadow an interpreter's ``sitecustomize`` in this process."""
    spec = importlib.util.spec_from_file_location("linecov_recorder", SITE / "sitecustomize.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def scopes(tree: ast.Module, module: str) -> dict[int, str]:
    """``{line: module:qualname}`` of the innermost def or class holding each
    line of a def or class; other lines are module level."""
    found: dict[int, str] = {}
    stack = [(node, "") for node in tree.body]
    while stack:
        node, prefix = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualname = f"{prefix}{node.name}"
            # outer scopes are popped before the scopes nested in them
            for line in range(node.lineno, node.end_lineno + 1):
                found[line] = f"{module}:{qualname}"
            stack.extend((child, f"{qualname}.") for child in ast.iter_child_nodes(node))
        else:
            stack.extend((child, prefix) for child in ast.iter_child_nodes(node))
    return found


def source_lines() -> dict[Path, tuple[list[str], dict[int, str]]]:
    """Each ``src/`` file's lines and scopes."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        found[path] = (text.splitlines(), scopes(ast.parse(text), module_name(path)))
    return found


def scope_of(path: Path, line: int, scope_map: dict[int, str]) -> str:
    return scope_map.get(line, f"{module_name(path)}:<module>")


def executable(path: Path, recorder) -> set[int]:
    code = compile(path.read_text(), str(path), "exec", dont_inherit=True)
    lines: set[int] = set()
    for nested in recorder.nested_codes(code):
        lines |= recorder.executable_lines(nested)
    return lines


# --- the run ----------------------------------------------------------------


def pytest_load_initial_conftests(early_config, parser, args):
    """Start recording before a conftest imports ``repro``."""
    hits_dir = tempfile.mkdtemp(prefix="linecov-")
    os.environ["LINECOV_DIR"] = hits_dir
    os.environ["LINECOV_ROOT"] = str(SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SITE), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    recorder_module = _recorder_module()
    recorder = recorder_module.Recorder(str(SRC))
    recorder_module.record_children(recorder, hits_dir)
    recorder.start()
    early_config.stash[_STATE] = (recorder_module, recorder, hits_dir)


@pytest.hookimpl(tryfirst=True)
def pytest_sessionfinish(session):
    recorder_module, recorder, hits_dir = session.config.stash[_STATE]
    recorder.stop()
    hits = recorder.hits()
    for dump in Path(hits_dir).glob("*.json"):
        for path, lines in json.loads(dump.read_text()).items():
            hits.setdefault(path, set()).update(lines)
    shutil.rmtree(hits_dir, ignore_errors=True)

    unrun = []  # (path, line, scope, text)
    total = 0
    for path, (text, scope_map) in source_lines().items():
        lines = executable(path, recorder_module)
        total += len(lines)
        for line in sorted(lines - hits.get(str(path), set())):
            unrun.append((path, line, scope_of(path, line, scope_map), text[line - 1].strip()))
    excused = {(scope, text) for scope, text, _ in ALLOWLIST}
    unexcused = [entry for entry in unrun if (entry[2], entry[3]) not in excused]
    named = {(entry[2], entry[3]) for entry in unrun}
    stale = [(scope, text) for scope, text, _ in ALLOWLIST if (scope, text) not in named]
    session.config.stash[_RESULT] = (total, unrun, unexcused, stale)

    if unexcused or stale:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, config):
    if _RESULT not in config.stash:
        return
    total, unrun, unexcused, stale = config.stash[_RESULT]
    write = terminalreporter.write_line
    terminalreporter.section("lines of src/ never run")
    write(
        f"{len(unrun)} of {total} executable lines unrun ({100 * len(unrun) / total:.2f} %), "
        f"{len(unrun) - len(unexcused)} on the allowlist"
    )
    by_file: dict[Path, int] = {}
    for path, *_ in unrun:
        by_file[path] = by_file.get(path, 0) + 1
    for path, count in sorted(by_file.items(), key=lambda item: -item[1])[:10]:
        write(f"  {count:5d}  {path.relative_to(ROOT)}")
    for path, line, scope, text in unexcused:
        write(f"UNRUN {path.relative_to(ROOT)}:{line} [{scope}] {text}")
    for scope, text in stale:
        write(f"STALE allowlist entry names no unrun line: [{scope}] {text}")
