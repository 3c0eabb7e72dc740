"""Record which lines of ``src/`` a Python process runs (stdlib ``sys.settrace``).

``tests/linecov.py`` puts this directory on ``PYTHONPATH`` and names a hits
directory in ``LINECOV_DIR``, so every Python process the suite starts (a
``repro serve`` subprocess, a ``python -c`` child, the multiprocessing
forkserver) imports this module at start-up and records.  The plugin loads
the same :class:`Recorder` for the pytest process itself.

Processes forked from a recording one (``fork`` and ``forkserver`` pool
workers) inherit the tracer.  They leave through ``os._exit``, which skips
``atexit``, so each writes its lines from a ``multiprocessing.util.Finalize``
registered after the fork.  A process writes ``<LINECOV_DIR>/<pid>-<n>.json``,
``{path: [line, ...]}``; the plugin takes the union.  A process killed by a
signal writes nothing.
"""

from __future__ import annotations

import atexit
import dis
import itertools
import json
import os
import sys
import threading


def executable_lines(code) -> set[int]:
    """The lines a ``line`` event can report for ``code`` itself (not for the
    code objects nested in it): those holding an instruction after the
    prologue, which ends at the first ``RESUME``.  A function's ``def`` line
    runs in the enclosing code, not here."""
    end = 0
    for instruction in dis.get_instructions(code):
        if instruction.opname == "RESUME":
            end = instruction.offset + 2
            break
    return {line for _, stop, line in code.co_lines() if line and stop > end}


def nested_codes(code):
    """``code`` and every code object compiled inside it."""
    yield code
    for constant in code.co_consts:
        if hasattr(constant, "co_lines"):
            yield from nested_codes(constant)


class Recorder:
    """A ``sys.settrace`` hook that records the lines run in files under ``root``.

    Each code object under ``root`` gets one local tracer that strikes its
    lines off as they run; once none is left, the code is no longer traced.
    """

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root) + os.sep
        self._traced: list[tuple[object, set[int], set[int]]] = []
        self._dumps = itertools.count()
        tracers: dict[int, object] = {}
        # every code object met stays alive, so that no other takes its id
        # while ``tracers`` holds that id's answer
        met: list[object] = []
        traced = self._traced
        prefix = self.root
        identity = id

        def tracer_for(code):
            if not os.path.abspath(code.co_filename).startswith(prefix):
                return None
            lines = executable_lines(code)
            remaining = set(lines)
            traced.append((code, lines, remaining))
            strike, key = remaining.discard, id(code)

            def local(frame, event, arg):
                if event == "line":
                    strike(frame.f_lineno)
                elif event == "return" and not remaining:
                    tracers[key] = None
                return local

            return local

        def on_call(frame, event, arg):
            code = frame.f_code
            try:
                return tracers[identity(code)]
            except KeyError:
                met.append(code)
                tracer = tracers[identity(code)] = tracer_for(code)
                return tracer

        self._on_call = on_call

    def start(self) -> None:
        """Record from here on, in this thread and in threads started later."""
        self._previous = (sys.gettrace(), threading.gettrace())
        threading.settrace(self._on_call)
        sys.settrace(self._on_call)

    def stop(self) -> None:
        """Give the thread back the hooks :meth:`start` found."""
        this_thread, new_threads = self._previous
        sys.settrace(this_thread)
        threading.settrace(new_threads)

    def hits(self) -> dict[str, set[int]]:
        """``{path: lines run}`` so far."""
        found: dict[str, set[int]] = {}
        for code, lines, remaining in list(self._traced):
            path = os.path.abspath(code.co_filename)
            found.setdefault(path, set()).update(lines - remaining)
        return found

    def dump(self, directory: str) -> None:
        """Write :meth:`hits` to a new file in ``directory``, if it still exists."""
        name = os.path.join(directory, f"{os.getpid()}-{next(self._dumps)}.json")
        payload = {path: sorted(lines) for path, lines in self.hits().items() if lines}
        try:
            with open(name + ".tmp", "w") as handle:
                json.dump(payload, handle)
        except FileNotFoundError:
            return  # the run is over: a process that outlives it adds nothing
        os.replace(name + ".tmp", name)


def record_children(recorder: Recorder, directory: str) -> None:
    """Make each multiprocessing child forked from this process write its
    lines to ``directory`` on its way out."""
    from multiprocessing import util

    def on_fork(recorder: Recorder) -> None:
        util.Finalize(None, recorder.dump, args=(directory,), exitpriority=-100)

    util.register_after_fork(recorder, on_fork)


def _record_this_process() -> None:
    directory, root = os.environ.get("LINECOV_DIR"), os.environ.get("LINECOV_ROOT")
    if not (directory and root):
        return
    recorder = Recorder(root)
    record_children(recorder, directory)
    atexit.register(recorder.dump, directory)
    recorder.start()
    globals()["RECORDER"] = recorder


if __name__ == "sitecustomize":  # not when tests/linecov.py loads this file itself
    _record_this_process()
