"""The line collector itself (``tests/linecov.py``) and its allowlist.

The full line run (``python -m pytest -p tests.linecov``) is a CI job of its
own; here the recorder is checked on a small module of its own, in this
process, in a forked multiprocessing child and in a ``python`` subprocess,
and the allowlist on the source: each entry names a line of its scope.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
import textwrap

import pytest

from tests import linecov

MODULE = textwrap.dedent(
    '''
    def run(flag):
        if flag:
            return "yes"
        return "no"


    def never():
        return "unrun"
    '''
)


@pytest.fixture()
def probe(tmp_path, monkeypatch):
    """A module ``probe`` under ``tmp_path / "root"`` and its path."""
    root = tmp_path / "root"
    root.mkdir()
    (root / "probe.py").write_text(MODULE)
    monkeypatch.syspath_prepend(str(root))
    sys.modules.pop("probe", None)
    yield root, str(root / "probe.py")
    sys.modules.pop("probe", None)


def executable(path: str, recorder_module) -> set[int]:
    code = compile(open(path).read(), path, "exec")
    return set().union(*map(recorder_module.executable_lines, recorder_module.nested_codes(code)))


def _child(flag):
    import probe

    probe.run(flag)


def test_a_recorder_sees_this_process_and_a_forked_child(probe, tmp_path):
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("no fork start method on this platform")
    root, path = probe
    recorder_module = linecov._recorder_module()
    recorder = recorder_module.Recorder(str(root))
    hits_dir = tmp_path / "hits"
    hits_dir.mkdir()
    recorder_module.record_children(recorder, str(hits_dir))
    recorder.start()
    try:
        import probe as module

        module.run(True)
        child = multiprocessing.get_context("fork").Process(target=_child, args=(False,))
        child.start()
        child.join(60)
    finally:
        recorder.stop()
    assert child.exitcode == 0
    here = recorder.hits()[path]
    (dump,) = hits_dir.glob("*.json")  # the child left through os._exit
    there = set(json.loads(dump.read_text())[path])
    unrun = executable(path, recorder_module) - here - there
    assert [line for line in sorted(unrun)] == [9]  # never()'s body
    assert 5 in there - here  # ``return "no"`` ran in the child only


def test_a_subprocess_records_through_sitecustomize(probe, tmp_path):
    root, path = probe
    hits_dir = tmp_path / "hits"
    hits_dir.mkdir()
    env = dict(os.environ, LINECOV_DIR=str(hits_dir), LINECOV_ROOT=str(root))
    env["PYTHONPATH"] = os.pathsep.join([str(linecov.SITE), str(root)])
    subprocess.run(
        [sys.executable, "-c", "import probe; probe.never()"], env=env, check=True, timeout=60
    )
    (dump,) = hits_dir.glob("*.json")
    assert set(json.loads(dump.read_text())[path]) >= {2, 8, 9}


def test_each_allowlist_entry_names_a_line_of_its_scope_with_a_reason():
    lines = {}
    for path, (text, scope_map) in linecov.source_lines().items():
        for number, line in enumerate(text, start=1):
            lines.setdefault(linecov.scope_of(path, number, scope_map), set()).add(line.strip())
    keys = [(scope, text) for scope, text, _ in linecov.ALLOWLIST]
    assert len(keys) == len(set(keys)), "an entry is listed twice"
    for scope, text, reason in linecov.ALLOWLIST:
        assert reason.strip(), (scope, text)
        assert text in lines.get(scope, ()), f"no line {text!r} in {scope}"
