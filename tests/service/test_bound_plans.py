"""A warm what-if is bound, not re-planned.

``HypeRService.execute`` keys a what-if text by its shape and every numeric
literal but its update constants (``parse_keyed``).  At one pinned snapshot
the first text of a key takes the fingerprint and builds the plan (view,
blocks, kernels, estimator), and every later text of the key *binds* that
plan: it derives only its update constants' part of the fingerprint and runs
the kernel.  A commit starts a snapshot with no plans.  These tests count the
work rather than time it, and hold every bound answer ``==`` to the unbound
path's: a query object, which keeps the planning path.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter

import pytest

from repro import EngineConfig, HypeRService
from repro.api.core import envelope_for
from repro.datasets import make_german_syn
from repro.lang.parser import parse_keyed, parse_uncached
from repro.obs import trace as obs_trace
from tests.service.test_batch_groups import fields

CONFIG = EngineConfig(regressor="linear")
SWEEP = (
    "USE Credit WHEN Age >= 30 UPDATE(CreditAmount) = {c} * PRE(CreditAmount) "
    "OUTPUT AVG(POST(Credit)) FOR PRE(Housing) >= 2"
)
#: non-integral constants: texts of one shape
CONSTANTS = [round(1 + k / 64, 6) for k in range(1, 25)]


@pytest.fixture(scope="module")
def dataset():
    return make_german_syn(400, seed=11)


def serve(dataset, **options) -> HypeRService:
    return HypeRService(dataset.database, dataset.causal_dag, CONFIG, **options)


def counting(service: HypeRService, monkeypatch) -> Counter:
    """Calls of ``fingerprint`` and ``what_if_plan`` on ``service``'s plan compiler."""
    calls: Counter = Counter()
    for name in ("fingerprint", "what_if_plan"):
        method = getattr(service.compiler, name)

        def spy(*args, _method=method, _name=name, **kwargs):
            calls[_name] += 1
            return _method(*args, **kwargs)

        monkeypatch.setattr(service.compiler, name, spy)
    return calls


def unbound(dataset, texts: list[str]) -> list[tuple]:
    """Each text's answer alone, through the planning path."""
    with serve(dataset, result_cache_size=0) as reference:
        return [fields(reference.execute(parse_uncached(text))) for text in texts]


def test_a_sweep_takes_the_fingerprint_and_the_plan_once_per_snapshot(dataset, monkeypatch):
    texts = [SWEEP.format(c=c) for c in CONSTANTS]
    service = serve(dataset, result_cache_size=0)
    for text in texts[:3]:  # the shape's binder is compiled by its second sighting
        service.execute(text)
    calls = counting(service, monkeypatch)
    status = dataset.database["Credit"].column("Status")
    for commit in range(3):
        service.update_relation_columns({"Credit": {"Status": status + commit + 1}})
        calls.clear()
        hits = service.stats()["caches"]["plans"]["hits"]
        answers = [fields(service.execute(text)) for text in texts]
        assert calls == {"fingerprint": 1, "what_if_plan": 1}
        plans = service.stats()["caches"]["plans"]
        assert plans["hits"] - hits == len(texts) - 1
        assert plans["size"] == 1
        # the unbound path at the same database
        database = service.database
        with HypeRService(database, dataset.causal_dag, CONFIG) as reference:
            assert answers == [fields(reference.execute(parse_uncached(t))) for t in texts]


@pytest.mark.parametrize(
    "template",
    [
        "USE Credit WHEN Age >= {w} UPDATE(Status) = {c} * PRE(Status) "
        "OUTPUT AVG(POST(Credit))",
        "USE Credit UPDATE(Status) = {c} * PRE(Status) "
        "OUTPUT COUNT(POST(Credit)) FOR POST(Credit) = 1 AND PRE(Age) >= {w}",
    ],
    ids=["when", "for"],
)
def test_a_when_or_for_literal_binds_a_plan_of_its_own(dataset, template):
    # a second WHEN / FOR literal after the first one's plan is bound
    texts = [template.format(w=w, c=c) for w in (30, 45) for c in CONSTANTS[:4]]
    with serve(dataset, result_cache_size=0) as service:
        answers = [fields(service.execute(text)) for text in texts]
        plans = service.stats()["caches"]["plans"]
    assert answers == unbound(dataset, texts)
    assert (plans["misses"], plans["size"]) == (2, 2)


def test_update_slots_come_from_the_probe_not_from_equal_values():
    text = "USE Credit WHEN Age >= {w} UPDATE(Status) = {c} * PRE(Status) OUTPUT AVG(POST(Age))"
    keys = {
        (w, c): parse_keyed(text.format(w=w, c=c), eager=True)[1] for w in (2, 3) for c in (2, 3)
    }
    assert None not in keys.values()
    # the WHEN literal is in the key whatever the update constant equals
    assert keys[2, 2] == keys[2, 3] != keys[3, 2] == keys[3, 3]
    assert keys[2, 2][1:] == (2.0,) and keys[3, 3][1:] == (3.0,)


def test_every_update_constant_and_only_those_leave_the_key():
    query, key = parse_keyed(
        "USE Credit UPDATE(Status) = 2 * PRE(Status) AND UPDATE(Savings) = 3 "
        "OUTPUT AVG(POST(Credit)) FOR PRE(Age) >= 40",
        eager=True,
    )
    assert key is not None and key[1:] == (40.0,)
    assert [u.attribute for u in query.updates] == ["Status", "Savings"]


def test_a_threads_batch_takes_one_fingerprint_per_text_key(dataset, monkeypatch):
    texts = [SWEEP.replace("30", str(age)).format(c=c) for age in (30, 40) for c in CONSTANTS[:8]]
    parse_keyed(texts[0], eager=True)  # the shape has a binder: every text below has a key
    with serve(dataset, max_workers=3) as service:
        calls = counting(service, monkeypatch)
        answers = [fields(answer) for answer in service.execute_many(texts)]
    assert calls == {"fingerprint": 2, "what_if_plan": 2}
    assert answers == unbound(dataset, texts)


def test_a_result_cache_hit_of_a_bound_text_counts_its_plan_hit(dataset):
    text = SWEEP.format(c=CONSTANTS[0])
    with serve(dataset) as service:
        service.prepare(text)
        first, second = service.execute(text), service.execute(text)
        stats = service.stats()["caches"]
    assert second is first and stats["results"]["hits"] == 1
    assert (stats["plans"]["hits"], stats["plans"]["misses"]) == (2, 1)


def test_a_failing_query_is_never_bound_and_fails_alike_twice(dataset):
    rejected = "USE Credit UPDATE(Age) = {c} * PRE(Age) OUTPUT AVG(POST(Credit))"  # immutable
    with serve(dataset) as service:
        envelopes = []
        for c in (1.5, 2.5, 1.5, 2.5):
            with pytest.raises(Exception) as excinfo:
                service.execute(rejected.format(c=c))
            status, envelope = envelope_for(excinfo.value)
            envelopes.append((status, envelope.code, envelope.message))
        assert len(set(envelopes)) == 1 and envelopes[0][0] == 400
        assert service.stats()["caches"]["plans"]["size"] == 0
        assert service.stats()["caches"]["results"]["size"] == 0


def executed(service: HypeRService, query) -> dict:
    """The ``execute`` span of one traced call."""
    trace = obs_trace.TraceContext()
    service.execute(query, trace=trace)
    found, spans = [], [trace.to_wire()]
    while spans:
        node = spans.pop()
        spans.extend(node["children"])
        if node["name"] == "execute":
            found.append(node)
    (span,) = found
    return span


def test_prepare_binds_the_plan_the_next_execute_reuses(dataset, monkeypatch):
    texts = [SWEEP.replace("30", "35").format(c=c) for c in CONSTANTS[:6]]
    with serve(dataset, result_cache_size=0) as service:
        plan = service.prepare(texts[0])
        calls = counting(service, monkeypatch)
        answers = [fields(service.execute(text)) for text in texts]
        assert calls == {}
        assert plan.fingerprint.bind(parse_uncached(texts[3])) == service.fingerprint(texts[3])
        # ?trace=1 marks a bound execute; a query object is never bound
        assert executed(service, texts[1])["meta"] == {"bound": True}
        assert executed(service, parse_uncached(texts[1]))["meta"] == {"bound": False}
    assert answers == unbound(dataset, texts)


def test_eight_threads_sweeping_across_a_commit_answer_as_the_unbound_path(dataset):
    texts = [SWEEP.format(c=c) for c in CONSTANTS]
    status = dataset.database["Credit"].column("Status")
    committed = {"Credit": {"Status": 5.0 - status}}
    service = serve(dataset, result_cache_size=0)  # every read binds or builds
    before = unbound(dataset, texts)
    service.update_relation_columns(committed)
    with HypeRService(service.database, dataset.causal_dag, CONFIG, result_cache_size=0) as ref:
        after = [fields(ref.execute(parse_uncached(text))) for text in texts]
    service.update_relation_columns({"Credit": {"Status": status}})
    for text in texts[:3]:  # the shape has a binder: every text below has a key
        service.execute(text)
    counted = service.stats()["caches"]["plans"]
    start, committing = threading.Barrier(9, timeout=60), threading.Event()
    seen: list[list[tuple[bool, int, tuple]]] = [[] for _ in range(8)]

    def sweep(worker: int) -> None:
        start.wait()
        for round_ in range(3):
            for k in range(len(texts)):
                index = (k + 3 * worker + round_) % len(texts)
                late = committing.is_set()
                seen[worker].append((late, index, fields(service.execute(texts[index]))))

    threads = [threading.Thread(target=sweep, args=(worker,)) for worker in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        start.wait()
        service.update_relation_columns(committed)
        committing.set()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    plans = service.stats()["caches"]["plans"]
    service.close()
    answers = [entry for entries in seen for entry in entries]
    assert len(answers) == 8 * 3 * len(texts)
    for late, index, answer in answers:
        assert answer == after[index] if late else answer in (before[index], after[index])
    assert any(late for late, _index, _answer in answers)
    # each read found its plan bound or bound it: no count lost between threads
    found = plans["hits"] + plans["misses"] - counted["hits"] - counted["misses"]
    assert found == len(answers)
