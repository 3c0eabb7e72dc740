"""The traced pass: per-layer probes and the hop staircase.

Each probe times calls into one layer's public functions, from outside, on
inputs drawn from the workload under test (its German-Syn rows and seed, its
query templates).  Spans are kept in memory as ``(name, parent, start, end)``
and folded to medians when the pass ends.

The *hop staircase* sends one fixed suite (4 templates x 50 constants) through
every topology on German-Syn 8 000, one client, one query at a time, so that
adjacent ``hop.*`` differences are the cost of each added hop.  The doors,
the cluster and the job path are probed on those same staircase topologies.
"""

from __future__ import annotations

import http.client
import json
import pickle
import random
import statistics
import sys
import threading
import time
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro import HypeR, HypeRClient, HypeRService, WorkloadGenerator
from repro.api.schemas import answer_from_json
from repro.aserve import BackgroundAsyncServer
from repro.cluster import wire
from repro.cluster.shardserver import PARTIAL_PATH
from repro.core import HowToEngine, WhatIfEngine
from repro.core.howto import build_howto_program
from repro.core.whatif import numeric_output_column
from repro.datasets import make_amazon_syn, make_german_syn
from repro.jobs import attach_jobs
from repro.jobs.journal import Journal
from repro.lang import parse_query
from repro.optim.solver import BranchAndBoundSolver
from repro.probdb.blocks import block_labels, decompose_into_blocks
from repro.relational.columnar import fused_block_summary, fused_mask_aggregate
from repro.service.server import make_server
from repro.shard import ShardPool, merge_what_if, partition_database
from repro.shard.shm import encode_database

from .driver import LeakGuard
from .workloads import (
    AMAZON_TEMPLATES,
    FOREST,
    LINEAR,
    TEMPLATES,
    ClusterBatches,
    Workload,
    grid_constant,
)

STAIRCASE_ROWS = 8_000
STAIRCASE_CONSTANTS = 50
FUSED_ROWS = 60_000

Metric = tuple[float, str]


class Spans:
    """In-memory span log ``(name, parent, start, end)``; folded to medians at the end."""

    def __init__(self) -> None:
        self.records: list[tuple[str, str | None, float, float]] = []
        #: the probe section that is running: the parent of the spans it records
        self.parent: str | None = None

    def add(self, name: str, started: float, ended: float) -> None:
        self.records.append((name, self.parent, started, ended))

    def call(self, name: str, fn: Callable[[], Any], *, reps: int = 1) -> Any:
        """Run ``fn`` ``reps`` times, one span each; returns the last result."""
        result = None
        for _ in range(reps):
            started = time.perf_counter()
            result = fn()
            self.add(name, started, time.perf_counter())
        return result

    def each(self, name: str, fn: Callable[[Any], Any], items: Iterable[Any]) -> list[Any]:
        """Run ``fn(item)`` per item, one span each; returns the results."""
        results = []
        for item in items:
            started = time.perf_counter()
            results.append(fn(item))
            self.add(name, started, time.perf_counter())
        return results

    def median_ms(self, name: str) -> float:
        return statistics.median(
            (end - start) * 1e3 for n, _parent, start, end in self.records if n == name
        )


def _variants(count: int, *, offset: int, templates: Sequence[str] = TEMPLATES) -> list[str]:
    """``count`` distinct texts cycling the templates; ``offset`` keeps sets apart."""
    return [
        templates[i % len(templates)].format(c=grid_constant(offset + i))
        for i in range(count)
    ]


class Battery:
    """Runs every probe once and collects ``name -> (value, unit)``."""

    def __init__(self, workload: Workload, workdir: str) -> None:
        self.workload = workload
        self.workdir = workdir
        self.quick = workload.quick
        self.spans = Spans()
        self.metrics: dict[str, Metric] = {}
        self.german = workload.german()
        self.amazon = make_amazon_syn(400, seed=workload.seed)
        rows = STAIRCASE_ROWS // 4 if self.quick else STAIRCASE_ROWS
        self.stair = make_german_syn(rows, seed=workload.seed)
        n_constants = 5 if self.quick else STAIRCASE_CONSTANTS
        self.suite = [
            template.format(c=grid_constant(7 + 80 * k))
            for k in range(n_constants)
            for template in TEMPLATES
        ]

    def reps(self, count: int) -> int:
        return max(1, count // 5) if self.quick else count

    def heavy(self, count: int) -> int:
        """Repetitions of a probe whose cost grows with the workload's rows."""
        return self.reps(count if self.workload.rows <= 20_000 else max(1, count // 2))

    def run(self) -> dict[str, Metric]:
        # the pool probes go first: a process pool only forks while the
        # process is still single-threaded
        for section in (
            self.probe_pool,
            self.staircase_pool,
            self.probe_engine_layers,
            self.probe_service,
            self.staircase,
        ):
            guard = LeakGuard()
            started = time.perf_counter()
            self.spans.parent = section.__name__
            section()
            guard.check(section.__name__)
            print(
                f"perf.probes: {section.__name__} {time.perf_counter() - started:.2f}s",
                file=sys.stderr,
            )
        # every span named like a metric folds to its median
        for name in {name for name, *_ in self.spans.records if name.endswith("_ms")}:
            self.metrics.setdefault(name, (self.spans.median_ms(name), "ms"))
        return self.metrics

    # -- shard pool on the workload's rows -----------------------------------------------

    def probe_pool(self) -> None:
        spans, data = self.spans, self.german
        self.spans.call(
            "shard.shm.encode_ms", lambda: encode_database(data.database), reps=self.reps(3)
        )
        service = HypeRService(
            data.database, data.causal_dag, LINEAR, execution="processes", n_shards=2,
            result_cache_size=0,
        )
        try:
            spans.call("shard.pool.start_ms", service.start_pool)
            pool = service.stats()["pool"]
            self.metrics["shard.shm.segment_bytes"] = (
                float(pool["shm"]["live_bytes"] if pool["shm"] else 0), "B"
            )
            service.execute_many(_variants(4, offset=0))
            spans.each(
                "shard.pool.batch16_ms",
                lambda k: service.execute_many(_variants(16, offset=100 + 16 * k)),
                range(self.reps(5)),
            )
            spans.each(
                "shard.pool.single_query_ms", service.execute,
                _variants(self.reps(20), offset=400),
            )
            patch_bytes = []
            for k in range(self.reps(3)):
                assignment = self.workload.commit_assignment(1000 + k)
                spans.call(
                    "shard.pool.apply_update_ms",
                    lambda: service.update_relation_columns(assignment),
                )
                patch_bytes.append(service.stats()["pool"]["update_bytes_last"])
            self.metrics["shard.shm.patch_bytes_per_commit"] = (
                float(statistics.median(patch_bytes)), "B"
            )
        finally:
            service.close()

        # the same shard protocol in process: what the workers of one batch
        # compute, with no transport
        inline = ShardPool(
            partition_database(data.database, data.causal_dag, 2), data.causal_dag, LINEAR,
            inline=True,
        ).start()
        try:
            batches = [
                [parse_query(text) for text in _variants(16, offset=100 + 16 * k)]
                for k in range(self.reps(5))
            ]
            inline.run_batch([parse_query(text) for text in _variants(4, offset=0)])
            answers = spans.each("pool.inline16", inline.run_batch, batches)
        finally:
            inline.close()
        self.metrics["shard.pool.worker_leg_ms"] = (
            spans.median_ms("pool.inline16") / inline.n_shards, "ms"
        )
        # what the result queue does to one batch: each worker pickles its
        # share, the parent unpickles every share
        share = answers[-1][: 16 // inline.n_shards]
        blob = spans.call("pool.dumps", lambda: pickle.dumps(share, pickle.HIGHEST_PROTOCOL), reps=3)
        spans.call("pool.loads", lambda: pickle.loads(blob), reps=3)
        self.metrics["shard.pool.result_bytes"] = (float(inline.n_shards * len(blob)), "B")
        self.metrics["shard.pool.result_pickle_ms"] = (
            inline.n_shards * (spans.median_ms("pool.dumps") + spans.median_ms("pool.loads")),
            "ms",
        )

    # -- engine layers, called directly ----------------------------------------------------

    def probe_engine_layers(self) -> None:
        spans, data, reps = self.spans, self.german, self.reps
        database, dag = data.database, data.causal_dag
        use = data.default_use

        view = spans.call("relational.view.build_ms", lambda: use.build(database), reps=reps(5))
        spans.call(
            "relational.view.build_join_ms",
            lambda: self.amazon.default_use.build(self.amazon.database),
            reps=reps(5),
        )
        spans.call(
            "probdb.blocks.decompose_ms",
            lambda: decompose_into_blocks(database, dag),
            reps=self.heavy(3),
        )
        blocks = block_labels(database, dag)

        texts = _variants(reps(20), offset=2000)
        queries = spans.each("lang.parse_ms", parse_query, texts)
        target = numeric_output_column(view, "Credit")
        for label, config, count in (("linear", LINEAR, 5), ("forest", FOREST, self.heavy(2))):
            engine = WhatIfEngine(database, dag, config)
            estimator = engine.build_estimator(queries[0], view=view)
            spans.call(
                f"core.estimator.fit_{label}_ms",
                lambda: estimator.regressor_for(None, lambda: target),
                reps=reps(count),
            )
        engine = WhatIfEngine(database, dag, LINEAR)
        estimators: dict[int, Any] = {}
        for index, query in enumerate(queries):
            prepared = engine.prepare(query, view=view, blocks=blocks)
            estimator = estimators.setdefault(
                index % len(TEMPLATES), engine.build_estimator(query, prepared)
            )
            if index < len(TEMPLATES):  # fits this template's regressors
                engine.evaluate(query, prepared=prepared, estimator=estimator)
            spans.call(
                "core.whatif.evaluate_prepared_ms",
                lambda: engine.evaluate(query, prepared=prepared, estimator=estimator),
            )

        generator = WorkloadGenerator.for_dataset(data, "Credit", seed=self.workload.seed)
        cold = HypeR(database, dag, LINEAR)
        linear = generator.what_if_batch(reps(5))
        spans.each("core.whatif.cold_linear_ms", cold.what_if, linear)
        # the same cold call in its two public stages, nothing injected
        for query in linear:
            prepared = spans.call("core.whatif.prepare_ms", lambda: engine.prepare(query))
            spans.call(
                "core.whatif.evaluate_cold_ms",
                lambda: engine.evaluate(query, prepared=prepared),
            )
        spans.each(
            "core.whatif.cold_forest_ms",
            HypeR(database, dag, FOREST).what_if,
            generator.what_if_batch(self.heavy(2)),
        )
        spans.each(
            "core.whatif.cold_join_ms",
            HypeR(self.amazon.database, self.amazon.causal_dag, LINEAR).execute,
            _variants(reps(4), offset=0, templates=AMAZON_TEMPLATES),
        )
        how_tos = generator.how_to_batch(self.heavy(3), n_attributes=2)
        spans.each("core.howto.cold_ms", cold.how_to, how_tos)

        how_to_engine = HowToEngine(database, dag, LINEAR)
        for query in how_tos:
            started = time.perf_counter()
            prepared = how_to_engine.prepare(query, view=view)
            candidates = how_to_engine.enumerate_candidates(
                query, prepared.view, prepared.scope_mask
            )
            spans.add("core.howto.candidates_ms", started, time.perf_counter())
            # the real program structure with seeded coefficients: the IP's
            # cost depends on its shape, and the coefficient helper is private
            rng = random.Random(self.workload.seed)
            coefficients = {c: rng.uniform(-1.0, 1.0) for c in candidates}
            program, _variables = build_howto_program(query, candidates, coefficients, 0.5)
            spans.call("optim.solve_ms", lambda: BranchAndBoundSolver().solve(program))

        rng = np.random.default_rng(self.workload.seed)
        group_ids = rng.integers(0, 4096, FUSED_ROWS)
        values = rng.random(FUSED_ROWS)
        mask = values > 0.3

        def fused() -> None:
            fused_mask_aggregate(group_ids, 4096, mask=mask, values=values, how="sum")
            fused_block_summary(values, group_ids, 4096, mask=mask)

        spans.call("fused", fused, reps=reps(20))
        self.metrics["relational.columnar.fused_ms_per_mrow"] = (
            spans.median_ms("fused") / (2 * FUSED_ROWS / 1e6), "ms"
        )

        results = [cold.execute(text) for text in texts[: len(TEMPLATES)]]
        encoded = spans.each(
            "api.schemas.encode_ms", lambda r: json.dumps(r.payload()), results * reps(5)
        )
        spans.each("api.schemas.decode_ms", lambda s: answer_from_json(json.loads(s)), encoded)


    # -- the cached service, in process ----------------------------------------------------

    def probe_service(self) -> None:
        """A fixed op sequence, so the stats deltas are exact counts per seed."""
        spans, data, reps = self.spans, self.german, self.reps
        service = HypeRService(data.database, data.causal_dag, LINEAR)
        try:
            before = service.stats()
            parsed = [parse_query(text) for text in _variants(reps(20), offset=3000)]
            spans.each("service.fingerprint_ms", service.fingerprint, parsed)
            misses = _variants(reps(40), offset=3100)
            service.execute_many(_variants(4, offset=0))
            spans.each("service.session.execute_warm_ms", service.execute, misses)
            spans.each("service.session.execute_hit_ms", service.execute, misses)
            spans.each(
                "service.executor.batch16_ms",
                lambda k: service.execute_many(_variants(16, offset=3200 + 16 * k)),
                range(reps(5)),
            )
            for k in range(reps(3)):
                assignment = self.workload.commit_assignment(2000 + k)
                spans.call(
                    "service.versions.commit_ms",
                    lambda: service.update_relation_columns(assignment),
                )
                spans.each(
                    "service.session.refit_after_commit_ms", service.execute,
                    _variants(4, offset=3400 + 4 * k),
                )
            after = service.stats()
        finally:
            service.close()
        for cache, metric in (
            ("results", "result"), ("estimators", "estimator"), ("views", "view")
        ):
            hits = after["caches"][cache]["hits"] - before["caches"][cache]["hits"]
            misses_ = after["caches"][cache]["misses"] - before["caches"][cache]["misses"]
            self.metrics[f"service.cache.{metric}_hit_ratio"] = (
                hits / max(1, hits + misses_), "ratio"
            )
        self.metrics["core.estimator.fits"] = (
            float(after["regressors"]["fits"] - before["regressors"]["fits"]), "count"
        )
        self.metrics["shard.pool.speedup_vs_threads"] = (
            spans.median_ms("service.executor.batch16_ms")
            / spans.median_ms("shard.pool.batch16_ms"),
            "ratio",
        )

    # -- the hop staircase, and the layers that only exist on its topologies ---------------

    def staircase_pool(self) -> None:
        data = self.stair
        pool = HypeRService(
            data.database, data.causal_dag, LINEAR, execution="processes", n_shards=2
        )
        try:
            pool.start_pool()
            pool.execute_many(_variants(4, offset=0))
            self.spans.each("hop.pool_ms", pool.execute, self.suite)
        finally:
            pool.close()

    def staircase(self) -> None:
        data, suite, spans = self.stair, self.suite, self.spans
        database, dag = data.database, data.causal_dag
        warm = _variants(4, offset=0)

        spans.each("hop.engine_ms", HypeR(database, dag, LINEAR).execute, suite[::10])

        service = HypeRService(database, dag, LINEAR)
        service.execute_many(warm)
        spans.each("hop.service_ms", service.execute, suite)
        service.close()

        # both doors over fresh services, so every suite query is a result miss
        threaded_service = HypeRService(database, dag, LINEAR)
        threaded = make_server(threaded_service, port=0)
        thread = threading.Thread(target=threaded.serve_forever, name="perf-threaded-door")
        thread.start()
        try:
            with HypeRClient(*threaded.server_address[:2]) as client:
                for text in warm:
                    client.query(text)
                spans.each("hop.threaded_door_ms", client.query, suite)
        finally:
            threaded.shutdown()
            thread.join()
            threaded.server_close()
            threaded_service.close()

        door_service = HypeRService(database, dag, LINEAR)
        with BackgroundAsyncServer(door_service, max_inflight=4) as server:
            with HypeRClient(*server.address) as client:
                for text in warm:
                    client.query(text)
                spans.each("hop.async_door_ms", client.query, suite)
                plain = _variants(len(suite) // 2, offset=600)
                traced = _variants(len(suite) // 2, offset=1600)
                spans.each("door.plain", client.query, plain)
                spans.each("door.traced", lambda t: client.query(t, trace=True), traced)
                spans.call("aserve.health_rtt_ms", client.health, reps=self.reps(50))
                spans.call("obs.metrics.scrape_ms", client.metrics, reps=self.reps(10))
                admission = client.stats().sections["aserve"]["admission"]
        door_service.close()

        self._staircase_cluster(data, suite)
        self._staircase_jobs(data, suite)

        in_process = spans.median_ms("hop.service_ms")
        self.metrics["aserve.roundtrip_ms"] = (
            spans.median_ms("hop.async_door_ms") - in_process, "ms"
        )
        self.metrics["service.server.roundtrip_ms"] = (
            spans.median_ms("hop.threaded_door_ms") - in_process, "ms"
        )
        self.metrics["obs.trace.overhead_ratio"] = (
            spans.median_ms("door.traced") / spans.median_ms("door.plain"), "ratio"
        )
        self.metrics["aserve.admission.queue_wait_p50_ms"] = (
            admission["decisions"]["p50_seconds"] * 1e3, "ms"
        )
        self.metrics["aserve.admission.rejected"] = (
            float(admission["rejected_total"]), "count"
        )

    def _staircase_cluster(self, data: Any, suite: list[str]) -> None:
        spans = self.spans
        direct8 = [suite[i : i + 8] for i in range(0, len(suite) - 7, 8)]
        direct = HypeRService(data.database, data.causal_dag, LINEAR)
        direct.execute_many(_variants(4, offset=0))
        spans.each("cluster.direct8", direct.execute_many, direct8[: self.reps(6)])
        direct.close()

        cluster = ClusterBatches(self.workload.seed, quick=self.quick)
        cluster.start(data)
        try:
            coordinator = cluster.coordinator
            before = coordinator.stats()["cluster"]["scatters"]
            # the slowest hop runs every fourth query of the suite
            spans.each("hop.cluster_ms", coordinator.execute, suite[::4])
            legs = coordinator.stats()["cluster"]["scatters"] - before
            self.metrics["cluster.coordinator.legs_per_query"] = (
                legs / len(suite[::4]), "count"
            )
            spans.each(
                "cluster.coordinator.batch8_ms", coordinator.execute_many,
                [
                    _variants(8, offset=800 + 8 * k)
                    for k in range(self.reps(6))
                ],
            )
            body = {"kind": "whatif", "query": suite[0], "generation": 0}
            encoded = cluster.shards[0].partial_payload(body)["partial"]
            text = json.dumps(encoded)
            self.metrics["cluster.wire.bytes_per_partial"] = (float(len(text)), "B")
            spans.call("cluster.wire.json_ms", lambda: json.loads(text), reps=self.reps(10))
            decoded = spans.call(
                "cluster.wire.decode_ms",
                lambda: wire.decode_what_if_partial(encoded),
                reps=self.reps(10),
            )
            spans.call(
                "cluster.wire.encode_ms",
                lambda: wire.encode_what_if_partial(decoded),
                reps=self.reps(10),
            )
            partials = [
                wire.decode_what_if_partial(shard.partial_payload(body)["partial"])
                for shard in cluster.shards
            ]
            merged_query = parse_query(suite[0])
            spans.call(
                "shard.merge.what_if_ms",
                lambda: merge_what_if(merged_query, partials),
                reps=self.reps(10),
            )
            connection = http.client.HTTPConnection(*cluster.servers[0].address)
            try:
                def partial(text: str) -> None:
                    payload = json.dumps({**body, "query": text})
                    connection.request(
                        "POST", PARTIAL_PATH, body=payload,
                        headers={"Content-Type": "application/json"},
                    )
                    response = connection.getresponse()
                    raw = response.read()
                    if response.status != 200:
                        raise RuntimeError(f"/v1/partial answered {response.status}: {raw[:200]!r}")

                spans.each(
                    "cluster.shardserver.partial_rtt_ms", partial,
                    _variants(self.reps(20), offset=900),
                )
            finally:
                connection.close()
            for k in range(self.reps(3)):
                assignment = self.workload.commit_assignment(3000 + k, rows=data.n_rows)
                spans.call(
                    "cluster.coordinator.update_ms",
                    lambda: coordinator.update_relation_columns(assignment),
                )
        finally:
            cluster.close()
        self.metrics["cluster.coordinator.single_query_ms"] = (
            spans.median_ms("hop.cluster_ms"), "ms"
        )
        self.metrics["cluster.overhead_ratio"] = (
            spans.median_ms("cluster.coordinator.batch8_ms")
            / spans.median_ms("cluster.direct8"),
            "ratio",
        )

    def _staircase_jobs(self, data: Any, suite: list[str]) -> None:
        spans = self.spans
        journal = Journal(f"{self.workdir}/probe-journal.jsonl")
        journal.open()
        try:
            spans.call(
                "jobs.journal.append_sync_ms",
                lambda: journal.append("progress", "probe", {"completed": 1}, sync=True),
                reps=self.reps(10),
            )
        finally:
            journal.close()
        jobs = [suite[i : i + 20] for i in range(0, len(suite), 20)]
        service = HypeRService(data.database, data.causal_dag, LINEAR, result_cache_size=0)
        service.execute_many(_variants(4, offset=0))
        spans.each("jobs.direct20", service.execute_many, jobs)
        manager = attach_jobs(service, f"{self.workdir}/jobs-journal.jsonl", n_workers=1)
        try:
            for queries in jobs:
                started = time.perf_counter()
                job = manager.submit(client_id="perf", kind="batch", queries=list(queries))
                accepted = time.perf_counter()
                done = manager.wait(job.job_id, timeout=60.0)
                ended = time.perf_counter()
                if done.state != "succeeded":
                    raise RuntimeError(f"probe job ended {done.state}: {done.error}")
                spans.add("jobs.manager.submit_ms", started, accepted)
                spans.add("jobs.manager.submit_to_done_ms", started, ended)
                spans.add("hop.jobs_ms", started, started + (ended - started) / len(queries))
        finally:
            manager.close()
            service.close()
        self.metrics["jobs.overhead_ratio"] = (
            spans.median_ms("jobs.manager.submit_to_done_ms")
            / spans.median_ms("jobs.direct20"),
            "ratio",
        )
