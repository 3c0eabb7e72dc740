"""The four closed-loop workloads and their frozen sizes.

Every workload is a sequence of *cycles* of identical composition (one commit
where the workload writes, then a fixed mix of reads), so each cycle is one
throughput segment and a run is as many whole cycles as fit in ``--seconds``.
Data comes from the ``repro.datasets`` generators and operations from
``random.Random`` — both seeded by ``--seed`` — and the program under test
receives only those generated inputs.

Sizes were frozen on the 2-core reference host so that a cycle lasts about a
second and a 15 s phase holds ten to twenty of them.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro import EngineConfig, HypeR, HypeRClient, HypeRService, WorkloadGenerator
from repro.aserve import BackgroundAsyncServer
from repro.cluster import ClusterCoordinator, ClusterTopology, NodeAddress
from repro.cluster.shardserver import ShardServer
from repro.datasets import make_amazon_syn, make_german_syn
from repro.lang import parse_query
from repro.obs import trace as obs_trace

#: the estimator the service benchmarks use: closed-form, deterministic
LINEAR = EngineConfig(regressor="linear", random_state=0)
#: the paper's estimator at the capacity the issue fixes
FOREST = EngineConfig(
    regressor="forest", n_forest_trees=8, max_tree_depth=5, random_state=0
)

#: four what-if templates over the German-Syn view: different update
#: attributes (so four estimators), aggregates and clause shapes
TEMPLATES = (
    "USE Credit UPDATE(Status) = {c} * PRE(Status) "
    "OUTPUT COUNT(POST(Credit)) FOR POST(Credit) = 1",
    "USE Credit WHEN Age >= 30 UPDATE(CreditAmount) = {c} * PRE(CreditAmount) "
    "OUTPUT AVG(POST(Credit))",
    "USE Credit UPDATE(Savings) = {c} * PRE(Savings) "
    "OUTPUT SUM(POST(Credit)) FOR PRE(Housing) >= 2",
    "USE Credit UPDATE(CreditHistory) = {c} * PRE(CreditHistory) "
    "OUTPUT COUNT(POST(Credit)) FOR POST(Credit) = 1 AND PRE(Age) >= 40",
)
AMAZON_TEMPLATES = (
    "USE Product WITH AVG(Review.Rating) AS Rtng UPDATE(Price) = {c} * PRE(Price) "
    "OUTPUT AVG(POST(Rtng)) FOR PRE(Category) = 'Laptop'",
    "USE Product WITH AVG(Review.Rating) AS Rtng WHEN Brand = 'Asus' "
    "UPDATE(Price) = {c} * PRE(Price) OUTPUT AVG(POST(Rtng))",
)
#: constants per template: the working set (4 x 4096 queries) is far larger
#: than the 256-entry result cache, while the four plans fit the 64-entry
#: estimator cache and the 16-entry view cache with room to spare
GRID = 4096
HOT_SET = 64
HOT_EVERY = 5  # every fifth read repeats a query of the hot set: 20 %
COMMIT_RELATION = "Credit"
COMMIT_ATTRIBUTE = "Investment"


def grid_constant(index: int) -> float:
    return round(0.5 + index / GRID, 6)


def template_query(rng: random.Random, k: int) -> str:
    """Template ``k`` (round robin) with a random constant of the grid."""
    return TEMPLATES[k % len(TEMPLATES)].format(c=grid_constant(rng.randrange(GRID)))


_LEVELS = [float(level) for level in range(6)]


def commit_column(seed: int, index: int, n_rows: int) -> list[float]:
    """The whole ``Investment`` column that commit ``index`` installs.

    A list of floats, the type the wire delivers; the entries share six float
    objects, so a run's pre-generated commits stay small next to the data.
    """
    rng = np.random.default_rng([seed, 7, index])
    return [_LEVELS[v] for v in rng.integers(1, 6, n_rows)]


@dataclass(frozen=True)
class Op:
    """One operation of a closed-loop client."""

    kind: str  # "query" | "batch" | "commit"
    cls: str  # latency class, e.g. "linear", "read", "batch16"
    engine: str  # which oracle engine answers it (see Workload.engines)
    queries: tuple = ()
    commit: int = -1

    @property
    def n_queries(self) -> int:
        return len(self.queries)

    def describe(self) -> str:
        """Canonical text, hashed into ``driver.oplist_sha``."""
        texts = [q if isinstance(q, str) else repr(q) for q in self.queries]
        return f"{self.kind}|{self.cls}|{self.engine}|{self.commit}|" + "|".join(texts)


def answer_key(result: Any) -> tuple:
    """The payload fields of an answer that must equal the oracle's bit for bit.

    Accepts engine result objects and the client's typed wire answers alike.
    """
    if hasattr(result, "objective_value"):
        plan = result.plan() if callable(result.plan) else result.plan
        return (
            "how-to",
            result.objective_value,
            result.baseline_value,
            tuple(sorted((str(k), str(v)) for k, v in plan.items())),
        )
    return (
        "what-if",
        result.value,
        result.aggregate,
        result.n_scope_tuples,
        result.n_blocks,
    )


class Workload:
    """A topology that can be built and closed repeatedly, and its op stream."""

    name = ""
    clients = 1
    rows = 0
    #: latency class reported as ``latency_p50_ms``
    primary = ""
    #: cycles of 15 s on the reference host; the op list holds twice as many,
    #: so a program twice as fast still measures for the full ``--seconds``
    reference_cycles = 10
    #: when a busy host slows the probe's kernel by f, this workload slows by
    #: f ** host_sensitivity (fitted on 17 runs at host speeds 0.55 to 0.95)
    host_sensitivity = 1.0

    def __init__(self, seed: int, *, quick: bool = False) -> None:
        self.seed = seed
        self.quick = quick
        if quick:
            self.rows = max(2000, self.rows // 5)
        #: set for the traced pass: the program's own span recording is on
        self.traced = False
        self._commits: dict[tuple[int, int], dict] = {}

    # -- data ------------------------------------------------------------------------

    def german(self):
        return make_german_syn(self.rows, seed=self.seed)

    def engines(self) -> dict[str, tuple[Any, EngineConfig]]:
        """``label -> (dataset, config)`` for the oracle, freshly generated."""
        return {"german": (self.german(), LINEAR)}

    def commit_assignment(
        self, index: int, rows: int | None = None
    ) -> dict[str, dict[str, list[float]]]:
        """Commit ``index``'s whole-column overwrite (memoised: made before timing)."""
        key = (index, rows or self.rows)
        if key not in self._commits:
            self._commits[key] = {
                COMMIT_RELATION: {COMMIT_ATTRIBUTE: commit_column(self.seed, *key)}
            }
        return self._commits[key]

    def prepare(self) -> None:
        """Generate inputs that are not part of the program's set-up (once per run)."""

    # -- topology --------------------------------------------------------------------

    def build(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def execute(self, client: int, op: Op) -> Any:
        raise NotImplementedError

    def attributed_ms(self, layer: dict[str, float]) -> float:
        """The primary operation's latency as rebuilt from probed layer metrics."""
        raise NotImplementedError

    def _activation(self):
        """The program's trace context for one op of the traced pass."""
        return obs_trace.activate(obs_trace.TraceContext() if self.traced else None)

    # -- operations ------------------------------------------------------------------

    def cycle(self, client: int, index: int) -> list[Op]:
        raise NotImplementedError

    def scale(self, count: int) -> int:
        """``--quick`` runs a twentieth of the operations."""
        return max(1, count // 20) if self.quick else count


class EngineColdMix(Workload):
    name = "engine_cold_mix"
    rows = 20_000
    primary = "linear"
    reference_cycles = 13
    host_sensitivity = 1.15
    #: the issue's 240 : 16 : 64 : 32 mix, per cycle
    MIX = (("linear", 15), ("forest", 1), ("howto", 4), ("join", 2))
    SHAPE_SEED = 2022

    def amazon(self):
        return make_amazon_syn(400, seed=self.seed)

    def engines(self):
        german = self.german()
        return {
            "german": (german, LINEAR),
            "forest": (german, FOREST),
            "amazon": (self.amazon(), LINEAR),
        }

    def build(self) -> None:
        german, amazon = self.german(), self.amazon()
        self.sessions = {
            "german": HypeR(german.database, german.causal_dag, LINEAR),
            "forest": HypeR(german.database, german.causal_dag, FOREST),
            "amazon": HypeR(amazon.database, amazon.causal_dag, LINEAR),
        }
        for op in self.ops:  # every operation of the cycle, once
            self.execute(0, op)

    def close(self) -> None:
        self.sessions = {}

    def prepare(self) -> None:
        """The cycle's query objects, from ``WorkloadGenerator``, drawn once.

        Every cycle runs the *same* operations in the same order: the cold
        engine caches nothing, so a repeat costs what a first call costs, and
        identical cycles make each cycle's time a clean reading of how fast
        the host was running (see "fastest cycle" in the README).

        A fixed generator seed fixes each query's *shape* (attribute, update
        function, aggregate) for every run — shapes drawn from ``--seed`` moved
        throughput by a quarter between seeds; the data, and the thresholds and
        limits the generator derives from it, still follow ``--seed``.
        """
        german = self.german()

        def generator(candidates=None) -> WorkloadGenerator:
            return WorkloadGenerator.for_dataset(
                german, "Credit", update_candidates=candidates, seed=self.SHAPE_SEED
            )

        draws = random.Random(f"{self.seed}/{self.name}")
        mixed = generator()
        attributes = list(mixed.update_candidates)
        pairs = list(itertools.combinations(attributes, 2))
        makers = {
            "linear": lambda k: Op("query", "linear", "german", (mixed.what_if(
                when_selectivity=0.5 if k % 3 == 1 else None,
                with_post_condition=k % 3 == 2,
            ),)),
            "forest": lambda k: Op("query", "forest", "forest", (
                generator([attributes[k % len(attributes)]]).what_if(),
            )),
            # spread over the attribute pairs: 0, 4, 8, 12 of the 15
            "howto": lambda k: Op("query", "howto", "german", (
                generator(list(pairs[4 * k % len(pairs)])).how_to(n_attributes=2),
            )),
            "join": lambda k: Op("query", "join", "amazon", (parse_query(
                AMAZON_TEMPLATES[k % len(AMAZON_TEMPLATES)].format(
                    c=grid_constant(draws.randrange(GRID))
                )
            ),)),
        }
        self.ops = [makers[cls](k) for cls, n in self.MIX for k in range(self.scale(n))]
        draws.shuffle(self.ops)

    def cycle(self, client: int, index: int) -> list[Op]:
        return self.ops

    def execute(self, client: int, op: Op) -> Any:
        session = self.sessions[op.engine]
        with self._activation():
            if op.cls == "howto":
                return [session.how_to(op.queries[0])]
            return [session.what_if(op.queries[0])]

    def attributed_ms(self, layer):
        # the cold linear what-if in its two public stages
        return layer["core.whatif.prepare_ms"] + layer["core.whatif.evaluate_cold_ms"]


class _ServiceWorkload(Workload):
    """Shared op stream of the three serving workloads: a commit, then reads.

    Every cycle holds the same number of queries of each template (only the
    constants are random), so cycles cost the same and differ only in how
    fast the host was running.
    """

    reads_per_cycle = 0
    batch = 1
    #: queries every build answers before it counts as set up
    warm = 0

    def cycle(self, client: int, index: int) -> list[Op]:
        rng = random.Random(f"{self.seed}/{self.name}/{client}/{index}")
        ops = []
        if client == 0:
            self.commit_assignment(index)
            ops.append(Op("commit", "commit", "german", commit=index))
        for k in range(self.scale(self.reads_per_cycle)):
            if self.batch == 1:
                ops.append(Op("query", "read", "german", (self._read(rng, k),)))
            else:
                texts = [template_query(rng, j) for j in range(self.batch)]
                rng.shuffle(texts)
                ops.append(Op("batch", f"batch{self.batch}", "german", tuple(texts)))
        return ops

    def _read(self, rng: random.Random, k: int) -> str:
        return template_query(rng, k)

    def warm_queries(self) -> list[str]:
        """A fixed suite over all four templates, evenly spread over the grid."""
        count = max(len(TEMPLATES), self.scale(self.warm))
        step = GRID * len(TEMPLATES) // count
        return [
            TEMPLATES[k % len(TEMPLATES)].format(c=grid_constant(step * (k // len(TEMPLATES))))
            for k in range(count)
        ]

    def warm_batches(self) -> list[list[str]]:
        texts = self.warm_queries()
        return [texts[i : i + self.batch] for i in range(0, len(texts), self.batch)]


class DoorWarmRW(_ServiceWorkload):
    name = "door_warm_rw"
    clients = 2
    rows = 8_000
    primary = "read"
    reference_cycles = 16
    reads_per_cycle = 165  # per client: 330 reads beside each commit
    warm = 320
    host_sensitivity = 0.8

    def __init__(self, seed: int, *, quick: bool = False) -> None:
        super().__init__(seed, quick=quick)
        hot = random.Random(f"{seed}/{self.name}/hot")
        self.hot_set = [template_query(hot, k) for k in range(HOT_SET)]

    def _read(self, rng: random.Random, k: int) -> str:
        if k % HOT_EVERY == HOT_EVERY - 1:
            return self.hot_set[rng.randrange(HOT_SET)]
        return template_query(rng, k)

    def build(self) -> None:
        german = self.german()
        self.service = HypeRService(german.database, german.causal_dag, LINEAR)
        self.server = BackgroundAsyncServer(self.service, max_inflight=4).start()
        host, port = self.server.address
        self.http = [
            HypeRClient(host, port, client_id=f"perf-{i}") for i in range(self.clients)
        ]
        for index, text in enumerate(self.warm_queries()):  # both connections
            self.http[index % self.clients].query(text)
        for text in self.hot_set:  # last, so the hot set is resident
            self.http[0].query(text)

    def close(self) -> None:
        for client in self.http:
            client.close()
        self.server.stop()
        self.service.close()

    def execute(self, client: int, op: Op) -> Any:
        if op.kind == "commit":
            return self.http[client].update(self.commit_assignment(op.commit))
        return [self.http[client].query(op.queries[0], trace=self.traced)]

    def attributed_ms(self, layer):
        return (
            layer["service.session.execute_warm_ms"]
            + layer["aserve.roundtrip_ms"]
            + layer["driver.concurrency_wait_ms"]
        )


class PoolBatchCommits(_ServiceWorkload):
    name = "pool_batch_commits"
    rows = 60_000
    primary = "batch16"
    reference_cycles = 20
    reads_per_cycle = 6
    batch = 16
    warm = 128
    host_sensitivity = 0.7

    def build(self) -> None:
        german = self.german()
        self.service = HypeRService(
            german.database, german.causal_dag, LINEAR, execution="processes", n_shards=2
        )
        self.service.start_pool()
        for batch in self.warm_batches():
            self.service.execute_many(batch)

    def close(self) -> None:
        self.service.close()

    def execute(self, client: int, op: Op) -> Any:
        with self._activation():
            if op.kind == "commit":
                return self.service.update_relation_columns(
                    self.commit_assignment(op.commit)
                )
            return self.service.execute_many(list(op.queries))

    def attributed_ms(self, layer):
        # the service parses and fingerprints 16 texts, the two workers answer
        # their halves of the batch one after the other (the run has one
        # core), the answers are pickled back
        return (
            self.batch * (layer["lang.parse_ms"] + layer["service.fingerprint_ms"])
            + 2 * layer["shard.pool.worker_leg_ms"]
            + layer["shard.pool.result_pickle_ms"]
        )


class ClusterBatches(_ServiceWorkload):
    name = "cluster_batches"
    rows = 8_000
    primary = "batch8"
    reference_cycles = 13
    reads_per_cycle = 8
    batch = 8
    warm = 64
    host_sensitivity = 0.9
    N_NODES = 3

    def build(self) -> None:
        self.start(self.german())

    def start(self, german: Any) -> None:
        """Boot nodes and coordinator over ``german`` (the probes pass their own rows)."""
        self.shards = [
            ShardServer(
                german.database,
                german.causal_dag,
                LINEAR,
                shard_index=index,
                n_shards=self.N_NODES,
            )
            for index in range(self.N_NODES)
        ]
        self.servers = [
            BackgroundAsyncServer(
                shard.service, app_factory=shard.app_factory, max_inflight=8
            ).start()
            for shard in self.shards
        ]
        topology = ClusterTopology(
            n_shards=self.N_NODES,
            nodes=tuple(NodeAddress(*server.address) for server in self.servers),
        )
        self.coordinator = ClusterCoordinator(topology, LINEAR, max_workers=8)
        self.coordinator.start()
        for batch in self.warm_batches():
            self.coordinator.execute_many(batch)

    def close(self) -> None:
        self.coordinator.close()
        for server in self.servers:
            server.stop()
        for shard in self.shards:
            shard.close()
            shard.service.close()

    def execute(self, client: int, op: Op) -> Any:
        with self._activation():
            if op.kind == "commit":
                return self.coordinator.update_relation_columns(
                    self.commit_assignment(op.commit)
                )
            return self.coordinator.execute_many(list(op.queries))

    def attributed_ms(self, layer):
        # all nodes share this process's GIL, so the legs of a batch run one
        # after another: per query, every leg's round trip, JSON and frame
        # decoding, then one merge
        legs = layer["cluster.coordinator.legs_per_query"]
        return self.batch * (
            layer["lang.parse_ms"]
            + legs * (
                layer["cluster.shardserver.partial_rtt_ms"]
                + layer["cluster.wire.json_ms"]
                + layer["cluster.wire.decode_ms"]
            )
            + layer["shard.merge.what_if_ms"]
        )


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (EngineColdMix, DoorWarmRW, PoolBatchCommits, ClusterBatches)
}
