"""The in-process oracle every answer is compared with, bit for bit.

Two references, both computed after the timed phase from freshly generated
data, neither through a door, a pool or a cluster:

* every answer is compared with a plain in-process :class:`HypeRService` per
  engine (threads mode, result cache off), advanced through the run's own
  commits one generation at a time;
* at **every generation** one query the run actually issued there — a
  different template each time, with the run's own non-trivial constant — is
  also answered by a cold :class:`HypeR` built on a database that holds that
  generation's committed column and nothing cached.  The program's answer, the
  service oracle's and the cold one must all be equal, so a change that breaks
  estimator or view invalidation on commit cannot give the same wrong answer on
  both sides unnoticed.

Answering *every* query cold, as the issue first sketched, would cost several
times the timed phase on the 60 000-row workload.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro import HypeR, HypeRService

from .driver import Sample
from .workloads import Workload, answer_key


class Oracle:
    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self._engines = workload.engines()
        self._services: dict[str, HypeRService] = {}
        self._generation = 0
        #: (engine, text or repr of query) -> answer key, for the current generation
        self._memo: dict[tuple[str, str], tuple] = {}

    def _service(self, engine: str) -> HypeRService:
        if engine not in self._services:
            dataset, config = self._engines[engine]
            self._services[engine] = HypeRService(
                dataset.database, dataset.causal_dag, config, result_cache_size=0
            )
        return self._services[engine]

    def close(self) -> None:
        for service in self._services.values():
            service.close()

    def advance_to(self, generation: int) -> None:
        """Apply the run's commits up to ``generation`` (commit k makes k+1)."""
        while self._generation < generation:
            self._service("german").update_relation_columns(
                self.workload.commit_assignment(self._generation)
            )
            self._generation += 1
            self._memo.clear()

    def expected(self, engine: str, query: Any) -> tuple:
        memo_key = (engine, query if isinstance(query, str) else repr(query))
        if memo_key not in self._memo:
            self._memo[memo_key] = answer_key(self._service(engine).execute(query))
        return self._memo[memo_key]

    def cold(self, engine: str, query: Any, generation: int) -> tuple:
        """The answer of a plain ``HypeR`` over generation ``generation``'s data.

        Every commit overwrites the same whole column, so a generation's
        database is the generated one with that generation's column put in.
        """
        dataset, config = self._engines[engine]
        database = dataset.database
        if engine == "german" and generation > 0:
            assignment = self.workload.commit_assignment(generation - 1)
            for relation_name, columns in assignment.items():
                relation = database[relation_name]
                for attribute, values in columns.items():
                    relation = relation.with_column(attribute, values)
                database = database.with_relation(relation)
        return answer_key(HypeR(database, dataset.causal_dag, config).execute(query))

    def verify(self, samples: Sequence[Sample]) -> list[str]:
        """One message per failed operation (raised, refused, or wrong answer)."""
        problems = []
        pending: list[Sample] = []
        for sample in samples:
            if sample.error is not None:
                problems.append(
                    f"{sample.op.cls} raised {type(sample.error).__name__}: {sample.error}"
                )
            elif sample.op.kind != "commit":
                pending.append(sample)
        pending.sort(key=lambda s: s.generation_low)
        last = max((s.generation_high for s in pending), default=0)
        for generation in range(last + 1):
            self.advance_to(generation)
            still: list[Sample] = []
            settled: list[Sample] = []  # answered at this generation, no commit in flight
            for sample in pending:
                if sample.generation_low > generation:
                    still.append(sample)
                    continue
                expected = [self.expected(sample.op.engine, q) for q in sample.op.queries]
                if sample.answers == expected:
                    if sample.generation_low == sample.generation_high:
                        settled.append(sample)
                elif sample.generation_high > generation:
                    still.append(sample)  # raced a commit: may match the next one
                else:
                    problems.append(
                        f"{sample.op.cls} answered {sample.answers} at generation "
                        f"{sample.generation_low}..{sample.generation_high}, "
                        f"oracle says {expected}"
                    )
            if settled:
                problems.extend(self._anchor(settled, generation))
            pending = still
        return problems

    def _anchor(self, settled: Sequence[Sample], generation: int) -> list[str]:
        """Check one issued query of this generation against the cold library path."""
        # strides co-prime to the template count, so successive generations
        # anchor different templates
        sample = settled[(5 * generation + 1) % len(settled)]
        position = generation % len(sample.op.queries)
        query = sample.op.queries[position]
        cold = self.cold(sample.op.engine, query, generation)
        if cold == sample.answers[position]:
            return []
        return [
            f"{sample.op.cls} answered {sample.answers[position]} at generation "
            f"{generation}, a cold HypeR over the committed column says {cold}"
        ]
