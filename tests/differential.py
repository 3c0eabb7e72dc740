"""Differential run: this checkout's ``repro`` against another revision's.

    python3 -m tests.differential <rev>

``<rev>``'s ``src/repro`` is extracted into a temporary directory (``git
archive``, so the repository's worktree list is never touched) and imported
next to this checkout's package as ``repro_parent``; ``src/`` uses relative
imports only, so the two packages share no module.  One corpus runs through
both sides, every query through the cold ``HypeR`` facade and through a warm
``HypeRService``:

* the perf workloads' four German-Syn and two Amazon-Syn templates over grid
  constants, at 2 000 and 20 000 rows;
* two multi-disjunct ``FOR`` templates, with ``=`` and ``+`` updates;
* ``WorkloadGenerator`` what-if batches and two-attribute how-to batches;
* queries both sides must reject, for their error envelopes;
* the German-Syn templates and generated what-ifs once more as one batch,
  through ``execute_many`` on a threads service and on a two-worker
  ``processes`` service: plan groups answered together.

Answers are compared field by field — dataclass ``==`` is always false across
two packages: the plan, the block indices, sizes and scope sizes exactly, the
values as floats, and a what-if's per-block partial answers as floats too,
each answer's relative to the largest of them — and one line is printed::

    N answers, K ==, max rel diff X, plan diffs P, structural diffs S, error diffs E

The exit status is non-zero if ``X > 1e-12`` or any of ``P``, ``S``, ``E`` is
above zero.  The name keeps pytest from collecting this module;
``tests/integration/test_differential.py`` runs it with both sides this
checkout's package.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import io
import math
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType
from typing import Any, Iterable

import numpy as np

from perf.workloads import AMAZON_TEMPLATES, TEMPLATES, grid_constant

REPO_ROOT = Path(__file__).resolve().parent.parent
#: the worst relative difference of a float field the run accepts
TOLERANCE = 1e-12

MULTI_DISJUNCT_TEMPLATES = (
    "USE Credit WHEN Sex = 1 UPDATE(Status) = {s} "
    "OUTPUT AVG(POST(CreditAmount)) FOR POST(Credit) = 1 "
    "OR (PRE(Age) >= 40 AND POST(Credit) = 0) OR PRE(Housing) >= 2",
    "USE Credit WHEN Age < 50 UPDATE(CreditAmount) = {a} + PRE(CreditAmount) "
    "OUTPUT SUM(POST(Credit)) FOR POST(Credit) = 1 OR PRE(Housing) >= 2",
)
REJECTED = (
    "USE Credit UPDATE(Age) = 3 OUTPUT AVG(POST(Credit))",
    "USE Credit UPDATE(Nope) = 2 OUTPUT AVG(POST(Credit))",
    "USE Credit UPDATE(Status) = 2 OUTPUT AVG(POST(Credit)) FOR",
)


@dataclass(frozen=True)
class Corpus:
    """What to run: view sizes, constants per template, generated batch sizes."""

    sizes: tuple[int, ...] = (2_000, 20_000)
    grid: tuple[int, ...] = (0, 819, 1638, 2457, 3276, 4095)
    settings: tuple[int, ...] = (1, 3)
    deltas: tuple[float, ...] = (-350.0, 800.0)
    what_ifs: int = 10
    how_tos: int = 4
    seed: int = 2022


def load_package(package_dir: Path, name: str) -> ModuleType:
    """Import the package at ``package_dir`` under the top-level ``name``."""
    spec = importlib.util.spec_from_file_location(
        name, package_dir / "__init__.py", submodule_search_locations=[str(package_dir)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    importlib.import_module(f"{name}.datasets")
    return module


def extract_package(rev: str, into: Path) -> Path:
    """``rev``'s ``src/repro`` written under ``into``; its package directory."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev, "src/repro"],
        cwd=REPO_ROOT, check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        extra = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(into, **extra)
    return into / "src" / "repro"


# -- running one side ----------------------------------------------------------------


def _texts(corpus: Corpus, dataset: str) -> list[str]:
    if dataset == "amazon":
        return [t.format(c=grid_constant(i)) for t in AMAZON_TEMPLATES for i in corpus.grid]
    texts = [t.format(c=grid_constant(i)) for t in TEMPLATES for i in corpus.grid]
    texts += [MULTI_DISJUNCT_TEMPLATES[0].format(s=s) for s in corpus.settings]
    texts += [MULTI_DISJUNCT_TEMPLATES[1].format(a=a) for a in corpus.deltas]
    return texts + list(REJECTED)


def _blocks(blocks: Iterable[Any]) -> tuple[str, np.ndarray]:
    """A digest of the blocks' indices, sizes and scope sizes; their partial values."""
    rows = [(b.block_index, b.n_tuples, b.n_scope_tuples, b.partial_value) for b in blocks]
    keys = np.array([r[:3] for r in rows], dtype=np.int64)
    values = np.array([r[3] for r in rows], dtype=float)
    return hashlib.blake2b(keys.tobytes(), digest_size=16).hexdigest(), values


def _record(answer: Any) -> dict[str, Any]:
    if hasattr(answer, "objective_value"):
        return {
            "kind": "how-to",
            "floats": (answer.objective_value, answer.baseline_value),
            "plan": answer.plan(),
        }
    digest, partials = _blocks(answer.block_contributions)
    return {
        "kind": "what-if",
        "floats": (answer.value, answer.expected_qualifying_count),
        "partials": partials,
        "structure": (answer.aggregate, answer.n_scope_tuples, answer.n_blocks, digest),
    }


def _answer(run: Any, make_query: Any) -> dict[str, Any]:
    try:
        return _outcome(run(make_query()))
    except Exception as error:  # noqa: BLE001 - the envelope is what is compared
        return _outcome(error)


def _outcome(answer: Any) -> dict[str, Any]:
    if isinstance(answer, Exception):  # raised, or a batch's failed query in its slot
        return {"kind": "error", "error": (type(answer).__name__, str(answer))}
    return _record(answer)


def answers(package: ModuleType, corpus: Corpus) -> list[dict[str, Any]]:
    """Every corpus query answered by ``package``, cold and warm, in a fixed order."""
    datasets = importlib.import_module(f"{package.__name__}.datasets")
    config = package.EngineConfig(regressor="linear", random_state=0)
    out: list[dict[str, Any]] = []
    for dataset in ("german", "amazon"):
        for size in corpus.sizes:
            if dataset == "german":
                data = datasets.make_german_syn(size, seed=3)
            else:
                data = datasets.make_amazon_syn(size, seed=3)
            texts = _texts(corpus, dataset)
            makers = [lambda text=text: package.parse_query(text) for text in texts]
            if dataset == "german":
                generator = package.WorkloadGenerator.for_dataset(
                    data, "Credit", seed=corpus.seed
                )
                generated = generator.what_if_batch(corpus.what_ifs)
                generated += generator.what_if_batch(corpus.what_ifs, when_selectivity=0.3)
                generated += generator.how_to_batch(corpus.how_tos, n_attributes=2)
                makers += [lambda query=query: query for query in generated]
            cold = package.HypeR(data.database, data.causal_dag, config)
            warm = package.HypeRService(
                data.database, data.causal_dag, config, result_cache_size=0
            )
            try:
                for make_query in makers:
                    out.append(_answer(cold.execute, make_query))
                    out.append(_answer(warm.execute, make_query))
            finally:
                warm.close()
            if dataset == "german":
                what_ifs = generated[: 2 * corpus.what_ifs]
                out += batch_answers(package, data, config, texts + what_ifs)
    return out


def batch_answers(package: ModuleType, data: Any, config: Any, batch: list) -> list:
    """``batch`` answered by ``execute_many`` in threads and in processes mode."""
    out: list[dict[str, Any]] = []
    for execution in ("threads", "processes"):
        service = package.HypeRService(
            data.database, data.causal_dag, config, result_cache_size=0,
            execution=execution, n_shards=2,
        )
        try:
            out += [_outcome(outcome) for outcome in service.execute_many(batch, return_errors=True)]
        finally:
            service.close()
    return out


# -- comparing two sides -------------------------------------------------------------


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def _relative(a: float, b: float) -> float:
    if _same(a, b):
        return 0.0
    difference = abs(a - b)
    return difference / max(abs(a), abs(b)) if math.isfinite(difference) else math.inf


def _relative_array(a: np.ndarray, b: np.ndarray) -> float:
    """The largest difference of two answers' partial values, relative to the
    largest of them (their block keys are compared exactly, as structure)."""
    if a.shape != b.shape or np.array_equal(a, b, equal_nan=True):
        return 0.0  # a shape difference is a structural one, counted there
    difference = float(np.max(np.abs(a - b)))
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return difference / scale if math.isfinite(difference) and scale > 0 else math.inf


@dataclass
class Summary:
    n_answers: int = 0
    n_equal: int = 0
    max_rel_diff: float = 0.0
    plan_diffs: int = 0
    structural_diffs: int = 0
    error_diffs: int = 0

    @property
    def ok(self) -> bool:
        return self.max_rel_diff <= TOLERANCE and not (
            self.plan_diffs or self.structural_diffs or self.error_diffs
        )

    def line(self) -> str:
        return (
            f"{self.n_answers} answers, {self.n_equal} ==, "
            f"max rel diff {self.max_rel_diff:.3g}, plan diffs {self.plan_diffs}, "
            f"structural diffs {self.structural_diffs}, error diffs {self.error_diffs}"
        )


def compare(left: list[dict[str, Any]], right: list[dict[str, Any]]) -> Summary:
    """Field-by-field comparison of two sides' answers to one corpus."""
    summary = Summary(n_answers=max(len(left), len(right)))
    summary.structural_diffs += abs(len(left) - len(right))
    for a, b in zip(left, right):
        if "error" in a or "error" in b:
            if a.get("error") == b.get("error"):
                summary.n_equal += 1
            else:
                summary.error_diffs += 1
            continue
        if a["kind"] != b["kind"]:
            summary.structural_diffs += 1
            continue
        pairs = list(zip(a["floats"], b["floats"]))
        partials = [(a["partials"], b["partials"])] if "partials" in a and "partials" in b else []
        summary.n_equal += all(_same(x, y) for x, y in pairs) and all(
            np.array_equal(x, y, equal_nan=True) for x, y in partials
        )
        summary.max_rel_diff = max(
            summary.max_rel_diff,
            *(_relative(x, y) for x, y in pairs),
            *(_relative_array(x, y) for x, y in partials),
        )
        summary.plan_diffs += a.get("plan") != b.get("plan")
        summary.structural_diffs += a.get("structure") != b.get("structure")
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 -m tests.differential", description=__doc__.splitlines()[0]
    )
    parser.add_argument("rev", help="the git revision to compare this checkout against")
    args = parser.parse_args(argv)
    import repro

    corpus = Corpus()
    with tempfile.TemporaryDirectory(prefix="repro-differential-") as tmp:
        parent = load_package(extract_package(args.rev, Path(tmp)), "repro_parent")
        summary = compare(answers(parent, corpus), answers(repro, corpus))
    print(summary.line())
    return 0 if summary.ok else 1


if __name__ == "__main__":
    sys.exit(main())
