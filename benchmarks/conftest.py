"""Shared fixtures and helpers for the benchmark harness.

Every module in this directory regenerates one table or figure of the paper's
evaluation (Section 5).  Dataset sizes are scaled down from the paper's (which
go up to one million rows) so the whole harness completes on a laptop/CI budget
in minutes; EXPERIMENTS.md records the scaling factors and compares the
measured shapes against the paper's reported trends.

Each benchmark prints the rows/series it reproduces (so the numbers appear in
the pytest-benchmark output log) and wraps one representative computation in
the ``benchmark`` fixture so ``pytest benchmarks/ --benchmark-only`` measures
it.
"""

from __future__ import annotations

import pytest

from repro import EngineConfig
from repro.datasets import make_adult_syn, make_amazon_syn, make_german_syn, make_student_syn

#: configuration used by the benchmarks: a small random forest, as in the paper.
BENCH_CONFIG = EngineConfig(regressor="forest", n_forest_trees=8, max_tree_depth=5, random_state=0)
#: configuration for sweeps where many engine calls are made.
FAST_CONFIG = EngineConfig(regressor="linear", random_state=0)


@pytest.fixture(scope="session")
def german():
    return make_german_syn(3_000, seed=42)


@pytest.fixture(scope="session")
def german_continuous():
    return make_german_syn(2_000, seed=42, continuous=True)


@pytest.fixture(scope="session")
def adult():
    return make_adult_syn(3_000, seed=42)


@pytest.fixture(scope="session")
def amazon():
    return make_amazon_syn(400, seed=42)


@pytest.fixture(scope="session")
def student():
    return make_student_syn(800, seed=42)


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    """Render a small fixed-width table into the captured output."""
    print(f"\n=== {title} ===")
    widths = [
        max(len(str(headers[i])), *(len(str(row[i])) for row in rows)) if rows else len(str(headers[i]))
        for i in range(len(headers))
    ]
    header_line = " | ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    print(header_line)
    print("-" * len(header_line))
    for row in rows:
        print(" | ".join(str(c).ljust(w) for c, w in zip(row, widths)))


def fmt(value: float, digits: int = 3) -> str:
    return f"{value:.{digits}f}"
