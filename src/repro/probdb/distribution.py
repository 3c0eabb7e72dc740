"""Distributions over possible worlds and expectation helpers.

The post-update distribution (Definition 3) assigns a probability to every
possible world.  Exact representations are only feasible for tiny instances;
the engine otherwise works with Monte-Carlo collections of sampled worlds.
Both share the same interface: an expectation of a per-world functional.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from ..exceptions import HypeRError
from ..relational.relation import Relation
from .possible_worlds import PossibleWorld

__all__ = ["WorldDistribution", "DiscreteWorldDistribution", "MonteCarloWorlds"]


class WorldDistribution:
    """Common interface: expectation of a functional over possible worlds."""

    def expectation(self, functional: Callable[[Relation], float]) -> float:
        raise NotImplementedError


@dataclass
class DiscreteWorldDistribution(WorldDistribution):
    """An explicit, normalised distribution over enumerated worlds."""

    worlds: Sequence[PossibleWorld]

    def __post_init__(self) -> None:
        if not self.worlds:
            raise HypeRError("a world distribution needs at least one world")
        total = float(sum(w.probability for w in self.worlds))
        if total <= 0:
            raise HypeRError("total probability mass must be positive")
        self.worlds = [PossibleWorld(w.relation, w.probability / total) for w in self.worlds]

    def __len__(self) -> int:
        return len(self.worlds)

    def probabilities(self) -> np.ndarray:
        return np.array([w.probability for w in self.worlds])

    def expectation(self, functional: Callable[[Relation], float]) -> float:
        return float(
            sum(w.probability * float(functional(w.relation)) for w in self.worlds)
        )


@dataclass
class MonteCarloWorlds(WorldDistribution):
    """Equally weighted sampled worlds (the engine's simulation output)."""

    samples: Sequence[Relation]

    def __post_init__(self) -> None:
        if not self.samples:
            raise HypeRError("Monte-Carlo world collection needs at least one sample")

    def __len__(self) -> int:
        return len(self.samples)

    def expectation(self, functional: Callable[[Relation], float]) -> float:
        values = [float(functional(sample)) for sample in self.samples]
        return float(np.mean(values))

    @classmethod
    def from_iterable(cls, samples: Iterable[Relation]) -> "MonteCarloWorlds":
        return cls(list(samples))
