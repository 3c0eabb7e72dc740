"""Engine configuration: variants, estimator settings, optimisation toggles."""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..exceptions import QuerySemanticsError

__all__ = ["Variant", "EngineConfig"]


class Variant:
    """Named engine variants evaluated in the paper's experiments."""

    HYPER = "hyper"  # full HypeR: causal graph + backdoor adjustment
    HYPER_NB = "hyper-nb"  # no background knowledge: adjust for all attributes
    HYPER_SAMPLED = "hyper-sampled"  # train estimators on a row sample
    INDEP = "indep"  # provenance-style baseline ignoring dependencies

    ALL = (HYPER, HYPER_NB, HYPER_SAMPLED, INDEP)


@dataclass(frozen=True)
class EngineConfig:
    """Knobs shared by the what-if and how-to engines.

    Parameters
    ----------
    variant:
        One of :class:`Variant`'s values: ``hyper`` (full causal engine with
        backdoor adjustment), ``hyper-nb`` (no background knowledge — adjust
        for every attribute), ``hyper-sampled`` (estimators trained on a row
        sample) or ``indep`` (provenance-style baseline without causal
        propagation).
    regressor:
        Estimator backend: ``"forest"`` (paper default, random forest),
        ``"linear"`` (closed-form OLS; fastest, used by the scaling
        benchmarks) or ``"ridge"`` (L2-regularised OLS, stabler with one-hot
        encoded categoricals).
    sample_size:
        When set (or when the variant is ``hyper-sampled``) the conditional
        probability estimators are trained on a random sample of this many view
        rows (Section 5.2's HypeR-sampled, default 100k in the paper).  Must be
        positive when given.
    use_blocks:
        Whether to decompose the computation over block-independent components
        (the Proposition 1 optimisation).  Turning it off is the ablation run
        by the benchmarks; results are identical, only per-block reporting and
        runtime change.
    n_forest_trees / max_tree_depth:
        Random-forest capacity (kept modest so pure-Python training stays
        fast).  Ignored by the linear/ridge regressors.
    random_state:
        Seed controlling sampling and estimator randomness (reproducibility).

    A how-to always re-evaluates the plan it picks with the what-if machinery
    and reports that verified value alongside the program's objective.
    """

    variant: str = Variant.HYPER
    regressor: str = "forest"
    sample_size: int | None = None
    use_blocks: bool = True
    n_forest_trees: int = 12
    max_tree_depth: int = 6
    random_state: int = 0

    def __post_init__(self) -> None:
        if self.variant not in Variant.ALL:
            raise QuerySemanticsError(
                f"unknown variant {self.variant!r}; expected one of {Variant.ALL}"
            )
        if self.sample_size is not None and self.sample_size <= 0:
            raise QuerySemanticsError("sample_size must be positive when given")
        if self.n_forest_trees <= 0 or self.max_tree_depth <= 0:
            raise QuerySemanticsError("forest capacity parameters must be positive")

    @property
    def is_sampled(self) -> bool:
        return self.variant == Variant.HYPER_SAMPLED or self.sample_size is not None

    @property
    def adjusts_for_all_attributes(self) -> bool:
        return self.variant == Variant.HYPER_NB

    @property
    def ignores_dependencies(self) -> bool:
        return self.variant == Variant.INDEP

    def with_variant(self, variant: str) -> "EngineConfig":
        return replace(self, variant=variant)

    def with_sample_size(self, sample_size: int | None) -> "EngineConfig":
        return replace(self, sample_size=sample_size)

    def regressor_params(self) -> dict:
        if self.regressor == "forest":
            return {
                "n_estimators": self.n_forest_trees,
                "max_depth": self.max_tree_depth,
            }
        return {}
