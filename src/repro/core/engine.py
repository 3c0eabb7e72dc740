"""The HypeR facade: one object that answers SQL-text or programmatic queries.

``HypeR`` bundles a database, optional causal background knowledge and an
engine configuration, and exposes:

* :meth:`HypeR.what_if` / :meth:`HypeR.how_to` for programmatic queries;
* :meth:`HypeR.execute` for queries written in the declarative SQL extension;
* convenience constructors for the baseline variants evaluated in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..causal.dag import CausalDAG
from ..lang.parser import parse_query
from ..relational.database import Database
from .config import EngineConfig, Variant
from .howto import HowToEngine
from .queries import HowToQuery, WhatIfQuery
from .results import HowToResult, WhatIfResult
from .whatif import WhatIfEngine

__all__ = ["HypeR"]


@dataclass
class HypeR:
    """Hypothetical-reasoning session over one database.

    Parameters
    ----------
    database:
        The multi-relation database.
    causal_dag:
        Attribute-level causal background knowledge.  ``None`` makes the engine
        behave like the HypeR-NB variant (every attribute is adjusted for).
    config:
        Engine configuration; see :class:`repro.core.config.EngineConfig`.
    """

    database: Database
    causal_dag: CausalDAG | None = None
    config: EngineConfig = field(default_factory=EngineConfig)

    # -- constructors ----------------------------------------------------------------

    def with_variant(self, variant: str) -> "HypeR":
        """A copy of this session running a different engine variant."""
        return replace(self, config=self.config.with_variant(variant))

    def sampled(self, sample_size: int) -> "HypeR":
        """The HypeR-sampled variant trained on ``sample_size`` view rows."""
        config = self.config.with_variant(Variant.HYPER_SAMPLED).with_sample_size(sample_size)
        return replace(self, config=config)

    def no_background(self) -> "HypeR":
        """The HypeR-NB variant (ignores the causal graph, adjusts for everything)."""
        return replace(self, config=self.config.with_variant(Variant.HYPER_NB))

    def independent_baseline(self) -> "HypeR":
        """The Indep baseline (no causal propagation at all)."""
        return replace(self, config=self.config.with_variant(Variant.INDEP))

    # -- engines --------------------------------------------------------------------

    @property
    def whatif_engine(self) -> WhatIfEngine:
        return WhatIfEngine(self.database, self.causal_dag, self.config)

    @property
    def howto_engine(self) -> HowToEngine:
        return HowToEngine(self.database, self.causal_dag, self.config)

    # -- query execution ---------------------------------------------------------------

    def what_if(self, query: WhatIfQuery) -> WhatIfResult:
        """Answer a programmatic what-if query."""
        return self.whatif_engine.evaluate(query)

    def how_to(self, query: HowToQuery, *, exhaustive: bool = False) -> HowToResult:
        """Answer a programmatic how-to query (``exhaustive=True`` runs Opt-HowTo)."""
        engine = self.howto_engine
        if exhaustive:
            return engine.evaluate_exhaustive(query)
        return engine.evaluate(query)

    def execute(self, query) -> WhatIfResult | HowToResult:
        """Answer a query: SQL-extension text, a query object, or a fluent builder."""
        if isinstance(query, str):
            query = parse_query(query)
        else:
            from ..api.builder import as_query_object  # lazy: api sits above core

            query = as_query_object(query)
        if isinstance(query, WhatIfQuery):
            return self.what_if(query)
        return self.how_to(query)

    def parse(self, query_text: str) -> WhatIfQuery | HowToQuery:
        """Parse a query without executing it (useful for inspection and tests)."""
        return parse_query(query_text)

    # -- service layer -----------------------------------------------------------------

    def service(self, **kwargs):
        """A long-lived :class:`repro.service.HypeRService` over this session.

        The service keeps fingerprint-keyed caches of views, estimators and
        block decompositions across queries and offers ``execute_many`` batch
        execution; see :mod:`repro.service`.  Keyword arguments are forwarded
        to the :class:`~repro.service.session.HypeRService` constructor.
        """
        from ..service import HypeRService

        return HypeRService(self.database, self.causal_dag, self.config, **kwargs)
