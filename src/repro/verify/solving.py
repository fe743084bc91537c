"""Shared solver construction and instrumentation for the checkers.

Every checker (exhaustiveness, totality, disjointness) used to build
bare :class:`~repro.smt.solver.Solver` instances; a
:class:`SolverSession` centralizes that so one verification run has a
single place to

* thread the per-query time budget to the backend *instance* (never by
  mutating ``Solver.TIME_BUDGET``, which would leak to every later
  in-process caller),
* choose the query cache (the process-wide one by default, a private
  one, or none),
* choose the solving strategy — a named
  :class:`~repro.smt.backend.SolverBackend` (``reference``,
  ``incremental``, ``z3``, ``portfolio``) resolved through the backend
  registry; the engine mechanics themselves (persistent incremental
  engines, canonical model solves, portfolio racing) live behind that
  seam, and
* record per-query wall time and solver counters against the method
  currently being verified, attributed to the engine that actually
  answered (a portfolio run shows per-strategy rows, not an
  aggregate).

The historical ``incremental`` flag maps onto the backend names:
``incremental=True`` (the default) is the ``incremental`` backend,
``incremental=False`` the ``reference`` backend.  An explicit
``backend=`` wins; :meth:`repro.api.VerifyOptions.validate` rejects
contradictory combinations before a session is ever built.
"""

from __future__ import annotations

import time

from ..metrics.solver_stats import VerifyStats
from ..obs import NULL_TRACER
from ..smt import Result, Solver
from ..smt.backend import create_backend
from ..smt.cache import GLOBAL_CACHE, SolverCache
from ..smt.plugin import LazyTheoryPlugin
from ..smt.terms import Term
from ..smt.theory import TheoryModel


def resolve_backend_name(
    backend: str | None, incremental: bool = True
) -> str:
    """The one place the legacy flag and the new name are reconciled."""
    if backend:
        return backend
    return "incremental" if incremental else "reference"


class SolverSession:
    """One verification run's solver configuration and statistics."""

    def __init__(
        self,
        budget: float | None = None,
        cache: SolverCache | None = GLOBAL_CACHE,
        stats: VerifyStats | None = None,
        incremental: bool = True,
        tracer=NULL_TRACER,
        backend: str | None = None,
    ):
        self.budget = budget
        self.cache = cache
        self.stats = stats
        self.incremental = incremental
        #: the observability tracer; the zero-cost null one by default
        self.tracer = tracer
        #: set by the driver around each method; labels the stats rows
        self.method_label = "<toplevel>"
        self.backend_name = resolve_backend_name(backend, incremental)
        self.backend = create_backend(
            self.backend_name, budget=budget, cache=cache
        )
        self._disqualified_seen: set[str] = set()

    def solver(
        self, plugin: LazyTheoryPlugin | None = None, need_model: bool = False
    ) -> Solver:
        """A bare solver with this session's budget/cache (test hook)."""
        return Solver(
            plugin,
            cache=self.cache,
            time_budget=self.budget,
            incremental=self.incremental,
            need_model=need_model,
        )

    def check(
        self,
        plugin: LazyTheoryPlugin | None,
        terms: list[Term],
        want_model: bool = False,
    ) -> tuple[Result, TheoryModel | None]:
        """Solve one query, recording it against the current method.

        ``want_model`` asks for a counterexample model on SAT; callers
        that only branch on the verdict leave it off, which lets
        incremental engines skip the canonical re-solve that models
        require (all backends answer model queries with the reference
        single-query solve, so counterexamples are byte-identical no
        matter which backend is selected).
        """
        start = time.perf_counter()
        outcome = self.backend.check(plugin, terms, want_model=want_model)
        elapsed = time.perf_counter() - start
        query_stats = outcome.stats
        if self.stats is not None:
            self.stats.record(
                self.method_label,
                outcome.result.value,
                elapsed,
                query_stats,
                backend=outcome.engine,
            )
            self._sync_disqualifications(start)
        tracer = self.tracer
        if tracer.enabled:
            # The observability leaf: verdict, the engine that answered,
            # cache-tier outcome, deepening depth reached, and where the
            # time went.  Guarded by ``enabled`` so an untraced run
            # never assembles this.
            tracer.leaf(
                "query",
                outcome.result.value,
                start,
                start + elapsed,
                {
                    "verdict": outcome.result.value,
                    "backend": outcome.engine,
                    "cache": outcome.cache_tier,
                    "depth": outcome.depth,
                    "passes": query_stats.deepening_passes,
                    "rounds": query_stats.sat_rounds,
                    "axioms": query_stats.axioms_asserted,
                    "conflicts": query_stats.theory_conflicts,
                    "core_lits": query_stats.theory_core_lits,
                    "encode_s": round(query_stats.encode_s, 6),
                    "sat_s": round(query_stats.sat_s, 6),
                    "expand_s": round(query_stats.expand_s, 6),
                    "theory_s": round(query_stats.theory_s, 6),
                    "validate_s": round(query_stats.validate_s, 6),
                },
            )
        return outcome.result, outcome.model

    def _sync_disqualifications(self, when: float) -> None:
        """Surface portfolio strategy disqualifications once each."""
        disqualified = getattr(self.backend, "disqualified", None)
        if not disqualified:
            return
        for strategy, reason in disqualified.items():
            self.stats.backends_disqualified.setdefault(strategy, reason)
            if strategy in self._disqualified_seen:
                continue
            self._disqualified_seen.add(strategy)
            if self.tracer.enabled:
                self.tracer.leaf(
                    "backend-disqualified",
                    strategy,
                    when,
                    when,
                    {"backend": strategy, "reason": reason},
                )
