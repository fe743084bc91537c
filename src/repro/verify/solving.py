"""Shared solver construction and instrumentation for the checkers.

Every checker (exhaustiveness, totality, disjointness) used to build
bare :class:`~repro.smt.solver.Solver` instances; a
:class:`SolverSession` centralizes that so one verification run has a
single place to

* thread the per-query time budget to each solver *instance* (never by
  mutating ``Solver.TIME_BUDGET``, which would leak to every later
  in-process caller),
* hand a caller's query cache, if it passed one, to the queries that
  consult it: verdict queries only, since the cache keeps no models,
* keep the persistent incremental engines: one ``Solver`` per encoding
  context (plugin), diffed against each query's assertion stack, while
  a query that needs a model gets a fresh, uncached solve of its own
  (see :meth:`SolverSession._solve`), and
* record per-query wall time and solver counters against the method
  currently being verified.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import NamedTuple

from ..metrics.solver_stats import VerifyStats
from ..obs import NULL_TRACER, QUERY_PHASE_KEYS
from ..smt import Result
from ..smt.cache import SolverCache
from ..smt.plugin import LazyTheoryPlugin
from ..smt.solver import Solver, SolverStats
from ..smt.terms import Term
from ..smt.theory import TheoryModel


class QueryOutcome(NamedTuple):
    """What answering one query produced, for recording and tracing."""

    result: Result
    #: only when the caller asked for a model and the verdict is SAT
    model: TheoryModel | None
    #: the counters this query alone spent
    stats: SolverStats
    #: deepest iterative-deepening depth reached
    depth: int
    #: why an UNKNOWN verdict is unknown: "deadline" or "depth"
    unknown_cause: str | None = None


def solve_fresh(
    solver: Solver, terms: list[Term], want_model: bool
) -> QueryOutcome:
    """Answer one query with a solver that has seen no other query."""
    for term in terms:
        solver.add(term)
    result = solver.check()
    model = solver.model() if want_model and result == Result.SAT else None
    return QueryOutcome(
        result,
        model,
        solver.stats,
        solver.last_depth,
        solver.last_unknown_cause,
    )


class _Engine:
    """A persistent incremental solver plus its raw assertion stack."""

    __slots__ = ("plugin", "solver", "stack")

    def __init__(self, plugin: LazyTheoryPlugin, solver: Solver):
        self.plugin = plugin
        self.solver = solver
        self.stack: list[Term] = []


class SolverSession:
    """One verification run's solver configuration and statistics."""

    #: engines kept alive at once; checkers use one context per
    #: statement, so a tiny LRU covers the live chain plus stragglers
    MAX_ENGINES = 4

    def __init__(
        self,
        budget: float | None = None,
        cache: SolverCache | None = None,
        stats: VerifyStats | None = None,
        tracer=NULL_TRACER,
    ):
        self.budget = budget
        self.cache = cache
        self.stats = stats
        #: the observability tracer; the zero-cost null one by default
        self.tracer = tracer
        #: set by the driver around each method; labels the stats rows
        self.method_label = "<toplevel>"
        #: why the last query answered UNKNOWN ("deadline" or "depth")
        self.last_unknown_cause: str | None = None
        self._engines: OrderedDict[int, _Engine] = OrderedDict()

    def unknown_suffix(self) -> str:
        """What the warning for an UNKNOWN last query appends: which
        limit it reached, the time budget or the deepening schedule."""
        exhausted = (
            "time budget"
            if self.last_unknown_cause == "deadline"
            else "expansion depth"
        )
        return f" ({exhausted} exhausted)"

    def check(
        self,
        plugin: LazyTheoryPlugin | None,
        terms: list[Term],
        want_model: bool = False,
    ) -> tuple[Result, TheoryModel | None]:
        """Solve one query, recording it against the current method.

        ``want_model`` asks for a counterexample model on SAT; callers
        that only branch on the verdict leave it off, which lets the
        query run on a shared engine instead of the fresh solve that
        models require.
        """
        start = time.perf_counter()
        outcome = self._solve(plugin, terms, want_model)
        elapsed = time.perf_counter() - start
        self.last_unknown_cause = outcome.unknown_cause
        query_stats = outcome.stats
        if self.stats is not None:
            self.stats.record(
                self.method_label,
                outcome.result.value,
                elapsed,
                query_stats,
            )
        tracer = self.tracer
        if tracer.enabled:
            # The observability leaf: verdict, deepening depth reached,
            # and where the time went.  Guarded by ``enabled`` so an
            # untraced run never assembles this.
            attrs = {
                "verdict": outcome.result.value,
                "depth": outcome.depth,
                "passes": query_stats.deepening_passes,
                "rounds": query_stats.sat_rounds,
                "axioms": query_stats.axioms_asserted,
                "conflicts": query_stats.theory_conflicts,
                "core_lits": query_stats.theory_core_lits,
                **{
                    key: round(getattr(query_stats, key), 6)
                    for key in QUERY_PHASE_KEYS
                },
            }
            if outcome.result == Result.UNKNOWN:
                attrs["unknown_cause"] = outcome.unknown_cause
            tracer.leaf(
                "query", outcome.result.value, start, start + elapsed, attrs
            )
        return outcome.result, outcome.model

    def _solve(
        self,
        plugin: LazyTheoryPlugin | None,
        terms: list[Term],
        want_model: bool,
    ) -> QueryOutcome:
        """Answer one query, on a shared engine or a fresh solver.

        The query chain a checker emits (the same invariant under arm
        1, arms 1-2, arms 1-2-3, ...) runs on one persistent engine per
        encoding context, sharing its Tseitin encoding, plugin axioms,
        theory lemmas and CDCL-learned clauses: the longest common
        prefix of the assertion stack is kept, the stale suffix popped,
        the new suffix pushed one frame per assertion.  Only work is
        shared, never verdicts.

        A query that needs a model gets a fresh solver instead: a
        shared engine's SAT models depend on search state inherited
        from earlier queries, while a fresh solve's model depends on
        the query alone, so the counterexample the user sees is the
        same however earlier queries went.  It never consults the query
        cache, which keeps verdicts only.  A query with no axiom context
        has nothing to persist against and is solved fresh as well.
        """
        if plugin is None or want_model:
            solver = Solver(
                plugin,
                cache=None if want_model else self.cache,
                time_budget=self.budget,
            )
            return solve_fresh(solver, terms, want_model)
        engine = self._engine_for(plugin)
        solver = engine.solver
        stack = engine.stack
        prefix = 0
        limit = min(len(stack), len(terms))
        while prefix < limit and stack[prefix] is terms[prefix]:
            prefix += 1
        while len(stack) > prefix:
            solver.pop()
            stack.pop()
        for term in terms[prefix:]:
            solver.push()
            solver.add(term)
            stack.append(term)
        before = solver.stats.snapshot()
        result = solver.check()
        return QueryOutcome(
            result,
            None,
            solver.stats.delta(before),
            solver.last_depth,
            solver.last_unknown_cause,
        )

    def _engine_for(self, plugin: LazyTheoryPlugin) -> _Engine:
        key = id(plugin)
        engine = self._engines.get(key)
        if engine is not None and engine.plugin is plugin:
            self._engines.move_to_end(key)
            return engine
        engine = _Engine(
            plugin, Solver(plugin, cache=self.cache, time_budget=self.budget)
        )
        self._engines[key] = engine
        while len(self._engines) > self.MAX_ENGINES:
            self._engines.popitem(last=False)
        return engine
