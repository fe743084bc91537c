"""The formal solver-backend seam: one protocol, a few engines.

This module defines the :class:`SolverBackend` protocol every solving
strategy implements and a registry the rest of the pipeline
(``VerifyOptions.backend`` / ``verify --backend``) resolves names
against.  One run uses exactly one backend:

* :class:`IncrementalBackend` — the default: one persistent engine per
  encoding context (plugin), diffing each query against the engine's
  assertion stack via :meth:`~IncrementalBackend.push` /
  :meth:`~IncrementalBackend.pop`.
* :class:`ReferenceBackend` — the from-scratch engine: a fresh
  rebuild-per-query :class:`~repro.smt.solver.Solver` per obligation.
  Its models are canonical by construction; the incremental engine
  defers model production to the same single-query solve, so
  counterexamples are byte-identical across backends.  It is the
  differential oracle the parity tests compare against.
* ``Z3Backend`` (:mod:`repro.smt.z3backend`) — optional, guarded
  import of z3py; registered lazily and reported unavailable when the
  wheel is absent.  A second parity oracle.

Protocol contract
-----------------

``check(plugin, terms, want_model)`` receives the obligation's *full*
assertion stack (the checkers re-send the growing prefix chain each
query); how much of it is re-solved is the backend's business.  The
returned :class:`CheckOutcome` carries the verdict, the model (only
when ``want_model`` and SAT), a :class:`~repro.smt.solver.SolverStats`
delta covering exactly this query, and the cache tier and deepening
depth the query reached.

Budget hooks: backends honor ``self.budget`` (seconds per query) via
the cooperative :mod:`repro.smt.budget` checkpoints.

Third-party backends subclass :class:`SolverBackend` and call
:func:`register_backend`; :mod:`repro.api` re-exports the registry so
this never requires touching internals.
"""

from __future__ import annotations

import importlib
from collections import OrderedDict

from .cache import GLOBAL_CACHE, SolverCache
from .plugin import LazyTheoryPlugin
from .solver import Result, Solver, SolverStats
from .terms import Term
from .theory import TheoryModel


class BackendUnavailable(RuntimeError):
    """The requested backend cannot run in this environment."""


class CheckOutcome:
    """What one backend check produced, for recording and tracing."""

    __slots__ = ("result", "model", "stats", "cache_tier", "depth")

    def __init__(
        self,
        result: Result,
        model: TheoryModel | None,
        stats: SolverStats,
        cache_tier: str | None = None,
        depth: int | None = None,
    ):
        self.result = result
        self.model = model
        self.stats = stats
        self.cache_tier = cache_tier
        self.depth = depth


class SolverBackend:
    """One solving strategy behind the uniform ``check`` seam."""

    #: registry name; subclasses must override
    name = "abstract"

    def __init__(
        self,
        budget: float | None = None,
        cache: SolverCache | None = GLOBAL_CACHE,
    ):
        self.budget = budget
        self.cache = cache

    @classmethod
    def available(cls) -> bool:
        """Can this backend run here?  Cheap, import-guarded."""
        return True

    def check(
        self,
        plugin: LazyTheoryPlugin | None,
        terms: list[Term],
        want_model: bool = False,
    ) -> CheckOutcome:
        raise NotImplementedError

    def reset(self) -> None:
        """Drop any persistent state (engines)."""


class ReferenceBackend(SolverBackend):
    """Rebuild-per-query solving: the canonical, model-producing engine."""

    name = "reference"

    def check(self, plugin, terms, want_model=False):
        solver = Solver(
            plugin,
            cache=self.cache,
            time_budget=self.budget,
            incremental=False,
            need_model=want_model,
        )
        for term in terms:
            solver.add(term)
        result = solver.check()
        model = (
            solver.model() if want_model and result == Result.SAT else None
        )
        return CheckOutcome(
            result,
            model,
            solver.stats,
            solver.last_cache_tier,
            solver.last_depth,
        )


class _Engine:
    """A persistent incremental solver plus its raw assertion stack."""

    __slots__ = ("plugin", "solver", "stack")

    def __init__(self, plugin: LazyTheoryPlugin, solver: Solver):
        self.plugin = plugin
        self.solver = solver
        self.stack: list[Term] = []


class IncrementalBackend(SolverBackend):
    """One persistent engine per encoding context, diffed per query.

    The query chain a checker emits (the same invariant under arm 1,
    arms 1-2, arms 1-2-3, ...) shares its Tseitin encoding, plugin
    axioms, theory lemmas, and CDCL-learned clauses instead of
    rebuilding them from scratch per query: the longest common prefix
    of the assertion stack is kept, the stale suffix popped, the new
    suffix pushed one frame per assertion.  Verdicts are unaffected —
    only work is shared — with one deliberate exception: a shared
    engine's SAT *models* depend on inherited search state, so a query
    that needs a model bypasses the engine and is answered by the
    canonical fresh single-query solve (see :meth:`_model_query`).
    """

    name = "incremental"

    #: engines kept alive at once; checkers use one context per
    #: statement, so a tiny LRU covers the live chain plus stragglers
    MAX_ENGINES = 4

    def __init__(self, budget=None, cache=GLOBAL_CACHE):
        super().__init__(budget, cache)
        self._engines: OrderedDict[int, _Engine] = OrderedDict()

    def reset(self) -> None:
        self._engines.clear()

    def check(self, plugin, terms, want_model=False):
        if plugin is None:
            # No axiom context to persist against: a fresh incremental
            # solver per query, as SolverSession always did.
            solver = Solver(
                plugin,
                cache=self.cache,
                time_budget=self.budget,
                incremental=True,
                need_model=want_model,
            )
            for term in terms:
                solver.add(term)
            result = solver.check()
            model = (
                solver.model()
                if want_model and result == Result.SAT
                else None
            )
            return CheckOutcome(
                result,
                model,
                solver.stats,
                solver.last_cache_tier,
                solver.last_depth,
            )
        if want_model:
            return self._model_query(plugin, terms)
        engine = self._engine_for(plugin)
        stack = engine.stack
        prefix = 0
        limit = min(len(stack), len(terms))
        while prefix < limit and stack[prefix] is terms[prefix]:
            prefix += 1
        while len(stack) > prefix:
            self.pop(plugin)
        for term in terms[prefix:]:
            self.push(plugin, term)
        solver = engine.solver
        before = solver.stats.snapshot()
        result = solver.check()
        return CheckOutcome(
            result,
            None,
            solver.stats.delta(before),
            solver.last_cache_tier,
            solver.last_depth,
        )

    # -- incremental surface ---------------------------------------------

    def push(self, plugin, term):
        engine = self._engine_for(plugin)
        engine.solver.push()
        engine.solver.add(term)
        engine.stack.append(term)

    def pop(self, plugin):
        engine = self._engine_for(plugin)
        engine.solver.pop()
        engine.stack.pop()

    def _engine_for(self, plugin) -> _Engine:
        key = id(plugin)
        engine = self._engines.get(key)
        if engine is not None and engine.plugin is plugin:
            self._engines.move_to_end(key)
            return engine
        engine = _Engine(
            plugin,
            Solver(
                plugin,
                cache=self.cache,
                time_budget=self.budget,
                store_models=False,
            ),
        )
        self._engines[key] = engine
        while len(self._engines) > self.MAX_ENGINES:
            self._engines.popitem(last=False)
        return engine

    def _model_query(self, plugin, terms):
        """Verdict *and* model from a fresh single-query solve.

        Uses the cache with ``need_model`` set, so a shared engine's
        verdict-only entry cannot short-circuit it (a SAT hit without a
        model snapshot counts as a miss and the fresh solve runs); the
        canonical model it produces is then cached.  Counterexamples
        rendered from the result — solved fresh or decoded from the
        cache — are byte-identical to the reference engine's.
        """
        solver = Solver(
            plugin,
            cache=self.cache,
            time_budget=self.budget,
            incremental=False,
            need_model=True,
        )
        for term in terms:
            solver.add(term)
        result = solver.check()
        model = solver.model() if result == Result.SAT else None
        return CheckOutcome(
            result,
            model,
            solver.stats,
            solver.last_cache_tier,
            solver.last_depth,
        )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

#: name -> backend class, or a (module, attribute) pair resolved on
#: first use so optional backends (z3) never cost an import here
_REGISTRY: dict[str, object] = {}


def register_backend(name: str, backend: type[SolverBackend]) -> None:
    """Register a backend class under a ``--backend`` name."""
    _REGISTRY[name] = backend


def register_lazy_backend(name: str, module: str, attribute: str) -> None:
    _REGISTRY.setdefault(name, (module, attribute))


def _resolve(name: str) -> type[SolverBackend]:
    try:
        entry = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; registered: "
            f"{', '.join(sorted(_REGISTRY))}"
        ) from None
    if isinstance(entry, tuple):
        module, attribute = entry
        entry = getattr(importlib.import_module(module), attribute)
        _REGISTRY[name] = entry
    return entry


def backend_names() -> tuple[str, ...]:
    """Every registered name, available here or not."""
    return tuple(sorted(_REGISTRY))


def backend_available(name: str) -> bool:
    return _resolve(name).available()


def available_backends() -> tuple[str, ...]:
    """The registered names that can actually run in this environment."""
    return tuple(n for n in backend_names() if _resolve(n).available())


def create_backend(
    name: str,
    *,
    budget: float | None = None,
    cache: SolverCache | None = GLOBAL_CACHE,
) -> SolverBackend:
    cls = _resolve(name)
    if not cls.available():
        raise BackendUnavailable(
            f"backend {name!r} is not available in this environment"
        )
    return cls(budget=budget, cache=cache)


register_backend(ReferenceBackend.name, ReferenceBackend)
register_backend(IncrementalBackend.name, IncrementalBackend)
register_lazy_backend("z3", "repro.smt.z3backend", "Z3Backend")
