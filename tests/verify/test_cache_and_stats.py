"""Verifier-level tests for the query cache, solver stats, budget
threading, and the path-condition re-binding fix."""

from repro import api
from repro.errors import WarningKind
from repro.metrics.solver_stats import format_stats
from repro.smt import SolverCache
from repro.smt.solver import Solver

from .test_exhaustiveness import NAT_PRELUDE
from .tier_oracle import smt_only


def compile_(source):
    return api.compile_program(source)


def warning_strings(report):
    return [str(w) for w in report.diagnostics.warnings]


#: a program with both a redundant arm and a nonexhaustive switch, so
#: parity checks cover counterexample rendering too; a path condition
#: in scope leaves the nonexhaustive switch to SMT, whose model renders
#: its counterexample
WARNY_SOURCE = NAT_PRELUDE + """
static int observe(Nat n) {
  switch (n) {
    case succ(Nat p): return 1;
    case succ(succ(Nat pp)): return 2;
    case zero(): return 0;
  }
}
static int partial(Nat n, int k) {
  if (k > 0) {
    switch (n) {
      case succ(Nat p): return 1;
    }
  }
  return 0;
}
"""


class TestCacheParity:
    def test_cached_passes_report_identical_warnings(self):
        # Same unit verified three times: cold cache, warm cache, and
        # no cache.  Warnings -- including counterexample text -- must
        # be byte-identical regardless of where verdicts came from.
        unit = compile_(WARNY_SOURCE)
        cache = SolverCache()
        cold = api.verify(unit, options=api.VerifyOptions(cache=cache))
        warm = api.verify(unit, options=api.VerifyOptions(cache=cache))
        plain = api.verify(unit, options=api.VerifyOptions(cache=None))
        assert warning_strings(cold) == warning_strings(warm)
        assert warning_strings(warm) == warning_strings(plain)
        assert cache.hits > 0

    def test_uncached_run_records_no_cache_traffic(self, monkeypatch):
        # The default run consults no query cache, and the report has
        # no cache counters (schema 7).
        lookups = []
        monkeypatch.setattr(SolverCache, "lookup", lookups.append)
        unit = compile_(WARNY_SOURCE)
        report = api.verify(unit)
        assert report.solver_stats.total.queries > 0
        assert not lookups
        total = report.to_dict()["solver_stats"]["total"]
        assert not [key for key in total if key.startswith("cache")]


class TestSolverStatsSurfaced:
    def test_report_carries_per_method_stats(self):
        unit = compile_(WARNY_SOURCE)
        report = api.verify(
            unit, options=api.VerifyOptions(cache=SolverCache())
        )
        stats = report.solver_stats
        assert stats is not None
        assert stats.total.queries > 0
        assert stats.total.seconds > 0.0
        # observe's switch is discharged by the pattern algebra (no
        # queries); partial's non-exhaustive switch has a path condition
        # in scope, so SMT decides it and it records queries.
        assert any("partial" in label for label in stats.per_method)
        with smt_only():
            smt = api.verify(
                unit, options=api.VerifyOptions(cache=SolverCache())
            )
        assert any("observe" in label for label in smt.solver_stats.per_method)
        # Verdict tallies are consistent with the query count.
        total = stats.total
        assert total.sat + total.unsat + total.unknown == total.queries

    def test_format_table_mentions_methods(self):
        unit = compile_(WARNY_SOURCE)
        cache = SolverCache()
        # smt_only so observe's (algebra-dischargeable) switch still
        # reaches the solver and earns a per-method row.
        with smt_only():
            api.verify(unit, options=api.VerifyOptions(cache=cache))
            report = api.verify(unit, options=api.VerifyOptions(cache=cache))
        table = format_stats(report.solver_stats.to_dict())
        assert "observe" in table
        assert "total" in table
        assert "replayed" in table
        assert "cache" not in table and "hits" not in table

    def test_conflict_core_literals_are_counted(self):
        # The lists group runs into theory conflicts, each core there
        # has at least two literals, and --stats and the JSON report
        # both show the total.
        from repro.corpus import combined_programs

        report = api.verify(
            compile_(combined_programs()["lists"]),
            options=api.VerifyOptions(cache=SolverCache()),
        )
        total = report.solver_stats.total
        assert total.theory_conflicts > 0
        assert total.theory_core_lits >= 2 * total.theory_conflicts
        assert total.to_dict()["theory_core_lits"] == total.theory_core_lits
        table = format_stats(report.solver_stats.to_dict())
        assert (
            f"theory conflicts: {total.theory_conflicts} "
            f"({total.theory_core_lits} core literals)" in table
        )


class TestBudgetThreading:
    def test_budget_is_per_run_not_global(self):
        # Regression: the CLI used to assign Solver.TIME_BUDGET, so one
        # run's --budget leaked into every later solver in the process.
        unit = compile_(NAT_PRELUDE + """
        static int f(Nat n) {
          switch (n) {
            case zero(): return 0;
            case succ(Nat p): return 1;
          }
        }
        """)
        before = Solver.TIME_BUDGET
        starved = api.verify(
            unit, options=api.VerifyOptions(budget=0.0, cache=None)
        )
        assert Solver.TIME_BUDGET == before
        assert starved.of_kind(WarningKind.UNKNOWN)
        # A later default-budget run is unaffected by the starved one.
        normal = api.verify(unit, options=api.VerifyOptions(cache=None))
        assert not normal.of_kind(WarningKind.UNKNOWN)
        assert not normal.of_kind(WarningKind.NONEXHAUSTIVE)


class TestPathConditionRebinding:
    def test_rebinding_unrelated_variable_keeps_path(self):
        # Regression: assigning to *any* variable used to drop *every*
        # path condition, so the k >= 0 guard was forgotten and the
        # let reported as possibly failing.
        source = NAT_PRELUDE + """
        static ZNat f(int k, int y) {
          cond {
            (k >= 0) { y = 5; let ZNat z = ZNat(k); return z; }
            else return ZNat(0);
          }
        }
        """
        report = api.verify(
            compile_(source), options=api.VerifyOptions(cache=None)
        )
        assert not report.of_kind(WarningKind.LET_MAY_FAIL)

    def test_rebinding_guarded_variable_drops_path(self):
        # Assigning to the variable the guard mentions must still
        # invalidate it: after k = k - 2 the guard k >= 0 is stale.
        source = NAT_PRELUDE + """
        static ZNat g(int k) {
          cond {
            (k >= 0) { k = k - 2; let ZNat z = ZNat(k); return z; }
            else return ZNat(0);
          }
        }
        """
        report = api.verify(
            compile_(source), options=api.VerifyOptions(cache=None)
        )
        assert report.of_kind(WarningKind.LET_MAY_FAIL)


class TestCacheTierAttribution:
    """Cold → store-warm → memory-warm, with each task's work attributed
    to exactly one tier.

    A task is either replayed from the ``cache_dir`` store (counted in
    ``tasks_replayed``, no query runs) or run, its queries answered by
    the in-memory query cache or solved.  A replay must not touch the
    query cache, and the report of a replay has the warnings of the run
    it replays but none of its queries.
    """

    def test_three_runs_attribute_hits_to_exactly_one_tier(
        self, tmp_path, monkeypatch
    ):
        from repro.verify.verifier import iter_tasks

        unit = compile_(WARNY_SOURCE)
        tasks = len(list(iter_tasks(unit.table)))
        store_dir = str(tmp_path / "outcomes")
        # one entry per check: True when it ran without a cache (a model query)
        checks = []
        real_check = Solver.check

        def counting(solver):
            checks.append(solver.cache is None)
            return real_check(solver)

        monkeypatch.setattr(Solver, "check", counting)

        # Run 1 (cold): an empty store and an empty query cache.
        cold_cache = SolverCache()
        cold = api.verify(
            unit,
            options=api.VerifyOptions(cache=cold_cache, cache_dir=store_dir),
        )
        assert cold.tasks_replayed == 0
        assert cold_cache.hits == 0
        assert cold_cache.misses > 0
        assert len(checks) == cold.solver_stats.total.queries

        # Run 2 (store-warm): a fresh SolverCache models a new process;
        # every task replays and the query cache is never consulted.
        checks.clear()
        warm_cache = SolverCache()
        store_warm = api.verify(
            unit,
            options=api.VerifyOptions(cache=warm_cache, cache_dir=store_dir),
        )
        assert store_warm.tasks_replayed == tasks
        assert not checks
        assert warm_cache.hits == warm_cache.misses == 0
        assert store_warm.solver_stats.total.queries == 0
        assert store_warm.solver_stats.per_method == {}

        # Run 3 (memory-warm): the cold run's query cache, no store;
        # every task runs and its queries hit memory.
        cold_lookups = cold_cache.hits + cold_cache.misses
        memory_warm = api.verify(
            unit, options=api.VerifyOptions(cache=cold_cache)
        )
        total = memory_warm.solver_stats.total
        assert memory_warm.tasks_replayed == 0
        assert len(checks) == total.queries
        assert cold_cache.hits > 0
        # Model queries never consult the cache; every other query
        # either hits or misses.
        model_queries = sum(checks)
        assert model_queries > 0
        assert (
            cold_cache.hits + cold_cache.misses - cold_lookups
            == total.queries - model_queries
        )

        # And the warnings never depend on which tier answered.
        baseline = api.verify(unit, options=api.VerifyOptions(cache=None))
        for report in (cold, store_warm, memory_warm):
            assert warning_strings(report) == warning_strings(baseline)


def test_model_query_never_consults_the_cache():
    from repro.obs import Tracer
    from repro.smt import INT, mk_eq, mk_int, mk_var
    from repro.verify.solving import SolverSession

    cache = SolverCache()
    tracer = Tracer()
    session = SolverSession(cache=cache, tracer=tracer)
    x = mk_var("model_query_x", INT)
    for _ in range(2):
        outcome = session.check(
            None, [mk_eq(x, mk_int(7))], want_model=True
        )
        assert outcome.result.value == "sat" and outcome.model is not None
    spans = [span for span in tracer.roots if span.kind == "query"]
    assert len(spans) == 2
    assert cache.hits == cache.misses == cache.stores == 0
    # The same query without a model consults the cache.
    session.check(None, [mk_eq(x, mk_int(7))])
    assert cache.misses == 1 and cache.stores == 1
