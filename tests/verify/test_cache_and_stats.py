"""Verifier-level tests for the query cache, solver stats, budget
threading, and the path-condition re-binding fix."""

from repro import api
from repro.errors import WarningKind
from repro.smt import SolverCache
from repro.smt.solver import Solver

from .test_exhaustiveness import NAT_PRELUDE


def compile_(source):
    return api.compile_program(source)


def warning_strings(report):
    return [str(w) for w in report.diagnostics.warnings]


#: a program with both a redundant arm and a nonexhaustive switch, so
#: parity checks cover counterexample rendering too
WARNY_SOURCE = NAT_PRELUDE + """
static int observe(Nat n) {
  switch (n) {
    case succ(Nat p): return 1;
    case succ(succ(Nat pp)): return 2;
    case zero(): return 0;
  }
}
static int partial(Nat n) {
  switch (n) {
    case succ(Nat p): return 1;
  }
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
        assert warm.solver_stats.total.cache_hits > 0

    def test_uncached_run_records_no_cache_traffic(self):
        unit = compile_(WARNY_SOURCE)
        report = api.verify(unit, options=api.VerifyOptions(cache=None))
        assert report.solver_stats.total.cache_hits == 0
        assert report.solver_stats.total.cache_misses == 0


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
        # observe's switch is discharged by the pattern-algebra tier
        # (no queries), but partial's non-exhaustive switch falls back
        # to SMT for its model counterexample, so it records queries.
        assert any("partial" in label for label in stats.per_method)
        smt_only = api.verify(
            unit,
            options=api.VerifyOptions(cache=SolverCache(), tier="smt-only"),
        )
        assert any("observe" in label for label in smt_only.solver_stats.per_method)
        # Verdict tallies are consistent with the query count.
        total = stats.total
        assert total.sat + total.unsat + total.unknown == total.queries

    def test_format_table_mentions_methods_and_hit_rate(self):
        unit = compile_(WARNY_SOURCE)
        cache = SolverCache()
        # smt-only so observe's (algebra-dischargeable) switch still
        # reaches the solver and earns a per-method row.
        api.verify(
            unit, options=api.VerifyOptions(cache=cache, tier="smt-only")
        )
        report = api.verify(
            unit, options=api.VerifyOptions(cache=cache, tier="smt-only")
        )
        table = report.solver_stats.format_table()
        assert "observe" in table
        assert "cache hit rate" in table
        assert "total" in table

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
        table = report.solver_stats.format_table()
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
    """Cold → disk-warm → memory-warm, with every hit attributed to
    exactly one tier.

    Regression target: a disk hit promotes the entry into the in-memory
    tier, and that promotion must not double-count the lookup as a
    memory hit too.
    """

    def test_three_runs_attribute_hits_to_exactly_one_tier(self, tmp_path):
        from repro.smt.diskcache import DiskCache

        unit = compile_(WARNY_SOURCE)
        disk_dir = tmp_path / "verdicts"

        # Run 1 (cold): empty memory, empty disk — misses only.
        cold_cache = SolverCache(disk=DiskCache(disk_dir))
        cold = api.verify(
            unit, options=api.VerifyOptions(cache=cold_cache)
        ).solver_stats.total
        assert cold.cache_hits == 0
        assert cold.cache_memory_hits == 0
        assert cold.cache_disk_hits == 0
        assert cold.cache_misses > 0

        # Run 2 (disk-warm): a fresh SolverCache over the same disk dir
        # models a new process — every hit must come from disk, and the
        # promotion into memory must not count as a memory hit.
        warm_cache = SolverCache(disk=DiskCache(disk_dir))
        disk_warm = api.verify(
            unit, options=api.VerifyOptions(cache=warm_cache)
        ).solver_stats.total
        assert disk_warm.cache_disk_hits > 0
        assert disk_warm.cache_memory_hits == 0

        # Run 3 (memory-warm): same cache object again — the promoted
        # entries now answer from memory, never touching the disk.
        memory_warm = api.verify(
            unit, options=api.VerifyOptions(cache=warm_cache)
        ).solver_stats.total
        assert memory_warm.cache_memory_hits > 0
        assert memory_warm.cache_disk_hits == 0

        # Invariant across all three runs: the tiers partition the hits.
        for total in (cold, disk_warm, memory_warm):
            assert (
                total.cache_memory_hits + total.cache_disk_hits
                == total.cache_hits
            )

        # And the warnings never depend on which tier answered.
        for report_cache in (SolverCache(disk=DiskCache(disk_dir)),):
            rerun = api.verify(
                unit, options=api.VerifyOptions(cache=report_cache)
            )
            baseline = api.verify(unit, options=api.VerifyOptions(cache=None))
            assert warning_strings(rerun) == warning_strings(baseline)
