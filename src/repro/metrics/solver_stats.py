"""Aggregated solver instrumentation for one verification run.

The verifier discharges many SMT queries per method; this module rolls
their per-query measurements (wall time, SAT rounds, theory conflicts
and their core sizes, axioms asserted, deepening passes, cache
hits/misses, verdict counts) up into per-method
and whole-run totals.  The aggregate is surfaced on
:class:`repro.verify.VerificationReport` and rendered by
``repro.cli verify --stats``.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class QueryStats:
    """Rolled-up measurements over a group of solver queries."""

    queries: int = 0
    seconds: float = 0.0
    sat: int = 0
    unsat: int = 0
    unknown: int = 0
    sat_rounds: int = 0
    theory_conflicts: int = 0
    #: literals across the conflicts' explained cores (see SolverStats)
    theory_core_lits: int = 0
    axioms_asserted: int = 0
    deepening_passes: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: cache_hits split by answering tier (memory LRU vs. disk); a disk
    #: hit promoted into memory counts as disk for that query, so the
    #: two always sum to cache_hits
    cache_memory_hits: int = 0
    cache_disk_hits: int = 0
    # phase timers (seconds); see SolverStats in repro.smt.solver
    encode_s: float = 0.0
    sat_s: float = 0.0
    expand_s: float = 0.0
    theory_s: float = 0.0
    validate_s: float = 0.0

    def add_query(self, verdict: str, seconds: float, solver_stats) -> None:
        """Fold in one query's verdict, wall time, and SolverStats."""
        self.queries += 1
        self.seconds += seconds
        if verdict == "sat":
            self.sat += 1
        elif verdict == "unsat":
            self.unsat += 1
        else:
            self.unknown += 1
        self.sat_rounds += solver_stats.sat_rounds
        self.theory_conflicts += solver_stats.theory_conflicts
        self.theory_core_lits += solver_stats.theory_core_lits
        self.axioms_asserted += solver_stats.axioms_asserted
        self.deepening_passes += solver_stats.deepening_passes
        self.cache_hits += solver_stats.cache_hits
        self.cache_misses += solver_stats.cache_misses
        self.cache_memory_hits += getattr(solver_stats, "cache_memory_hits", 0)
        self.cache_disk_hits += getattr(solver_stats, "cache_disk_hits", 0)
        for phase in ("encode_s", "sat_s", "expand_s", "theory_s", "validate_s"):
            setattr(
                self, phase, getattr(self, phase) + getattr(solver_stats, phase, 0.0)
            )

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def to_dict(self) -> dict:
        """The counters as a JSON-ready structure (``--format json``)."""
        return {
            "queries": self.queries,
            "seconds": self.seconds,
            "sat": self.sat,
            "unsat": self.unsat,
            "unknown": self.unknown,
            "sat_rounds": self.sat_rounds,
            "theory_conflicts": self.theory_conflicts,
            "theory_core_lits": self.theory_core_lits,
            "axioms_asserted": self.axioms_asserted,
            "deepening_passes": self.deepening_passes,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_memory_hits": self.cache_memory_hits,
            "cache_disk_hits": self.cache_disk_hits,
            "cache_hit_rate": self.cache_hit_rate,
            "encode_s": self.encode_s,
            "sat_s": self.sat_s,
            "expand_s": self.expand_s,
            "theory_s": self.theory_s,
            "validate_s": self.validate_s,
        }

    def merge(self, other: "QueryStats") -> None:
        """Fold another group's counters into this one."""
        self.queries += other.queries
        self.seconds += other.seconds
        self.sat += other.sat
        self.unsat += other.unsat
        self.unknown += other.unknown
        self.sat_rounds += other.sat_rounds
        self.theory_conflicts += other.theory_conflicts
        self.theory_core_lits += other.theory_core_lits
        self.axioms_asserted += other.axioms_asserted
        self.deepening_passes += other.deepening_passes
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.cache_memory_hits += other.cache_memory_hits
        self.cache_disk_hits += other.cache_disk_hits
        self.encode_s += other.encode_s
        self.sat_s += other.sat_s
        self.expand_s += other.expand_s
        self.theory_s += other.theory_s
        self.validate_s += other.validate_s


@dataclass
class VerifyStats:
    """Per-method and total query statistics for a verification run."""

    per_method: dict[str, QueryStats] = field(default_factory=dict)
    total: QueryStats = field(default_factory=QueryStats)
    # -- pipeline fault-tolerance accounting (repro.verify.parallel) --
    #: task re-executions after a worker crash/failure (pool retry
    #: round plus in-process serial fallback runs)
    tasks_retried: int = 0
    #: obligations cut off by the per-task deadline and warned UNKNOWN
    tasks_timed_out: int = 0
    #: obligations degraded to UNKNOWN after exhausting every retry
    tasks_failed: int = 0
    #: tasks whose per-task deadline could not arm (no SIGALRM off the
    #: main thread) and ran under the soft-deadline fallback instead:
    #: clamped per-query budget plus post-hoc overrun conversion
    deadlines_degraded: int = 0
    # -- checker tiering (repro.verify.tiered) ------------------------
    #: obligations the syntactic pattern-algebra tier decided without an
    #: SMT query (under ``tier=check`` they are decided *and* re-proved
    #: by SMT, and still counted here as algebra coverage)
    algebra_discharged: int = 0
    #: switch statements the algebra analyzed but handed to SMT anyway
    #: (non-exhaustive matches fall through so the counterexample comes
    #: from the model, byte-identical to an smt-only run)
    algebra_fallbacks: int = 0
    #: ``tier=check`` disagreements between the two tiers (always 0 on a
    #: healthy build; ``api.verify`` raises TierMismatchError when not)
    tier_mismatches: int = 0
    #: how the run's driver was chosen — serial or a pool, and why
    #: (task count vs. thresholds, batch size); set by the dispatcher,
    #: empty for direct Verifier runs
    parallel_decision: str = ""

    def record(
        self,
        method: str,
        verdict: str,
        seconds: float,
        solver_stats,
    ) -> None:
        self.per_method.setdefault(method, QueryStats()).add_query(
            verdict, seconds, solver_stats
        )
        self.total.add_query(verdict, seconds, solver_stats)

    def merge(self, other: "VerifyStats") -> None:
        """Fold another run's statistics into this one.

        Used by the parallel verification engine to combine the
        per-task ``VerifyStats`` coming back from worker processes into
        one whole-run aggregate.  Method rows are merged by label (a
        method verified in two parts contributes one combined row), and
        the grand total is re-accumulated, so a merged aggregate is
        indistinguishable from one recorded serially.
        """
        for name, stats in other.per_method.items():
            self.per_method.setdefault(name, QueryStats()).merge(stats)
        self.total.merge(other.total)
        self.tasks_retried += other.tasks_retried
        self.tasks_timed_out += other.tasks_timed_out
        self.tasks_failed += other.tasks_failed
        self.deadlines_degraded += other.deadlines_degraded
        self.algebra_discharged += other.algebra_discharged
        self.algebra_fallbacks += other.algebra_fallbacks
        self.tier_mismatches += other.tier_mismatches
        # The decision is a whole-run fact the dispatcher sets once;
        # per-task stats merged in never carry one.
        if not self.parallel_decision:
            self.parallel_decision = other.parallel_decision

    def to_dict(self) -> dict:
        """The aggregate as a JSON-ready structure (``--format json``).

        ``per_method`` is keyed and ordered by method label (the same
        ordering ``--stats`` prints), so two runs that did the same
        work serialize identically whatever order recorded them.
        """
        return {
            "total": self.total.to_dict(),
            "per_method": {
                name: self.per_method[name].to_dict()
                for name in sorted(self.per_method)
            },
            "tasks_retried": self.tasks_retried,
            "tasks_timed_out": self.tasks_timed_out,
            "tasks_failed": self.tasks_failed,
            "deadlines_degraded": self.deadlines_degraded,
            "algebra_discharged": self.algebra_discharged,
            "algebra_fallbacks": self.algebra_fallbacks,
            "tier_mismatches": self.tier_mismatches,
            "parallel_decision": self.parallel_decision,
        }

    def format_table(self) -> str:
        """The ``--stats`` table: one row per method plus totals."""
        header = (
            f"{'method':<40}{'queries':>8}{'sat':>6}{'unsat':>7}{'unk':>5}"
            f"{'time(s)':>9}{'rounds':>8}{'axioms':>8}{'deepen':>8}"
            f"{'hits':>6}{'miss':>6}"
        )
        lines = [header, "-" * len(header)]
        for name in sorted(self.per_method):
            stats = self.per_method[name]
            label = name if len(name) <= 39 else name[:36] + "..."
            lines.append(
                f"{label:<40}{stats.queries:>8}{stats.sat:>6}"
                f"{stats.unsat:>7}{stats.unknown:>5}{stats.seconds:>9.3f}"
                f"{stats.sat_rounds:>8}{stats.axioms_asserted:>8}"
                f"{stats.deepening_passes:>8}{stats.cache_hits:>6}"
                f"{stats.cache_misses:>6}"
            )
        lines.append("-" * len(header))
        t = self.total
        lines.append(
            f"{'total':<40}{t.queries:>8}{t.sat:>6}{t.unsat:>7}{t.unknown:>5}"
            f"{t.seconds:>9.3f}{t.sat_rounds:>8}{t.axioms_asserted:>8}"
            f"{t.deepening_passes:>8}{t.cache_hits:>6}{t.cache_misses:>6}"
        )
        lines.append(
            f"theory conflicts: {t.theory_conflicts} "
            f"({t.theory_core_lits} core literals)"
        )
        lines.append(
            f"cache hit rate: {t.cache_hit_rate:.1%} "
            f"({t.cache_hits}/{t.cache_hits + t.cache_misses}; "
            f"{t.cache_memory_hits} memory, {t.cache_disk_hits} disk)"
        )
        lines.append(
            f"tasks: {self.tasks_retried} retried, "
            f"{self.tasks_timed_out} timed out, {self.tasks_failed} failed"
        )
        if self.deadlines_degraded:
            lines.append(
                f"deadlines: {self.deadlines_degraded} task(s) ran with a "
                f"soft deadline (SIGALRM unavailable off the main thread)"
            )
        lines.append(
            f"tiers: {self.algebra_discharged} obligations discharged by "
            f"the pattern algebra, {self.algebra_fallbacks} fell back to "
            f"SMT, {self.tier_mismatches} mismatches"
        )
        if self.parallel_decision:
            lines.append(f"jobs: {self.parallel_decision}")
        return "\n".join(lines)

    def format_profile(self) -> str:
        """The ``--profile`` table: per-method solver phase timers."""
        header = (
            f"{'method':<40}{'time(s)':>9}{'encode':>9}{'sat':>9}"
            f"{'expand':>9}{'theory':>9}{'validate':>9}"
        )
        lines = [header, "-" * len(header)]

        def row(label: str, stats: QueryStats) -> str:
            return (
                f"{label:<40}{stats.seconds:>9.3f}{stats.encode_s:>9.3f}"
                f"{stats.sat_s:>9.3f}{stats.expand_s:>9.3f}"
                f"{stats.theory_s:>9.3f}{stats.validate_s:>9.3f}"
            )

        for name in sorted(self.per_method):
            stats = self.per_method[name]
            label = name if len(name) <= 39 else name[:36] + "..."
            lines.append(row(label, stats))
        lines.append("-" * len(header))
        lines.append(row("total", self.total))
        solver_time = (
            self.total.encode_s + self.total.sat_s + self.total.expand_s
            + self.total.theory_s + self.total.validate_s
        )
        lines.append(
            f"solver phases cover {solver_time:.3f}s of "
            f"{self.total.seconds:.3f}s query wall time"
        )
        return "\n".join(lines)
