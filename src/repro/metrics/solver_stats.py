"""Aggregated solver instrumentation for one verification run.

The verifier discharges many SMT queries per method; this module rolls
their per-query measurements (wall time, SAT rounds, theory conflicts
and their core sizes, axioms asserted, deepening passes, verdict
counts) up into per-method and whole-run totals.  The aggregate is surfaced on
:class:`repro.verify.VerificationReport`; :func:`format_stats` renders
its document form as ``repro.cli verify --stats``.  The solver phase
timers are not rolled up here: they live on each ``query`` trace span,
and ``--profile`` renders them from the trace
(:func:`repro.obs.format_profiles`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


def _from_solver():
    """A counter summed from the same-named ``SolverStats`` field."""
    return field(default=0, metadata={"from_solver": True})


@dataclass
class QueryStats:
    """Rolled-up measurements over a group of solver queries.

    Every field is a summable counter, and the instance ``__dict__``
    holds exactly the fields in declaration order: :meth:`to_dict` and
    :meth:`merge` walk it instead of naming each counter.
    """

    queries: int = 0
    seconds: float = 0.0
    sat: int = 0
    unsat: int = 0
    unknown: int = 0
    sat_rounds: int = _from_solver()
    theory_conflicts: int = _from_solver()
    #: literals across the conflicts' explained cores (see SolverStats)
    theory_core_lits: int = _from_solver()
    axioms_asserted: int = _from_solver()
    deepening_passes: int = _from_solver()

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
        counters = self.__dict__
        for name in _SOLVER_COUNTERS:
            counters[name] += getattr(solver_stats, name)

    def to_dict(self) -> dict:
        """The counters as a JSON-ready structure (``--format json``)."""
        return dict(self.__dict__)

    def merge(self, other: "QueryStats") -> None:
        """Fold another group's counters into this one."""
        counters = self.__dict__
        for name, value in other.__dict__.items():
            counters[name] += value


_SOLVER_COUNTERS = tuple(
    f.name for f in fields(QueryStats) if f.metadata.get("from_solver")
)


@dataclass
class VerifyStats:
    """Per-method and total query statistics for a verification run."""

    per_method: dict[str, QueryStats] = field(default_factory=dict)
    total: QueryStats = field(default_factory=QueryStats)
    # -- pipeline fault-tolerance accounting (repro.verify.parallel) --
    #: tasks the pool's in-process serial fallback re-ran after a
    #: worker crash or failure
    tasks_retried: int = 0
    #: obligations cut off by the per-task deadline and warned UNKNOWN
    tasks_timed_out: int = 0
    #: obligations degraded to UNKNOWN because their run raised
    tasks_failed: int = 0
    #: tasks whose kept outcome was replayed instead of run (a dep-hit
    #: of repro.verify.parallel.TaskReuse)
    tasks_replayed: int = 0
    # -- the pattern-algebra fast path (repro.verify.tiered) ----------
    #: obligations the syntactic pattern algebra decided without an
    #: SMT query
    algebra_discharged: int = 0
    #: switch statements the algebra found non-exhaustive but SMT did
    #: not (its counterexample query was UNSAT, UNKNOWN or could not
    #: run), so the whole statement went to SMT after all
    algebra_fallbacks: int = 0

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
        self.tasks_replayed += other.tasks_replayed
        self.algebra_discharged += other.algebra_discharged
        self.algebra_fallbacks += other.algebra_fallbacks

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
            "tasks_replayed": self.tasks_replayed,
            "algebra_discharged": self.algebra_discharged,
            "algebra_fallbacks": self.algebra_fallbacks,
        }


def format_stats(stats: dict) -> str:
    """The ``--stats`` table from a report's ``solver_stats`` document.

    Reads the :meth:`VerifyStats.to_dict` form, so a local run and a
    ``--daemon`` reply render through this one function.
    """
    header = (
        f"{'method':<40}{'queries':>8}{'sat':>6}{'unsat':>7}{'unk':>5}"
        f"{'time(s)':>9}{'rounds':>8}{'axioms':>8}{'deepen':>8}"
    )

    def row(label: str, q: dict) -> str:
        return (
            f"{label:<40}{q['queries']:>8}{q['sat']:>6}{q['unsat']:>7}"
            f"{q['unknown']:>5}{q['seconds']:>9.3f}{q['sat_rounds']:>8}"
            f"{q['axioms_asserted']:>8}{q['deepening_passes']:>8}"
        )

    lines = [header, "-" * len(header)]
    for name, q in stats["per_method"].items():
        lines.append(row(name if len(name) <= 39 else name[:36] + "...", q))
    lines.append("-" * len(header))
    t = stats["total"]
    lines.append(row("total", t))
    lines.append(
        f"theory conflicts: {t['theory_conflicts']} "
        f"({t['theory_core_lits']} core literals)"
    )
    lines.append(
        f"tasks: {stats['tasks_retried']} retried, "
        f"{stats['tasks_timed_out']} timed out, "
        f"{stats['tasks_failed']} failed, "
        f"{stats['tasks_replayed']} replayed"
    )
    lines.append(
        f"tiers: {stats['algebra_discharged']} obligations discharged by "
        f"the pattern algebra, {stats['algebra_fallbacks']} switches fell "
        f"back to SMT"
    )
    return "\n".join(lines)
