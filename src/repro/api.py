"""The one stable entry point for the library.

>>> from repro import api
>>> unit = api.compile_program(source_text)
>>> report = api.verify(unit, options=api.VerifyOptions(budget=2.0))
>>> interp = api.interpreter(unit)

Everything in ``__all__`` is the supported surface; reaching into
``repro.verify.*`` / ``repro.smt.*`` internals is not covered by any
compatibility promise.  Verification takes its whole configuration as
one :class:`VerifyOptions` object (``api.verify(unit, options=...)``);
there are no per-setting keyword arguments.

There is one solving engine, the incremental lazy DPLL(T)
:class:`~repro.smt.solver.Solver`; no option selects another.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import Diagnostics
from .lang import analyze, ast, parse_program
from .lang.symbols import ProgramTable
from .obs import NULL_TRACER, Tracer, write_jsonl
from .runtime import Interpreter
from .smt.cache import GLOBAL_CACHE, SolverCache
from .verify import VerificationReport, Verifier
from .verify.options import VerifyOptions

__all__ = [
    "CompiledUnit",
    "VerificationReport",
    "VerifyOptions",
    "compile_and_verify",
    "compile_program",
    "interpreter",
    "verify",
]


@dataclass
class CompiledUnit:
    """A parsed, checked program plus its symbol table."""

    program: ast.Program
    table: ProgramTable
    #: where the source came from; names the unit's ``file`` trace span
    filename: str = "<input>"


def compile_program(source: str, filename: str = "<input>") -> CompiledUnit:
    """Parse and semantically check a JMatch program."""
    program = parse_program(source, filename)
    table = analyze(program)
    return CompiledUnit(program, table, filename)


def verify(
    unit: CompiledUnit, *, options: VerifyOptions | None = None
) -> VerificationReport:
    """Run the full static verification pass (Sections 5-6).

    Configuration comes from ``options`` (a :class:`VerifyOptions`;
    None means the defaults), which is validated before anything runs.
    The fields:

    ``budget`` bounds each SMT query's wall time for this run only (it
    is threaded to the solver instances, never written to global
    state).  ``cache`` selects the query cache: the process-wide one by
    default, a private :class:`~repro.smt.cache.SolverCache`, or
    ``None`` to solve every query from scratch.  The returned report
    carries per-method solver statistics in ``solver_stats``.

    ``jobs`` selects the verification engine: 1 (the default) runs the
    serial driver exactly as before; above 1, per-method tasks are
    fanned out over that many worker processes and merged back in
    source order, producing byte-identical warnings and counts.

    ``cache_dir`` adds a persistent disk tier under that directory so
    conclusive verdicts survive across runs.  With the default
    ``cache`` (the process-wide one), the run uses a private in-memory
    tier in front of the disk — the global cache itself is never given
    a disk tier, so its semantics for other callers are unchanged.  A
    caller-supplied private cache gets the disk tier attached.
    ``cache=None`` disables both tiers; parallel workers cannot share a
    caller's in-memory cache object, only the disk tier.

    ``jobs`` may also be ``"auto"``, which picks a worker count from
    ``os.cpu_count()`` and the task count -- staying serial on
    single-CPU machines or tiny programs, where pool overhead would
    make verification slower.  An explicit integer is honored except
    on programs below a small task-count floor, which always run
    serially; the resolved decision is recorded on the report
    (``solver_stats.parallel_decision``) and in the trace.

    ``batch_size`` groups that many per-method obligations into one
    worker submission (parallel runs only), amortizing submit/pickle
    overhead on corpora with many small methods.  The default
    ``"auto"`` sizes batches from the task and worker counts, and
    keeps single-task batches under ``task_timeout`` so deadlines
    attribute to exactly one method.

    ``task_timeout`` bounds each verification task's (method's) wall
    time; an obligation that overruns it is reported with an
    UNKNOWN-style warning instead of hanging the run.  It also arms
    the fault-tolerant pipeline on the serial path: a task that fails
    degrades to a warning rather than raising.  Parallel runs are
    always fault-tolerant — a crashed worker's unfinished tasks are
    retried and, as a last resort, run serially in this process (see
    :mod:`repro.verify.parallel`).

    ``trace`` writes the run's span tree — run, file, task, statement,
    obligation, and query spans, with verdicts, cache-tier outcomes,
    and solver phase timers — to that path as JSONL (see
    :mod:`repro.obs`).  Serial and parallel runs of the same unit
    produce the same tree modulo span ids, pids, and timings.  Leaving
    it off runs the pipeline with the zero-cost null tracer.

    ``tier`` selects the checker tiering (:mod:`repro.verify.tiered`):
    ``"auto"`` (default) lets the syntactic pattern algebra discharge
    the obligations it can decide and sends the rest to SMT;
    ``"smt-only"`` disables the algebra; ``"algebra-only"`` runs just
    the algebra (a testing tier — obligations it cannot decide are
    skipped); ``"check"`` runs both on algebra-decidable obligations
    and raises :class:`~repro.verify.tiered.TierMismatchError` (with
    the report attached) if their verdicts ever disagree.
    """
    opts = VerifyOptions() if options is None else options
    opts.validate()
    # The tracer: an externally-owned one (the CLI's, collecting many
    # files under one run span), our own (``trace`` path set: we open
    # the run span and write the sink), or the zero-cost null tracer.
    tracer = opts.tracer
    owns_trace = tracer is None and opts.trace is not None
    if tracer is None:
        tracer = Tracer() if owns_trace else NULL_TRACER
    run_span = tracer.begin("run", "verify") if owns_trace else None
    try:
        with tracer.span("file", unit.filename):
            report = _verify_table(unit.table, opts, tracer)
    finally:
        if owns_trace:
            tracer.end(run_span)
            write_jsonl(opts.trace, tracer.roots)
    if opts.tier == "check":
        mismatches = report.solver_stats.tier_mismatches
        if mismatches:
            from .verify.tiered import TierMismatchError

            raise TierMismatchError(
                f"tier check failed: the pattern algebra and SMT disagreed "
                f"on {mismatches} obligation(s); see the report's "
                f"tier-mismatch warnings",
                report,
            )
    return report


def _verify_table(
    table: ProgramTable, opts: VerifyOptions, tracer
) -> VerificationReport:
    """Dispatch one table to the right driver for ``opts``."""
    from .verify.parallel import (
        describe_parallel_decision,
        resolve_jobs,
    )
    from .verify.verifier import iter_tasks

    task_count = sum(1 for _ in iter_tasks(table))
    jobs = resolve_jobs(opts.jobs, task_count)
    if jobs != 1:
        # verify_parallel re-resolves from the original request, so the
        # recorded decision names what the caller actually asked for.
        from .verify.parallel import verify_parallel

        return verify_parallel(table, tracer=tracer, options=opts)
    decision = describe_parallel_decision(opts.jobs, 1, task_count, 1)
    if tracer.enabled:
        tracer.event("jobs-decision", decision=decision)
    cache = opts.cache
    if opts.use_cache and opts.cache_dir is not None:
        from .smt.diskcache import DiskCache

        if cache is GLOBAL_CACHE:
            cache = SolverCache(disk=DiskCache(opts.cache_dir))
        elif cache.disk is None:
            cache.disk = DiskCache(opts.cache_dir)
    if opts.task_timeout is not None:
        from .verify.parallel import verify_serial_with_timeout

        report = verify_serial_with_timeout(
            table, cache=cache, tracer=tracer, options=opts
        )
    else:
        report = Verifier(
            table, cache=cache, tracer=tracer, options=opts
        ).run()
    report.solver_stats.parallel_decision = decision
    return report


def interpreter(unit: CompiledUnit) -> Interpreter:
    """An interpreter over the unit's class table."""
    return Interpreter(unit.table)


def compile_and_verify(source: str) -> tuple[CompiledUnit, VerificationReport]:
    unit = compile_program(source)
    return unit, verify(unit)
