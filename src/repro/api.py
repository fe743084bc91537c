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

import time
from dataclasses import dataclass

from .errors import Diagnostics
from .lang import analyze, ast, parse_program
from .lang.symbols import ProgramTable
from .obs import NULL_TRACER, Tracer, write_jsonl
from .runtime import Interpreter
from .verify import VerificationReport
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
    state).  ``cache`` is an opt-in SMT query cache (a
    :class:`~repro.smt.cache.SolverCache`); the default, ``None``,
    solves every query.  The returned report carries per-method solver
    statistics in ``solver_stats``.

    ``jobs`` selects the driver: 1 (the default) verifies the
    per-method tasks one after another in this process; above 1, they
    are fanned out over that many worker processes and merged back in
    source order, producing byte-identical warnings and counts.

    ``cache_dir`` keeps task outcomes in a store under that directory
    (:mod:`repro.verify.store`), so a later run replays every task whose
    dependency fingerprint, options and verifier source are unchanged
    instead of verifying it again (``solver_stats.tasks_replayed``).
    Only conclusive outcomes are kept.  Task outcomes are the only
    reuse across runs: the store is on exactly when ``cache_dir`` is
    set, whatever ``cache`` holds.

    ``jobs`` may also be ``"auto"``, which picks a worker count from
    ``os.cpu_count()`` and the task count -- staying serial on
    single-CPU machines or tiny programs, where pool overhead would
    make verification slower.  An explicit integer is honored except
    on programs below a small task-count floor, which always run
    serially; the resolved decision is recorded on the report
    (``solver_stats.parallel_decision``) and in the trace.

    Parallel runs ship obligations to workers in batches sized from
    the task and worker counts (single-task batches under
    ``task_timeout``, so deadlines attribute to exactly one method);
    no option sets the batch size.

    ``task_timeout`` bounds each verification task's (method's) wall
    time; an obligation that overruns it is reported with an
    UNKNOWN-style warning instead of hanging the run.  Whatever the
    driver, a task that fails degrades to an UNKNOWN-style warning
    rather than raising, and a crashed worker's unfinished tasks run
    serially in this process (see :mod:`repro.verify.parallel`).

    ``trace`` writes the run's span tree — run, file, task, statement,
    obligation, and query spans, with verdicts and solver phase
    timers — to that path as JSONL (see
    :mod:`repro.obs`).  Serial and parallel runs of the same unit
    produce the same tree modulo span ids, pids, and timings.  Leaving
    it off runs the pipeline with the zero-cost null tracer.

    No option selects how obligations are decided: the syntactic
    pattern algebra (:mod:`repro.verify.tiered`) discharges the
    constructor-only ones it can decide, and everything else goes to
    SMT, with warnings byte-identical to an SMT-only run.
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
    return report


def _verify_table(
    table: ProgramTable, opts: VerifyOptions, tracer
) -> VerificationReport:
    """Run every task of one table on the driver ``opts.jobs`` picks."""
    from .verify.faults import active_fault
    from .verify.parallel import (
        describe_parallel_decision,
        merge_outcomes,
        resolve_jobs,
        run_serial,
        stored_reuse,
    )
    from .verify.verifier import iter_tasks

    active_fault()  # reject a malformed REPRO_FAULT loudly, up front
    tasks = list(iter_tasks(table))
    jobs = resolve_jobs(opts.jobs, len(tasks))
    decision = describe_parallel_decision(
        opts.jobs, jobs, len(tasks), opts.task_timeout
    )
    if tracer.enabled:
        tracer.event("jobs-decision", decision=decision)
    reuse = stored_reuse(table, tasks, opts)
    if jobs > 1:
        from .verify.parallel import verify_parallel

        report = verify_parallel(table, opts, tracer, jobs, reuse)
    else:
        start = time.perf_counter()
        outcomes = run_serial(table, tasks, opts, tracer, reuse)
        report = merge_outcomes(outcomes, time.perf_counter() - start)
        if reuse is not None:
            report.solver_stats.tasks_replayed = reuse.replayed
    report.solver_stats.parallel_decision = decision
    return report


def interpreter(unit: CompiledUnit) -> Interpreter:
    """An interpreter over the unit's class table."""
    return Interpreter(unit.table)


def compile_and_verify(source: str) -> tuple[CompiledUnit, VerificationReport]:
    unit = compile_program(source)
    return unit, verify(unit)
