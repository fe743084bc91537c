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

import os
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

    ``jobs`` is the worker count, a positive integer: the per-method
    tasks that do not replay run on ``min(jobs, tasks)`` worker
    processes and are merged back in source order, producing
    byte-identical warnings and counts; a count of 1 (the default)
    runs them one after another in this process.

    ``cache_dir`` keeps task outcomes in a store under that directory
    (:mod:`repro.verify.store`), so a later run replays every task whose
    dependency fingerprint, options and verifier source are unchanged
    instead of verifying it again (``solver_stats.tasks_replayed``).
    Only conclusive outcomes are kept, the newest four per task.  Task
    outcomes are the only reuse across runs: the store is on exactly
    when ``cache_dir`` is set, whatever ``cache`` holds.

    In parallel runs each worker claims one obligation at a time, so
    deadlines and failures attribute to exactly one method; no option
    sets how work is split.

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
            report = _verify_unit(unit, opts, tracer)
    finally:
        if owns_trace:
            tracer.end(run_span)
            write_jsonl(opts.trace, tracer.roots)
    return report


def _verify_unit(
    unit: CompiledUnit, opts: VerifyOptions, tracer
) -> VerificationReport:
    """Run every task of one unit on the driver ``opts.jobs`` picks."""
    from .verify.faults import active_fault
    from .verify.parallel import TaskReuse, verify_tasks
    from .verify.verifier import iter_tasks

    active_fault()  # reject a malformed REPRO_FAULT loudly, up front
    table = unit.table
    tasks = list(iter_tasks(table))
    reuse = None
    if opts.cache_dir is not None:
        from .verify.daemon.index import fingerprint_tasks
        from .verify.store import OutcomeTable

        filename = unit.filename
        if os.path.isfile(filename):
            # Every spelling of a file's path keeps one set of entries.
            filename = os.path.realpath(filename)
        reuse = TaskReuse(
            OutcomeTable(opts.cache_dir), filename,
            fingerprint_tasks(table, tasks), opts,
        )
    return verify_tasks(table, tasks, opts, tracer, opts.jobs, reuse)


def interpreter(unit: CompiledUnit) -> Interpreter:
    """An interpreter over the unit's class table."""
    return Interpreter(unit.table)


def compile_and_verify(source: str) -> tuple[CompiledUnit, VerificationReport]:
    unit = compile_program(source)
    return unit, verify(unit)
