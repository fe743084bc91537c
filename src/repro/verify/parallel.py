"""The per-method task loop: in process, or fanned out over a pool.

The paper verifies "one method at a time" (Section 7), so the program
table decomposes into independent :class:`~repro.verify.verifier
.VerifyTask` obligations.  Every report, ``api.verify``'s and the
daemon's, is assembled by one function, :func:`verify_tasks`: it
replays what it can, runs the rest in process through
:func:`run_serial` (each task via :func:`run_one_task`) or fans them
out across worker processes through :func:`verify_parallel`, and
merges the outcomes (:func:`merge_outcomes`) into the same result
either way:

* the task list is produced in serial (source) order by
  :func:`~repro.verify.verifier.iter_tasks` and results are merged back
  in that same order, so warnings come out byte-identical to a serial
  run, whatever order workers finish in;
* every task runs inside a pristine term-interning scope with a fresh
  ``SolverSession``, so models and counterexample text do not depend
  on which process ran which tasks before;
* workers share nothing but a task counter: each gets the program
  table (inherited under fork), and its own in-memory
  :class:`~repro.smt.cache.SolverCache` only when the caller passed
  one (``VerifyOptions.cache``).

Task outcomes are the one reuse on every user path (:class:`TaskReuse`
over a :class:`~repro.verify.store.OutcomeTable`, whose policy decides
what is kept); the pool gets only the tasks that do not replay.

``--jobs N`` means N workers: the tasks that do not replay run on a
pool of ``min(N, len(runnable))`` workers when that is above 1, and in
process otherwise.  No task-count floor second-guesses N: honoring it
on a tiny program costs one fork.

A pool lives for one call, and costs little more than its forks:

* **workers** — ``jobs`` ``Process``es of the fork context get the
  table, the tasks and the settings as arguments: inherited for free
  under fork, pickled once per worker under spawn.  Each worker calls
  ``gc.freeze()`` first, so its collections never walk the inherited
  heap (never in the parent: ``api.verify`` does not own its caller's
  heap).
* **claims** — a worker takes task indices one at a time from a shared
  counter and sends ``(index, outcome)`` over its own one-way pipe as
  each task finishes (:func:`verify_batch_task`).  The load balances
  itself, and a deadline or a failure belongs to exactly one method.
  The parent waits on the pipes (``multiprocessing.connection.wait``).

A failing task degrades instead of diverging, on every driver (the
paper's Section 6.2 time budget turns an undecidable obligation into a
conservative warning; this module does the same per task):

* **degradation** — a task whose run raises becomes an UNKNOWN-style
  warning (``tasks_failed``), serial and parallel alike.
* **crash recovery** — when a worker dies (OOM killer, hard crash: its
  pipe ends and its exit code is nonzero), all of the pool's tasks run
  again through :func:`run_serial` in this process, so
  ``tasks_retried`` does not depend on which tasks beat the crash.  A
  task that raised inside a live worker re-runs alone.  There is no
  second pool: a deterministic crash would only recur.
* **per-task deadlines** — ``task_timeout`` bounds each obligation's
  wall time via ``SIGALRM`` in whichever process runs it, converting a
  hung task into a deterministic UNKNOWN-style warning attributed to
  its method.  A parent-side watchdog backstops the alarm: if no task
  completes for well past the one-task deadline (twice it plus slack,
  :func:`_stall_window`: alarm lost, worker wedged in native code), the
  workers are killed and the pool's tasks take the crash-recovery
  path.  The alarm arms on a process's main thread only, so a
  ``task_timeout`` off it is rejected up front (see
  :func:`task_deadline`); on platforms without ``SIGALRM`` the
  deadline is a no-op.
* **accounting** — ``tasks_retried`` / ``tasks_timed_out`` /
  ``tasks_failed`` land on :class:`~repro.metrics.solver_stats
  .VerifyStats` (and the report), rendered by ``verify --stats``.

Every recovery path is exercised deterministically in tests through
the :mod:`repro.verify.faults` harness (``REPRO_FAULT``).

Processes, not threads: solving is pure-Python CPU work, so threads
would serialize on the GIL.  The ``fork`` start method is preferred
for its low startup cost; ``spawn`` (macOS, Windows) works the same
way because all worker state flows through the ``Process`` arguments.
Every way out of :func:`verify_parallel` terminates and joins its
workers, so no call leaves a process behind.
"""

from __future__ import annotations

import contextlib
import gc
import multiprocessing
import signal
import time
from multiprocessing.connection import wait
from dataclasses import dataclass, field, replace

from ..errors import Diagnostics, Warning, WarningKind
from ..lang.symbols import ProgramTable
from ..metrics.solver_stats import VerifyStats
from ..obs import NULL_TRACER, Span, Tracer
from ..smt.cache import SolverCache
from .faults import maybe_fail_task
from .options import VerifyOptions
from .store import OutcomeTable, outcome_salt
from .verifier import (
    VerificationReport,
    Verifier,
    VerifyTask,
    task_span,
)


@dataclass
class TaskOutcome:
    """What one verification task sends back from its worker."""

    warnings: list[Warning] = field(default_factory=list)
    methods_checked: int = 0
    statements_checked: int = 0
    stats: VerifyStats = field(default_factory=VerifyStats)
    #: the task's recorded span tree (rooted at its ``task`` span) when
    #: tracing is on; plain data, so it pickles back from a pool worker
    trace: Span | None = None


class TaskTimeout(Exception):
    """A task overran its per-task wall-clock deadline."""


@contextlib.contextmanager
def task_deadline(seconds: float | None):
    """Raise :class:`TaskTimeout` in this thread after ``seconds``.

    The alarm is ``SIGALRM``, so it must be armed on a process's main
    thread: pool workers run their tasks there, ``repro serve`` serves
    from there, and :meth:`~repro.verify.options.VerifyOptions.validate`
    rejects a ``task_timeout`` anywhere else.  Without ``setitimer``
    (Windows) this is a no-op.
    """
    if seconds is None or not hasattr(signal, "setitimer"):
        yield
        return

    def _on_alarm(signum, frame):
        raise TaskTimeout()

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


class TaskReuse:
    """Replays one unit's kept task outcomes in place of running its tasks.

    ``outcomes`` is the :class:`~repro.verify.store.OutcomeTable` that
    keeps them, under the identity ``(filename, task label)`` and the
    salt of ``options``; ``fingerprints`` maps each task to its
    dependency fingerprint (None: never replay).
    """

    def __init__(
        self,
        outcomes: OutcomeTable,
        filename: str,
        fingerprints: dict,
        options: VerifyOptions,
    ):
        self.outcomes = outcomes
        self.filename = filename
        self.fingerprints = fingerprints
        self.salt = outcome_salt(options)
        #: how many tasks :meth:`replay` answered
        self.replayed = 0

    def replay(self, task: VerifyTask, trace: bool) -> TaskOutcome | None:
        """The kept outcome of ``task``, or None.

        The replay's warnings and method and statement counts are the
        kept ones, but it made no query and discharged nothing, so its
        ``stats`` are empty (the driver counts it in ``tasks_replayed``)
        and its trace is a fresh ``dep-hit`` span.
        """
        fingerprint = self.fingerprints.get(task)
        if fingerprint is None:
            return None
        outcome = self.outcomes.get(
            (self.filename, task.label), self.salt, fingerprint
        )
        if outcome is None:
            return None
        self.replayed += 1
        span = None
        if trace:
            span = task_event_span(
                task, "dep-hit", warnings=len(outcome.warnings)
            )
        return replace(outcome, stats=VerifyStats(), trace=span)

    def keep(self, task: VerifyTask, outcome: TaskOutcome) -> None:
        """Offer the outcome of a task that ran, without its spans."""
        kept = outcome
        if outcome.trace is not None:
            outcome.trace.event("dep-miss")
            kept = replace(outcome, trace=None)
        self.outcomes.put(
            (self.filename, task.label), self.salt,
            self.fingerprints.get(task), kept,
        )


def run_one_task(
    table: ProgramTable,
    task: VerifyTask,
    budget: float | None,
    cache,
    task_timeout: float | None,
    trace: bool = False,
) -> TaskOutcome:
    """Verify one task, rebuilding the solver session.

    A fresh :class:`Verifier` (and with it a fresh ``SolverSession``)
    is constructed per task; only a query cache the caller passed
    persists between tasks, and cached verdicts never change warnings.
    When ``trace`` is set the task records its spans under a private
    :class:`~repro.obs.Tracer` whose single root (the task span) ships
    back on ``TaskOutcome.trace`` for the parent to re-attach.  A task
    that overruns ``task_timeout`` returns a deterministic timed-out
    outcome (partial warnings — and partial spans — are discarded: how
    far a deadline lets a task get is scheduler noise); other failures
    propagate.
    """
    tracer = Tracer() if trace else NULL_TRACER
    verifier = Verifier(table, budget=budget, cache=cache, tracer=tracer)
    try:
        with task_deadline(task_timeout):
            maybe_fail_task(task.label)
            verifier.run_task(task)
    except TaskTimeout:
        return _timed_out_outcome(table, task, task_timeout, trace)
    return TaskOutcome(
        warnings=verifier.diag.warnings,
        methods_checked=verifier.methods_checked,
        statements_checked=verifier.statements_checked,
        stats=verifier.session.stats,
        trace=tracer.roots[0] if trace and tracer.roots else None,
    )


def task_event_span(task: VerifyTask, event: str, **attrs) -> Span:
    """A synthetic childless task span carrying one ``event``.

    A task that never finished normally gets one in place of whatever
    partial spans the doomed attempt recorded — like partial warnings,
    they depend on where the scheduler cut the task off, so a fixed
    single-span tree keeps degraded traces deterministic.  A replayed
    (dep-hit) task, which did no work, gets one too.
    """
    span = Span("task", task.label, attrs={"kind": task.kind})
    span.event(event, **attrs)
    return span


def _timed_out_outcome(
    table: ProgramTable,
    task: VerifyTask,
    task_timeout: float | None,
    trace: bool = False,
) -> TaskOutcome:
    """The degraded outcome of a task cut off by its deadline."""
    diag = Diagnostics()
    diag.warn(
        WarningKind.UNKNOWN,
        f"verification of {task.label} exceeded the task timeout "
        f"({task_timeout:g}s); treating this obligation as inconclusive",
        task_span(table, task),
    )
    stats = VerifyStats()
    stats.tasks_timed_out = 1
    outcome = TaskOutcome(warnings=diag.warnings, stats=stats)
    if trace:
        outcome.trace = task_event_span(
            task, "timeout", seconds=task_timeout
        )
    return outcome


def _failed_outcome(
    table: ProgramTable,
    task: VerifyTask,
    exc: BaseException,
    trace: bool = False,
) -> TaskOutcome:
    """The degraded outcome of a task whose run raised."""
    diag = Diagnostics()
    diag.warn(
        WarningKind.UNKNOWN,
        f"verification of {task.label} failed "
        f"({type(exc).__name__}); treating this obligation as inconclusive",
        task_span(table, task),
    )
    stats = VerifyStats()
    stats.tasks_failed = 1
    outcome = TaskOutcome(warnings=diag.warnings, stats=stats)
    if trace:
        outcome.trace = task_event_span(
            task, "failed", error=type(exc).__name__
        )
    return outcome


def run_serial(
    table: ProgramTable,
    tasks: list[VerifyTask],
    options: VerifyOptions,
    trace: bool,
) -> list[TaskOutcome]:
    """Verify ``tasks`` one after another in this process.

    The one in-process task loop, serial runs' and the pool fallback's.
    A task that raises degrades to an UNKNOWN-style warning instead of
    taking the run down.
    """
    outcomes: list[TaskOutcome] = []
    for task in tasks:
        try:
            outcome = run_one_task(
                table, task, options.budget, options.cache,
                options.task_timeout, trace,
            )
        except Exception as exc:
            outcome = _failed_outcome(table, task, exc, trace)
        outcomes.append(outcome)
    return outcomes


def verify_tasks(
    table: ProgramTable,
    tasks: list[VerifyTask],
    options: VerifyOptions,
    tracer,
    jobs: int = 1,
    reuse: TaskReuse | None = None,
) -> VerificationReport:
    """Verify ``tasks`` and assemble their report: every driver's path.

    Replays what ``reuse`` can and runs the rest on
    ``min(jobs, len(runnable))`` workers: through :func:`verify_parallel`
    when that is above 1, else :func:`run_serial`.  It offers each outcome
    that ran to ``reuse``, then adopts span trees and merges outcomes in
    task order, so every driver gives the serial report and span tree.
    """
    trace = tracer.enabled
    start = time.perf_counter()
    replayed = [
        None if reuse is None else reuse.replay(task, trace)
        for task in tasks
    ]
    runnable = [
        task for task, outcome in zip(tasks, replayed) if outcome is None
    ]
    retried = 0
    workers = min(jobs, len(runnable))
    if workers > 1:
        ran, retried = verify_parallel(
            table, runnable, options, trace, workers
        )
    else:
        ran = run_serial(table, runnable, options, trace)
    ran = iter(ran)
    ordered: list[TaskOutcome] = []
    for task, outcome in zip(tasks, replayed):
        if outcome is None:
            outcome = next(ran)
            if reuse is not None:
                reuse.keep(task, outcome)
        tracer.attach(outcome.trace)
        ordered.append(outcome)
    report = merge_outcomes(ordered, time.perf_counter() - start)
    report.solver_stats.tasks_retried += retried
    if reuse is not None:
        report.solver_stats.tasks_replayed = reuse.replayed
    return report


def merge_outcomes(
    outcomes: list[TaskOutcome], seconds: float
) -> VerificationReport:
    """Fold per-task outcomes (already in task order) into one report."""
    diag = Diagnostics()
    stats = VerifyStats()
    methods_checked = 0
    statements_checked = 0
    for outcome in outcomes:
        diag.warnings.extend(outcome.warnings)
        stats.merge(outcome.stats)
        methods_checked += outcome.methods_checked
        statements_checked += outcome.statements_checked
    return VerificationReport(
        diag,
        seconds=seconds,
        methods_checked=methods_checked,
        statements_checked=statements_checked,
        solver_stats=stats,
    )


#: per-worker-process state, set once when a pool worker starts
_WORKER: dict = {}


def verify_method_task(task: VerifyTask) -> TaskOutcome:
    """Verify one task inside a pool worker (see :func:`run_one_task`)."""
    return run_one_task(
        _WORKER["table"],
        task,
        _WORKER["budget"],
        _WORKER["cache"],
        _WORKER["task_timeout"],
        _WORKER["trace"],
    )


def verify_batch_task(tasks: list[VerifyTask], counter, writer) -> None:
    """A pool worker's share of ``tasks``: claim one, verify it, send it.

    The worker takes the next task index from the shared ``counter``
    until none is left, and sends ``(index, outcome)`` over ``writer``
    as each task finishes, so a worker never holds more than the one
    task it is on.  The outcome is None when the task's run raised: one
    poisoned obligation costs only itself.  Fault injection
    (``REPRO_FAULT``) and the per-task deadline act inside
    :func:`run_one_task`, with each task's own label.
    """
    while True:
        with counter.get_lock():
            index = counter.value
            counter.value += 1
        if index >= len(tasks):
            return
        try:
            outcome = verify_method_task(tasks[index])
        except Exception:
            outcome = None
        writer.send((index, outcome))


def _work(
    table: ProgramTable,
    tasks: list[VerifyTask],
    budget: float | None,
    with_cache: bool,
    task_timeout: float | None,
    trace: bool,
    counter,
    writer,
) -> None:
    """A pool worker's life: keep its settings, then claim tasks.

    ``gc.freeze()`` comes first, so the worker's collections never walk
    (and so never copy) the heap it inherited from the parent.  The
    query cache is the worker's own, made only when the caller passed
    one.
    """
    gc.freeze()
    _WORKER.update(
        table=table,
        budget=budget,
        cache=SolverCache() if with_cache else None,
        task_timeout=task_timeout,
        trace=trace,
    )
    verify_batch_task(tasks, counter, writer)


def _pool_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def _stall_window(task_timeout: float) -> float:
    """How long zero completions may pass before the watchdog fires.

    Generous on purpose: every healthy worker either finishes its task
    or has its in-worker alarm fire within ``task_timeout``, so a
    silent stretch of twice that (plus scheduling slack) means every
    worker is wedged past its alarm.
    """
    return task_timeout * 2 + 5.0


def _collect(
    workers: dict, task_timeout: float | None
) -> tuple[dict[int, TaskOutcome], bool]:
    """Receive outcomes until every worker is done or the pool broke.

    ``workers`` maps each worker's pipe to its process.  Returns the
    outcomes by task index, plus whether the pool broke: a pipe that
    ended with a nonzero exit code (a crash), or the watchdog.
    """
    window = None if task_timeout is None else _stall_window(task_timeout)
    outcomes: dict[int, TaskOutcome] = {}
    live = list(workers)
    while live:
        ready = wait(live, timeout=window)
        if not ready:
            # Watchdog: nothing completed for well past the per-task
            # deadline, so the in-worker alarms are not firing (wedged
            # in native code, signal lost).  The caller kills the
            # workers; every task takes the crash-recovery path.
            return outcomes, True
        for reader in ready:
            try:
                index, outcome = reader.recv()
            except EOFError:
                live.remove(reader)
                workers[reader].join()
                if workers[reader].exitcode:
                    return outcomes, True
                continue
            if outcome is not None:
                outcomes[index] = outcome
    return outcomes, False


def verify_parallel(
    table: ProgramTable,
    tasks: list[VerifyTask],
    options: VerifyOptions,
    trace: bool,
    jobs: int,
) -> tuple[list[TaskOutcome], int]:
    """Verify ``tasks`` on ``jobs`` (> 1) worker processes.

    The workers live for this call and claim the tasks one at a time
    (:func:`verify_batch_task`).  The tasks left without an outcome —
    all of them when the pool broke, else any whose run raised inside a
    live worker — go through :func:`run_serial` in this process and
    count as retried; each gets a ``retry`` event on its task span.
    Every way out terminates and joins the workers.  Returns the
    outcomes in task order, and how many were retried.
    """
    context = _pool_context()
    counter = context.Value("i", 0)
    settings = (
        table,
        tasks,
        options.budget,
        options.cache is not None,
        options.task_timeout,
        trace,
        counter,
    )
    workers = {}
    try:
        for _ in range(jobs):
            reader, writer = context.Pipe(duplex=False)
            worker = context.Process(
                target=_work, args=settings + (writer,), daemon=True
            )
            worker.start()
            writer.close()
            workers[reader] = worker
        outcomes, broken = _collect(workers, options.task_timeout)
    finally:
        for reader, worker in workers.items():
            worker.terminate()
            worker.join()
            reader.close()
    if broken:
        # Which tasks beat the break is a race; none of them count.
        outcomes = {}
    missing = [index for index in range(len(tasks)) if index not in outcomes]
    rerun = run_serial(
        table, [tasks[index] for index in missing], options, trace
    )
    for index, outcome in zip(missing, rerun):
        if outcome.trace is not None:
            outcome.trace.event("retry")
        outcomes[index] = outcome
    return [outcomes[index] for index in range(len(tasks))], len(missing)
