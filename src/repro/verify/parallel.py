"""The per-method task loop: in process, or fanned out over a pool.

The paper verifies "one method at a time" (Section 7), so the program
table decomposes into independent :class:`~repro.verify.verifier
.VerifyTask` obligations.  Every report, ``api.verify``'s and the
daemon's, is assembled by one function, :func:`verify_tasks`: it
replays what it can, runs the rest in process through
:func:`run_serial` (each task via :func:`run_one_task`) or fans them
out across a ``ProcessPoolExecutor`` through :func:`verify_parallel`,
and merges the outcomes (:func:`merge_outcomes`) into the same result
either way:

* the task list is produced in serial (source) order by
  :func:`~repro.verify.verifier.iter_tasks` and results are merged back
  in that same order, so warnings come out byte-identical to a serial
  run, whatever order workers finish in;
* every task runs inside a pristine term-interning scope with a fresh
  ``SolverSession``, so models and counterexample text do not depend
  on which process ran which tasks before;
* workers share nothing: each gets the pickled program table, and its
  own in-memory :class:`~repro.smt.cache.SolverCache` only when the
  caller passed one (``VerifyOptions.cache``).

Task outcomes are the one reuse on every user path (:class:`TaskReuse`
over a :class:`~repro.verify.store.OutcomeTable`, whose policy decides
what is kept); the pool gets only the tasks that do not replay.

``--jobs N`` means N workers: the tasks that do not replay run on a
pool of ``min(N, len(runnable))`` workers when that is above 1, and in
process otherwise.  No task-count floor second-guesses N: honoring it
on a tiny program costs one fork.

Throughput comes from amortization, not from more processes:

* **warm workers** — the pool initializer receives the table once per
  worker process, not once per task;
* **batching** — many small obligations ship per pool submission
  (:func:`resolve_batch_size` sizes batches from the task and worker
  counts), collapsing the per-future submit/pickle/result overhead.
  Outcomes stay per-task inside each batch, so merging is unchanged.
  Runs under ``--task-timeout`` keep single-task batches: a deadline
  must attribute to exactly one method.

A failing task degrades instead of diverging, on every driver (the
paper's Section 6.2 time budget turns an undecidable obligation into a
conservative warning; this module does the same per task):

* **degradation** — a task whose run raises becomes an UNKNOWN-style
  warning (``tasks_failed``), serial and parallel alike.
* **crash recovery** — when a worker dies (OOM killer, hard crash:
  ``BrokenProcessPool``), all of the pool's tasks run again through
  :func:`run_serial` in this process, so ``tasks_retried`` does not
  depend on which batches beat the crash.  A task that raised inside
  a live worker re-runs alone.  There is no second pool: a
  deterministic crash would only recur.
* **per-task deadlines** — ``task_timeout`` bounds each obligation's
  wall time via ``SIGALRM`` in whichever process runs it, converting a
  hung task into a deterministic UNKNOWN-style warning attributed to
  its method.  A parent-side watchdog backstops the alarm: if no task
  completes for well past the deadline (alarm lost, worker wedged in
  native code), the workers are killed and the pool's tasks take the
  crash-recovery path.  The alarm arms on a process's main thread
  only, so a ``task_timeout`` off it is rejected up front (see
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
way because all worker state flows through the initializer.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import signal
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
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


#: per-worker-process state, set once by the pool initializer
_WORKER: dict = {}


def _init_worker(
    table: ProgramTable,
    budget: float | None,
    with_cache: bool,
    task_timeout: float | None,
    trace: bool,
) -> None:
    """Keep this worker's state (runs once per process): the table,
    and a query cache of its own when the caller passed one."""
    _WORKER["table"] = table
    _WORKER["budget"] = budget
    _WORKER["cache"] = SolverCache() if with_cache else None
    _WORKER["task_timeout"] = task_timeout
    _WORKER["trace"] = trace


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


def verify_batch_task(tasks: list[VerifyTask]) -> list:
    """Verify a batch of tasks inside a pool worker, one entry per task.

    Each entry is that task's :class:`TaskOutcome`, or the exception
    its run raised — per-member, so one poisoned obligation does not
    discard its batchmates' finished work.  Fault injection
    (``REPRO_FAULT``) keeps per-method naming: :func:`run_one_task`
    consults the harness with each member's own label, so
    ``crash:T.m`` fires exactly when the batch reaches ``T.m`` (a
    crash breaks the pool, and the parent re-runs all of the pool's
    tasks serially).  Per-member deadlines arm
    inside :func:`run_one_task` too, so a hung member times out alone
    and its batchmates keep running.
    """
    results: list = []
    for task in tasks:
        try:
            results.append(verify_method_task(task))
        except Exception as exc:
            results.append(exc)
    return results


def _pool_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


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


#: batches aim for about this many per worker, enough slack for the
#: pool to rebalance around uneven task costs
BATCHES_PER_WORKER = 4

#: no batch holds more obligations than this, bounding how much
#: finished work a crashed worker can take down with it
MAX_AUTO_BATCH = 64


def resolve_batch_size(
    task_count: int, jobs: int, task_timeout: float | None = None
) -> int:
    """Obligations per pool submission for ``task_count`` tasks.

    Targets :data:`BATCHES_PER_WORKER` batches per worker (capped at
    :data:`MAX_AUTO_BATCH`), which amortizes submit/pickle overhead
    while leaving the pool enough batches to load-balance.  Under
    ``task_timeout`` it stays at 1: a deadline must cut off and
    attribute exactly one method, and a batch would stretch the
    parent-side watchdog window by its whole length.
    """
    if jobs <= 1 or task_timeout is not None:
        return 1
    target = -(-task_count // (jobs * BATCHES_PER_WORKER))  # ceil div
    return max(1, min(MAX_AUTO_BATCH, target))


def _stall_window(task_timeout: float) -> float:
    """How long zero completions may pass before the watchdog fires.

    Generous on purpose: every healthy worker either finishes its task
    or has its in-worker alarm fire within ``task_timeout``, so a
    silent stretch of twice that (plus scheduling slack) means every
    worker is wedged past its alarm.
    """
    return task_timeout * 2 + 5.0


def _chunk(items: list, size: int) -> list[list]:
    """Split ``items`` into consecutive runs of at most ``size``."""
    return [items[i : i + size] for i in range(0, len(items), size)]


def _drain_pool(
    pool: ProcessPoolExecutor,
    tasks: list[VerifyTask],
    task_timeout: float | None,
    batch_size: int,
) -> tuple[dict[int, TaskOutcome], bool]:
    """Submit task batches and collect outcomes until done or broken.

    Returns the outcomes by task index, plus whether the pool died
    (worker crash or watchdog kill).  A batch resolves member by
    member: a member whose run raised inside a live worker simply has
    no outcome, so one bad obligation never voids its batchmates.
    """
    futures = {
        pool.submit(verify_batch_task, [task for _, task in batch]): batch
        for batch in _chunk(list(enumerate(tasks)), batch_size)
    }
    outcomes: dict[int, TaskOutcome] = {}
    broken = False
    pending = set(futures)
    # A healthy batch may legitimately produce nothing for as long as
    # every member in sequence takes its full deadline.
    window = (
        _stall_window(task_timeout * batch_size)
        if task_timeout is not None
        else None
    )
    while pending and not broken:
        done, pending = wait(
            pending, timeout=window, return_when=FIRST_COMPLETED
        )
        if not done:
            # Watchdog: nothing completed for well past the per-task
            # deadline, so the in-worker alarms are not firing (wedged
            # in native code, signal lost).  Kill the workers; the
            # unfinished tasks take the crash-recovery path.
            for process in list(getattr(pool, "_processes", {}).values()):
                process.terminate()
            broken = True
            break
        for future in done:
            batch = futures[future]
            try:
                results = future.result()
            except BrokenProcessPool:
                broken = True
                continue
            except Exception:
                # The batch call itself failed (e.g. its result did not
                # unpickle); every member takes the serial fallback.
                continue
            for (index, _), result in zip(batch, results):
                if isinstance(result, TaskOutcome):
                    outcomes[index] = result
    return outcomes, broken


def verify_parallel(
    table: ProgramTable,
    tasks: list[VerifyTask],
    options: VerifyOptions,
    trace: bool,
    jobs: int,
) -> tuple[list[TaskOutcome], int]:
    """Verify ``tasks`` on a pool of ``jobs`` (> 1) processes.

    The pool runs the tasks in batches of :func:`resolve_batch_size`.  The
    tasks left without an outcome — all of them when the pool broke,
    else any whose run raised inside a live worker — go through
    :func:`run_serial` in this process and count as retried; each gets
    a ``retry`` event on its task span.  Returns the outcomes in task
    order, and how many were retried.
    """
    pool = ProcessPoolExecutor(
        max_workers=jobs,
        mp_context=_pool_context(),
        initializer=_init_worker,
        initargs=(
            table,
            options.budget,
            options.cache is not None,
            options.task_timeout,
            trace,
        ),
    )
    try:
        outcomes, broken = _drain_pool(
            pool,
            tasks,
            options.task_timeout,
            resolve_batch_size(len(tasks), jobs, options.task_timeout),
        )
    except BaseException:
        # KeyboardInterrupt (or anything unexpected): drop queued
        # work without blocking on what is already running.
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    pool.shutdown(wait=not broken, cancel_futures=True)
    if broken:
        # Which batches beat the break is a race; none of them count.
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
