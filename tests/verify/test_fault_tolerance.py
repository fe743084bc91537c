"""The fault-tolerant pipeline: crash recovery, deadlines, degradation.

Every recovery path of :mod:`repro.verify.parallel` is driven
deterministically through the :mod:`repro.verify.faults` harness
(``REPRO_FAULT``), never by hoping a worker really dies:

* a crashed worker (``crash:<task>``) must cost retries, not results —
  the recovered run's report is byte-identical to an undisturbed
  serial run;
* a hung obligation (``hang:<task>``) under ``task_timeout`` must end
  as a per-method UNKNOWN-style warning, not a hung run — serial and
  parallel alike;
* a task that keeps raising (``raise:<task>``) must degrade to an
  UNKNOWN-style warning, the same one on every driver (a pool run gets
  there after its serial-fallback retry);
* the accounting (``tasks_retried`` / ``tasks_timed_out`` /
  ``tasks_failed``) must land on the report and ``--stats``;
* every pool, normal, crashed or killed by the watchdog, must leave no
  process behind.
"""

import contextlib
import multiprocessing
import os
import subprocess
import sys

import pytest

import repro
from repro import api
from repro.errors import WarningKind
from repro.metrics.solver_stats import format_stats
from repro.smt.cache import SolverCache
from repro.verify import faults, parallel
from repro.verify.parallel import TaskTimeout, task_deadline
from repro.verify.verifier import iter_tasks

#: several obligations, two of which warn, so recovery tests can check
#: that untouched tasks keep their warnings in deterministic order
SOURCE = """
interface Nat {
  invariant(this = zero() | succ(_));
  constructor zero() matches(notall(result)) returns();
  constructor succ(Nat n) matches(notall(result)) returns(n);
}
static int f(Nat n) {
  switch (n) {
    case succ(Nat p): return 1;
  }
}
static int g(Nat n) {
  switch (n) {
    case zero(): return 0;
  }
}
static int h(Nat n) {
  switch (n) {
    case zero(): return 0;
    case succ(Nat p): return 1;
  }
}
"""

#: the faulted obligation; its own warning ("g" is nonexhaustive) is
#: the one at stake when the task is crashed, hung, or failed
TARGET = "g"


def _snapshot(report):
    return (
        [str(w) for w in report.diagnostics.warnings],
        report.methods_checked,
        report.statements_checked,
    )


def count_pools(monkeypatch) -> list[int]:
    """The worker count of each pool the driver starts from now on."""
    pools: list[int] = []
    real = parallel._pool_context

    class CountingContext:
        def __init__(self, context):
            self.context = context

        def __getattr__(self, name):
            return getattr(self.context, name)

        def Process(self, *args, **kwargs):
            pools[-1] += 1
            return self.context.Process(*args, **kwargs)

    def counting_context():
        pools.append(0)
        return CountingContext(real())

    monkeypatch.setattr(parallel, "_pool_context", counting_context)
    return pools


@pytest.fixture(scope="module")
def unit():
    return api.compile_program(SOURCE)


@pytest.fixture(scope="module")
def baseline(unit):
    return api.verify(unit, options=api.VerifyOptions(cache=SolverCache()))


def test_baseline_has_warnings_including_target(baseline):
    texts = [str(w) for w in baseline.diagnostics.warnings]
    assert len(texts) == 2, "f and g should both warn"
    assert baseline.tasks_retried == 0
    assert baseline.tasks_timed_out == 0
    assert baseline.tasks_failed == 0


def test_task_labels_name_every_obligation(unit):
    labels = [t.label for t in iter_tasks(unit.table)]
    assert "invariant of Nat" in labels
    assert "Nat.succ" in labels
    assert TARGET in labels
    assert len(labels) == len(set(labels))


# ----------------------------------------------------------------------
# crash recovery


def test_crash_recovered_run_is_byte_identical(unit, baseline, monkeypatch):
    monkeypatch.setenv(faults.ENV_VAR, f"crash:{TARGET}")
    recovered = api.verify(unit, options=api.VerifyOptions(jobs=4))
    assert _snapshot(recovered) == _snapshot(baseline)
    # The crash broke the pool, so every task of the pool re-ran in the
    # serial fallback, where the crash fault does not fire.
    assert recovered.tasks_retried == len(list(iter_tasks(unit.table)))
    assert recovered.tasks_failed == 0
    assert recovered.tasks_timed_out == 0


def test_crash_recovery_with_disk_cache(unit, baseline, monkeypatch, tmp_path):
    options = api.VerifyOptions(jobs=4, cache_dir=str(tmp_path / "cache"))
    monkeypatch.setenv(faults.ENV_VAR, f"crash:{TARGET}")
    recovered = api.verify(unit, options=options)
    assert _snapshot(recovered) == _snapshot(baseline)
    assert recovered.tasks_retried == len(list(iter_tasks(unit.table)))
    # Pool and fallback outcomes alike went to the store: a warm run
    # replays every task in the parent and forks no pool at all.
    monkeypatch.delenv(faults.ENV_VAR)
    pools = count_pools(monkeypatch)
    warm = api.verify(unit, options=options)
    assert not pools
    assert warm.tasks_replayed == len(list(iter_tasks(unit.table)))
    assert warm.tasks_retried == 0
    assert _snapshot(warm) == _snapshot(baseline)


def test_crash_run_builds_exactly_one_pool(unit, baseline, monkeypatch):
    """A broken pool is not respawned: the serial fallback finishes."""
    pools = count_pools(monkeypatch)
    monkeypatch.setenv(faults.ENV_VAR, f"crash:{TARGET}")
    recovered = api.verify(unit, options=api.VerifyOptions(jobs=2))
    assert _snapshot(recovered) == _snapshot(baseline)
    assert len(pools) == 1
    assert recovered.tasks_retried == len(list(iter_tasks(unit.table)))


def test_crash_inside_batch_recovers_byte_identical(
    unit, baseline, monkeypatch
):
    """A worker dies in the middle of the run of tasks it claimed.

    With two workers the crashing one has usually finished other tasks
    first; the broken pool drops those outcomes too, and the serial
    fallback re-runs every task.
    """
    monkeypatch.setenv(faults.ENV_VAR, f"crash:{TARGET}")
    recovered = api.verify(unit, options=api.VerifyOptions(jobs=2))
    assert _snapshot(recovered) == _snapshot(baseline)
    assert recovered.tasks_retried == len(list(iter_tasks(unit.table)))
    assert recovered.tasks_failed == 0


#: the smallest program a pool can split: two tasks, each warning
TWO_TASKS = """
static int one(int x) { switch (x) { case 0: return 0; } }
static int two(int x) { switch (x) { case 1: return 1; } }
"""


def test_two_task_program_gets_the_two_workers_it_asks_for(monkeypatch):
    """``jobs=2`` means two workers, however small the program.

    A task-count floor used to run this program serially, so the crash
    never fired and nothing was retried.  ``one``'s crash breaks the
    pool, so both tasks re-run in process, however far ``two`` got.
    """
    unit = api.compile_program(TWO_TASKS)
    serial = api.verify(unit)
    pools = count_pools(monkeypatch)
    monkeypatch.setenv(faults.ENV_VAR, "crash:one")
    recovered = api.verify(unit, options=api.VerifyOptions(jobs=2))
    assert pools == [2]
    assert recovered.tasks_retried == 2
    assert len(serial.diagnostics.warnings) == 2
    assert _snapshot(recovered) == _snapshot(serial)


def test_crash_fault_never_fires_in_process(unit, baseline, monkeypatch):
    """Serial runs survive a crash spec: the fault only kills workers."""
    monkeypatch.setenv(faults.ENV_VAR, f"crash:{TARGET}")
    serial = api.verify(
        unit, options=api.VerifyOptions(cache=SolverCache(), task_timeout=30.0)
    )
    assert _snapshot(serial) == _snapshot(baseline)


# ----------------------------------------------------------------------
# per-task deadlines


def test_hung_task_times_out_parallel(unit, baseline, monkeypatch):
    monkeypatch.setenv(faults.ENV_VAR, f"hang:{TARGET}")
    report = api.verify(
        unit, options=api.VerifyOptions(jobs=4, task_timeout=1.0)
    )
    assert report.tasks_timed_out == 1
    timeouts = [
        w
        for w in report.of_kind(WarningKind.UNKNOWN)
        if "task timeout" in w.message
    ]
    assert len(timeouts) == 1
    assert TARGET in timeouts[0].message
    # The hung method is not counted as checked; every other method is.
    assert report.methods_checked == baseline.methods_checked - 1
    # Untouched obligations keep their warnings, still in task order.
    base_texts = [str(w) for w in baseline.diagnostics.warnings]
    got_texts = [str(w) for w in report.diagnostics.warnings]
    assert got_texts[0] == base_texts[0]  # f's nonexhaustive warning
    assert len(got_texts) == len(base_texts)  # g's warning -> timeout


def test_hung_task_times_out_serial(unit, monkeypatch):
    monkeypatch.setenv(faults.ENV_VAR, f"hang:{TARGET}")
    report = api.verify(
        unit, options=api.VerifyOptions(cache=SolverCache(), task_timeout=0.5)
    )
    assert report.tasks_timed_out == 1
    assert any("task timeout" in w.message for w in report.diagnostics.warnings)


def test_timeout_without_fault_changes_nothing(unit, baseline):
    for jobs in (1, 4):
        report = api.verify(
            unit,
            options=api.VerifyOptions(
                jobs=jobs,
                cache=None,
                task_timeout=60.0,
            ),
        )
        assert _snapshot(report) == _snapshot(baseline)
        assert report.tasks_timed_out == 0


def test_task_deadline_fires_and_disarms():
    import time

    with pytest.raises(TaskTimeout):
        with task_deadline(0.05):
            time.sleep(5)
    # The timer is fully disarmed afterwards: nothing fires late.
    with task_deadline(10.0):
        pass
    time.sleep(0.1)


# ----------------------------------------------------------------------
# graceful degradation of failing tasks


def test_raising_task_degrades_to_unknown(unit, baseline, monkeypatch):
    monkeypatch.setenv(faults.ENV_VAR, f"raise:{TARGET}")
    report = api.verify(unit, options=api.VerifyOptions(jobs=4))
    assert report.tasks_failed == 1
    assert report.tasks_retried >= 1
    degraded = [
        w
        for w in report.of_kind(WarningKind.UNKNOWN)
        if "FaultInjected" in w.message
    ]
    assert len(degraded) == 1 and TARGET in degraded[0].message
    assert report.methods_checked == baseline.methods_checked - 1


def test_raising_task_degrades_the_same_on_every_driver(unit, monkeypatch):
    """One fault, one behaviour: serial and pool runs report alike."""
    monkeypatch.setenv(faults.ENV_VAR, f"raise:{TARGET}")
    reports = [
        api.verify(unit, options=api.VerifyOptions(cache=None, jobs=jobs))
        for jobs in (1, 2)
    ]
    serial, pooled = ([str(w) for w in r.diagnostics.warnings] for r in reports)
    assert serial == pooled
    degraded = [text for text in serial if "failed (FaultInjected)" in text]
    assert len(degraded) == 1 and TARGET in degraded[0]
    assert [r.tasks_failed for r in reports] == [1, 1]


def test_raising_task_degrades_serially_under_timeout(unit, monkeypatch):
    monkeypatch.setenv(faults.ENV_VAR, f"raise:{TARGET}")
    report = api.verify(
        unit, options=api.VerifyOptions(cache=SolverCache(), task_timeout=30.0)
    )
    assert report.tasks_failed == 1
    assert any("FaultInjected" in w.message for w in report.diagnostics.warnings)


# ----------------------------------------------------------------------
# per-task claims: a raise or a hang in a worker costs only that task,
# while a crash or the watchdog breaks the pool and re-runs all of its
# tasks.  Every way out leaves no process behind.


#: enough tasks for more workers than cores to interleave their claims
MANY_TASKS = "".join(
    f"static int m{i}(int x) {{ switch (x) {{ case {i}: return {i}; }} }}\n"
    for i in range(48)
)


@pytest.mark.parametrize("jobs", [2, 4])
def test_workers_claim_each_task_once(jobs, monkeypatch, tmp_path):
    """Every task runs exactly once, in a worker, and the report is serial's.

    Workers are forked with the patched ``verify_method_task`` in place,
    so each claim appends its worker's pid and the task's label to a
    log.  A lost update of the shared counter would run a task twice or
    skip one.
    """
    unit = api.compile_program(MANY_TASKS)
    serial = api.verify(unit)
    log = tmp_path / "claims"
    real = parallel.verify_method_task

    def logging(task):
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()} {task.label}\n")
        return real(task)

    monkeypatch.setattr(parallel, "verify_method_task", logging)
    pools = count_pools(monkeypatch)
    report = api.verify(unit, options=api.VerifyOptions(jobs=jobs))
    assert _snapshot(report) == _snapshot(serial)
    assert report.tasks_retried == 0
    assert pools == [jobs]
    claims = [line.split(" ", 1) for line in log.read_text().splitlines()]
    assert sorted(label for _, label in claims) == sorted(
        task.label for task in iter_tasks(unit.table)
    )
    assert str(os.getpid()) not in {pid for pid, _ in claims}
    assert not multiprocessing.active_children()


def test_raise_in_a_worker_costs_only_that_task(unit, baseline, monkeypatch):
    monkeypatch.setenv(faults.ENV_VAR, f"raise:{TARGET}")
    report = api.verify(unit, options=api.VerifyOptions(jobs=2))
    assert report.tasks_failed == 1
    # Only the poisoned task took the serial-fallback path; the other
    # tasks kept the outcomes their workers sent.
    assert report.tasks_retried == 1
    degraded = [
        w
        for w in report.of_kind(WarningKind.UNKNOWN)
        if "FaultInjected" in w.message
    ]
    assert len(degraded) == 1 and TARGET in degraded[0].message
    assert report.methods_checked == baseline.methods_checked - 1
    # The other warning-bearing method (f) kept its warning verbatim.
    base_texts = [str(w) for w in baseline.diagnostics.warnings]
    got_texts = [str(w) for w in report.diagnostics.warnings]
    assert got_texts[0] == base_texts[0]


def test_hang_in_a_worker_times_out_only_that_task(
    unit, baseline, monkeypatch
):
    monkeypatch.setenv(faults.ENV_VAR, f"hang:{TARGET}")
    report = api.verify(
        unit, options=api.VerifyOptions(jobs=2, task_timeout=1.0)
    )
    assert report.tasks_timed_out == 1
    # The worker's own alarm cut the task off: nothing re-ran.
    assert report.tasks_retried == 0
    timeouts = [
        w
        for w in report.of_kind(WarningKind.UNKNOWN)
        if "task timeout" in w.message
    ]
    assert len(timeouts) == 1 and TARGET in timeouts[0].message
    # The other tasks still completed in their workers.
    assert report.methods_checked == baseline.methods_checked - 1
    assert len(report.diagnostics.warnings) == len(
        baseline.diagnostics.warnings
    )


def lose_alarms_in_workers(monkeypatch) -> None:
    """Workers forked from now on never arm their task deadline.

    That is the case the watchdog exists for (a lost alarm, a worker
    wedged in native code): a hung worker would spin forever.  The
    stall window shrinks to 0.3 s so that tests do not wait for it.
    """
    real = parallel.task_deadline

    def deadline(seconds):
        if faults.in_worker():
            return contextlib.nullcontext()
        return real(seconds)

    monkeypatch.setattr(parallel, "task_deadline", deadline)
    monkeypatch.setattr(parallel, "_stall_window", lambda seconds: 0.3)


def test_watchdog_breaks_a_silent_pool(unit, baseline, monkeypatch):
    """No completion for the stall window: kill the workers, re-run all.

    The hung worker's alarm is lost, so only the watchdog ends the pool;
    every task re-runs in process, and there the hung task times out.
    """
    lose_alarms_in_workers(monkeypatch)
    monkeypatch.setenv(faults.ENV_VAR, f"hang:{TARGET}")
    pools = count_pools(monkeypatch)
    report = api.verify(
        unit, options=api.VerifyOptions(jobs=2, task_timeout=1.0)
    )
    assert pools == [2]
    assert report.tasks_retried == len(list(iter_tasks(unit.table)))
    assert report.tasks_timed_out == 1
    assert report.methods_checked == baseline.methods_checked - 1
    assert not multiprocessing.active_children()


#: runs one pool under the fault in ``REPRO_FAULT`` and fails unless
#: the process is left without a child, running or unreaped
NO_CHILD_LEFT = """
import multiprocessing, os, sys
import pytest
from repro import api
from tests.verify.test_fault_tolerance import lose_alarms_in_workers

lose_alarms_in_workers(pytest.MonkeyPatch())
timeout = float(sys.argv[1]) if sys.argv[1] else None
report = api.verify(
    api.compile_program(sys.stdin.read()),
    options=api.VerifyOptions(jobs=2, task_timeout=timeout),
)
assert multiprocessing.active_children() == []
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    pass
else:
    sys.exit("a child process is left")
print(report.tasks_retried, report.tasks_timed_out)
"""


@pytest.mark.parametrize("fault, timeout, counts", [
    ("", "", "0 0"),
    (f"crash:{TARGET}", "", "6 0"),
    (f"hang:{TARGET}", "1.0", "6 1"),
])
def test_no_process_is_left_running(fault, timeout, counts):
    """A normal, a crashed and a watchdog-killed pool reap every worker.

    Each runs in a fresh interpreter, so ``os.waitpid(-1, ...)`` sees
    only the pool's children.
    """
    env = dict(os.environ, REPRO_FAULT=fault)
    env["PYTHONPATH"] = os.pathsep.join([
        os.path.dirname(os.path.dirname(repro.__file__)),
        os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
    ])
    done = subprocess.run(
        [sys.executable, "-c", NO_CHILD_LEFT, timeout],
        input=SOURCE, capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == counts.split()


# ----------------------------------------------------------------------
# accounting and the fault spec itself


def test_accounting_reaches_the_stats_table(unit, monkeypatch):
    monkeypatch.setenv(faults.ENV_VAR, f"raise:{TARGET}")
    report = api.verify(unit, options=api.VerifyOptions(jobs=4))
    table = format_stats(report.solver_stats.to_dict())
    assert "tasks:" in table
    assert "1 failed" in table


def test_merged_stats_sum_pipeline_counters():
    from repro.metrics.solver_stats import VerifyStats

    a = VerifyStats(tasks_retried=2, tasks_timed_out=1)
    b = VerifyStats(tasks_retried=1, tasks_failed=3)
    a.merge(b)
    assert (a.tasks_retried, a.tasks_timed_out, a.tasks_failed) == (3, 1, 3)


def test_unknown_fault_spec_is_rejected(unit, monkeypatch):
    monkeypatch.setenv(faults.ENV_VAR, "explode:g")
    with pytest.raises(ValueError):
        faults.active_fault()
    monkeypatch.setenv(faults.ENV_VAR, "crash:")
    with pytest.raises(ValueError):
        faults.active_fault()
    # Every driver rejects it up front, not one degraded task at a time.
    with pytest.raises(ValueError):
        api.verify(unit, options=api.VerifyOptions(cache=None))
    with pytest.raises(ValueError):
        api.verify(unit, options=api.VerifyOptions(jobs=4))
    with pytest.raises(ValueError):
        api.verify(
            unit, options=api.VerifyOptions(cache=None, task_timeout=30.0)
        )


def test_fault_spec_round_trip(monkeypatch):
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    assert faults.active_fault() is None
    monkeypatch.setenv(faults.ENV_VAR, "hang:List.snoc")
    assert faults.active_fault() == ("hang", "List.snoc")
    monkeypatch.setenv(faults.ENV_VAR, "corrupt-cache")
    assert faults.active_fault() == ("corrupt-cache", "")
    assert faults.corrupt_cache_writes()
