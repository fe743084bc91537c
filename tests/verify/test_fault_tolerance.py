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
  UNKNOWN-style warning after its serial-fallback retry;
* the accounting (``tasks_retried`` / ``tasks_timed_out`` /
  ``tasks_failed``) must land on the report and ``--stats``.
"""

import pytest

from repro import api
from repro.errors import WarningKind
from repro.smt.cache import SolverCache
from repro.verify import faults
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
    # The pool crashed (twice: first round and retry round), so the
    # target was re-executed at least once before the serial fallback
    # completed it in-process.
    assert recovered.tasks_retried >= 1
    assert recovered.tasks_failed == 0
    assert recovered.tasks_timed_out == 0


def test_crash_recovery_with_disk_cache(unit, baseline, monkeypatch, tmp_path):
    monkeypatch.setenv(faults.ENV_VAR, f"crash:{TARGET}")
    recovered = api.verify(
        unit,
        options=api.VerifyOptions(jobs=4, cache_dir=str(tmp_path / "cache")),
    )
    assert _snapshot(recovered) == _snapshot(baseline)
    assert recovered.tasks_retried >= 1


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


def test_raising_task_degrades_serially_under_timeout(unit, monkeypatch):
    monkeypatch.setenv(faults.ENV_VAR, f"raise:{TARGET}")
    report = api.verify(
        unit, options=api.VerifyOptions(cache=SolverCache(), task_timeout=30.0)
    )
    assert report.tasks_failed == 1
    assert any("FaultInjected" in w.message for w in report.diagnostics.warnings)


# ----------------------------------------------------------------------
# batch granularity: a fault inside a batch costs only that batch's
# unfinished members (the REPRO_FAULT label matches per member, since
# batches consult the harness one task at a time)


def test_batched_run_without_faults_is_byte_identical(unit, baseline):
    for batch_size in (1, 2, 5):
        report = api.verify(
            unit,
            options=api.VerifyOptions(
                jobs=2,
                cache=None,
                batch_size=batch_size,
            ),
        )
        assert _snapshot(report) == _snapshot(baseline)
        assert report.tasks_retried == 0


def test_raise_inside_batch_degrades_only_that_member(
    unit, baseline, monkeypatch
):
    monkeypatch.setenv(faults.ENV_VAR, f"raise:{TARGET}")
    report = api.verify(unit, options=api.VerifyOptions(jobs=2, batch_size=3))
    assert report.tasks_failed == 1
    # Only the poisoned member took the serial-fallback path; its
    # batchmates' outcomes from the same submission were kept.
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


def test_crash_inside_batch_recovers_byte_identical(
    unit, baseline, monkeypatch
):
    monkeypatch.setenv(faults.ENV_VAR, f"crash:{TARGET}")
    recovered = api.verify(
        unit, options=api.VerifyOptions(jobs=2, batch_size=3)
    )
    assert _snapshot(recovered) == _snapshot(baseline)
    # The retry round re-batches at size 1, so the crashing member is
    # isolated before the serial fallback completes it in-process.
    assert recovered.tasks_retried >= 1
    assert recovered.tasks_failed == 0


def test_hang_inside_batch_times_out_only_that_member(
    unit, baseline, monkeypatch
):
    monkeypatch.setenv(faults.ENV_VAR, f"hang:{TARGET}")
    report = api.verify(
        unit, options=api.VerifyOptions(jobs=2, batch_size=3, task_timeout=1.0)
    )
    assert report.tasks_timed_out == 1
    timeouts = [
        w
        for w in report.of_kind(WarningKind.UNKNOWN)
        if "task timeout" in w.message
    ]
    assert len(timeouts) == 1 and TARGET in timeouts[0].message
    # Batchmates after the hung member still completed in-batch.
    assert report.methods_checked == baseline.methods_checked - 1
    assert len(report.diagnostics.warnings) == len(
        baseline.diagnostics.warnings
    )


# ----------------------------------------------------------------------
# accounting and the fault spec itself


def test_accounting_reaches_the_stats_table(unit, monkeypatch):
    monkeypatch.setenv(faults.ENV_VAR, f"raise:{TARGET}")
    report = api.verify(unit, options=api.VerifyOptions(jobs=4))
    table = report.solver_stats.format_table()
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
    # The pipeline rejects it up front, not one degraded task at a time.
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
