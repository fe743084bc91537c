"""The ``--cache-dir`` task-outcome store (:mod:`repro.verify.store`).

The store keeps whole task outcomes under their dependency
fingerprints.  Outcomes written by one process are replayed by
another, a format bump or a changed verifier retires every entry,
corrupt entries degrade to misses, concurrent writers never make a
reader observe a torn entry, and nothing inconclusive reaches the
disk.
"""

import json
import pickle
import threading

import pytest

from repro import api
from repro.errors import Warning, WarningKind
from repro.smt import SolverCache
from repro.verify import store as store_module
from repro.verify.daemon import VerifyDaemon
from repro.verify.parallel import TaskOutcome
from repro.verify.store import OutcomeStore
from repro.verify.verifier import VerifyTask, iter_tasks

NAT_SWITCH = """
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
"""

TASK = VerifyTask("function", method_name="f")


def _unit():
    return api.compile_program(NAT_SWITCH, filename="nat_switch.jm")


def _tasks(unit):
    return len(list(iter_tasks(unit.table)))


def _verify(unit, cache_dir, cache=None, **options):
    return api.verify(
        unit,
        options=api.VerifyOptions(
            cache=SolverCache() if cache is None else cache,
            cache_dir=str(cache_dir),
            **options,
        ),
    )


def _warnings(report):
    return [str(w) for w in report.diagnostics.warnings]


def _entries(cache_dir):
    """Every published entry file under a store root."""
    return [
        path
        for path in cache_dir.rglob("*")
        if path.is_file() and not path.name.startswith(".")
    ]


def _outcome(tag=0, warnings=()):
    return TaskOutcome(warnings=list(warnings), methods_checked=tag)


def test_verdict_survives_into_a_fresh_memory_tier(tmp_path):
    unit = _unit()
    cold = _verify(unit, tmp_path)
    assert cold.tasks_replayed == 0
    assert _entries(tmp_path)

    # A fresh SolverCache simulates a new process: only the store can
    # answer, and it answers every task without one query-cache lookup.
    fresh = SolverCache()
    warm = _verify(unit, tmp_path, cache=fresh)
    assert warm.tasks_replayed == _tasks(unit)
    assert fresh.hits == fresh.misses == 0
    assert _warnings(warm) == _warnings(cold)


def test_disk_hit_reproduces_the_model(tmp_path):
    unit = _unit()
    cold = _verify(unit, tmp_path)
    (warning,) = cold.diagnostics.warnings
    assert warning.counterexample
    warm = _verify(unit, tmp_path)
    assert warm.tasks_replayed == _tasks(unit)
    (replayed,) = warm.diagnostics.warnings
    assert replayed.counterexample == warning.counterexample
    assert str(replayed) == str(warning)


def _daemon_verify(daemon, path):
    response = daemon.handle_line(
        json.dumps({"id": 1, "op": "verify", "paths": [path]})
    )
    assert response["ok"], response
    return response["result"]


def test_disk_hit_promotes_into_memory(tmp_path):
    path = tmp_path / "nat_switch.jm"
    path.write_text(NAT_SWITCH)
    store_dir = tmp_path / "outcomes"
    cold = _daemon_verify(VerifyDaemon(cache_dir=str(store_dir)), str(path))
    assert cold["dep_hits"] == 0 and cold["dep_misses"] > 0

    # A fresh daemon starts warm from the store ...
    daemon = VerifyDaemon(cache_dir=str(store_dir))
    first = _daemon_verify(daemon, str(path))
    assert first["dep_misses"] == 0
    assert first["dep_hits"] == cold["dep_misses"]
    # ... and keeps what it read in memory: with the store emptied,
    # the next request still replays every task.
    for entry in _entries(store_dir):
        entry.unlink()
    second = _daemon_verify(daemon, str(path))
    assert second["dep_misses"] == 0
    assert not _entries(store_dir)
    report = second["files"][0]["report"]
    assert report["warnings"] == cold["files"][0]["report"]["warnings"]


def test_format_version_salt_invalidates_old_entries(tmp_path, monkeypatch):
    unit = _unit()
    _verify(unit, tmp_path)
    written = len(_entries(tmp_path))
    assert written == _tasks(unit)

    monkeypatch.setattr(
        OutcomeStore, "ENTRY_FORMAT", OutcomeStore.ENTRY_FORMAT + 1
    )
    assert not OutcomeStore(tmp_path, "").dir.exists()
    assert _verify(unit, tmp_path).tasks_replayed == 0
    assert len(_entries(tmp_path)) == 2 * written

    # A changed verifier source retires every entry the same way.
    monkeypatch.setattr(store_module, "source_digest", lambda: "upgraded")
    assert _verify(unit, tmp_path).tasks_replayed == 0
    assert _verify(unit, tmp_path).tasks_replayed == _tasks(unit)


def test_corrupt_entry_is_dropped_and_resolved(tmp_path):
    unit = _unit()
    cold = _verify(unit, tmp_path)
    entries = _entries(tmp_path)
    assert entries
    for entry in entries:
        entry.write_bytes(b"\x80\x04 not a store entry")

    second = _verify(unit, tmp_path)
    assert second.tasks_replayed == 0
    assert _warnings(second) == _warnings(cold)
    # The bad entries were deleted and re-stored; a third run replays.
    third = _verify(unit, tmp_path)
    assert third.tasks_replayed == _tasks(unit)

    store = OutcomeStore(tmp_path / "direct", "sig")
    store.put(TASK, "fp", _outcome())
    (entry,) = _entries(tmp_path / "direct")
    entry.write_bytes(b"garbage")
    assert store.get(TASK, "fp") is None
    assert store.errors == 1 and store.hits == 0
    assert not entry.exists()


def test_wrong_digest_inside_entry_is_rejected(tmp_path):
    store = OutcomeStore(tmp_path, "sig")
    store.put(TASK, "fp1", _outcome())
    path = store._path(store._key("fp1"))
    other = store._path(store._key("fp2"))
    other.parent.mkdir(parents=True, exist_ok=True)
    path.replace(other)  # entry now lives under the wrong key
    assert store.get(TASK, "fp2") is None
    assert store.errors == 1
    # An entry of another task under this task's key is rejected too.
    store.put(TASK, "fp3", _outcome())
    assert store.get(VerifyTask("function", method_name="g"), "fp3") is None
    assert store.errors == 2


def test_unknown_is_never_written_to_disk(tmp_path):
    store = OutcomeStore(tmp_path, "sig")
    unknown = _outcome()
    unknown.stats.total.unknown = 1
    timed_out = _outcome()
    timed_out.stats.tasks_timed_out = 1
    failed = _outcome()
    failed.stats.tasks_failed = 1
    for outcome in (unknown, timed_out, failed):
        store.put(TASK, "fp", outcome)
    assert not _entries(tmp_path) and store.stores == 0

    # End to end: a starved budget makes f's query UNKNOWN, so f's
    # outcome is never kept and the next run derives it again.
    unit = _unit()
    starved = _verify(unit, tmp_path / "run", budget=0.0)
    assert starved.solver_stats.total.unknown > 0
    again = _verify(unit, tmp_path / "run", budget=0.0)
    assert again.tasks_replayed < _tasks(unit)
    assert again.solver_stats.total.unknown > 0


def test_store_failures_are_silent(tmp_path):
    blocker = tmp_path / "outcomes"
    blocker.write_text("a file where the store directory should be")
    store = OutcomeStore(blocker, "sig")
    store.put(TASK, "fp", _outcome())  # the write fails, quietly
    assert store.errors == 1
    assert not store.dir.exists()
    assert store.get(TASK, "fp") is None


def test_unpicklable_snapshot_is_counted_not_raised(tmp_path):
    """put() must survive an outcome pickle refuses (the contract says
    best-effort, so serialization belongs inside the guard)."""
    store = OutcomeStore(tmp_path, "sig")
    store.put(TASK, "fp", _outcome(warnings=[lambda: None]))
    assert store.errors == 1
    assert store.stores == 0
    assert not _entries(tmp_path)
    # The store keeps working for well-behaved outcomes afterwards.
    store.put(TASK, "fp", _outcome())
    assert store.stores == 1


def test_too_deep_snapshot_is_counted_not_raised(tmp_path):
    store = OutcomeStore(tmp_path, "sig")
    deep = []
    tail = deep
    for _ in range(100_000):
        tail.append([])
        tail = tail[0]
    store.put(TASK, "fp", _outcome(warnings=[deep]))  # RecursionError
    assert store.errors == 1
    assert not _entries(tmp_path)


def test_truncated_entry_degrades_to_miss(tmp_path):
    unit = _unit()
    cold = _verify(unit, tmp_path)
    for entry in _entries(tmp_path):
        payload = entry.read_bytes()
        entry.write_bytes(payload[: len(payload) // 2])
    second = _verify(unit, tmp_path)
    assert second.tasks_replayed == 0
    assert _warnings(second) == _warnings(cold)


def test_readonly_cache_dir_never_raises(tmp_path, monkeypatch):
    """A store rooted on an unwritable filesystem counts errors and
    otherwise stays out of the way."""
    from pathlib import Path

    real_mkdir = Path.mkdir

    def deny(self, *args, **kwargs):
        if str(self).startswith(str(tmp_path / "ro")):
            raise PermissionError(13, "Read-only file system", str(self))
        return real_mkdir(self, *args, **kwargs)

    monkeypatch.setattr(Path, "mkdir", deny)
    store = OutcomeStore(tmp_path / "ro", "sig")
    store.put(TASK, "fp", _outcome())
    assert store.errors >= 1
    assert not store.dir.exists()
    unit = _unit()
    report = _verify(unit, tmp_path / "ro")
    assert report.methods_checked == 3
    assert not (tmp_path / "ro").exists()


def test_readonly_cache_dir_run_still_succeeds(tmp_path):
    """End to end: verification works with --cache-dir on a path that
    cannot be created (here: a regular file squats on it)."""
    blocker = tmp_path / "cachefile"
    blocker.write_text("not a directory")
    source = """
static int double(int x) {
  return x * 2;
}
"""
    unit = api.compile_program(source)
    report = _verify(unit, blocker)
    assert report.methods_checked == 1
    assert report.tasks_replayed == 0


def test_cache_dir_applies_to_its_own_run_only(tmp_path):
    """A run's cache_dir never outlives the run, so a later run with
    the same cache and no cache_dir neither replays nor writes."""
    cache = SolverCache()
    unit = _unit()
    _verify(unit, tmp_path, cache=cache)
    written = len(_entries(tmp_path))
    assert written > 0
    assert not hasattr(cache, "disk")
    other = api.compile_program(
        NAT_SWITCH + "static int g(int x) { return x; }\n"
    )
    report = api.verify(other, options=api.VerifyOptions(cache=cache))
    assert report.tasks_replayed == 0
    assert report.solver_stats.total.queries > 0
    assert len(_entries(tmp_path)) == written


def test_corrupt_cache_fault_truncates_writes(tmp_path, monkeypatch):
    """REPRO_FAULT=corrupt-cache: every published entry is torn; a later
    clean run counts and drops them, and the verdicts still come out."""
    unit = _unit()
    monkeypatch.setenv("REPRO_FAULT", "corrupt-cache")
    torn = _verify(unit, tmp_path)
    assert len(_entries(tmp_path)) == _tasks(unit)  # the writes succeeded
    monkeypatch.delenv("REPRO_FAULT")
    second = _verify(unit, tmp_path)
    assert second.tasks_replayed == 0
    assert _warnings(second) == _warnings(torn)
    # The torn entries were dropped and re-stored intact: now they hit.
    third = _verify(unit, tmp_path)
    assert third.tasks_replayed == _tasks(unit)


def test_cache_dir_alone_turns_the_store_on(tmp_path):
    # Task outcomes are the one reuse across runs: without a query
    # cache (the default), a cache_dir still keeps and replays them.
    unit = _unit()
    options = api.VerifyOptions(cache_dir=str(tmp_path))
    assert options.cache is None
    cold = api.verify(unit, options=options)
    assert cold.tasks_replayed == 0
    assert len(_entries(tmp_path)) == _tasks(unit)
    warm = api.verify(unit, options=options)
    assert warm.tasks_replayed == _tasks(unit)
    assert _warnings(warm) == _warnings(cold)


def test_clear_drops_only_memory(tmp_path):
    cache = SolverCache()
    unit = _unit()
    _verify(unit, tmp_path, cache=cache)
    assert len(cache) > 0
    cache.clear()
    assert len(cache) == 0
    assert len(_entries(tmp_path)) == _tasks(unit)
    assert _verify(unit, tmp_path, cache=cache).tasks_replayed == _tasks(unit)


def test_concurrent_writers_never_tear_an_entry(tmp_path):
    """Racing puts on one key: readers only ever see complete entries.

    Each writer thread uses its own OutcomeStore (modelling concurrent
    CLI runs) and repeatedly publishes a large outcome under the same
    fingerprint while readers hammer get().  Every successful get must
    decode to one of the published outcomes in full -- a torn read
    would fail to unpickle and surface as an error.
    """
    span_free = [
        Warning(WarningKind.NONEXHAUSTIVE, f"message {i}") for i in range(2048)
    ]
    outcomes = {tag: _outcome(tag, span_free) for tag in range(4)}
    # Pickle once before the threads start: the first pickling of an
    # instance builds its __dict__, the writers share instances, and
    # building them from several threads at once crashed CPython 3.11's
    # garbage collector under -X dev.
    pickle.dumps(outcomes)
    stop = threading.Event()
    problems: list[str] = []

    def writer(tag):
        store = OutcomeStore(tmp_path, "sig")
        while not stop.is_set():
            store.put(TASK, "fp", outcomes[tag])

    def reader():
        store = OutcomeStore(tmp_path, "sig")
        seen = 0
        while not stop.is_set() or seen == 0:
            loaded = store.get(TASK, "fp")
            if loaded is None:
                continue
            seen += 1
            if loaded != outcomes[loaded.methods_checked]:
                problems.append("observed a torn or mixed entry")
                return
        if store.errors:
            problems.append(f"{store.errors} unreadable entries during race")

    threads = [threading.Thread(target=writer, args=(t,)) for t in range(4)]
    threads += [threading.Thread(target=reader) for _ in range(2)]
    for t in threads:
        t.start()
    timer = threading.Timer(1.0, stop.set)
    timer.start()
    for t in threads:
        t.join(timeout=30)
    timer.cancel()
    stop.set()
    assert not problems, problems
    assert OutcomeStore(tmp_path, "sig").get(TASK, "fp") is not None


@pytest.fixture(autouse=True)
def _no_fault(monkeypatch):
    monkeypatch.delenv("REPRO_FAULT", raising=False)
