"""The persistent verdict tier (repro.smt.diskcache).

Covers the contract the parallel engine relies on: verdicts written by
one process are hit by another, a format-version bump invalidates
everything, corrupt entries degrade to misses, concurrent writers can
never make a reader observe a torn entry, and UNKNOWN never touches
the disk.
"""

import os
import pickle
import threading

import pytest

from repro.smt import INT, Result, Solver, SolverCache, mk_eq, mk_ge, mk_int, mk_le, mk_var
from repro.smt.cache import GLOBAL_CACHE
from repro.smt.diskcache import DiskCache


def ivar(name):
    return mk_var(name, INT)


def _tiered(tmp_path):
    return SolverCache(disk=DiskCache(tmp_path / "verdicts"))


def _solve_pinned(cache, name="disk_x", value=7):
    solver = Solver(cache=cache)
    solver.add(mk_eq(ivar(name), mk_int(value)))
    return solver.check()


def test_verdict_survives_into_a_fresh_memory_tier(tmp_path):
    first = _tiered(tmp_path)
    assert _solve_pinned(first) == Result.SAT
    assert first.disk.stores == 1

    # A fresh SolverCache simulates a new process: the memory tier is
    # empty, so only the disk can answer.
    second = _tiered(tmp_path)
    assert _solve_pinned(second) == Result.SAT
    assert second.hits == 1
    assert second.disk.hits == 1


def test_disk_hit_reproduces_the_model(tmp_path):
    from repro.smt.solver import eval_int

    first = _tiered(tmp_path)
    assert _solve_pinned(first, "disk_m1") == Result.SAT

    second = _tiered(tmp_path)
    y = ivar("disk_m2")
    solver = Solver(cache=second)
    solver.add(mk_eq(y, mk_int(7)))
    assert solver.check() == Result.SAT
    assert second.disk.hits == 1
    assert eval_int(y, solver.model()) == 7


def test_disk_hit_promotes_into_memory(tmp_path):
    first = _tiered(tmp_path)
    assert _solve_pinned(first) == Result.SAT

    second = _tiered(tmp_path)
    assert _solve_pinned(second) == Result.SAT
    assert _solve_pinned(second) == Result.SAT
    # Second solve of the same query answers from memory, not disk.
    assert second.disk.hits == 1
    assert second.hits == 2


def test_format_version_salt_invalidates_old_entries(tmp_path, monkeypatch):
    first = _tiered(tmp_path)
    assert _solve_pinned(first) == Result.SAT
    assert len(first.disk) == 1

    monkeypatch.setattr(DiskCache, "ENTRY_FORMAT", DiskCache.ENTRY_FORMAT + 1)
    second = _tiered(tmp_path)
    assert len(second.disk) == 0
    assert _solve_pinned(second) == Result.SAT
    assert second.disk.hits == 0 and second.disk.stores == 1


def test_corrupt_entry_is_dropped_and_resolved(tmp_path):
    first = _tiered(tmp_path)
    assert _solve_pinned(first) == Result.SAT

    # Truncate/garble every entry on disk.
    corrupted = 0
    for shard in first.disk.dir.iterdir():
        for entry in shard.iterdir():
            entry.write_bytes(b"\x80\x04 not a cache entry")
            corrupted += 1
    assert corrupted == 1

    second = _tiered(tmp_path)
    assert _solve_pinned(second) == Result.SAT
    assert second.disk.errors == 1
    assert second.disk.hits == 0
    # The bad entry was deleted and re-stored; a third tier now hits.
    third = _tiered(tmp_path)
    assert _solve_pinned(third) == Result.SAT
    assert third.disk.hits == 1


def test_wrong_digest_inside_entry_is_rejected(tmp_path):
    disk = DiskCache(tmp_path / "verdicts")
    disk.store(b"\x01" * 32, "sat", None)
    path = disk._path(b"\x01" * 32)
    other = disk._path(b"\x02" * 32)
    other.parent.mkdir(parents=True, exist_ok=True)
    os.replace(path, other)  # entry now lives under the wrong key
    assert disk.load(b"\x02" * 32) is None
    assert disk.errors == 1


def test_unknown_is_never_written_to_disk(tmp_path):
    cache = _tiered(tmp_path)
    solver = Solver(cache=cache, time_budget=1e-9)
    x = ivar("disk_unknown")
    solver.add(mk_ge(x, mk_int(0)))
    solver.add(mk_le(x, mk_int(10)))
    assert solver.check() == Result.UNKNOWN
    assert len(cache.disk) == 0


def test_store_failures_are_silent(tmp_path):
    blocker = tmp_path / "verdicts"
    blocker.write_text("a file where the cache directory should be")
    cache = SolverCache(disk=DiskCache(blocker))
    assert _solve_pinned(cache) == Result.SAT  # solve works, store fails
    assert cache.disk.errors >= 1
    assert len(cache.disk) == 0


def test_unpicklable_snapshot_is_counted_not_raised(tmp_path):
    """store() must survive a snapshot pickle refuses (the contract says
    best-effort, so serialization belongs inside the guard)."""
    disk = DiskCache(tmp_path / "verdicts")
    disk.store(b"\x03" * 32, "sat", lambda: None)  # closures don't pickle
    assert disk.errors == 1
    assert disk.stores == 0
    assert len(disk) == 0
    # The cache keeps working for well-behaved entries afterwards.
    disk.store(b"\x04" * 32, "sat", None)
    assert disk.stores == 1


def test_too_deep_snapshot_is_counted_not_raised(tmp_path):
    disk = DiskCache(tmp_path / "verdicts")
    deep = []
    tail = deep
    for _ in range(100_000):
        tail.append([])
        tail = tail[0]
    disk.store(b"\x05" * 32, "sat", deep)  # RecursionError inside pickle
    assert disk.errors == 1
    assert len(disk) == 0


def test_truncated_entry_degrades_to_miss(tmp_path):
    first = _tiered(tmp_path)
    assert _solve_pinned(first) == Result.SAT
    for shard in first.disk.dir.iterdir():
        for entry in shard.iterdir():
            payload = entry.read_bytes()
            entry.write_bytes(payload[: len(payload) // 2])
    second = _tiered(tmp_path)
    assert _solve_pinned(second) == Result.SAT
    assert second.disk.errors == 1 and second.disk.hits == 0


def test_readonly_cache_dir_never_raises(tmp_path, monkeypatch):
    """A cache rooted on an unwritable filesystem counts errors and
    otherwise stays out of the way."""
    from pathlib import Path

    real_mkdir = Path.mkdir

    def deny(self, *args, **kwargs):
        if str(self).startswith(str(tmp_path / "ro")):
            raise PermissionError(13, "Read-only file system", str(self))
        return real_mkdir(self, *args, **kwargs)

    monkeypatch.setattr(Path, "mkdir", deny)
    cache = SolverCache(disk=DiskCache(tmp_path / "ro"))
    assert _solve_pinned(cache) == Result.SAT
    assert cache.disk.errors >= 1
    assert len(cache.disk) == 0


def test_readonly_cache_dir_run_still_succeeds(tmp_path, monkeypatch):
    """End to end: verification works with --cache-dir on a path that
    cannot be created (here: a regular file squats on it)."""
    from repro import api

    blocker = tmp_path / "cachefile"
    blocker.write_text("not a directory")
    source = """
static int double(int x) {
  return x * 2;
}
"""
    unit = api.compile_program(source)
    report = api.verify(
        unit,
        options=api.VerifyOptions(cache=SolverCache(), cache_dir=str(blocker)),
    )
    assert report.methods_checked == 1


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


def test_cache_dir_applies_to_its_own_run_only(tmp_path):
    """A run's cache_dir never stays attached to the caller's cache, so
    a later run with the same cache and no cache_dir writes nothing
    there."""
    from repro import api

    verdicts = tmp_path / "verdicts"
    cache = SolverCache()
    api.verify(
        api.compile_program(NAT_SWITCH),
        options=api.VerifyOptions(cache=cache, cache_dir=str(verdicts)),
    )
    written = len(DiskCache(verdicts))
    assert written > 0
    assert cache.disk is None
    # Another program: its queries miss, and are solved and stored.
    other = NAT_SWITCH + "static int g(int x) { return x; }\n"
    report = api.verify(
        api.compile_program(other), options=api.VerifyOptions(cache=cache)
    )
    assert report.solver_stats.total.cache_misses > 0
    assert len(DiskCache(verdicts)) == written


def test_corrupt_cache_fault_truncates_writes(tmp_path, monkeypatch):
    """REPRO_FAULT=corrupt-cache: every published entry is torn; a later
    clean run counts and drops them, and the verdicts still come out."""
    monkeypatch.setenv("REPRO_FAULT", "corrupt-cache")
    first = _tiered(tmp_path)
    assert _solve_pinned(first) == Result.SAT
    assert first.disk.stores == 1  # the (torn) write itself succeeded
    monkeypatch.delenv("REPRO_FAULT")
    second = _tiered(tmp_path)
    assert _solve_pinned(second) == Result.SAT
    assert second.disk.errors == 1
    assert second.disk.hits == 0
    # The torn entry was dropped and re-stored intact: now it hits.
    third = _tiered(tmp_path)
    assert _solve_pinned(third) == Result.SAT
    assert third.disk.hits == 1


def test_global_cache_has_no_disk_tier():
    assert GLOBAL_CACHE.disk is None


def test_clear_drops_only_memory(tmp_path):
    cache = _tiered(tmp_path)
    assert _solve_pinned(cache) == Result.SAT
    cache.clear()
    assert len(cache) == 0
    assert len(cache.disk) == 1


def test_concurrent_writers_never_tear_an_entry(tmp_path):
    """Racing stores on one key: readers only ever see complete entries.

    Each writer thread uses its own DiskCache instance (modelling
    concurrent CLI runs / pool workers) and repeatedly publishes a
    large payload under the same digest while readers hammer load().
    Every successful load must decode to one of the published payloads
    in full — a torn read would fail the pickle or the digest check and
    surface as an error.
    """
    digest = bytes(range(32))
    payloads = {
        tag: ("sat", [(("v", 0, "Int", tag), tag)] * 2048) for tag in range(4)
    }
    stop = threading.Event()
    problems: list[str] = []

    def writer(tag):
        disk = DiskCache(tmp_path / "verdicts")
        while not stop.is_set():
            disk.store(digest, *payloads[tag])

    def reader():
        disk = DiskCache(tmp_path / "verdicts")
        seen = 0
        while not stop.is_set() or seen == 0:
            loaded = disk.load(digest)
            if loaded is None:
                continue
            seen += 1
            if loaded not in [tuple(p) for p in payloads.values()]:
                problems.append("observed a torn or mixed entry")
                return
        if disk.errors:
            problems.append(f"{disk.errors} unreadable entries during race")

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
    assert DiskCache(tmp_path / "verdicts").load(digest) is not None
