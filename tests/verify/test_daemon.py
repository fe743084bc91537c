"""The verification daemon: protocol, dependency index, warm serving.

Three layers, cheapest first: protocol unit tests (pure functions),
in-process daemon tests (``handle_line`` without a socket), and socket
tests against a daemon thread — plus one real auto-spawned daemon
subprocess exercising the CLI path end to end.
"""

import _thread
import json
import os
import re
import socket as socket_module
import subprocess
import sys
import threading
import time

import pytest

from repro import api
from repro.cli import main
from repro.verify import store as store_module
from repro.verify.daemon import (
    DaemonClient,
    DaemonError,
    VerifyDaemon,
    daemon_version,
    ensure_daemon,
    fingerprint_tasks,
    task_fingerprint,
)
from repro.verify.daemon import protocol
from repro.verify.verifier import iter_tasks

CLEAN = """
static int double(int x) {
  return x * 2;
}
"""

BUGGY = """
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
    case succ(Nat p): return 1;
  }
}
"""

#: BUGGY with f's switch under a path condition, which leaves it to
#: SMT: f asks queries, where the pattern algebra decides BUGGY's f
#: without one
QUERYING = """
interface Nat {
  invariant(this = zero() | succ(_));
  constructor zero() matches(notall(result)) returns();
  constructor succ(Nat n) matches(notall(result)) returns(n);
}
static int f(Nat n, int k) {
  if (k > 0) {
    switch (n) {
      case succ(Nat p): return 1;
    }
  }
  return 0;
}
static int g(Nat n) {
  switch (n) {
    case zero(): return 0;
    case succ(Nat p): return 1;
  }
}
"""


@pytest.fixture(autouse=True)
def no_disk_cache(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", "")


@pytest.fixture
def program(tmp_path):
    def write(source, name="program.jm"):
        path = tmp_path / name
        path.write_text(source)
        return str(path)

    return write


def request_line(op, request_id=1, **params):
    return json.dumps({"id": request_id, "op": op, **params})


# -- protocol ----------------------------------------------------------


def test_parse_request_bad_json_is_structured():
    request, error = protocol.parse_request("{nope")
    assert request is None
    assert error["ok"] is False
    assert error["id"] is None
    assert error["error"]["code"] == protocol.ERROR_PARSE


def test_parse_request_non_object():
    _, error = protocol.parse_request("[1, 2]")
    assert error["error"]["code"] == protocol.ERROR_INVALID_REQUEST


def test_parse_request_missing_op_recovers_id():
    _, error = protocol.parse_request('{"id": 42}')
    assert error["id"] == 42
    assert error["error"]["code"] == protocol.ERROR_INVALID_REQUEST


def test_parse_request_unknown_op():
    _, error = protocol.parse_request('{"id": 7, "op": "frobnicate"}')
    assert error["id"] == 7
    assert error["error"]["code"] == protocol.ERROR_UNKNOWN_OP


def test_encode_is_one_line():
    line = protocol.encode({"id": 1, "ok": True, "result": {"a": "b\nc"}})
    assert line.endswith(b"\n")
    assert line.count(b"\n") == 1


# -- the dependency index ----------------------------------------------


def table_for(source):
    return api.compile_program(source).table


def test_fingerprints_are_deterministic():
    table_a = table_for(BUGGY)
    table_b = table_for(BUGGY)
    prints_a = fingerprint_tasks(table_a)
    prints_b = fingerprint_tasks(table_b)
    assert list(prints_a.values()) == list(prints_b.values())
    assert all(p is not None for p in prints_a.values())


def test_fingerprint_tracks_own_method_edits():
    before = table_for(BUGGY)
    after = table_for(BUGGY.replace("case succ(Nat p): return 1;",
                                    "case succ(Nat p): return 2;", 1))
    changed = unchanged = 0
    befores = fingerprint_tasks(before)
    afters = fingerprint_tasks(after)
    for task in befores:
        if befores[task] != afters[task]:
            changed += 1
            assert task.method_name == "f"
        else:
            unchanged += 1
    assert changed == 1
    assert unchanged >= 3  # Nat invariants, constructors, g


def test_fingerprint_tracks_sealed_hierarchy_edits():
    # Adding a constructor to the interface must invalidate every task
    # that matches over it -- f and g and the Nat tasks.
    before = fingerprint_tasks(table_for(BUGGY))
    grown = BUGGY.replace(
        "invariant(this = zero() | succ(_));",
        "invariant(this = zero() | succ(_) | extra());",
    ).replace(
        "constructor zero() matches(notall(result)) returns();",
        "constructor zero() matches(notall(result)) returns();\n"
        "  constructor extra() matches(notall(result)) returns();",
    )
    after = fingerprint_tasks(table_for(grown))
    for task, fingerprint in before.items():
        assert after[task] != fingerprint, task.label


def test_fingerprint_unresolvable_task_is_none():
    from repro.verify.verifier import VerifyTask

    table = table_for(CLEAN)
    ghost = VerifyTask(kind="function", method_name="missing")
    assert task_fingerprint(table, ghost) is None


# -- the daemon, in process --------------------------------------------


def verify_result(daemon, paths, request_id=1, **options):
    response = json.loads(
        protocol.encode(
            daemon.handle_line(
                request_line(
                    "verify", request_id, paths=paths, options=options
                )
            )
        )
    )
    assert response["ok"], response
    return response["result"]


def _normalize_report(document):
    """Zero the fields that legitimately differ between two runs of the
    same work: wall-clock timings and how many tasks were replayed
    (callers check that count themselves)."""

    def zero_times(node):
        if isinstance(node, dict):
            for key, value in node.items():
                if key == "seconds" or key.endswith("_s"):
                    node[key] = 0.0
                else:
                    zero_times(value)
        elif isinstance(node, list):
            for item in node:
                zero_times(item)

    zero_times(document)
    document["solver_stats"]["tasks_replayed"] = 0
    return document


def _without_work(document):
    """A normalised report without its ``solver_stats``: a replayed
    task keeps its warnings and counts, but reports no queries or
    algebra discharges, as it made none."""
    return {
        key: value
        for key, value in _normalize_report(document).items()
        if key != "solver_stats"
    }


def _work(document):
    stats = document["solver_stats"]
    return stats["total"]["queries"], stats["algebra_discharged"]


def test_daemon_verify_matches_api(program):
    path = program(BUGGY)
    daemon = VerifyDaemon()
    result = verify_result(daemon, [path])
    direct = api.verify(
        api.compile_program(BUGGY, filename=path),
        options=api.VerifyOptions(cache=None),
    )
    served = _normalize_report(result["files"][0]["report"])
    expected = _normalize_report(direct.to_dict())
    assert served == expected


def test_daemon_second_verify_is_all_hits(program):
    path = program(BUGGY)
    daemon = VerifyDaemon()
    cold = verify_result(daemon, [path])
    warm = verify_result(daemon, [path], request_id=2)
    assert cold["dep_misses"] > 0 and cold["dep_hits"] == 0
    assert warm["dep_misses"] == 0
    assert warm["dep_hits"] == cold["dep_misses"]
    (entry,) = warm["files"]
    assert entry["report"]["solver_stats"]["tasks_replayed"] == warm["dep_hits"]
    assert _work(entry["report"]) == (0, 0)
    assert _work(cold["files"][0]["report"]) != (0, 0)
    normalize = lambda r: [
        {**f, "report": _without_work(f["report"])} for f in r["files"]
    ]
    assert normalize(warm) == normalize(cold)


def test_daemon_reverifies_only_the_edited_method(program, tmp_path):
    path = program(QUERYING)
    daemon = VerifyDaemon()
    cold = verify_result(daemon, [path])
    # Rewrite one arm of f in place (same line count, so no other
    # declaration's spans move).
    edited = QUERYING.replace("case succ(Nat p): return 1;",
                           "case succ(Nat p): return 2;", 1)
    with open(path, "w") as handle:
        handle.write(edited)
    warm = verify_result(daemon, [path], request_id=2)
    assert warm["dep_misses"] == 1
    assert warm["dep_hits"] == cold["dep_misses"] - 1
    replayed = warm["files"][0]["report"]["solver_stats"]["tasks_replayed"]
    assert replayed == warm["dep_hits"]
    # The replayed and re-run tasks together give the report a fresh
    # run of the edited file gives.
    direct = api.verify(
        api.compile_program(edited, filename=path),
        options=api.VerifyOptions(cache=None),
    )
    served = warm["files"][0]["report"]
    assert _without_work(served) == _without_work(direct.to_dict())
    # Only the edited method did any work.
    assert set(served["solver_stats"]["per_method"]) == {"f"}


def test_daemon_revert_replays_every_task(program):
    # Edit a method, verify, undo the edit: the undo replays the task's
    # earlier outcome from memory instead of verifying it again.
    path = program(BUGGY)
    daemon = VerifyDaemon()
    first = verify_result(daemon, [path])
    edited = BUGGY.replace("case succ(Nat p): return 1;",
                           "case succ(Nat p): return 2;", 1)
    with open(path, "w") as handle:
        handle.write(edited)
    assert verify_result(daemon, [path], request_id=2)["dep_misses"] == 1
    with open(path, "w") as handle:
        handle.write(BUGGY)
    reverted = verify_result(daemon, [path], request_id=3)
    assert reverted["dep_misses"] == 0
    assert reverted["dep_hits"] == first["dep_misses"]
    encode = lambda result: json.dumps(
        _without_work(result["files"][0]["report"]), sort_keys=True
    )
    assert encode(reverted) == encode(first)
    assert _work(reverted["files"][0]["report"]) == (0, 0)


def test_daemon_no_cache_request_replays_nothing(program):
    # ``verify --daemon --no-cache`` verifies every method: a request
    # with use_cache false replays no outcome, even one the daemon kept.
    from repro.corpus import combined_programs

    path = program(combined_programs()["nat"], name="nat.jm")
    daemon = VerifyDaemon()
    results = [
        verify_result(daemon, [path], request_id=i, use_cache=False)
        for i in (1, 2)
    ]
    for result in results:
        assert result["dep_hits"] == 0
        assert result["dep_misses"] > 0
        stats = result["files"][0]["report"]["solver_stats"]
        assert stats["tasks_replayed"] == 0
    # The no-cache requests kept nothing; default requests keep and
    # replay as before.
    assert verify_result(daemon, [path], request_id=3)["dep_hits"] == 0
    warm = verify_result(daemon, [path], request_id=4)
    assert warm["dep_misses"] == 0
    assert warm["dep_hits"] == results[0]["dep_misses"]


def _failed_warnings(report):
    return [
        w["message"] for w in report["warnings"]
        if "FaultInjected" in w["message"]
    ]


def test_daemon_reruns_a_task_whose_fault_was_cleared(program, monkeypatch):
    # A failed task's outcome is never kept: once the fault is gone, the
    # next request runs the task again and reports its real warnings.
    from repro.corpus import combined_programs

    source = combined_programs()["nat"]
    path = program(source, name="nat.jm")
    daemon = VerifyDaemon()
    monkeypatch.setenv("REPRO_FAULT", "raise:Nat.zero")
    faulted = verify_result(daemon, [path])
    report = faulted["files"][0]["report"]
    assert _failed_warnings(report)
    assert report["solver_stats"]["tasks_failed"] == 1
    monkeypatch.delenv("REPRO_FAULT")
    cleared = verify_result(daemon, [path], request_id=2)
    assert cleared["dep_misses"] == 1
    assert cleared["dep_hits"] == faulted["dep_misses"] - 1
    report = cleared["files"][0]["report"]
    assert not _failed_warnings(report)
    assert report["solver_stats"]["tasks_failed"] == 0
    direct = api.verify(api.compile_program(source, filename=path))
    assert _without_work(report) == _without_work(direct.to_dict())
    assert set(report["solver_stats"]["per_method"]) <= {"Nat.zero"}


def test_cache_dir_run_reruns_a_task_whose_fault_was_cleared(
    program, monkeypatch, capsys, tmp_path
):
    from repro.corpus import combined_programs

    source = combined_programs()["nat"]
    path = program(source, name="nat.jm")
    args = ["verify", path, "--cache-dir", str(tmp_path / "store"),
            "--format", "json"]

    def run():
        assert main(args) == 0
        (entry,) = json.loads(capsys.readouterr().out)["files"]
        return entry["report"]

    monkeypatch.setenv("REPRO_FAULT", "raise:Nat.zero")
    faulted = run()
    assert _failed_warnings(faulted)
    monkeypatch.delenv("REPRO_FAULT")
    cleared = run()
    assert not _failed_warnings(cleared)
    assert cleared["solver_stats"]["tasks_failed"] == 0
    tasks = len(list(iter_tasks(api.compile_program(source).table)))
    assert cleared["solver_stats"]["tasks_replayed"] == tasks - 1


def test_daemon_made_without_cache_replays_nothing(program):
    # ``repro serve --no-cache``: no request replays a task outcome.
    path = program(BUGGY)
    daemon = VerifyDaemon(use_cache=False)
    cold = verify_result(daemon, [path])
    again = verify_result(daemon, [path], request_id=2)
    assert again["dep_hits"] == 0
    assert again["dep_misses"] == cold["dep_misses"] > 0


def test_daemon_invalidate_flips_hits_back_to_misses(program):
    path = program(BUGGY)
    daemon = VerifyDaemon()
    cold = verify_result(daemon, [path])
    response = json.loads(
        protocol.encode(
            daemon.handle_line(request_line("invalidate", 2, paths=[path]))
        )
    )
    assert response["result"]["invalidated"] == 1
    recold = verify_result(daemon, [path], request_id=3)
    assert recold["dep_hits"] == 0
    assert recold["dep_misses"] == cold["dep_misses"]


def test_daemon_invalidate_keeps_other_files_outcomes(program):
    path_a = program(BUGGY, name="a.jm")
    path_b = program(CLEAN, name="b.jm")
    daemon = VerifyDaemon()
    verify_result(daemon, [path_a, path_b])
    response = daemon.handle_line(
        request_line("invalidate", 2, paths=[path_a])
    )
    assert response["result"]["invalidated"] == 1
    warm = verify_result(daemon, [path_a, path_b], request_id=3)
    replayed = [
        entry["report"]["solver_stats"]["tasks_replayed"]
        for entry in warm["files"]
    ]
    assert replayed == [0, 1]


def test_daemon_invalidate_drops_the_parsed_declarations(program):
    path = program(BUGGY)
    daemon = VerifyDaemon()
    verify_result(daemon, [path])
    assert list(daemon.declarations) == [os.path.abspath(path)]
    daemon.handle_line(request_line("invalidate", 2, paths=[path]))
    assert daemon.declarations == {}
    verify_result(daemon, [path], request_id=3)
    daemon.handle_line(request_line("invalidate", 4))
    assert daemon.declarations == {}


def test_daemon_forgets_a_file_that_is_gone(program):
    gone = program(BUGGY, name="a.jm")
    kept = program(CLEAN, name="b.jm")
    daemon = VerifyDaemon()
    verify_result(daemon, [gone, kept])
    os.unlink(gone)
    result = verify_result(daemon, [gone, kept], request_id=2)
    assert "No such file" in result["files"][0]["error"]
    assert result["files"][1]["report"]["solver_stats"]["tasks_replayed"] == 1
    assert list(daemon.declarations) == [os.path.abspath(kept)]
    assert list(daemon.files) == [os.path.abspath(kept)]
    assert {name for name, _ in daemon.outcomes.entries} == {kept}


def test_daemon_drops_the_outcomes_of_a_renamed_method(program):
    # The daemon's memory holds the live tasks' outcomes only.
    path = program(BUGGY)
    daemon = VerifyDaemon()
    verify_result(daemon, [path])
    assert (path, "f") in daemon.outcomes.entries
    with open(path, "w") as handle:
        handle.write(BUGGY.replace("static int f(", "static int h(", 1))
    renamed = verify_result(daemon, [path], request_id=2)
    assert renamed["dep_misses"] == 1
    labels = {label for name, label in daemon.outcomes.entries}
    assert "f" not in labels and {"g", "h"} <= labels


def test_daemon_option_change_flushes_outcomes(program):
    path = program(BUGGY)
    daemon = VerifyDaemon()
    verify_result(daemon, [path], budget=2.0)
    switched = verify_result(daemon, [path], request_id=2, budget=1.0)
    assert switched["dep_hits"] == 0


def test_daemon_switching_a_budget_back_replays(program):
    # Outcomes are kept per salt, not flushed: a budget used by one of
    # the last few requests replays its outcomes again.
    path = program(BUGGY)
    daemon = VerifyDaemon()
    cold = verify_result(daemon, [path], budget=2.0)
    verify_result(daemon, [path], request_id=2, budget=1.0)
    back = verify_result(daemon, [path], request_id=3, budget=2.0)
    assert back["dep_misses"] == 0
    assert back["dep_hits"] == cold["dep_misses"]


def test_daemon_verify_rejects_bad_params(program):
    daemon = VerifyDaemon()
    for params in (
        {"paths": []},
        {"paths": "x.jm"},
        {"paths": [1]},
        {"paths": ["x.jm"], "options": {"bogus": 1}},
        {"paths": ["x.jm"], "options": {"budget": -1}},
        {"paths": ["x.jm"], "options": {"budget": float("nan")}},
        {"paths": ["x.jm"], "options": {"task_timeout": float("inf")}},
        {"paths": ["x.jm"], "options": []},
    ):
        response = daemon.handle_line(request_line("verify", 1, **params))
        assert response["ok"] is False, params
        assert response["error"]["code"] == protocol.ERROR_INVALID_PARAMS


def test_daemon_verify_rejects_removed_options(program):
    daemon = VerifyDaemon()
    for options in (
        {"incremental": False},
        {"backend": "portfolio"},
        {"backend": "reference"},
        {"backend": "incremental"},
        # protocol 6: the daemon renders no text, and outcome reuse is
        # always on
        {"stats": True},
        {"profile": True},
        {"dep_index": False},
    ):
        response = daemon.handle_line(
            request_line("verify", 1, paths=[program(CLEAN)], options=options)
        )
        assert response["ok"] is False, options
        assert response["error"]["code"] == protocol.ERROR_INVALID_PARAMS
        (name,) = options
        assert name in response["error"]["message"]


def test_daemon_verify_rejects_tier_option(program):
    # Protocol 5 dropped the ``tier`` verify option: the pattern
    # algebra is a fast path, not a setting.
    daemon = VerifyDaemon()
    for tier in ("auto", "smt-only", "algebra-only", "check"):
        response = daemon.handle_line(
            request_line(
                "verify", 1, paths=[program(CLEAN)], options={"tier": tier}
            )
        )
        assert response["ok"] is False, tier
        assert response["error"] == {
            "code": protocol.ERROR_INVALID_PARAMS,
            "message": "unknown verify options: tier",
        }


def test_daemon_reports_protocol_6():
    # Protocol 4 dropped the ``backend`` verify option, protocol 5 the
    # ``tier`` one, protocol 6 ``stats``, ``profile`` and ``dep_index``;
    # report schema 4 dropped the phase timers, schema 5 the
    # soft-deadline counter, schema 6 the memory/disk hit split (and
    # added tasks_replayed), schema 7 the query-cache counters, schema 8
    # the driver-decision string.
    daemon = VerifyDaemon()
    response = daemon.handle_line(request_line("status", 1))
    assert response["ok"] is True
    assert response["result"]["protocol"] == protocol.PROTOCOL_VERSION == 6
    assert response["result"]["version"].startswith("repro-daemon/6.8")


def test_daemon_compile_error_is_a_file_entry(program):
    path = program("class {", name="broken.jm")
    daemon = VerifyDaemon()
    result = verify_result(daemon, [path])
    entry = result["files"][0]
    assert "error" in entry and "report" not in entry
    assert result["status"] == 1


def test_daemon_survives_internal_errors(program, monkeypatch):
    daemon = VerifyDaemon()
    monkeypatch.setattr(
        daemon, "_op_verify",
        lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom")),
    )
    response = daemon.handle_line(request_line("verify", 1, paths=["x"]))
    assert response["ok"] is False
    assert response["error"]["code"] == protocol.ERROR_INTERNAL
    assert "boom" in response["error"]["message"]
    # and the daemon still answers
    assert daemon.handle_line(request_line("status", 2))["ok"] is True


def test_daemon_trace_rows_validate(program):
    from repro.obs import validate_trace_rows

    path = program(BUGGY)
    daemon = VerifyDaemon()
    result = verify_result(daemon, [path], trace=True)
    rows = result["trace"]
    assert validate_trace_rows(rows) == []
    assert rows[0]["kind"] == "run" and rows[0]["name"] == "request"
    events = [e["name"] for row in rows for e in row["events"]]
    assert "revalidate" in events and "dep-miss" in events
    warm = verify_result(daemon, [path], request_id=2, trace=True)
    warm_events = [
        e["name"] for row in warm["trace"] for e in row["events"]
    ]
    assert "dep-hit" in warm_events and "dep-miss" not in warm_events
    assert validate_trace_rows(warm["trace"]) == []


def test_daemon_trace_toggle_keeps_outcomes(program):
    # A dep-hit gets a fresh span, never the stored outcome's, so asking
    # for a trace (--trace, --profile) must not flush the outcomes.
    path = program(BUGGY)
    daemon = VerifyDaemon()
    cold = verify_result(daemon, [path])
    traced = verify_result(daemon, [path], request_id=2, trace=True)
    assert traced["dep_misses"] == 0
    assert traced["dep_hits"] == cold["dep_misses"]
    untraced = verify_result(daemon, [path], request_id=3)
    assert untraced["dep_misses"] == 0


# -- the daemon, over a socket -----------------------------------------


@pytest.fixture
def served_daemon(tmp_path):
    socket_path = _short_socket_path()
    daemon = VerifyDaemon()
    thread = threading.Thread(
        target=daemon.serve_socket, args=(socket_path,), daemon=True
    )
    thread.start()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        if os.path.exists(socket_path):
            break
        time.sleep(0.01)
    yield daemon, socket_path
    daemon.shutting_down = True
    thread.join(timeout=5.0)


def _short_socket_path():
    # AF_UNIX paths are length-limited; pytest tmp_path can exceed it
    import tempfile

    fd, path = tempfile.mkstemp(prefix="repro-t-", suffix=".sock")
    os.close(fd)
    os.unlink(path)
    return path


def test_socket_clients_are_isolated(served_daemon, program):
    _, socket_path = served_daemon
    path_a = program(BUGGY, name="a.jm")
    path_b = program(CLEAN, name="b.jm")
    results = {}

    def worker(name, path):
        with DaemonClient(socket_path, timeout=60.0) as client:
            results[name] = client.verify([path])

    threads = [
        threading.Thread(target=worker, args=("a", path_a)),
        threading.Thread(target=worker, args=("b", path_b)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    assert results["a"]["files"][0]["path"] == path_a
    assert results["b"]["files"][0]["path"] == path_b
    assert len(results["a"]["files"][0]["report"]["warnings"]) > 0
    assert results["b"]["files"][0]["report"]["warnings"] == []


def test_socket_survives_malformed_line(served_daemon):
    _, socket_path = served_daemon
    raw = socket_module.socket(socket_module.AF_UNIX,
                               socket_module.SOCK_STREAM)
    raw.settimeout(10.0)
    raw.connect(socket_path)
    reader = raw.makefile("r", encoding="utf-8")
    raw.sendall(b"this is not json\n")
    error = json.loads(reader.readline())
    assert error["ok"] is False
    assert error["error"]["code"] == protocol.ERROR_PARSE
    # same connection still serves requests
    raw.sendall(protocol.encode({"id": 2, "op": "status"}))
    assert json.loads(reader.readline())["ok"] is True
    raw.close()


def test_daemon_version_names_the_verifier_sources(monkeypatch):
    # A daemon built from other verifier code may give other verdicts.
    before = daemon_version()
    monkeypatch.setattr(store_module, "source_digest", lambda: "edited")
    assert daemon_version() != before
    assert daemon_version().endswith("+edited")


def test_daemon_started_before_a_source_edit_is_refused(monkeypatch):
    socket_path = _short_socket_path()
    daemon = VerifyDaemon()
    thread = threading.Thread(
        target=daemon.serve_socket, args=(socket_path,), daemon=True
    )
    thread.start()
    try:
        deadline = time.monotonic() + 10.0
        while not os.path.exists(socket_path):
            assert time.monotonic() < deadline, "daemon never bound"
            time.sleep(0.02)
        # the sources change on disk after the daemon loaded them
        monkeypatch.setattr(store_module, "source_digest", lambda: "edited")
        with pytest.raises(DaemonError, match="version-mismatch"):
            ensure_daemon(socket_path=socket_path, spawn=False)
        thread.join(timeout=10.0)
        assert not thread.is_alive(), "the stale daemon was not shut down"
    finally:
        daemon.shutting_down = True
        thread.join(timeout=5.0)


def test_socket_refuses_second_daemon(served_daemon):
    _, socket_path = served_daemon
    second = VerifyDaemon()
    with pytest.raises(RuntimeError, match="already serving"):
        second.serve_socket(socket_path)


def test_stale_socket_file_is_replaced():
    socket_path = _short_socket_path()
    # a socket file nobody is listening on (daemon died hard)
    stale = socket_module.socket(socket_module.AF_UNIX,
                                 socket_module.SOCK_STREAM)
    stale.bind(socket_path)
    stale.close()  # closed without listen/unlink: connects are refused
    daemon = VerifyDaemon()
    thread = threading.Thread(
        target=daemon.serve_socket, args=(socket_path,), daemon=True
    )
    thread.start()
    try:
        deadline = time.monotonic() + 10.0
        client = None
        while time.monotonic() < deadline and client is None:
            try:
                client = DaemonClient(socket_path, timeout=10.0)
            except OSError:
                time.sleep(0.02)
        assert client is not None, "daemon never replaced the stale socket"
        assert client.status()["version"] == daemon_version()
        client.close()
    finally:
        daemon.shutting_down = True
        thread.join(timeout=5.0)


def test_ensure_daemon_no_spawn_without_daemon():
    socket_path = _short_socket_path()
    with pytest.raises(DaemonError, match="no daemon is listening"):
        ensure_daemon(socket_path=socket_path, spawn=False)


def test_socket_path_appears_only_once_listening(monkeypatch):
    """A client that sees the socket path can connect at once.

    ``listen`` is slowed down so that a path published before it (the
    bind-then-listen race) would be seen, and refused, by the poller.
    """
    socket_path = _short_socket_path()
    published_before_listen = []
    real_listen = socket_module.socket.listen

    def slow_listen(sock, *args):
        published_before_listen.append(os.path.exists(socket_path))
        time.sleep(0.2)
        published_before_listen.append(os.path.exists(socket_path))
        return real_listen(sock, *args)

    monkeypatch.setattr(socket_module.socket, "listen", slow_listen)
    daemon = VerifyDaemon()
    thread = threading.Thread(
        target=daemon.serve_socket, args=(socket_path,), daemon=True
    )
    thread.start()
    try:
        deadline = time.monotonic() + 10.0
        while not os.path.exists(socket_path):
            assert time.monotonic() < deadline, "daemon never bound"
            time.sleep(0.005)
        # One attempt, no retry: the path exists, so it must listen.
        with DaemonClient(socket_path, timeout=10.0) as client:
            assert client.status()["version"] == daemon_version()
    finally:
        daemon.shutting_down = True
        thread.join(timeout=5.0)
    assert published_before_listen == [False, False]
    assert not os.path.exists(socket_path)
    leftovers = [
        name
        for name in os.listdir(os.path.dirname(socket_path))
        if name.startswith("." + os.path.basename(socket_path))
    ]
    assert not leftovers


def test_daemon_that_loses_the_publish_race_refuses_to_start(monkeypatch):
    # Another daemon publishes the path while this one is binding.
    socket_path = _short_socket_path()
    real_listen = socket_module.socket.listen

    def listen_while_another_publishes(sock, *args):
        with open(socket_path, "w") as handle:
            handle.write("the other daemon's socket")
        return real_listen(sock, *args)

    monkeypatch.setattr(
        socket_module.socket, "listen", listen_while_another_publishes
    )
    with pytest.raises(RuntimeError, match="already serving"):
        VerifyDaemon().serve_socket(socket_path)
    with open(socket_path) as handle:
        assert handle.read() == "the other daemon's socket"
    os.unlink(socket_path)
    leftovers = [
        name
        for name in os.listdir(os.path.dirname(socket_path))
        if name.startswith("." + os.path.basename(socket_path))
    ]
    assert not leftovers


def test_try_connect_to_a_missing_path_leaks_no_socket():
    import gc
    import warnings

    from repro.verify.daemon.client import _try_connect

    socket_path = _short_socket_path()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert _try_connect(socket_path, 1.0) is None
        gc.collect()
    leaked = [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert not leaked, [str(w.message) for w in leaked]


def test_auto_spawned_daemon_leaks_no_running_subprocess():
    import gc
    import warnings

    socket_path = _short_socket_path()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        client = ensure_daemon(socket_path=socket_path, spawn_wait=30.0)
        try:
            assert client.status()["version"] == daemon_version()
        finally:
            client.shutdown()
            client.close()
        gc.collect()
    leaked = [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert not leaked, [str(w.message) for w in leaked]


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_auto_spawned_daemon_is_reaped_after_shutdown():
    socket_path = _short_socket_path()
    client = ensure_daemon(socket_path=socket_path, spawn_wait=30.0)
    try:
        pid = client.status()["pid"]
    finally:
        client.shutdown()
        client.close()

    def state():
        """The process's state letter, or None once it is gone."""
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("State:"):
                        return line.split()[1]
        except FileNotFoundError:
            return None

    deadline = time.monotonic() + 5.0
    while state() is not None and time.monotonic() < deadline:
        time.sleep(0.05)
    assert state() != "Z", f"daemon {pid} was left a zombie"


def test_spawned_daemon_that_exits_before_binding_is_diagnosed(tmp_path):
    # The socket's directory does not exist, so `repro serve` fails to bind.
    socket_path = str(tmp_path / "missing" / "d.sock")
    with pytest.raises(DaemonError, match="exited with status 1 before binding"):
        ensure_daemon(socket_path=socket_path, spawn_wait=30.0)


# -- version handshake (real subprocess: different env) ----------------


def _spawn_serve(socket_path, extra_env=None):
    import repro

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    env.update(extra_env or {})
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--socket", socket_path],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=env,
    )
    deadline = time.monotonic() + 15.0
    while time.monotonic() < deadline:
        if os.path.exists(socket_path):
            return process
        if process.poll() is not None:
            raise AssertionError("serve subprocess died before binding")
        time.sleep(0.05)
    process.kill()
    raise AssertionError("serve subprocess never bound its socket")


def test_version_mismatch_is_refused_and_daemon_evicted():
    socket_path = _short_socket_path()
    process = _spawn_serve(
        socket_path, extra_env={"REPRO_DAEMON_VERSION": "repro-daemon/0.0"}
    )
    try:
        with pytest.raises(DaemonError, match="version-mismatch"):
            ensure_daemon(socket_path=socket_path, spawn=False)
        # the handshake also asked the stale daemon to shut down
        assert process.wait(timeout=15.0) == 0
        assert not os.path.exists(socket_path)
    finally:
        if process.poll() is None:
            process.kill()


def test_cli_daemon_auto_spawn_and_output_parity(program, capsys,
                                                 monkeypatch):
    socket_path = _short_socket_path()
    monkeypatch.setenv("REPRO_DAEMON_SOCKET", socket_path)
    path = program(QUERYING)
    assert main(["verify", path]) == 0
    local = capsys.readouterr().out
    assert main(["verify", "--daemon", path]) == 0
    served_cold = capsys.readouterr().out
    assert main(["verify", "--daemon", path]) == 0
    served_warm = capsys.readouterr().out
    try:
        strip = lambda text: [
            line for line in text.splitlines()
            if not line.startswith("checked ")
        ]
        assert strip(served_cold) == strip(local)
        assert strip(served_warm) == strip(local)
        # the timing line keeps its shape, even though values differ
        assert any(
            line.startswith("checked ") for line in served_warm.splitlines()
        )
        # --stats and --profile print through the same printer on both
        # paths: same headers and method rows, timings aside.
        # (--no-cache replays none of the daemon's outcomes, so every
        # task runs and earns its --profile row.)
        flags = ["--stats", "--profile", "--no-cache"]
        assert main(["verify", path, *flags]) == 0
        local = capsys.readouterr().out
        assert main(["verify", "--daemon", path, *flags]) == 0
        served = capsys.readouterr().out
        mask = lambda text: [
            re.sub(r"\d+\.\d+", "#", line) for line in text.splitlines()
            if not line.startswith("checked ")
        ]
        assert mask(served) == mask(local)
        assert "solver phases cover" in served
        assert "f" in [line.split(" ")[0] for line in mask(served)]
    finally:
        with DaemonClient(socket_path, timeout=10.0) as client:
            client.shutdown()


@pytest.mark.parametrize(
    "flags",
    [["--budget", "nan"], ["--budget", "inf"], ["--task-timeout", "nan"]],
)
def test_cli_daemon_bad_numbers_exit_2_without_spawning(
    program, capsys, monkeypatch, flags
):
    # The options are validated before the --daemon branch, so both
    # paths give the same usage error and no daemon is spawned.
    socket_path = _short_socket_path()
    monkeypatch.setenv("REPRO_DAEMON_SOCKET", socket_path)
    path = program(CLEAN)
    assert main(["verify", path, *flags]) == 2
    assert main(["verify", "--daemon", path, *flags]) == 2
    assert "error:" in capsys.readouterr().err
    assert not os.path.exists(socket_path)


# -- per-task deadlines: only on the main thread ----------------------


def test_task_timeout_is_rejected_off_main_thread():
    # SIGALRM cannot arm off the main thread, so a task_timeout there
    # is refused up front instead of silently never firing.
    errors = []

    def worker():
        try:
            api.VerifyOptions(task_timeout=1.0).validate()
        except ValueError as exc:
            errors.append(str(exc))

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=10.0)
    assert len(errors) == 1 and "main thread" in errors[0]
    api.VerifyOptions(task_timeout=1.0).validate()  # main thread: fine


def test_daemon_off_main_thread_refuses_task_timeout(served_daemon, program):
    _, socket_path = served_daemon
    with DaemonClient(socket_path, timeout=30.0) as client:
        with pytest.raises(DaemonError, match="main thread"):
            client.verify([program(CLEAN)], {"task_timeout": 5})
        assert client.status()["requests"] == 0


def test_socket_hang_times_out_and_daemon_keeps_serving(program,
                                                        monkeypatch):
    # The daemon serves from the thread that calls serve_socket -- here
    # pytest's main thread -- so a hung task meets the real alarm.
    monkeypatch.setenv("REPRO_FAULT", "hang:f")
    path = program(BUGGY)
    socket_path = _short_socket_path()
    daemon = VerifyDaemon()
    results = {}

    def client_side():
        try:
            deadline = time.monotonic() + 10.0
            while True:
                try:
                    client = DaemonClient(socket_path, timeout=20.0)
                    break
                except OSError:
                    if time.monotonic() > deadline:
                        return
                    time.sleep(0.01)
            with client:
                started = time.monotonic()
                results["verify"] = client.verify(
                    [path], {"task_timeout": 1}
                )
                results["seconds"] = time.monotonic() - started
                results["status"] = client.status()
                results["shutdown"] = client.shutdown()
        finally:
            if "shutdown" not in results:
                # The daemon cannot be asked to stop: break it off.
                _thread.interrupt_main()

    thread = threading.Thread(target=client_side)
    thread.start()
    try:
        daemon.serve_socket(socket_path)
        thread.join(timeout=30.0)
    except KeyboardInterrupt:
        pass
    assert "verify" in results, "the hung request was never answered"
    assert not thread.is_alive()
    report = results["verify"]["files"][0]["report"]
    timeouts = [
        w for w in report["warnings"]
        if "exceeded the task timeout (1s)" in w["message"]
    ]
    # f's timeout replaces its nonexhaustive warning; g stays clean
    assert timeouts == report["warnings"]
    assert report["tasks"]["timed_out"] == 1
    assert results["seconds"] < 10.0
    assert results["status"]["requests"] == 1
    assert not os.path.exists(socket_path)
