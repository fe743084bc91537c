"""The verification daemon: protocol, dependency index, warm serving.

Three layers, cheapest first: protocol unit tests (pure functions),
in-process daemon tests (``handle_line`` without a socket), and socket
tests against a daemon thread — plus one real auto-spawned daemon
subprocess exercising the CLI path end to end.
"""

import json
import os
import socket as socket_module
import subprocess
import sys
import threading
import time

import pytest

from repro import api
from repro.cli import main
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
    same work: wall-clock timings and the driver-decision string."""

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
    document["solver_stats"]["parallel_decision"] = ""
    return document


def test_daemon_verify_matches_api(program):
    path = program(BUGGY)
    daemon = VerifyDaemon(use_cache=False)
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
    daemon = VerifyDaemon(use_cache=False)
    cold = verify_result(daemon, [path])
    warm = verify_result(daemon, [path], request_id=2)
    assert cold["dep_misses"] > 0 and cold["dep_hits"] == 0
    assert warm["dep_misses"] == 0
    assert warm["dep_hits"] == cold["dep_misses"]
    normalize = lambda r: [
        {**f, "report": _normalize_report(f["report"])} for f in r["files"]
    ]
    assert normalize(warm) == normalize(cold)


def test_daemon_reverifies_only_the_edited_method(program, tmp_path):
    path = program(BUGGY)
    daemon = VerifyDaemon(use_cache=False)
    cold = verify_result(daemon, [path])
    # Rewrite one arm of f in place (same line count, so no other
    # declaration's spans move).
    edited = BUGGY.replace("case succ(Nat p): return 1;",
                           "case succ(Nat p): return 2;", 1)
    with open(path, "w") as handle:
        handle.write(edited)
    warm = verify_result(daemon, [path], request_id=2)
    assert warm["dep_misses"] == 1
    assert warm["dep_hits"] == cold["dep_misses"] - 1


def test_daemon_invalidate_flips_hits_back_to_misses(program):
    path = program(BUGGY)
    daemon = VerifyDaemon(use_cache=False)
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


def test_daemon_option_change_flushes_outcomes(program):
    path = program(BUGGY)
    daemon = VerifyDaemon(use_cache=False)
    verify_result(daemon, [path], budget=2.0)
    switched = verify_result(daemon, [path], request_id=2, budget=1.0)
    assert switched["dep_hits"] == 0


def test_daemon_verify_rejects_bad_params(program):
    daemon = VerifyDaemon(use_cache=False)
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
    daemon = VerifyDaemon(use_cache=False)
    for options in (
        {"incremental": False},
        {"backend": "portfolio"},
        {"backend": "reference"},
        {"backend": "incremental"},
    ):
        response = daemon.handle_line(
            request_line("verify", 1, paths=[program(CLEAN)], options=options)
        )
        assert response["ok"] is False, options
        assert response["error"]["code"] == protocol.ERROR_INVALID_PARAMS
        (name,) = options
        assert name in response["error"]["message"]


def test_daemon_reports_protocol_4():
    # Protocol 4 dropped the ``backend`` verify option.
    daemon = VerifyDaemon(use_cache=False)
    response = daemon.handle_line(request_line("status", 1))
    assert response["ok"] is True
    assert response["result"]["protocol"] == protocol.PROTOCOL_VERSION == 4
    assert response["result"]["version"].startswith("repro-daemon/4.")


def test_daemon_compile_error_is_a_file_entry(program):
    path = program("class {", name="broken.jm")
    daemon = VerifyDaemon(use_cache=False)
    result = verify_result(daemon, [path])
    entry = result["files"][0]
    assert "error" in entry and "report" not in entry
    assert result["status"] == 1


def test_daemon_survives_internal_errors(program, monkeypatch):
    daemon = VerifyDaemon(use_cache=False)
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
    daemon = VerifyDaemon(use_cache=False)
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


# -- the daemon, over a socket -----------------------------------------


@pytest.fixture
def served_daemon(tmp_path):
    socket_path = _short_socket_path()
    daemon = VerifyDaemon(use_cache=False)
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
    daemon.shutdown_event.set()
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


def test_socket_refuses_second_daemon(served_daemon):
    _, socket_path = served_daemon
    second = VerifyDaemon(use_cache=False)
    with pytest.raises(RuntimeError, match="already serving"):
        second.serve_socket(socket_path)


def test_stale_socket_file_is_replaced():
    socket_path = _short_socket_path()
    # a socket file nobody is listening on (daemon died hard)
    stale = socket_module.socket(socket_module.AF_UNIX,
                                 socket_module.SOCK_STREAM)
    stale.bind(socket_path)
    stale.close()  # closed without listen/unlink: connects are refused
    daemon = VerifyDaemon(use_cache=False)
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
        daemon.shutdown_event.set()
        thread.join(timeout=5.0)


def test_ensure_daemon_no_spawn_without_daemon():
    socket_path = _short_socket_path()
    with pytest.raises(DaemonError, match="no daemon is listening"):
        ensure_daemon(socket_path=socket_path, spawn=False)


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
    path = program(BUGGY)
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
    finally:
        with DaemonClient(socket_path, timeout=10.0) as client:
            client.shutdown()


# -- degraded per-task deadlines off the main thread -------------------


def test_task_deadline_degrades_off_main_thread():
    from repro.verify.parallel import run_one_task
    from repro.verify.verifier import iter_tasks as tasks_of

    table = table_for(BUGGY)
    task = next(t for t in tasks_of(table) if t.method_name == "f")
    outcomes = {}

    def worker():
        outcomes["normal"] = run_one_task(table, task, None, None, 30.0)
        outcomes["overrun"] = run_one_task(table, task, None, None, 1e-9)

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=120.0)
    assert set(outcomes) == {"normal", "overrun"}
    # within the deadline: full verdicts, degradation surfaced on stats
    assert outcomes["normal"].stats.deadlines_degraded == 1
    assert any(
        w.kind.value == "nonexhaustive" for w in outcomes["normal"].warnings
    )
    # an overrun converts post hoc to the standard timed-out outcome
    assert outcomes["overrun"].stats.tasks_timed_out == 1
    assert outcomes["overrun"].stats.deadlines_degraded == 1
    assert any(
        "exceeded the task timeout" in w.message
        for w in outcomes["overrun"].warnings
    )


def test_task_deadline_still_arms_on_main_thread():
    from repro.verify.parallel import deadline_armable

    assert deadline_armable() is True
