"""CLI integration tests."""

import re

import pytest

from repro.cli import main

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
"""


@pytest.fixture(autouse=True)
def isolated_cache_dir(monkeypatch):
    """Keep CLI runs from writing .repro-cache into the repo root, and
    from replaying each other's outcomes: a test that compares two runs
    needs both to verify.  Tests of the store pass ``--cache-dir``."""
    monkeypatch.setenv("REPRO_CACHE_DIR", "")


@pytest.fixture
def program(tmp_path):
    def write(source, name="program.jm"):
        path = tmp_path / name
        path.write_text(source)
        return str(path)

    return write


def test_verify_clean(program, capsys):
    assert main(["verify", program(CLEAN)]) == 0
    out = capsys.readouterr().out
    assert "0 warnings" in out


def test_verify_reports_warnings_but_exits_zero(program, capsys):
    assert main(["verify", program(BUGGY)]) == 0
    out = capsys.readouterr().out
    assert "nonexhaustive" in out


def test_verify_syntax_error_exits_one(program, capsys):
    assert main(["verify", program("class {")]) == 1
    assert "error" in capsys.readouterr().err


def test_verify_stats_table(program, capsys):
    assert main(["verify", program(BUGGY), "--stats"]) == 0
    out = capsys.readouterr().out
    assert "queries" in out
    assert "total" in out
    assert "replayed" in out
    # Schema 7 dropped the query-cache counters, and the table with them.
    assert "cache hit rate" not in out


def test_verify_no_cache_output_matches_cached(program, capsys):
    path = program(BUGGY)
    assert main(["verify", path]) == 0
    cached = capsys.readouterr().out
    assert main(["verify", path, "--no-cache"]) == 0
    plain = capsys.readouterr().out
    # Warning lines (everything except the timing summary) must be
    # byte-identical with and without --no-cache.
    strip = lambda text: [l for l in text.splitlines() if not l.startswith("checked ")]
    assert strip(cached) == strip(plain)


def test_verify_budget_does_not_leak_globally(program, capsys):
    from repro.smt.solver import Solver

    before = Solver.TIME_BUDGET
    assert main(["verify", program(BUGGY), "--budget", "1e-9", "--no-cache"]) == 0
    assert Solver.TIME_BUDGET == before
    out = capsys.readouterr().out
    assert "inconclusive" in out


def test_verify_rejects_nonpositive_budget(program, capsys):
    for bad in ("0", "0.0", "-1.5"):
        assert main(["verify", program(CLEAN), "--budget", bad]) == 2
        assert "--budget must be positive" in capsys.readouterr().err


def test_verify_rejects_nonpositive_jobs(program, capsys):
    assert main(["verify", program(CLEAN), "--jobs", "0"]) == 2
    assert "--jobs" in capsys.readouterr().err


def test_verify_rejects_nonpositive_task_timeout(program, capsys):
    for bad in ("0", "-2.5"):
        assert main(["verify", program(CLEAN), "--task-timeout", bad]) == 2
        assert "--task-timeout must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--budget", "--task-timeout"])
@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_verify_rejects_non_finite_budget_and_timeout(program, capsys, flag, bad):
    assert main(["verify", program(BUGGY), flag, bad]) == 2
    captured = capsys.readouterr()
    assert "must be finite" in captured.err
    assert captured.out == ""


def test_verify_task_timeout_output_matches_plain(program, capsys):
    path = program(BUGGY)
    strip = lambda text: [
        l for l in text.splitlines() if not l.startswith("checked ")
    ]
    assert main(["verify", path]) == 0
    plain = capsys.readouterr().out
    assert main(["verify", path, "--task-timeout", "60"]) == 0
    bounded = capsys.readouterr().out
    assert strip(plain) == strip(bounded)
    assert main(["verify", path, "--task-timeout", "60", "--jobs", "2"]) == 0
    bounded_parallel = capsys.readouterr().out
    assert strip(plain) == strip(bounded_parallel)


def test_verify_task_timeout_converts_hang_to_warning(program, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_FAULT", "hang:f")
    path = program(BUGGY)
    assert main(
        ["verify", path, "--jobs", "2", "--task-timeout", "1", "--stats"]
    ) == 0
    out = capsys.readouterr().out
    assert "exceeded the task timeout" in out
    assert "1 timed out" in out


def test_verify_stats_shows_task_accounting(program, capsys):
    assert main(["verify", program(BUGGY), "--stats"]) == 0
    out = capsys.readouterr().out
    assert "tasks: 0 retried, 0 timed out, 0 failed" in out


def test_keyboard_interrupt_exits_130(program, capsys, monkeypatch):
    from repro import api

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt()

    monkeypatch.setattr(api, "verify", interrupted)
    assert main(["verify", program(CLEAN)]) == 130
    assert "interrupted" in capsys.readouterr().err


def test_verify_multiple_files(program, capsys):
    clean = program(CLEAN, "clean.jm")
    buggy = program(BUGGY, "buggy.jm")
    assert main(["verify", clean, buggy]) == 0
    out = capsys.readouterr().out
    # Per-file headers, each file's own summary line, in argument order.
    assert out.index(f"{clean}:") < out.index(f"{buggy}:")
    assert out.count("warnings") >= 2
    assert "nonexhaustive" in out


def test_verify_multiple_files_aggregates_exit_status(program, capsys):
    broken = program("class {", "broken.jm")
    clean = program(CLEAN, "clean.jm")
    assert main(["verify", broken, clean]) == 1
    captured = capsys.readouterr()
    assert "error" in captured.err
    # The clean file is still verified after the broken one fails.
    assert "0 warnings" in captured.out


def test_verify_jobs_output_matches_serial(program, capsys):
    path = program(BUGGY)
    strip = lambda text: [
        l for l in text.splitlines() if not l.startswith("checked ")
    ]
    assert main(["verify", path]) == 0
    serial = capsys.readouterr().out
    assert main(["verify", path, "--jobs", "2"]) == 0
    parallel = capsys.readouterr().out
    assert strip(serial) == strip(parallel)


def test_verify_rejects_garbage_jobs(program, capsys):
    assert main(["verify", program(CLEAN), "--jobs", "lots"]) == 2
    assert "--jobs" in capsys.readouterr().err


def test_verify_rejects_jobs_auto(program, capsys):
    # --jobs is a worker count; nothing sizes the pool for you.
    assert main(["verify", program(CLEAN), "--jobs", "auto"]) == 2
    captured = capsys.readouterr()
    assert "--jobs must be a positive integer, got 'auto'" in captured.err
    assert captured.out == ""


def test_verify_profile_table(program, capsys):
    assert main(["verify", program(BUGGY), "--profile"]) == 0
    out = capsys.readouterr().out
    for column in ("encode", "sat", "expand", "theory", "validate"):
        assert column in out
    assert "solver phases cover" in out


def test_verify_profile_sums_the_trace_query_spans(program, capsys, tmp_path):
    # --profile reads the trace: each method's columns are the sums over
    # its task's query spans in the file --trace writes.
    from repro.obs import QUERY_PHASE_KEYS, read_jsonl

    trace = str(tmp_path / "t.jsonl")
    args = ["verify", program(BUGGY), "--profile", "--trace", trace]
    assert main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = read_jsonl(trace)
    by_id = {row["id"]: row for row in rows}
    expected: dict[str, list[float]] = {}
    for row in rows:
        if row["kind"] != "query":
            continue
        task = row
        while task["kind"] != "task":
            task = by_id[task["parent"]]
        sums = expected.setdefault(task["name"], [0.0] * 6)
        sums[0] += row["dur_ms"] / 1000.0
        for index, key in enumerate(QUERY_PHASE_KEYS, 1):
            sums[index] += row["attrs"][key]
    assert expected
    start = next(i for i, line in enumerate(lines) if line.startswith("method"))
    printed = {}
    for line in lines[start + 2:]:
        if line.startswith("-"):
            break
        printed[line[:40].strip()] = line[40:].split()
    assert printed == {
        name: [f"{value:.3f}" for value in sums]
        for name, sums in expected.items()
    }


@pytest.mark.parametrize("jobs, tasks, workers", [
    (1, 4, None), (2, 1, None), (64, 1, None),
    (2, 2, 2), (3, 4, 3), (8, 3, 3),
])
def test_jobs_is_the_worker_count(monkeypatch, jobs, tasks, workers):
    # --jobs N runs the pool on min(N, tasks) workers when that is
    # above 1, and in process otherwise; no task-count floor overrides N.
    from repro import api

    from .verify.test_fault_tolerance import count_pools

    pools = count_pools(monkeypatch)
    source = "".join(
        f"static int f{i}(int x) {{ return x; }}\n" for i in range(tasks)
    )
    unit = api.compile_program(source)
    report = api.verify(unit, options=api.VerifyOptions(jobs=jobs))
    assert report.methods_checked == tasks
    assert pools == ([] if workers is None else [workers])


def test_verify_batch_size_flag_validation(program, capsys):
    # There is no batching (each worker claims one task at a time), and
    # no flag sets a batch size.
    path = program(BUGGY)
    for value in ("auto", "2"):
        with pytest.raises(SystemExit) as exit_info:
            main(["verify", path, "--batch-size", value])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --batch-size" in (
            capsys.readouterr().err
        )


def test_verify_batched_parallel_output_matches_serial(program, capsys):
    path = program(BUGGY)
    strip = lambda text: [
        line
        for line in text.splitlines()
        if not line.startswith("checked")
    ]
    assert main(["verify", path, "--no-cache"]) == 0
    serial = capsys.readouterr().out
    assert main(["verify", path, "--no-cache", "--jobs", "4"]) == 0
    batched = capsys.readouterr().out
    assert strip(serial) == strip(batched)


def test_verify_stats_reports_what_the_pool_did(
    program, capsys, monkeypatch
):
    # Two tasks under --jobs 2 get a two-worker pool; a crashed worker
    # breaks it, both tasks re-run in process and --stats counts them as
    # retried.  The jobs: line that described the driver is gone.
    source = (
        "static int one(int x) { return x; }\n"
        "static int two(int x) { return x; }\n"
    )
    monkeypatch.setenv("REPRO_FAULT", "crash:one")
    assert main(["verify", program(source), "--stats", "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"^tasks: 2 retried", out, re.MULTILINE)
    assert "jobs:" not in out


def test_verify_cache_dir_flag_warms_across_runs(program, capsys, tmp_path):
    path = program(BUGGY)
    cache_dir = str(tmp_path / "verdicts")
    assert main(["verify", path, "--cache-dir", cache_dir]) == 0
    first = capsys.readouterr().out
    assert main(["verify", path, "--cache-dir", cache_dir]) == 0
    second = capsys.readouterr().out
    strip = lambda text: [
        l for l in text.splitlines() if not l.startswith("checked ")
    ]
    assert strip(first) == strip(second)
    import json
    import os

    assert os.path.isdir(cache_dir)
    assert main(
        ["verify", path, "--cache-dir", cache_dir, "--format", "json"]
    ) == 0
    (entry,) = json.loads(capsys.readouterr().out)["files"]
    from repro import api
    from repro.verify.verifier import iter_tasks

    tasks = list(iter_tasks(api.compile_program(BUGGY).table))
    assert entry["report"]["solver_stats"]["tasks_replayed"] == len(tasks)


def test_verify_no_cache_leaves_no_cache_dir(program, tmp_path, capsys):
    import os

    cache_dir = str(tmp_path / "never-created")
    path = program(CLEAN)
    assert main(["verify", path, "--no-cache", "--cache-dir", cache_dir]) == 0
    capsys.readouterr()
    assert not os.path.exists(cache_dir)


def test_cache_dir_env_semantics(monkeypatch, tmp_path):
    """$REPRO_CACHE_DIR: unset -> default, set -> that dir, empty ->
    outcome store off (the old ``env or DEFAULT`` fallthrough silently
    re-enabled the default on an empty value)."""
    import argparse

    from repro.cli import _cache_dir
    from repro.verify.store import DEFAULT_CACHE_DIR

    args = argparse.Namespace(no_cache=False, cache_dir=None)
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    assert _cache_dir(args) == DEFAULT_CACHE_DIR
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
    assert _cache_dir(args) == str(tmp_path / "elsewhere")
    monkeypatch.setenv("REPRO_CACHE_DIR", "")
    assert _cache_dir(args) is None
    # the --cache-dir flag still beats the env either way
    flagged = argparse.Namespace(no_cache=False, cache_dir="explicit")
    assert _cache_dir(flagged) == "explicit"
    # ... and an empty flag disables the store, as the empty env does
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
    emptied = argparse.Namespace(no_cache=False, cache_dir="")
    assert _cache_dir(emptied) is None


def test_empty_cache_dir_env_disables_disk_tier(program, monkeypatch,
                                                tmp_path, capsys):
    import os

    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("REPRO_CACHE_DIR", "")
    assert main(["verify", program(BUGGY)]) == 0
    capsys.readouterr()
    assert not os.path.exists(tmp_path / ".repro-cache")


def test_empty_cache_dir_flag_disables_the_store(program, monkeypatch,
                                                 tmp_path, capsys):
    # ``--cache-dir ""`` used to open the store at the working
    # directory itself (an ``outcomes-v1`` directory beside the input).
    import io
    import json
    import os

    monkeypatch.chdir(tmp_path)
    path = program(BUGGY)
    assert main(["verify", path, "--cache-dir", ""]) == 0
    capsys.readouterr()
    assert os.listdir(tmp_path) == ["program.jm"]
    requests = [
        {"id": 1, "op": "verify", "paths": [path]},
        {"id": 2, "op": "shutdown"},
    ]
    lines = "".join(json.dumps(request) + "\n" for request in requests)
    monkeypatch.setattr("sys.stdin", io.StringIO(lines))
    assert main(["serve", "--stdio", "--cache-dir", ""]) == 0
    first = json.loads(capsys.readouterr().out.splitlines()[0])
    assert first["ok"] and first["result"]["dep_misses"] > 0
    assert os.listdir(tmp_path) == ["program.jm"]


def test_run_function(program, capsys):
    assert main(["run", program(CLEAN), "double", "21"]) == 0
    assert capsys.readouterr().out.strip() == "42"


def test_run_unknown_function(program, capsys):
    assert main(["run", program(CLEAN), "nope"]) == 1


def test_tokens_table(capsys):
    assert main(["tokens"]) == 0
    out = capsys.readouterr().out
    assert "ConsList" in out
    assert "average reduction" in out


# -- observability flags (--trace, --format) ----------------------------


def test_verify_format_json_emits_one_parseable_document(program, capsys):
    import json

    path = program(BUGGY)
    assert main(["verify", path, "--format", "json"]) == 0
    out = capsys.readouterr().out
    document = json.loads(out)
    assert list(document) == ["files"]
    (entry,) = document["files"]
    assert entry["path"] == path
    report = entry["report"]
    assert report["clean"] is False
    assert report["warnings"]
    assert report["warnings"][0]["kind"] == "nonexhaustive"
    assert report["tasks"] == {"retried": 0, "timed_out": 0, "failed": 0}
    assert report["solver_stats"]["tasks_replayed"] == 0


def test_verify_format_json_multiple_files_and_errors(program, capsys):
    import json

    broken = program("class {", "broken.jm")
    buggy = program(BUGGY, "buggy.jm")
    assert main(["verify", broken, buggy, "--format", "json"]) == 1
    captured = capsys.readouterr()
    document = json.loads(captured.out)
    assert [entry["path"] for entry in document["files"]] == [broken, buggy]
    assert "error" in document["files"][0]
    assert "report" in document["files"][1]


def test_verify_format_json_matches_text_warnings(program, capsys):
    import json

    path = program(BUGGY)
    assert main(["verify", path]) == 0
    text = capsys.readouterr().out
    assert main(["verify", path, "--format", "json"]) == 0
    document = json.loads(capsys.readouterr().out)
    messages = [w["message"] for w in document["files"][0]["report"]["warnings"]]
    for message in messages:
        assert message in text


def test_verify_trace_writes_a_valid_jsonl_trace(program, capsys, tmp_path):
    from repro.obs import read_jsonl, validate_trace_rows

    trace = str(tmp_path / "trace.jsonl")
    path = program(BUGGY)
    assert main(["verify", path, "--trace", trace]) == 0
    capsys.readouterr()
    rows = read_jsonl(trace)
    assert validate_trace_rows(rows) == []
    assert rows[0]["kind"] == "run"
    assert [r["name"] for r in rows if r["kind"] == "file"] == [path]
    assert any(r["kind"] == "query" for r in rows)


def test_verify_trace_covers_every_file_under_one_run(program, capsys, tmp_path):
    from repro.obs import read_jsonl, validate_trace_rows

    trace = str(tmp_path / "trace.jsonl")
    clean = program(CLEAN, "clean.jm")
    buggy = program(BUGGY, "buggy.jm")
    assert main(["verify", clean, buggy, "--trace", trace, "--jobs", "2"]) == 0
    capsys.readouterr()
    rows = read_jsonl(trace)
    assert validate_trace_rows(rows) == []
    assert sum(1 for r in rows if r["kind"] == "run") == 1
    assert [r["name"] for r in rows if r["kind"] == "file"] == [clean, buggy]


def test_verify_trace_does_not_change_text_output(program, capsys, tmp_path):
    path = program(BUGGY)
    strip = lambda text: [
        l for l in text.splitlines() if not l.startswith("checked ")
    ]
    assert main(["verify", path]) == 0
    plain = capsys.readouterr().out
    assert main(["verify", path, "--trace", str(tmp_path / "t.jsonl")]) == 0
    traced = capsys.readouterr().out
    assert strip(plain) == strip(traced)


def test_verify_output_matches_reference_oracle(program, capsys):
    """The CLI's bytes are the same when the reference oracle answers."""
    from .smt.reference_solver import reference_engine

    path = program(BUGGY)
    strip = lambda text: [
        l for l in text.splitlines() if not l.startswith("checked ")
    ]
    assert main(["verify", path]) == 0
    incremental = capsys.readouterr().out
    with reference_engine():
        assert main(["verify", path]) == 0
    rebuilt = capsys.readouterr().out
    assert strip(incremental) == strip(rebuilt)


def test_verify_backend_flag_is_rejected(program, capsys, monkeypatch):
    """--backend is gone: a usage error (exit 2), never a verify run."""
    from repro import api as api_module

    calls = []
    monkeypatch.setattr(
        api_module, "verify", lambda *args, **kwargs: calls.append(args)
    )
    for backend in ("reference", "incremental", "z3"):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", program(CLEAN), "--backend", backend])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err
    assert calls == []


def test_no_incremental_flag_is_rejected(program, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", program(CLEAN), "--no-incremental"])
    assert excinfo.value.code == 2
    assert "--no-incremental" in capsys.readouterr().err

# -- exit-status matrix, JSON stats round-trip, and the tier oracle -------


@pytest.mark.parametrize("format_flag", ["text", "json"])
def test_exit_status_matrix_pass(program, capsys, format_flag):
    assert main(["verify", program(CLEAN), "--format", format_flag]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("format_flag", ["text", "json"])
def test_exit_status_matrix_compile_failure(program, capsys, format_flag):
    assert main(["verify", program("class {"), "--format", format_flag]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("format_flag", ["text", "json"])
def test_exit_status_matrix_invalid_flag(program, capsys, format_flag):
    # Usage errors exit 2 before any file is read, in both modes.
    args = ["verify", program(CLEAN), "--format", format_flag]
    assert main(args + ["--budget", "-1"]) == 2
    capsys.readouterr()
    assert main(args + ["--jobs", "0"]) == 2
    capsys.readouterr()


def test_backend_portfolio_is_rejected(program, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", program(CLEAN), "--backend", "portfolio"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --backend portfolio" in err


@pytest.mark.parametrize("format_flag", ["text", "json"])
def test_exit_status_matrix_unreadable_file(program, capsys, tmp_path, format_flag):
    # A path that cannot be opened fails that file (exit 1) the same
    # way a compile error does, in both output modes.
    missing = str(tmp_path / "no-such-file.jm")
    clean = program(CLEAN, "clean.jm")
    assert main(["verify", missing, clean, "--format", format_flag]) == 1
    captured = capsys.readouterr()
    assert "error" in captured.err
    if format_flag == "json":
        import json

        document = json.loads(captured.out)
        assert [e["path"] for e in document["files"]] == [missing, clean]
        assert "error" in document["files"][0]
        assert "report" in document["files"][1]
    else:
        # The clean file is still verified after the unreadable one.
        assert "0 warnings" in captured.out


def test_verify_format_json_embeds_solver_stats_and_profile(program, capsys):
    """Regression: --format json used to drop the --stats/--profile
    blocks entirely; the document must round-trip every counter the
    text tables render."""
    import json

    path = program(BUGGY)
    assert main(
        ["verify", path, "--format", "json", "--stats", "--profile"]
    ) == 0
    document = json.loads(capsys.readouterr().out)
    (entry,) = document["files"]
    stats = entry["report"]["solver_stats"]
    # Task-level accounting.
    for key in ("tasks_retried", "tasks_timed_out", "tasks_failed"):
        assert stats[key] == 0
    # Pattern-algebra accounting.
    for key in ("algebra_discharged", "algebra_fallbacks"):
        assert key in stats
    assert "tier_mismatches" not in stats
    total = stats["total"]
    assert total["queries"] > 0
    assert total["sat"] + total["unsat"] + total["unknown"] == total["queries"]
    # Schema 6 dropped the memory/disk split of the hits with the
    # query-level disk tier, and schema 7 the query-cache counters.
    for key in (
        "cache_hits", "cache_misses", "cache_hit_rate",
        "cache_memory_hits", "cache_disk_hits",
    ):
        assert key not in total
    assert stats["tasks_replayed"] == 0
    # Schema 4: the phase timers live only on the trace's query spans
    # (tests/obs/test_trace.py checks them there), not in the report.
    assert stats["per_method"]
    for key in ("encode_s", "sat_s", "expand_s", "theory_s", "validate_s"):
        assert key not in total
        assert all(key not in row for row in stats["per_method"].values())
    # Schema 5 dropped the soft-deadline counter with the soft deadline;
    # schema 6 added tasks_replayed; schema 8 dropped the driver-decision
    # string.
    assert "parallel_decision" not in stats
    assert entry["report"]["schema"] == 8


@pytest.mark.parametrize("tier", ["auto", "smt-only", "algebra-only", "check"])
def test_verify_tier_flag_accepted(program, capsys, monkeypatch, tier):
    """Each mode the old ``--tier`` flag accepted still reports the
    missing ``zero()`` case: ``auto`` is a default run, ``smt-only`` and
    ``check`` are the oracles in ``tests/verify/tier_oracle.py``, and
    ``algebra-only`` is the algebra's own verdict on the switch."""
    from repro.verify import tiered
    from tests.verify.tier_oracle import smt_only, tier_check

    decisions = []
    real = tiered.PatternAlgebra.analyze_switch

    def recording(self, *args):
        decision = real(self, *args)
        decisions.append(decision)
        return decision

    monkeypatch.setattr(tiered.PatternAlgebra, "analyze_switch", recording)
    argv = ["verify", program(BUGGY), "--no-cache"]
    if tier == "smt-only":
        with smt_only():
            assert main(argv) == 0
    elif tier == "check":
        with tier_check() as disagreements:
            assert main(argv) == 0
        assert disagreements == []
    else:
        assert main(argv) == 0
    out = capsys.readouterr().out
    assert "nonexhaustive" in out
    assert "failed" not in out
    if tier == "algebra-only":
        (decision,) = decisions
        assert decision is not None and decision.exhaustive is False


def test_verify_tier_rejects_unknown_value(program, capsys):
    # The algebra is a fast path, not a setting: every value of the
    # deleted --tier flag, old or new, is a usage error.
    for tier in ("auto", "smt-only", "algebra-only", "check", "fast"):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", program(CLEAN), "--tier", tier])
        assert excinfo.value.code == 2
        assert "--tier" in capsys.readouterr().err


def test_verify_tier_auto_matches_smt_only_text(program, capsys):
    from tests.verify.tier_oracle import (
        algebra_counterexamples,
        smt_only,
        smt_only_mismatches,
    )

    path = program(BUGGY)
    prefix = "  counterexample: "

    def findings(text):
        """(warning line, counterexample) pairs of the printed text."""
        out = []
        for line in text.splitlines():
            if line.startswith(prefix):
                out[-1] = (out[-1][0], line[len(prefix):])
            elif not line.startswith("checked "):
                out.append((line, None))
        return out

    with smt_only():
        assert main(["verify", path, "--no-cache"]) == 0
    smt = capsys.readouterr().out
    with algebra_counterexamples() as rendered:
        assert main(["verify", path, "--no-cache"]) == 0
    auto = capsys.readouterr().out
    assert rendered == ["n = zero()"]
    assert smt_only_mismatches(findings(auto), findings(smt), rendered) == []


def test_verify_tier_check_lying_algebra_fails_the_task(
    program, capsys, monkeypatch
):
    """A forced algebra/SMT disagreement under the tier oracle fails the
    method's task, in both output modes; the report is still rendered
    and the run still exits 0 (a failed task is a warning)."""
    import json

    from repro.verify import tiered
    from tests.verify.tier_oracle import tier_check

    real = tiered.PatternAlgebra.analyze_switch

    def lying(self, node, *rest):
        decision = real(self, node, *rest)
        if decision is not None and decision.exhaustive is False:
            decision.exhaustive = True
        return decision

    monkeypatch.setattr(tiered.PatternAlgebra, "analyze_switch", lying)
    path = program(BUGGY)
    with tier_check() as disagreements:
        assert main(["verify", path, "--no-cache"]) == 0
    assert "failed (AssertionError)" in capsys.readouterr().out
    assert disagreements
    with tier_check():
        assert main(["verify", path, "--no-cache", "--format", "json"]) == 0
    document = json.loads(capsys.readouterr().out)
    (entry,) = document["files"]
    assert entry["report"]["tasks"]["failed"] == 1
