"""The structured trace: schema validity, span coverage, golden shape.

``repro verify --trace`` (and ``api.verify(trace=...)``) must emit a
JSONL span tree that (a) satisfies the executable schema
(:func:`repro.obs.validate_trace_rows`), (b) covers the whole pipeline
— run, file, task, statement, obligation, and query spans — and
(c) has a deterministic *shape*: ids, parents, kinds, names, and
verdicts are a function of the program alone, while pids, durations,
and cache tiers vary run to run.  The golden file pins that shape for
one small program so schema drift is a reviewed change, not an
accident.
"""

import json
import os

import pytest

from repro import api
from repro.obs import (
    Span,
    Tracer,
    read_jsonl,
    span_rows,
    validate_trace_rows,
    write_jsonl,
)
from repro.smt.cache import SolverCache
from repro.verify.verifier import iter_tasks

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_trace.jsonl")

#: exercises every span source: an invariant task, constructor method
#: tasks, a function task, a switch statement with redundancy /
#: exhaustiveness obligations, and a let-totality obligation
PROGRAM = """
interface Nat {
  invariant(this = zero() | succ(_));
  constructor zero() matches(notall(result)) returns();
  constructor succ(Nat n) matches(notall(result)) returns(n);
}
static int f(Nat n) {
  switch (n) {
    case zero(): return 0;
    case succ(Nat p): return 1;
  }
}
static int g(Nat n) {
  let succ(Nat p) = n;
  return 2;
}
"""


def normalize(rows):
    """The deterministic projection of a trace: its shape and verdicts.

    Ids and parents are document-order (assigned at write time), so
    they belong to the shape; pids, durations, cache tiers, depths,
    and phase timers are legitimately run-dependent and are dropped.
    """
    return [
        (
            row["id"],
            row["parent"],
            row["kind"],
            row["name"],
            row["attrs"].get("verdict"),
        )
        for row in rows
    ]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    unit = api.compile_program(PROGRAM)
    path = tmp_path_factory.mktemp("trace") / "trace.jsonl"
    report = api.verify(
        unit, options=api.VerifyOptions(cache=SolverCache(), trace=str(path))
    )
    return unit, report, read_jsonl(str(path))


def test_trace_rows_satisfy_schema(traced):
    _, _, rows = traced
    assert validate_trace_rows(rows) == []


def test_trace_has_the_full_span_hierarchy(traced):
    _, _, rows = traced
    kinds = {row["kind"] for row in rows}
    assert kinds == {"run", "file", "task", "statement", "obligation", "query"}


def test_trace_has_one_task_span_per_task_in_order(traced):
    unit, _, rows = traced
    labels = [row["name"] for row in rows if row["kind"] == "task"]
    assert labels == [task.label for task in iter_tasks(unit.table)]


def test_task_spans_carry_the_task_kind(traced):
    unit, _, rows = traced
    kinds = [row["attrs"]["kind"] for row in rows if row["kind"] == "task"]
    assert kinds == [task.kind for task in iter_tasks(unit.table)]


def test_statement_and_obligation_spans_are_present(traced):
    _, _, rows = traced
    statements = [row["name"] for row in rows if row["kind"] == "statement"]
    obligations = [row["name"] for row in rows if row["kind"] == "obligation"]
    assert any(name.startswith("switch@") for name in statements)
    assert any(name.startswith("let@") for name in statements)
    assert "exhaustiveness" in obligations
    assert "let-totality" in obligations
    assert any(name.startswith("redundancy of arm") for name in obligations)


def test_query_spans_carry_verdict_cache_and_phase_timers(traced):
    _, _, rows = traced
    queries = [row for row in rows if row["kind"] == "query"]
    assert queries
    for row in queries:
        attrs = row["attrs"]
        assert attrs["verdict"] in ("sat", "unsat", "unknown")
        assert attrs["cache"] in ("memory", "miss", "off")
        for key in ("encode_s", "sat_s", "expand_s", "theory_s",
                    "validate_s", "depth", "passes", "rounds",
                    "conflicts", "core_lits"):
            assert key in attrs, f"query span missing {key}"


def test_trace_shape_matches_golden_file(traced):
    _, _, rows = traced
    golden = read_jsonl(GOLDEN)
    assert validate_trace_rows(golden) == []
    assert normalize(rows) == normalize(golden)


def test_tracing_does_not_change_the_report(tmp_path):
    unit = api.compile_program(PROGRAM)
    plain = api.verify(unit, options=api.VerifyOptions(cache=SolverCache()))
    traced = api.verify(
        unit,
        options=api.VerifyOptions(
            cache=SolverCache(),
            trace=str(tmp_path / "t.jsonl"),
        ),
    )
    assert [str(w) for w in plain.diagnostics.warnings] == [
        str(w) for w in traced.diagnostics.warnings
    ]
    assert plain.methods_checked == traced.methods_checked
    assert plain.statements_checked == traced.statements_checked


def test_degraded_task_spans_record_events(tmp_path):
    """A timed-out task leaves a single synthetic span with an event."""
    unit = api.compile_program(PROGRAM)
    path = tmp_path / "t.jsonl"
    report = api.verify(
        unit,
        options=api.VerifyOptions(
            cache=SolverCache(),
            budget=0.0,  # starve queries so the deadline can win the race
            task_timeout=1e-9,
            trace=str(path),
        ),
    )
    rows = read_jsonl(str(path))
    assert validate_trace_rows(rows) == []
    timed_out = [
        row
        for row in rows
        if row["kind"] == "task"
        and any(event["name"] == "timeout" for event in row["events"])
    ]
    assert len(timed_out) == report.tasks_timed_out
    for row in timed_out:
        assert not [r for r in rows if r["parent"] == row["id"]], (
            "degraded task spans replace partial children"
        )


def test_sink_roundtrip_and_id_assignment(tmp_path):
    tracer = Tracer()
    with tracer.span("run", "verify"):
        with tracer.span("file", "a.jm"):
            with tracer.span("task", "T.m", kind="method"):
                tracer.leaf(
                    "query", "unsat", 0.0, 0.001,
                    {"verdict": "unsat", "cache": "miss"},
                )
    rows = span_rows(tracer.roots)
    assert [(r["id"], r["parent"]) for r in rows] == [
        (1, None), (2, 1), (3, 2), (4, 3)
    ]
    path = tmp_path / "t.jsonl"
    assert write_jsonl(str(path), tracer.roots) == 4
    assert read_jsonl(str(path)) == rows
    assert validate_trace_rows(rows) == []


def test_attach_adopts_worker_subtrees_in_place():
    worker = Tracer()
    with worker.span("task", "T.m", kind="method"):
        worker.event("retry")
    parent = Tracer()
    with parent.span("run", "verify"):
        with parent.span("file", "a.jm"):
            parent.attach(worker.roots[0])
    rows = span_rows(parent.roots)
    assert [row["kind"] for row in rows] == ["run", "file", "task"]
    assert rows[2]["events"] == [{"name": "retry"}]
    assert validate_trace_rows(rows) == []


def test_null_tracer_is_inert():
    from repro.obs import NULL_TRACER

    assert NULL_TRACER.enabled is False
    with NULL_TRACER.span("task", "x", kind="method") as span:
        assert span is None
    assert NULL_TRACER.begin("run", "verify") is None
    assert NULL_TRACER.leaf("query", "sat", 0.0, 0.0) is None
    NULL_TRACER.event("retry")
    NULL_TRACER.attach(Span("task", "x"))


def test_rows_are_json_lines(tmp_path):
    tracer = Tracer()
    with tracer.span("run", "verify"):
        pass
    path = tmp_path / "t.jsonl"
    write_jsonl(str(path), tracer.roots)
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["kind"] == "run"
