"""Serial/parallel trace parity: ``--jobs N`` must not change the tree.

The tracing layer's acceptance bar mirrors the parallel engine's: a
serial run and a ``--jobs 4`` run of the same program must emit the
same span tree modulo span ids being reassigned (they are document-
order, so they actually coincide), pids, and timings.  Concretely, the
normalized projection — (id, parent, kind, name, verdict) per row —
must be equal; pids, durations, deepening depths, and phase timers
legitimately differ because workers rebuild private sessions.
"""

import pytest

from repro import api
from repro.corpus import combined_programs
from repro.obs import read_jsonl, validate_trace_rows
from repro.smt.cache import SolverCache

from .test_trace import normalize

FAST_GROUPS = ["nat", "lists"]


@pytest.fixture(scope="module")
def units():
    programs = combined_programs()
    return {g: api.compile_program(programs[g]) for g in FAST_GROUPS}


def _traced_rows(unit, path, **settings):
    report = api.verify(
        unit, options=api.VerifyOptions(trace=str(path), **settings)
    )
    rows = read_jsonl(str(path))
    assert validate_trace_rows(rows) == []
    return report, rows


@pytest.mark.parametrize("group", FAST_GROUPS)
def test_parallel_trace_matches_serial(units, group, tmp_path):
    serial_report, serial_rows = _traced_rows(
        units[group], tmp_path / "serial.jsonl", cache=SolverCache()
    )
    parallel_report, parallel_rows = _traced_rows(
        units[group], tmp_path / "parallel.jsonl", jobs=4
    )
    assert normalize(serial_rows) == normalize(parallel_rows)
    # ... and tracing did not perturb the reports themselves.
    assert [str(w) for w in serial_report.diagnostics.warnings] == [
        str(w) for w in parallel_report.diagnostics.warnings
    ]


def test_parallel_trace_uses_worker_pids(units, tmp_path):
    """The parallel trace really came from workers: pids differ."""
    _, rows = _traced_rows(units["nat"], tmp_path / "p.jsonl", jobs=4)
    run_pid = rows[0]["pid"]
    task_pids = {row["pid"] for row in rows if row["kind"] == "task"}
    assert task_pids and run_pid not in task_pids


def test_serial_timeout_driver_trace_matches_plain_serial(units, tmp_path):
    """The deadline-armed serial driver yields the same tree shape."""
    _, plain = _traced_rows(
        units["nat"], tmp_path / "plain.jsonl", cache=SolverCache()
    )
    _, deadline = _traced_rows(
        units["nat"],
        tmp_path / "deadline.jsonl",
        cache=SolverCache(),
        task_timeout=600.0,
    )
    assert normalize(plain) == normalize(deadline)
