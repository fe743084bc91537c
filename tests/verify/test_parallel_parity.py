"""Serial/parallel parity: ``jobs=N`` must not change what the user sees.

The acceptance bar for the parallel engine is byte-identical output:
for every corpus program, a parallel run must produce the same warning
list (text and order) and the same ``methods_checked`` /
``statements_checked`` as the serial driver.  The ``trees`` group runs
with a near-zero budget, which deterministically turns every solver
query inconclusive (conclusive-by-construction propositional conflicts
aside) — its full-budget queries take minutes and answer UNKNOWN
anyway — so parity is exercised on its warning stream without timing
sensitivity.
"""

import pytest

from repro import api
from repro.corpus import combined_programs
from repro.smt.cache import SolverCache
from repro.verify.parallel import TaskOutcome, merge_outcomes
from repro.verify.verifier import VerifyTask, iter_tasks

FAST_GROUPS = ["nat", "lists", "cps", "typeinf", "collections"]

#: effectively zero: every query that reaches the solver loop answers
#: UNKNOWN immediately, so verdicts cannot depend on machine load
NO_BUDGET = 1e-9


def _snapshot(report):
    return (
        [str(w) for w in report.diagnostics.warnings],
        report.methods_checked,
        report.statements_checked,
    )


@pytest.fixture(scope="module")
def units():
    programs = combined_programs()
    return {g: api.compile_program(programs[g]) for g in programs}


@pytest.mark.parametrize("group", FAST_GROUPS)
def test_parallel_matches_serial(units, group):
    serial = api.verify(
        units[group], options=api.VerifyOptions(cache=SolverCache())
    )
    parallel = api.verify(units[group], options=api.VerifyOptions(jobs=4))
    assert _snapshot(serial) == _snapshot(parallel)


def test_parallel_matches_serial_trees(units):
    serial = api.verify(
        units["trees"],
        options=api.VerifyOptions(cache=SolverCache(), budget=NO_BUDGET),
    )
    parallel = api.verify(
        units["trees"], options=api.VerifyOptions(jobs=4, budget=NO_BUDGET)
    )
    assert serial.diagnostics.warnings, "trees should warn under a tiny budget"
    assert _snapshot(serial) == _snapshot(parallel)


def test_parallel_matches_serial_without_cache(units):
    serial = api.verify(units["nat"], options=api.VerifyOptions(cache=None))
    parallel = api.verify(
        units["nat"], options=api.VerifyOptions(jobs=2, cache=None)
    )
    assert _snapshot(serial) == _snapshot(parallel)


def test_parallel_counterexample_text_is_stable(units):
    """Counterexamples survive the worker round-trip byte-for-byte."""
    source = """
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
"""
    unit = api.compile_program(source)
    serial = api.verify(unit, options=api.VerifyOptions(cache=SolverCache()))
    parallel = api.verify(unit, options=api.VerifyOptions(jobs=3))
    assert any(w.counterexample for w in serial.diagnostics.warnings)
    assert _snapshot(serial) == _snapshot(parallel)


def test_iter_tasks_covers_the_program(units):
    table = units["collections"].table
    tasks = list(iter_tasks(table))
    assert len(tasks) == len(set(tasks)), "tasks must be unique"
    method_tasks = [t for t in tasks if t.kind == "method"]
    function_tasks = [t for t in tasks if t.kind == "function"]
    report = api.verify(
        units["collections"], options=api.VerifyOptions(cache=SolverCache())
    )
    assert len(method_tasks) + len(function_tasks) == report.methods_checked


def test_merge_preserves_task_order():
    from repro.errors import NO_SPAN, Warning, WarningKind

    first = TaskOutcome(
        warnings=[Warning(WarningKind.NONEXHAUSTIVE, "first", NO_SPAN)],
        methods_checked=1,
        statements_checked=2,
    )
    second = TaskOutcome(
        warnings=[Warning(WarningKind.TOTALITY, "second", NO_SPAN)],
        methods_checked=1,
        statements_checked=0,
    )
    report = merge_outcomes([first, second], seconds=0.0)
    assert [w.message for w in report.diagnostics.warnings] == [
        "first",
        "second",
    ]
    assert report.methods_checked == 2
    assert report.statements_checked == 2


def test_parallel_stats_totals_match_serial_queries(units):
    """Merged stats count every query exactly once."""
    serial = api.verify(units["lists"], options=api.VerifyOptions(cache=None))
    parallel = api.verify(
        units["lists"], options=api.VerifyOptions(jobs=4, cache=None)
    )
    assert (
        parallel.solver_stats.total.queries
        == serial.solver_stats.total.queries
    )
    assert set(parallel.solver_stats.per_method) == set(
        serial.solver_stats.per_method
    )
