"""Incremental/from-scratch parity: state reuse must not change verdicts.

The incremental engine shares Tseitin encodings, plugin axioms, theory
lemmas, and CDCL-learned clauses across the query chain of each
statement; the acceptance bar is that this is *pure* work sharing.
For every corpus program, the engine must produce byte-identical
warnings (messages and counterexample text), the same
``methods_checked`` / ``statements_checked``, and the same verdict
counts as the reference oracle (``tests/smt/reference_solver.py``),
which rebuilds a fresh solver per query -- under both the serial
driver and the process pool.
"""

import pytest

from repro import api
from repro.corpus import combined_programs
from repro.smt.cache import SolverCache

from ..smt.reference_solver import reference_engine

FAST_GROUPS = ["nat", "lists", "cps", "typeinf", "collections"]

#: effectively zero: every query that reaches the solver loop answers
#: UNKNOWN immediately, so verdicts cannot depend on machine load
NO_BUDGET = 1e-9


def _snapshot(report):
    return (
        [str(w) for w in report.diagnostics.warnings],
        [w.counterexample for w in report.diagnostics.warnings],
        report.methods_checked,
        report.statements_checked,
    )


def _report_key(report):
    """The report document minus timings and solver internals."""
    doc = report.to_dict()
    doc.pop("seconds")
    doc.pop("solver_stats")
    return doc


def _run(unit, **settings):
    return api.verify(unit, options=api.VerifyOptions(**settings))


def _run_reference(unit, **settings):
    with reference_engine():
        return _run(unit, **settings)


def _verdicts(report):
    t = report.solver_stats.total
    return (t.queries, t.sat, t.unsat, t.unknown)


@pytest.fixture(scope="module")
def units():
    programs = combined_programs()
    return {g: api.compile_program(programs[g]) for g in programs}


@pytest.mark.parametrize("group", FAST_GROUPS)
def test_incremental_matches_fromscratch_serial(units, group):
    baseline = _run_reference(units[group], cache=None)
    incremental = _run(units[group], cache=None)
    assert _snapshot(baseline) == _snapshot(incremental)
    assert _report_key(baseline) == _report_key(incremental)
    assert _verdicts(baseline) == _verdicts(incremental)


@pytest.mark.parametrize("group", FAST_GROUPS)
def test_incremental_matches_fromscratch_parallel(units, group):
    baseline = _run_reference(units[group], jobs=4, cache=None)
    incremental = _run(units[group], jobs=4, cache=None)
    assert _snapshot(baseline) == _snapshot(incremental)
    assert _report_key(baseline) == _report_key(incremental)
    assert _verdicts(baseline) == _verdicts(incremental)


@pytest.mark.parametrize("jobs", [1, 4])
def test_reference_oracle_really_answers(units, jobs):
    """Guards the comparisons above against a patch that silently does
    nothing (or does not reach forked workers): the rebuild engine
    re-derives axioms per depth, so its work counters differ."""
    engine = _run(units["collections"], jobs=jobs, cache=None)
    oracle = _run_reference(units["collections"], jobs=jobs, cache=None)
    assert (
        oracle.solver_stats.total.axioms_asserted
        > engine.solver_stats.total.axioms_asserted
    )


def test_trees_under_dead_budget_is_sound_and_deterministic(units):
    """Both engines degrade safely when the budget is effectively zero.

    The two engines hit their budget checkpoints at different points
    (the from-scratch engine re-encodes per depth, so it can run out
    while encoding where the incremental engine runs out while
    solving), so *which* queries answer UNKNOWN is legitimately
    engine-dependent here -- warnings need not match line for line.
    What must hold: every hard query degrades to an inconclusive
    warning (never a wrong verdict), the same methods and statements
    are visited, and each engine is deterministic run to run.
    """
    baseline = _run_reference(units["trees"], cache=None, budget=NO_BUDGET)
    incremental = _run(units["trees"], cache=None, budget=NO_BUDGET)
    for report in (baseline, incremental):
        assert report.diagnostics.warnings, "trees should warn under tiny budget"
        assert all(
            "verification-inconclusive" in str(w) or "could not" in str(w)
            for w in report.diagnostics.warnings
        )
    assert baseline.methods_checked == incremental.methods_checked
    assert baseline.statements_checked == incremental.statements_checked
    again = _run(units["trees"], cache=None, budget=NO_BUDGET)
    assert _snapshot(incremental) == _snapshot(again)


def test_incremental_counterexample_text_is_canonical(units):
    """SAT models shown to the user match the from-scratch engine's.

    The shared engine's internal models depend on inherited search
    state, so counterexamples are re-derived by a canonical fresh
    solve; this pins that the rendered text is byte-identical.
    """
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
    baseline = _run_reference(unit, cache=None)
    incremental = _run(unit, cache=None)
    assert any(w.counterexample for w in baseline.diagnostics.warnings)
    assert _snapshot(baseline) == _snapshot(incremental)


#: the one corpus counterexample whose text depends on *which* solve
#: produces the model: answering this model query on the statement's
#: shared engine (with its inherited search state) renders a different
#: counterexample, so it pins that model queries get a fresh solve
COLLECTIONS_144 = (
    "warning[nonexhaustive] <input>:144:5: match is not exhaustive\n"
    "  counterexample: c = 1; k = 0; "
    "l: matched-by RBTree.rbleaf[pred], "
    "not matched-by RBTree.rbnode[color,key,l,r,val], instanceof RBTree; "
    "r: matched-by RBTree.rbleaf[pred], "
    "not matched-by RBTree.rbnode[color,key,l,r,val], instanceof RBTree; "
    "result: not matched-by RBTree.rbleaf[pred], "
    "matched-by RBTree.rbnode[color,key,l,r,val], instanceof RBTree"
)


@pytest.mark.parametrize("jobs", [1, 4])
def test_collections_counterexample_is_pinned(units, jobs):
    for run in (_run, _run_reference):
        report = run(units["collections"], jobs=jobs, cache=None)
        rendered = [str(w) for w in report.diagnostics.warnings]
        assert COLLECTIONS_144 in rendered


def test_incremental_with_shared_cache_matches(units):
    """A warm shared cache does not perturb incremental verdicts."""
    cache = SolverCache()
    cold = _run(units["nat"], cache=cache)
    warm = _run(units["nat"], cache=cache)
    baseline = _run_reference(units["nat"], cache=None)
    assert _snapshot(cold) == _snapshot(baseline)
    assert _snapshot(warm) == _snapshot(baseline)


def test_incremental_repeat_runs_are_deterministic(units):
    first = _run(units["cps"], cache=None)
    second = _run(units["cps"], cache=None)
    assert _snapshot(first) == _snapshot(second)
    assert _verdicts(first) == _verdicts(second)
