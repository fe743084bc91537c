"""The caches, the incremental engine and the pattern algebra save work.

Each is an optimisation that must leave verdicts alone, and the parity
suites check that it does.  These tests check the other half, that
each one still saves something, with counters rather than clocks, so
they give the same answer on a loaded box as on an idle one:

* a second pass over unchanged code with a query cache passed in
  answers at least half of each group's queries from it;
* a second pass with the same ``cache_dir`` replays every task from
  the outcome store and runs no SMT query at all, and after an edit
  re-runs exactly the tasks whose dependency fingerprint changed;
* the incremental engine asserts fewer axioms than the reference
  engine (``tests/smt/reference_solver.py``), which re-derives them
  per query and per deepening depth;
* the pattern algebra leaves fewer SMT queries than ``smt_only()``.

``trees`` is left out: its queries run to the budget and answer
UNKNOWN, which is never cached and whose counters depend on the box.
"""

import pytest

from repro import api
from repro.corpus import combined_programs
from repro.obs import Tracer
from repro.smt.cache import SolverCache
from repro.smt.solver import Solver
from repro.verify.daemon import fingerprint_tasks

from ..smt.reference_solver import reference_engine
from .tier_oracle import smt_only

GROUPS = ["nat", "lists", "cps", "typeinf", "collections"]


@pytest.fixture(scope="module")
def units():
    programs = combined_programs()
    return {
        g: api.compile_program(programs[g], filename=f"{g}.jm")
        for g in GROUPS
    }


@pytest.fixture(scope="module")
def plain(units):
    """One pass with the query cache off."""
    return _verify_all(units, lambda: None)


def _verify_all(units, cache_for, cache_dir=None):
    """One pass over every group; ``cache_for()`` gives each its cache."""
    return {
        g: api.verify(
            units[g],
            options=api.VerifyOptions(cache=cache_for(), cache_dir=cache_dir),
        )
        for g in GROUPS
    }


def _warnings(reports):
    return {
        g: [str(w) for w in r.diagnostics.warnings] for g, r in reports.items()
    }


def test_warm_pass_hits_the_memory_tier(units, plain):
    caches = {g: SolverCache() for g in GROUPS}
    cold = {}
    warm = {}
    hits = {}
    for g in GROUPS:
        options = api.VerifyOptions(cache=caches[g])
        cold[g] = api.verify(units[g], options=options)
        before = caches[g].hits
        warm[g] = api.verify(units[g], options=options)
        hits[g] = caches[g].hits - before
    assert _warnings(cold) == _warnings(plain)
    assert _warnings(warm) == _warnings(plain)
    for group, report in warm.items():
        queries = report.solver_stats.total.queries
        assert queries > 0, group
        assert hits[group] * 2 >= queries, (
            f"{group}: {hits[group]} of {queries} queries "
            "answered from cache on a warm pass"
        )


@pytest.fixture
def solver_checks(monkeypatch):
    """How many SMT ``check()`` calls ran since the fixture was set up."""
    calls = []
    real = Solver.check

    def counting(self):
        calls.append(1)
        return real(self)

    monkeypatch.setattr(Solver, "check", counting)
    return calls


def _comparable(report):
    """The report document without the work a replay does not do."""
    document = report.to_dict()
    del document["seconds"], document["solver_stats"]
    return document


def test_warm_cache_dir_pass_replays_every_task(
    units, plain, tmp_path, solver_checks
):
    # A fresh SolverCache per group is a new process reading what an
    # earlier one wrote.
    cold = _verify_all(units, SolverCache, str(tmp_path))
    assert solver_checks
    solver_checks.clear()
    warm = _verify_all(units, SolverCache, str(tmp_path))
    assert not solver_checks, f"{len(solver_checks)} SMT queries on a warm pass"
    assert _warnings(cold) == _warnings(plain)
    for group, report in warm.items():
        tasks = len(fingerprint_tasks(units[group].table))
        assert report.tasks_replayed == tasks, group
        assert cold[group].tasks_replayed == 0, group
        assert _comparable(report) == _comparable(cold[group]), group
        # A replayed task made no query and discharged nothing.
        assert report.solver_stats.total.queries == 0, group
        assert report.solver_stats.per_method == {}, group
        assert report.solver_stats.algebra_discharged == 0, group
    assert sum(r.solver_stats.algebra_discharged for r in cold.values()) > 0


def _dep_events(unit, cache_dir):
    """Verify ``unit`` traced; each task label's dep-hit/dep-miss event."""
    tracer = Tracer()
    report = api.verify(
        unit,
        options=api.VerifyOptions(
            cache=SolverCache(), cache_dir=str(cache_dir), tracer=tracer
        ),
    )
    events = {}
    for root in tracer.roots:
        for span in root.walk():
            if span.kind == "task":
                (event,) = [
                    e["name"] for e in span.events if e["name"] in (
                        "dep-hit", "dep-miss"
                    )
                ]
                events[span.name] = event
    return report, events


EDITS = {
    # One line of ``times``'s body; no line moves.
    "nat": (
        "case succ(Nat k): return plus(n, times(k, n));",
        "case succ(Nat k): return plus(times(k, n), n);",
    ),
    # One unrelated function appended at the end.
    "collections": (None, "\nstatic int unrelated(int x) {\n  return x + 1;\n}\n"),
}


@pytest.mark.parametrize("group", sorted(EDITS))
def test_edited_file_re_runs_only_changed_tasks(group, tmp_path):
    source = combined_programs()[group]
    before = api.compile_program(source, filename=f"{group}.jm")
    old, new = EDITS[group]
    if old is None:
        edited = source + new
    else:
        assert source.count(old) == 1
        edited = source.replace(old, new)
    after = api.compile_program(edited, filename=f"{group}.jm")

    _dep_events(before, tmp_path)
    report, events = _dep_events(after, tmp_path)

    old_prints = fingerprint_tasks(before.table)
    new_prints = fingerprint_tasks(after.table)
    changed = {
        task.label
        for task, fingerprint in new_prints.items()
        if fingerprint is None or old_prints.get(task) != fingerprint
    }
    assert changed, "the edit must change some task's fingerprint"
    assert len(changed) < len(new_prints) // 4
    rerun = {label for label, event in events.items() if event == "dep-miss"}
    assert rerun == changed
    assert report.tasks_replayed == len(new_prints) - len(changed)
    fresh = api.verify(after, options=api.VerifyOptions(cache=None))
    assert [str(w) for w in report.diagnostics.warnings] == [
        str(w) for w in fresh.diagnostics.warnings
    ]


NONEXHAUSTIVE = """
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


def test_same_source_at_two_paths_never_shares_outcomes(tmp_path):
    # Warnings carry their file name, so a replay across paths would
    # print the other file's name.
    first = api.compile_program(NONEXHAUSTIVE, filename="a/nat.jm")
    second = api.compile_program(NONEXHAUSTIVE, filename="b/nat.jm")
    options = api.VerifyOptions(cache=SolverCache(), cache_dir=str(tmp_path))
    assert api.verify(first, options=options).tasks_replayed == 0
    report = api.verify(second, options=options)
    assert report.tasks_replayed == 0
    assert report.diagnostics.warnings
    assert all(
        w.span.filename == "b/nat.jm" for w in report.diagnostics.warnings
    )
    # Each path replays its own outcomes.
    assert api.verify(first, options=options).tasks_replayed == len(
        fingerprint_tasks(first.table)
    )


def _total(reports, counter):
    return sum(getattr(r.solver_stats.total, counter) for r in reports.values())


def test_incremental_engine_asserts_fewer_axioms(units, plain):
    with reference_engine():
        reference = _verify_all(units, lambda: None)
    assert _warnings(reference) == _warnings(plain)
    assert _total(plain, "axioms_asserted") < _total(
        reference, "axioms_asserted"
    )


def test_pattern_algebra_saves_smt_queries(units, plain):
    with smt_only():
        pure_smt = _verify_all(units, lambda: None)
    assert _warnings(pure_smt) == _warnings(plain)
    assert _total(plain, "queries") < _total(pure_smt, "queries")
