"""Differential engine parity: the engine and the oracles, byte-identical.

There is one solving engine; the oracles only change *how* a verdict
is reached, never *which* verdict -- or which counterexample text --
the user sees.  This harness compares whole reports over two corpora:

* the hand-written corpus groups with conclusive verdicts (``trees``
  is excluded on purpose: it exhausts any budget by design, so which
  queries answer UNKNOWN is legitimately engine-dependent there -- see
  ``tests/verify/test_incremental_parity.py``);
* a seeded ``repro.gen`` corpus, so parity is also checked on shapes
  no human wrote (or thought to write).

The baseline is the reference oracle (``reference_solver.py``, a fresh
rebuild-per-query solve).  Compared against it, by parameter id:

* ``incremental`` -- the engine itself, unpatched;
* ``z3`` -- the z3 verdict oracle (``z3_oracle.py``), with model
  queries answered by the reference oracle.

"Byte-identical" means the full ``report.to_dict()`` document minus
the fields that measure *how* the run went (timings and solver
internals): warnings with their rendered counterexamples, per-kind
counts, methods/statements checked, and the clean flag.  Verdict
counts (queries / sat / unsat / unknown) must match too -- each
obligation records exactly one query outcome regardless of engine.

The z3 cases skip cleanly when the z3 wheel is not installed; CI's
``oracle-parity`` job has a lane that installs z3-solver and runs this
same file to un-skip them.
"""

import contextlib

import pytest

from repro import api
from repro.corpus import combined_programs
from repro.gen import GenConfig, generate_corpus

from .reference_solver import reference_engine
from .z3_oracle import z3_available, z3_engine

#: corpus groups whose verdicts are conclusive under the default budget
CONCLUSIVE_GROUPS = ["nat", "lists", "cps", "typeinf", "collections"]

#: what is compared against the reference baseline, by parameter id
ENGINES = {"incremental": contextlib.nullcontext, "z3": z3_engine}


def _engine(name):
    if name == "z3" and not z3_available():
        pytest.skip("z3 is not installed in this environment")
    return ENGINES[name]()


def _report_key(report):
    """Everything in the report document except timings and internals."""
    doc = report.to_dict()
    doc.pop("seconds")
    doc.pop("solver_stats")
    return doc


def _verdicts(report):
    t = report.solver_stats.total
    return (t.queries, t.sat, t.unsat, t.unknown)


def _verify(unit, jobs=1):
    return api.verify(unit, options=api.VerifyOptions(cache=None, jobs=jobs))


def _verify_reference(unit, jobs=1):
    with reference_engine():
        return _verify(unit, jobs)


@pytest.fixture(scope="module")
def corpus_units():
    programs = combined_programs()
    return {g: api.compile_program(programs[g]) for g in CONCLUSIVE_GROUPS}


@pytest.fixture(scope="module")
def corpus_baselines(corpus_units):
    return {g: _verify_reference(unit) for g, unit in corpus_units.items()}


@pytest.fixture(scope="module")
def gen_units():
    corpus = generate_corpus(GenConfig(methods=40, seed=20260808))
    return [
        api.compile_program(f.source, filename=f.name) for f in corpus.files
    ]


@pytest.fixture(scope="module")
def gen_baselines(gen_units):
    return [_verify_reference(unit) for unit in gen_units]


@pytest.mark.parametrize("engine", list(ENGINES))
@pytest.mark.parametrize("group", CONCLUSIVE_GROUPS)
def test_backend_matches_reference_on_corpus(
    corpus_units, corpus_baselines, engine, group
):
    with _engine(engine):
        report = _verify(corpus_units[group])
    assert _report_key(report) == _report_key(corpus_baselines[group])
    assert _verdicts(report) == _verdicts(corpus_baselines[group])


@pytest.mark.parametrize("engine", list(ENGINES))
def test_backend_matches_reference_on_generated_corpus(
    gen_units, gen_baselines, engine
):
    for unit, baseline in zip(gen_units, gen_baselines):
        with _engine(engine):
            report = _verify(unit)
        assert _report_key(report) == _report_key(baseline), unit.filename
        assert _verdicts(report) == _verdicts(baseline), unit.filename


def test_engine_matches_reference_on_generated_corpus_jobs4(
    gen_units, gen_baselines
):
    """The engine and the reference oracle through the process pool:
    forked workers inherit the oracle patch, and the merge must not
    reorder or lose anything."""
    for unit, baseline in zip(gen_units, gen_baselines):
        report = _verify(unit, jobs=4)
        reference = _verify_reference(unit, jobs=4)
        for got in (report, reference):
            assert _report_key(got) == _report_key(baseline), unit.filename
            assert _verdicts(got) == _verdicts(baseline), unit.filename


def test_generated_corpus_exercises_both_verdict_polarities(gen_baselines):
    """The seeded corpus must contain real work for the engines.

    If a future generator change made every method clean (or every
    method warn), the parity assertions above would still pass while
    checking half as much; pin that both polarities are present.
    """
    warned = sum(
        1 for r in gen_baselines if r.diagnostics.warnings
    )
    clean = sum(1 for r in gen_baselines if not r.diagnostics.warnings)
    assert warned + clean == len(gen_baselines)
    total_warnings = sum(
        len(r.diagnostics.warnings) for r in gen_baselines
    )
    assert total_warnings > 0, "generated corpus produced no warnings"
    total_methods = sum(r.methods_checked for r in gen_baselines)
    assert total_methods >= 40
