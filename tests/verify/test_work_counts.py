"""The cache, the incremental engine and the pattern algebra save work.

Each of the three is an optimisation that must leave verdicts alone,
and the parity suites check that it does.  These tests check the other
half, that each one still saves something, with counters rather than
clocks, so they give the same answer on a loaded box as on an idle
one:

* a second pass over unchanged code answers at least half of each
  group's queries from the cache, from the memory tier and from the
  disk tier alike;
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
from repro.smt.cache import SolverCache
from repro.smt.diskcache import DiskCache

from ..smt.reference_solver import reference_engine
from .tier_oracle import smt_only

GROUPS = ["nat", "lists", "cps", "typeinf", "collections"]


@pytest.fixture(scope="module")
def units():
    programs = combined_programs()
    return {g: api.compile_program(programs[g]) for g in GROUPS}


@pytest.fixture(scope="module")
def plain(units):
    """One pass with both cache tiers off."""
    return _verify_all(units, lambda: None)


def _verify_all(units, cache_for):
    """One pass over every group; ``cache_for()`` gives each its cache."""
    return {
        g: api.verify(units[g], options=api.VerifyOptions(cache=cache_for()))
        for g in GROUPS
    }


def _warnings(reports):
    return {
        g: [str(w) for w in r.diagnostics.warnings] for g, r in reports.items()
    }


def _assert_warm(plain, cold, warm):
    assert _warnings(cold) == _warnings(plain)
    assert _warnings(warm) == _warnings(plain)
    for group, report in warm.items():
        total = report.solver_stats.total
        assert total.queries > 0, group
        assert total.cache_hits * 2 >= total.queries, (
            f"{group}: {total.cache_hits} of {total.queries} queries "
            "answered from cache on a warm pass"
        )


def test_warm_pass_hits_the_memory_tier(units, plain):
    cache = SolverCache()
    cold = _verify_all(units, lambda: cache)
    warm = _verify_all(units, lambda: cache)
    _assert_warm(plain, cold, warm)


def test_warm_pass_hits_the_disk_tier(units, plain, tmp_path):
    # A fresh SolverCache over the same directory is a new process
    # reading what an earlier one wrote.
    cold = _verify_all(units, lambda: SolverCache(disk=DiskCache(tmp_path)))
    warm = _verify_all(units, lambda: SolverCache(disk=DiskCache(tmp_path)))
    _assert_warm(plain, cold, warm)


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
