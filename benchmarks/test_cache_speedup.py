"""The SMT query cache must make a second verification pass cheaper.

Acceptance check for the query cache: verifying the corpus twice in
one process shows a >= 30% wall-time reduction on the second pass,
attributable to cache hits (the hit counters are asserted alongside
the timing so a timing fluke cannot pass on its own).

The paper's Table 1 corpus rows are Java token baselines, not
verifiable JMatch programs, so the benchmark runs over the JMatch
side of the corpus (:func:`repro.corpus.combined_programs`).  The
``trees`` group is excluded: its queries exhaust the deepening budget
and return UNKNOWN, which the cache refuses to memoize by design.
"""

import time

from repro import api
from repro.corpus import combined_programs
from repro.smt.cache import SolverCache

GROUPS = ["nat", "lists", "cps", "typeinf", "collections"]


def _verify_all(units, cache):
    options = api.VerifyOptions(cache=cache)
    return {g: api.verify(units[g], options=options) for g in GROUPS}


def _warnings(reports):
    return {g: [str(w) for w in r.diagnostics.warnings] for g, r in reports.items()}


def test_second_pass_is_at_least_30_percent_faster():
    cache = SolverCache()
    programs = combined_programs()
    units = {g: api.compile_program(programs[g]) for g in GROUPS}

    start = time.perf_counter()
    first = _verify_all(units, cache)
    mid = time.perf_counter()
    second = _verify_all(units, cache)
    end = time.perf_counter()

    pass1 = mid - start
    pass2 = end - mid

    # The speedup must come from the cache, not from timing noise.
    hits = sum(r.solver_stats.total.cache_hits for r in second.values())
    queries = sum(r.solver_stats.total.queries for r in second.values())
    assert queries > 0
    assert hits >= queries * 0.5, f"only {hits}/{queries} cache hits on pass 2"

    assert pass2 <= 0.7 * pass1, (
        f"second pass took {pass2:.3f}s vs first {pass1:.3f}s "
        f"({1 - pass2 / pass1:.0%} reduction, need >= 30%)"
    )

    # Cached verdicts must not change what the user sees.
    assert _warnings(first) == _warnings(second)


def test_cache_disabled_run_matches_cached_warnings():
    cache = SolverCache()
    programs = combined_programs()
    for group in GROUPS:
        unit = api.compile_program(programs[group])
        cached = api.verify(unit, options=api.VerifyOptions(cache=cache))
        plain = api.verify(unit, options=api.VerifyOptions(cache=None))
        assert [str(w) for w in cached.diagnostics.warnings] == [
            str(w) for w in plain.diagnostics.warnings
        ], f"cache changed warnings for corpus group {group}"
