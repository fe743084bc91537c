"""Correctness tests for the SMT query cache (repro.smt.cache)."""

import pytest

from repro.smt import (
    INT,
    OBJ,
    FunSym,
    LazyTheoryPlugin,
    Result,
    Solver,
    SolverCache,
    mk_app,
    mk_eq,
    mk_ge,
    mk_int,
    mk_le,
    mk_lt,
    mk_not,
    mk_or,
    mk_var,
)
from repro.smt.sorts import BOOL


def ivar(name):
    return mk_var(name, INT)


def ovar(name):
    return mk_var(name, OBJ)


def test_alpha_renamed_query_hits():
    # Structurally identical queries over differently named variables
    # share one entry: names are canonicalized away.
    cache = SolverCache()
    a = ivar("cache_a")
    s1 = Solver(cache=cache)
    s1.add(mk_ge(a, mk_int(3)))
    s1.add(mk_le(a, mk_int(3)))
    assert s1.check() == Result.SAT
    assert cache.misses == 1

    b = ivar("cache_b")
    s2 = Solver(cache=cache)
    s2.add(mk_ge(b, mk_int(3)))
    s2.add(mk_le(b, mk_int(3)))
    assert s2.check() == Result.SAT
    assert cache.hits == 1 and cache.stores == 1


def test_model_after_cached_sat_hit_raises():
    # The cache keeps verdicts only: a SAT answered from it has no
    # model, and asking for one names the cause.  A caller that needs
    # the model solves without the cache.
    from repro.smt.solver import eval_int

    cache = SolverCache()
    # Intern both variables before the constant: mk_eq orders its
    # arguments by interning id, and the fingerprint is structural.
    x = ivar("cache_m1")
    y = ivar("cache_m2")
    s1 = Solver(cache=cache)
    s1.add(mk_eq(x, mk_int(7)))
    assert s1.check() == Result.SAT
    assert eval_int(x, s1.model()) == 7

    s2 = Solver(cache=cache)
    s2.add(mk_eq(y, mk_int(7)))
    assert s2.check() == Result.SAT
    assert cache.hits == 1
    with pytest.raises(RuntimeError, match="query-cache hit"):
        s2.model()


def test_bare_solver_uses_no_cache():
    s = Solver()
    assert s.cache is None
    s.add(mk_ge(ivar("cache_bare"), mk_int(0)))
    assert s.check() == Result.SAT


def test_unsat_verdicts_cached():
    cache = SolverCache()
    for name in ("cache_u1", "cache_u2"):
        x = ivar(name)
        s = Solver(cache=cache)
        s.add(mk_ge(x, mk_int(1)))
        s.add(mk_le(x, mk_int(0)))
        assert s.check() == Result.UNSAT
    assert cache.hits == 1 and cache.stores == 1
    # An UNSAT hit has no model to offer.
    with pytest.raises(RuntimeError):
        s.model()


def test_different_assertions_do_not_collide():
    cache = SolverCache()
    x = ivar("cache_d")
    s1 = Solver(cache=cache)
    s1.add(mk_ge(x, mk_int(0)))
    s1.check()
    s2 = Solver(cache=cache)
    s2.add(mk_ge(x, mk_int(1)))
    s2.check()
    assert cache.hits == 0 and cache.stores == 2


def test_unknown_never_cached():
    cache = SolverCache()
    x = ivar("cache_unk")
    for _ in range(2):
        s = Solver(cache=cache, time_budget=0.0)
        s.add(mk_ge(x, mk_int(0)))
        assert s.check() == Result.UNKNOWN
    assert cache.stores == 0 and cache.hits == 0 and len(cache) == 0
    # The same query solved under a real budget is conclusive and cached.
    s = Solver(cache=cache)
    s.add(mk_ge(x, mk_int(0)))
    assert s.check() == Result.SAT
    assert cache.stores == 1


def test_storing_unknown_is_rejected():
    cache = SolverCache()
    fp = cache.fingerprint([], None, (2, 4, 8))
    with pytest.raises(ValueError):
        cache.store(fp, Result.UNKNOWN)


def test_same_query_different_plugin_registrations_do_not_collide():
    # Identical assertion sets whose lazy axioms differ must not share
    # a verdict: the trigger's callback site is part of the signature.
    inv = FunSym("CInv", [OBJ], BOOL)
    good = FunSym("c_good", [OBJ], BOOL)
    v = ovar("cache_p")
    inv_v = mk_app(inv, [v])
    good_v = mk_app(good, [v])

    cache = SolverCache()
    plugin1 = LazyTheoryPlugin()
    plugin1.register(inv_v, True, lambda: good_v, depth=1)
    s1 = Solver(plugin1, cache=cache)
    s1.add(inv_v)
    s1.add(mk_not(good_v))
    assert s1.check() == Result.UNSAT

    plugin2 = LazyTheoryPlugin()
    plugin2.register(inv_v, True, lambda: mk_or(good_v, mk_not(good_v)), depth=1)
    s2 = Solver(plugin2, cache=cache)
    s2.add(inv_v)
    s2.add(mk_not(good_v))
    assert s2.check() == Result.SAT
    assert cache.hits == 0 and cache.stores == 2


def test_plugin_signature_salts_the_fingerprint():
    # Same assertions and triggers, different axiom-universe signature
    # (e.g. two programs with a same-named class): distinct entries.
    cache = SolverCache()
    x = ivar("cache_sig")
    for salt in ("table-A", "table-B"):
        plugin = LazyTheoryPlugin()
        plugin.signature = salt
        s = Solver(plugin, cache=cache)
        s.add(mk_ge(x, mk_int(0)))
        s.check()
    assert cache.hits == 0 and cache.stores == 2


def test_push_pop_sequences_match_uncached_verdicts():
    cache = SolverCache()
    x = ivar("cache_pp")

    def run(solver):
        verdicts = []
        solver.add(mk_ge(x, mk_int(0)))
        solver.push()
        solver.add(mk_lt(x, mk_int(0)))
        verdicts.append(solver.check())
        solver.pop()
        verdicts.append(solver.check())
        solver.push()
        solver.add(mk_le(x, mk_int(10)))
        verdicts.append(solver.check())
        solver.pop()
        return verdicts

    baseline = run(Solver(cache=None))
    cached_cold = run(Solver(cache=cache))
    cached_warm = run(Solver(cache=cache))
    assert baseline == cached_cold == cached_warm
    assert cache.hits > 0


def test_lru_eviction():
    cache = SolverCache(max_entries=2)
    for offset in range(3):
        x = ivar("cache_lru")
        s = Solver(cache=cache)
        s.add(mk_ge(x, mk_int(offset)))
        s.add(mk_le(x, mk_int(offset + 100)))
        s.check()
    assert len(cache) == 2
    assert cache.evictions == 1


def test_instance_time_budget_does_not_touch_class_default():
    assert Solver.TIME_BUDGET == 8.0
    s = Solver(cache=None, time_budget=0.5)
    s.add(mk_ge(ivar("cache_tb"), mk_int(0)))
    s.check()
    assert Solver.TIME_BUDGET == 8.0
    assert s.time_budget == 0.5


def test_cache_is_thread_safe_under_concurrent_solvers():
    """Many threads sharing one cache: no lost updates, no corruption.

    A small ``max_entries`` keeps the LRU evicting while threads race
    lookups against stores; the counters must balance exactly (every
    lookup is either a hit or a miss) and every thread must see the
    same verdicts a serial run sees.
    """
    import threading

    cache = SolverCache(max_entries=8)
    problems = []

    def worker(seed):
        try:
            for i in range(40):
                offset = (seed * 7 + i) % 12
                x = ivar(f"cache_mt_{offset}")
                s = Solver(cache=cache)
                s.add(mk_ge(x, mk_int(offset)))
                s.add(mk_le(x, mk_int(offset + 1)))
                if s.check() != Result.SAT:
                    problems.append(f"wrong verdict for offset {offset}")
        except Exception as exc:  # noqa: BLE001 - surfacing to the test
            problems.append(repr(exc))

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not problems, problems
    assert cache.hits + cache.misses == 8 * 40
    assert cache.stores == cache.misses
    assert len(cache) <= 8
