"""Incremental solving: one persistent Solver across many queries.

The engine keeps a single CnfBuilder/SatSolver pair alive across
``check`` calls, deepening passes, and push/pop frames.  These tests
pin the observable contract: verdicts after any add/push/pop/check
sequence match what a fresh solver sees, popped assertions really stop
constraining, plugin axioms are asserted once, and retired frame
guards cannot resurrect through SAT phase saving.
"""

from repro.smt import (
    INT,
    OBJ,
    FunSym,
    LazyTheoryPlugin,
    Result,
    Solver,
    mk_app,
    mk_eq,
    mk_ge,
    mk_int,
    mk_le,
    mk_lt,
    mk_ne,
    mk_not,
    mk_or,
    mk_var,
)
from repro.smt.sorts import BOOL
from repro.smt.solver import eval_int


def ivar(name):
    return mk_var(name, INT)


def ovar(name):
    return mk_var(name, OBJ)


def test_check_add_check_chain():
    s = Solver()
    x = ivar("x")
    s.add(mk_ge(x, mk_int(0)))
    assert s.check() == Result.SAT
    s.add(mk_le(x, mk_int(5)))
    assert s.check() == Result.SAT
    s.add(mk_lt(x, mk_int(0)))
    assert s.check() == Result.UNSAT


def test_pop_retracts_constraints():
    s = Solver()
    x = ivar("x")
    s.add(mk_ge(x, mk_int(0)))
    s.push()
    s.add(mk_lt(x, mk_int(0)))
    assert s.check() == Result.UNSAT
    s.pop()
    assert s.check() == Result.SAT
    assert eval_int(x, s.model()) >= 0


def test_pop_then_contradict_differently():
    # The retired frame's clauses must not linger: a *different*
    # contradiction on the same variable gets a fresh verdict.
    s = Solver()
    x = ivar("x")
    s.add(mk_le(x, mk_int(10)))
    s.push()
    s.add(mk_ge(x, mk_int(11)))
    assert s.check() == Result.UNSAT
    s.pop()
    s.push()
    s.add(mk_eq(x, mk_int(7)))
    assert s.check() == Result.SAT
    assert eval_int(x, s.model()) == 7
    s.pop()
    assert s.check() == Result.SAT


def test_many_pushes_and_pops_interleaved_with_checks():
    s = Solver()
    x = ivar("x")
    s.add(mk_ge(x, mk_int(0)))
    for bound in range(5):
        s.push()
        s.add(mk_le(x, mk_int(bound)))
        s.push()
        s.add(mk_ge(x, mk_int(bound + 1)))
        assert s.check() == Result.UNSAT
        s.pop()
        assert s.check() == Result.SAT
        assert eval_int(x, s.model()) <= bound
        s.pop()
    assert s.check() == Result.SAT


def test_verdicts_match_fresh_solver_after_chain():
    # Arm-chain shape: I, I & f1, I & !f1' & f2, ... as the verifier
    # produces; the incremental chain must agree with fresh solves.
    x = ivar("x")
    queries = [
        [mk_ge(x, mk_int(0))],
        [mk_ge(x, mk_int(0)), mk_eq(x, mk_int(0))],
        [mk_ge(x, mk_int(0)), mk_ne(x, mk_int(0)), mk_le(x, mk_int(0))],
        [mk_ge(x, mk_int(0)), mk_ne(x, mk_int(0))],
    ]
    s = Solver()
    stack: list = []
    for terms in queries:
        prefix = 0
        limit = min(len(stack), len(terms))
        while prefix < limit and stack[prefix] is terms[prefix]:
            prefix += 1
        while len(stack) > prefix:
            s.pop()
            stack.pop()
        for t in terms[prefix:]:
            s.push()
            s.add(t)
            stack.append(t)
        fresh = Solver(cache=None)
        for t in terms:
            fresh.add(t)
        assert s.check() == fresh.check(), terms


def _nat_plugin():
    plugin = LazyTheoryPlugin()
    inv = FunSym("Inv", [OBJ], BOOL)
    is_zero = FunSym("is_zero", [OBJ], BOOL)
    is_succ = FunSym("is_succ", [OBJ], BOOL)
    v = ovar("v")
    inv_v = mk_app(inv, [v])
    zero_v = mk_app(is_zero, [v])
    succ_v = mk_app(is_succ, [v])
    plugin.register(inv_v, True, lambda: mk_or(zero_v, succ_v), depth=1)
    return plugin, inv_v, zero_v, succ_v


def test_plugin_axioms_asserted_once_across_queries():
    plugin, inv_v, zero_v, succ_v = _nat_plugin()
    s = Solver(plugin, cache=None)
    s.add(inv_v)
    s.push()
    s.add(mk_not(zero_v))
    s.add(mk_not(succ_v))
    assert s.check() == Result.UNSAT
    first_axioms = s.stats.axioms_asserted
    assert first_axioms >= 1
    s.pop()
    s.push()
    s.add(mk_not(zero_v))
    assert s.check() == Result.SAT
    # The expansion axiom is already in the clause database; the second
    # query must not re-assert it.
    assert s.stats.axioms_asserted == first_axioms


def test_theory_lemmas_carry_across_pop():
    s = Solver(cache=None)
    val = FunSym("val", [OBJ], INT)
    a, b = ovar("a"), ovar("b")
    s.add(mk_eq(a, b))
    s.push()
    s.add(mk_ge(mk_app(val, [a]), mk_int(1)))
    s.add(mk_le(mk_app(val, [b]), mk_int(0)))
    assert s.check() == Result.UNSAT
    s.pop()
    assert s.check() == Result.SAT
    s.push()
    s.add(mk_ge(mk_app(val, [a]), mk_int(5)))
    assert s.check() == Result.SAT
    assert eval_int(mk_app(val, [a]), s.model()) >= 5


def test_unrelated_query_unaffected_by_earlier_state():
    # After solving about x, a disjoint query about y behaves exactly
    # like a fresh solve (stale atoms filtered from the assignment).
    s = Solver(cache=None)
    x, y = ivar("x"), ivar("y")
    s.push()
    s.add(mk_ge(x, mk_int(100)))
    assert s.check() == Result.SAT
    s.pop()
    s.push()
    s.add(mk_le(y, mk_int(-3)))
    assert s.check() == Result.SAT
    assert eval_int(y, s.model()) <= -3
    s.pop()


def test_depth_schedule_state_reuse_keeps_verdicts():
    # UNKNOWN from depth exhaustion must stay UNKNOWN when the same
    # query is re-checked on the persistent engine.
    plugin = LazyTheoryPlugin()
    inv = FunSym("Inv", [OBJ], BOOL)
    succ_of = FunSym("succ_of", [OBJ], OBJ)

    def make_expansion(term, depth):
        child = mk_app(succ_of, [term])
        inv_child = mk_app(inv, [child])

        def expand():
            plugin.register(
                inv_child, True, make_expansion(child, depth + 1), depth + 1
            )
            return inv_child

        return expand

    v = ovar("v")
    inv_v = mk_app(inv, [v])
    plugin.register(inv_v, True, make_expansion(v, 1), depth=1)
    s = Solver(plugin, cache=None)
    s.add(inv_v)
    assert s.check() == Result.UNKNOWN
    assert s.check() == Result.UNKNOWN
