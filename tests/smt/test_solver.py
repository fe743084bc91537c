"""End-to-end tests for the lazy DPLL(T) solver."""

from repro.smt import (
    INT,
    OBJ,
    FunSym,
    LazyTheoryPlugin,
    Result,
    Solver,
    mk_and,
    mk_app,
    mk_eq,
    mk_ge,
    mk_implies,
    mk_int,
    mk_le,
    mk_lt,
    mk_ne,
    mk_not,
    mk_or,
    mk_var,
)
from repro.smt.solver import eval_int


def ivar(name):
    return mk_var(name, INT)


def ovar(name):
    return mk_var(name, OBJ)


def test_trivially_sat():
    s = Solver()
    assert s.check() == Result.SAT


def test_simple_interval_model():
    s = Solver()
    x = ivar("x")
    s.add(mk_ge(x, mk_int(3)))
    s.add(mk_le(x, mk_int(5)))
    assert s.check() == Result.SAT
    assert 3 <= eval_int(x, s.model()) <= 5


def test_boolean_structure_with_theory():
    s = Solver()
    x = ivar("x")
    # (x <= 0 or x >= 10) and 3 <= x <= 8: unsat.
    s.add(mk_or(mk_le(x, mk_int(0)), mk_ge(x, mk_int(10))))
    s.add(mk_ge(x, mk_int(3)))
    s.add(mk_le(x, mk_int(8)))
    assert s.check() == Result.UNSAT


def test_disjunction_picks_consistent_branch():
    s = Solver()
    x = ivar("x")
    s.add(mk_or(mk_eq(x, mk_int(1)), mk_eq(x, mk_int(2))))
    s.add(mk_ne(x, mk_int(1)))
    assert s.check() == Result.SAT
    assert eval_int(x, s.model()) == 2


def test_euf_and_lia_combined():
    s = Solver()
    val = FunSym("val", [OBJ], INT)
    a, b = ovar("a"), ovar("b")
    s.add(mk_eq(a, b))
    s.add(mk_ge(mk_app(val, [a]), mk_int(1)))
    s.add(mk_le(mk_app(val, [b]), mk_int(0)))
    assert s.check() == Result.UNSAT


def test_push_pop():
    s = Solver()
    x = ivar("x")
    s.add(mk_ge(x, mk_int(0)))
    s.push()
    s.add(mk_lt(x, mk_int(0)))
    assert s.check() == Result.UNSAT
    s.pop()
    assert s.check() == Result.SAT


def test_implication_chains():
    s = Solver()
    p = mk_var("p", INT)
    q = mk_var("q", INT)
    s.add(mk_implies(mk_ge(p, mk_int(1)), mk_ge(q, mk_int(5))))
    s.add(mk_ge(p, mk_int(1)))
    s.add(mk_le(q, mk_int(4)))
    assert s.check() == Result.UNSAT


def test_lazy_plugin_expansion_unsat():
    # Invariant-style reasoning: Inv(v) expands to zero(v) or succ(v),
    # asserted lazily; with both negated, Inv(v) is contradictory.
    plugin = LazyTheoryPlugin()
    inv = FunSym("Inv", [OBJ], "Bool")
    from repro.smt.sorts import BOOL

    inv = FunSym("Inv", [OBJ], BOOL)
    is_zero = FunSym("is_zero", [OBJ], BOOL)
    is_succ = FunSym("is_succ", [OBJ], BOOL)
    v = ovar("v")
    inv_v = mk_app(inv, [v])
    zero_v = mk_app(is_zero, [v])
    succ_v = mk_app(is_succ, [v])
    plugin.register(
        inv_v, True, lambda: mk_or(zero_v, succ_v), depth=1
    )
    s = Solver(plugin)
    s.add(inv_v)
    s.add(mk_not(zero_v))
    s.add(mk_not(succ_v))
    assert s.check() == Result.UNSAT


def test_lazy_plugin_expansion_sat():
    from repro.smt.sorts import BOOL

    plugin = LazyTheoryPlugin()
    inv = FunSym("Inv", [OBJ], BOOL)
    is_zero = FunSym("is_zero", [OBJ], BOOL)
    is_succ = FunSym("is_succ", [OBJ], BOOL)
    v = ovar("v")
    inv_v = mk_app(inv, [v])
    zero_v = mk_app(is_zero, [v])
    succ_v = mk_app(is_succ, [v])
    plugin.register(inv_v, True, lambda: mk_or(zero_v, succ_v), depth=1)
    s = Solver(plugin)
    s.add(inv_v)
    s.add(mk_not(zero_v))
    assert s.check() == Result.SAT
    assert s.model().atom_values[succ_v] is True


def test_lazy_plugin_depth_exhaustion_reports_unknown():
    # A self-reproducing invariant chain deeper than the budget, where
    # satisfiability genuinely depends on the unexpanded tail.
    from repro.smt.sorts import BOOL

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
    s = Solver(plugin)
    s.add(inv_v)
    result = s.check()
    # The chain is infinite; every deepening pass leaves expansions
    # suppressed, so the solver cannot confirm a model.
    assert result == Result.UNKNOWN
    assert s.unknown_cause == "depth"


def test_unknown_cause_names_the_deadline():
    s = Solver(cache=None, time_budget=0.0)
    x = ivar("x")
    s.add(mk_ge(x, mk_int(0)))
    assert s.check() == Result.UNKNOWN
    assert s.unknown_cause == "deadline"
    # A decided check clears it.
    s.time_budget = None
    assert s.check() == Result.SAT
    assert s.unknown_cause is None


def test_model_validation_guard():
    # A satisfiable mixed formula; the model must actually satisfy it.
    s = Solver()
    f = FunSym("f", [INT], INT)
    x = ivar("x")
    fx = mk_app(f, [x])
    s.add(mk_or(mk_eq(fx, mk_int(1)), mk_eq(fx, mk_int(2))))
    s.add(mk_ge(x, mk_int(0)))
    assert s.check() == Result.SAT
    model = s.model()
    assert eval_int(fx, model) in (1, 2)


def test_unsat_core_style_blocking_terminates():
    s = Solver()
    x, y, z = ivar("x"), ivar("y"), ivar("z")
    # Chain of forced equalities ending in contradiction.
    s.add(mk_eq(x, y))
    s.add(mk_eq(y, z))
    s.add(mk_and(mk_le(x, mk_int(0)), mk_ge(z, mk_int(1))))
    assert s.check() == Result.UNSAT


def test_stats_populated():
    # cache=None: a hit would legitimately leave sat_rounds at zero.
    s = Solver(cache=None)
    x = ivar("x")
    s.add(mk_ge(x, mk_int(0)))
    s.check()
    assert s.stats.sat_rounds >= 1


def test_model_invalidated_by_pop():
    # Regression: pop() used to leave the previous SAT model behind, so
    # model() described assertions that no longer existed.
    import pytest

    s = Solver()
    x = ivar("x")
    s.push()
    s.add(mk_eq(x, mk_int(7)))
    assert s.check() == Result.SAT
    assert eval_int(x, s.model()) == 7
    s.pop()
    with pytest.raises(RuntimeError):
        s.model()


def test_model_invalidated_by_add_and_push():
    import pytest

    s = Solver()
    x = ivar("x")
    s.add(mk_ge(x, mk_int(0)))
    assert s.check() == Result.SAT
    s.push()
    with pytest.raises(RuntimeError):
        s.model()
    assert s.check() == Result.SAT
    s.add(mk_le(x, mk_int(5)))
    with pytest.raises(RuntimeError):
        s.model()
