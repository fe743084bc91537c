"""Unit tests for congruence closure."""

from repro.smt import terms as tm
from repro.smt.euf import EufSolver
from repro.smt.sorts import BOOL, INT, OBJ


def obj(name):
    return tm.mk_var(name, OBJ)


def fun(name, arity, result=OBJ):
    return tm.FunSym(name, [OBJ] * arity, result)


def test_reflexive():
    e = EufSolver()
    assert e.check()
    assert e.congruent(obj("a"), obj("a"))


def test_transitive_equality():
    e = EufSolver()
    a, b, c = obj("a"), obj("b"), obj("c")
    e.assert_eq(a, b)
    e.assert_eq(b, c)
    assert e.check()
    assert e.congruent(a, c)


def test_disequality_conflict():
    e = EufSolver()
    a, b, c = obj("a"), obj("b"), obj("c")
    e.assert_eq(a, b)
    e.assert_eq(b, c)
    e.assert_ne(a, c)
    assert not e.check()


def test_congruence_one_level():
    f = fun("f", 1)
    e = EufSolver()
    a, b = obj("a"), obj("b")
    e.assert_eq(a, b)
    assert e.check()
    assert e.congruent(tm.mk_app(f, [a]), tm.mk_app(f, [b]))


def test_congruence_nested():
    f = fun("f", 1)
    e = EufSolver()
    a, b = obj("a"), obj("b")
    fa = tm.mk_app(f, [a])
    ffa = tm.mk_app(f, [fa])
    fb = tm.mk_app(f, [b])
    ffb = tm.mk_app(f, [fb])
    e.assert_eq(a, b)
    e.assert_ne(ffa, ffb)
    assert not e.check()


def test_classic_ackermann_example():
    # f(f(f(a))) = a, f(f(f(f(f(a))))) = a |= f(a) = a
    f = fun("f", 1)
    e = EufSolver()
    a = obj("a")

    def fn(t, n):
        for _ in range(n):
            t = tm.mk_app(f, [t])
        return t

    e.assert_eq(fn(a, 3), a)
    e.assert_eq(fn(a, 5), a)
    e.assert_ne(fn(a, 1), a)
    assert not e.check()


def test_binary_function_congruence():
    g = fun("g", 2)
    e = EufSolver()
    a, b, c, d = obj("a"), obj("b"), obj("c"), obj("d")
    e.assert_eq(a, c)
    e.assert_eq(b, d)
    assert e.check()
    assert e.congruent(tm.mk_app(g, [a, b]), tm.mk_app(g, [c, d]))


def test_predicate_atoms():
    p = tm.FunSym("p", [OBJ], BOOL)
    e = EufSolver()
    a, b = obj("a"), obj("b")
    pa = tm.mk_app(p, [a])
    pb = tm.mk_app(p, [b])
    e.assert_pred(pa, True)
    e.assert_pred(pb, False)
    assert e.check()
    # a = b now makes p(a) and p(b) congruent -> true = false.
    e.assert_eq(a, b)
    assert not e.check()


def test_unrelated_terms_not_congruent():
    e = EufSolver()
    a, b = obj("a"), obj("b")
    e.find(a)
    e.find(b)
    assert e.check()
    assert not e.congruent(a, b)


def test_classes_partition():
    e = EufSolver()
    a, b, c = obj("a"), obj("b"), obj("c")
    e.assert_eq(a, b)
    e.find(c)
    assert e.check()
    classes = e.classes()
    rep_ab = e.find(a)
    assert set(classes[rep_ab]) >= {a, b}
    assert e.find(c) is not rep_ab


def test_int_valued_functions():
    height = tm.FunSym("height", [OBJ], INT)
    e = EufSolver()
    t1, t2 = obj("t1"), obj("t2")
    h1 = tm.mk_app(height, [t1])
    h2 = tm.mk_app(height, [t2])
    e.assert_eq(t1, t2)
    assert e.check()
    assert e.congruent(h1, h2)


def test_explain_returns_the_path_reasons():
    e = EufSolver()
    a, b, c, d = obj("a"), obj("b"), obj("c"), obj("d")
    e.assert_eq(a, b, "ab")
    e.assert_eq(c, d, "cd")
    e.assert_eq(b, c, "bc")
    assert e.check()
    assert sorted(e.explain(a, d)) == ["ab", "bc", "cd"]
    assert e.explain(a, b) == ["ab"]


def test_explain_recurses_into_congruence_arguments():
    f = fun("f", 2)
    e = EufSolver()
    a, b, c, d, x = obj("a"), obj("b"), obj("c"), obj("d"), obj("x")
    fac, fbd = tm.mk_app(f, [a, c]), tm.mk_app(f, [b, d])
    e.assert_eq(fac, x, "fac=x")
    e.assert_eq(a, b, "ab")
    e.assert_eq(c, d, "cd")
    assert e.congruent(fbd, fac)
    assert sorted(e.explain(fbd, fac)) == ["ab", "cd"]
    assert sorted(e.explain(fbd, x)) == ["ab", "cd", "fac=x"]


def test_conflicts_explain_disequality_and_predicates():
    p = fun("p", 1, BOOL)
    e = EufSolver()
    a, b, c = obj("a"), obj("b"), obj("c")
    e.assert_eq(a, b, "ab")
    e.assert_ne(a, b, "a!=b")
    e.assert_pred(tm.mk_app(p, [b]), True, "pb")
    e.assert_pred(tm.mk_app(p, [c]), False, "not pc")
    e.assert_eq(b, c, "bc")
    assert not e.check()
    found = sorted(sorted(reasons) for reasons in e.conflicts())
    assert found == [["a!=b", "ab"], ["bc", "not pc", "pb"]]


def test_undo_rolls_back_proof_edges():
    e = EufSolver(undoable=True)
    a, b, c = obj("a"), obj("b"), obj("c")
    e.assert_eq(a, b, "ab")
    e.check()
    mark = e.mark()
    e.assert_eq(b, c, "bc")
    e.assert_eq(a, c, "ac")
    e.assert_ne(a, c, "a!=c")
    assert not e.check()
    e.undo_to(mark)
    assert e.check()
    assert not e.congruent(a, c)
    e.assert_eq(c, a, "ca")
    assert e.check()
    assert sorted(e.explain(b, c)) == ["ab", "ca"]
