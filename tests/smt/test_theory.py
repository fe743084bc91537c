"""Tests for the EUF+LIA combination layer."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.smt import terms as tm
from repro.smt.sorts import BOOL, INT, OBJ
from repro.smt.theory import TheoryContext, check_literals


def ivar(name):
    return tm.mk_var(name, INT)


def ovar(name):
    return tm.mk_var(name, OBJ)


def test_pure_lia_literals():
    x = ivar("x")
    outcome = check_literals(
        [
            (tm.mk_le(x, tm.mk_int(5)), True),
            (tm.mk_le(tm.mk_int(3), x), True),
        ]
    )
    assert outcome.consistent
    value = outcome.model.int_values[x]
    assert 3 <= value <= 5


def test_pure_lia_conflict_with_core():
    x = ivar("x")
    le5 = tm.mk_le(x, tm.mk_int(5))
    ge7 = tm.mk_le(tm.mk_int(7), x)
    other = tm.mk_le(ivar("y"), tm.mk_int(0))
    outcome = check_literals([(le5, True), (other, True), (ge7, True)])
    assert not outcome.consistent
    core_atoms = {atom for atom, _ in outcome.conflict}
    assert other not in core_atoms, "an irrelevant literal stays out of the core"


def test_negated_le():
    x = ivar("x")
    outcome = check_literals(
        [
            (tm.mk_le(x, tm.mk_int(5)), False),  # x > 5
            (tm.mk_le(x, tm.mk_int(5)), False),
        ]
    )
    assert outcome.consistent
    assert outcome.model.int_values[x] >= 6


def test_pure_euf_conflict():
    a, b, c = ovar("a"), ovar("b"), ovar("c")
    outcome = check_literals(
        [
            (tm.mk_eq(a, b), True),
            (tm.mk_eq(b, c), True),
            (tm.mk_eq(a, c), False),
        ]
    )
    assert not outcome.consistent


def test_euf_model_classes():
    a, b, c = ovar("a"), ovar("b"), ovar("c")
    outcome = check_literals(
        [
            (tm.mk_eq(a, b), True),
            (tm.mk_eq(a, c), False),
        ]
    )
    assert outcome.consistent
    model = outcome.model
    assert model.same_object(a, b)
    assert not model.same_object(a, c)


def test_euf_to_lia_propagation():
    # t1 = t2 (EUF) forces height(t1) = height(t2) (LIA).
    height = tm.FunSym("height", [OBJ], INT)
    t1, t2 = ovar("t1"), ovar("t2")
    h1, h2 = tm.mk_app(height, [t1]), tm.mk_app(height, [t2])
    outcome = check_literals(
        [
            (tm.mk_eq(t1, t2), True),
            (tm.mk_le(h1, tm.mk_int(3)), True),
            (tm.mk_le(tm.mk_int(4), h2), True),
        ]
    )
    assert not outcome.consistent


def test_lia_to_euf_propagation():
    # x <= y, y <= x forces x = y, so f(x) = f(y).
    f = tm.FunSym("f", [INT], OBJ)
    x, y = ivar("x"), ivar("y")
    fx, fy = tm.mk_app(f, [x]), tm.mk_app(f, [y])
    outcome = check_literals(
        [
            (tm.mk_le(x, y), True),
            (tm.mk_le(y, x), True),
            (tm.mk_eq(fx, fy), False),
        ]
    )
    assert not outcome.consistent


def test_boolean_predicates():
    p = tm.FunSym("p", [OBJ], BOOL)
    a = ovar("a")
    pa = tm.mk_app(p, [a])
    outcome = check_literals([(pa, True)])
    assert outcome.consistent
    assert outcome.model.atom_values[pa] is True


def test_predicate_congruence_conflict():
    p = tm.FunSym("p", [OBJ], BOOL)
    a, b = ovar("a"), ovar("b")
    outcome = check_literals(
        [
            (tm.mk_app(p, [a]), True),
            (tm.mk_app(p, [b]), False),
            (tm.mk_eq(a, b), True),
        ]
    )
    assert not outcome.consistent


def test_mixed_skolem_style_reasoning():
    # The Fig. 6 redundancy shape: succ(n) = succ_out and not P(n, out).
    succ_out = tm.FunSym("succ_out", [OBJ], OBJ)
    p = tm.FunSym("P_succ", [OBJ, OBJ], BOOL)
    n = ovar("n")
    out = tm.mk_app(succ_out, [n])
    outcome = check_literals(
        [
            (tm.mk_app(p, [n, out]), False),
            (tm.mk_app(p, [n, out]), False),
        ]
    )
    assert outcome.consistent
    outcome = check_literals(
        [
            (tm.mk_app(p, [n, out]), False),
            (tm.mk_app(p, [n, out]), True),
        ]
    )
    assert not outcome.consistent


def test_int_equality_goes_to_lia():
    x, y = ivar("x"), ivar("y")
    outcome = check_literals(
        [
            (tm.mk_eq(x, y), True),
            (tm.mk_le(x, tm.mk_int(0)), True),
            (tm.mk_le(tm.mk_int(1), y), True),
        ]
    )
    assert not outcome.consistent


def test_int_disequality():
    x = ivar("x")
    outcome = check_literals(
        [
            (tm.mk_eq(x, tm.mk_int(3)), False),
            (tm.mk_le(x, tm.mk_int(3)), True),
            (tm.mk_le(tm.mk_int(3), x), True),
        ]
    )
    assert not outcome.consistent


def test_arithmetic_over_uninterpreted_terms():
    # val(o) >= 0 and val(o) = n - 1 and n = 0 is unsat.
    val = tm.FunSym("val", [OBJ], INT)
    o = ovar("o")
    n = ivar("n")
    vo = tm.mk_app(val, [o])
    outcome = check_literals(
        [
            (tm.mk_le(tm.mk_int(0), vo), True),
            (tm.mk_eq(vo, tm.mk_sub(n, tm.mk_int(1))), True),
            (tm.mk_eq(n, tm.mk_int(0)), True),
        ]
    )
    assert not outcome.consistent


# ---------------------------------------------------------------------------
# Explanations: conflict cores come straight out of the failing check
# ---------------------------------------------------------------------------

def test_congruence_chain_explained_by_its_equality():
    # a = b |- f(a) = f(b): the core is the equality plus the violated
    # disequality, and nothing else.
    f = tm.FunSym("f", [OBJ], OBJ)
    a, b, c = ovar("a"), ovar("b"), ovar("c")
    eq_ab = tm.mk_eq(a, b)
    ne_f = tm.mk_eq(tm.mk_app(f, [a]), tm.mk_app(f, [b]))
    noise = tm.mk_eq(b, c)
    outcome = check_literals([(eq_ab, True), (noise, True), (ne_f, False)])
    assert not outcome.consistent
    assert set(outcome.conflict) == {(eq_ab, True), (ne_f, False)}


def test_pure_euf_conflict_with_core():
    # The EUF analogue of test_pure_lia_conflict_with_core.
    a, b, c, d = ovar("a"), ovar("b"), ovar("c"), ovar("d")
    ab, bc, ac = tm.mk_eq(a, b), tm.mk_eq(b, c), tm.mk_eq(a, c)
    other = tm.mk_eq(c, d)
    outcome = check_literals(
        [(ab, True), (other, True), (bc, True), (ac, False)]
    )
    assert not outcome.consistent
    assert {atom for atom, _ in outcome.conflict} == {ab, bc, ac}


def test_of_several_conflicts_the_one_over_newest_atoms_is_reported():
    # Two independent conflicts; the core over the later-created atoms
    # wins, whichever the closure met first.
    # Fresh names, so that atom ids follow creation order here.
    p = tm.FunSym("recent_p", [OBJ], BOOL)
    a, b, c, d = (ovar("recent_" + name) for name in "abcd")
    old = [(tm.mk_app(p, [a]), True), (tm.mk_app(p, [b]), False)]
    old.append((tm.mk_eq(a, b), True))
    new = [(tm.mk_app(p, [c]), True), (tm.mk_app(p, [d]), False)]
    new.append((tm.mk_eq(c, d), True))
    literals = sorted(old + new, key=lambda lit: lit[0]._id)
    assert literals == sorted(old, key=lambda lit: lit[0]._id) + sorted(
        new, key=lambda lit: lit[0]._id
    )
    for check in (check_literals, TheoryContext().check):
        outcome = check(literals)
        assert not outcome.consistent
        assert set(outcome.conflict) == set(new)


def test_predicate_conflict_core_skips_unrelated_predicates():
    p = tm.FunSym("p", [OBJ], BOOL)
    a, b, c = ovar("a"), ovar("b"), ovar("c")
    pa, pb, pc = (tm.mk_app(p, [v]) for v in (a, b, c))
    eq_ab = tm.mk_eq(a, b)
    outcome = check_literals(
        [(pa, True), (pc, False), (pb, False), (eq_ab, True)]
    )
    assert not outcome.consistent
    assert set(outcome.conflict) == {(pa, True), (pb, False), (eq_ab, True)}


def test_lia_to_euf_equality_is_justified_by_the_bounds():
    # x <= y, y <= x force x = y, hence f(x) = f(y); the core is the
    # two bounds and the disequality, not the unrelated bound on z.
    f = tm.FunSym("f", [INT], OBJ)
    x, y, z = ivar("x"), ivar("y"), ivar("z")
    fx, fy = tm.mk_app(f, [x]), tm.mk_app(f, [y])
    lits = [
        (tm.mk_le(x, y), True),
        (tm.mk_le(z, tm.mk_int(3)), True),
        (tm.mk_le(y, x), True),
        (tm.mk_eq(fx, fy), False),
    ]
    outcome = check_literals(lits)
    assert not outcome.consistent
    assert set(outcome.conflict) == {lits[0], lits[2], lits[3]}


def test_euf_to_lia_equality_is_justified_by_the_closure():
    height = tm.FunSym("height", [OBJ], INT)
    t1, t2, t3 = ovar("t1"), ovar("t2"), ovar("t3")
    h1, h2 = tm.mk_app(height, [t1]), tm.mk_app(height, [t2])
    lits = [
        (tm.mk_eq(t1, t2), True),
        (tm.mk_eq(t2, t3), True),
        (tm.mk_le(h1, tm.mk_int(3)), True),
        (tm.mk_le(tm.mk_int(4), h2), True),
    ]
    outcome = check_literals(lits)
    assert not outcome.consistent
    assert set(outcome.conflict) == {lits[0], lits[2], lits[3]}


def test_conflict_core_is_in_input_order():
    a, b, c = ovar("a"), ovar("b"), ovar("c")
    lits = sorted(
        [
            (tm.mk_eq(a, b), True),
            (tm.mk_eq(b, c), True),
            (tm.mk_eq(a, c), False),
        ],
        key=lambda lit: lit[0]._id,
    )
    outcome = check_literals(lits)
    assert outcome.conflict == [lit for lit in lits if lit in outcome.conflict]


# -- random literal sets over EUF + LIA with shared integer terms ------------

_F = tm.FunSym("pf", [OBJ], OBJ)
_G = tm.FunSym("pg", [OBJ], INT)
_H = tm.FunSym("ph", [INT], OBJ)
_P = tm.FunSym("pp", [OBJ], BOOL)
_OBJS = [ovar("pa"), ovar("pb")]
_X, _Y = ivar("px"), ivar("py")
_OBJ_TERMS = _OBJS + [tm.mk_app(_F, [o]) for o in _OBJS] + [
    tm.mk_app(_H, [_X]),
    tm.mk_app(_H, [_Y]),
]
_INT_TERMS = [_X, _Y, tm.mk_app(_G, [_OBJS[0]]), tm.mk_app(_G, _OBJS[1:])] + [
    tm.mk_int(0),
    tm.mk_int(1),
]


def _atom(data):
    kind = data[0]
    if kind == "oeq":
        return tm.mk_eq(_OBJ_TERMS[data[1]], _OBJ_TERMS[data[2]])
    if kind == "ieq":
        return tm.mk_eq(_INT_TERMS[data[1]], _INT_TERMS[data[2]])
    if kind == "le":
        return tm.mk_le(_INT_TERMS[data[1]], _INT_TERMS[data[2]])
    return tm.mk_app(_P, [_OBJ_TERMS[data[1]]])


_atom_data = st.one_of(
    st.tuples(
        st.just("oeq"),
        st.integers(0, len(_OBJ_TERMS) - 1),
        st.integers(0, len(_OBJ_TERMS) - 1),
    ),
    st.tuples(
        st.sampled_from(["ieq", "le"]),
        st.integers(0, len(_INT_TERMS) - 1),
        st.integers(0, len(_INT_TERMS) - 1),
    ),
    st.tuples(st.just("pred"), st.integers(0, len(_OBJ_TERMS) - 1)),
)


def _literal_set(pairs):
    """Distinct atoms (the solver never sends one atom twice), id order."""
    seen = {}
    for data, value in pairs:
        atom = _atom(data)
        if atom.kind in (tm.EQ, tm.LE, tm.APP):
            seen.setdefault(atom, value)
    return sorted(seen.items(), key=lambda lit: lit[0]._id)


literal_sets = st.lists(
    st.tuples(_atom_data, st.booleans()), min_size=1, max_size=12
).map(_literal_set)


def assert_core_valid(literals, outcome):
    assert outcome.conflict, "an inconsistent set needs a nonempty core"
    assert set(outcome.conflict) <= set(literals)
    assert not check_literals(list(outcome.conflict)).consistent


@given(literal_sets)
@settings(max_examples=300, deadline=None)
def test_every_core_is_an_inconsistent_subset(literals):
    outcome = check_literals(literals)
    if not outcome.consistent:
        assert_core_valid(literals, outcome)


@given(
    literal_sets,
    st.lists(st.tuples(st.integers(0, 9), literal_sets), max_size=5),
)
@settings(max_examples=150, deadline=None)
def test_context_agrees_with_stateless_check(first, steps):
    """Sequences that share prefixes and pop back exercise the undo of
    proof edges; every verdict agrees and every core is inconsistent."""
    sequence = [first]
    for keep, suffix in steps:
        prefix = sequence[-1][:keep]
        taken = {atom for atom, _ in prefix}
        sequence.append(prefix + [lit for lit in suffix if lit[0] not in taken])
    context = TheoryContext()
    for literals in sequence:
        stateless = check_literals(literals)
        persistent = context.check(literals)
        assert persistent.consistent == stateless.consistent
        if not persistent.consistent:
            assert_core_valid(literals, persistent)
            assert_core_valid(literals, stateless)
