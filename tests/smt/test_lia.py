"""Unit tests for the Omega-test LIA solver."""

import random

import pytest

from repro.smt import lia
from repro.smt.lia import EQ, LE, NE, Constraint


def c(coeffs, const, rel=LE):
    return Constraint.make(coeffs, const, rel)


def assert_model_satisfies(constraints):
    result = lia.solve(constraints)
    assert result.sat
    model = {v: result.model.get(v, 0) for con in constraints for v in con.variables()}
    for con in constraints:
        assert con.holds(model), f"{con} fails under {model}"
    return model


def test_empty_system_sat():
    assert lia.solve([]).sat


def test_ground_true():
    assert lia.solve([c({}, -5)]).sat


def test_ground_false():
    assert not lia.solve([c({}, 1)]).sat


def test_single_bound():
    # x <= 7
    model = assert_model_satisfies([c({"x": 1}, -7)])
    assert model["x"] <= 7


def test_interval():
    # 3 <= x <= 7
    model = assert_model_satisfies([c({"x": 1}, -7), c({"x": -1}, 3)])
    assert 3 <= model["x"] <= 7


def test_empty_interval_unsat():
    # x <= 2 and x >= 3
    assert not lia.solve([c({"x": 1}, -2), c({"x": -1}, 3)])


def test_equality_simple():
    model = assert_model_satisfies([c({"x": 1}, -4, EQ)])
    assert model["x"] == 4


def test_equality_gcd_unsat():
    # 2x = 1 has no integer solution.
    assert not lia.solve([c({"x": 2}, -1, EQ)])


def test_equality_gcd_sat():
    # 2x = 6
    model = assert_model_satisfies([c({"x": 2}, -6, EQ)])
    assert model["x"] == 3


def test_two_variable_equality_chain():
    # x = y + 1, y = 5
    model = assert_model_satisfies(
        [c({"x": 1, "y": -1}, -1, EQ), c({"y": 1}, -5, EQ)]
    )
    assert model["x"] == 6 and model["y"] == 5


def test_nat_style_constraints():
    # val >= 0 && val = n - 1 && n >= 0: the ZNat succ body.
    model = assert_model_satisfies(
        [
            c({"val": -1}, 0),
            c({"val": 1, "n": -1}, 1, EQ),
            c({"n": -1}, 0),
        ]
    )
    assert model["val"] == model["n"] - 1


def test_paper_extraction_example():
    # y >= 0 && x+1 = y && x > 0 is satisfiable exactly when y > 1.
    base = [c({"y": -1}, 0), c({"x": 1, "y": -1}, 1, EQ), c({"x": -1}, 1)]
    assert lia.solve(base)
    # With y = 1 it must become unsat.
    assert not lia.solve(base + [c({"y": 1}, -1, EQ)])
    # With y = 2 it is sat.
    assert_model_satisfies(base + [c({"y": 1}, -2, EQ)])


def test_disequality_split():
    # 0 <= x <= 1 and x != 0 forces x = 1.
    model = assert_model_satisfies(
        [c({"x": -1}, 0), c({"x": 1}, -1), c({"x": 1}, 0, NE)]
    )
    assert model["x"] == 1


def test_disequality_unsat():
    # x = 3 and x != 3.
    assert not lia.solve([c({"x": 1}, -3, EQ), c({"x": 1}, -3, NE)])


def test_multiple_disequalities():
    # 0 <= x <= 3, x != 0, x != 1, x != 2 forces x = 3.
    cons = [c({"x": -1}, 0), c({"x": 1}, -3)]
    cons += [c({"x": 1}, -k, NE) for k in (0, 1, 2)]
    model = assert_model_satisfies(cons)
    assert model["x"] == 3


def test_all_values_excluded_unsat():
    cons = [c({"x": -1}, 0), c({"x": 1}, -2)]
    cons += [c({"x": 1}, -k, NE) for k in (0, 1, 2)]
    assert not lia.solve(cons)


def test_non_unit_coefficients_dark_shadow():
    # 2x >= 5 and 2x <= 7 has x = 3.
    model = assert_model_satisfies([c({"x": -2}, 5), c({"x": 2}, -7)])
    assert model["x"] == 3


def test_non_unit_coefficients_unsat():
    # 2x >= 5 and 2x <= 5: no integer x.
    assert not lia.solve([c({"x": -2}, 5), c({"x": 2}, -5)])


def test_pugh_equality_elimination():
    # 3x + 5y = 1 is solvable over Z.
    model = assert_model_satisfies([c({"x": 3, "y": 5}, -1, EQ)])
    assert 3 * model["x"] + 5 * model["y"] == 1


def test_pugh_with_bounds():
    # 3x + 5y = 1, 0 <= x <= 10, 0 <= y: x=2,y=-1 invalid; needs x=7,y=-4 no...
    # solutions: x = 2 + 5t, y = -1 - 3t; with x,y >= 0 -> no solution
    cons = [
        c({"x": 3, "y": 5}, -1, EQ),
        c({"x": -1}, 0),
        c({"y": -1}, 0),
    ]
    assert not lia.solve(cons)


def test_pugh_with_feasible_bounds():
    # 3x + 5y = 21 with x, y >= 0: x=7,y=0 or x=2,y=3.
    cons = [
        c({"x": 3, "y": 5}, -21, EQ),
        c({"x": -1}, 0),
        c({"y": -1}, 0),
    ]
    model = assert_model_satisfies(cons)
    assert 3 * model["x"] + 5 * model["y"] == 21


def test_entails_eq():
    cons = [c({"x": 1, "y": -1}, 0, EQ)]
    assert lia.eq_core(cons, "x", "y") == tuple(cons)
    assert lia.eq_core([], "x", "y") is None


def test_entails_eq_via_bounds():
    # x <= y and y <= x entails x = y.
    cons = [c({"x": 1, "y": -1}, 0), c({"y": 1, "x": -1}, 0)]
    assert set(lia.eq_core(cons, "x", "y")) == set(cons)


@pytest.mark.parametrize("seed", range(15))
def test_random_small_systems_vs_enumeration(seed):
    rng = random.Random(seed)
    vars_ = ["x", "y", "z"][: rng.randint(1, 3)]
    cons = []
    for _ in range(rng.randint(1, 5)):
        coeffs = {v: rng.randint(-3, 3) for v in vars_}
        const = rng.randint(-6, 6)
        rel = rng.choice([LE, EQ, NE])
        cons.append(c(coeffs, const, rel))
    # Keep the search bounded so enumeration is exact within the box.
    for v in vars_:
        cons.append(c({v: 1}, -5))
        cons.append(c({v: -1}, -5))

    def enumerate_sat():
        from itertools import product

        for values in product(range(-5, 6), repeat=len(vars_)):
            model = dict(zip(vars_, values))
            if all(con.holds({**model, **{v: 0 for con2 in cons for v in con2.variables() if v not in model}}) for con in cons):
                return True
        return False

    expected = enumerate_sat()
    result = lia.solve(cons)
    assert bool(result) == expected
    if result:
        model = {v: result.model.get(v, 0) for v in vars_}
        for con in cons:
            assert con.holds(model)


def test_unsat_core_is_an_inconsistent_subset():
    # x <= 5 and x >= 7 conflict; the bound on y is irrelevant.
    le5, ge7, other = c({"x": 1}, -5), c({"x": -1}, 7), c({"y": 1}, 0)
    result = lia.solve([le5, other, ge7])
    assert not result
    assert set(result.core) == {le5, ge7}


def test_unsat_core_through_disequality_split():
    # x != 3 with 3 <= x <= 3: both split branches fail, and both need
    # the disequality.
    ne3, le3, ge3 = c({"x": 1}, -3, NE), c({"x": 1}, -3), c({"x": -1}, 3)
    result = lia.solve([c({"y": -1}, 0), ne3, le3, ge3])
    assert not result
    assert set(result.core) == {ne3, le3, ge3}


def test_eq_core_leaves_out_unrelated_constraints():
    below = c({"x": 1, "y": -1}, 0)
    above = c({"y": 1, "x": -1}, 0)
    unrelated = c({"z": 1}, -4)
    assert set(lia.eq_core([below, unrelated, above], "x", "y")) == {
        below,
        above,
    }
    assert lia.eq_core([below, unrelated], "x", "y") is None


def test_splinter_beyond_old_cap_is_sat():
    # The only satisfying splinter is i = 5000 (x = 1, y = 0); an
    # enumeration capped below that used to answer UNSAT.
    cons = [
        c({"x": 10000, "y": -9999}, -14000),
        c({"x": -10000, "y": 9999}, 5000),
        c({"y": -1}, 0),
        c({"y": 1}, 0),
    ]
    model = assert_model_satisfies(cons)
    assert (model["x"], model["y"]) == (1, 0)


def test_long_splinter_enumeration_ends_in_budget_not_unsat():
    from repro.smt import budget

    # Same shape with a splinter range of ~10^7: past the budget, the
    # answer must be "out of budget", never UNSAT.
    cons = [
        c({"x": 10**7, "y": -(10**7 - 1)}, -(10**7 + 4 * 10**6)),
        c({"x": -(10**7), "y": 10**7 - 1}, 5 * 10**6),
        c({"y": -1}, 0),
        c({"y": 1}, 0),
    ]
    budget.arm(0.2)
    try:
        with pytest.raises(budget.BudgetExceeded):
            lia.solve(cons)
    finally:
        budget.disarm()


@pytest.mark.parametrize("seed", range(40))
def test_random_unsat_cores_are_inconsistent_subsets(seed):
    rng = random.Random(1000 + seed)
    vars_ = ["x", "y", "z"]
    cons = []
    for _ in range(rng.randint(2, 7)):
        coeffs = {v: rng.randint(-3, 3) for v in vars_[: rng.randint(1, 3)]}
        cons.append(c(coeffs, rng.randint(-6, 6), rng.choice([LE, LE, EQ, NE])))
    result = lia.solve(cons)
    if result:
        return
    assert set(result.core) <= set(cons)
    assert not lia.solve(list(result.core))
