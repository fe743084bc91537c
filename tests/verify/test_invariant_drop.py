"""An invariant that cannot be translated never strengthens a negation.

``EncodeContext`` drops an invariant whose translation raises
``TranslationError``.  The positive instance of an invariant atom may
keep the weaker conjunction of what did translate, but the negated
instance must then assert nothing: the negation of a weakened
conjunction would say more than the program does.
"""

import pytest

from repro import api
from repro.lang import ast
from repro.smt import terms as tm
from repro.smt.sorts import OBJ
from repro.verify import translate

SOURCE = """
interface Nat {
  invariant(this = zero() | succ(_));
  invariant(this != null);
  constructor zero() matches(notall(result)) returns();
  constructor succ(Nat n) matches(notall(result)) returns(n);
}
"""


@pytest.fixture(scope="module")
def table():
    return api.compile_program(SOURCE).table


def _instances(table) -> dict[bool, tm.Term]:
    """The axiom each polarity of ``inv:Nat(n)`` expands to."""
    ctx = translate.EncodeContext(table)
    atom = ctx.invariant_atom(ctx.fresh("n", OBJ), "Nat", 0)
    return {
        polarity: callback()
        for registered, polarity, _, _, callback in ctx.plugin.registrations()
        if registered is atom
    }


def _drop_disjoint_invariant(monkeypatch):
    """Make the first (disjoint ``|``) invariant untranslatable."""
    part = translate.EncodeContext._invariant_part

    def failing(self, x, owner, inv, depth):
        if isinstance(inv.formula, ast.PatOr):
            raise translate.TranslationError("untranslatable invariant")
        return part(self, x, owner, inv, depth)

    monkeypatch.setattr(translate.EncodeContext, "_invariant_part", failing)


def test_complete_instance_negates_every_invariant(table):
    instances = _instances(table)
    assert instances[True] is not tm.TRUE
    assert instances[False] is not tm.TRUE


def test_dropped_invariant_makes_the_negated_instance_true(
    table, monkeypatch
):
    _drop_disjoint_invariant(monkeypatch)
    instances = _instances(table)
    # The positive instance keeps the invariant that did translate...
    assert instances[True] is not tm.TRUE
    # ...but the negated instance must not claim that one fails.
    assert instances[False] is tm.TRUE
