"""A receiver-less call of an instance method in a spec is a call on ``this``.

``leaf``'s ``ensures(height() = 0)`` means ``this.height() = 0``.  Encoded
without the receiver it became a nullary success predicate and a global
constant, so a switch guarded by ``t.height() > 0`` could not rule out
``leaf`` and reported a false ``nonexhaustive``.
"""

import pytest

from repro import api
from repro.corpus import combined_programs, trees
from repro.errors import WarningKind
from repro.smt import terms as tm
from repro.verify.solving import SolverSession

TREE = trees.TREE_INTERFACE + trees.TREE_LEAF + trees.TREE_BRANCH


def _verify(source: str):
    unit = api.compile_program(source)
    return api.verify(unit, options=api.VerifyOptions(budget=0.5, cache=None))


def test_branch_only_switch_under_positive_height_is_exhaustive():
    report = _verify(
        TREE
        + """
static int f(Tree t) {
  if (t.height() > 0)
    switch (t) { case branch(Tree l, int v, Tree r): return v; }
  return 0;
}
"""
    )
    assert not report.of_kind(WarningKind.NONEXHAUSTIVE)


def test_leaf_arm_under_positive_height_is_redundant():
    report = _verify(
        TREE
        + """
static int g(Tree t) {
  if (t.height() > 0)
    switch (t) {
      case leaf(): return 0;
      case branch(Tree l, int v, Tree r): return v;
    }
  return 0;
}
"""
    )
    redundant = report.of_kind(WarningKind.REDUNDANT_ARM)
    assert [w.message for w in redundant] == [
        "arm 1 is redundant: no value reaches it"
    ]


#: registrations deeper than this are not expanded by the walk
_WALK_DEPTH = 3


def _nullary_calls(term: tm.Term, found: set[str]) -> None:
    for sub in tm.subterms(term):
        if (
            sub.kind == tm.APP
            and not sub.args
            and sub.payload.name.startswith("call:")
        ):
            found.add(sub.payload.name)


@pytest.mark.parametrize(
    "group", ["nat", "lists", "cps", "typeinf", "trees", "collections"]
)
def test_no_spec_call_loses_its_receiver(group, monkeypatch):
    """Collect the receiver-less ``call:`` atoms of every query, in its
    own terms and in every registered axiom (expanded to a bounded
    depth): none may name an instance method.

    A creation-mode spec check (``Tree.branch`` in mode
    ``returns(result)``) binds ``this`` to the object being created, so
    its top-level ``height()`` is a call on it too.
    """
    found: set[str] = set()
    solve = SolverSession._solve

    def walking_solve(self, plugin, terms, want_model):
        for term in terms:
            _nullary_calls(term, found)
        if plugin is not None:
            done: set = set()
            grew = True
            while grew:
                grew = False
                for atom, polarity, depth, _, _ in plugin.registrations():
                    key = (atom, polarity)
                    if key in done or depth > _WALK_DEPTH:
                        continue
                    done.add(key)
                    grew = True
                    _nullary_calls(plugin.axiom_for(key), found)
        return solve(self, plugin, terms, want_model)

    monkeypatch.setattr(SolverSession, "_solve", walking_solve)
    unit = api.compile_program(combined_programs()[group])
    api.verify(unit, options=api.VerifyOptions(budget=0.05, cache=None))
    table = unit.table
    instance_calls = []
    for name in sorted(found):
        owner, _, rest = name[len("call:"):].partition(".")
        method = table.lookup_method(owner, rest.partition("[")[0])
        if (
            method is not None
            and method.kind == "method"
            and not method.decl.static
        ):
            instance_calls.append(name)
    assert instance_calls == []
