"""An invariant that cannot be translated never strengthens a negation.

``EncodeContext`` drops an invariant whose translation raises
``TranslationError``.  The positive instance of an invariant atom may
keep the weaker conjunction of what did translate, but the negated
instance must then assert nothing: the negation of a weakened
conjunction would say more than the program does.  Every drop is an
``invariant-drop`` trace event, on every firing and on every driver.
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


def _drop_disjoint_invariant(monkeypatch, table):
    """Make the first (disjoint ``|``) invariant untranslatable.

    The table's axiom templates recorded the translatable invariant, so
    they are emptied: the patched translation must run.
    """
    table.axiom_templates.clear()
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
    _drop_disjoint_invariant(monkeypatch, table)
    instances = _instances(table)
    # The positive instance keeps the invariant that did translate...
    assert instances[True] is not tm.TRUE
    # ...but the negated instance must not claim that one fails.
    assert instances[False] is tm.TRUE


# -- tracing --------------------------------------------------------------

UNTRANSLATABLE = """
class P {
  int a;
  int b;
  invariant(a >= 0);
  invariant((a, b) < (b, a));
  P(int x) returns(x) ( a = x && b = x )
}
static int f(P p) { switch (p) { case P(int x): return x; } }
static int g(P p, P q) {
  switch (p) { case P(int x): switch (q) { case P(int y): return y; } }
}
"""


def _drop_events(options):
    """(task, event) for every ``invariant-drop`` event, in trace order."""
    from repro.obs import Tracer

    tracer = Tracer()
    unit = api.compile_program(UNTRANSLATABLE)
    api.verify(unit, options=options.replace(tracer=tracer))
    found = []

    def walk(span, task):
        if span.kind == "task":
            task = span.name
        found.extend(
            (task, event)
            for event in span.events
            if event["name"] == "invariant-drop"
        )
        for child in span.children:
            walk(child, task)

    for root in tracer.roots:
        walk(root, None)
    return found


def test_dropped_part_is_a_trace_event():
    events = _drop_events(api.VerifyOptions(cache=None))
    assert events
    for _, event in events:
        assert event == {
            "name": "invariant-drop",
            "type": "P",
            "owner": "P",
            "polarity": event["polarity"],
            "reason": "ordering comparison on tuples",
        }


def test_every_firing_traces_its_drop(monkeypatch):
    """A replayed instance emits the drop its first firing recorded."""
    from repro.verify import templates

    replayed = _drop_events(api.VerifyOptions(cache=None))
    instantiate = templates.instantiate

    def direct(ctx, axiom, inputs, depth):
        ctx.table.axiom_templates.clear()
        return instantiate(ctx, axiom, inputs, depth)

    monkeypatch.setattr(templates, "instantiate", direct)
    assert _drop_events(api.VerifyOptions(cache=None)) == replayed
    # Some task fires the instance more than once (g's two values).
    tasks = [task for task, _ in replayed]
    assert any(tasks.count(task) > 1 for task in tasks)


def test_serial_and_parallel_traces_carry_the_same_drops():
    serial = _drop_events(api.VerifyOptions(cache=None))
    parallel = _drop_events(api.VerifyOptions(cache=None, jobs=2))
    assert parallel == serial
