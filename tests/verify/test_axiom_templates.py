"""Replayed axiom templates build exactly what the direct translation builds.

Each lazy axiom is translated once per program and replayed on later
firings (``repro.verify.templates``).  This suite verifies every program
twice: once as is, and once with the table's template cache emptied
before each firing, so every firing runs the direct translation.  For
every firing, in order, both runs must give

* the same axiom term: the same interning position (``_id``) and the
  same rendering, so within its task's interning scope it is the very
  same term, fresh-variable names included;
* the same count of variables minted by the encoding context;
* the same new trigger registrations, in the same order, with the same
  depth, weak flag and callback site.
"""

import pytest

from repro import api
from repro.corpus import collections_, cps, lists, nat, typeinf
from repro.gen import GenConfig, generate_corpus
from repro.smt.cache import _callback_site
from repro.verify import templates


def _mutate(source: str, old: str, new: str) -> str:
    assert old in source
    return source.replace(old, new)


#: the corpus groups that verify conclusively, and the Sec. 7.3 mutants
PROGRAMS = {
    "nat": nat.PROGRAM,
    "lists": lists.PROGRAM,
    "cps": cps.PROGRAM,
    "typeinf": typeinf.PROGRAM,
    "collections": collections_.PROGRAM,
    "nat-dropped-case": _mutate(
        nat.PROGRAM,
        "case (zero(), Nat x):\n    case (x, zero()):",
        "case (x, zero()):",
    ),
    "lists-redundant-length": lists.PROGRAM_WITH_REDUNDANT,
    "nat-swapped-arguments": nat.PROGRAM
    + """
static boolean buggy(Nat n) {
  switch (n) {
    case succ(Nat a): return false;
    case succ(succ(Nat b)): return false;
    case zero(): return true;
  }
}
""",
    "nat-weakened-guard": _mutate(
        nat.PROGRAM,
        "private ZNat(int n) matches ensures(n >= 0) returns(n)",
        "private ZNat(int n) matches(true) ensures(n >= 0) returns(n)",
    ),
}

#: one spec fired on distinct, equal, constant and nested arguments:
#: the input shapes a template must tell apart (see input_shape)
SHAPES = """
static boolean le(int a, int b) matches(a <= b) ensures(a <= b + 0) ( a <= b )
static int f(int x, int y) {
  cond {
    (le(x, y) && le(y, x)) { return 0; }
    (le(1, 0)) { return 1; }
    (le(x, x)) { return 2; }
    (le(x + 1, x)) { return 3; }
    (le(0, x) && le(x, 0)) { return 4; }
  }
}
"""
PROGRAMS["shapes"] = SHAPES

GENERATED_SEEDS = range(1, 11)


def _source(name: str) -> str:
    if name in PROGRAMS:
        return PROGRAMS[name]
    seed = int(name.removeprefix("gen-"))
    corpus = generate_corpus(
        GenConfig(methods=10, seed=seed, methods_per_file=10)
    )
    return corpus.files[0].source


def _firings(monkeypatch, source: str, empty_first: bool):
    """Every top-level firing of a serial run, and the warnings."""
    log = []
    instantiate = templates.instantiate

    def logged(ctx, axiom, inputs, depth):
        if empty_first:
            ctx.table.axiom_templates.clear()
        registered = len(ctx.plugin.registrations())
        term = instantiate(ctx, axiom, inputs, depth)
        log.append(
            (
                axiom.kind,
                tuple((t._id, str(t)) for t in inputs),
                depth,
                term._id,
                str(term),
                ctx._counter,
                [
                    (atom._id, str(atom), polarity, at, weak,
                     _callback_site(callback))
                    for atom, polarity, at, weak, callback
                    in ctx.plugin.registrations()[registered:]
                ],
            )
        )
        return term

    monkeypatch.setattr(templates, "instantiate", logged)
    unit = api.compile_program(source)
    report = api.verify(unit, options=api.VerifyOptions(cache=None))
    monkeypatch.undo()
    return log, [str(w) for w in report.diagnostics.warnings]


@pytest.mark.parametrize(
    "name", [*PROGRAMS, *(f"gen-{seed}" for seed in GENERATED_SEEDS)]
)
def test_replay_matches_direct_translation(monkeypatch, name):
    source = _source(name)
    replayed, warnings = _firings(monkeypatch, source, False)
    direct, direct_warnings = _firings(monkeypatch, source, True)
    assert replayed == direct
    assert warnings == direct_warnings


def test_templates_are_replayed():
    """The suite above compares something: the corpus does replay."""
    counted = 0
    lookup = templates.lookup

    def counting(ctx, axiom, inputs):
        nonlocal counted
        template = lookup(ctx, axiom, inputs)
        counted += template is not None
        return template

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(templates, "lookup", counting)
        api.verify(
            api.compile_program(collections_.PROGRAM),
            options=api.VerifyOptions(cache=None),
        )
    assert counted > 0
