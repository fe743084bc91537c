"""The obligation ledger: every query and every algebra verdict is
accounted for by exactly one ``obligation`` span.

Each obligation span carries its ``tier`` (``smt`` or ``algebra``) and
its ``verdict``.  Over the Table 1 programs (``trees`` is left out: its
queries run to the budget) and two generated files, the SMT spans that
reached a query add up to the report's query count, and the algebra
spans to ``algebra_discharged``; both tiers' spans record real time.
"""

import re

import pytest

from repro import api
from repro.corpus import combined_programs
from repro.gen import GenConfig, generate_corpus
from repro.obs import Tracer

GROUPS = ["nat", "lists", "cps", "typeinf", "collections"]

#: a generated file with three ``inexhaustive`` and three ``redundant``
#: methods, every one of them decided by the pattern algebra
GENERATED = generate_corpus(
    GenConfig(methods=10, seed=5, methods_per_file=10)
).files[0]

#: a generated file with three ``guard`` methods
GUARDED = generate_corpus(
    GenConfig(methods=10, seed=3, methods_per_file=10)
).files[0]

QUERY_VERDICTS = ("sat", "unsat", "unknown")


def _expected(kind: str) -> int:
    return sum(1 for warning in GENERATED.expected if warning.kind == kind)


@pytest.fixture(scope="module")
def traces():
    """Each input's span roots, query count and algebra discharges."""
    programs = combined_programs()
    inputs = {group: programs[group] for group in GROUPS}
    inputs[GENERATED.name] = GENERATED.source
    inputs["guarded.jm"] = GUARDED.source
    out = {}
    for name, source in inputs.items():
        tracer = Tracer()
        unit = api.compile_program(source, filename=name)
        report = api.verify(unit, options=api.VerifyOptions(tracer=tracer))
        stats = report.solver_stats
        out[name] = (
            tracer.roots, stats.total.queries, stats.algebra_discharged
        )
    return out


def _obligations(roots):
    return [
        span
        for root in roots
        for span in root.walk()
        if span.kind == "obligation"
    ]


@pytest.fixture(scope="module")
def ledger(traces):
    obligations = []
    queries = discharged = 0
    for roots, input_queries, input_discharged in traces.values():
        obligations += _obligations(roots)
        queries += input_queries
        discharged += input_discharged
    return obligations, queries, discharged


def test_every_obligation_span_has_a_tier_and_a_verdict(ledger):
    obligations, _, _ = ledger
    assert obligations
    for span in obligations:
        assert span.attrs["tier"] in ("smt", "algebra"), span.name
        assert span.attrs["verdict"], span.name


def test_smt_obligations_add_up_to_the_queries(ledger):
    obligations, queries, _ = ledger
    queried = [
        span
        for span in obligations
        if span.attrs["tier"] == "smt"
        and span.attrs["verdict"] in QUERY_VERDICTS
    ]
    assert queries > 0
    assert len(queried) == queries
    # ... one query apiece, under the obligation that asked it.
    for span in queried:
        assert [child.kind for child in span.children] == ["query"]


def test_algebra_obligations_add_up_to_the_discharged_count(ledger):
    obligations, _, discharged = ledger
    algebra = [span for span in obligations if span.attrs["tier"] == "algebra"]
    assert discharged > 0
    assert len(algebra) == discharged


def test_algebra_obligations_record_real_time(ledger):
    obligations, _, _ = ledger
    for span in obligations:
        if span.attrs["tier"] == "algebra":
            assert span.duration > 0, span.name


def _switches(roots, methods=None):
    """Each switch statement span's obligation spans, by method (only
    ``methods``' when given)."""
    return {
        task.name: [
            child for child in span.children if child.kind == "obligation"
        ]
        for root in roots
        for task in root.walk()
        if task.kind == "task" and (methods is None or task.name in methods)
        for span in task.children
        if span.kind == "statement" and span.name.startswith("switch@")
    }


def _guarded_arms(generated) -> dict[str, int]:
    """Each ``guard``-flavoured method of a generated file, and the
    number of its guarded arm (the generator emits one case label per
    line, each returning its 0-based index)."""
    return {
        method: int(arm) + 1
        for method, arm in re.findall(
            r"static int (m\d+)\(.*\n  switch.*\n(?:    case .*\n)*?"
            r"    case [^\n]* where \(k > 0\): return (\d+);",
            generated.source,
        )
    }


def test_a_non_exhaustive_switch_asks_smt_nothing(traces):
    # The algebra finds the switch non-exhaustive and renders its
    # witness: its n arm verdicts and its exhaustiveness verdict "sat"
    # are n + 1 algebra spans, with no query under any of them.
    roots, _, _ = traces[GENERATED.name]
    missing = []
    guarded = _guarded_arms(GENERATED)
    for method, obligations in _switches(roots).items():
        if method in guarded:
            continue  # see test_a_guarded_switch_asks_smt_only_two_arms
        if any(
            o.name == "exhaustiveness" and o.attrs["verdict"] == "sat"
            for o in obligations
        ):
            missing.append(obligations)
    assert len(missing) == _expected("nonexhaustive")
    for obligations in missing:
        *arms, exhaustive = obligations
        assert exhaustive.name == "exhaustiveness"
        assert arms
        for arm in arms:
            assert arm.name.startswith("redundancy of arm ")
        for obligation in obligations:
            assert obligation.attrs["tier"] == "algebra"
            assert obligation.children == []


def test_a_redundant_arm_is_an_algebra_verdict(traces):
    roots, _, _ = traces[GENERATED.name]
    redundant = [
        o
        for obligations in _switches(roots).values()
        for o in obligations
        if o.name.startswith("redundancy") and o.attrs["verdict"] == "unsat"
    ]
    assert len(redundant) == _expected("redundant-arm")
    assert all(o.attrs["tier"] == "algebra" for o in redundant)


@pytest.mark.parametrize(
    "name, generated",
    [(GENERATED.name, GENERATED), ("guarded.jm", GUARDED)],
    ids=["seed5", "seed3"],
)
def test_a_guarded_switch_asks_smt_only_two_arms(traces, name, generated):
    # ``case p where (k > 0): ... case p:`` -- the guarded arm and the
    # arm after it, which only the guard can make redundant, are the
    # SMT's; every other arm and the exhaustiveness are the algebra's.
    roots, _, _ = traces[name]
    guarded = _guarded_arms(generated)
    assert guarded
    switches = _switches(roots, guarded)
    assert set(switches) == set(guarded)
    for method, arm in guarded.items():
        obligations = switches[method]
        smt = [o.name for o in obligations if o.attrs["tier"] == "smt"]
        assert smt == [
            f"redundancy of arm {arm}",
            f"redundancy of arm {arm + 1}",
        ], method
        assert any(o.name == "exhaustiveness" for o in obligations)
        assert all(
            o.attrs["tier"] == "algebra"
            for o in obligations
            if o.name not in smt
        )


def test_each_switch_discharges_its_arms_in_order_then_exhaustiveness(
    traces,
):
    # ExhaustivenessChecker.check_cond's one pass: arms 1..n, then the
    # exhaustiveness, whichever tier decides each.  (A switch's
    # statement span also holds the disjointness spans of its patterns.)
    orders = [
        [
            child.name
            for child in span.children
            if child.kind == "obligation"
            and not child.name.startswith("disjointness")
        ]
        for roots, _, _ in traces.values()
        for root in roots
        for span in root.walk()
        if span.kind == "statement" and span.name.startswith("switch@")
    ]
    assert orders
    for names in orders:
        arms = [f"redundancy of arm {i}" for i in range(1, len(names) + 1)]
        assert names in (arms, arms[:-1] + ["exhaustiveness"]), names
