"""The obligation ledger: every query and every algebra verdict is
accounted for by exactly one ``obligation`` span.

Each obligation span carries its ``tier`` (``smt`` or ``algebra``) and
its ``verdict``.  Over the Table 1 programs (``trees`` is left out: its
queries run to the budget), the SMT spans that reached a query add up
to the report's query count, and the algebra spans to
``algebra_discharged``; both tiers' spans record real time.
"""

import pytest

from repro import api
from repro.corpus import combined_programs
from repro.obs import Tracer

GROUPS = ["nat", "lists", "cps", "typeinf", "collections"]

QUERY_VERDICTS = ("sat", "unsat", "unknown")


@pytest.fixture(scope="module")
def ledger():
    programs = combined_programs()
    tracer = Tracer()
    queries = discharged = 0
    for group in GROUPS:
        unit = api.compile_program(programs[group], filename=group)
        report = api.verify(unit, options=api.VerifyOptions(tracer=tracer))
        queries += report.solver_stats.total.queries
        discharged += report.solver_stats.algebra_discharged
    obligations = [
        span
        for root in tracer.roots
        for span in root.walk()
        if span.kind == "obligation"
    ]
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
