"""Every inconclusive verdict names the limit it reached.

A query answers UNKNOWN when the time budget runs out ("deadline") or
when the deepening schedule ends with an expansion still suppressed
("depth").  Each checker's UNKNOWN warning ends with that cause, and
the query's trace span carries it.
"""

import pytest

from repro import api
from repro.errors import WarningKind
from repro.obs import read_jsonl, validate_trace_rows
from repro.smt import Result
from repro.smt.solver import SolverStats
from repro.verify.solving import QueryOutcome, SolverSession

from .test_exhaustiveness import NAT_PRELUDE

#: one obligation of each checker that can answer UNKNOWN
SOURCE = NAT_PRELUDE + """
interface Sized {
  constructor big(int k) matches(k > 10) ensures(k > 5) returns(k);
}
static int pos(int k) ensures(result > 0) ( result = k * k + 1 )
static int observe(Nat n, int k) {
  if (k > 0)
    switch (n) {
      case succ(Nat p): return 1;
      case zero(): return 0;
    }
  return 0;
}
static int sign(int x) {
  cond {
    (x > 0 | x < 0) { return 1; }
    else return 0;
  }
}
static int g(int k) {
  let ZNat z = ZNat(k);
  return 0;
}
"""

MESSAGES = [
    "could not decide whether arm 1 is redundant",
    "no counterexample to exhaustiveness found, but there may be one",
    "could not prove this let total",
    "could not decide totality of pos in mode returns(result)",
    "could not decide the postcondition of pos in mode returns(result)",
    "could not check specification of Sized.big in mode returns(k)",
    "cond arm: could not prove `((x > 0) | (x < 0))` disjoint",
]

SUFFIX = {
    "deadline": " (time budget exhausted)",
    "depth": " (expansion depth exhausted)",
}


@pytest.fixture
def unit():
    return api.compile_program(SOURCE)


@pytest.mark.parametrize("cause", sorted(SUFFIX))
def test_every_checker_names_the_cause(unit, monkeypatch, cause):
    def unknown(self, plugin, terms, want_model):
        return QueryOutcome(
            Result.UNKNOWN, None, SolverStats(), "off", 0, cause
        )

    monkeypatch.setattr(SolverSession, "_solve", unknown)
    report = api.verify(unit, options=api.VerifyOptions(cache=None))
    messages = [w.message for w in report.of_kind(WarningKind.UNKNOWN)]
    for message in MESSAGES:
        assert message + SUFFIX[cause] in messages, messages


def _trace(unit, budget, tmp_path):
    path = tmp_path / "trace.jsonl"
    api.verify(
        unit,
        options=api.VerifyOptions(budget=budget, cache=None, trace=str(path)),
    )
    rows = read_jsonl(str(path))
    assert validate_trace_rows(rows) == []
    return rows


def _queries(rows):
    return [row for row in rows if row["kind"] == "query"]


def test_unknown_query_span_carries_the_cause(unit, tmp_path):
    rows = _queries(_trace(unit, 0.0, tmp_path))
    unknown = [r for r in rows if r["attrs"]["verdict"] == "unknown"]
    assert unknown
    assert {r["attrs"]["unknown_cause"] for r in unknown} == {"deadline"}


def test_conclusive_query_span_has_no_cause(unit, tmp_path):
    rows = _queries(_trace(unit, None, tmp_path))
    assert rows
    assert all(r["attrs"]["verdict"] != "unknown" for r in rows)
    assert not any("unknown_cause" in r["attrs"] for r in rows)


def test_trace_schema_checks_the_cause(unit, tmp_path):
    rows = _trace(unit, None, tmp_path)
    query = _queries(rows)[0]
    query["attrs"]["unknown_cause"] = "deadline"
    assert validate_trace_rows(rows) == [
        f"row {rows.index(query) + 1}: conclusive query with a cause"
    ]
    query["attrs"]["verdict"] = "unknown"
    assert validate_trace_rows(rows) == []
    del query["attrs"]["unknown_cause"]
    assert validate_trace_rows(rows) == [
        f"row {rows.index(query) + 1}: unknown query without a cause"
    ]
