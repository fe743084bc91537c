"""Malformed call arguments are reported the same way for every call kind.

Tuples are not terms, so one cannot key a success predicate; and a call
with the wrong number of arguments has no mode to encode.  Whatever the
kind of call, the translator rejects either with a per-statement
warning, and the rest of the method is still verified.
"""

import pytest

from repro import api
from repro.verify.options import VerifyOptions

SOURCE = """
static boolean p(int a) ( a >= 0 )
static int h(int a) ( result = a )
class Box {
  int v;
  Box(int a) returns(a) ( v = a )
  constructor pair(int a) ( v = a )
}
static int g(int x, int y, Box b) {
  %s
  return 0;
}
"""


@pytest.mark.parametrize(
    "statement",
    [
        pytest.param("let p((x, y));", id="predicate"),
        pytest.param("let 3 = h((x, y));", id="result-matched"),
        pytest.param("let int z = h((x, y));", id="forward"),
        pytest.param("let Box c = Box((x, y));", id="creation"),
        pytest.param("let pair((x, y)) = b;", id="pattern"),
    ],
)
def test_tuple_argument_is_a_per_statement_warning(statement):
    unit = api.compile_program(SOURCE % statement)
    report = api.verify(unit, options=VerifyOptions(cache=None))
    assert report.tasks_failed == 0
    assert [str(w) for w in report.diagnostics.warnings] == [
        "warning[verification-inconclusive] <input>:10:3: "
        "let formula could not be analyzed: tuple argument"
    ]


@pytest.mark.parametrize(
    "statement, callee",
    [
        pytest.param("let int z = h(x, y);", "h", id="forward-too-many"),
        pytest.param("let int z = h();", "h", id="forward-too-few"),
        pytest.param("let Box c = Box(x, y);", "Box", id="creation-too-many"),
        pytest.param("let Box c = Box();", "Box", id="creation-too-few"),
    ],
)
def test_value_call_arity_mismatch_is_a_per_statement_warning(statement, callee):
    unit = api.compile_program(SOURCE % statement)
    report = api.verify(unit, options=VerifyOptions(cache=None))
    assert report.tasks_failed == 0
    assert [str(w) for w in report.diagnostics.warnings] == [
        "warning[verification-inconclusive] <input>:10:3: "
        f"let formula could not be analyzed: arity mismatch calling {callee}"
    ]
