"""The serial driver reproduces ``golden_reports.json`` byte for byte,
within a bound on the SMT queries it takes.

See :mod:`tests.verify.golden` for the inputs and for the ``jobs=2``
and daemon drivers that CI holds to the same file.
"""

from collections import Counter

from tests.verify.golden import (
    collect_api,
    differences,
    golden_inputs,
    load_golden,
)

#: the golden inputs' SMT queries once the algebra bounds guarded
#: switches and renders the witness of each switch it finds
#: non-exhaustive (453: only a guarded arm and the arm after it reach
#: SMT, and no algebra verdict needs a model query), plus 5%
MAX_QUERIES = 476


def test_golden_file_covers_every_input():
    assert list(load_golden()) == list(golden_inputs())


def test_serial_reports_match_golden():
    # The serial driver's one pass also pins the queries it takes: the
    # algebra answers every arm of a switch it decides and the
    # exhaustiveness of each it finds non-exhaustive, SMT only what a
    # guard leaves open (no fallback).
    totals = Counter()
    got = collect_api(jobs=1, totals=totals)
    problems = differences(load_golden(), got)
    assert not problems, "\n".join(problems)
    assert totals["queries"] <= MAX_QUERIES, totals
    assert totals["algebra_fallbacks"] == 0, totals
