"""The serial driver reproduces ``golden_reports.json`` byte for byte.

See :mod:`tests.verify.golden` for the inputs and for the ``jobs=2``
and daemon drivers that CI holds to the same file.
"""

from tests.verify.golden import collect, differences, golden_inputs, load_golden


def test_golden_file_covers_every_input():
    assert list(load_golden()) == list(golden_inputs())


def test_serial_reports_match_golden():
    (got,) = collect("serial")
    problems = differences(load_golden(), got)
    assert not problems, "\n".join(problems)
