"""Table 1, time columns: compilation with and without verification.

The paper reports per-implementation compile times without and with
verification, with a mean overhead of 42.4%.  We measure the same two
quantities per corpus group: front-end time (parse + analyse) and
front-end + full verification.  Absolute numbers are not comparable
(our substrate is a pure-Python SMT solver, not Z3), but the shape --
verification overhead within the same order of magnitude as
compilation, with AVL trees as the outlier -- is the target.

The heavyweight trees group runs with a reduced per-query budget so
the suite stays minutes, not hours (its queries cap out anyway).
"""

import pytest

from repro import api
from repro.corpus import combined_programs

GROUPS = ["nat", "lists", "cps", "typeinf", "collections"]


@pytest.fixture(scope="module")
def programs():
    return combined_programs()


@pytest.mark.parametrize("group", GROUPS)
def test_compile_without_verification(benchmark, programs, group):
    source = programs[group]
    unit = benchmark(api.compile_program, source)
    assert unit.table is not None


@pytest.mark.parametrize("group", GROUPS)
def test_compile_with_verification(benchmark, programs, group):
    source = programs[group]

    def compile_and_verify():
        unit = api.compile_program(source)
        return api.verify(unit)

    report = benchmark.pedantic(compile_and_verify, rounds=2, iterations=1)
    assert report is not None


def test_trees_verification_bounded(benchmark, programs):
    """The AVL group: the paper's outlier (18.7s on their prototype)."""
    source = programs["trees"]

    def run():
        unit = api.compile_program(source)
        return api.verify(unit, options=api.VerifyOptions(budget=1.0))

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert report is not None


def test_verification_overhead_summary(programs, capsys):
    """Print the w/o vs w/ table the paper's Table 1 reports."""
    import time

    rows = []
    for group in GROUPS:
        source = programs[group]
        t0 = time.perf_counter()
        unit = api.compile_program(source)
        compile_seconds = time.perf_counter() - t0
        t0 = time.perf_counter()
        api.verify(unit)
        verify_seconds = time.perf_counter() - t0
        rows.append((group, compile_seconds, verify_seconds))
    with capsys.disabled():
        print()
        print(f"{'group':<14}{'w/o verif (s)':>14}{'w/ verif (s)':>14}{'overhead':>10}")
        total_c = total_v = 0.0
        for group, c, v in rows:
            total_c += c
            total_v += v
            print(f"{group:<14}{c:>14.3f}{c + v:>14.3f}{v / c:>9.1f}x")
        print(f"{'TOTAL':<14}{total_c:>14.3f}{total_c + total_v:>14.3f}")
