"""Asserted floors for the verification performance trajectory.

``bench_verify.run_bench`` measures; this module pins the performance
claims the verification PRs make, with safety margin under the
measured numbers (locally the warm run is ~5-10x faster than cold and
the 4-way parallel run ~2.5-3x faster than serial on 4+ cores):

* a warm disk-cache run is at least 2x faster than the cold run that
  populated it — this holds on any machine, so it is always asserted;
* ``jobs=4`` beats serial by at least 1.5x on the no-cache workload —
  only meaningful when the machine actually has cores to fan out to,
  so it is skipped below 4 usable CPUs (the measurement is still taken
  and written to BENCH_verify.json for the record);
* the incremental engine beats the from-scratch reference oracle
  (``tests/smt/reference_solver.py``) end to end (see the test docstring for why the
  honest margin is ~1.1x, not more);
* the fingerprint machinery behind the caches never costs more than it
  can save (cold cached run <= 1.15x of the no-cache run).
"""

import json

import pytest

from bench_verify import OUT_PATH, run_bench, usable_cpus


@pytest.fixture(scope="module")
def results():
    data = run_bench()
    OUT_PATH.write_text(json.dumps(data, indent=2) + "\n")
    return data


def test_warm_disk_cache_run_is_at_least_2x_faster(results):
    cold = results["serial_cold_s"]
    warm = results["serial_warm_s"]
    assert results["warm_cache_hit_rate"] >= 0.5, (
        "warm pass barely hit the disk cache: "
        f"{results['warm_cache_hit_rate']:.0%}"
    )
    assert warm * 2 <= cold, (
        f"warm run {warm:.3f}s vs cold {cold:.3f}s "
        f"({cold / warm:.2f}x, need >= 2x)"
    )


def test_parallel_run_is_at_least_1_5x_faster(results):
    if usable_cpus() < 4:
        pytest.skip(
            f"only {usable_cpus()} usable CPUs: a 4-way pool cannot "
            "demonstrate wall-time speedup (numbers still recorded)"
        )
    serial = results["nocache_serial_s"]
    parallel = results["nocache_parallel_s"]
    assert parallel * 1.5 <= serial, (
        f"jobs=4 took {parallel:.3f}s vs serial {serial:.3f}s "
        f"({serial / parallel:.2f}x, need >= 1.5x)"
    )


def test_incremental_beats_fromscratch(results):
    """The incremental engine must win end to end, never just tie.

    Measured headroom is ~1.1x (best-of-3 interleaved CPU-time
    samples, serial, no cache), not more, because the two engines
    share most of this corpus's cost by construction: counterexample
    models come from a fresh single-query solve in both lanes, so both
    render byte-identical warnings, and first-fire axiom instantiation (the translation of
    invariant/postcondition instances) lives on the per-statement
    plugin that both engines reuse across a query chain -- as the seed
    architecture already did.  What state reuse eliminates is the
    per-query/per-depth re-encoding, SAT re-search, and theory
    re-closure of the verdict path, which is the remaining slice of
    runtime on these small, depth-2-conclusive queries.  The floor
    asserts strictly more than a tie so a regression that loses the
    advantage fails; the recorded ``speedup_incremental_vs_fromscratch``
    tracks the actual margin.
    """
    incremental = results["incremental_serial_s"]
    fromscratch = results["fromscratch_serial_s"]
    assert incremental * 1.02 <= fromscratch, (
        f"incremental run {incremental:.3f}s vs from-scratch "
        f"{fromscratch:.3f}s ({fromscratch / incremental:.2f}x, "
        "need >= 1.02x)"
    )


def test_cached_cold_is_not_slower_than_no_cache(results):
    """Fingerprinting must not cost more than it can ever save.

    Before per-term fingerprint memoisation the cold cached run was
    *slower* than --no-cache (0.98s vs 0.89s).  Both sides are best-of-3
    interleaved CPU-time samples (see run_bench); the 1.15x tolerance
    absorbs the residual noise plus the real cost the cold pass pays
    that the no-cache pass does not: fingerprinting every query and
    writing ~180 disk-tier entries.
    """
    cold = results["serial_cold_cpu_s"]
    nocache = results["nocache_serial_cpu_s"]
    assert cold <= nocache * 1.15, (
        f"cold cached run {cold:.3f}s vs no-cache {nocache:.3f}s: "
        "cache fingerprint overhead has regressed"
    )


def test_tiered_cold_pass_is_not_slower_than_smt_only(results):
    """The pattern-algebra first pass must pay for itself.

    The algebra is pure syntax (no encoding, no SAT search), so every
    switch it discharges is an SMT obligation the auto pipeline never
    runs; the lane asserts the cold serial pass is no slower than
    ``tier=smt-only`` (1.05x tolerance for residual CPU-time noise)
    and that the algebra actually fired.
    """
    auto = results["tier_auto_serial_s"]
    smt_only = results["tier_smt_only_serial_s"]
    assert results["algebra_discharged"] > 0, (
        "the pattern algebra discharged nothing on the corpus"
    )
    assert auto <= smt_only * 1.05, (
        f"tiered cold run {auto:.3f}s vs smt-only {smt_only:.3f}s: "
        "the algebra pass is costing more than it saves"
    )


def test_fault_tolerance_is_invisible_on_a_healthy_run(results):
    """The submit-based pipeline must cost nothing when nothing fails.

    An undisturbed benchmark pass retries no tasks, times none out, and
    degrades none to UNKNOWN -- any nonzero count here means the
    recovery machinery fired spuriously (a phantom crash, a watchdog
    misjudging a healthy pool) and is distorting every timing lane.
    """
    assert results["tasks_retried"] == 0
    assert results["tasks_timed_out"] == 0
    assert results["tasks_failed"] == 0


def test_benchmark_json_is_fresh_and_complete(results):
    on_disk = json.loads(OUT_PATH.read_text())
    for key in (
        "serial_cold_s",
        "serial_warm_s",
        "parallel_cold_s",
        "parallel_warm_s",
        "nocache_serial_s",
        "nocache_parallel_s",
        "serial_cold_cpu_s",
        "nocache_serial_cpu_s",
        "incremental_serial_s",
        "fromscratch_serial_s",
        "tier_auto_serial_s",
        "tier_smt_only_serial_s",
        "algebra_discharged",
        "speedup_incremental_vs_fromscratch",
        "speedup_tiered_vs_smt_only",
        "warm_cache_hit_rate",
        "queries_cold",
        "jobs",
        "tasks_retried",
        "tasks_timed_out",
        "tasks_failed",
    ):
        assert key in on_disk, f"BENCH_verify.json missing {key}"
    assert on_disk["queries_cold"] > 0
