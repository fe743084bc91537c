"""The verification performance trajectory: cold/warm, serial/parallel.

Verifies the built-in corpus (the five conclusively-verifiable Table 1
groups; ``trees`` answers UNKNOWN by exhausting any budget, and UNKNOWN
is never cached, so it would only add constant noise) under four
configurations and writes the measurements to ``BENCH_verify.json``:

* **serial cold** — ``jobs=1`` against an empty disk cache;
* **serial warm** — the same run again: every conclusive verdict now
  comes from the disk tier, so wall time is compile + fingerprint cost;
* **parallel cold / warm** — ``jobs=4`` with its own disk cache;
* **no-cache serial / parallel** — both cache tiers off, isolating the
  parallel engine's speedup from cache effects;
* **incremental / from-scratch serial** — best-of-3 interleaved
  no-cache serial passes of the engine and of the reference oracle
  (``tests/smt/reference_solver.py``, patched in with the same
  ``reference_engine()`` monkeypatch the parity tests use; it rebuilds
  the CNF encoding and CDCL state per query and per deepening depth,
  as the seed architecture did); their ratio is the end-to-end
  state-reuse speedup.  This pair and the cold-cached-vs-no-cache pair are
  measured in CPU time (``time.process_time``), not wall-clock: the
  ratios they pin are tight, and CPU time is immune to the scheduler
  preemption that dominates wall-clock variance on loaded boxes;
* **tiered / smt-only serial** — the same best-of-3 interleaved
  CPU-time protocol comparing the default ``tier=auto`` pipeline (the
  syntactic pattern algebra discharges what it can before SMT) against
  ``tier=smt-only``; the lane also records how many obligations the
  algebra discharged.

Run it directly (``python benchmarks/bench_verify.py``) to refresh the
JSON; ``test_bench_verify.py`` asserts the floor the ISSUE demands
(warm >= 2x cold always; parallel >= 1.5x when enough cores exist) so
future PRs cannot silently regress either axis.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

from repro import api
from repro.corpus import combined_programs

# The from-scratch lane's oracle lives in the test suite; make the repo
# root importable when this file runs as a script.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.smt.reference_solver import reference_engine  # noqa: E402

GROUPS = ["nat", "lists", "cps", "typeinf", "collections"]
JOBS = 4
OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_verify.json"


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # macOS/Windows
        return os.cpu_count() or 1


def compile_units():
    programs = combined_programs()
    return {group: api.compile_program(programs[group]) for group in GROUPS}


def verify_corpus(
    units,
    jobs: int,
    cache_dir: str | None,
    use_cache: bool,
):
    """One full pass over the corpus; returns (seconds, reports).

    ``seconds`` is wall-clock; the pass's CPU time is also taken (see
    :func:`verify_corpus_cpu`) but this two-tuple shape is what most
    lanes and the CLI consume.
    """
    wall, _, reports = verify_corpus_cpu(units, jobs, cache_dir, use_cache)
    return wall, reports


def verify_corpus_cpu(
    units,
    jobs: int,
    cache_dir: str | None,
    use_cache: bool,
    tier: str = "auto",
):
    """One full pass; returns (wall seconds, CPU seconds, reports).

    CPU time (``time.process_time``: user + system of this process) is
    immune to scheduler preemption, which makes it the right clock for
    the *tight* serial ratios the floors pin -- on a loaded box two
    wall-clock samples of the same CPU-bound pass can differ by 15%.
    It is meaningless for the parallel lanes (workers are separate
    processes), which stay on wall-clock.
    """
    cache = api.GLOBAL_CACHE if use_cache else None
    start = time.perf_counter()
    cpu_start = time.process_time()
    reports = {
        group: api.verify(
            units[group],
            options=api.VerifyOptions(
                cache=cache,
                jobs=jobs,
                cache_dir=cache_dir,
                tier=tier,
            ),
        )
        for group in GROUPS
    }
    cpu = time.process_time() - cpu_start
    return time.perf_counter() - start, cpu, reports


def _totals(reports):
    queries = sum(r.solver_stats.total.queries for r in reports.values())
    hits = sum(r.solver_stats.total.cache_hits for r in reports.values())
    misses = sum(r.solver_stats.total.cache_misses for r in reports.values())
    warnings = sum(len(r.diagnostics.warnings) for r in reports.values())
    return queries, hits, misses, warnings


def run_bench(jobs: int = JOBS) -> dict:
    units = compile_units()
    with tempfile.TemporaryDirectory(prefix="bench-verify-") as tmp:
        serial_dir = os.path.join(tmp, "serial")
        parallel_dir = os.path.join(tmp, "parallel")

        serial_cold_s, cold_cpu_s, cold_reports = verify_corpus_cpu(
            units, 1, serial_dir, True
        )
        serial_warm_s, warm_reports = verify_corpus(units, 1, serial_dir, True)
        parallel_cold_s, par_cold = verify_corpus(units, jobs, parallel_dir, True)
        parallel_warm_s, par_warm = verify_corpus(units, jobs, parallel_dir, True)
        nocache_serial_s, nocache_cpu_s, plain = verify_corpus_cpu(
            units, 1, None, False
        )
        nocache_parallel_s, par_plain = verify_corpus(units, jobs, None, False)
        # Two lanes pin *tight* ratios (cold-cached vs no-cache, and
        # incremental vs from-scratch), so a single wall-clock sample
        # per side is at the mercy of scheduler noise.  Those floors
        # compare best-of-3 interleaved CPU-time samples instead; a
        # fresh disk directory per extra cold pass keeps that lane
        # genuinely cold (the in-memory tier is private to each verify
        # call).
        for i in range(2):
            t_cold, c_cold, _ = verify_corpus_cpu(
                units, 1, os.path.join(tmp, f"cold{i}"), True
            )
            serial_cold_s = min(serial_cold_s, t_cold)
            cold_cpu_s = min(cold_cpu_s, c_cold)
            t_nc, c_nc, _ = verify_corpus_cpu(units, 1, None, False)
            nocache_serial_s = min(nocache_serial_s, t_nc)
            nocache_cpu_s = min(nocache_cpu_s, c_nc)
        # The engine and the from-scratch reference oracle, on the
        # same no-cache workload so engine differences are isolated
        # from cache effects.  Three interleaved samples per side,
        # symmetrically, so no lane wins on sample count.
        incremental_cpu_s = None
        fromscratch_cpu_s = None
        scratch = None
        for _ in range(3):
            _, c_inc, _ = verify_corpus_cpu(units, 1, None, False)
            if incremental_cpu_s is None or c_inc < incremental_cpu_s:
                incremental_cpu_s = c_inc
            with reference_engine():
                _, c_scr, scratch_reports = verify_corpus_cpu(
                    units, 1, None, False
                )
            if fromscratch_cpu_s is None or c_scr < fromscratch_cpu_s:
                fromscratch_cpu_s = c_scr
                scratch = scratch_reports
        # The tiered lane: the pattern-algebra first pass (tier=auto,
        # the default every other lane already runs) against the pure
        # SMT pipeline (tier=smt-only) on the same cold no-cache serial
        # workload.  Best-of-3 interleaved CPU samples, like the other
        # tight ratios; the floor asserts auto is never slower.
        tier_auto_cpu_s = None
        tier_smt_only_cpu_s = None
        tiered = None
        for _ in range(3):
            _, c_auto, auto_reports = verify_corpus_cpu(
                units, 1, None, False, tier="auto"
            )
            if tier_auto_cpu_s is None or c_auto < tier_auto_cpu_s:
                tier_auto_cpu_s = c_auto
                tiered = auto_reports
            _, c_smt, smt_only_reports = verify_corpus_cpu(
                units, 1, None, False, tier="smt-only"
            )
            if tier_smt_only_cpu_s is None or c_smt < tier_smt_only_cpu_s:
                tier_smt_only_cpu_s = c_smt
                smt_only = smt_only_reports

    queries, _, _, warnings = _totals(cold_reports)
    _, warm_hits, warm_misses, _ = _totals(warm_reports)
    # The fault-tolerant pipeline must be invisible on a healthy box:
    # an undisturbed benchmark pass retries, times out, and degrades
    # nothing (test_bench_verify.py pins these at zero).
    tasks_retried = sum(r.tasks_retried for r in par_plain.values())
    tasks_timed_out = sum(r.tasks_timed_out for r in par_plain.values())
    tasks_failed = sum(r.tasks_failed for r in par_plain.values())
    algebra_discharged = sum(
        r.solver_stats.algebra_discharged for r in tiered.values()
    )
    for label, reports in (
        ("warm", warm_reports),
        ("parallel-cold", par_cold),
        ("parallel-warm", par_warm),
        ("no-cache", plain),
        ("no-cache-parallel", par_plain),
        ("from-scratch", scratch),
        ("tier-auto", tiered),
        ("tier-smt-only", smt_only),
    ):
        got = sum(len(r.diagnostics.warnings) for r in reports.values())
        if got != warnings:
            raise AssertionError(
                f"{label} run changed warnings: {got} != {warnings}"
            )

    return {
        "benchmark": "bench_verify",
        "schema_version": 6,
        "date": time.strftime("%Y-%m-%d"),
        "python": platform.python_version(),
        "cpus": usable_cpus(),
        "jobs": jobs,
        "groups": GROUPS,
        "queries_cold": queries,
        "warnings": warnings,
        "serial_cold_s": round(serial_cold_s, 4),
        "serial_warm_s": round(serial_warm_s, 4),
        "parallel_cold_s": round(parallel_cold_s, 4),
        "parallel_warm_s": round(parallel_warm_s, 4),
        "nocache_serial_s": round(nocache_serial_s, 4),
        "nocache_parallel_s": round(nocache_parallel_s, 4),
        # CPU-time lanes (best-of-3 interleaved) behind the tight floors
        "serial_cold_cpu_s": round(cold_cpu_s, 4),
        "nocache_serial_cpu_s": round(nocache_cpu_s, 4),
        "incremental_serial_s": round(incremental_cpu_s, 4),
        "fromscratch_serial_s": round(fromscratch_cpu_s, 4),
        # Tiered lane: pattern-algebra first pass vs pure SMT, cold
        # serial no-cache CPU time (best-of-3 interleaved).
        "tier_auto_serial_s": round(tier_auto_cpu_s, 4),
        "tier_smt_only_serial_s": round(tier_smt_only_cpu_s, 4),
        "algebra_discharged": algebra_discharged,
        "tasks_retried": tasks_retried,
        "tasks_timed_out": tasks_timed_out,
        "tasks_failed": tasks_failed,
        "warm_cache_hit_rate": round(
            warm_hits / (warm_hits + warm_misses) if warm_hits + warm_misses else 0.0,
            4,
        ),
        "speedup_warm_vs_cold": round(serial_cold_s / serial_warm_s, 2),
        "speedup_parallel_vs_serial": round(
            nocache_serial_s / nocache_parallel_s, 2
        ),
        "speedup_incremental_vs_fromscratch": round(
            fromscratch_cpu_s / incremental_cpu_s, 2
        ),
        "speedup_tiered_vs_smt_only": round(
            tier_smt_only_cpu_s / tier_auto_cpu_s, 2
        ),
    }


def main(out_path: Path = OUT_PATH) -> dict:
    results = run_bench()
    out_path.write_text(json.dumps(results, indent=2) + "\n")
    print(json.dumps(results, indent=2))
    return results


if __name__ == "__main__":
    sys.exit(0 if main() else 1)
