"""Throughput at scale: generated corpora, serial vs parallel, checked.

``bench_verify`` measures the five hand-written Table 1 groups — under
a second of work, which is exactly why its parallel lane used to lose
to serial (pool spawn dominates).  This benchmark measures the regime
the parallel engine is *for*: corpora of 1k-5k generated methods from
:mod:`repro.gen`, where per-task overhead must amortize or ``--jobs``
is pointless.

Each lane is also a correctness check, not just a stopwatch: every
generated file carries its ground-truth warning manifest, and both the
serial and the parallel lane are diffed against it
(:func:`repro.gen.check_report`); ``manifest_ok`` lands in the JSON and
``test_bench_scale.py`` fails the run if any lane diverged.

Per size, ``BENCH_scale.json`` records:

* ``serial_s`` / ``parallel_s`` — wall-clock for a no-cache pass over
  the whole corpus with ``jobs=1`` and with the benched jobs setting
  (``auto`` by default, so single-CPU boxes honestly record the serial
  fallback rather than a doomed pool);
* ``speedup_parallel_vs_serial`` — their ratio (both lanes are
  separate-process workloads, so wall-clock is the right clock);
* ``obligations`` and ``obligations_per_s`` — SMT queries plus
  algebra-discharged obligations, over parallel wall time;
* ``p95_method_s`` — 95th percentile of per-method solver seconds
  (from the serial lane's per-method stats, so scheduler noise from
  pool workers does not pollute the tail);
* ``parallel_decision`` — how the driver resolved the jobs request,
  verbatim from the report.

Run ``python benchmarks/bench_scale.py`` (optionally ``--sizes
300,1000 --jobs 2 --seed 7``) to refresh the JSON; the CI
``scale-smoke`` lane runs a 300-method corpus and uploads the result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

from repro import api
from repro.gen import GenConfig, check_report, generate_corpus
from repro.verify.verifier import iter_tasks

#: committed-default corpus sizes (methods); tuned so the full bench
#: stays inside a CI-friendly few minutes
SIZES = [1000, 5000]
SEED = 7
OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_scale.json"


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # macOS/Windows
        return os.cpu_count() or 1


def _percentile(values: list[float], q: float) -> float:
    """The q-quantile by linear interpolation; 0.0 for empty input."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _verify_lane(units, jobs):
    """One no-cache pass over every unit; returns (seconds, reports)."""
    options = api.VerifyOptions(cache=None, jobs=jobs)
    start = time.perf_counter()
    reports = [api.verify(unit, options=options) for unit in units]
    return time.perf_counter() - start, reports


def _manifest_ok(corpus, reports) -> bool:
    return not any(
        check_report(generated.expected, report)
        for generated, report in zip(corpus.files, reports)
    )


def bench_size(size: int, seed: int, jobs) -> dict:
    """Generate, verify serially and in parallel, check, and measure."""
    t0 = time.perf_counter()
    corpus = generate_corpus(GenConfig(methods=size, seed=seed))
    generate_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    units = [
        api.compile_program(generated.source, filename=generated.name)
        for generated in corpus.files
    ]
    compile_s = time.perf_counter() - t0

    serial_s, serial_reports = _verify_lane(units, jobs=1)
    parallel_s, parallel_reports = _verify_lane(units, jobs=jobs)

    # Parity between lanes first, then both against the ground truth.
    serial_warnings = [
        str(w) for r in serial_reports for w in r.diagnostics.warnings
    ]
    parallel_warnings = [
        str(w) for r in parallel_reports for w in r.diagnostics.warnings
    ]
    if serial_warnings != parallel_warnings:
        raise AssertionError(
            f"size {size}: parallel lane changed warnings "
            f"({len(parallel_warnings)} != {len(serial_warnings)})"
        )
    manifest_ok = _manifest_ok(corpus, serial_reports) and _manifest_ok(
        corpus, parallel_reports
    )

    obligations = sum(
        r.solver_stats.total.queries + r.solver_stats.algebra_discharged
        for r in parallel_reports
    )
    method_seconds = [
        stats.seconds
        for r in serial_reports
        for stats in r.solver_stats.per_method.values()
    ]
    return {
        "methods": size,
        "files": len(corpus.files),
        "tasks": sum(1 for u in units for _ in iter_tasks(u.table)),
        "expected_warnings": sum(len(f.expected) for f in corpus.files),
        "manifest_ok": manifest_ok,
        "generate_s": round(generate_s, 4),
        "compile_s": round(compile_s, 4),
        "serial_s": round(serial_s, 4),
        "parallel_s": round(parallel_s, 4),
        "speedup_parallel_vs_serial": round(serial_s / parallel_s, 2),
        "obligations": obligations,
        "obligations_per_s": round(obligations / parallel_s, 1),
        "p95_method_s": round(_percentile(method_seconds, 0.95), 5),
        "parallel_decision": parallel_reports[0]
        .solver_stats.parallel_decision,
    }


def run_bench(sizes=None, seed: int = SEED, jobs="auto") -> dict:
    sizes = list(sizes) if sizes else list(SIZES)
    lanes = [bench_size(size, seed, jobs) for size in sizes]
    largest = lanes[-1]
    return {
        "benchmark": "bench_scale",
        "schema_version": 1,
        "date": time.strftime("%Y-%m-%d"),
        "python": platform.python_version(),
        "cpus": usable_cpus(),
        "jobs": jobs,
        "seed": seed,
        "sizes": sizes,
        "lanes": lanes,
        # headline numbers, from the largest corpus
        "speedup_parallel_vs_serial": largest[
            "speedup_parallel_vs_serial"
        ],
        "obligations_per_s": largest["obligations_per_s"],
        "manifest_ok": all(lane["manifest_ok"] for lane in lanes),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark verification throughput on generated corpora."
    )
    parser.add_argument(
        "--sizes", default=None, metavar="N,M",
        help=f"comma-separated corpus sizes in methods (default: "
        f"{','.join(map(str, SIZES))}; env REPRO_BENCH_SCALE_SIZES)",
    )
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument(
        "--jobs", default="auto",
        help="jobs setting for the parallel lane (default: auto)",
    )
    parser.add_argument(
        "--out", default=str(OUT_PATH), metavar="FILE",
        help="where to write the JSON (default: repo-root BENCH_scale.json)",
    )
    args = parser.parse_args(argv)
    raw = args.sizes or os.environ.get("REPRO_BENCH_SCALE_SIZES")
    sizes = [int(s) for s in raw.split(",")] if raw else None
    jobs = args.jobs if args.jobs == "auto" else int(args.jobs)
    results = run_bench(sizes=sizes, seed=args.seed, jobs=jobs)
    Path(args.out).write_text(json.dumps(results, indent=2) + "\n")
    print(json.dumps(results, indent=2))
    return 0 if results["manifest_ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
