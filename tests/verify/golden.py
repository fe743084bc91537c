"""Golden reports: every warning of a fixed input set, byte for byte.

The inputs are the five Table 1 programs, the Sec. 7.3 seeded-bug
mutants (built as ``benchmarks/test_effectiveness.py`` builds them) and
40 ``repro.gen`` files whose sizes cycle over perfbench's 10-100
method mix.  ``golden_reports.json`` holds each input's warnings (kind,
message, span, counterexample) as the serial driver reported them when
the file was written.  A change that must not change what users see
(a cache, an engine or a driver refactor) keeps all three drivers on
these bytes:

* ``serial``: ``api.verify`` with ``jobs=1`` and a fresh query cache
  per input (``tests/verify/test_golden_reports.py`` runs this);
* ``jobs2``: the same through the process pool with two workers;
* ``daemon``: one in-process ``VerifyDaemon`` serving every input from
  disk, cold, then again after one edit (a warning-free method appended
  to one input), so most tasks replay from its dependency index.

Check a driver, or rewrite the file from the serial driver::

    PYTHONPATH=src:. python -m tests.verify.golden --driver jobs2
    PYTHONPATH=src:. python -m tests.verify.golden --write
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

from repro import api
from repro.corpus import collections_, cps, lists, nat, typeinf
from repro.gen import GenConfig, generate_corpus
from repro.smt.cache import SolverCache
from repro.verify.daemon.server import VerifyDaemon

GOLDEN_PATH = Path(__file__).with_name("golden_reports.json")

#: perfbench's generated-file size cycle (``perfbench/workloads.py``)
GEN_SIZES = (10, 10, 11, 12, 13, 15, 17, 20, 100, 100)
GEN_FILES = 40

#: the input the daemon driver edits, and what it appends: a method
#: with no warnings, so the edited input's golden report still holds
EDITED_INPUT = "nat"
EDIT = "\nstatic int goldenEdit(int k) {\n  return k;\n}\n"

DRIVERS = ("serial", "jobs2", "daemon")


def _mutate(source: str, old: str, new: str) -> str:
    if old not in source:
        raise ValueError(f"mutation site not found: {old!r}")
    return source.replace(old, new)


def golden_inputs() -> dict[str, str]:
    """Every input by name, in a fixed order."""
    inputs = {
        "nat": nat.PROGRAM,
        "lists": lists.PROGRAM,
        "cps": cps.PROGRAM,
        "typeinf": typeinf.PROGRAM,
        "collections": collections_.PROGRAM,
        "nat-dropped-case": _mutate(
            nat.PROGRAM,
            "case (zero(), Nat x):\n    case (x, zero()):",
            "case (x, zero()):",
        ),
        "lists-redundant-length": lists.PROGRAM_WITH_REDUNDANT,
        "nat-swapped-arguments": nat.PROGRAM
        + """
        static boolean buggy(Nat n) {
          switch (n) {
            case succ(Nat a): return false;
            case succ(succ(Nat b)): return false;
            case zero(): return true;
          }
        }
        """,
        "nat-removed-invariant": _mutate(
            nat.PROGRAM, "invariant(this = zero() | succ(_));", ""
        ),
        "nat-weakened-guard": _mutate(
            nat.PROGRAM,
            "private ZNat(int n) matches ensures(n >= 0) returns(n)",
            "private ZNat(int n) matches(true) ensures(n >= 0) returns(n)",
        ),
    }
    for index in range(GEN_FILES):
        size = GEN_SIZES[index % len(GEN_SIZES)]
        corpus = generate_corpus(
            GenConfig(methods=size, seed=index, methods_per_file=size)
        )
        inputs[f"gen_{index:03d}"] = corpus.files[0].source
    return inputs


def _warnings(report_document: dict) -> list[dict]:
    """A report's warnings without the file name, which differs by driver."""
    return [
        {key: value for key, value in warning.items() if key != "file"}
        for warning in report_document["warnings"]
    ]


def collect_api(jobs: int) -> dict[str, list[dict]]:
    """Each input's warnings through ``api.verify`` with ``jobs`` workers."""
    out = {}
    for name, source in golden_inputs().items():
        unit = api.compile_program(source, filename=f"{name}.jm")
        report = api.verify(
            unit, options=api.VerifyOptions(cache=SolverCache(), jobs=jobs)
        )
        out[name] = _warnings(report.to_dict())
    return out


def collect_daemon() -> list[dict[str, list[dict]]]:
    """Each input's warnings from one daemon: cold, then after one edit."""
    inputs = golden_inputs()
    daemon = VerifyDaemon()
    passes = []
    with tempfile.TemporaryDirectory() as workdir:
        paths = {}
        for name, source in inputs.items():
            path = paths[name] = os.path.join(workdir, f"{name}.jm")
            Path(path).write_text(source, encoding="utf-8")
        for request_id in (1, 2):
            if request_id == 2:
                with open(paths[EDITED_INPUT], "a", encoding="utf-8") as f:
                    f.write(EDIT)
            response = daemon.handle_request(
                {"op": "verify", "id": request_id, "paths": list(paths.values())}
            )
            assert response["ok"], response
            result = response["result"]
            if request_id == 2:
                # The edit re-verifies the new method and replays the rest.
                assert result["dep_misses"] >= 1, result
                assert result["dep_hits"] > 0, result
            passes.append(
                {
                    name: _warnings(entry["report"])
                    for name, entry in zip(paths, result["files"])
                }
            )
    return passes


def collect(driver: str) -> list[dict[str, list[dict]]]:
    """Every report a driver produces for the golden inputs."""
    if driver == "serial":
        return [collect_api(jobs=1)]
    if driver == "jobs2":
        return [collect_api(jobs=2)]
    if driver == "daemon":
        return collect_daemon()
    raise ValueError(f"unknown driver {driver!r}")


def load_golden() -> dict[str, list[dict]]:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)["reports"]


def differences(
    golden: dict[str, list[dict]], got: dict[str, list[dict]]
) -> list[str]:
    """One line per input whose warnings differ from the golden file."""
    problems = []
    for name in sorted(set(golden) | set(got)):
        if golden.get(name) != got.get(name):
            problems.append(
                f"{name}: expected {json.dumps(golden.get(name))}, "
                f"got {json.dumps(got.get(name))}"
            )
    return problems


def write_golden() -> int:
    (reports,) = collect("serial")
    document = {
        "about": "warnings per input; regenerate with "
        "`PYTHONPATH=src:. python -m tests.verify.golden --write`",
        "reports": reports,
    }
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    total = sum(len(warnings) for warnings in reports.values())
    print(f"wrote {total} warnings for {len(reports)} inputs to {GOLDEN_PATH}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--driver", choices=DRIVERS, default="serial")
    parser.add_argument(
        "--write", action="store_true",
        help="rewrite the golden file from the serial driver",
    )
    args = parser.parse_args(argv)
    if args.write:
        return write_golden()
    golden = load_golden()
    failed = 0
    for number, got in enumerate(collect(args.driver), 1):
        problems = differences(golden, got)
        for line in problems:
            print(f"{args.driver} pass {number}: {line}")
        failed += len(problems)
        print(
            f"{args.driver} pass {number}: "
            f"{len(got) - len(problems)}/{len(got)} inputs match"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
