"""Command-line interface: compile, verify, and run JMatch programs.

Usage::

    python -m repro.cli verify program.jm        # static checks
    python -m repro.cli verify --jobs 4 *.jm     # parallel, many files
    python -m repro.cli verify --trace t.jsonl --format json program.jm
    python -m repro.cli verify --daemon program.jm  # via the warm daemon
    python -m repro.cli serve                    # run the daemon itself
    python -m repro.cli run program.jm main 3 4  # call a function
    python -m repro.cli tokens                   # Table 1 token table

``verify --format json`` prints one machine-readable document for the
whole invocation (``{"files": [{"path", "report" | "error"}, ...]}``);
``--trace FILE`` writes the run's span tree — every task, obligation,
and SMT query, across all files and worker processes — to FILE as
JSONL (see :mod:`repro.obs`).

Exit status: 0 on success (for ``verify``: even with warnings, since
verification "only affects warnings given to the programmer"); 1 on
per-file failures — compile errors, unreadable files, or a ``--tier
check`` disagreement (with several files: if any file failed) — the
same in text and JSON mode; 2 on bad usage, including a non-positive
``--budget``, ``--jobs``, ``--batch-size``, or ``--task-timeout`` and
invalid option combinations; 130 when interrupted (Ctrl-C), after
cancelling any
verification work still queued on the worker pool.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import api
from .errors import JMatchError
from .runtime import render


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _cache_dir(args: argparse.Namespace) -> str | None:
    """The disk-cache location: flag, then env, then the default.

    ``REPRO_CACHE_DIR=""`` (set but empty) disables the disk tier —
    the historical ``env or DEFAULT`` fallthrough silently re-enabled
    the default directory instead, which is exactly what someone
    exporting an empty value was trying to avoid.
    """
    if args.no_cache:
        return None
    if args.cache_dir is not None:
        return args.cache_dir
    env = os.environ.get("REPRO_CACHE_DIR")
    if env is not None:
        return env or None
    from .smt.diskcache import DEFAULT_CACHE_DIR

    return DEFAULT_CACHE_DIR


def cmd_verify(args: argparse.Namespace) -> int:
    if args.budget is not None and args.budget <= 0:
        print(
            f"error: --budget must be positive, got {args.budget}",
            file=sys.stderr,
        )
        return 2
    if args.task_timeout is not None and args.task_timeout <= 0:
        print(
            f"error: --task-timeout must be positive, got {args.task_timeout}",
            file=sys.stderr,
        )
        return 2
    jobs: int | str = args.jobs
    if jobs != "auto":
        try:
            jobs = int(jobs)
        except ValueError:
            print(
                f"error: --jobs must be a positive integer or 'auto', "
                f"got {args.jobs!r}",
                file=sys.stderr,
            )
            return 2
        if jobs < 1:
            print(f"error: --jobs must be >= 1, got {jobs}", file=sys.stderr)
            return 2
    batch_size: int | str = args.batch_size
    if batch_size != "auto":
        try:
            batch_size = int(batch_size)
        except ValueError:
            print(
                f"error: --batch-size must be a positive integer or 'auto', "
                f"got {args.batch_size!r}",
                file=sys.stderr,
            )
            return 2
        if batch_size < 1:
            print(
                f"error: --batch-size must be >= 1, got {batch_size}",
                file=sys.stderr,
            )
            return 2
    if args.daemon:
        return _verify_via_daemon(args)
    from .smt.cache import GLOBAL_CACHE

    cache = None if args.no_cache else GLOBAL_CACHE
    cache_dir = _cache_dir(args)
    # With --trace, the CLI owns the tracer (and the run span), so one
    # invocation over several files yields a single trace file; each
    # api.verify call records its file span into it.
    tracer = run_span = None
    if args.trace is not None:
        from .obs import Tracer

        tracer = Tracer()
        run_span = tracer.begin("run", "verify")
    options = api.VerifyOptions(
        budget=args.budget,
        cache=cache,
        jobs=jobs,
        cache_dir=cache_dir,
        task_timeout=args.task_timeout,
        batch_size=batch_size,
        tracer=tracer,
        format=args.format,
        tier=args.tier,
    )
    try:
        options.validate()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from .verify.tiered import TierMismatchError

    json_mode = args.format == "json"
    documents: list[dict] = []
    status = 0
    several = len(args.files) > 1
    try:
        for path in args.files:
            if several and not json_mode:
                print(f"{path}:")
            try:
                unit = api.compile_program(_read(path), filename=path)
            except (OSError, JMatchError) as exc:
                # Unreadable files and compile errors fail this file the
                # same way in both output modes: record it, exit 1.
                print(f"error: {exc}", file=sys.stderr)
                status = max(status, 1)
                if json_mode:
                    documents.append({"path": path, "error": str(exc)})
                continue
            tier_error = None
            try:
                report = api.verify(unit, options=options)
            except TierMismatchError as exc:
                print(f"error: {exc}", file=sys.stderr)
                status = max(status, 1)
                tier_error = str(exc)
                report = exc.report
            if report is None:
                if json_mode:
                    documents.append({"path": path, "error": tier_error})
                continue
            if json_mode:
                document = {"path": path, "report": report.to_dict()}
                if tier_error is not None:
                    document["error"] = tier_error
                documents.append(document)
                continue
            for warning in report.diagnostics.warnings:
                print(warning)
            print(
                f"checked {report.methods_checked} methods, "
                f"{report.statements_checked} statements in "
                f"{report.seconds:.2f}s; "
                f"{len(report.diagnostics.warnings)} warnings"
            )
            if args.stats and report.solver_stats is not None:
                print(report.solver_stats.format_table())
            if args.profile and report.solver_stats is not None:
                print(report.solver_stats.format_profile())
    finally:
        if tracer is not None:
            from .obs import write_jsonl

            tracer.end(run_span)
            write_jsonl(args.trace, tracer.roots)
    if json_mode:
        print(json.dumps({"files": documents}, indent=2))
    return status


def _format_warning(warning: dict) -> str:
    """Render one report-dict warning exactly as ``Warning.__str__``.

    The daemon ships report *documents*; the client re-renders them so
    daemon and local text output are byte-identical (the equivalence
    test locks this against :class:`repro.errors.Warning`).
    """
    text = (
        f"warning[{warning['kind']}] {warning['file']}:"
        f"{warning['line']}:{warning['column']}: {warning['message']}"
    )
    if warning.get("counterexample"):
        text += f"\n  counterexample: {warning['counterexample']}"
    return text


def _verify_via_daemon(args: argparse.Namespace) -> int:
    """The ``verify --daemon`` path: one request to a warm daemon.

    ``--jobs``/``--batch-size`` are ignored here — the daemon verifies
    warm-serial by design (its speed comes from hot caches and the
    dependency index, not a process pool) — as is ``--cache-dir``, which
    the daemon fixed at spawn time.
    """
    json_mode = args.format == "json"
    from .verify.daemon import DaemonError, ensure_daemon

    options = {
        "budget": args.budget,
        "tier": args.tier,
        "task_timeout": args.task_timeout,
        "use_cache": not args.no_cache,
        "stats": bool(args.stats) and not json_mode,
        "profile": bool(args.profile) and not json_mode,
        "trace": args.trace is not None,
    }
    try:
        with ensure_daemon(socket_path=args.socket) as client:
            result = client.verify(args.files, options)
    except DaemonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.trace is not None and "trace" in result:
        with open(args.trace, "w", encoding="utf-8") as handle:
            for row in result["trace"]:
                handle.write(json.dumps(row, sort_keys=True) + "\n")
    status = 0
    several = len(args.files) > 1
    documents: list[dict] = []
    for entry in result["files"]:
        path = entry["path"]
        report = entry.get("report")
        error = entry.get("error")
        if not json_mode and several:
            print(f"{path}:")
        if error is not None:
            print(f"error: {error}", file=sys.stderr)
            status = max(status, 1)
        if json_mode:
            document: dict = {"path": path}
            if report is not None:
                document["report"] = report
            if error is not None:
                document["error"] = error
            documents.append(document)
            continue
        if report is None:
            continue
        for warning in report["warnings"]:
            print(_format_warning(warning))
        print(
            f"checked {report['methods_checked']} methods, "
            f"{report['statements_checked']} statements in "
            f"{report['seconds']:.2f}s; "
            f"{len(report['warnings'])} warnings"
        )
        if entry.get("stats_text"):
            print(entry["stats_text"])
        if entry.get("profile_text"):
            print(entry["profile_text"])
    if json_mode:
        print(json.dumps({"files": documents}, indent=2))
    return status


def cmd_serve(args: argparse.Namespace) -> int:
    from .verify.daemon import VerifyDaemon, default_socket_path

    daemon = VerifyDaemon(
        cache_dir=_cache_dir(args),
        use_cache=not args.no_cache,
        trace_path=args.trace,
    )
    if args.stdio:
        daemon.serve_stdio()
        return 0
    socket_path = args.socket or default_socket_path()
    print(f"repro daemon listening on {socket_path}", file=sys.stderr)
    try:
        daemon.serve_socket(socket_path)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    try:
        unit = api.compile_program(_read(args.file), filename=args.file)
    except JMatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    from .corpus.support import install_builtins

    interp = install_builtins(api.interpreter(unit))
    call_args = [int(a) if _is_int(a) else a for a in args.args]
    try:
        result = interp.run_function(args.function, *call_args)
    except JMatchError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1
    print(render(result))
    return 0


def _is_int(text: str) -> bool:
    try:
        int(text)
        return True
    except ValueError:
        return False


def cmd_tokens(_args: argparse.Namespace) -> int:
    from .metrics import average_reduction, table1_rows

    rows = table1_rows()
    print(f"{'Implementation':<14}{'JMatch':>8}{'(w/o specs)':>12}{'Java':>8}")
    for row in rows:
        without = (
            str(row.jmatch_without_specs) if row.jmatch_without_specs else ""
        )
        print(f"{row.name:<14}{row.jmatch:>8}{without:>12}{row.java:>8}")
    print(f"average reduction: {average_reduction(rows):.1f}%")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="JMatch 2.0 reproduction: compile, verify, run.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_verify = subparsers.add_parser("verify", help="run the static checks")
    p_verify.add_argument(
        "files", nargs="+",
        help="one or more JMatch programs (each verified in turn)",
    )
    p_verify.add_argument(
        "--budget", type=float, default=None,
        help="per-query SMT time budget in seconds (must be positive)",
    )
    p_verify.add_argument(
        "--jobs", default="1", metavar="N",
        help="verify methods on N worker processes, or 'auto' to size the "
        "pool from the CPU count and task count (default: 1, serial)",
    )
    p_verify.add_argument(
        "--batch-size", default="auto", metavar="N",
        help="obligations per parallel worker submission, or 'auto' "
        "(default) to size batches from the task and worker counts; "
        "runs under --task-timeout default to single-task batches so "
        "deadlines attribute to exactly one method",
    )
    p_verify.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock limit per verification task (method); an "
        "obligation that overruns it is reported inconclusive instead "
        "of hanging the run (must be positive; default: no limit)",
    )
    p_verify.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persistent verdict cache location (default: $REPRO_CACHE_DIR "
        "when set, else .repro-cache; an empty $REPRO_CACHE_DIR disables "
        "the disk tier)",
    )
    p_verify.add_argument(
        "--daemon", action="store_true",
        help="verify through the warm daemon (spawning one if needed): "
        "hot SMT caches plus dependency-aware re-verification across "
        "invocations; --jobs/--batch-size/--cache-dir are ignored on "
        "this path (the daemon is warm-serial and owns its cache)",
    )
    p_verify.add_argument(
        "--socket", default=None, metavar="PATH",
        help="daemon socket path for --daemon (default: "
        "$REPRO_DAEMON_SOCKET or a per-project path under the temp dir)",
    )
    p_verify.add_argument(
        "--stats", action="store_true",
        help="print per-method solver statistics and cache hit rate",
    )
    p_verify.add_argument(
        "--profile", action="store_true",
        help="print per-method solver phase timers (encode / SAT / "
        "expand / theory / validate)",
    )
    p_verify.add_argument(
        "--no-cache", action="store_true",
        help="solve every SMT query from scratch (disables both the "
        "in-memory and the disk cache tier)",
    )
    p_verify.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write the run's span tree (files, tasks, obligations, SMT "
        "queries with verdicts, cache tiers, and phase timers) to FILE "
        "as JSONL",
    )
    p_verify.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format: 'text' (default, the historical output) or "
        "'json' (one machine-readable document covering all files)",
    )
    p_verify.add_argument(
        "--tier", choices=("auto", "smt-only", "algebra-only", "check"),
        default="auto",
        help="checker tiering: 'auto' (default) lets the syntactic "
        "pattern algebra discharge what it can before SMT; 'smt-only' "
        "disables it; 'algebra-only' runs just the algebra; 'check' runs "
        "both on algebra-decidable obligations and exits 1 on any "
        "verdict disagreement",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_serve = subparsers.add_parser(
        "serve",
        help="run the verification daemon (NDJSON over a Unix socket)",
    )
    p_serve.add_argument(
        "--socket", default=None, metavar="PATH",
        help="Unix socket to listen on (default: $REPRO_DAEMON_SOCKET or "
        "a per-project path under the temp dir); refuses to start if a "
        "live daemon already owns it, replaces a stale socket file",
    )
    p_serve.add_argument(
        "--stdio", action="store_true",
        help="serve the protocol over stdin/stdout instead of a socket "
        "(for tests and LSP-style embedding)",
    )
    p_serve.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="disk tier for the daemon's SMT verdict cache (default: "
        "$REPRO_CACHE_DIR when set, else .repro-cache; an empty "
        "$REPRO_CACHE_DIR disables the disk tier)",
    )
    p_serve.add_argument(
        "--no-cache", action="store_true",
        help="run the daemon without any SMT verdict cache",
    )
    p_serve.add_argument(
        "--trace", default=None, metavar="FILE",
        help="append each request's span rows to FILE as JSONL",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_run = subparsers.add_parser("run", help="invoke a top-level function")
    p_run.add_argument("file")
    p_run.add_argument("function")
    p_run.add_argument("args", nargs="*")
    p_run.set_defaults(func=cmd_run)

    p_tokens = subparsers.add_parser(
        "tokens", help="print the Table 1 token comparison"
    )
    p_tokens.set_defaults(func=cmd_tokens)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        # The parallel engine has already cancelled its queued futures
        # (shutdown(cancel_futures=True)) on the way out; exit with the
        # conventional 128+SIGINT status instead of a traceback.
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
