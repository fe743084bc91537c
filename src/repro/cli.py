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
JSONL (see :mod:`repro.obs`); ``--profile`` prints each file's solver
phase table, rendered from those same spans.

Exit status: 0 on success (for ``verify``: even with warnings, since
verification "only affects warnings given to the programmer"); 1 on
per-file failures — compile errors or unreadable files (with several
files: if any file failed) — the same in text and JSON mode; 2 on bad
usage, including a non-positive ``--budget``, ``--jobs``, or
``--task-timeout`` and invalid option combinations; 130 when interrupted (Ctrl-C), after cancelling any
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
    """The outcome store's location: flag, then env, then the default.

    An empty value, ``--cache-dir ""`` or ``REPRO_CACHE_DIR=""``,
    disables the store, as ``--no-cache`` does: falling through to the
    default directory would write exactly what someone passing an empty
    value was trying to avoid.
    """
    if args.no_cache:
        return None
    value = args.cache_dir
    if value is None:
        value = os.environ.get("REPRO_CACHE_DIR")
    if value is not None:
        return value or None
    from .verify.store import DEFAULT_CACHE_DIR

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
    options = api.VerifyOptions(
        budget=args.budget,
        jobs=jobs,
        cache_dir=_cache_dir(args),
        task_timeout=args.task_timeout,
    )
    # Validate before either path runs, so a bad flag exits 2 with or
    # without --daemon (and never spawns a daemon).
    try:
        options.validate()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.daemon:
        from .verify.daemon import DaemonError

        try:
            entries = _daemon_entries(args)
        except DaemonError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    else:
        entries = _local_entries(args, options)
    from .metrics.solver_stats import format_stats

    json_mode = args.format == "json"
    documents: list[dict] = []
    status = 0
    several = len(args.files) > 1
    for entry, profile in entries:
        if several and not json_mode:
            print(f"{entry['path']}:")
        if "error" in entry:
            # Unreadable files and compile errors fail this file the
            # same way in both output modes: record it, exit 1.
            print(f"error: {entry['error']}", file=sys.stderr)
            status = 1
        if json_mode:
            documents.append(entry)
            continue
        report = entry.get("report")
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
        if args.stats:
            print(format_stats(report["solver_stats"]))
        if args.profile:
            print(profile)
    if json_mode:
        print(json.dumps({"files": documents}, indent=2))
    return status


def _local_entries(args: argparse.Namespace, options: api.VerifyOptions):
    """Verify each file in this process, yielding ``(entry, profile)``.

    ``entry`` is the file's ``--format json`` document; ``profile`` its
    ``--profile`` table, or None.  With ``--trace`` or ``--profile`` the
    CLI owns the tracer (and the run span), so several files yield one
    trace; each api.verify call records its file span into it.
    """
    from . import obs

    tracing = args.trace is not None or args.profile
    options.tracer = tracer = obs.Tracer() if tracing else obs.NULL_TRACER
    run_span = tracer.begin("run", "verify")
    try:
        for path in args.files:
            try:
                unit = api.compile_program(_read(path), filename=path)
            except (OSError, JMatchError) as exc:
                yield {"path": path, "error": str(exc)}, None
                continue
            report = api.verify(unit, options=options)
            profile = None
            if args.profile:
                file_span = run_span.children[-1]
                (profile,) = obs.format_profiles(obs.span_rows([file_span]))
            yield {"path": path, "report": report.to_dict()}, profile
    finally:
        if args.trace is not None:
            tracer.end(run_span)
            obs.write_jsonl(args.trace, tracer.roots)


def _format_warning(warning: dict) -> str:
    """Render one report-dict warning exactly as ``Warning.__str__``.

    Both paths print report *documents* (the daemon ships nothing
    else), so daemon and local text output are byte-identical.
    """
    text = (
        f"warning[{warning['kind']}] {warning['file']}:"
        f"{warning['line']}:{warning['column']}: {warning['message']}"
    )
    if warning.get("counterexample"):
        text += f"\n  counterexample: {warning['counterexample']}"
    return text


def _daemon_entries(args: argparse.Namespace) -> list:
    """:func:`_local_entries`' pairs from one request to a warm daemon.

    ``--jobs`` is ignored here — the daemon verifies warm-serial by
    design (its speed comes from the task outcomes it keeps, not a
    process pool) — as is ``--cache-dir``, which the daemon fixed
    at spawn time.
    """
    from .obs import format_profiles
    from .verify.daemon import ensure_daemon

    options = {
        "budget": args.budget,
        "task_timeout": args.task_timeout,
        "use_cache": not args.no_cache,
        "trace": args.trace is not None or args.profile,
    }
    with ensure_daemon(socket_path=args.socket) as client:
        result = client.verify(args.files, options)
    rows = result.get("trace", [])
    if args.trace is not None:
        with open(args.trace, "w", encoding="utf-8") as handle:
            for row in rows:
                handle.write(json.dumps(row, sort_keys=True) + "\n")
    # Only files that compiled have a file span (and a report).
    profiles = iter(format_profiles(rows))
    return [
        (entry, next(profiles, None) if "report" in entry else None)
        for entry in result["files"]
    ]


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
        "pool from the CPU count and task count (default: 1, serial); "
        "methods ship to workers in batches sized from the task and "
        "worker counts",
    )
    p_verify.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock limit per verification task (method); an "
        "obligation that overruns it is reported inconclusive instead "
        "of hanging the run (must be positive; default: no limit)",
    )
    p_verify.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="store of task outcomes, replayed for every method whose "
        "dependencies are unchanged (default: $REPRO_CACHE_DIR when set, "
        "else .repro-cache; an empty DIR or $REPRO_CACHE_DIR disables "
        "the store)",
    )
    p_verify.add_argument(
        "--daemon", action="store_true",
        help="verify through the warm daemon (spawning one if needed), "
        "which replays the kept outcome of every method whose "
        "dependencies are unchanged across invocations; --jobs/--cache-dir "
        "are ignored on this path (the daemon is warm-serial and owns "
        "its store)",
    )
    p_verify.add_argument(
        "--socket", default=None, metavar="PATH",
        help="daemon socket path for --daemon (default: "
        "$REPRO_DAEMON_SOCKET or a per-project path under the temp dir)",
    )
    p_verify.add_argument(
        "--stats", action="store_true",
        help="print per-method solver statistics and task accounting "
        "(retried, timed out, failed, replayed)",
    )
    p_verify.add_argument(
        "--profile", action="store_true",
        help="print per-method solver phase timers (encode / SAT / "
        "expand / theory / validate), read from the run's trace spans",
    )
    p_verify.add_argument(
        "--no-cache", action="store_true",
        help="verify every method: replay no kept task outcome (no "
        "outcome store; with --daemon, nothing from the daemon's memory)",
    )
    p_verify.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write the run's span tree (files, tasks, obligations, SMT "
        "queries with verdicts and phase timers) to FILE as JSONL",
    )
    p_verify.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format: 'text' (default, the historical output) or "
        "'json' (one machine-readable document covering all files)",
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
        help="store of task outcomes the daemon reads and writes, so a "
        "fresh daemon starts warm (default: $REPRO_CACHE_DIR when set, "
        "else .repro-cache; an empty DIR or $REPRO_CACHE_DIR disables "
        "the store)",
    )
    p_serve.add_argument(
        "--no-cache", action="store_true",
        help="run a daemon that replays no task outcome, from its memory "
        "or a store: every request verifies every method",
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
