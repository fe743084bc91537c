"""The verification daemon: warm state + dependency-aware re-verify.

One daemon process serves many ``verify`` requests over a Unix domain
socket (or stdio), and everything expensive stays hot between them:

* the in-memory :class:`~repro.smt.cache.SolverCache` (optionally in
  front of the shared disk tier) — the 3.3× warm-cache lever that a
  cold CLI invocation pays for from scratch every time;
* the pattern-algebra signature memos
  (:func:`repro.verify.tiered.warm_algebra`), pre-built per compiled
  table;
* per-task *outcomes* keyed by dependency fingerprint
  (:mod:`repro.verify.daemon.index`): a re-``verify`` of an edited file
  re-runs only the tasks whose fingerprints changed (``dep-miss``) and
  replays the cached outcome for the rest (``dep-hit``), falling back
  to a full re-run for any task the index cannot fingerprint.

Requests are handled one at a time under a lock — verification is
CPU-bound pure Python, so request-level concurrency would only
interleave progress — but each connection gets its own reader thread
and its own response stream, so two clients never see each other's
responses.  Per-task deadlines inside those handler threads cannot use
``SIGALRM`` (worker threads are not the main thread); the pipeline's
soft-deadline fallback covers them and surfaces the degradation on
``VerifyStats.deadlines_degraded`` (see
:func:`repro.verify.parallel.task_deadline`).

Observability: every request runs under a ``run``-kind span named
``request`` with one ``file`` span per path; each file span carries a
``revalidate`` event (dep-hit/dep-miss counts) and one ``task`` span
per task tagged with a ``dep-hit`` or ``dep-miss`` event.  With
``serve --trace FILE`` the rows append to FILE per request; a client
may also ask for the rows in its response (``"trace": true``).
"""

from __future__ import annotations

import os
import socket
import threading
import time
from dataclasses import dataclass, field

from ... import api
from ...errors import JMatchError
from ...obs import NULL_TRACER, Tracer
from ...obs.sink import span_rows
from ..parallel import (
    _failed_outcome,
    build_cache,
    merge_outcomes,
    run_one_task,
    TaskOutcome,
)
from ..verifier import VerifyTask, iter_tasks
from . import protocol
from .index import fingerprint_tasks


@dataclass
class _TaskEntry:
    """One cached task outcome plus the fingerprint that justifies it."""

    fingerprint: str
    outcome: TaskOutcome


@dataclass
class _FileState:
    """Everything the daemon remembers about one verified path."""

    options_sig: str
    entries: dict[VerifyTask, _TaskEntry] = field(default_factory=dict)
    verified_at: float = 0.0
    tasks: int = 0


#: ``verify`` request options the daemon honors, with defaults; every
#: one maps onto the same-named VerifyOptions field except the daemon
#: extras (dep_index / stats / profile / trace)
_VERIFY_OPTION_DEFAULTS = {
    "budget": None,
    "tier": "auto",
    "task_timeout": None,
    "use_cache": True,
    "dep_index": True,
    "stats": False,
    "profile": False,
    "trace": False,
}


def _options_signature(opts: dict) -> str:
    """The part of a request's options that cached outcomes depend on.

    ``stats``/``profile`` only change rendering and ``dep_index`` only
    changes reuse policy; everything else (including ``trace`` — an
    outcome recorded without spans cannot serve a traced request)
    participates, so changing e.g. the tier flushes the outcome cache
    instead of replaying verdicts produced under different rules.
    """
    keys = ("budget", "tier", "task_timeout", "use_cache", "trace")
    return repr([(k, opts[k]) for k in keys])


class VerifyDaemon:
    """The daemon's state machine, transport-agnostic.

    :meth:`handle_request` implements the protocol ops against the warm
    state; :meth:`serve_socket` / :meth:`serve_stdio` are thin
    transports over it.
    """

    def __init__(
        self,
        cache_dir: str | None = None,
        use_cache: bool = True,
        trace_path: str | None = None,
    ):
        self.lock = threading.RLock()
        self.cache = build_cache(use_cache, cache_dir)
        self.use_cache = use_cache
        self.files: dict[str, _FileState] = {}
        self.started = time.time()
        self.requests_served = 0
        self.dep_hits = 0
        self.dep_misses = 0
        self.trace_path = trace_path
        self._trace_rows_written = 0
        self.shutdown_event = threading.Event()
        self._listener: socket.socket | None = None

    # -- request dispatch ----------------------------------------------

    def handle_line(self, line: str) -> dict:
        """One request line in, one response object out (never raises)."""
        request, error = protocol.parse_request(line)
        if error is not None:
            return error
        request_id = request.get("id")
        try:
            return self.handle_request(request)
        except Exception as exc:  # the daemon must outlive its handlers
            return protocol.error_response(
                request_id, protocol.ERROR_INTERNAL,
                f"{type(exc).__name__}: {exc}",
            )

    def handle_request(self, request: dict) -> dict:
        request_id = request.get("id")
        op = request["op"]
        with self.lock:
            if op == "verify":
                return self._op_verify(request_id, request)
            if op == "status":
                return protocol.ok_response(request_id, self._status())
            if op == "invalidate":
                return self._op_invalidate(request_id, request)
            # shutdown: acknowledge first, then stop accepting
            self.shutdown_event.set()
            return protocol.ok_response(request_id, {"shutting_down": True})

    # -- ops -----------------------------------------------------------

    def _status(self) -> dict:
        return {
            "pid": os.getpid(),
            "version": protocol.daemon_version(),
            "protocol": protocol.PROTOCOL_VERSION,
            "uptime_s": time.time() - self.started,
            "requests": self.requests_served,
            "dep_hits": self.dep_hits,
            "dep_misses": self.dep_misses,
            "files": {
                path: {
                    "tasks": state.tasks,
                    "verified_at": state.verified_at,
                }
                for path, state in sorted(self.files.items())
            },
        }

    def _op_invalidate(self, request_id, request: dict) -> dict:
        paths = request.get("paths")
        if paths is None:
            dropped = len(self.files)
            self.files.clear()
        elif isinstance(paths, list) and all(
            isinstance(p, str) for p in paths
        ):
            dropped = 0
            for path in paths:
                if self.files.pop(os.path.abspath(path), None) is not None:
                    dropped += 1
        else:
            return protocol.error_response(
                request_id, protocol.ERROR_INVALID_PARAMS,
                "invalidate paths must be a list of strings",
            )
        return protocol.ok_response(request_id, {"invalidated": dropped})

    def _op_verify(self, request_id, request: dict) -> dict:
        paths = request.get("paths")
        if not isinstance(paths, list) or not paths or not all(
            isinstance(p, str) for p in paths
        ):
            return protocol.error_response(
                request_id, protocol.ERROR_INVALID_PARAMS,
                "verify needs a non-empty 'paths' list of strings",
            )
        raw = request.get("options")
        if raw is None:
            raw = {}
        if not isinstance(raw, dict):
            return protocol.error_response(
                request_id, protocol.ERROR_INVALID_PARAMS,
                "verify 'options' must be an object",
            )
        unknown = sorted(set(raw) - set(_VERIFY_OPTION_DEFAULTS))
        if unknown:
            return protocol.error_response(
                request_id, protocol.ERROR_INVALID_PARAMS,
                f"unknown verify options: {', '.join(unknown)}",
            )
        opts = dict(_VERIFY_OPTION_DEFAULTS)
        opts.update(raw)
        try:
            api.VerifyOptions(
                budget=opts["budget"],
                tier=opts["tier"],
                task_timeout=opts["task_timeout"],
            ).validate()
        except (TypeError, ValueError) as exc:
            return protocol.error_response(
                request_id, protocol.ERROR_INVALID_PARAMS, str(exc)
            )
        self.requests_served += 1
        tracing = bool(opts["trace"]) or self.trace_path is not None
        tracer = Tracer() if tracing else NULL_TRACER
        request_span = (
            tracer.begin("run", "request", op="verify") if tracing else None
        )
        files = []
        status = 0
        hits = misses = 0
        try:
            for path in paths:
                entry, file_hits, file_misses = self._verify_file(
                    path, opts, tracer
                )
                files.append(entry)
                hits += file_hits
                misses += file_misses
                if "error" in entry:
                    status = 1
        finally:
            if tracing:
                tracer.end(request_span)
        self.dep_hits += hits
        self.dep_misses += misses
        result = {
            "files": files,
            "status": status,
            "dep_hits": hits,
            "dep_misses": misses,
        }
        if tracing:
            rows = span_rows(tracer.roots)
            if self.trace_path is not None:
                self._append_trace(rows)
            if opts["trace"]:
                result["trace"] = rows
        return protocol.ok_response(request_id, result)

    # -- the warm verification path ------------------------------------

    def _verify_file(
        self, path: str, opts: dict, tracer
    ) -> tuple[dict, int, int]:
        """Verify one path against the warm state; a CLI-shaped entry.

        The returned entry matches ``verify --format json`` exactly
        (``{"path", "report"}`` or ``{"path", "error"}``, with both on
        a tier-check failure), so daemon and CLI reports are the same
        document.
        """
        abspath = os.path.abspath(path)
        try:
            with open(path, encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            return {"path": path, "error": str(exc)}, 0, 0
        try:
            unit = api.compile_program(source, filename=path)
        except JMatchError as exc:
            return {"path": path, "error": str(exc)}, 0, 0
        table = unit.table
        if opts["tier"] != "smt-only":
            from ..tiered import warm_algebra

            warm_algebra(table)
        tasks = list(iter_tasks(table))
        fingerprints = (
            fingerprint_tasks(table, tasks)
            if opts["dep_index"]
            else {task: None for task in tasks}
        )
        options_sig = _options_signature(opts)
        state = self.files.get(abspath)
        if state is None or state.options_sig != options_sig:
            state = _FileState(options_sig)
        cache = self.cache if opts["use_cache"] else None
        tracing = tracer.enabled
        start = time.perf_counter()
        outcomes: list[TaskOutcome] = []
        hits = misses = 0
        with tracer.span("file", path) if tracing else _null_ctx():
            for task in tasks:
                fingerprint = fingerprints.get(task)
                previous = state.entries.get(task)
                if (
                    fingerprint is not None
                    and previous is not None
                    and previous.fingerprint == fingerprint
                ):
                    hits += 1
                    outcome = previous.outcome
                    if tracing:
                        tracer.attach(_hit_span(task, outcome))
                else:
                    misses += 1
                    try:
                        outcome = run_one_task(
                            table, task, opts["budget"], cache,
                            opts["task_timeout"], tracing, opts["tier"],
                        )
                    except Exception as exc:
                        outcome = _failed_outcome(table, task, exc, tracing)
                    if tracing:
                        if outcome.trace is not None:
                            outcome.trace.event("dep-miss")
                        tracer.attach(outcome.trace)
                    if fingerprint is not None:
                        state.entries[task] = _TaskEntry(fingerprint, outcome)
                    else:
                        state.entries.pop(task, None)
                outcomes.append(outcome)
            if tracing:
                tracer.event("revalidate", dep_hits=hits, dep_misses=misses)
        # Drop entries for tasks that no longer exist in the source.
        live = set(tasks)
        for stale in [key for key in state.entries if key not in live]:
            del state.entries[stale]
        state.verified_at = time.time()
        state.tasks = len(tasks)
        self.files[abspath] = state
        report = merge_outcomes(outcomes, time.perf_counter() - start)
        report.solver_stats.parallel_decision = (
            f"daemon: warm serial over {len(tasks)} tasks "
            f"({hits} dep hits, {misses} dep misses)"
        )
        entry: dict = {"path": path, "report": report.to_dict()}
        if opts["tier"] == "check" and report.solver_stats.tier_mismatches:
            # Mirror api.verify's TierMismatchError contract: the report
            # is still delivered, but the file fails.
            entry["error"] = (
                f"tier check failed: the pattern algebra and SMT disagreed "
                f"on {report.solver_stats.tier_mismatches} obligation(s); "
                f"see the report's tier-mismatch warnings"
            )
        if opts["stats"]:
            entry["stats_text"] = report.solver_stats.format_table()
        if opts["profile"]:
            entry["profile_text"] = report.solver_stats.format_profile()
        return entry, hits, misses

    def _append_trace(self, rows: list[dict]) -> None:
        from ...obs.sink import append_jsonl

        self._trace_rows_written += append_jsonl(
            self.trace_path, rows, start_id=self._trace_rows_written
        )

    # -- transports ----------------------------------------------------

    def serve_stdio(self, stdin=None, stdout=None) -> None:
        """Serve NDJSON over stdio until EOF or a ``shutdown``."""
        import sys

        stdin = stdin if stdin is not None else sys.stdin
        stdout = stdout if stdout is not None else sys.stdout
        for line in stdin:
            if not line.strip():
                continue
            response = self.handle_line(line)
            stdout.write(protocol.encode(response).decode("utf-8"))
            stdout.flush()
            if self.shutdown_event.is_set():
                break

    def serve_socket(self, socket_path: str) -> None:
        """Bind ``socket_path`` and serve until a ``shutdown`` request.

        A leftover socket file from a dead daemon (machine crash, kill
        -9) is detected by attempting to connect: refusal means stale,
        so the file is replaced; an answer means another daemon owns
        this path and this one refuses to start.
        """
        if os.path.exists(socket_path):
            if _socket_alive(socket_path):
                raise RuntimeError(
                    f"another daemon is already serving {socket_path}"
                )
            os.unlink(socket_path)
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            listener.bind(socket_path)
            listener.listen(16)
            listener.settimeout(0.2)
            self._listener = listener
            threads: list[threading.Thread] = []
            while not self.shutdown_event.is_set():
                try:
                    connection, _ = listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                thread = threading.Thread(
                    target=self._serve_connection,
                    args=(connection,),
                    daemon=True,
                )
                thread.start()
                threads.append(thread)
            for thread in threads:
                thread.join(timeout=2.0)
        finally:
            self._listener = None
            listener.close()
            try:
                os.unlink(socket_path)
            except OSError:
                pass

    def _serve_connection(self, connection: socket.socket) -> None:
        try:
            reader = connection.makefile("r", encoding="utf-8")
            for line in reader:
                if not line.strip():
                    continue
                response = self.handle_line(line)
                try:
                    connection.sendall(protocol.encode(response))
                except OSError:
                    return  # client went away mid-response
                if self.shutdown_event.is_set():
                    return
        except (OSError, ValueError):
            pass  # a dropped connection is the client's business
        finally:
            try:
                connection.close()
            except OSError:
                pass


class _null_ctx:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


def _hit_span(task: VerifyTask, outcome: TaskOutcome):
    """The synthetic span replayed for a dep-hit task.

    The cached outcome's own span tree (if any) describes the *original*
    run; a hit did no work, so it gets a fresh zero-work task span
    tagged ``dep-hit`` instead of replaying stale timings.
    """
    from ...obs import Span

    span = Span("task", task.label, attrs={"kind": task.kind})
    span.event("dep-hit", warnings=len(outcome.warnings))
    return span


def _socket_alive(socket_path: str) -> bool:
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    probe.settimeout(1.0)
    try:
        probe.connect(socket_path)
        return True
    except OSError:
        return False
    finally:
        probe.close()
