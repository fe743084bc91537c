"""The verification daemon: dependency-aware re-verify from memory.

One daemon process serves many ``verify`` requests over a Unix domain
socket (or stdio) and keeps per-task *outcomes* between them, keyed by
dependency fingerprint (:mod:`repro.verify.daemon.index`).  That is
its only reuse; it keeps no SMT query cache.  A re-``verify`` of an
edited file re-runs only the tasks whose fingerprints changed
(``dep-miss``) and replays the kept outcome for the rest (``dep-hit``),
falling back to a full re-run for any task the index cannot
fingerprint.  The last few fingerprints of each task are kept, not
only the latest, so reverting an edit (an editor's undo) replays too.
This is :class:`repro.verify.parallel.TaskReuse` over
:func:`repro.verify.parallel.run_serial`, the task loop every driver
shares, backed by the daemon's per-file memory and, when the daemon
has a ``cache_dir``, by the on-disk store of
:mod:`repro.verify.store`, so a fresh daemon starts warm.  A daemon
made with ``use_cache=False`` (``repro serve --no-cache``), or a
request with the ``use_cache`` option false (``verify --daemon
--no-cache``), replays nothing and verifies every task.

Every connection is served from the thread that calls
:meth:`VerifyDaemon.serve_socket`, through one ``selectors`` loop:
requests run one at a time in arrival order (verification is CPU-bound
pure Python, so request-level concurrency would only interleave
progress), and each response goes back on the connection that asked,
so two clients never see each other's responses.  Under ``repro
serve`` that thread is the main thread, so a request's per-task
deadline (``task_timeout``) is the real ``SIGALRM`` alarm of
:func:`repro.verify.parallel.task_deadline`, and a hung task is cut
off like anywhere else.  A daemon served from another thread rejects
``task_timeout`` (:meth:`~repro.verify.options.VerifyOptions.validate`).

Observability: every request runs under a ``run``-kind span named
``request`` with one ``file`` span per path; each file span carries a
``revalidate`` event (dep-hit/dep-miss counts) and one ``task`` span
per task tagged with a ``dep-hit`` or ``dep-miss`` event.  With
``serve --trace FILE`` the rows append to FILE per request; a client
may also ask for the rows in its response (``"trace": true``), which
is how ``verify --daemon --profile`` gets its phase table.  The daemon
renders no text: a response carries report documents and span rows,
and the CLI prints both paths' output through one printer.
"""

from __future__ import annotations

import os
import selectors
import socket
import time
from dataclasses import dataclass, field

from ... import api
from ...errors import JMatchError
from ...obs import NULL_TRACER, Tracer
from ...obs.sink import span_rows
from ..parallel import (
    TaskOutcome,
    TaskReuse,
    merge_outcomes,
    options_signature,
    run_serial,
)
from ..store import OutcomeStore
from ..verifier import VerifyTask, iter_tasks
from . import protocol
from .index import fingerprint_tasks


#: how many (fingerprint, outcome) pairs the daemon keeps per task:
#: enough that undoing the last few edits replays instead of re-running
_KEPT_PER_TASK = 4


@dataclass
class _FileState:
    """Everything the daemon remembers about one verified path.

    ``entries`` (task -> [(fingerprint, outcome), ...], newest first,
    at most :data:`_KEPT_PER_TASK`) is the memory backing of the file's
    :class:`~repro.verify.parallel.TaskReuse`.  Keeping earlier
    fingerprints too means a reverted edit replays its task like any
    other dep hit.
    """

    options_sig: str
    entries: dict[VerifyTask, list] = field(default_factory=dict)
    verified_at: float = 0.0
    tasks: int = 0

    def get(self, task: VerifyTask, fingerprint: str) -> TaskOutcome | None:
        for kept, outcome in self.entries.get(task, ()):
            if kept == fingerprint:
                return outcome
        return None

    def put(self, task: VerifyTask, fingerprint, outcome) -> None:
        if fingerprint is None:
            self.entries.pop(task, None)
            return
        kept = [(fingerprint, outcome)] + [
            entry for entry in self.entries.get(task, ())
            if entry[0] != fingerprint
        ]
        self.entries[task] = kept[:_KEPT_PER_TASK]


#: ``verify`` request options the daemon honors, with defaults:
#: ``budget`` and ``task_timeout`` map onto the same-named
#: VerifyOptions fields, ``use_cache`` false replays no kept task
#: outcome, and ``trace`` ships the request's span rows back in the
#: response
_VERIFY_OPTION_DEFAULTS = {
    "budget": None,
    "task_timeout": None,
    "use_cache": True,
    "trace": False,
}


#: seconds a response may take to drain into a client's socket: one
#: thread serves every client, so one that stops reading must not stall
#: the rest for longer than this
_SEND_TIMEOUT_S = 30.0


class VerifyDaemon:
    """The daemon's state machine, transport-agnostic.

    :meth:`handle_request` implements the protocol ops against the kept
    outcomes; :meth:`serve_socket` / :meth:`serve_stdio` are thin
    transports over it.
    """

    def __init__(
        self,
        cache_dir: str | None = None,
        use_cache: bool = True,
        trace_path: str | None = None,
    ):
        #: whether requests replay kept task outcomes at all
        self.use_cache = use_cache
        #: the outcome store's directory (None: outcomes stay in memory)
        self.cache_dir = cache_dir
        self.files: dict[str, _FileState] = {}
        self.started = time.time()
        self.requests_served = 0
        self.dep_hits = 0
        self.dep_misses = 0
        self.trace_path = trace_path
        self._trace_rows_written = 0
        #: set by a ``shutdown`` request; the transports stop serving
        self.shutting_down = False

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
        if op == "verify":
            return self._op_verify(request_id, request)
        if op == "status":
            return protocol.ok_response(request_id, self._status())
        if op == "invalidate":
            return self._op_invalidate(request_id, request)
        # shutdown: acknowledge first, then stop accepting
        self.shutting_down = True
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
        options = api.VerifyOptions(
            budget=opts["budget"], task_timeout=opts["task_timeout"]
        )
        try:
            options.validate()
        except (TypeError, ValueError) as exc:
            return protocol.error_response(
                request_id, protocol.ERROR_INVALID_PARAMS, str(exc)
            )
        options_sig = options_signature(options)
        replay = self.use_cache and bool(opts["use_cache"])
        self.requests_served += 1
        tracing = bool(opts["trace"]) or self.trace_path is not None
        tracer = Tracer() if tracing else NULL_TRACER
        files = []
        status = 0
        hits = misses = 0
        with tracer.span("run", "request", op="verify"):
            for path in paths:
                entry, file_hits, file_misses = self._verify_file(
                    path, options, options_sig, replay, tracer
                )
                files.append(entry)
                hits += file_hits
                misses += file_misses
                if "error" in entry:
                    status = 1
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
        self,
        path: str,
        options: api.VerifyOptions,
        options_sig: str,
        replay: bool,
        tracer,
    ) -> tuple[dict, int, int]:
        """Verify one path against the kept outcomes; a CLI-shaped entry.

        The returned entry matches ``verify --format json`` exactly
        (``{"path", "report"}`` or ``{"path", "error"}``), so daemon and
        CLI reports are the same document.  Without ``replay`` every
        task runs, and the kept outcomes are neither read nor changed.
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
        tasks = list(iter_tasks(table))
        reuse = None
        if replay:
            state = self.files.get(abspath)
            if state is None or state.options_sig != options_sig:
                state = _FileState(options_sig)
            backings = [state]
            if self.cache_dir is not None:
                backings.append(OutcomeStore(self.cache_dir, options_sig))
            reuse = TaskReuse(fingerprint_tasks(table, tasks), backings)
        start = time.perf_counter()
        with tracer.span("file", path):
            outcomes = run_serial(table, tasks, options, tracer, reuse)
            hits = 0 if reuse is None else reuse.replayed
            misses = len(tasks) - hits
            tracer.event("revalidate", dep_hits=hits, dep_misses=misses)
        if reuse is not None:
            # Drop entries for tasks that no longer exist in the source.
            live = set(tasks)
            for stale in [key for key in state.entries if key not in live]:
                del state.entries[stale]
            state.verified_at = time.time()
            state.tasks = len(tasks)
            self.files[abspath] = state
        report = merge_outcomes(outcomes, time.perf_counter() - start)
        report.solver_stats.tasks_replayed = hits
        report.solver_stats.parallel_decision = (
            f"daemon: warm serial over {len(tasks)} tasks "
            f"({hits} dep hits, {misses} dep misses)"
        )
        return {"path": path, "report": report.to_dict()}, hits, misses

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
            if self.shutting_down:
                break

    def serve_socket(self, socket_path: str) -> None:
        """Bind ``socket_path`` and serve until a ``shutdown`` request.

        A leftover socket file from a dead daemon (machine crash, kill
        -9) is detected by attempting to connect: refusal means stale,
        so the file is removed; an answer means another daemon owns
        this path and this one refuses to start.  The socket is bound
        under a private name in the same directory and linked to
        ``socket_path`` only once it listens, so a client that sees the
        path can always connect; the link fails if a daemon started
        alongside this one published first.  Connections are read as
        they become readable and their requests answered in order, all
        on this thread.
        """
        if os.path.exists(socket_path):
            if _socket_alive(socket_path):
                raise RuntimeError(
                    f"another daemon is already serving {socket_path}"
                )
            _unlink_quietly(socket_path)
        directory, name = os.path.split(socket_path)
        private_path = os.path.join(directory, f".{name}.{os.getpid()}")
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        selector = selectors.DefaultSelector()
        published = False
        try:
            _unlink_quietly(private_path)
            listener.bind(private_path)
            listener.listen(16)
            try:
                os.link(private_path, socket_path)
            except FileExistsError:
                raise RuntimeError(
                    f"another daemon is already serving {socket_path}"
                ) from None
            finally:
                _unlink_quietly(private_path)
            published = True
            selector.register(listener, selectors.EVENT_READ)
            while not self.shutting_down:
                # The timeout only bounds how late a ``shutting_down``
                # set from outside a request is noticed.
                for key, _ in selector.select(timeout=0.2):
                    if key.fileobj is listener:
                        connection, _ = listener.accept()
                        connection.settimeout(_SEND_TIMEOUT_S)
                        selector.register(
                            connection, selectors.EVENT_READ, bytearray()
                        )
                    elif not self._serve_readable(key.fileobj, key.data):
                        selector.unregister(key.fileobj)
                        key.fileobj.close()
                    if self.shutting_down:
                        break
        finally:
            for key in list(selector.get_map().values()):
                key.fileobj.close()
            selector.close()
            listener.close()
            _unlink_quietly(private_path)
            if published:
                _unlink_quietly(socket_path)

    def _serve_readable(
        self, connection: socket.socket, pending: bytearray
    ) -> bool:
        """Answer every complete request line ``connection`` has sent.

        ``pending`` holds the bytes of a line not yet complete.
        Returns False once the connection is done: closed by the
        client (a final unterminated line is still answered), or lost.
        """
        try:
            chunk = connection.recv(65536)
        except OSError:
            return False
        pending += chunk
        lines = pending.split(b"\n")
        if chunk:
            pending[:] = lines.pop()
        for line in lines:
            if not line.strip():
                continue
            response = self.handle_line(line.decode("utf-8", "replace"))
            try:
                connection.sendall(protocol.encode(response))
            except OSError:
                return False  # client went away mid-response
            if self.shutting_down:
                return False
        return bool(chunk)


def _unlink_quietly(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


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
