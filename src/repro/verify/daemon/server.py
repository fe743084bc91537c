"""The verification daemon: dependency-aware re-verify from memory.

One daemon process serves many ``verify`` requests over a Unix domain
socket (or stdio) and keeps task *outcomes* between them in one
:class:`~repro.verify.store.OutcomeTable`, held for its whole life and
under the ``--cache-dir`` store's policy; it keeps no SMT query cache.
It also keeps, per path, the parsed top-level declarations of that
path's last compile (:class:`~repro.lang.incremental.DeclarationMemo`),
so a request re-parses only the declarations whose text, first line or
file-wide type names changed, through the same ``tokenize``,
``Parser.parse_program`` and ``api.analyze`` as ``api.compile_program``.
A re-``verify`` of an edited file re-runs only the tasks whose
dependency fingerprints (:mod:`repro.verify.daemon.index`) changed, or
that the index cannot fingerprint (``dep-miss``), and replays the kept
outcome for the rest (``dep-hit``): an undone edit replays, and a task
that failed or stayed inconclusive runs again.  With a ``cache_dir``
the table writes and reads through to the store, so a fresh daemon
starts warm.  Each file goes through
:func:`repro.verify.parallel.verify_tasks` with ``jobs=1``.  A daemon
made with ``use_cache=False`` (``repro serve --no-cache``), or a
request with ``use_cache`` false (``verify --daemon --no-cache``),
replays nothing.  ``invalidate`` drops the named files' outcomes and
declarations from memory, a ``verify`` of a path that no longer exists
drops the same, and each request drops the outcomes of a file's tasks
that no longer exist, so the memory holds the live files' and tasks'
state only.

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
``revalidate`` event (dep-hit/dep-miss counts, the declarations
parsed and reused: ``decls_parsed``/``decls_reused``, and the task
roots the index took from a kept chunk: ``renders_reused``) and one
``task`` span per task tagged with a ``dep-hit`` or ``dep-miss`` event.  With
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

from ... import api
from ...errors import JMatchError
from ...lang.incremental import DeclarationMemo
from ...obs import NULL_TRACER, Tracer
from ...obs.sink import span_rows
from ..parallel import TaskReuse, verify_tasks
from ..store import OutcomeTable
from ..verifier import iter_tasks
from . import protocol
from .index import fingerprint_tasks, renders_reused


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
        #: every task outcome the daemon keeps, for its whole life, and
        #: with a ``cache_dir`` in the store there too
        self.outcomes = OutcomeTable(cache_dir)
        #: absolute path -> {"tasks", "verified_at"} of each file a
        #: replaying request verified
        self.files: dict[str, dict] = {}
        #: absolute path -> the chunks of that path's last compile
        self.declarations: dict[str, DeclarationMemo] = {}
        self.started = time.time()
        #: the version of the code this daemon runs, taken now: the
        #: sources may change on disk while it serves
        self.version = protocol.daemon_version()
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
            "version": self.version,
            "protocol": protocol.PROTOCOL_VERSION,
            "uptime_s": time.time() - self.started,
            "requests": self.requests_served,
            "dep_hits": self.dep_hits,
            "dep_misses": self.dep_misses,
            "files": dict(sorted(self.files.items())),
        }

    def _op_invalidate(self, request_id, request: dict) -> dict:
        paths = request.get("paths")
        if paths is None:
            dropped = len(self.files)
            self.files.clear()
            self.declarations.clear()
            self.outcomes.forget()
        elif isinstance(paths, list) and all(
            isinstance(p, str) for p in paths
        ):
            dropped = self._forget({os.path.abspath(path) for path in paths})
        else:
            return protocol.error_response(
                request_id, protocol.ERROR_INVALID_PARAMS,
                "invalidate paths must be a list of strings",
            )
        return protocol.ok_response(request_id, {"invalidated": dropped})

    def _forget(self, targets: set[str]) -> int:
        """Drop what memory keeps for these absolute paths; the number
        of them that had a ``files`` entry."""
        for path in targets:
            self.declarations.pop(path, None)
        self.outcomes.forget(
            lambda identity: os.path.abspath(identity[0]) in targets
        )
        return sum(self.files.pop(path, None) is not None for path in targets)

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
                    path, options, replay, tracer
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
        replay: bool,
        tracer,
    ) -> tuple[dict, int, int]:
        """Verify one path against the kept outcomes; a CLI-shaped entry.

        The returned entry matches ``verify --format json`` exactly
        (``{"path", "report"}`` or ``{"path", "error"}``), so daemon and
        CLI reports are the same document.  Without ``replay`` every
        task runs, and the kept outcomes are neither read nor changed.
        """
        try:
            with open(path, encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            if isinstance(exc, FileNotFoundError):
                self._forget({os.path.abspath(path)})
            return {"path": path, "error": str(exc)}, 0, 0
        try:
            unit, memo = self._compile(path, source)
        except JMatchError as exc:
            return {"path": path, "error": str(exc)}, 0, 0
        table = unit.table
        tasks = list(iter_tasks(table))
        reuse = None
        if replay:
            reuse = TaskReuse(
                self.outcomes, unit.filename,
                fingerprint_tasks(table, tasks, memo.chunks.values()), options,
            )
        with tracer.span("file", path):
            report = verify_tasks(table, tasks, options, tracer, 1, reuse)
            hits = report.solver_stats.tasks_replayed
            misses = len(tasks) - hits
            tracer.event(
                "revalidate", dep_hits=hits, dep_misses=misses,
                decls_parsed=memo.parsed, decls_reused=memo.reused,
                renders_reused=renders_reused(table),
            )
        if replay:
            # Memory keeps the live tasks' outcomes only; the store, if
            # any, keeps a renamed or deleted method's on disk.
            labels = {task.label for task in tasks}
            self.outcomes.forget(
                lambda identity: identity[0] == unit.filename
                and identity[1] not in labels
            )
            self.files[os.path.abspath(path)] = {
                "tasks": len(tasks),
                "verified_at": time.time(),
            }
        return {"path": path, "report": report.to_dict()}, hits, misses

    def _compile(
        self, path: str, source: str
    ) -> tuple[api.CompiledUnit, DeclarationMemo]:
        """What ``api.compile_program(source, filename=path)`` gives,
        parsing only the declarations the path's last compile does not
        hold; also the path's memo."""
        key = os.path.abspath(path)
        memo = self.declarations.get(key)
        if memo is None or memo.filename != path:
            memo = self.declarations[key] = DeclarationMemo(path)
        program = memo.parse(source)
        try:
            table = api.analyze(program)
        except JMatchError:
            # Analysis may have rewritten any of the trees.
            del self.declarations[key]
            raise
        memo.settle(table.rewritten)
        return api.CompiledUnit(program, table, path), memo

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
