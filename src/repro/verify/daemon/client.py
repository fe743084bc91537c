"""The daemon client: connect, auto-spawn, and never trust stale code.

:class:`DaemonClient` speaks the NDJSON protocol over a Unix socket.
:func:`ensure_daemon` is the CLI's entry point: it returns a client
connected to a *healthy, version-matched* daemon at a socket path,
going through the failure ladder so callers never have to:

* nothing listening (no socket file, or a leftover file from a daemon
  that died without unlinking) → remove the stale file, spawn a fresh
  daemon (``python -m repro.cli serve``, detached), and poll-connect;
* something listening but built from different code (the ``status``
  handshake reports a different :func:`~.protocol.daemon_version`) →
  ask it to shut down, wait for the socket to clear, re-spawn.  A stale
  daemon holding old verification code must never answer for new
  sources — wrong verdicts with a fast path are worse than no daemon.

Spawning is opt-in (``spawn=True``); ``repro verify --daemon`` passes
it, tests that want to manage the server themselves do not.
"""

from __future__ import annotations

import os
import socket
import sys
import time

from . import protocol


class DaemonError(Exception):
    """A structured error response, or a transport-level failure.

    ``code`` is one of the protocol error codes when the daemon itself
    rejected the request, or ``"connection"`` for transport failures.
    """

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


class DaemonClient:
    """One connection to a daemon; requests are issued sequentially."""

    def __init__(self, socket_path: str, timeout: float | None = None):
        self.socket_path = socket_path
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self._sock.settimeout(timeout)
            self._sock.connect(socket_path)
        except BaseException:
            self._sock.close()
            raise
        self._reader = self._sock.makefile("r", encoding="utf-8")
        self._next_id = 1

    def request(self, op: str, **params) -> dict:
        """Send one request; return its ``result`` or raise DaemonError."""
        request_id = self._next_id
        self._next_id += 1
        message = {"id": request_id, "op": op, **params}
        try:
            self._sock.sendall(protocol.encode(message))
            line = self._reader.readline()
        except OSError as exc:
            raise DaemonError("connection", str(exc)) from exc
        if not line:
            raise DaemonError(
                "connection", "daemon closed the connection mid-request"
            )
        import json

        response = json.loads(line)
        if not response.get("ok"):
            error = response.get("error") or {}
            raise DaemonError(
                error.get("code", "internal-error"),
                error.get("message", "daemon returned a malformed error"),
            )
        return response["result"]

    def verify(self, paths: list[str], options: dict | None = None) -> dict:
        return self.request("verify", paths=paths, options=options or {})

    def status(self) -> dict:
        return self.request("status")

    def invalidate(self, paths: list[str] | None = None) -> dict:
        if paths is None:
            return self.request("invalidate")
        return self.request("invalidate", paths=paths)

    def shutdown(self) -> dict:
        return self.request("shutdown")

    def close(self) -> None:
        try:
            self._reader.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "DaemonClient":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


def spawn_daemon(socket_path: str) -> int:
    """Start a detached ``repro serve`` bound to ``socket_path``; its pid.

    The child gets its own session (it must outlive this CLI process)
    and a PYTHONPATH that can import the same ``repro`` the client is
    running — the spawned daemon is by construction version-matched.
    It is spawned by pid, not as a ``subprocess.Popen``: a ``Popen``
    dropped while its child runs warns that the child is still running,
    and a daemon is meant to keep running.
    """
    import repro

    package_dir = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_dir if not existing
        else package_dir + os.pathsep + existing
    )
    return os.posix_spawn(
        sys.executable,
        [sys.executable, "-m", "repro.cli", "serve", "--socket", socket_path],
        env,
        file_actions=[
            (os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_RDWR, 0)
            for fd in (0, 1, 2)
        ],
        setsid=True,
    )


def _exit_status(pid: int) -> int | None:
    """The exit status of a spawned child that has exited, else None."""
    reaped, status = os.waitpid(pid, os.WNOHANG)
    return None if reaped == 0 else os.waitstatus_to_exitcode(status)


def _try_connect(socket_path: str, timeout: float) -> DaemonClient | None:
    try:
        return DaemonClient(socket_path, timeout=timeout)
    except OSError:
        return None


def ensure_daemon(
    socket_path: str | None = None,
    spawn: bool = True,
    spawn_wait: float = 15.0,
    request_timeout: float = 600.0,
) -> DaemonClient:
    """A client connected to a healthy daemon, spawning one if needed.

    Raises :class:`DaemonError` when no healthy daemon can be reached
    (and, with ``spawn=True``, none could be started in time).
    """
    socket_path = socket_path or protocol.default_socket_path()
    client = _try_connect(socket_path, request_timeout)
    if client is not None:
        client = _check_version(client, socket_path, spawn)
        if client is not None:
            return client
    elif not spawn:
        raise DaemonError(
            "connection", f"no daemon is listening on {socket_path}"
        )
    # Nothing healthy is listening.  A leftover socket file here is
    # stale (connect refused) or belonged to a just-shut-down daemon;
    # either way the file must go before a fresh daemon can bind.
    if os.path.exists(socket_path):
        probe = _try_connect(socket_path, 1.0)
        if probe is not None:
            probe.close()
        else:
            try:
                os.unlink(socket_path)
            except OSError:
                pass
    pid = spawn_daemon(socket_path)
    deadline = time.monotonic() + spawn_wait
    while time.monotonic() < deadline:
        client = _try_connect(socket_path, request_timeout)
        if client is not None:
            checked = _check_version(client, socket_path, spawn=False)
            if checked is not None:
                return checked
            break
        status = _exit_status(pid)
        if status is not None:
            raise DaemonError(
                "connection",
                f"spawned daemon exited with status {status} "
                f"before binding {socket_path}",
            )
        time.sleep(0.05)
    raise DaemonError(
        "connection",
        f"spawned a daemon but could not connect to {socket_path} "
        f"within {spawn_wait:g}s",
    )


def _check_version(
    client: DaemonClient, socket_path: str, spawn: bool
) -> DaemonClient | None:
    """Handshake; returns the client, or None after evicting a stale one."""
    try:
        status = client.status()
    except DaemonError:
        client.close()
        return None
    expected = protocol.daemon_version()
    if status.get("version") == expected:
        return client
    # Version mismatch: this daemon was built from different code.
    # Refuse it outright; with spawn permission, also evict it so the
    # caller's spawn path can put a matching one in its place.
    try:
        client.shutdown()
    except DaemonError:
        pass
    client.close()
    if not spawn:
        raise DaemonError(
            "version-mismatch",
            f"daemon at {socket_path} is {status.get('version')!r}, "
            f"client expects {expected!r}",
        )
    deadline = time.monotonic() + 5.0
    while os.path.exists(socket_path) and time.monotonic() < deadline:
        time.sleep(0.05)
    return None
