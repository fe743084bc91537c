"""The daemon wire protocol: newline-delimited JSON over a stream.

One request per line, one response per line, always in order.  The
format is deliberately primitive — any language (or a human with
``nc -U``) can speak it — and every malformed input produces a
*structured error response*, never a dropped connection, so an editor
plugin can treat the socket as a crash-only dependency.

Requests::

    {"id": 1, "op": "verify", "paths": ["a.jm"], "options": {...}}
    {"id": 2, "op": "status"}
    {"id": 3, "op": "invalidate", "paths": ["a.jm"]}   # omit paths: all
    {"id": 4, "op": "shutdown"}

Responses::

    {"id": 1, "ok": true, "result": {...}}
    {"id": 1, "ok": false, "error": {"code": "...", "message": "..."}}

``verify`` takes four options: the scalar
:class:`repro.api.VerifyOptions` fields that affect verdicts
(``budget``, ``task_timeout``), ``use_cache`` (false: replay no kept
task outcome, verify every task) and ``trace``, which ships the
request's span rows back in the response.  Any other option
key is rejected with ``invalid-params`` (protocol 6 dropped ``stats``,
``profile`` and ``dep_index``: the daemon renders no text, and
dependency-aware reuse is always on).  The result reuses
:meth:`~repro.verify.verifier.VerificationReport.to_dict` verbatim per
file, so daemon and CLI reports share one schema; the CLI renders
``--stats`` from that document and ``--profile`` from the span rows.

Error codes (``error.code``):

* ``parse-error`` — the line was not valid JSON (``id`` is null);
* ``invalid-request`` — valid JSON, but not an object with an ``op``;
* ``unknown-op`` — an ``op`` this daemon does not implement;
* ``invalid-params`` — a recognized ``op`` with unusable parameters;
* ``internal-error`` — the handler itself raised (the daemon stays up).

Version handshake: every ``status`` result carries
:func:`daemon_version`.  A client that sees a different version must
refuse the daemon, ask it to shut down, and re-spawn — a stale daemon
holding old code must never answer for new sources (the client does
exactly this, see :func:`repro.verify.daemon.client.ensure_daemon`).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

#: bump on any incompatible wire-format change
PROTOCOL_VERSION = 6

#: environment override for the daemon socket location
SOCKET_ENV = "REPRO_DAEMON_SOCKET"

#: test hook: overrides the build fingerprint so version-mismatch
#: handling can be exercised without actually changing the code
VERSION_ENV = "REPRO_DAEMON_VERSION"

ERROR_PARSE = "parse-error"
ERROR_INVALID_REQUEST = "invalid-request"
ERROR_UNKNOWN_OP = "unknown-op"
ERROR_INVALID_PARAMS = "invalid-params"
ERROR_INTERNAL = "internal-error"

#: the ops a server must implement
OPS = ("verify", "status", "invalidate", "shutdown")


def daemon_version() -> str:
    """The version string clients compare before trusting a daemon.

    Combines the wire protocol version with the report schema version:
    either changing makes an old daemon's answers unusable by a new
    client.  ``REPRO_DAEMON_VERSION`` overrides the whole string (tests
    use this to simulate a stale daemon).
    """
    override = os.environ.get(VERSION_ENV)
    if override:
        return override
    from ..verifier import REPORT_SCHEMA_VERSION

    return f"repro-daemon/{PROTOCOL_VERSION}.{REPORT_SCHEMA_VERSION}"


def default_socket_path(cwd: str | None = None) -> str:
    """Where the daemon listens when no ``--socket`` is given.

    Unix socket paths are length-limited (~108 bytes), so the socket
    lives in the temp directory, keyed by uid and a digest of the
    working directory — each project gets its own daemon, and two
    users on one machine never collide.  ``REPRO_DAEMON_SOCKET``
    overrides the whole computation.
    """
    override = os.environ.get(SOCKET_ENV)
    if override:
        return override
    cwd = cwd or os.getcwd()
    digest = hashlib.sha256(cwd.encode("utf-8")).hexdigest()[:12]
    uid = os.getuid() if hasattr(os, "getuid") else 0
    return os.path.join(
        tempfile.gettempdir(), f"repro-daemon-{uid}-{digest}.sock"
    )


def encode(message: dict) -> bytes:
    """One message as one line of UTF-8 JSON."""
    return (json.dumps(message, sort_keys=True) + "\n").encode("utf-8")


def ok_response(request_id, result: dict) -> dict:
    return {"id": request_id, "ok": True, "result": result}


def error_response(request_id, code: str, message: str) -> dict:
    return {
        "id": request_id,
        "ok": False,
        "error": {"code": code, "message": message},
    }


def parse_request(line: str) -> tuple[dict | None, dict | None]:
    """Decode one request line; returns ``(request, error_response)``.

    Exactly one of the pair is non-None.  Anything that is not a JSON
    object carrying a string ``op`` from :data:`OPS` is rejected with a
    structured error (carrying the request's ``id`` when one could be
    recovered), never an exception — a daemon must survive any bytes a
    confused client throws at it.
    """
    try:
        message = json.loads(line)
    except ValueError as exc:
        return None, error_response(None, ERROR_PARSE, f"bad JSON: {exc}")
    if not isinstance(message, dict):
        return None, error_response(
            None, ERROR_INVALID_REQUEST, "request must be a JSON object"
        )
    request_id = message.get("id")
    if not isinstance(request_id, (int, str, type(None))):
        request_id = None
    op = message.get("op")
    if not isinstance(op, str):
        return None, error_response(
            request_id, ERROR_INVALID_REQUEST, "request needs a string 'op'"
        )
    if op not in OPS:
        return None, error_response(
            request_id, ERROR_UNKNOWN_OP,
            f"unknown op {op!r}; expected one of {', '.join(OPS)}",
        )
    return message, None
