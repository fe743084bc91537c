"""The warm verification daemon (``repro serve`` / ``verify --daemon``).

A long-running server process that keeps task outcomes across
requests in one :class:`~repro.verify.store.OutcomeTable`, the same
table and policy as ``verify --cache-dir``, and replays each one while
the task's *dependency fingerprint* is unchanged, so re-verifying an
edited file re-runs only the obligations whose dependencies changed.
It keeps nothing else between requests: no SMT query cache and no
pattern-algebra memo.

The pieces:

* :mod:`repro.verify.daemon.protocol` — the newline-delimited-JSON
  request/response wire format shared by server and client;
* :mod:`repro.verify.daemon.index` — the dependency index: a
  conservative structural fingerprint per verification task;
* :mod:`repro.verify.daemon.server` — the daemon itself (Unix domain
  socket, plus ``--stdio`` for tests and LSP-style embedding);
* :mod:`repro.verify.daemon.client` — the CLI-side client with
  auto-spawn, stale-socket recovery, and version-mismatch re-spawn.
"""

from .client import DaemonClient, DaemonError, ensure_daemon
from .index import fingerprint_tasks, task_fingerprint
from .protocol import (
    PROTOCOL_VERSION,
    daemon_version,
    default_socket_path,
)
from .server import VerifyDaemon

__all__ = [
    "DaemonClient",
    "DaemonError",
    "PROTOCOL_VERSION",
    "VerifyDaemon",
    "daemon_version",
    "default_socket_path",
    "ensure_daemon",
    "fingerprint_tasks",
    "task_fingerprint",
]
