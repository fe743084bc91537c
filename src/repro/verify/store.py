"""Task outcomes kept on disk across runs: the ``--cache-dir`` store.

A task's outcome is a function of the table slice its dependency
fingerprint covers (:mod:`repro.verify.daemon.index`), of the options
that can change a verdict
(:func:`repro.verify.parallel.options_signature`) and of the verifier
itself.  Each :class:`~repro.verify.parallel.TaskOutcome` is keyed by
all three, the last as a digest of the ``repro`` package source, so an
upgraded verifier never replays an older one's warnings.

* Entries are files in ``<root>/outcomes-v<format>/``; bumping
  :attr:`OutcomeStore.ENTRY_FORMAT` retires every old entry at once.
* Each entry is written to a temporary file and published with
  :func:`os.replace`, so racing writers never expose a torn entry.
* A corrupt or truncated entry is counted, deleted and treated as a
  miss; an I/O or pickling failure costs that entry, never the run.
* Only conclusive outcomes are written: one with an UNKNOWN query, a
  task timeout or a failure depends on the wall clock or on a fault of
  the run that produced it.
"""

from __future__ import annotations

import functools
import hashlib
import os
import pickle
import tempfile
from pathlib import Path

from .faults import corrupt_cache_writes

#: default location, relative to the working directory; the CLI lets
#: ``--cache-dir`` / ``REPRO_CACHE_DIR`` override it
DEFAULT_CACHE_DIR = ".repro-cache"

_MAGIC = "repro-task-outcome"


@functools.cache
def source_digest() -> str:
    """A digest of every module of the installed ``repro`` package."""
    package = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        digest.update(path.relative_to(package).as_posix().encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def _conclusive(outcome) -> bool:
    """Whether an outcome may be replayed by a later run."""
    stats = outcome.stats
    return not (
        stats.total.unknown or stats.tasks_timed_out or stats.tasks_failed
    )


class OutcomeStore:
    """A directory of pickled task outcomes under one options signature."""

    #: bump when the entry payload layout changes
    ENTRY_FORMAT = 1

    def __init__(self, root: str | os.PathLike, options_sig: str):
        self.root = Path(root)
        self.dir = self.root / f"outcomes-v{self.ENTRY_FORMAT}"
        self._salt = f"{options_sig}\0{source_digest()}\0"
        self._dir_made = False
        self.hits = 0
        self.stores = 0
        #: unreadable/corrupt entries dropped, plus failed writes
        self.errors = 0

    def _key(self, fingerprint: str) -> str:
        return hashlib.sha256(
            (self._salt + fingerprint).encode("utf-8")
        ).hexdigest()

    def _path(self, key: str) -> Path:
        return self.dir / key

    def get(self, task, fingerprint: str):
        """The stored outcome of ``task`` under ``fingerprint``, or None."""
        key = self._key(fingerprint)
        path = self._path(key)
        try:
            payload = path.read_bytes()
        except OSError:
            return None
        try:
            magic, entry_format, stored_key, stored_task, outcome = (
                pickle.loads(payload)
            )
            if (
                magic != _MAGIC
                or entry_format != self.ENTRY_FORMAT
                or stored_key != key
                or stored_task != task
            ):
                raise ValueError("entry does not match its key")
        except Exception:
            self.errors += 1
            _unlink_quietly(path)
            return None
        self.hits += 1
        return outcome

    def put(self, task, fingerprint: str | None, outcome) -> None:
        """Atomically publish one conclusive outcome (failures are counted).

        Pickling happens inside the guard: an outcome pickle refuses
        must cost one entry, never the verification run.
        """
        if fingerprint is None or not _conclusive(outcome):
            return
        key = self._key(fingerprint)
        path = self._path(key)
        tmp_name = None
        try:
            payload = pickle.dumps(
                (_MAGIC, self.ENTRY_FORMAT, key, task, outcome)
            )
            if corrupt_cache_writes():
                payload = payload[: max(1, len(payload) // 2)]
            if not self._dir_made:
                self.dir.mkdir(parents=True, exist_ok=True)
                self._dir_made = True
            fd, tmp_name = tempfile.mkstemp(
                dir=self.dir, prefix=".tmp-", suffix=".part"
            )
            try:
                os.write(fd, payload)
            finally:
                os.close(fd)
            os.replace(tmp_name, path)
            tmp_name = None
            self.stores += 1
        except Exception:
            self.errors += 1
            if tmp_name is not None:
                _unlink_quietly(tmp_name)


def _unlink_quietly(path) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass
