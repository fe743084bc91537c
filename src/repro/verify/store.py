"""The outcome table: the one policy for which task outcomes are kept.

A task's outcome is a function of the table slice its dependency
fingerprint covers (:mod:`repro.verify.daemon.index`), of the options
that can change a verdict and of the verifier itself.  The daemon's
replays and a ``--cache-dir`` run's go through one
:class:`OutcomeTable`:

* **key and bound**: each task identity (file name plus task label)
  keeps its newest :data:`KEPT_PER_TASK` ``(salt, fingerprint,
  outcome)`` triples, so an undone edit replays; the salt
  (:func:`outcome_salt`) covers the ``repro`` source too;
* **what**: only conclusive outcomes.  An UNKNOWN query, a timeout or
  a failure depends on the clock or on a fault of its run;
* **where**: always in memory, and with a root, written through to
  one file per identity in ``<root>/outcomes-v2/`` and read through
  on a memory miss.  The daemon holds one table for its life;
  ``api.verify`` makes one per call.

A file is published with :func:`os.replace`, so racing writers never
expose a torn one; a corrupt file is counted, deleted and treated as a
miss, and an I/O or pickling failure costs that write, never the run.
The first write removes the directories older formats left under the
root, and only those that hold nothing but their entries.
"""

from __future__ import annotations

import functools
import hashlib
import os
import pickle
import re
import shutil
import tempfile
from pathlib import Path

from .faults import corrupt_cache_writes

#: default location, relative to the working directory; the CLI lets
#: ``--cache-dir`` / ``REPRO_CACHE_DIR`` override it
DEFAULT_CACHE_DIR = ".repro-cache"

#: how many (salt, fingerprint, outcome) triples one task keeps: enough
#: that undoing the last few edits replays instead of re-running
KEPT_PER_TASK = 4

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


def outcome_salt(options) -> str:
    """What an outcome depends on besides its fingerprint.

    The options that can change a verdict, so a budget change re-runs
    every task (not ``jobs``, not tracing, not the query cache: every
    driver gives the same outcomes, a replay gets a fresh span, and
    cached verdicts never change warnings), and the verifier source.
    """
    return f"{options.budget!r}\0{options.task_timeout!r}\0{source_digest()}"


def _conclusive(outcome) -> bool:
    """Whether an outcome may be replayed by a later run."""
    stats = outcome.stats
    return not (
        stats.total.unknown or stats.tasks_timed_out or stats.tasks_failed
    )


def _find(kept, salt: str, fingerprint: str):
    for kept_salt, kept_fingerprint, outcome in kept:
        if kept_salt == salt and kept_fingerprint == fingerprint:
            return outcome
    return None


class OutcomeTable:
    """Task outcomes by identity, in memory and optionally on disk.

    An identity is ``(file name, task label)``.  ``root`` None keeps
    the table in memory only.
    """

    #: bump when the entry payload layout changes
    ENTRY_FORMAT = 2

    def __init__(self, root: str | os.PathLike | None = None):
        format_dir = f"outcomes-v{self.ENTRY_FORMAT}"
        self.dir = None if root is None else Path(root) / format_dir
        #: identity -> [(salt, fingerprint, outcome), ...], newest first
        self.entries: dict[tuple[str, str], list] = {}
        self._dir_made = False
        self.hits = 0
        self.stores = 0
        #: unreadable/corrupt entries dropped, plus failed writes
        self.errors = 0

    def get(self, identity: tuple[str, str], salt: str, fingerprint: str):
        """The kept outcome of ``identity`` under ``salt`` and
        ``fingerprint``, or None."""
        outcome = _find(self.entries.get(identity, ()), salt, fingerprint)
        if outcome is None and self.dir is not None:
            # The file holds what the last writer of this identity kept,
            # this table's writes included
            stored = self._read(identity)
            if stored:
                self.entries[identity] = stored
                outcome = _find(stored, salt, fingerprint)
        if outcome is not None:
            self.hits += 1
        return outcome

    def put(
        self, identity: tuple[str, str], salt: str, fingerprint: str | None,
        outcome,
    ) -> None:
        """Keep a conclusive outcome as the newest of ``identity``'s."""
        if fingerprint is None or not _conclusive(outcome):
            return
        kept = [(salt, fingerprint, outcome)] + [
            triple for triple in self.entries.get(identity, ())
            if triple[:2] != (salt, fingerprint)
        ]
        self.entries[identity] = kept[:KEPT_PER_TASK]
        if self.dir is not None:
            self._write(identity, self.entries[identity])

    def forget(self, matches=lambda identity: True) -> None:
        """Drop from memory every entry whose identity ``matches``; the
        disk keeps them."""
        for identity in [i for i in self.entries if matches(i)]:
            del self.entries[identity]

    # -- disk ------------------------------------------------------------

    def _path(self, identity: tuple[str, str]) -> Path:
        name = hashlib.sha256("\0".join(identity).encode("utf-8"))
        return self.dir / name.hexdigest()

    def _read(self, identity: tuple[str, str]) -> list | None:
        path = self._path(identity)
        try:
            payload = path.read_bytes()
        except OSError:
            return None
        try:
            *header, kept = pickle.loads(payload)
            if header != [_MAGIC, self.ENTRY_FORMAT, identity]:
                raise ValueError("entry does not match its key")
            return [(salt, fp, outcome) for salt, fp, outcome in kept]
        except Exception:
            self.errors += 1
            _unlink_quietly(path)
            return None

    def _write(self, identity: tuple[str, str], kept: list) -> None:
        """Atomically publish ``identity``'s triples; a failure, pickling
        included, is counted and costs this write, never the run."""
        tmp_name = None
        try:
            payload = pickle.dumps((_MAGIC, self.ENTRY_FORMAT, identity, kept))
            if corrupt_cache_writes():
                payload = payload[: max(1, len(payload) // 2)]
            if not self._dir_made:
                self.dir.mkdir(parents=True, exist_ok=True)
                self._dir_made = True
                for path in self.dir.parent.iterdir():
                    if _is_legacy_dir(path):
                        shutil.rmtree(path, ignore_errors=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=self.dir, prefix=".tmp-", suffix=".part"
            )
            try:
                os.write(fd, payload)
            finally:
                os.close(fd)
            os.replace(tmp_name, self._path(identity))
            tmp_name = None
            self.stores += 1
        except Exception:
            self.errors += 1
            if tmp_name is not None:
                _unlink_quietly(tmp_name)


#: what earlier formats named their directories under the root (the
#: version-1 outcomes, the deleted SMT query cache's ``v2-1``), and
#: their files and shard directories (hex digests, ``.tmp-*.part``)
_LEGACY_DIR = re.compile(r"outcomes-v1|v2-[0-9]+")
_ENTRY_NAME = re.compile(r"[0-9a-f]+|\.tmp-.*\.part")


def _is_legacy_dir(path: Path) -> bool:
    """Whether ``path`` is an older format's directory holding nothing
    but its entries, so removing it loses nothing of anyone's."""
    return bool(_LEGACY_DIR.fullmatch(path.name)) and (
        path.is_dir() and not path.is_symlink() and all(
            _ENTRY_NAME.fullmatch(entry.name) and not entry.is_symlink()
            for entry in path.rglob("*")
        )
    )


def _unlink_quietly(path) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass
