"""Deterministic fault injection for the verification pipeline.

The fault-tolerance machinery in :mod:`repro.verify.parallel` — the
in-process serial fallback after a worker crash, per-task wall-clock
deadlines, degradation of a failing task — and the outcome store's
handling of corrupt entries guard against events that are hard to
produce on demand: an OOM-killed worker, an obligation that never
terminates, a half-written store entry.  This module makes
each of them reproducible, so tests and CI exercise every recovery path
instead of arguing about it.

One knob, the ``REPRO_FAULT`` environment variable (inherited by pool
workers), selects at most one fault per run:

``crash:<task>``
    ``os._exit(1)`` the moment a *worker process* picks up the task
    with that label (:attr:`~repro.verify.verifier.VerifyTask.label`)
    — the way the OOM killer takes a worker out.  It fires only inside
    pool workers, so the pipeline's in-process serial fallback
    completes the task and a faulted run ends byte-identical to an
    undisturbed one.

``hang:<task>``
    Spin forever (in interruptible 50 ms sleeps) instead of verifying
    the matching task, wherever it runs.  A per-task deadline
    (``--task-timeout``) converts the hang into an UNKNOWN-style
    warning; without a deadline the run hangs, which is the point.

``raise:<task>``
    Raise :class:`FaultInjected` instead of verifying the matching
    task, wherever it runs.  Exercises graceful degradation: every
    driver reports the obligation inconclusive instead of crashing the
    run (a pool run first re-runs the task serially, which fails
    again).

``corrupt-cache``
    Truncate every ``--cache-dir`` store entry as it is written
    (:class:`repro.verify.store.OutcomeTable`), simulating the torn
    writes of a killed process; later reads must count and drop the
    entries and re-run their tasks, never raise.

Faults match by exact task label and are parsed fresh from the
environment on every check, so tests can flip them with
``monkeypatch.setenv``/``delenv`` and fork-started workers observe the
parent's setting.
"""

from __future__ import annotations

import multiprocessing
import os
import time

#: the environment variable holding the fault spec
ENV_VAR = "REPRO_FAULT"

#: every fault kind the harness understands
KINDS = ("crash", "hang", "raise", "corrupt-cache")


class FaultInjected(RuntimeError):
    """The failure raised by the ``raise:<task>`` fault."""


def active_fault() -> tuple[str, str] | None:
    """The ``(kind, target)`` requested by ``REPRO_FAULT``, or None.

    An unrecognised spec raises :class:`ValueError` instead of being
    ignored: this is a testing knob, and a typo that silently injects
    nothing would make a recovery test pass vacuously.
    """
    value = os.environ.get(ENV_VAR, "")
    if not value:
        return None
    kind, _, target = value.partition(":")
    if kind not in KINDS or (kind != "corrupt-cache" and not target):
        raise ValueError(
            f"{ENV_VAR}={value!r}: expected crash:<task>, hang:<task>, "
            f"raise:<task>, or corrupt-cache"
        )
    return kind, target


def in_worker() -> bool:
    """True inside a multiprocessing child (a pool worker)."""
    return multiprocessing.parent_process() is not None


def maybe_fail_task(label: str) -> None:
    """Fire the configured task fault if ``label`` matches its target.

    Called by :func:`repro.verify.parallel.run_one_task` immediately
    before a task's real work, in pool workers and in process alike.
    """
    fault = active_fault()
    if fault is None or fault[1] != label:
        return
    kind = fault[0]
    if kind == "crash":
        if in_worker():
            os._exit(1)
        return  # in-process: the crash "already happened"; just verify
    if kind == "hang":
        while True:
            time.sleep(0.05)
    if kind == "raise":
        raise FaultInjected(f"injected failure for task {label!r}")


def corrupt_cache_writes() -> bool:
    """True when store writes should be deliberately truncated."""
    return os.environ.get(ENV_VAR) == "corrupt-cache"
