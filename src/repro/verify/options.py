"""The verification configuration: ``VerifyOptions``.

``api.verify(unit, options=VerifyOptions(...))`` is the one way to
configure a run; both drivers (the serial task loop
:func:`~repro.verify.parallel.run_serial` and the pool,
:func:`~repro.verify.parallel.verify_parallel`) consume the same object
directly, and the CLI and the daemon build one from their flags and
request options and call :meth:`VerifyOptions.validate` on it before
verifying.  How a run is carried out beyond these fields (the pool's
workers claim one task at a time) is not an option.

Beyond the solver and driver knobs, two fields serve observability:

* ``trace`` — a path; the run's span tree is written there as JSONL
  (see :mod:`repro.obs.sink`).
* ``tracer`` — an externally-owned :class:`repro.obs.Tracer` to record
  into instead; the CLI uses this to collect several files under one
  ``run`` span.  When both are None, tracing is disabled and the
  pipeline runs with the zero-cost null tracer.

No field selects how obligations are decided: the pattern algebra
(:mod:`repro.verify.tiered`) always discharges what it can before SMT.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from ..smt.cache import SolverCache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import Tracer


class OptionError(ValueError):
    """An out-of-range :class:`VerifyOptions` field, named by ``option``."""

    def __init__(self, option: str, problem: str):
        super().__init__(f"{option} {problem}")
        self.option, self.problem = option, problem


@dataclass
class VerifyOptions:
    """Every knob of one verification run, in one picklable-ish bundle.

    (The ``cache`` and ``tracer`` fields hold live objects and do not
    cross process boundaries; the parallel driver ships workers
    flags — whether a cache was passed, whether tracing is on —
    instead.)
    """

    #: per-query SMT wall-time budget in seconds (None: solver default)
    budget: float | None = None
    #: an opt-in SMT query cache (a SolverCache); None, the default,
    #: solves every query.  Reuse across runs is per task, through
    #: ``cache_dir``, whatever this field holds
    cache: SolverCache | None = None
    #: worker processes for the tasks that run, a positive integer: the
    #: pool runs on ``min(jobs, tasks)`` workers when that is above 1
    jobs: int | str = 1
    #: directory of the task-outcome store (None: no store, so no task
    #: is replayed); see :mod:`repro.verify.store`
    cache_dir: str | None = None
    #: wall-clock limit per verification task (method), in seconds
    task_timeout: float | None = None
    #: path to write the run's JSONL trace (None: tracing off)
    trace: str | None = None
    #: an externally-owned tracer to record into (overrides ``trace``
    #: file handling; the caller writes the sink)
    tracer: "Tracer | None" = field(default=None, repr=False)

    def replace(self, **changes) -> "VerifyOptions":
        """A copy with ``changes`` applied (``dataclasses.replace``)."""
        return replace(self, **changes)

    def validate(self) -> None:
        """Raise :class:`OptionError` on out-of-range settings — and normalize.

        A ``task_timeout`` is out of range off the main thread: its
        deadline is a ``SIGALRM`` alarm, which cannot arm there.

        ``jobs`` arrives as a string from CLIs and config files;
        validation converts it to ``int`` *in place*, so the drivers
        downstream never see ``jobs="3"`` (which used to pass
        validation un-normalized and then fail arithmetic later).
        Booleans are rejected explicitly: ``jobs=True`` is ``int(True)
        == 1`` by accident of the bool/int subtyping, never intent.
        """
        # budget 0.0 is legal: it starves every query to UNKNOWN, which
        # the budget-threading tests use to make solving observable.
        # NaN compares false against everything and inf overflows the
        # deadline arithmetic, so both must be rejected explicitly.
        if self.budget is not None and not (
            math.isfinite(self.budget) and self.budget >= 0
        ):
            raise OptionError(
                "budget", f"must be finite and non-negative, got {self.budget}"
            )
        timeout = self.task_timeout
        if timeout is not None and not (math.isfinite(timeout) and timeout > 0):
            problem = "positive" if math.isfinite(timeout) else "finite"
            raise OptionError(
                "task_timeout", f"must be {problem}, got {timeout}"
            )
        if (
            self.task_timeout is not None
            and threading.current_thread() is not threading.main_thread()
        ):
            raise OptionError(
                "task_timeout",
                "needs the main thread (its deadline is a SIGALRM alarm)",
            )
        # ``cache=False`` reads as "no cache" but is not None: every task
        # would then fail on the first cache call.  None turns it off.
        if self.cache is not None and not isinstance(self.cache, SolverCache):
            raise OptionError(
                "cache",
                f"must be a SolverCache or None (no cache), got {self.cache!r}",
            )
        self.jobs = self._normalize_jobs(self.jobs)

    @staticmethod
    def _normalize_jobs(value) -> int:
        """A positive int; digit strings become ints."""
        invalid = OptionError(
            "jobs", f"must be a positive integer, got {value!r}"
        )
        if isinstance(value, bool):
            raise invalid
        try:
            count = int(value)
        except (TypeError, ValueError):
            raise invalid from None
        if count < 1:
            raise OptionError("jobs", f"must be >= 1, got {count}")
        return count

