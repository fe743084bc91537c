"""The verification configuration: ``VerifyOptions``.

``api.verify(unit, options=VerifyOptions(...))`` is the one way to
configure a run; both drivers (the serial task loop
:func:`~repro.verify.parallel.run_serial` and the pool,
:func:`~repro.verify.parallel.verify_parallel`) consume the same object
directly, and the CLI and the daemon build one from their flags and
request options and call :meth:`VerifyOptions.validate` on it before
verifying.  Settings that only tune how a run is carried out, such as
the pool's batch size, are derived rather than set.

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

from ..smt.cache import GLOBAL_CACHE, SolverCache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import Tracer


@dataclass
class VerifyOptions:
    """Every knob of one verification run, in one picklable-ish bundle.

    (The ``cache`` and ``tracer`` fields hold live objects and do not
    cross process boundaries; the parallel driver ships workers
    scalars — ``use_cache``, whether tracing is on — instead.)
    """

    #: per-query SMT wall-time budget in seconds (None: solver default)
    budget: float | None = None
    #: the query cache: the process-wide one, a private SolverCache, or
    #: None to solve every query from scratch
    cache: SolverCache | None = GLOBAL_CACHE
    #: worker processes (int), or "auto" to size from CPUs and tasks
    jobs: int | str = 1
    #: directory of the task-outcome store (None: no store); see
    #: :mod:`repro.verify.store`
    cache_dir: str | None = None
    #: wall-clock limit per verification task (method), in seconds
    task_timeout: float | None = None
    #: path to write the run's JSONL trace (None: tracing off)
    trace: str | None = None
    #: an externally-owned tracer to record into (overrides ``trace``
    #: file handling; the caller writes the sink)
    tracer: "Tracer | None" = field(default=None, repr=False)

    @property
    def use_cache(self) -> bool:
        return self.cache is not None

    def replace(self, **changes) -> "VerifyOptions":
        """A copy with ``changes`` applied (``dataclasses.replace``)."""
        return replace(self, **changes)

    def validate(self) -> None:
        """Raise ``ValueError`` on out-of-range settings — and normalize.

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
            raise ValueError(
                f"budget must be finite and non-negative, got {self.budget}"
            )
        if self.task_timeout is not None and not (
            math.isfinite(self.task_timeout) and self.task_timeout > 0
        ):
            raise ValueError(
                "task_timeout must be finite and positive, "
                f"got {self.task_timeout}"
            )
        if (
            self.task_timeout is not None
            and threading.current_thread() is not threading.main_thread()
        ):
            raise ValueError(
                "task_timeout needs the main thread (its deadline is a "
                "SIGALRM alarm)"
            )
        # ``cache=False`` reads as "no cache" but is not None: every task
        # would then fail on the first cache call.  None turns it off.
        if self.cache is not None and not isinstance(self.cache, SolverCache):
            raise ValueError(
                "cache must be a SolverCache or None (no cache), "
                f"got {self.cache!r}"
            )
        self.jobs = self._normalize_jobs(self.jobs)

    @staticmethod
    def _normalize_jobs(value) -> int | str:
        """``"auto"`` or a positive int; digit strings become ints."""
        if value == "auto":
            return "auto"
        if isinstance(value, bool):
            raise ValueError(
                f"jobs must be a positive integer or 'auto', got {value!r}"
            )
        try:
            count = int(value)
        except (TypeError, ValueError):
            raise ValueError(
                f"jobs must be a positive integer or 'auto', got {value!r}"
            ) from None
        if count < 1:
            raise ValueError(f"jobs must be >= 1, got {count}")
        return count

