"""The verification configuration: ``VerifyOptions``.

``api.verify(unit, options=VerifyOptions(...))`` is the one way to
configure a run; the drivers (``Verifier``, ``verify_parallel``,
``verify_serial_with_timeout``) consume the same object directly, and
the CLI and the daemon build one from their flags and request options
and call :meth:`VerifyOptions.validate` on it before verifying.

Beyond the solver and driver knobs, three fields serve observability
and rendering:

* ``trace`` — a path; the run's span tree is written there as JSONL
  (see :mod:`repro.obs.sink`).
* ``tracer`` — an externally-owned :class:`repro.obs.Tracer` to record
  into instead; the CLI uses this to collect several files under one
  ``run`` span.  When both are None, tracing is disabled and the
  pipeline runs with the zero-cost null tracer.
* ``format`` — output rendering for the CLI (``"text"`` is
  byte-identical to the historical output; ``"json"`` emits
  :meth:`~repro.verify.verifier.VerificationReport.to_dict` documents).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from ..smt.cache import GLOBAL_CACHE, SolverCache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import Tracer

#: accepted values of ``VerifyOptions.format``
OUTPUT_FORMATS = ("text", "json")

#: accepted values of ``VerifyOptions.tier`` (see repro.verify.tiered)
TIERS = ("auto", "smt-only", "algebra-only", "check")


@dataclass
class VerifyOptions:
    """Every knob of one verification run, in one picklable-ish bundle.

    (The ``cache`` and ``tracer`` fields hold live objects and do not
    cross process boundaries; the parallel driver ships workers the
    derived scalars — ``use_cache``, ``cache_dir``, ``trace_enabled`` —
    instead.)
    """

    #: per-query SMT wall-time budget in seconds (None: solver default)
    budget: float | None = None
    #: the query cache: the process-wide one, a private SolverCache, or
    #: None to solve every query from scratch
    cache: SolverCache | None = GLOBAL_CACHE
    #: worker processes (int), or "auto" to size from CPUs and tasks
    jobs: int | str = 1
    #: persistent disk verdict-cache directory (None: no disk tier)
    cache_dir: str | None = None
    #: wall-clock limit per verification task (method), in seconds
    task_timeout: float | None = None
    #: obligations per parallel worker submission: an int, or "auto" to
    #: size batches from the task and worker counts (serial runs and
    #: runs under ``task_timeout`` always use single-task batches, so
    #: tail latency and timeout attribution stay per-method)
    batch_size: int | str = "auto"
    #: path to write the run's JSONL trace (None: tracing off)
    trace: str | None = None
    #: an externally-owned tracer to record into (overrides ``trace``
    #: file handling; the caller writes the sink)
    tracer: "Tracer | None" = field(default=None, repr=False)
    #: CLI output rendering: "text" (historical) or "json"
    format: str = "text"
    #: checker tiering: "auto" (syntactic pattern algebra first, SMT
    #: for the rest), "smt-only" (the historical pipeline),
    #: "algebra-only" (algebra verdicts alone, for testing), or
    #: "check" (run both on algebra-decidable obligations and fail on
    #: disagreement -- see :mod:`repro.verify.tiered`)
    tier: str = "auto"

    @property
    def use_cache(self) -> bool:
        return self.cache is not None

    @property
    def trace_enabled(self) -> bool:
        return self.trace is not None or self.tracer is not None

    def replace(self, **changes) -> "VerifyOptions":
        """A copy with ``changes`` applied (``dataclasses.replace``)."""
        return replace(self, **changes)

    def validate(self) -> None:
        """Raise ``ValueError`` on out-of-range settings — and normalize.

        ``jobs``/``batch_size`` arrive as strings from CLIs and config
        files; validation converts them to ``int`` *in place*, so the
        drivers downstream never see ``jobs="3"`` (which used to pass
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
        self.jobs = self._normalize_count("jobs", self.jobs)
        self.batch_size = self._normalize_count("batch_size", self.batch_size)
        if self.format not in OUTPUT_FORMATS:
            raise ValueError(
                f"format must be one of {OUTPUT_FORMATS}, got {self.format!r}"
            )
        if self.tier not in TIERS:
            raise ValueError(
                f"tier must be one of {TIERS}, got {self.tier!r}"
            )

    @staticmethod
    def _normalize_count(name: str, value) -> int | str:
        """``"auto"`` or a positive int; digit strings become ints."""
        if value == "auto":
            return "auto"
        if isinstance(value, bool):
            raise ValueError(
                f"{name} must be a positive integer or 'auto', got {value!r}"
            )
        try:
            count = int(value)
        except (TypeError, ValueError):
            raise ValueError(
                f"{name} must be a positive integer or 'auto', got {value!r}"
            ) from None
        if count < 1:
            raise ValueError(f"{name} must be >= 1, got {count}")
        return count

