"""A cooperative wall-clock budget for one SMT query.

The verifier's queries are usually milliseconds, but a pathological
one (deep arithmetic over abstract heights, say) can push the
Fourier-Motzkin core or the CDCL search into exponential territory.
:class:`~repro.smt.solver.Solver` arms a deadline before each check;
the SAT and LIA hot loops poll it and raise :class:`BudgetExceeded`,
which the solver reports as UNKNOWN -- the same role the paper's
iterative-deepening time budget plays (Section 6.2).

The deadline is **thread-local**: ``repro.api.verify`` may be called
from any thread of a host program, so one thread's query must never
see (or disarm) another thread's budget window.  The solver's lazy
loop polls it once per round, through :func:`checkpoint`.  A per-task
``task_timeout`` is a different deadline: a ``SIGALRM`` alarm on the
main thread (:func:`repro.verify.parallel.task_deadline`).
"""

from __future__ import annotations

import threading
import time

_state = threading.local()


class BudgetExceeded(Exception):
    """The current query ran past its wall-clock budget."""


def arm(seconds: float) -> None:
    """Start a budget window for the current query on this thread."""
    _state.deadline = time.monotonic() + seconds


def disarm() -> None:
    _state.deadline = None


def checkpoint() -> None:
    """Raise BudgetExceeded when this thread's armed budget ran out."""
    deadline = getattr(_state, "deadline", None)
    if deadline is not None and time.monotonic() > deadline:
        raise BudgetExceeded()
