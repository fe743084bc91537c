"""Structured tracing for the verification pipeline: the span model.

A verification run decides every obligation through a long chain of
invisible steps — formula translation, iterative deepening, theory
plugin rounds — spread over ``verifier.py``,
``solving.py``, and (under ``--jobs N``) worker processes.  This module
records that chain as a tree of *spans*:

    run → file → task → statement → obligation → query

* ``run`` — one CLI/API invocation;
* ``file`` — one compiled unit;
* ``task`` — one :class:`~repro.verify.verifier.VerifyTask` (a method,
  function, or invariant set — the paper's "one method at a time");
* ``statement`` — one checked ``switch``/``cond``/``let``, named by its
  source position;
* ``obligation`` — one logical question about a statement or spec
  (redundancy of arm *i*, exhaustiveness, let-totality, totality,
  postcondition, disjointness);
* ``query`` — one SMT ``check()`` discharged for the obligation,
  carrying its verdict, the deepening depth reached, and the solver
  phase timers.

Spans hold only plain data (strings, numbers, dicts), so a subtree
pickles across process boundaries: a pool worker records each task
under its own :class:`Tracer` and ships the task's span tree back with
the task outcome; the parent re-attaches the trees in deterministic
task order, which is why a serial and a ``--jobs N`` run of the same
file produce the same span tree modulo span ids, pids, and timings.

Tracing is opt-in.  The default tracer is :data:`NULL_TRACER`, whose
operations are no-ops on shared singletons — the hot query path guards
its span construction behind ``tracer.enabled``, so a run without
``--trace`` pays nothing measurable.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

#: the span hierarchy, outermost first
SPAN_KINDS = ("run", "file", "task", "statement", "obligation", "query")


@dataclass
class Span:
    """One traced operation: a node of the span tree.

    Plain data only — a span must survive ``pickle`` (worker → parent)
    and serialize to JSON unchanged.  Ids are *not* stored here: they
    are assigned by the sink in document order at write time, which is
    what makes serial and parallel traces comparable.
    """

    kind: str
    name: str
    attrs: dict = field(default_factory=dict)
    #: point events attached to this span (retry/timeout/fault markers)
    events: list = field(default_factory=list)
    children: list["Span"] = field(default_factory=list)
    t_start: float = 0.0
    t_end: float = 0.0
    pid: int = 0

    @property
    def duration(self) -> float:
        return max(0.0, self.t_end - self.t_start)

    def event(self, name: str, **attrs) -> None:
        self.events.append({"name": name, **attrs})

    def walk(self):
        """Yield this span and every descendant, document order."""
        yield self
        for child in self.children:
            yield from child.walk()


class _NullContext:
    """The shared inert context manager handed out by the null tracer."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_CONTEXT = _NullContext()


class NullTracer:
    """The disabled tracer: every operation is a cheap no-op.

    There is exactly one instance (:data:`NULL_TRACER`); it allocates
    nothing per call, so threading it through the pipeline
    unconditionally keeps the hot path at its untraced cost.  Code on
    genuinely hot paths (one call per SMT query) should additionally
    guard attribute assembly behind ``tracer.enabled``.
    """

    __slots__ = ()
    enabled = False

    def span(self, kind, name, /, **attrs):
        return _NULL_CONTEXT

    def begin(self, kind, name, /, **attrs):
        return None

    def end(self, span, **attrs):
        pass

    def leaf(self, kind, name, t_start, t_end, attrs=None):
        return None

    def event(self, name, **attrs):
        pass

    def attach(self, span):
        pass


NULL_TRACER = NullTracer()


class _SpanContext:
    """``with tracer.span(...)`` — begins on enter, ends on exit."""

    __slots__ = ("_tracer", "_kind", "_name", "_attrs", "span")

    def __init__(self, tracer, kind, name, attrs):
        self._tracer = tracer
        self._kind = kind
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> Span:
        self.span = self._tracer.begin(self._kind, self._name, **self._attrs)
        return self.span

    def __exit__(self, exc_type, exc, tb):
        self._tracer.end(self.span)
        return False


class Tracer:
    """Collects a span tree for one process's share of a run.

    Single-threaded by design: the verification pipeline is
    process-parallel, never thread-parallel, so each process (the
    parent, each pool worker) owns exactly one tracer and a simple
    open-span stack suffices.
    """

    __slots__ = ("roots", "_stack", "_pid")
    enabled = True

    def __init__(self) -> None:
        #: completed (or open) top-level spans, in start order
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        self._pid = os.getpid()

    @property
    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    def begin(self, kind: str, name: str, /, **attrs) -> Span:
        """Open a span under the current one and make it current.

        ``kind`` and ``name`` are positional-only so attribute keywords
        may reuse those names (task spans carry a ``kind`` attr).
        """
        span = Span(
            kind,
            name,
            attrs=attrs,
            pid=self._pid,
            t_start=time.perf_counter(),
        )
        parent = self.current
        if parent is None:
            self.roots.append(span)
        else:
            parent.children.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span, **attrs) -> None:
        """Close ``span`` (which must be the current one)."""
        span.t_end = time.perf_counter()
        if attrs:
            span.attrs.update(attrs)
        if self._stack and self._stack[-1] is span:
            self._stack.pop()

    def span(self, kind: str, name: str, /, **attrs) -> _SpanContext:
        """Context manager form of :meth:`begin`/:meth:`end`."""
        return _SpanContext(self, kind, name, attrs)

    def leaf(
        self,
        kind: str,
        name: str,
        t_start: float,
        t_end: float,
        attrs: dict | None = None,
    ) -> Span:
        """Record an already-completed childless span (e.g. one query)."""
        span = Span(
            kind,
            name,
            attrs=attrs or {},
            pid=self._pid,
            t_start=t_start,
            t_end=t_end,
        )
        parent = self.current
        if parent is None:
            self.roots.append(span)
        else:
            parent.children.append(span)
        return span

    def event(self, name: str, **attrs) -> None:
        """Attach a point event to the current span (if any)."""
        current = self.current
        if current is not None:
            current.event(name, **attrs)

    def attach(self, span: Span | None) -> None:
        """Adopt a subtree recorded elsewhere (a worker's task trace).

        The subtree goes under the current span, exactly where a
        locally-recorded span would have gone — attaching worker trees
        in task order therefore reproduces the serial tree shape.
        """
        if span is None:
            return
        parent = self.current
        if parent is None:
            self.roots.append(span)
        else:
            parent.children.append(span)
