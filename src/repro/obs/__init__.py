"""Observability for the verification pipeline (structured tracing).

``repro.obs`` is deliberately dependency-free (stdlib only, no imports
from the rest of the package), so any layer — the CLI, the drivers,
the solver session, pool workers — can thread a tracer through without
import cycles.  See :mod:`repro.obs.tracer` for the span model and
:mod:`repro.obs.sink` for the JSONL format and the ``--profile`` table
rendered from it.
"""

from .sink import (
    QUERY_PHASE_KEYS,
    ROW_KEYS,
    TRACE_SCHEMA_VERSION,
    append_jsonl,
    format_profiles,
    read_jsonl,
    span_rows,
    validate_trace_rows,
    write_jsonl,
)
from .tracer import NULL_TRACER, SPAN_KINDS, NullTracer, Span, Tracer

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "QUERY_PHASE_KEYS",
    "ROW_KEYS",
    "SPAN_KINDS",
    "Span",
    "TRACE_SCHEMA_VERSION",
    "Tracer",
    "append_jsonl",
    "format_profiles",
    "read_jsonl",
    "span_rows",
    "validate_trace_rows",
    "write_jsonl",
]
