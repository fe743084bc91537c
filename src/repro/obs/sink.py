"""The JSONL trace sink: span trees → one JSON object per line.

The on-disk format is deliberately flat and stable — one row per span,
parents before children, ids assigned in document order at write time:

    {"id": 3, "parent": 2, "kind": "task", "name": "Nat.plus",
     "pid": 4711, "dur_ms": 12.431, "attrs": {...}, "events": [...]}

* ``id``/``parent`` — document-order integers (the root has
  ``parent: null``).  Ids are assigned here, not at record time, so a
  serial run and a ``--jobs N`` run emit the same ids for the same
  tree shape.
* ``kind`` — one of :data:`~repro.obs.tracer.SPAN_KINDS`.
* ``name`` — deterministic within a kind (task label, statement source
  position, obligation description, query verdict).
* ``pid`` — the process that recorded the span (workers differ from
  the parent; comparisons across runs must ignore it).
* ``dur_ms`` — wall-clock duration.  Start timestamps are omitted on
  purpose: they are per-process ``perf_counter`` readings that do not
  compare across worker processes, while document order already gives
  within-process ordering.
* ``attrs`` — kind-specific data: query spans carry ``verdict``,
  ``depth``, ``passes``, ``rounds``, ``conflicts`` and ``core_lits``
  (theory conflicts and the literals across their cores), and the
  solver phase timers, plus
  ``unknown_cause`` (``deadline`` or ``depth``) on an UNKNOWN verdict
  and on no other; task spans carry the task kind and any degradation
  flags.
* ``events`` — point events (``retry``, ``timeout``, ``failed``).

:func:`validate_trace_rows` is the schema's executable definition; the
golden-file test and the CI smoke lane both call it.  The query spans
are the only stored copy of the phase timers: :func:`format_profiles`
renders ``verify --profile`` from rows, for local and daemon runs
alike.
"""

from __future__ import annotations

import json

from .tracer import SPAN_KINDS, Span

#: bump when the row shape changes incompatibly
TRACE_SCHEMA_VERSION = 1

#: every row carries exactly these keys
ROW_KEYS = ("id", "parent", "kind", "name", "pid", "dur_ms", "attrs", "events")

#: phase timer keys a query span's attrs carry
QUERY_PHASE_KEYS = ("encode_s", "sat_s", "expand_s", "theory_s", "validate_s")


def span_rows(roots: list[Span]) -> list[dict]:
    """Flatten span trees to rows, assigning document-order ids."""
    rows: list[dict] = []

    def walk(span: Span, parent_id: int | None) -> None:
        row_id = len(rows) + 1
        rows.append(
            {
                "id": row_id,
                "parent": parent_id,
                "kind": span.kind,
                "name": span.name,
                "pid": span.pid,
                "dur_ms": round(span.duration * 1000.0, 3),
                "attrs": span.attrs,
                "events": span.events,
            }
        )
        for child in span.children:
            walk(child, row_id)

    for root in roots:
        walk(root, None)
    return rows


def write_jsonl(path: str, roots: list[Span]) -> int:
    """Write one row per span to ``path``; returns the row count."""
    rows = span_rows(roots)
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True) + "\n")
    return len(rows)


def append_jsonl(path: str, rows: list[dict], start_id: int = 0) -> int:
    """Append pre-flattened rows to ``path``, re-basing ids.

    The daemon writes one request's rows at a time into a long-lived
    trace file; shifting ``id``/``parent`` by ``start_id`` (the number
    of rows already in the file) keeps the concatenation a single
    valid document for :func:`validate_trace_rows`.  Returns the row
    count appended.
    """
    with open(path, "a", encoding="utf-8") as handle:
        for row in rows:
            shifted = dict(row)
            shifted["id"] = row["id"] + start_id
            if row["parent"] is not None:
                shifted["parent"] = row["parent"] + start_id
            handle.write(json.dumps(shifted, sort_keys=True) + "\n")
    return len(rows)


def read_jsonl(path: str) -> list[dict]:
    """Parse a trace file back into rows (raises on malformed JSON)."""
    rows = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


def format_profiles(rows: list[dict]) -> list[str]:
    """The ``--profile`` table of each ``file`` span in ``rows``, in order.

    A table has one row per task label that ran queries: the summed
    query wall time and the summed :data:`QUERY_PHASE_KEYS` of the
    task's ``query`` spans, then a total and the share of query wall
    time the solver phases cover.  ``rows`` must be in document order
    (parents first), as :func:`span_rows` and :func:`read_jsonl` give.
    """
    tables: list[dict[str, list[float]]] = []
    #: row id -> (the table of its file span, the label of its task span)
    scope: dict[int, tuple] = {}
    for row in rows:
        table, task = scope.get(row["parent"], (None, None))
        if row["kind"] == "file":
            table = {}
            tables.append(table)
        elif row["kind"] == "task":
            task = row["name"]
        elif row["kind"] == "query" and table is not None and task is not None:
            values = [row["dur_ms"] / 1000.0]
            values += [row["attrs"].get(key, 0.0) for key in QUERY_PHASE_KEYS]
            sums = table.get(task, [0.0] * len(values))
            table[task] = [a + b for a, b in zip(sums, values)]
        scope[row["id"]] = (table, task)
    return [_profile_table(table) for table in tables]


def _profile_table(table: dict[str, list[float]]) -> str:
    header = (
        f"{'method':<40}{'time(s)':>9}{'encode':>9}{'sat':>9}"
        f"{'expand':>9}{'theory':>9}{'validate':>9}"
    )
    rule = "-" * len(header)

    def line(label: str, sums: list[float]) -> str:
        label = label if len(label) <= 39 else label[:36] + "..."
        return f"{label:<40}" + "".join(f"{value:>9.3f}" for value in sums)

    lines = [header, rule]
    total = [0.0] * (1 + len(QUERY_PHASE_KEYS))
    for name in sorted(table):
        lines.append(line(name, table[name]))
        total = [a + b for a, b in zip(total, table[name])]
    lines += [
        rule,
        line("total", total),
        f"solver phases cover {sum(total[1:]):.3f}s of "
        f"{total[0]:.3f}s query wall time",
    ]
    return "\n".join(lines)


def validate_trace_rows(rows: list[dict]) -> list[str]:
    """Check rows against the trace schema; returns the violations.

    An empty list means the trace is well-formed: every row carries
    exactly :data:`ROW_KEYS`, kinds come from the span hierarchy,
    parents precede children and nest by hierarchy order (statement
    spans may additionally nest in statement spans, mirroring source
    nesting), and query spans carry a verdict, and a cause exactly when
    the verdict is UNKNOWN.
    """
    problems: list[str] = []
    kind_rank = {kind: rank for rank, kind in enumerate(SPAN_KINDS)}
    by_id: dict[int, dict] = {}
    for index, row in enumerate(rows):
        where = f"row {index + 1}"
        keys = set(row)
        if keys != set(ROW_KEYS):
            problems.append(
                f"{where}: keys {sorted(keys)} != expected {sorted(ROW_KEYS)}"
            )
            continue
        if row["kind"] not in kind_rank:
            problems.append(f"{where}: unknown kind {row['kind']!r}")
            continue
        if not isinstance(row["name"], str) or not row["name"]:
            problems.append(f"{where}: name must be a non-empty string")
        if row["id"] != index + 1:
            problems.append(
                f"{where}: ids must be document-ordered (got {row['id']})"
            )
        parent = row["parent"]
        if parent is not None:
            parent_row = by_id.get(parent)
            if parent_row is None:
                problems.append(f"{where}: parent {parent} does not precede it")
            elif kind_rank[parent_row["kind"]] >= kind_rank[row["kind"]] and not (
                # the one legal self-nesting: source statements nest
                # (a switch inside a case body), so their spans do too
                row["kind"] == "statement"
                and parent_row["kind"] == "statement"
            ):
                problems.append(
                    f"{where}: {row['kind']} span nested under "
                    f"{parent_row['kind']}"
                )
        elif row["kind"] not in ("run", "task"):
            problems.append(f"{where}: {row['kind']} span has no parent")
        attrs = row["attrs"]
        if not isinstance(attrs, dict):
            problems.append(f"{where}: attrs must be an object")
            attrs = {}
        if row["kind"] == "query":
            if attrs.get("verdict") not in ("sat", "unsat", "unknown"):
                problems.append(f"{where}: query without a verdict")
            if attrs.get("verdict") == "unknown":
                if attrs.get("unknown_cause") not in ("deadline", "depth"):
                    problems.append(f"{where}: unknown query without a cause")
            elif "unknown_cause" in attrs:
                problems.append(f"{where}: conclusive query with a cause")
        if not isinstance(row["events"], list):
            problems.append(f"{where}: events must be a list")
        by_id[row["id"]] = row
    return problems
