"""The dependency index: what each verification task's verdict rests on.

The paper verifies one method at a time, and everything a method task
consults lives in the program table: the method's own declaration, the
sealing invariants of the types it mentions
(``invariants_visible_from``), the ``matches``/``ensures`` specs of the
methods it calls (``lookup_method`` / ``lookup_function`` /
``SolvabilityContext``'s unique-name resolution), the supertype and
implementation structure around those types (``supertypes`` /
``implementations_of``), and nothing else — caller-side reasoning never
opens a callee's *body* (specifications are modular, Section 6.2; the
one consumer of bodies is the totality check of the method that owns
the body).

This module turns that observation into a *fingerprint* per
:class:`~repro.verify.verifier.VerifyTask`: a digest over

* the task's own declaration(s), **spans included** — warnings carry
  source positions, so a task whose text moved must re-run to re-span
  its warnings.  The module's one AST walker (``_dump``) renders them,
  each span as ``line:col-line:col``, with the file name hashed once
  per task; the same walk collects the names the closure starts from;
* the *header* of every type in the task's reference closure (name,
  kind, supertypes, fields, invariants — span-free), plus the sorted
  list of its concrete implementations — so sealing a new class into a
  hierarchy invalidates every match over it;
* the *spec* of every same-named method anywhere in the program for
  every name the task calls (params, modes, matches/ensures,
  abstractness — span-free, bodies excluded).  Name-level granularity
  is deliberate: call resolution can fall back to unique-name lookup
  across the whole program, so adding a same-named method elsewhere
  must invalidate the caller.

The closure is computed to a fixpoint (invariant formulas mention
constructors, constructor specs mention more types, ...).  Two tasks
with equal fingerprints produce byte-identical outcomes — each task
runs inside a pristine interning scope, so its outcome is a
deterministic function of exactly the table slice fingerprinted here.
When any step fails, the fingerprint is ``None``, which callers treat
as "always re-verify": the index degrades to full re-verification, it
never guesses.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib

from ...errors import Span
from ...lang import ast
from ...lang.symbols import ProgramTable
from ..verifier import VerifyTask, iter_tasks

#: methods resolved implicitly (never through a scanned call site)
_IMPLICIT_METHODS = ("equals",)


#: values rendered by ``repr`` without a walk
_LEAVES = frozenset({str, int, bool, type(None)})


@functools.cache
def _layout(cls: type, spans: bool) -> tuple | None:
    """``cls``'s rendering head and ``(label, field)`` pairs, ``span``
    only with ``spans``; None for a non-dataclass."""
    if not dataclasses.is_dataclass(cls):
        return None
    return f"{cls.__name__}(", tuple(
        (f"{f.name}=", f.name)
        for f in dataclasses.fields(cls)
        if spans or f.name != "span"
    )


def _dump(
    node, out: list[str], names: set[str] | None = None, spans: bool = False
) -> None:
    """A canonical structural rendering of an AST subtree.

    Span-free by default: dependency components must not change when
    editing one method shifts everything below it in the file.  With
    ``spans`` every span is written as ``line:col-line:col`` (a task's
    own declarations, whose warnings carry positions); the file name
    is left out, as every span of one file shares it.

    ``names`` collects every identifier that could resolve through the
    table: type names (tuple elements included), call names and their
    static qualifiers.  Over-approximate on purpose: a name that turns
    out not to resolve contributes nothing to the closure.
    """
    cls = type(node)
    if cls is list or cls is tuple:
        out.append("[")
        for item in node:
            _dump(item, out, names, spans)
            out.append(",")
        out.append("]")
        return
    layout = _layout(cls, spans)
    if layout is None:
        out.append(repr(node))
        return
    if names is not None and (cls is ast.Type or cls is ast.Call):
        names.add(node.name)
        if cls is ast.Call and node.qualifier is not None:
            names.add(node.qualifier)
    head, fields = layout
    out.append(head)
    # Leaves and spans are rendered here, not by a call per value.
    for label, name in fields:
        out.append(label)
        value = getattr(node, name)
        value_cls = type(value)
        if value_cls is Span:
            start, end = value.start, value.end
            out.append(f"{start.line}:{start.column}-{end.line}:{end.column}")
        elif value_cls in _LEAVES:
            out.append(repr(value))
        else:
            _dump(value, out, names, spans)
        out.append(",")
    out.append(")")


def _dumps(node, names: set[str] | None = None) -> str:
    out: list[str] = []
    _dump(node, out, names)
    return "".join(out)


def _method_spec_dump(decl, names: set[str]) -> str:
    """A method's caller-visible surface: everything but the body.

    ``body_is_none`` stands in for the body itself — abstractness (an
    abstract spec's disjointness cannot be decided through the
    abstraction) is the only property of a callee body that leaks into
    a caller's verdict.
    """
    parts = [
        "kind=", repr(getattr(decl, "kind", "function")),
        "static=", repr(getattr(decl, "static", True)),
        "name=", repr(decl.name),
        "return=", _dumps(decl.return_type, names),
        "params=", _dumps(decl.params, names),
        "modes=", _dumps(decl.modes, names),
        "matches=", _dumps(decl.matches, names),
        "ensures=", _dumps(decl.ensures, names),
        "body_is_none=", repr(decl.body is None),
    ]
    return "".join(parts)


class _TableIndex:
    """Memoized per-table structure shared by every task fingerprint."""

    def __init__(self, table: ProgramTable):
        self.table = table
        self._type_components: dict[str, tuple[str, set[str]]] = {}
        self._method_components: dict[str, tuple[str, set[str]]] = {}
        #: every name that resolves as a method or function somewhere
        self._method_names: set[str] = set(table.functions)
        for info in table.types.values():
            self._method_names.update(info.methods)

    # -- components ----------------------------------------------------

    def type_component(self, name: str) -> tuple[str, set[str]]:
        """``(dump, referenced-names)`` for one type's header.

        The dump covers the hierarchy facts a task's verdict can read:
        kind, supertype chain, fields, invariants, and the sorted
        implementation list.  Referenced names feed the closure —
        supertypes, implementations, field types, and every identifier
        in an invariant formula.
        """
        cached = self._type_components.get(name)
        if cached is not None:
            return cached
        info = self.table.types[name]
        names: set[str] = set()
        supertypes = self.table.supertypes(name)
        names.update(supertypes)
        impls = sorted(i.name for i in self.table.implementations_of(name))
        names.update(impls)
        parts = [
            "type=", repr(name),
            "kind=", "interface" if info.is_interface else "class",
            "abstract=", repr(getattr(info.decl, "abstract", False)),
            "super=", repr(info.superclass),
            "interfaces=", repr(sorted(info.interfaces)),
            "supertypes=", repr(supertypes),
            "impls=", repr(impls),
        ]
        for field_name in sorted(info.fields):
            field_decl = info.fields[field_name]
            parts += ["field=", _dumps(field_decl, names)]
        for inv in info.invariants:
            parts += [
                "invariant=", inv.visibility, ":", _dumps(inv.formula, names)
            ]
        component = ("".join(parts), names)
        self._type_components[name] = component
        return component

    def method_component(self, name: str) -> tuple[str, set[str]]:
        """``(dump, referenced-names)`` for every ``name`` in the program.

        One component per *name*, covering the specs of all same-named
        methods (sorted by owner) plus the same-named function, because
        call resolution may pick any of them (receiver-typed lookup or
        unique-name fallback) and canonicalization walks the whole
        overriding family.
        """
        cached = self._method_components.get(name)
        if cached is not None:
            return cached
        names: set[str] = set()
        parts = ["method-name=", repr(name)]
        for type_name in sorted(self.table.types):
            info = self.table.types[type_name]
            decl_info = info.methods.get(name)
            if decl_info is None:
                continue
            parts += ["owner=", repr(type_name), ":",
                      _method_spec_dump(decl_info.decl, names)]
            names.add(type_name)
        function = self.table.functions.get(name)
        if function is not None:
            parts += ["owner=<function>:", _method_spec_dump(function, names)]
        component = ("".join(parts), names)
        self._method_components[name] = component
        return component

    # -- per-task fingerprints -----------------------------------------

    def _task_roots(self, task: VerifyTask):
        """The declarations whose full text (spans included) is the task.

        Returns None when the task does not resolve in this table.
        """
        if task.kind == "invariants":
            info = self.table.types.get(task.type_name)
            if info is None:
                return None
            return list(info.invariants)
        if task.kind == "method":
            info = self.table.types.get(task.type_name)
            if info is None or task.method_name not in info.methods:
                return None
            return [info.methods[task.method_name].decl]
        decl = self.table.functions.get(task.method_name)
        return None if decl is None else [decl]

    def _closure(self, seeds: set[str]) -> tuple[set[str], set[str]]:
        """The type and method names ``seeds`` reach, to a fixpoint.

        Every name resolves as a type and as a method name; their
        components surface new names until the set is stable.
        """
        types_done: set[str] = set()
        methods_done: set[str] = set()
        pending = set(seeds)
        while pending:
            name = pending.pop()
            if name in self.table.types and name not in types_done:
                types_done.add(name)
                pending.update(
                    n for n in self.type_component(name)[1]
                    if n not in types_done
                )
            if name not in methods_done and name in self._method_names:
                methods_done.add(name)
                pending.update(
                    n
                    for n in self.method_component(name)[1]
                    if n not in types_done
                )
        return types_done, methods_done

    def fingerprint(self, task: VerifyTask) -> str | None:
        """The task's dependency fingerprint, or None (= always rerun)."""
        roots = self._task_roots(task)
        if roots is None:
            return None
        seeds: set[str] = set(_IMPLICIT_METHODS)
        if task.type_name:
            seeds.add(task.type_name)
        text = [f"task={task.kind}:{task.label}\n"
                f"viewer={task.type_name or None}\n"]
        if roots:
            # Spans render without the file name, so it goes in once.
            text.append(f"file={roots[0].span.filename}\n")
        for root in roots:
            _dump(root, text, seeds, spans=True)
            text.append("\n")
        digest = hashlib.sha256("".join(text).encode("utf-8"))
        types_done, methods_done = self._closure(seeds)
        for name in sorted(types_done):
            digest.update(self.type_component(name)[0].encode("utf-8"))
            digest.update(b"\n")
        for name in sorted(methods_done):
            digest.update(self.method_component(name)[0].encode("utf-8"))
            digest.update(b"\n")
        return digest.hexdigest()


def _table_index(table: ProgramTable) -> _TableIndex:
    index = getattr(table, "_dep_index", None)
    if index is None:
        index = _TableIndex(table)
        try:
            table._dep_index = index
        except AttributeError:
            pass
    return index


def task_fingerprint(table: ProgramTable, task: VerifyTask) -> str | None:
    """One task's dependency fingerprint (None = not indexable)."""
    try:
        return _table_index(table).fingerprint(task)
    except Exception:
        # The index is an optimization with a stated fallback: any
        # failure to prove coverage means "re-verify", never a guess.
        return None


def fingerprint_tasks(
    table: ProgramTable, tasks: list[VerifyTask] | None = None
) -> dict[VerifyTask, str | None]:
    """Fingerprints for ``tasks`` (default: all of the table's tasks)."""
    if tasks is None:
        tasks = list(iter_tasks(table))
    return {task: task_fingerprint(table, task) for task in tasks}
