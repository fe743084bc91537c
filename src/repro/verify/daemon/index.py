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

The closure is plain reachability over the names the components
reference (invariant formulas mention constructors, constructor specs
mention more types, ...), so it is the union of each seed's reach,
and one table's index walks each name's reach and hashes each seed
set's closure once.  Two tasks with equal fingerprints produce
byte-identical outcomes — each task
runs inside a pristine interning scope, so its outcome is a
deterministic function of exactly the table slice fingerprinted here.
When any step fails, the fingerprint is ``None``, which callers treat
as "always re-verify": the index degrades to full re-verification, it
never guesses.

What is reused across requests: the daemon passes the chunks its
:class:`~repro.lang.incremental.DeclarationMemo` keeps after
``settle``, and each piece rendered from their declarations (a task
root's digest and names, a type's own header, a method's spec) is kept
in that chunk's ``renders``.  That is sound because a kept chunk's
trees equal a fresh parse of it and ``settle`` has dropped every chunk
analysis rewrote; a dropped chunk takes its renderings with it.  What
any chunk can change (supertypes, implementation lists, the owners of
each method name, every reach and closure) is rebuilt per table.
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


def _method_spec_dump(decl) -> tuple[str, frozenset[str]]:
    """A method's caller-visible surface: everything but the body, and
    the names it references.

    ``body_is_none`` stands in for the body itself — abstractness (an
    abstract spec's disjointness cannot be decided through the
    abstraction) is the only property of a callee body that leaks into
    a caller's verdict.
    """
    names: set[str] = set()
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
    return "".join(parts), frozenset(names)


def _type_dump(info) -> tuple[str, frozenset[str]]:
    """A declared type's own header, and the names it references: kind,
    supertype declarations, fields and invariants, span-free."""
    names: set[str] = set()
    parts = [
        "kind=", "interface" if info.is_interface else "class",
        "abstract=", repr(getattr(info.decl, "abstract", False)),
        "super=", repr(info.superclass),
        "interfaces=", repr(sorted(info.interfaces)),
    ]
    for field_name in sorted(info.fields):
        parts += ["field=", _dumps(info.fields[field_name], names)]
    for inv in info.invariants:
        parts += ["invariant=", inv.visibility, ":", _dumps(inv.formula, names)]
    return "".join(parts), frozenset(names)


def _root_render(task: VerifyTask, roots: list) -> tuple[bytes, frozenset[str]]:
    """The digest of a task's own declarations, spans included, and the
    names they reference."""
    names: set[str] = set()
    text = [f"task={task.kind}:{task.label}\n"
            f"viewer={task.type_name or None}\n"]
    if roots:
        # Spans render without the file name, so it goes in once.
        text.append(f"file={roots[0].span.filename}\n")
    for root in roots:
        _dump(root, text, names, spans=True)
        text.append("\n")
    return _digest("".join(text)), frozenset(names)


def _digest(text: str) -> bytes:
    return hashlib.sha256(text.encode("utf-8")).digest()


class _TableIndex:
    """Per-table structure shared by every task fingerprint; a piece
    rendered from a declaration of one of ``chunks`` (the chunks kept
    after ``DeclarationMemo.settle``) is kept in that chunk's
    ``renders`` and reused from there."""

    def __init__(self, table: ProgramTable, chunks=()):
        self.table = table
        #: each kept top-level declaration's chunk renderings, by id
        self._kept = {
            id(decl): chunk.renders
            for chunk in chunks
            for decl in chunk.declarations
        }
        #: how many task roots came from the kept renderings
        self.roots_reused = 0
        #: name -> (digest, referenced names) of its components
        self._type_components: dict[str, tuple[bytes, frozenset[str]]] = {}
        self._method_components: dict[str, tuple[bytes, frozenset[str]]] = {}
        #: name -> every name reachable from it, itself included
        self._reach: dict[str, frozenset[str]] = {}
        #: seeds -> the digest of their closure's components
        self._closures: dict[frozenset[str], bytes] = {}
        #: method name -> (owner type or None, top-level declaration,
        #: declaration) of each same-named method, sorted, then function
        self._owners: dict[str, list[tuple]] = {}
        #: type name -> its concrete implementations, sorted
        self._impls: dict[str, list[str]] = {}
        for type_name in sorted(table.types):
            info = table.types[type_name]
            for method_name, method in info.methods.items():
                self._owners.setdefault(method_name, []).append(
                    (type_name, info.decl, method.decl)
                )
            if info.is_class and not getattr(info.decl, "abstract", False):
                for supertype in table.supertypes(type_name):
                    self._impls.setdefault(supertype, []).append(type_name)
        for name, decl in table.functions.items():
            self._owners.setdefault(name, []).append((None, decl, decl))

    def _piece(self, owner, key: tuple, render):
        """``render()``, kept with ``owner``'s chunk while it is kept."""
        renders = self._kept.get(id(owner))
        if renders is None:
            return render()
        piece = renders.get(key)
        if piece is None:
            piece = renders[key] = render()
        elif key[0] == "root":
            self.roots_reused += 1
        return piece

    # -- components ----------------------------------------------------

    def type_component(self, name: str) -> tuple[bytes, frozenset[str]]:
        """``(digest, referenced-names)`` for one type's header.

        The header covers the hierarchy facts a task's verdict can
        read: kind, supertype chain, fields, invariants, and the sorted
        implementation list.  Referenced names feed the closure —
        supertypes, implementations, field types, and every identifier
        in an invariant formula.
        """
        component = self._type_components.get(name)
        if component is None:
            info = self.table.types[name]
            dump, names = self._piece(
                info.decl, ("type", name), lambda: _type_dump(info)
            )
            supertypes = self.table.supertypes(name)
            impls = self._impls.get(name, [])
            component = self._type_components[name] = (
                _digest(f"type={name!r}supertypes={supertypes!r}"
                        f"impls={impls!r}{dump}"),
                names.union(supertypes, impls),
            )
        return component

    def method_component(self, name: str) -> tuple[bytes, frozenset[str]]:
        """``(digest, referenced-names)`` for every ``name`` in the program.

        One component per *name*, covering the specs of all same-named
        methods (sorted by owner) plus the same-named function, because
        call resolution may pick any of them (receiver-typed lookup or
        unique-name fallback) and canonicalization walks the whole
        overriding family.
        """
        component = self._method_components.get(name)
        if component is None:
            names: set[str] = set()
            parts = ["method-name=", repr(name)]
            for type_name, owner, decl in self._owners[name]:
                dump, spec_names = self._piece(
                    owner, ("spec", type_name, name),
                    functools.partial(_method_spec_dump, decl),
                )
                parts += ["owner=", repr(type_name), ":", dump]
                names |= spec_names
                if type_name is not None:
                    names.add(type_name)
            component = self._method_components[name] = (
                _digest("".join(parts)), frozenset(names)
            )
        return component

    # -- the closure ---------------------------------------------------

    def reach(self, name: str) -> frozenset[str]:
        """Every name ``name`` reaches through the components, itself
        included; the walk stops at a name whose reach is known."""
        reached = self._reach.get(name)
        if reached is not None:
            return reached
        seen = {name}
        stack = [name]
        while stack:
            current = stack.pop()
            successors = set()
            if current in self.table.types:
                successors |= self.type_component(current)[1]
            if current in self._owners:
                successors |= self.method_component(current)[1]
            for successor in successors:
                if successor in seen:
                    continue
                known = self._reach.get(successor)
                if known is None:
                    seen.add(successor)
                    stack.append(successor)
                else:
                    seen |= known
        reached = self._reach[name] = frozenset(seen)
        return reached

    def closure_digest(self, seeds: frozenset[str]) -> bytes:
        """The digest of the components of every name ``seeds`` reach:
        every type header, then every method name's specs, each sorted.
        """
        digest = self._closures.get(seeds)
        if digest is None:
            reached = frozenset().union(*map(self.reach, seeds))
            hasher = hashlib.sha256()
            for name in sorted(reached.intersection(self.table.types)):
                hasher.update(self.type_component(name)[0])
            for name in sorted(reached.intersection(self._owners)):
                hasher.update(self.method_component(name)[0])
            digest = self._closures[seeds] = hasher.digest()
        return digest

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

    def fingerprint(self, task: VerifyTask) -> str | None:
        """The task's dependency fingerprint, or None (= always rerun)."""
        roots = self._task_roots(task)
        if roots is None:
            return None
        info = self.table.types.get(task.type_name)
        root, names = self._piece(
            roots[0] if info is None else info.decl,
            ("root", task.kind, task.label),
            lambda: _root_render(task, roots),
        )
        # (a function task's empty type name reaches nothing)
        seeds = names.union(_IMPLICIT_METHODS, (task.type_name,))
        return hashlib.sha256(root + self.closure_digest(seeds)).hexdigest()


def _table_index(table: ProgramTable, chunks=()) -> _TableIndex:
    index = getattr(table, "_dep_index", None)
    if index is None:
        index = _TableIndex(table, chunks)
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
    table: ProgramTable, tasks: list[VerifyTask] | None = None, chunks=()
) -> dict[VerifyTask, str | None]:
    """Fingerprints for ``tasks`` (default: all of the table's tasks).

    ``chunks`` are the parsed chunks of the table's file that are still
    kept after ``settle``; their renderings are reused and filled.
    """
    _table_index(table, chunks)
    if tasks is None:
        tasks = list(iter_tasks(table))
    return {task: task_fingerprint(table, task) for task in tasks}


def renders_reused(table: ProgramTable) -> int:
    """How many of the table's task roots were taken from kept chunks."""
    index = getattr(table, "_dep_index", None)
    return 0 if index is None else index.roots_reused
