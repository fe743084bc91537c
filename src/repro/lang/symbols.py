"""Program symbol tables: classes, interfaces, methods, invariants.

Builds the environment every later stage queries: subtype tests,
method lookup through superclasses and interfaces, invariant
collection (with visibility filtering, Section 4.1), the set of
known implementations of an interface, and the canonical (most
abstract) declaration of an overriding method family, which both the
SMT encoding and the pattern algebra key their reasoning on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import TypeCheckError
from ..modes.mode import Mode, modes_of_method
from . import ast

_VIS_RANK = {"public": 2, "protected": 1, "private": 0}


@dataclass
class MethodInfo:
    """A method declaration plus its owner and mode inventory."""

    owner: str
    decl: ast.MethodDecl

    @property
    def name(self) -> str:
        return self.decl.name

    @property
    def kind(self) -> str:
        return self.decl.kind

    @property
    def params(self) -> list[ast.Param]:
        return self.decl.params

    @property
    def param_names(self) -> list[str]:
        return [p.name for p in self.decl.params]

    @property
    def is_constructor(self) -> bool:
        return self.decl.is_constructor

    @property
    def abstract(self) -> bool:
        return self.decl.body is None

    def result_type(self) -> ast.Type:
        if self.decl.is_constructor:
            return ast.Type(self.owner)
        assert self.decl.return_type is not None
        return self.decl.return_type

    def modes(self) -> list[Mode]:
        return modes_of_method(self.decl)


@dataclass
class TypeInfo:
    """A class or interface entry."""

    name: str
    decl: ast.ClassDecl | ast.InterfaceDecl | None
    superclass: str | None = None
    interfaces: list[str] = field(default_factory=list)
    fields: dict[str, ast.FieldDecl] = field(default_factory=dict)
    methods: dict[str, MethodInfo] = field(default_factory=dict)
    invariants: list[ast.InvariantDecl] = field(default_factory=list)

    @property
    def is_interface(self) -> bool:
        return isinstance(self.decl, ast.InterfaceDecl)

    @property
    def is_class(self) -> bool:
        return isinstance(self.decl, ast.ClassDecl)


class ProgramTable:
    """All global information about a parsed program."""

    BUILTIN_TYPES = ("Object", "String")

    def __init__(self, program: ast.Program):
        self.program = program
        self.types: dict[str, TypeInfo] = {}
        self.functions: dict[str, ast.FunctionDecl] = {}
        for builtin in self.BUILTIN_TYPES:
            self.types[builtin] = TypeInfo(builtin, None)
        self.types["String"].superclass = "Object"
        self._supertypes: dict[str, list[str]] = {}
        #: the lazy axiom templates of this program, filled as axioms
        #: first fire (see :mod:`repro.verify.templates`)
        self.axiom_templates: dict = {}
        #: indices into ``program.declarations`` of the declarations
        #: whose formulas analysis rewrote (:func:`repro.lang.check.analyze`)
        self.rewritten: set[int] = set()
        for decl in program.declarations:
            if isinstance(decl, ast.FunctionDecl):
                if decl.name in self.functions:
                    raise TypeCheckError(
                        f"duplicate function {decl.name}", decl.span
                    )
                self.functions[decl.name] = decl
            else:
                self._add_type(decl)
        self._check_hierarchy()

    def __getstate__(self) -> dict:
        # Templates hold recorded calls; a process that unpickles the
        # table (a pool worker) records its own.
        state = self.__dict__.copy()
        state["axiom_templates"] = {}
        return state

    def _add_type(self, decl: ast.ClassDecl | ast.InterfaceDecl) -> None:
        if decl.name in self.types:
            raise TypeCheckError(f"duplicate type {decl.name}", decl.span)
        info = TypeInfo(decl.name, decl)
        if isinstance(decl, ast.InterfaceDecl):
            info.interfaces = list(decl.extends)
            methods = decl.methods
        else:
            info.superclass = decl.superclass or "Object"
            info.interfaces = list(decl.interfaces)
            for f in decl.fields:
                if f.name in info.fields:
                    raise TypeCheckError(
                        f"duplicate field {decl.name}.{f.name}", f.span
                    )
                info.fields[f.name] = f
            methods = decl.methods
        for m in methods:
            if m.name in info.methods:
                raise TypeCheckError(
                    f"duplicate method {decl.name}.{m.name} "
                    "(overloading is not supported; use modes instead)",
                    m.span,
                )
            info.methods[m.name] = MethodInfo(decl.name, m)
        info.invariants = list(decl.invariants)
        self.types[decl.name] = info

    def _check_hierarchy(self) -> None:
        for info in self.types.values():
            if info.superclass and info.superclass not in self.types:
                raise TypeCheckError(
                    f"{info.name} extends unknown type {info.superclass}"
                )
            for iface in info.interfaces:
                target = self.types.get(iface)
                if target is None:
                    raise TypeCheckError(
                        f"{info.name} references unknown interface {iface}"
                    )
                if info.is_class and not target.is_interface:
                    raise TypeCheckError(
                        f"{info.name} implements non-interface {iface}"
                    )
        # Reject inheritance cycles.
        for name in self.types:
            seen: set[str] = set()
            for ancestor in self._ancestry(name):
                if ancestor in seen:
                    raise TypeCheckError(f"inheritance cycle through {ancestor}")
                seen.add(ancestor)

    # -- hierarchy queries ------------------------------------------------

    def _ancestry(self, name: str):
        """All supertypes (including self), breadth-first, may repeat."""
        queue = [name]
        emitted = 0
        while queue and emitted < 10 * len(self.types) + 10:
            current = queue.pop(0)
            emitted += 1
            yield current
            info = self.types.get(current)
            if info is None:
                continue
            if info.superclass:
                queue.append(info.superclass)
            queue.extend(info.interfaces)

    def supertypes(self, name: str) -> list[str]:
        """All supertypes of ``name`` including itself, deduplicated.

        The hierarchy is fixed once the table is built, so each answer
        is computed once; callers must not mutate the list.
        """
        out = self._supertypes.get(name)
        if out is None:
            out = []
            for t in self._ancestry(name):
                if t not in out:
                    out.append(t)
            self._supertypes[name] = out
        return out

    def is_subtype(self, sub: ast.Type, sup: ast.Type) -> bool:
        if sub == sup:
            return True
        if sub == ast.NULL_TYPE and not sup.is_primitive:
            return True
        if sub.is_primitive or sup.is_primitive:
            return False
        if sup.name == "Object":
            return True
        return sup.name in self.supertypes(sub.name)

    def implementations_of(self, name: str) -> list[TypeInfo]:
        """Concrete classes that are subtypes of ``name``."""
        return [
            info
            for info in self.types.values()
            if info.is_class
            and not getattr(info.decl, "abstract", False)
            and name in self.supertypes(info.name)
        ]

    # -- member lookup ------------------------------------------------------

    def lookup_function(self, name: str) -> MethodInfo | None:
        decl = self.functions.get(name)
        if decl is None:
            return None
        return MethodInfo("", decl)  # type: ignore[arg-type]

    def lookup_method(self, type_name: str, method: str) -> MethodInfo | None:
        for ancestor in self.supertypes(type_name):
            info = self.types.get(ancestor)
            if info is not None and method in info.methods:
                return info.methods[method]
        return None

    def canonical(self, method: MethodInfo) -> MethodInfo:
        """The highest supertype's declaration of this method.

        Specifications are modular: client reasoning must go through the
        most abstract declaration, so all call sites of an overriding
        family share one success predicate and one spec.  Ancestors
        declaring the name with a different arity are skipped; an
        owner-less function is its own canonical declaration.
        """
        if not method.owner:
            return method
        for ancestor in reversed(self.supertypes(method.owner)):
            info = self.types.get(ancestor)
            if info is not None and method.name in info.methods:
                candidate = info.methods[method.name]
                if len(candidate.params) == len(method.params):
                    return candidate
        return method

    def lookup_field(self, type_name: str, field_name: str) -> ast.FieldDecl | None:
        for ancestor in self.supertypes(type_name):
            info = self.types.get(ancestor)
            if info is not None and field_name in info.fields:
                return info.fields[field_name]
        return None

    def equality_constructor(self, type_name: str) -> MethodInfo | None:
        """The `equals` equality constructor, if declared (Section 3.2)."""
        method = self.lookup_method(type_name, "equals")
        if method is not None and method.kind == "equality":
            return method
        return None

    def invariants_visible_from(
        self, type_name: str, viewer: str | None
    ) -> list[tuple[str, ast.InvariantDecl]]:
        """Invariants of ``type_name`` and supertypes visible to ``viewer``.

        ``viewer=None`` means client code: only public invariants apply.
        A class sees its own private invariants (Section 4.1).
        """
        out: list[tuple[str, ast.InvariantDecl]] = []
        for ancestor in self.supertypes(type_name):
            info = self.types.get(ancestor)
            if info is None:
                continue
            for inv in info.invariants:
                if inv.visibility == "public" or viewer == ancestor:
                    out.append((ancestor, inv))
        return out

    def all_field_names(self, type_name: str) -> list[str]:
        out: list[str] = []
        for ancestor in self.supertypes(type_name):
            info = self.types.get(ancestor)
            if info is not None:
                out.extend(f for f in info.fields if f not in out)
        return out
