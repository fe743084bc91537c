"""Abstract syntax for the JMatch 2.0 subset.

JMatch deliberately blurs the line between *formulas*, *patterns*, and
*expressions*: the same syntax tree node can be evaluated forward,
matched against a value, or solved for its unknowns depending on mode
(Section 2 of the paper).  We therefore use a single ``Expr`` hierarchy
for all three roles and let the mode analysis decide how each node is
used.

Every node carries a :class:`~repro.errors.Span` for diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from ..errors import NO_SPAN, Span

# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Type:
    """A source-level type: ``int``, ``boolean``, a class name, or a tuple."""

    name: str
    elements: tuple["Type", ...] = ()

    def __str__(self) -> str:
        if self.name == "tuple":
            return "(" + ", ".join(str(e) for e in self.elements) + ")"
        return self.name

    @property
    def is_primitive(self) -> bool:
        return self.name in ("int", "boolean")

    @property
    def is_tuple(self) -> bool:
        return self.name == "tuple"


INT_TYPE = Type("int")
BOOLEAN_TYPE = Type("boolean")
OBJECT_TYPE = Type("Object")
NULL_TYPE = Type("null")
STRING_TYPE = Type("String")
VOID_TYPE = Type("void")


def tuple_type(elements: list[Type]) -> Type:
    return Type("tuple", tuple(elements))


# ---------------------------------------------------------------------------
# Expressions / formulas / patterns
# ---------------------------------------------------------------------------


@dataclass
class Expr:
    """Base class for formula/pattern/expression nodes."""

    span: Span = field(default=NO_SPAN, kw_only=True)


@dataclass
class Lit(Expr):
    """Integer, boolean, string, or null literal."""

    value: Union[int, bool, str, None]

    def __str__(self) -> str:
        if self.value is None:
            return "null"
        if isinstance(self.value, bool):
            return "true" if self.value else "false"
        if isinstance(self.value, str):
            return repr(self.value)
        return str(self.value)


@dataclass
class Var(Expr):
    """A variable reference (or binding occurrence, resolved in context).

    ``this`` and ``result`` are ordinary :class:`Var` nodes with those
    reserved names.
    """

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass
class VarDecl(Expr):
    """A declaration pattern ``T x`` (``name`` is None for ``T _``)."""

    type: Type
    name: Optional[str]

    def __str__(self) -> str:
        return f"{self.type} {self.name or '_'}"


@dataclass
class Wildcard(Expr):
    """The ``_`` pattern: matches anything, binds nothing."""

    def __str__(self) -> str:
        return "_"


@dataclass
class Binary(Expr):
    """Arithmetic (`+ - * / %`), comparison (`= != < <= > >=`),
    or logical (`&& ||`) binary operation."""

    op: str
    left: Expr
    right: Expr

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


ARITH_OPS = frozenset({"+", "-", "*", "/", "%"})
COMPARE_OPS = frozenset({"=", "!=", "<", "<=", ">", ">="})
LOGIC_OPS = frozenset({"&&", "||"})


@dataclass
class Not(Expr):
    """Logical negation ``!f``."""

    operand: Expr

    def __str__(self) -> str:
        return f"!{self.operand}"


@dataclass
class PatOr(Expr):
    """Pattern/formula disjunction: ``#`` (overlapping) or ``|`` (disjoint).

    Section 3.3: ``#`` matches against all alternatives; ``|`` requires
    the alternatives to be provably disjoint, so at most one solution
    is produced.
    """

    left: Expr
    right: Expr
    disjoint: bool

    @property
    def op(self) -> str:
        return "|" if self.disjoint else "#"

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass
class PatAnd(Expr):
    """The ``as`` pattern conjunction: both patterns match one value."""

    left: Expr
    right: Expr

    def __str__(self) -> str:
        return f"({self.left} as {self.right})"


@dataclass
class Where(Expr):
    """``p where (f)``: pattern ``p`` refined by formula ``f``."""

    pattern: Expr
    condition: Expr

    def __str__(self) -> str:
        return f"({self.pattern} where {self.condition})"


@dataclass
class TupleExpr(Expr):
    """Tuple pattern ``(p1, ..., pn)``; not a first-class value."""

    items: list[Expr]

    def __str__(self) -> str:
        return "(" + ", ".join(str(i) for i in self.items) + ")"


@dataclass
class Call(Expr):
    """Any invocation: method, named constructor, or class constructor.

    Shapes (Section 3.1):

    * ``succ(n)``            -- unqualified; receiver is ``this`` or the
      matched value, resolved by context,
    * ``n.succ(y)``          -- explicit receiver,
    * ``ZNat.succ(n)``       -- class-qualified creation,
    * ``Nat(0)``             -- class constructor (name is a class).
    """

    receiver: Optional[Expr]
    qualifier: Optional[str]  # a class name, for static-qualified calls
    name: str
    args: list[Expr]

    def __str__(self) -> str:
        prefix = ""
        if self.receiver is not None:
            prefix = f"{self.receiver}."
        elif self.qualifier is not None:
            prefix = f"{self.qualifier}."
        return f"{prefix}{self.name}({', '.join(str(a) for a in self.args)})"


@dataclass
class FieldAccess(Expr):
    """``e.f`` -- reading a field of an object."""

    receiver: Expr
    name: str

    def __str__(self) -> str:
        return f"{self.receiver}.{self.name}"


@dataclass
class NotAll(Expr):
    """The opaque refinement predicate ``notall(x1, ..., xn)`` (Sec. 4.4)."""

    names: list[str]

    def __str__(self) -> str:
        return f"notall({', '.join(self.names)})"


def children(expr: Expr) -> tuple[Expr, ...]:
    """The direct sub-expressions of ``expr``, in source order except
    that a call's arguments come before its receiver.  Literals,
    variables, declarations, ``_`` and ``notall`` have none."""
    cls = type(expr)
    if cls is Binary or cls is PatOr or cls is PatAnd:
        return (expr.left, expr.right)
    if cls is Call:
        if expr.receiver is None:
            return tuple(expr.args)
        return (*expr.args, expr.receiver)
    if cls is FieldAccess:
        return (expr.receiver,)
    if cls is Not:
        return (expr.operand,)
    if cls is Where:
        return (expr.pattern, expr.condition)
    if cls is TupleExpr:
        return tuple(expr.items)
    return ()


def walk(expr: Expr) -> Iterator[Expr]:
    """``expr`` and every expression below it, each node before its
    children and the children in :func:`children` order."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Stmt:
    span: Span = field(default=NO_SPAN, kw_only=True)


@dataclass
class Block(Stmt):
    statements: list[Stmt]


@dataclass
class LetStmt(Stmt):
    """``let f;`` -- solve ``f``; its bindings scope over the rest of the
    block.  ``T x = e;`` is sugar for ``let T x = e;`` (Section 4)."""

    formula: Expr


@dataclass
class LocalDecl(Stmt):
    """``T x;`` -- declare a local with no immediate binding."""

    type: Type
    name: str


@dataclass
class SwitchCase:
    patterns: list[Expr]  # several `case p:` labels may share a body
    body: list[Stmt]
    span: Span = NO_SPAN


@dataclass
class SwitchStmt(Stmt):
    subject: Expr
    cases: list[SwitchCase]
    default: Optional[list[Stmt]] = None


@dataclass
class CondArm:
    formula: Expr
    body: list[Stmt]
    span: Span = NO_SPAN


@dataclass
class CondStmt(Stmt):
    """``cond { (f1) {s1} ... else s }`` -- first true formula wins."""

    arms: list[CondArm]
    else_body: Optional[list[Stmt]] = None


@dataclass
class IfStmt(Stmt):
    condition: Expr
    then_body: list[Stmt]
    else_body: Optional[list[Stmt]] = None


@dataclass
class ForeachStmt(Stmt):
    """``foreach (f) { s }`` -- execute ``s`` for every solution of ``f``."""

    formula: Expr
    body: list[Stmt]


@dataclass
class WhileStmt(Stmt):
    condition: Expr
    body: list[Stmt]


@dataclass
class ReturnStmt(Stmt):
    value: Optional[Expr] = None


@dataclass
class ExprStmt(Stmt):
    expr: Expr


@dataclass
class AssignStmt(Stmt):
    """``x = e;`` re-binding an existing local (imperative assignment)."""

    target: Expr  # Var or FieldAccess
    value: Expr


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass
class Param:
    type: Type
    name: str
    span: Span = NO_SPAN

    def __str__(self) -> str:
        return f"{self.type} {self.name}"


@dataclass
class ModeDecl:
    """``returns(x, y)`` or ``iterates(x, y)``.

    ``names`` lists the *unknowns* of the mode among the parameters.
    The forward mode (all parameters known, ``result`` unknown) is
    implicit for non-predicate methods; ``returns()`` on a
    boolean-returning method or constructor is the predicate/pattern
    mode in which everything is known.
    """

    iterative: bool
    names: list[str]
    span: Span = NO_SPAN

    def __str__(self) -> str:
        keyword = "iterates" if self.iterative else "returns"
        return f"{keyword}({', '.join(self.names)})"


@dataclass
class InvariantDecl:
    visibility: str  # public / protected / private
    formula: Expr
    span: Span = NO_SPAN


@dataclass
class MethodDecl:
    """A method, named constructor, or class constructor.

    ``kind`` is one of:

    * ``"method"`` -- ordinary (possibly static, possibly multimodal),
    * ``"constructor"`` -- a *named constructor* (Section 3.1); the name
      differs from the class and it may appear in interfaces,
    * ``"class-constructor"`` -- a JMatch class constructor whose name
      equals the class name,
    * ``"equality"`` -- the special ``equals`` equality constructor
      (Section 3.2).
    """

    kind: str
    visibility: str
    static: bool
    return_type: Optional[Type]  # None for constructors (implicitly the class)
    name: str
    params: list[Param]
    modes: list[ModeDecl]
    matches: Optional[Expr] = None
    ensures: Optional[Expr] = None
    body: Optional[Union[Expr, Block]] = None  # Expr = declarative formula body
    abstract: bool = False
    span: Span = NO_SPAN

    @property
    def is_constructor(self) -> bool:
        return self.kind in ("constructor", "class-constructor", "equality")

    @property
    def declarative(self) -> bool:
        return isinstance(self.body, Expr)


@dataclass
class FieldDecl:
    visibility: str
    type: Type
    name: str
    span: Span = NO_SPAN


@dataclass
class ClassDecl:
    name: str
    interfaces: list[str]
    superclass: Optional[str]
    fields: list[FieldDecl]
    invariants: list[InvariantDecl]
    methods: list[MethodDecl]
    abstract: bool = False
    span: Span = NO_SPAN

    @property
    def is_interface(self) -> bool:
        return False


@dataclass
class InterfaceDecl:
    name: str
    extends: list[str]
    invariants: list[InvariantDecl]
    methods: list[MethodDecl]  # all implicitly abstract
    span: Span = NO_SPAN

    @property
    def is_interface(self) -> bool:
        return True


@dataclass
class FunctionDecl:
    """A top-level static function (for example programs and tests)."""

    return_type: Type
    name: str
    params: list[Param]
    modes: list[ModeDecl]
    matches: Optional[Expr] = None
    ensures: Optional[Expr] = None
    body: Optional[Union[Expr, Block]] = None
    span: Span = NO_SPAN

    # Adapter properties so functions share MethodInfo-based machinery.
    kind = "function"
    visibility = "public"
    static = True
    abstract = False

    @property
    def is_constructor(self) -> bool:
        return False

    @property
    def declarative(self) -> bool:
        return isinstance(self.body, Expr)


@dataclass
class Program:
    declarations: list[Union[ClassDecl, InterfaceDecl, FunctionDecl]]
    #: a digest of the file name and source text the program was parsed
    #: from (:func:`repro.lang.parser.parse_program`).  Equal text gives
    #: an equal analysed program, so the query cache salts with it
    #: (:class:`repro.verify.translate.EncodeContext`); it is no part of
    #: the tree, so repr and equality ignore it.
    text_digest: str = field(repr=False, compare=False)

    def classes(self) -> list[ClassDecl]:
        return [d for d in self.declarations if isinstance(d, ClassDecl)]

    def interfaces(self) -> list[InterfaceDecl]:
        return [d for d in self.declarations if isinstance(d, InterfaceDecl)]

    def functions(self) -> list[FunctionDecl]:
        return [d for d in self.declarations if isinstance(d, FunctionDecl)]
