"""Semantic analysis: disjunction normalisation and light type inference.

Two jobs live here:

1. **Disjunction normalisation.**  The parser binds ``|``/``#`` between
   ``||`` and ``&&``, which is right for formula-level disjunctions
   (Figure 4) but wrong for value-level ones like ``x = 1 | 2``
   (Section 3.3).  Because pattern disjunction distributes over
   comparison -- ``x = (p # q)`` and ``(x = p) # (x = q)`` have the
   same solutions -- we repair the tree semantically: when an operand
   of a formula-position ``|``/``#`` is a *value* pattern, the nearest
   comparison on the left is distributed onto it.

2. **Light type inference**, enough to drive (1) and later phases:
   expression types from literals, declared locals/params, fields, and
   method signatures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import TypeCheckError
from . import ast
from .symbols import ProgramTable


@dataclass
class TypeEnv:
    """Variable -> type, with lexical nesting."""

    table: ProgramTable
    owner: str | None = None  # enclosing class/interface name
    vars: dict[str, ast.Type] = field(default_factory=dict)

    def child(self) -> "TypeEnv":
        return TypeEnv(self.table, self.owner, dict(self.vars))

    def bind(self, name: str, type_: ast.Type) -> None:
        self.vars[name] = type_

    def lookup(self, name: str) -> ast.Type | None:
        if name in self.vars:
            return self.vars[name]
        if name == "this" and self.owner is not None:
            return ast.Type(self.owner)
        if self.owner is not None:
            # Unqualified field reference inside a class.
            f = self.table.lookup_field(self.owner, name)
            if f is not None:
                return f.type
        return None


def infer_type(expr: ast.Expr, env: TypeEnv) -> ast.Type | None:
    """Best-effort static type of an expression; None when unknown."""
    table = env.table
    if isinstance(expr, ast.Lit):
        if isinstance(expr.value, bool):
            return ast.BOOLEAN_TYPE
        if isinstance(expr.value, int):
            return ast.INT_TYPE
        if isinstance(expr.value, str):
            return ast.STRING_TYPE
        return ast.NULL_TYPE
    if isinstance(expr, ast.Var):
        return env.lookup(expr.name)
    if isinstance(expr, ast.VarDecl):
        return expr.type
    if isinstance(expr, ast.Wildcard):
        return None
    if isinstance(expr, ast.Binary):
        if expr.op in ast.ARITH_OPS:
            return ast.INT_TYPE
        return ast.BOOLEAN_TYPE
    if isinstance(expr, (ast.Not, ast.NotAll)):
        return ast.BOOLEAN_TYPE
    if isinstance(expr, (ast.PatOr, ast.PatAnd)):
        left = infer_type(expr.left, env)
        return left if left is not None else infer_type(expr.right, env)
    if isinstance(expr, ast.Where):
        return infer_type(expr.pattern, env)
    if isinstance(expr, ast.TupleExpr):
        items = [infer_type(i, env) or ast.OBJECT_TYPE for i in expr.items]
        return ast.tuple_type(items)
    if isinstance(expr, ast.FieldAccess):
        recv = infer_type(expr.receiver, env)
        if recv is None or recv.is_primitive:
            return None
        f = table.lookup_field(recv.name, expr.name)
        return f.type if f is not None else None
    if isinstance(expr, ast.Call):
        return _infer_call_type(expr, env)
    return None


def _infer_call_type(expr: ast.Call, env: TypeEnv) -> ast.Type | None:
    table = env.table
    # Class constructor call: `Nat(0)`, `ZNat(val - 1)`.
    if expr.qualifier is None and expr.receiver is None:
        if expr.name in table.types:
            return ast.Type(expr.name)
        if expr.name in table.functions:
            return table.functions[expr.name].return_type
        # Unqualified method/constructor in a class body.
        if env.owner is not None:
            method = table.lookup_method(env.owner, expr.name)
            if method is not None:
                if method.is_constructor:
                    # Receiver-less constructor invocation acts as a
                    # predicate on `this`/the matched value (Section 3.1).
                    return ast.BOOLEAN_TYPE
                return method.result_type()
        return None
    if expr.qualifier is not None:
        # `ZNat.succ(n)` -- creation through a specific implementation.
        method = table.lookup_method(expr.qualifier, expr.name)
        if method is None:
            return None
        if method.is_constructor:
            return ast.Type(expr.qualifier)
        return method.result_type()
    recv = infer_type(expr.receiver, env)
    if recv is None or recv.is_primitive:
        return None
    method = table.lookup_method(recv.name, expr.name)
    if method is None:
        return None
    if method.is_constructor:
        # `n.succ(y)` tests/matches n against the pattern: boolean.
        return ast.BOOLEAN_TYPE
    return method.result_type()


# ---------------------------------------------------------------------------
# Disjunction normalisation
# ---------------------------------------------------------------------------

FORMULA = "formula"
VALUE = "value"


def _is_value_operand(expr: ast.Expr, env: TypeEnv) -> bool:
    """Should this ``|``/``#`` operand be folded into a comparison?"""
    type_ = infer_type(expr, env)
    if type_ is not None:
        return type_ != ast.BOOLEAN_TYPE
    # Unknown type: patterns that cannot possibly be formulas.
    return isinstance(
        expr, (ast.TupleExpr, ast.VarDecl, ast.Wildcard, ast.Lit, ast.Var)
    )


def _distribute_value(
    left: ast.Expr, right: ast.Expr, disjoint: bool, span
) -> ast.Expr | None:
    """Rewrite ``left | right`` where ``right`` is a value pattern.

    Finds the rightmost comparison within ``left`` (descending through
    ``&&`` chains and already-normalised disjunction chains) and turns
    it into a pattern disjunction with ``right``::

        A && (x = p)  |  q     ==>   A && ((x = p) | (x = q))

    which is the reading JMatch gives value-level ``|``/``#`` operands
    (they could only have parsed as part of that comparison's
    right-hand side).  Returns None when no comparison exists.
    """
    if isinstance(left, ast.Binary) and left.op in ast.COMPARE_OPS:
        folded = ast.Binary(left.op, left.left, right, span=span)
        return ast.PatOr(left, folded, disjoint=disjoint, span=span)
    if isinstance(left, ast.Binary) and left.op == "&&":
        new_right = _distribute_value(left.right, right, disjoint, span)
        if new_right is not None:
            left.right = new_right
            return left
        return None
    if isinstance(left, ast.PatOr):
        new_right = _distribute_value(left.right, right, disjoint, span)
        if new_right is not None:
            left.right = new_right
            return left
        new_left = _distribute_value(left.left, right, disjoint, span)
        if new_left is not None:
            left.left = new_left
            return left
        return None
    return None


class Normalizer:
    """Rewrites every formula of a program in place.

    Most rewrites hand back the node they were given; distributing a
    comparison (:func:`_distribute_value`) is the one that changes a
    tree, so :meth:`run` records which declarations it changed in
    ``table.rewritten``.
    """

    def __init__(self, table: ProgramTable):
        self.table = table
        #: comparisons distributed so far
        self.distributed = 0

    def run(self) -> None:
        for index, decl in enumerate(self.table.program.declarations):
            before = self.distributed
            if isinstance(decl, ast.FunctionDecl):
                self._do_callable(decl, owner=None)
            else:
                self._do_type(decl)
            if self.distributed != before:
                self.table.rewritten.add(index)

    def _do_type(self, decl: ast.ClassDecl | ast.InterfaceDecl) -> None:
        env = TypeEnv(self.table, decl.name)
        for inv in decl.invariants:
            inv.formula = self.rewrite(inv.formula, FORMULA, env)
        for method in decl.methods:
            self._do_callable(method, owner=decl.name)

    def _do_callable(
        self, decl: ast.MethodDecl | ast.FunctionDecl, owner: str | None
    ) -> None:
        env = TypeEnv(self.table, owner)
        for param in decl.params:
            env.bind(param.name, param.type)
        if isinstance(decl, ast.MethodDecl) and decl.is_constructor:
            env.bind("result", ast.Type(owner))
        elif decl.return_type is not None:
            env.bind("result", decl.return_type)
        if decl.matches is not None:
            decl.matches = self.rewrite(decl.matches, FORMULA, env.child())
        if decl.ensures is not None:
            decl.ensures = self.rewrite(decl.ensures, FORMULA, env.child())
        if isinstance(decl.body, ast.Expr):
            decl.body = self.rewrite(decl.body, FORMULA, env.child())
        elif isinstance(decl.body, ast.Block):
            self._do_stmts(decl.body.statements, env.child())

    def _do_stmts(self, stmts: list[ast.Stmt], env: TypeEnv) -> None:
        for stmt in stmts:
            self._do_stmt(stmt, env)

    def _do_stmt(self, stmt: ast.Stmt, env: TypeEnv) -> None:
        if isinstance(stmt, ast.Block):
            self._do_stmts(stmt.statements, env.child())
        elif isinstance(stmt, (ast.LetStmt,)):
            stmt.formula = self.rewrite(stmt.formula, FORMULA, env)
            _bind_declared(stmt.formula, env)
        elif isinstance(stmt, ast.ExprStmt):
            stmt.expr = self.rewrite(stmt.expr, FORMULA, env)
            _bind_declared(stmt.expr, env)
        elif isinstance(stmt, ast.LocalDecl):
            env.bind(stmt.name, stmt.type)
        elif isinstance(stmt, ast.SwitchStmt):
            stmt.subject = self.rewrite(stmt.subject, VALUE, env)
            for case in stmt.cases:
                case_env = env.child()
                case.patterns = [
                    self.rewrite(p, VALUE, case_env) for p in case.patterns
                ]
                for p in case.patterns:
                    _bind_declared(p, case_env)
                self._do_stmts(case.body, case_env)
            if stmt.default is not None:
                self._do_stmts(stmt.default, env.child())
        elif isinstance(stmt, ast.CondStmt):
            for arm in stmt.arms:
                arm_env = env.child()
                arm.formula = self.rewrite(arm.formula, FORMULA, arm_env)
                _bind_declared(arm.formula, arm_env)
                self._do_stmts(arm.body, arm_env)
            if stmt.else_body is not None:
                self._do_stmts(stmt.else_body, env.child())
        elif isinstance(stmt, ast.IfStmt):
            branch_env = env.child()
            stmt.condition = self.rewrite(stmt.condition, FORMULA, branch_env)
            _bind_declared(stmt.condition, branch_env)
            self._do_stmts(stmt.then_body, branch_env)
            if stmt.else_body is not None:
                self._do_stmts(stmt.else_body, env.child())
        elif isinstance(stmt, (ast.ForeachStmt, ast.WhileStmt)):
            body_env = env.child()
            formula = stmt.formula if isinstance(stmt, ast.ForeachStmt) else stmt.condition
            formula = self.rewrite(formula, FORMULA, body_env)
            if isinstance(stmt, ast.ForeachStmt):
                stmt.formula = formula
            else:
                stmt.condition = formula
            _bind_declared(formula, body_env)
            self._do_stmts(stmt.body, body_env)
        elif isinstance(stmt, ast.ReturnStmt):
            if stmt.value is not None:
                stmt.value = self.rewrite(stmt.value, VALUE, env)
        elif isinstance(stmt, ast.AssignStmt):
            stmt.value = self.rewrite(stmt.value, VALUE, env)

    # -- expression rewriting ------------------------------------------------

    def rewrite(self, expr: ast.Expr, position: str, env: TypeEnv) -> ast.Expr:
        if isinstance(expr, ast.Binary):
            if expr.op in ast.LOGIC_OPS:
                expr.left = self.rewrite(expr.left, FORMULA, env)
                expr.right = self.rewrite(expr.right, FORMULA, env)
            elif expr.op in ast.COMPARE_OPS:
                expr.left = self.rewrite(expr.left, VALUE, env)
                expr.right = self.rewrite(expr.right, VALUE, env)
            else:
                expr.left = self.rewrite(expr.left, VALUE, env)
                expr.right = self.rewrite(expr.right, VALUE, env)
            return expr
        if isinstance(expr, ast.Not):
            expr.operand = self.rewrite(expr.operand, FORMULA, env)
            return expr
        if isinstance(expr, ast.PatOr):
            expr.left = self.rewrite(expr.left, position, env)
            if position == FORMULA and _is_value_operand(expr.right, env):
                right = self.rewrite(expr.right, VALUE, env)
                rewritten = _distribute_value(
                    expr.left, right, expr.disjoint, expr.span
                )
                if rewritten is None:
                    raise TypeCheckError(
                        f"cannot interpret pattern operand {right} of "
                        f"'{expr.op}': no comparison to distribute over",
                        expr.span,
                    )
                self.distributed += 1
                return rewritten
            expr.right = self.rewrite(expr.right, position, env)
            return expr
        if isinstance(expr, ast.PatAnd):
            expr.left = self.rewrite(expr.left, position, env)
            expr.right = self.rewrite(expr.right, position, env)
            return expr
        if isinstance(expr, ast.Where):
            expr.pattern = self.rewrite(expr.pattern, position, env)
            expr.condition = self.rewrite(expr.condition, FORMULA, env)
            return expr
        if isinstance(expr, ast.TupleExpr):
            expr.items = [self.rewrite(i, VALUE, env) for i in expr.items]
            return expr
        if isinstance(expr, ast.Call):
            if expr.receiver is not None:
                expr.receiver = self.rewrite(expr.receiver, VALUE, env)
            expr.args = [self.rewrite(a, VALUE, env) for a in expr.args]
            return expr
        if isinstance(expr, ast.FieldAccess):
            expr.receiver = self.rewrite(expr.receiver, VALUE, env)
            return expr
        if isinstance(expr, ast.VarDecl):
            if expr.name is not None:
                env.bind(expr.name, expr.type)
            return expr
        return expr


def _bind_declared(expr: ast.Expr, env: TypeEnv) -> None:
    """Record declaration-pattern bindings so later statements see them."""
    for node in ast.walk(expr):
        if isinstance(node, ast.VarDecl) and node.name is not None:
            env.bind(node.name, node.type)


def normalize_formula(
    expr: ast.Expr, table: ProgramTable, owner: str | None = None
) -> ast.Expr:
    """Normalise a standalone formula (as `analyze` does for programs)."""
    return Normalizer(table).rewrite(expr, FORMULA, TypeEnv(table, owner))


def analyze(program: ast.Program) -> ProgramTable:
    """Build the symbol table and normalise the program's formulas."""
    table = ProgramTable(program)
    Normalizer(table).run()
    return table
