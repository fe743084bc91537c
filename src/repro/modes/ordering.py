"""Atom reordering and solvability analysis.

Both the runtime solver (Section 2.3) and the matching-precondition
extractor (Section 4.3) need the same analysis: given a conjunction of
atoms and a set of already-known variables, reorder the atoms so that
as many unknowns as possible are solved left-to-right, identifying the
atoms whose unknowns are unsolvable.

The analysis is syntactic and mildly conservative, like the JMatch
compiler's: an atom is *solvable* when every unknown it mentions sits
in a position the solver can invert (a variable/declaration pattern, a
tuple component, a constructor argument backed by a pattern mode, one
side of an invertible arithmetic operation, ...).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..lang import ast
from ..lang.symbols import MethodInfo, ProgramTable
from .mode import RESULT, Mode, select_mode


def declared_vars(expr: ast.Expr) -> set[str]:
    """Names bound by declaration patterns inside ``expr``."""
    return {
        node.name
        for node in ast.walk(expr)
        if isinstance(node, ast.VarDecl) and node.name is not None
    }


def free_vars(expr: ast.Expr) -> set[str]:
    """Variable names referenced (not declared) in ``expr``."""
    out: set[str] = set()
    for node in ast.walk(expr):
        if isinstance(node, ast.Var):
            out.add(node.name)
        elif isinstance(node, ast.NotAll):
            out.update(node.names)
    return out


def all_vars(expr: ast.Expr) -> set[str]:
    return free_vars(expr) | declared_vars(expr)


def conjuncts_of(expr: ast.Expr) -> list[ast.Expr]:
    """Flatten a right/left-nested `&&` tree into its atoms."""
    if isinstance(expr, ast.Binary) and expr.op == "&&":
        return conjuncts_of(expr.left) + conjuncts_of(expr.right)
    return [expr]


@dataclass
class SolvabilityContext:
    """What the analysis needs to know about the enclosing program."""

    table: ProgramTable | None = None
    owner: str | None = None  # enclosing class, for unqualified calls

    def lookup(self, call: ast.Call) -> MethodInfo | None:
        if self.table is None:
            return None
        if call.qualifier is not None:
            return self.table.lookup_method(call.qualifier, call.name)
        if call.receiver is None:
            if call.name in self.table.types:
                # Class constructor: the class-constructor method if any.
                return self.table.lookup_method(call.name, call.name)
            if call.name in self.table.functions:
                return self.table.lookup_function(call.name)
            if self.owner is not None:
                found = self.table.lookup_method(self.owner, call.name)
                if found is not None:
                    return found
        # Static type rarely known here; fall back to a search across
        # all types for the method name, preferring the most abstract
        # declaration (interfaces before classes).
        matches = []
        for info in self.table.types.values():
            if call.name in info.methods:
                matches.append(info.methods[call.name])
        if not matches:
            return None
        matches.sort(
            key=lambda m: (
                0 if self.table.types[m.owner].is_interface else 1,
                m.owner,
            )
        )
        return matches[0]


def is_evaluable(expr: ast.Expr, bound: set[str]) -> bool:
    """Can ``expr`` be computed outright, given the bound variables?"""
    if isinstance(expr, ast.Wildcard):
        return False
    if isinstance(expr, ast.VarDecl):
        # A declaration pattern whose variable was already bound by an
        # earlier-ordered atom is just a reference plus a type test.
        return expr.name is not None and expr.name in bound
    if isinstance(expr, ast.PatOr):
        # Disjunctive patterns are multi-valued even when fully known;
        # they must go through the P translation, not strict evaluation.
        return False
    return all_vars(expr) <= bound


def is_matchable(
    expr: ast.Expr, bound: set[str], ctx: SolvabilityContext
) -> bool:
    """Can ``expr`` be matched against a known value, binding its unknowns?"""
    if is_evaluable(expr, bound):
        return True
    if isinstance(expr, (ast.VarDecl, ast.Wildcard)):
        return True
    if isinstance(expr, ast.Var):
        return True  # unbound variable: direct binding
    if isinstance(expr, ast.Lit):
        return True
    if isinstance(expr, ast.TupleExpr):
        current = set(bound)
        for item in expr.items:
            if not is_matchable(item, current, ctx):
                return False
            current |= all_vars(item)
        return True
    if isinstance(expr, ast.Binary) and expr.op in ("+", "-", "*"):
        left_ok = is_evaluable(expr.left, bound)
        right_ok = is_evaluable(expr.right, bound)
        if left_ok and is_matchable(expr.right, bound, ctx):
            return True
        if right_ok and is_matchable(expr.left, bound, ctx):
            return True
        return False
    if isinstance(expr, ast.PatAnd):
        return is_matchable(expr.left, bound, ctx) and is_matchable(
            expr.right, bound | all_vars(expr.left), ctx
        )
    if isinstance(expr, ast.PatOr):
        return is_matchable(expr.left, bound, ctx) and is_matchable(
            expr.right, bound, ctx
        )
    if isinstance(expr, ast.Where):
        return is_matchable(expr.pattern, bound, ctx)
    if isinstance(expr, ast.FieldAccess):
        # `n.value = v` with unbound n: solvable through the field
        # relation when the receiver's class is determined (see the
        # interpreter's _match_field).
        return isinstance(expr.receiver, ast.Var)
    if isinstance(expr, ast.Call):
        # Matching a constructor/method pattern against a known result:
        # needs a mode whose unknowns cover the non-evaluable arguments.
        if expr.receiver is not None and not is_evaluable(expr.receiver, bound):
            return False
        method = ctx.lookup(expr)
        current = set(bound)
        unknown_positions: set[str] = set()
        for i, arg in enumerate(expr.args):
            if is_evaluable(arg, current):
                continue
            if not is_matchable(arg, current, ctx):
                return False
            if method is not None and i < len(method.params):
                unknown_positions.add(method.params[i].name)
            current |= all_vars(arg)
        if method is None:
            # Unknown signature: assume a pattern mode exists.
            return True
        mode = select_mode(method.modes(), unknown_positions)
        return mode is not None
    return False


def is_solvable_atom(
    expr: ast.Expr, bound: set[str], ctx: SolvabilityContext
) -> bool:
    """Can this conjunct be solved now, binding its unknowns?"""
    if isinstance(expr, ast.Lit):
        return True
    if isinstance(expr, ast.NotAll):
        # Treated by the extractor; at runtime it never appears.  It is
        # "solvable" iff all of its variables are bound (Section 4.4).
        return set(expr.names) <= bound
    if isinstance(expr, ast.Not):
        return is_evaluable(expr.operand, bound) or is_solvable_atom(
            expr.operand, bound, ctx
        )
    if isinstance(expr, ast.Binary):
        if expr.op == "=":
            # `p = (q where C)` is the reorderable conjunction
            # (p = q) && C; tuple equations additionally flatten into
            # component equations so C can interleave with them.
            for a, b in ((expr.left, expr.right), (expr.right, expr.left)):
                if isinstance(b, ast.Where):
                    atoms = _eq_atoms(a, b.pattern) + [b.condition]
                    return not order_conjuncts(atoms, bound, ctx).unsolvable
            if (
                isinstance(expr.left, ast.TupleExpr)
                and isinstance(expr.right, ast.TupleExpr)
                and len(expr.left.items) == len(expr.right.items)
            ):
                # Tuple = tuple is a set of component equations that may
                # be solved in any order.
                equations = [
                    ast.Binary("=", a, b)
                    for a, b in zip(expr.left.items, expr.right.items)
                ]
                return not order_conjuncts(equations, bound, ctx).unsolvable
            if is_evaluable(expr.left, bound) and is_matchable(expr.right, bound, ctx):
                return True
            if is_evaluable(expr.right, bound) and is_matchable(expr.left, bound, ctx):
                return True
            # Otherwise one side must produce its value (the P
            # translation, possibly creating objects) while the other is
            # matched against it -- in either orientation.
            if _pattern_solvable(expr.left, bound, ctx) and is_matchable(
                expr.right, bound, ctx
            ):
                return True
            return _pattern_solvable(expr.right, bound, ctx) and is_matchable(
                expr.left, bound, ctx
            )
        if expr.op in ("!=", "<", "<=", ">", ">="):
            return is_evaluable(expr.left, bound) and is_evaluable(
                expr.right, bound
            )
        if expr.op in ("||", "&&"):
            return is_solvable_atom(expr.left, bound, ctx) and is_solvable_atom(
                expr.right, bound, ctx
            )
        if expr.op in ast.ARITH_OPS:
            return is_evaluable(expr, bound)
    if isinstance(expr, ast.PatOr):
        return is_solvable_atom(expr.left, bound, ctx) and is_solvable_atom(
            expr.right, bound, ctx
        )
    if isinstance(expr, ast.Where):
        return is_solvable_atom(expr.pattern, bound, ctx)
    if isinstance(expr, ast.Call):
        return _call_solvable(expr, bound, ctx)
    if isinstance(expr, (ast.Var, ast.FieldAccess)):
        return is_evaluable(expr, bound)
    return False


def _pattern_solvable(
    expr: ast.Expr, bound: set[str], ctx: SolvabilityContext
) -> bool:
    """Can ``expr`` produce its own value (the P translation), possibly
    creating objects, given ``bound``?"""
    if is_evaluable(expr, bound):
        return True
    if isinstance(expr, ast.TupleExpr):
        current = set(bound)
        for item in expr.items:
            if not _pattern_solvable(item, current, ctx):
                return False
            current |= all_vars(item)
        return True
    if isinstance(expr, ast.PatOr):
        return _pattern_solvable(expr.left, bound, ctx) and _pattern_solvable(
            expr.right, bound, ctx
        )
    if isinstance(expr, ast.PatAnd):
        # `p as q`: p produces the value, q is matched against it.
        return _pattern_solvable(expr.left, bound, ctx) and is_matchable(
            expr.right, bound | all_vars(expr.left), ctx
        )
    if isinstance(expr, ast.Where):
        return _pattern_solvable(expr.pattern, bound, ctx)
    if isinstance(expr, ast.Call):
        # Creation: arguments must be producible, with bindings made by
        # earlier arguments (e.g. an `as` alias) visible to later ones.
        current = set(bound)
        for arg in expr.args:
            if not _pattern_solvable(arg, current, ctx):
                return False
            current |= all_vars(arg)
        return True
    return False


def _call_solvable(
    call: ast.Call, bound: set[str], ctx: SolvabilityContext
) -> bool:
    """A call in predicate position: is some mode applicable?"""
    if call.receiver is not None and not is_evaluable(call.receiver, bound):
        return False
    method = ctx.lookup(call)
    current = set(bound)
    unknown_positions: set[str] = set()
    for i, arg in enumerate(call.args):
        if is_evaluable(arg, current):
            continue
        if not is_matchable(arg, current, ctx):
            return False
        if method is not None and i < len(method.params):
            unknown_positions.add(method.params[i].name)
        current |= all_vars(arg)
    if method is None:
        return True
    if (
        method.is_constructor
        and call.receiver is None
        and call.qualifier is None
        and "this" not in bound
    ):
        # Receiver-less constructor predicate with `this` itself unknown
        # (the equality-constructor situation, Section 3.2): solving it
        # *creates* this, so arguments must be fully known.
        return not unknown_positions
    mode = select_mode(method.modes(), unknown_positions)
    return mode is not None


def _eq_atoms(a: ast.Expr, b: ast.Expr) -> list[ast.Expr]:
    """An equation as a list of atoms (tuples split component-wise)."""
    if (
        isinstance(a, ast.TupleExpr)
        and isinstance(b, ast.TupleExpr)
        and len(a.items) == len(b.items)
    ):
        return [ast.Binary("=", x, y) for x, y in zip(a.items, b.items)]
    return [ast.Binary("=", a, b)]


@dataclass
class Ordering:
    """Result of reordering a conjunction."""

    solved: list[ast.Expr]
    #: atoms whose unknowns cannot be solved in any order
    unsolvable: list[ast.Expr]
    #: variables bound after executing the solved prefix
    bound_after: set[str]


def order_conjuncts(
    atoms: list[ast.Expr],
    bound: set[str],
    ctx: SolvabilityContext,
) -> Ordering:
    """Greedy left-to-right reordering (Sections 2.3 and 4.3).

    Repeatedly picks the leftmost atom solvable under the current bound
    set; anything left over is unsolvable.
    """
    remaining = list(atoms)
    solved: list[ast.Expr] = []
    current = set(bound)
    progress = True
    while remaining and progress:
        progress = False
        for i, atom in enumerate(remaining):
            if is_solvable_atom(atom, current, ctx):
                solved.append(atom)
                current |= all_vars(atom)
                del remaining[i]
                progress = True
                break
    return Ordering(solved, remaining, current)
