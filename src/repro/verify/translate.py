"""Translation of JMatch formulas and patterns into F (Figure 10).

Three mutually recursive translations, written in continuation-passing
style so that solved unknowns flow left-to-right exactly as in the
paper's definitions:

* ``vf(f, env, cont)``   -- VF: f is satisfiable and cont holds under
  every solution;
* ``vm(p, x, env, cont)`` -- VM: p matches the known value x;
* ``vp(p, env, cont)``    -- VP: p produces a value, handed to cont.

**Method invocations** follow Section 6.2 rather than inlining
specifications: each call site in mode M becomes an uninterpreted
*success predicate* ``P`` over the mode's knowns, with lazily expanded
axioms

* ``not P  =>  not ExtractM(matches)``  (the matches clause
  underapproximates the relation), and
* ``P  =>  ensures /\\ output-signature-types``  (the ensures clause
  overapproximates it),

and the mode's outputs become *skolem functions* of the knowns --
the paper's "interpreted theory function ... to enforce the uniqueness
of procedure outputs".  Iterative modes get fresh existential
variables instead, since their outputs are not functions.

**Types.**  ``type(x, T)`` instantiates T's invariant on x (Section 5):
an ``instanceof`` atom plus an invariant atom, both expanded lazily by
the plugin with class-hierarchy axioms (upward closure, disjointness of
unrelated concrete classes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Union

from ..errors import JMatchError
from ..lang import ast
from ..lang.symbols import MethodInfo, ProgramTable
from ..modes.mode import RESULT, Mode, select_mode
from ..modes.ordering import (
    SolvabilityContext,
    conjuncts_of,
    is_evaluable,
    order_conjuncts,
    _pattern_solvable,
)
from ..obs import NULL_TRACER
from ..smt import terms as tm
from ..smt.plugin import LazyTheoryPlugin
from ..smt.sorts import BOOL, INT, OBJ, Sort
from ..smt.terms import FunSym, Term
from . import fir
from .fir import F, FAtom, assume, fand, for_, negate
from . import templates
from .templates import Depth, LazyAxiom


class TranslationError(JMatchError):
    """The formula cannot be translated (e.g. unsolvable in this mode)."""


@dataclass(frozen=True)
class TupleVal:
    """A tuple of translated values; tuples are not first-class terms."""

    items: tuple

    def __len__(self) -> int:
        return len(self.items)


VValue = Union[Term, TupleVal]
VEnv = dict[str, tuple]  # name -> (VValue, ast.Type | None)
Cont = Callable[[VEnv], F]
ValCont = Callable[[VValue, VEnv], F]
#: (parameter, argument) pairs of one call
ArgPairs = list[tuple[ast.Param, ast.Expr]]
#: a continuation over a call's terms by parameter name (known
#: arguments, or the mode's outputs)
TermsCont = Callable[[dict[str, Term], VEnv], F]


def _true(env: VEnv) -> F:
    """The continuation that accepts every solution."""
    return fir.TRUE


def bound_names(env: VEnv) -> set[str]:
    return set(env)


class EncodeContext:
    """Shared state across translations feeding one Solver."""

    def __init__(
        self,
        table: ProgramTable,
        viewer: str | None = None,
        plugin: LazyTheoryPlugin | None = None,
        tracer=NULL_TRACER,
    ):
        self.table = table
        #: the class from whose perspective invariants are visible
        self.viewer = viewer
        self.plugin = plugin or LazyTheoryPlugin()
        # Axiom expansions depend on the declarations and on invariant
        # visibility; the query cache must see both (see cache.py).
        # Equal text gives equal declarations, so the text digest
        # stands for them.
        self.plugin.signature = (table.program.text_digest, viewer)
        #: receives an ``invariant-drop`` event per untranslatable part
        self.tracer = tracer
        self._funsyms: dict[tuple, FunSym] = {}
        self._counter = 0
        #: (term, owner, id of invariant, depth) -> (the part's F or None
        #: when only replayed, the values it produced) for the invariant
        #: parts that mint no variable (see _invariant_part)
        self._parts: dict[tuple, tuple[F | None, tuple]] = {}
        #: the term builders: ``terms`` itself, or the tape recording a
        #: lazy axiom's first firing (see :mod:`.templates`)
        self.b = tm
        #: that tape while it records, else None
        self.tape = None
        #: success predicates whose canonical method is abstract; their
        #: disjointness cannot be decided through the abstraction
        #: boundary (Section 8's caveat)
        self.abstract_preds: set[FunSym] = set()

    # -- symbols ------------------------------------------------------------

    def funsym(self, name: str, arg_sorts: list[Sort], result: Sort) -> FunSym:
        key = (name, tuple(arg_sorts), result)
        sym = self._funsyms.get(key)
        if sym is None:
            sym = FunSym(name, arg_sorts, result)
            self._funsyms[key] = sym
        if self.tape is not None:
            self.tape.constant_call(
                EncodeContext.funsym, (name, tuple(arg_sorts), result), sym
            )
        return sym

    def sort_of(self, type_: ast.Type | None) -> Sort:
        if type_ == ast.INT_TYPE:
            return INT
        if type_ == ast.BOOLEAN_TYPE:
            return BOOL
        return OBJ

    def fresh(self, prefix: str, sort: Sort) -> Term:
        self._counter += 1
        var = tm.mk_var(f"{prefix}${self._counter}", sort)
        if self.tape is not None:
            self.tape.constant_call(EncodeContext.fresh, (prefix, sort), var)
        return var

    def null(self) -> Term:
        return self.b.mk_app(self.funsym("$null", [], OBJ))

    def string_const(self, s: str) -> Term:
        return self.b.mk_app(self.funsym(f"$str:{s!r}", [], OBJ))

    def field_fn(self, class_name: str, field_name: str, type_: ast.Type) -> FunSym:
        return self.funsym(
            f"field:{class_name}.{field_name}", [OBJ], self.sort_of(type_)
        )

    # -- type predicates ------------------------------------------------

    def instanceof_atom(self, x: Term, type_name: str, depth: int) -> Term:
        sym = self.funsym(f"instanceof:{type_name}", [OBJ], BOOL)
        atom = self.b.mk_app(sym, [x])
        self.lazy(atom, True, depth, Hierarchy(type_name), (x,))
        return atom

    def _hierarchy_axioms(self, x: Term, type_name: str, depth: int) -> Term:
        """Upward closure and disjointness of unrelated concrete classes."""
        b = self.b
        parts: list[Term] = []
        supers = self.table.supertypes(type_name)
        for sup in supers:
            if sup != type_name and sup != "Object":
                parts.append(self.instanceof_atom(x, sup, depth))
        info = self.table.types.get(type_name)
        if info is not None and info.is_class:
            for other in self.table.types.values():
                if (
                    other.is_class
                    and other.name != type_name
                    and other.name not in supers
                    and type_name not in self.table.supertypes(other.name)
                ):
                    parts.append(
                        b.mk_not(self.instanceof_atom(x, other.name, depth))
                    )
            parts.append(b.mk_ne(x, self.null()))
        return b.mk_and(*parts)

    def invariant_atom(self, x: Term, type_name: str, depth: int) -> Term:
        sym = self.funsym(f"inv:{type_name}", [OBJ], BOOL)
        atom = self.b.mk_app(sym, [x])
        # Both polarities are meaningful: the invariant atom is *defined*
        # by its instantiation, so `not inv` asserts the negation (this
        # is what lets e.g. creation results discharge the interface
        # invariants of their supertypes).
        self.lazy(atom, True, depth, Invariant(type_name, False), (x,))
        self.lazy(
            atom, False, depth, Invariant(type_name, True), (x,), weak=True
        )
        return atom

    def lazy(
        self,
        atom: Term,
        polarity: bool,
        depth: int,
        axiom: "Axiom",
        inputs: tuple[Term, ...],
        weak: bool = False,
    ) -> None:
        """Register ``axiom`` on ``inputs`` for one polarity of ``atom``.

        The axiom is instantiated at ``depth + 1`` when the solver
        assigns the atom that polarity (see :mod:`.templates`).
        """
        if self.tape is not None:
            self.tape.registration(
                EncodeContext.lazy, atom, polarity, depth, axiom, inputs, weak
            )
        if self.plugin.registered(atom, polarity):
            return
        self.plugin.register(
            atom,
            polarity,
            LazyAxiom(self, axiom, inputs, depth + 1),
            depth,
            weak=weak,
        )

    def mark_abstract(self, pred: FunSym) -> None:
        """``pred`` is the success predicate of an abstract method."""
        if self.tape is not None:
            self.tape.record(EncodeContext.mark_abstract, (self, pred), None)
        self.abstract_preds.add(pred)

    def _invariant_instance(
        self, x: Term, type_name: str, depth: int, negated: bool = False
    ) -> F:
        """The visible invariants of ``type_name`` on ``x``, or their negation.

        An invariant that cannot be translated is dropped, and the drop
        is traced.  That only weakens the positive instance, which is
        sound; but the negation of a weakened conjunction says more than
        the program does, so a negated instance with a dropped part
        asserts nothing.
        """
        invariants = self.table.invariants_visible_from(type_name, self.viewer)
        parts: list[F] = []
        for owner, inv in invariants:
            try:
                parts.append(self._invariant_part(x, owner, inv, depth))
            except TranslationError as exc:
                self.drop_invariant(type_name, owner, not negated, exc.message)
                if negated:
                    return fir.TRUE
        instance = fand(*parts)
        return negate(instance) if negated else instance

    def _invariant_part(
        self, x: Term, owner: str, inv: ast.InvariantDecl, depth: int
    ) -> F:
        """One invariant instantiated on ``x`` (see :meth:`_part`)."""
        info = self.table.types[owner]
        part = InvariantPart(owner, _position(inv, info), inv)
        try:
            f, values = self._part(part, x, depth, need_formula=True)
        except TranslationError:
            self._note_part(part, x, depth, ())
            raise
        self._note_part(part, x, depth, values)
        return f

    def part_values(
        self, part: "InvariantPart", x: Term, depth: int
    ) -> tuple:
        """The values an invariant part on ``x`` produces (a replay's view).

        A part that raised produces none: the replayed instance records
        the drop itself.
        """
        try:
            return self._part(part, x, depth, need_formula=False)[1]
        except TranslationError:
            return ()

    def _part(
        self, part: "InvariantPart", x: Term, depth: int, need_formula: bool
    ) -> tuple[F | None, tuple]:
        """An invariant part on ``x``: its F and the values it produced.

        Both polarities of an invariant atom, and the atoms of every
        subtype that sees the same invariant, ask for the same part. A
        part that mints no variable is kept per context, so a later
        request builds nothing. Otherwise the part's template is
        replayed, its F rebuilt from the template's skeleton (F is None
        when no one asked for it), or, with no template, the part is
        translated and recorded. A part whose translation raised raises
        again, after its operations ran.
        """
        key = (x, part.owner, id(part.inv), depth)
        hit = self._parts.get(key)
        if hit is not None and (hit[0] is not None or not need_formula):
            return hit
        template = templates.lookup(self, part, (x,))
        if hit is not None and template is not None and template.skeleton:
            f = template.formula([x, *hit[1]])
            self._parts[key] = (f, hit[1])
            return f, hit[1]
        minted = self._counter
        if template is None or (
            need_formula
            and template.skeleton is None
            and template.error is None
        ):
            f, values = templates.record(self, part, (x,), depth)
        else:
            # The part's operations run as themselves; the tape of an
            # instance being recorded notes the part as one operation.
            tape, self.tape, self.b = self.tape, None, tm
            try:
                run = template.run(self, (x,), depth)
            finally:
                self.tape = tape
                self.b = tm if tape is None else tape
            if template.error is not None:
                raise template.error
            f = template.formula(run) if need_formula else None
            values = tuple(run[1:])
        if self._counter == minted:
            self._parts[key] = (f, values)
        return f, values

    def _note_part(
        self, part: "InvariantPart", x: Term, depth: int, values: tuple
    ) -> None:
        if self.tape is not None:
            self.tape.record(
                EncodeContext.part_values,
                (self, part, x, Depth(depth)),
                values,
            )

    def drop_invariant(
        self, type_name: str, owner: str, polarity: bool, reason: str
    ) -> None:
        """Trace an invariant of ``owner`` left out of an instance."""
        if self.tape is not None:
            self.tape.constant_call(
                EncodeContext.drop_invariant,
                (type_name, owner, polarity, reason),
                None,
            )
        self.tracer.event(
            "invariant-drop",
            type=type_name,
            owner=owner,
            polarity=polarity,
            reason=reason,
        )

    def type_formula(self, value: VValue, type_: ast.Type | None, depth: int) -> F:
        if type_ is None or not isinstance(value, Term):
            return fir.TRUE
        if type_.is_primitive or type_ == ast.NULL_TYPE:
            return fir.TRUE
        if type_.name in ("Object", "String"):
            return fir.TRUE
        if type_.name not in self.table.types:
            return fir.TRUE
        return fand(
            FAtom(self.instanceof_atom(value, type_.name, depth)),
            FAtom(self.invariant_atom(value, type_.name, depth)),
        )

    def declare(self, scope: dict[str, ast.Type | None]) -> tuple[VEnv, list[F]]:
        """Fresh known variables for ``scope``, in its order.

        Returns the environment binding each name to its variable and
        the context asserting each variable's declared type.
        """
        env: VEnv = {}
        context: list[F] = []
        for name, type_ in scope.items():
            var = self.fresh(name, self.sort_of(type_))
            env[name] = (var, type_)
            context.append(self.type_formula(var, type_, depth=0))
        return env, context


class Translator:
    """One VF/VM/VP translation pass at a given expansion depth."""

    def __init__(self, ctx: EncodeContext, owner: str | None, depth: int = 0):
        self.ctx = ctx
        self.owner = owner
        self.depth = depth
        self.solv_ctx = SolvabilityContext(ctx.table, owner)
        #: the context's term builders when this pass began
        self.b = ctx.b
        #: (id of formula, env items) -> (formula, VF under ``_true``)
        #: for the translations that mint no variable (see ``vf_true``)
        self._pure: dict[tuple, tuple[ast.Expr, F]] = {}

    # -- helpers --------------------------------------------------------

    def bind_fields(self, env: VEnv, this: Term, class_name: str) -> None:
        """Map field names to projection terms of ``this``."""
        for ancestor in self.ctx.table.supertypes(class_name):
            info = self.ctx.table.types.get(ancestor)
            if info is None:
                continue
            for fname, fdecl in info.fields.items():
                if fname not in env:
                    sym = self.ctx.field_fn(ancestor, fname, fdecl.type)
                    env[fname] = (self.b.mk_app(sym, [this]), fdecl.type)

    def _lit_term(self, lit: ast.Lit) -> Term:
        if lit.value is None:
            return self.ctx.null()
        if isinstance(lit.value, bool):
            return self.b.mk_bool(lit.value)
        if isinstance(lit.value, int):
            return self.b.mk_int(lit.value)
        return self.ctx.string_const(lit.value)

    def _eq(self, a: VValue, b: VValue) -> F:
        if isinstance(a, TupleVal) or isinstance(b, TupleVal):
            if (
                not isinstance(a, TupleVal)
                or not isinstance(b, TupleVal)
                or len(a) != len(b)
            ):
                return fir.FALSE
            return fand(*[self._eq(x, y) for x, y in zip(a.items, b.items)])
        if a.sort != b.sort:
            return fir.FALSE
        return FAtom(self.b.mk_eq(a, b))

    # ------------------------------------------------------------------
    # VF
    # ------------------------------------------------------------------

    def vf(self, f: ast.Expr, env: VEnv, cont: Cont) -> F:
        if isinstance(f, ast.Lit):
            if f.value is True:
                return cont(env)
            if f.value is False:
                return fir.FALSE
            raise TranslationError(f"{f} is not a formula", f.span)
        if isinstance(f, ast.NotAll):
            # Sound to treat as true in NNF (Section 4.5); the extractor
            # replaces retained instances with false before we get here.
            return cont(env)
        if isinstance(f, ast.Binary):
            if f.op == "&&":
                atoms = conjuncts_of(f)
                ordering = order_conjuncts(atoms, bound_names(env), self.solv_ctx)
                if ordering.unsolvable:
                    raise TranslationError(
                        f"unsolvable conjunct {ordering.unsolvable[0]}",
                        f.span,
                    )

                def chain(index: int) -> Cont:
                    def k(e: VEnv) -> F:
                        if index == len(ordering.solved):
                            return cont(e)
                        return self.vf(ordering.solved[index], e, chain(index + 1))

                    return k

                return chain(0)(env)
            if f.op == "||":
                return for_(self.vf(f.left, env, cont), self.vf(f.right, env, cont))
            if f.op == "=":
                return self._vf_eq(f.left, f.right, env, cont)
            if f.op in ("!=", "<", "<=", ">", ">="):
                return self.vp(
                    f.left,
                    env,
                    lambda v1, e1: self.vp(
                        f.right,
                        e1,
                        lambda v2, e2: fand(
                            self._compare_atom(f.op, v1, v2), cont(e2)
                        ),
                    ),
                )
            raise TranslationError(f"cannot translate formula {f}", f.span)
        if isinstance(f, ast.PatOr):
            if cont is _true:
                disjunction = for_(
                    self.vf_true(f.left, env), self.vf_true(f.right, env)
                )
            else:
                disjunction = for_(
                    self.vf(f.left, env, cont), self.vf(f.right, env, cont)
                )
            if f.disjoint:
                # `|` asserts disjointness (Section 4.1): at most one arm
                # holds.  The arms' own soundness is checked separately.
                return fand(disjunction, self._exclusion(f, env))
            return disjunction
        if isinstance(f, ast.Not):
            inner = self.vf(f.operand, dict(env), _true)
            return fand(negate(inner), cont(env))
        if isinstance(f, ast.Where):
            return self.vf(f.pattern, env, lambda e: self.vf(f.condition, e, cont))
        if isinstance(f, ast.Call):
            return self._vf_call(f, env, cont)
        if isinstance(f, (ast.Var, ast.FieldAccess)):
            return self.vp(
                f, env, lambda v, e: fand(FAtom(v), cont(e))
            )
        raise TranslationError(f"cannot translate formula {f}", f.span)

    def vf_true(self, f: ast.Expr, env: VEnv) -> F:
        """VF[[f]] under ``env`` with the continuation ``true``.

        A translation that mints no variable (no ``ctx.fresh``, hence no
        unknowns for ``fir.fresh`` to rename) is a function of ``f`` and
        ``env`` alone, and is memoised for this pass.  Without that, a
        right-nested ``a | b | c | ...`` chain re-translates every
        sub-chain once in its disjunction and once in its exclusion,
        doubling the work per arm.  Any other translation runs as
        before, so variable numbering and registrations do not change.
        """
        key = (id(f), tuple(env.items()))
        hit = self._pure.get(key)
        if hit is not None:
            return hit[1]
        minted = self.ctx._counter
        result = self.vf(f, dict(env), _true)
        if self.ctx._counter == minted:
            # Keeping ``f`` alive keeps its id from being reused.
            self._pure[key] = (f, result)
        return result

    def _exclusion(self, f: ast.PatOr, env: VEnv) -> F:
        """not (left /\\ right), with each arm's unknowns renamed apart."""
        try:
            left = fir.fresh(self.vf_true(f.left, env), self.b)
            right = fir.fresh(self.vf_true(f.right, env), self.b)
        except TranslationError:
            return fir.TRUE
        b = self.b
        return FAtom(b.mk_not(b.mk_and(left.to_term(b), right.to_term(b))))

    def _compare_atom(self, op: str, a: VValue, b: VValue) -> F:
        if op == "!=":
            eq = self._eq(a, b)
            return negate(eq)
        if not isinstance(a, Term) or not isinstance(b, Term):
            raise TranslationError("ordering comparison on tuples")
        table = {
            "<": self.b.mk_lt,
            "<=": self.b.mk_le,
            ">": self.b.mk_gt,
            ">=": self.b.mk_ge,
        }
        return FAtom(table[op](a, b))

    def _vf_eq(self, p1: ast.Expr, p2: ast.Expr, env: VEnv, cont: Cont) -> F:
        if (
            isinstance(p1, ast.TupleExpr)
            and isinstance(p2, ast.TupleExpr)
            and len(p1.items) == len(p2.items)
        ):
            equations = [
                ast.Binary("=", a, b, span=a.span)
                for a, b in zip(p1.items, p2.items)
            ]
            conjunction = equations[0]
            for eq in equations[1:]:
                conjunction = ast.Binary("&&", conjunction, eq)
            return self.vf(conjunction, env, cont)
        if isinstance(p1, ast.Where):
            return self._vf_eq(
                p1.pattern,
                p2,
                env,
                lambda e: self.vf(p1.condition, e, cont),
            )
        if isinstance(p2, ast.Where):
            return self._vf_eq(
                p1,
                p2.pattern,
                env,
                lambda e: self.vf(p2.condition, e, cont),
            )
        bound = bound_names(env)
        if not _pattern_solvable(p1, bound, self.solv_ctx) and _pattern_solvable(
            p2, bound, self.solv_ctx
        ):
            p1, p2 = p2, p1
        return self.vp(p1, env, lambda v, e: self.vm(p2, v, e, cont))

    def _vf_call(self, call: ast.Call, env: VEnv, cont: Cont) -> F:
        method, recv, creation_class = self._resolve(call, env)
        if method is None:
            raise TranslationError(f"cannot resolve call {call}", call.span)
        if method.is_constructor and method.kind != "equality":
            if recv is not None:
                # `n.succ(y)`: match receiver against the pattern.
                return self._invoke_pattern(call, method, recv, env, cont)
            if creation_class is None:
                if "this" in env:
                    this, _ = env["this"]
                    return self._invoke_pattern(call, method, this, env, cont)
                raise TranslationError(
                    f"receiver-less constructor {call.name} with unknown this",
                    call.span,
                )
            raise TranslationError(
                f"{call} used as a formula", call.span
            )
        if method.kind == "equality":
            if "this" not in env:
                raise TranslationError("equals without receiver", call.span)
            this, _ = env["this"]
            return self._invoke_pattern(call, method, this, env, cont)
        # Boolean method in predicate position.
        return self._invoke_predicate(call, method, recv, env, cont)

    # ------------------------------------------------------------------
    # VM
    # ------------------------------------------------------------------

    def vm(self, p: ast.Expr, value: VValue, env: VEnv, cont: Cont) -> F:
        if isinstance(p, ast.Wildcard):
            return cont(env)
        if isinstance(p, ast.VarDecl):
            type_f = self.ctx.type_formula(value, p.type, self.depth)
            if p.name is None:
                return fand(type_f, cont(env))
            if p.name in env:
                existing, _ = env[p.name]
                return fand(type_f, self._eq(existing, value), cont(env))
            env1 = dict(env)
            env1[p.name] = (value, p.type)
            return fand(type_f, cont(env1))
        if isinstance(p, ast.Var):
            if p.name in env:
                existing, _ = env[p.name]
                return fand(self._eq(existing, value), cont(env))
            env1 = dict(env)
            env1[p.name] = (value, None)
            return cont(env1)
        if isinstance(p, ast.Lit):
            return fand(self._eq(self._lit_term(p), value), cont(env))
        if isinstance(p, ast.TupleExpr):
            if not isinstance(value, TupleVal) or len(value) != len(p.items):
                raise TranslationError(
                    f"tuple arity mismatch matching {p}", p.span
                )

            def chain(index: int) -> Cont:
                def k(e: VEnv) -> F:
                    if index == len(p.items):
                        return cont(e)
                    return self.vm(
                        p.items[index], value.items[index], e, chain(index + 1)
                    )

                return k

            return chain(0)(env)
        if isinstance(p, ast.PatAnd):
            return self.vm(p.left, value, env, lambda e: self.vm(p.right, value, e, cont))
        if isinstance(p, ast.PatOr):
            return for_(
                self.vm(p.left, value, env, cont),
                self.vm(p.right, value, env, cont),
            )
        if isinstance(p, ast.Where):
            return self.vm(
                p.pattern, value, env, lambda e: self.vf(p.condition, e, cont)
            )
        if isinstance(p, ast.Binary) and p.op in ("+", "-", "*"):
            return self._vm_arith(p, value, env, cont)
        if isinstance(p, ast.Call):
            method, recv, creation_class = self._resolve(p, env)
            if method is None:
                raise TranslationError(f"cannot resolve pattern {p}", p.span)
            if recv is not None or not method.is_constructor:
                # `x = recv.m(...)` / `x = f(...)`: match a method's or
                # function's result via a result-known (or forward) mode.
                return self._invoke_method(p, method, recv, value, env, cont)
            return self._invoke_pattern(p, method, value, env, cont)
        if isinstance(p, ast.FieldAccess):
            return self._vm_field(p, value, env, cont)
        if is_evaluable(p, bound_names(env)):
            return self.vp(
                p, env, lambda v, e: fand(self._eq(v, value), cont(e))
            )
        raise TranslationError(f"cannot match pattern {p}", p.span)

    def _vm_arith(self, p: ast.Binary, value: VValue, env: VEnv, cont: Cont) -> F:
        if not isinstance(value, Term):
            raise TranslationError("arithmetic pattern against tuple", p.span)
        b = self.b
        bound = bound_names(env)
        if is_evaluable(p, bound):
            return self.vp(
                p, env, lambda v, e: fand(self._eq(v, value), cont(e))
            )
        left_known = is_evaluable(p.left, bound)
        right_known = is_evaluable(p.right, bound)
        if p.op == "+":
            if left_known:
                return self.vp(
                    p.left, env,
                    lambda v, e: self.vm(p.right, b.mk_sub(value, v), e, cont),
                )
            if right_known:
                return self.vp(
                    p.right, env,
                    lambda v, e: self.vm(p.left, b.mk_sub(value, v), e, cont),
                )
        elif p.op == "-":
            if left_known:
                return self.vp(
                    p.left, env,
                    lambda v, e: self.vm(p.right, b.mk_sub(v, value), e, cont),
                )
            if right_known:
                return self.vp(
                    p.right, env,
                    lambda v, e: self.vm(p.left, b.mk_add(value, v), e, cont),
                )
        elif p.op == "*":
            # value = k * p' has a solution only when k divides value;
            # introduce the quotient as a constrained unknown.
            known, unknown = (
                (p.left, p.right) if left_known else (p.right, p.left)
            )
            if left_known or right_known:
                quotient = self.ctx.fresh("q", INT)

                def with_quotient(v: Term, e: VEnv) -> F:
                    eq = FAtom(b.mk_eq(b.mk_mul(v, quotient), value))
                    return assume(
                        eq,
                        self.vm(unknown, quotient, e, cont),
                        frozenset({quotient}),
                    )

                return self.vp(known, env, with_quotient)
        raise TranslationError(f"cannot invert {p}", p.span)

    def _vm_field(self, p: ast.FieldAccess, value: VValue, env: VEnv, cont: Cont) -> F:
        if not isinstance(value, Term):
            raise TranslationError("field pattern against tuple", p.span)
        bound = bound_names(env)
        if is_evaluable(p, bound):
            return self.vp(
                p, env, lambda v, e: fand(self._eq(v, value), cont(e))
            )
        if isinstance(p.receiver, ast.Var) and p.receiver.name not in env:
            # Solve recv.f = value for recv: an existential object whose
            # field projection equals the value.
            recv_type = self._static_type_of(p.receiver.name, env)
            obj = self.ctx.fresh(p.receiver.name, OBJ)
            decl_class = self._field_owner(recv_type, p.name)
            if decl_class is None:
                raise TranslationError(
                    f"cannot determine class of {p.receiver.name}", p.span
                )
            fdecl = self.ctx.table.lookup_field(decl_class, p.name)
            sym = self.ctx.field_fn(decl_class, p.name, fdecl.type)
            env1 = dict(env)
            env1[p.receiver.name] = (obj, ast.Type(decl_class))
            premise = fand(
                FAtom(self.b.mk_eq(self.b.mk_app(sym, [obj]), value)),
                self.ctx.type_formula(obj, ast.Type(decl_class), self.depth),
            )
            return assume(premise, cont(env1), frozenset({obj}))
        raise TranslationError(f"cannot match field pattern {p}", p.span)

    def _static_type_of(self, name: str, env: VEnv) -> ast.Type | None:
        entry = env.get(name)
        if entry is not None:
            return entry[1]
        return None

    def _field_owner(self, recv_type: ast.Type | None, fname: str) -> str | None:
        candidates: list[str] = []
        if recv_type is not None and recv_type.name in self.ctx.table.types:
            pool = [
                info.name
                for info in self.ctx.table.implementations_of(recv_type.name)
            ] or [recv_type.name]
        else:
            pool = [info.name for info in self.ctx.table.types.values()]
        for cname in pool:
            if self.ctx.table.lookup_field(cname, fname) is not None:
                candidates.append(cname)
        return candidates[0] if len(candidates) >= 1 else None

    # ------------------------------------------------------------------
    # VP
    # ------------------------------------------------------------------

    def vp(self, p: ast.Expr, env: VEnv, cont: ValCont) -> F:
        if isinstance(p, ast.Lit):
            return cont(self._lit_term(p), env)
        if isinstance(p, ast.Var):
            if p.name in env:
                return cont(env[p.name][0], env)
            # An unknown variable producing a value: existential.
            var = self.ctx.fresh(p.name, OBJ)
            env1 = dict(env)
            env1[p.name] = (var, None)
            return assume(fir.TRUE, cont(var, env1), frozenset({var}))
        if isinstance(p, ast.VarDecl):
            if p.name is not None and p.name in env:
                return cont(env[p.name][0], env)
            sort = self.ctx.sort_of(p.type)
            var = self.ctx.fresh(p.name or "_", sort)
            env1 = dict(env)
            if p.name is not None:
                env1[p.name] = (var, p.type)
            # VP[[x]] w F  =  w = x |> type(w, Tx) |> F  -- the declared
            # type is assumed, not asserted (Figure 10).
            return assume(
                self.ctx.type_formula(var, p.type, self.depth),
                cont(var, env1),
                frozenset({var}),
            )
        if isinstance(p, ast.Binary) and p.op in ast.ARITH_OPS:
            def left_k(v1: VValue, e1: VEnv) -> F:
                def right_k(v2: VValue, e2: VEnv) -> F:
                    return cont(self._arith_term(p.op, v1, v2, p.span), e2)

                return self.vp(p.right, e1, right_k)

            return self.vp(p.left, env, left_k)
        if isinstance(p, ast.Binary) and (
            p.op in ast.COMPARE_OPS or p.op in ast.LOGIC_OPS
        ):
            # A boolean-valued expression as a value: reify via its truth.
            inner = self.vf(p, dict(env), _true)
            var = self.ctx.fresh("b", BOOL)
            premise = for_(
                fand(inner, FAtom(self.b.mk_eq(var, tm.TRUE))),
                fand(
                    negate(fir.fresh(inner, self.b)),
                    FAtom(self.b.mk_eq(var, tm.FALSE)),
                ),
            )
            return assume(premise, cont(var, env), frozenset({var}))
        if isinstance(p, ast.Not):
            return self.vp(
                ast.Binary("=", p.operand, ast.Lit(False), span=p.span), env, cont
            )
        if isinstance(p, ast.TupleExpr):
            values: list[VValue] = []

            def chain(index: int, e: VEnv) -> F:
                if index == len(p.items):
                    return cont(TupleVal(tuple(values)), e)

                def k(v: VValue, e1: VEnv) -> F:
                    values.append(v)
                    result = chain(index + 1, e1)
                    values.pop()
                    return result

                return self.vp(p.items[index], e, k)

            return chain(0, env)
        if isinstance(p, ast.FieldAccess):
            def recv_k(v: VValue, e: VEnv) -> F:
                if not isinstance(v, Term):
                    raise TranslationError("field access on tuple", p.span)
                recv_type = self._receiver_type(p.receiver, e)
                decl_class = self._field_owner(recv_type, p.name)
                if decl_class is None:
                    raise TranslationError(
                        f"unknown field {p.name}", p.span
                    )
                fdecl = self.ctx.table.lookup_field(decl_class, p.name)
                sym = self.ctx.field_fn(decl_class, p.name, fdecl.type)
                return cont(self.b.mk_app(sym, [v]), e)

            return self.vp(p.receiver, env, recv_k)
        if isinstance(p, ast.PatOr):
            return for_(self.vp(p.left, env, cont), self.vp(p.right, env, cont))
        if isinstance(p, ast.PatAnd):
            return self.vp(
                p.left, env, lambda v, e: self.vm(p.right, v, e, lambda e2: cont(v, e2))
            )
        if isinstance(p, ast.Where):
            return self.vp(
                p.pattern,
                env,
                lambda v, e: self.vf(p.condition, e, lambda e2: cont(v, e2)),
            )
        if isinstance(p, ast.Call):
            method, recv, creation_class = self._resolve(p, env)
            if method is None:
                raise TranslationError(f"cannot resolve call {p}", p.span)
            if method.is_constructor and recv is None and method.kind != "equality":
                target = creation_class or self.owner or method.owner
                return self._invoke_value(p, method, None, target, env, cont)
            if not method.is_constructor:
                return self._invoke_value(p, method, recv, None, env, cont)
        raise TranslationError(f"cannot produce value for {p}", p.span)

    def _receiver_type(self, receiver: ast.Expr, env: VEnv) -> ast.Type | None:
        if isinstance(receiver, ast.Var):
            return self._static_type_of(receiver.name, env) or (
                ast.Type(self.owner)
                if receiver.name == "this" and self.owner
                else None
            )
        if isinstance(receiver, ast.VarDecl):
            return receiver.type
        return None

    def _arith_term(self, op: str, a: VValue, b: VValue, span) -> Term:
        if not isinstance(a, Term) or not isinstance(b, Term):
            raise TranslationError("arithmetic on tuples", span)
        if op == "+":
            return self.b.mk_add(a, b)
        if op == "-":
            return self.b.mk_sub(a, b)
        if op == "*":
            return self.b.mk_mul(a, b)
        # Division/modulus become uninterpreted functions: sound for
        # equality reasoning, no arithmetic theory support.
        sym = self.ctx.funsym(f"$int{op}", [INT, INT], INT)
        return self.b.mk_app(sym, [a, b])

    # ------------------------------------------------------------------
    # Invocation encoding (Section 6.2)
    # ------------------------------------------------------------------

    def _resolve(self, call: ast.Call, env: VEnv):
        """Resolve a call; returns (method, receiver value or None,
        creation class or None).  Only the receiver is translated here,
        and it must be evaluable; the arguments are left to the caller.

        An unqualified, receiver-less call of an instance method (e.g.
        ``height()`` in a ``matches``, ``ensures`` or ``invariant``
        clause) is a call on ``this`` when ``this`` is bound."""
        if call.receiver is None or call.qualifier is not None:
            # A unique-name match (e.g. a pattern in a static function's
            # switch) is lifted to the declaring interface by
            # canonicalisation.  The creation class is the qualifier, or
            # the name when it is a type.
            creation = call.qualifier or (
                call.name if call.name in self.ctx.table.types else None
            )
            method = self.solv_ctx.lookup(call)
            if (
                call.qualifier is None
                and method is not None
                and method.kind == "method"
                and not method.decl.static
                and "this" in env
            ):
                return method, env["this"][0], None
            return method, None, creation
        recv_type = self._receiver_type(call.receiver, env)
        method = None
        if recv_type is not None and not recv_type.is_primitive:
            method = self.ctx.table.lookup_method(recv_type.name, call.name)
        if method is None:
            # Fall back to a unique global resolution.
            method = self.solv_ctx.lookup(call)
        if method is None:
            return None, None, None
        recv_holder: list[VValue] = []

        # Translate the receiver eagerly: it must be evaluable here.
        def grab(v: VValue, e: VEnv) -> F:
            recv_holder.append(v)
            return fir.TRUE

        self.vp(call.receiver, env, grab)
        if not recv_holder:
            return None, None, None
        return method, recv_holder[0], None

    def _arguments(self, call: ast.Call, method: MethodInfo) -> ArgPairs:
        """Each parameter of ``method`` paired with its argument."""
        if len(call.args) != len(method.params):
            raise TranslationError(
                f"arity mismatch calling {method.name}", call.span
            )
        return list(zip(method.params, call.args))

    def _classify_args(
        self, call: ast.Call, method: MethodInfo, env: VEnv
    ) -> tuple[ArgPairs, ArgPairs]:
        """Split the arguments into evaluable (known) and unknown ones."""
        bound = bound_names(env)
        known: ArgPairs = []
        unknown: ArgPairs = []
        for param, arg in self._arguments(call, method):
            if is_evaluable(arg, bound):
                known.append((param, arg))
            else:
                unknown.append((param, arg))
        return known, unknown

    def _with_args(
        self,
        call: ast.Call,
        known: ArgPairs,
        env: VEnv,
        k: TermsCont,
    ) -> F:
        """VP the ``known`` arguments left to right, then ``k(args, env)``.

        ``args`` maps each parameter name to its argument's term, in a
        dict of its own per solution.  A tuple is not a term and cannot
        key a success predicate, whatever the kind of call.
        """

        def step(idx: int, acc: dict[str, Term], e: VEnv) -> F:
            if idx == len(known):
                return k(acc, e)
            param, arg = known[idx]

            def bind(v: VValue, e1: VEnv) -> F:
                if not isinstance(v, Term):
                    raise TranslationError("tuple argument", call.span)
                return step(idx + 1, {**acc, param.name: v}, e1)

            return self.vp(arg, e, bind)

        return step(0, {}, env)

    def _match_outputs(
        self, unknown: ArgPairs, cont: Cont
    ) -> TermsCont:
        """The rest of a call: VM each unknown argument against its mode
        output, left to right, then ``cont``."""

        def rest(outputs: dict[str, Term], env: VEnv) -> F:
            def step(idx: int, e: VEnv) -> F:
                if idx == len(unknown):
                    return cont(e)
                param, arg = unknown[idx]
                return self.vm(
                    arg, outputs[param.name], e, lambda e1: step(idx + 1, e1)
                )

            return step(0, env)

        return rest

    def _mode_symbol_base(self, method: MethodInfo, mode: Mode) -> str:
        owner = method.owner or "$fn"
        mode_sig = ",".join(sorted(mode.unknowns)) or "pred"
        return f"{owner}.{method.name}[{mode_sig}]"

    def _invoke(
        self,
        method: MethodInfo,
        mode: Mode,
        recv_result: Term | None,
        known_args: dict[str, Term],
        env: VEnv,
        build_rest: TermsCont,
    ) -> F:
        """The invocation core every call kind goes through.

        ``recv_result`` is the known receiver/result term (for pattern
        modes of constructors it is the matched value; for backward
        modes of methods it is the known result).  ``build_rest``
        receives the output terms and finishes the translation.
        """
        canonical = self.ctx.table.canonical(method)
        base = self._mode_symbol_base(canonical, mode)
        key_terms: list[Term] = []
        if recv_result is not None:
            key_terms.append(recv_result)
        for pname in sorted(known_args):
            key_terms.append(known_args[pname])
        sorts = [t.sort for t in key_terms]

        outputs: dict[str, Term] = {}
        output_bound: set[Term] = set()
        for uname in sorted(mode.unknowns):
            if uname == RESULT and recv_result is not None:
                continue
            out_type = param_type(canonical, uname)
            out_sort = self.ctx.sort_of(out_type)
            if mode.iterative:
                var = self.ctx.fresh(f"{canonical.name}.{uname}", out_sort)
                outputs[uname] = var
                output_bound.add(var)
            else:
                sym = self.ctx.funsym(f"out:{base}.{uname}", sorts, out_sort)
                outputs[uname] = self.b.mk_app(sym, key_terms)

        pred_args = list(key_terms) + [
            outputs[u] for u in sorted(outputs) if mode.iterative
        ]
        pred_sym = self.ctx.funsym(
            f"call:{base}", [t.sort for t in pred_args], BOOL
        )
        if canonical.abstract:
            self.ctx.mark_abstract(pred_sym)
        atom = self.b.mk_app(pred_sym, pred_args)
        self._register_spec_axioms(
            atom, canonical, mode, recv_result, known_args, outputs
        )
        rest = build_rest(outputs, env)
        if output_bound:
            return fand(FAtom(atom), assume(fir.TRUE, rest, frozenset(output_bound)))
        return fand(FAtom(atom), rest)

    def _register_spec_axioms(
        self,
        atom: Term,
        method: MethodInfo,
        mode: Mode,
        recv_result: Term | None,
        known_args: dict[str, Term],
        outputs: dict[str, Term],
    ) -> None:
        """Attach the Section 6.2 lazy axioms to a success predicate."""
        from .extract import extract_matches  # local import to avoid cycle

        table = self.ctx.table
        matches_ast = extract_matches(
            method.decl, mode, table, method.owner or None
        )
        matches_trivial = (
            isinstance(matches_ast, ast.Lit) and matches_ast.value is False
        )

        def nontrivial_type(t: ast.Type | None) -> bool:
            return (
                t is not None
                and not t.is_primitive
                and t.name in table.types
            )

        has_ref_output = any(
            nontrivial_type(param_type(method, u)) for u in outputs
        )
        ensures_trivial = method.decl.ensures is None and not has_ref_output
        receiver = () if recv_result is None else (recv_result,)
        inputs = (
            receiver + tuple(known_args.values()) + tuple(outputs.values())
        )

        def axiom(kind: str, clause: ast.Expr | None) -> SpecAxiom:
            return SpecAxiom(
                kind,
                f"{method.owner}.{method.name}",
                mode,
                self.owner,
                recv_result is not None,
                tuple(known_args),
                tuple(outputs),
                method,
                clause,
            )

        # Trivial axioms are not registered: a missing matches clause
        # means `not P => true`, and a missing ensures clause with no
        # reference-typed outputs means `P => true`.  Skipping them keeps
        # the lazy unrolling finite on recursive types.
        if not matches_trivial:
            self.ctx.lazy(
                atom, False, self.depth, axiom("matches", matches_ast), inputs
            )
        if not ensures_trivial:
            self.ctx.lazy(
                atom,
                True,
                self.depth,
                axiom("ensures", method.decl.ensures),
                inputs,
            )

    def _select_pattern_mode(
        self, method: MethodInfo, unknown_names: set[str]
    ) -> Mode:
        modes = [m for m in method.modes() if RESULT not in m.unknowns]
        mode = select_mode(modes, unknown_names)
        if mode is None:
            raise TranslationError(
                f"no pattern mode of {method.owner}.{method.name} solves "
                f"{sorted(unknown_names)}"
            )
        return mode

    def _invoke_pattern(
        self,
        call: ast.Call,
        method: MethodInfo,
        value: VValue,
        env: VEnv,
        cont: Cont,
    ) -> F:
        """Match ``value`` against constructor/equality pattern ``call``."""
        if not isinstance(value, Term):
            raise TranslationError("constructor pattern against tuple", call.span)
        canonical = self.ctx.table.canonical(method)
        known, unknown = self._classify_args(call, canonical, env)
        if known and method.kind != "equality":
            # The success predicate's signature must not depend on which
            # arguments happen to be evaluable at this call site: two
            # arms matching the same constructor (`c2(_)` vs `c2(c0())`)
            # would otherwise mint unrelated symbols (unary vs binary),
            # and negating one constrains nothing about the other, so
            # cross-arm redundancy queries become vacuously satisfiable.
            # When a non-iterative mode binds every parameter, use it and
            # match evaluable arguments against its outputs instead.
            wanted = frozenset(canonical.param_names)
            if any(
                not m.iterative and RESULT not in m.unknowns
                and m.unknowns == wanted
                for m in canonical.modes()
            ):
                known, unknown = [], self._arguments(call, canonical)
        mode = self._select_pattern_mode(canonical, {p.name for p, _ in unknown})

        match = self._match_outputs(unknown, cont)

        def encode(args: dict[str, Term], e: VEnv) -> F:
            type_f = self.ctx.type_formula(
                value, canonical.result_type(), self.depth
            )
            return fand(type_f, self._invoke(canonical, mode, value, args, e, match))

        return self._with_args(call, known, env, encode)

    def _invoke_predicate(
        self,
        call: ast.Call,
        method: MethodInfo,
        recv: Term | None,
        env: VEnv,
        cont: Cont,
    ) -> F:
        canonical = self.ctx.table.canonical(method)
        known, unknown = self._classify_args(call, canonical, env)
        mode = select_mode(canonical.modes(), {p.name for p, _ in unknown})
        if mode is None:
            raise TranslationError(
                f"no mode of {canonical.name} for this call", call.span
            )
        match = self._match_outputs(unknown, cont)
        return self._with_args(
            call,
            known,
            env,
            lambda args, e: self._invoke(canonical, mode, recv, args, e, match),
        )

    def _invoke_method(
        self,
        call: ast.Call,
        method: MethodInfo,
        recv: Term | None,
        result: VValue,
        env: VEnv,
        cont: Cont,
    ) -> F:
        """`x = recv.m(args)` or `x = f(args)` -- match the result.

        When no mode with the result known exists, the forward mode is
        used and its skolemised output is equated with ``result``.
        """
        if not isinstance(result, Term):
            raise TranslationError("method result matched against tuple", call.span)
        canonical = self.ctx.table.canonical(method)
        known, unknown = self._classify_args(call, canonical, env)
        wanted = {p.name for p, _ in unknown}
        mode = select_mode(
            [m for m in canonical.modes() if RESULT not in m.unknowns], wanted
        ) or select_mode(canonical.modes(), wanted | {RESULT})
        if mode is None:
            raise TranslationError(f"no usable mode for {call}", call.span)
        match_args = self._match_outputs(unknown, cont)

        def encode(args: dict[str, Term], e: VEnv) -> F:
            # The receiver participates as an extra known input named
            # `this`, and a known result as one named `result`.
            if recv is not None:
                args["this"] = recv
            if RESULT not in mode.unknowns:
                args[RESULT] = result

            def match(outputs: dict[str, Term], e1: VEnv) -> F:
                parts: list[F] = []
                if RESULT in mode.unknowns:
                    parts.append(self._eq(outputs[RESULT], result))
                return fand(*parts, match_args(outputs, e1))

            return self._invoke(canonical, mode, None, args, e, match)

        return self._with_args(call, known, env, encode)

    def _invoke_value(
        self,
        call: ast.Call,
        method: MethodInfo,
        recv: Term | None,
        creation_class: str | None,
        env: VEnv,
        cont: ValCont,
    ) -> F:
        """A call producing a value, handed to ``cont``.

        Object creation ``C(args)`` when ``creation_class`` is set (the
        new object is assumed an instance of it), else a forward call
        ``recv.m(args)`` / ``f(args)``.  Every argument is translated as
        a known input of the mode that solves for ``result``.
        """
        canonical = self.ctx.table.canonical(method)
        mode = select_mode(canonical.modes(), {RESULT})
        if mode is None:
            kind = "forward" if creation_class is None else "creation"
            raise TranslationError(f"{call.name} has no {kind} mode", call.span)

        def encode(args: dict[str, Term], e: VEnv) -> F:
            if recv is not None:
                args["this"] = recv

            def produce(outputs: dict[str, Term], e1: VEnv) -> F:
                result = outputs[RESULT]
                if creation_class is None:
                    return cont(result, e1)
                type_f = self.ctx.type_formula(
                    result, ast.Type(creation_class), self.depth
                )
                return fand(type_f, cont(result, e1))

            return self._invoke(canonical, mode, None, args, e, produce)

        return self._with_args(
            call, self._arguments(call, canonical), env, encode
        )


def param_type(method: MethodInfo, name: str) -> ast.Type | None:
    """The declared type of ``method``'s parameter (or result) ``name``."""
    if name == RESULT:
        return method.result_type()
    for param in method.params:
        if param.name == name:
            return param.type
    return None


# ---------------------------------------------------------------------------
# Lazy axiom schemas: what a registration instantiates, minus its terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Hierarchy:
    """``instanceof:T(x)``: upward closure and disjointness of classes."""

    type_name: str

    kind = "hierarchy"
    sees_invariants = False

    def translate(self, ctx: EncodeContext, inputs: tuple, depth: int) -> Term:
        return ctx._hierarchy_axioms(inputs[0], self.type_name, depth)


@dataclass(frozen=True)
class Invariant:
    """``inv:T(x)``: T's visible invariants on x, or their negation."""

    type_name: str
    negated: bool

    kind = "invariant"
    #: the instance is the invariants visible from the context's viewer
    sees_invariants = True

    def translate(self, ctx: EncodeContext, inputs: tuple, depth: int) -> Term:
        instance = ctx._invariant_instance(
            inputs[0], self.type_name, depth, negated=self.negated
        )
        return instance.to_term(ctx.b)


@dataclass(frozen=True)
class InvariantPart:
    """One invariant of ``owner`` on x: a part of invariant instances."""

    owner: str
    #: the invariant's position among ``owner``'s own invariants
    index: int
    inv: ast.InvariantDecl = field(compare=False)

    kind = "invariant-part"
    sees_invariants = False

    def translate(self, ctx: EncodeContext, inputs: tuple, depth: int) -> F:
        x = inputs[0]
        translator = Translator(ctx, owner=self.owner, depth=depth)
        env: VEnv = {"this": (x, ast.Type(self.owner))}
        translator.bind_fields(env, x, self.owner)
        return translator.vf(self.inv.formula, env, _true)


def _position(inv: ast.InvariantDecl, info) -> int:
    return next(i for i, own in enumerate(info.invariants) if own is inv)


@dataclass(frozen=True)
class SpecAxiom:
    """A success predicate's ``matches`` or ``ensures`` fact (Section 6.2).

    ``not P => not ExtractM(matches)`` and ``P => ensures /\\ output
    types``.  The inputs are the receiver (or known result) when
    ``receiver`` is set, then the ``known`` arguments and the
    ``outputs``, in those orders.
    """

    #: "matches" or "ensures"
    kind: str
    #: the canonical method, ``owner.name``
    symbol: str
    mode: Mode
    #: the owner of the translation that made the call
    owner: str | None
    receiver: bool
    known: tuple[str, ...]
    outputs: tuple[str, ...]
    method: MethodInfo = field(compare=False)
    #: the mode's extracted matches clause, or the ensures clause
    clause: ast.Expr | None = field(compare=False)

    #: a clause registers invariant atoms but never expands one itself
    sees_invariants = False

    def translate(self, ctx: EncodeContext, inputs: tuple, depth: int) -> Term:
        translator = Translator(ctx, self.owner, depth)
        env, outputs = self._env(inputs)
        b = ctx.b
        if self.kind == "matches":
            try:
                f = translator.vf(self.clause, env, _true)
            except TranslationError:
                return tm.TRUE
            # not P => not ExtractM(M): asserted via implication premise.
            return negate(f).to_term(b)
        method = self.method
        parts: list[Term] = []
        # Output signature types (including invariants).
        for uname, term in outputs.items():
            type_ = param_type(method, uname)
            parts.append(ctx.type_formula(term, type_, depth).to_term(b))
        if method.is_constructor and not self.receiver and RESULT in outputs:
            parts.append(
                ctx.type_formula(
                    outputs[RESULT], method.result_type(), depth
                ).to_term(b)
            )
        if self.clause is not None:
            try:
                parts.append(translator.vf(self.clause, env, _true).to_term(b))
            except TranslationError:
                pass
        return b.mk_and(*parts)

    def _env(self, inputs: tuple) -> tuple[VEnv, dict[str, Term]]:
        """The clause's environment, and the outputs by name."""
        method = self.method
        values = iter(inputs)
        recv = next(values) if self.receiver else None
        env: VEnv = {}
        for pname in self.known:
            env[pname] = (next(values), param_type(method, pname))
        outputs: dict[str, Term] = {}
        for uname in self.outputs:
            outputs[uname] = next(values)
            env[uname] = (outputs[uname], param_type(method, uname))
        if recv is not None:
            env[RESULT] = (recv, method.result_type())
            if method.is_constructor:
                env["this"] = (recv, method.result_type())
        elif RESULT in outputs and method.is_constructor:
            env["this"] = (outputs[RESULT], method.result_type())
        return env, outputs


#: a lazy axiom schema
Axiom = Union[Hierarchy, Invariant, InvariantPart, SpecAxiom]
