"""Disjointness verification of ``|`` patterns (Section 5.3).

``p1 | p2`` promises at most one solution.  The check renames each
arm's unsolved unknowns apart and asks whether both arms can match the
same value simultaneously: ``VF[[x = p1']] /\\ VF[[x = p2']]``
satisfiable means the arms overlap and a warning is emitted.

The paper's examples: ``1 | 2`` is disjoint; ``y-1 | y+1`` is disjoint
when ``y`` is known but not when ``y`` is unknown (each arm then gets
its own fresh ``y``).
"""

from __future__ import annotations

from ..errors import Diagnostics, Span
from ..lang import ast
from ..smt.sorts import OBJ
from . import fir
from .fir import F
from .obligation import Obligation, discharge
from .solving import SolverSession
from .translate import EncodeContext, TranslationError, Translator, VEnv


class DisjointnessChecker:
    def __init__(self, table, diag: Diagnostics, session: SolverSession):
        self.table = table
        self.diag = diag
        self.session = session
        #: one PatternAlgebra per owner (viewer) seen, for the
        #: structural discharge predicate (see _asserted_by_algebra)
        self._algebras: dict = {}

    def _asserted_by_algebra(
        self, node: ast.PatOr, owner: str | None
    ) -> bool:
        """Is this ``|`` structurally guaranteed to produce no warning?

        The SMT path below never warns when an arm's translation
        mentions an abstract constructor predicate (or cannot be
        translated at all), so such disjunctions are *asserted*, not
        verified -- the query's verdict cannot matter.  The pattern
        algebra detects that case syntactically and skips the query.
        """
        from .tiered import PatternAlgebra

        algebra = self._algebras.get(owner)
        if algebra is None:
            algebra = self._algebras[owner] = PatternAlgebra(
                self.table, owner
            )
        return algebra.disjunction_asserted(node, owner)

    def check_formula(
        self,
        formula: ast.Expr,
        owner: str | None,
        env_types: dict[str, ast.Type | None],
        span: Span,
        label: str,
    ) -> None:
        """Verify every `|` inside one formula, under given knowns."""
        for node in ast.walk(formula):
            if isinstance(node, ast.PatOr) and node.disjoint:
                self._check_one(node, owner, env_types, span, label)

    def _check_one(
        self,
        node: ast.PatOr,
        owner: str | None,
        env_types: dict[str, ast.Type | None],
        span: Span,
        label: str,
    ) -> None:
        if self._asserted_by_algebra(node, owner):
            obligation = Obligation("disjointness", span, node, label=label)
            discharge(obligation, self.session, self.diag, "asserted")
            return
        self._check_smt(node, owner, env_types, span, label)

    def _check_smt(
        self,
        node: ast.PatOr,
        owner: str | None,
        env_types: dict[str, ast.Type | None],
        span: Span,
        label: str,
    ) -> None:
        """Ask the solver whether the arms of ``node`` can overlap."""
        ctx = EncodeContext(
            self.table, viewer=owner, tracer=self.session.tracer
        )
        translator = Translator(ctx, owner)
        # Knowns shared by both arms; unknowns are renamed apart simply
        # by translating each arm with its own environment copy.
        env, context = ctx.declare(env_types)
        try:
            left = self._arm_formula(translator, node.left, env, ctx)
            right = self._arm_formula(translator, node.right, env, ctx)
        except TranslationError:
            # Arms we cannot translate are not checked; the paper's
            # compiler similarly reports only what it can analyze.
            return
        # The overlap witness may involve abstract constructors:
        # "abstraction prevents us from making this guarantee" (Section
        # 8), so such a `|` is asserted rather than verified here.
        obligation = Obligation(
            "disjointness", span, node, context + [left, right], ctx.plugin,
            label=label,
            asserted=lambda: self._involves_abstraction(left, ctx)
            or self._involves_abstraction(right, ctx),
        )
        discharge(obligation, self.session, self.diag)

    def _involves_abstraction(self, f: F, ctx: EncodeContext) -> bool:
        from ..smt import terms as tm

        for sub in tm.subterms(f.to_term()):
            if sub.kind == tm.APP and sub.payload in ctx.abstract_preds:
                return True
        return False

    def _arm_formula(
        self, translator: Translator, arm: ast.Expr, env: VEnv, ctx: EncodeContext
    ) -> F:
        from ..lang.check import TypeEnv, infer_type

        inferred = infer_type(arm, TypeEnv(self.table))
        formula_like = inferred == ast.BOOLEAN_TYPE or isinstance(
            arm, (ast.Not, ast.Call)
        )
        if isinstance(arm, ast.Binary) and arm.op not in ast.ARITH_OPS:
            formula_like = True
        if formula_like:
            try:
                return translator.vf(arm, dict(env), lambda e: fir.TRUE)
            except TranslationError:
                pass  # fall through to the value-probe encoding
        # Value-level arm: both arms must match a common fresh value x
        # (Section 5.3's `x = p_i'` with renamed unknowns).  Tuple arms
        # share a tuple of fresh probes.
        probe = env.get("$disjoint-probe")
        if probe is None:
            if isinstance(arm, ast.TupleExpr):
                from .translate import TupleVal

                value = TupleVal(
                    tuple(
                        ctx.fresh(f"x{i}", OBJ) for i in range(len(arm.items))
                    )
                )
            else:
                value = ctx.fresh(
                    "x", OBJ if inferred is None else ctx.sort_of(inferred)
                )
            env["$disjoint-probe"] = (value, inferred)
            probe = env["$disjoint-probe"]
        return translator.vm(arm, probe[0], dict(env), lambda e: fir.TRUE)
