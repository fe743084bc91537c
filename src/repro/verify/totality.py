"""Totality verification of methods against their specifications
(Section 5.2).

For each mode M of a method with body B, matches clause M and ensures
clause E, we discharge:

* assertion (4): ``ExtractM(M) /\\ negate(VF[[B]])`` is UNSAT -- the
  body produces a solution whenever the extracted precondition holds;
* assertion (5): ``VF[[B]] /\\ negate(VF[[E]])`` is UNSAT -- the
  postcondition holds whenever the body succeeds.

Abstract (interface) methods instead discharge
``ExtractM(M) /\\ negate(ExtractM(E))``.

Imperative bodies are skipped, as in the paper ("this verification is
left to the programmer").
"""

from __future__ import annotations

from ..errors import Diagnostics
from ..lang import ast
from ..lang.symbols import MethodInfo
from ..modes.mode import RESULT, Mode
from ..smt.sorts import OBJ
from . import fir
from .extract import extract_ensures, extract_matches
from .fir import F, negate
from .obligation import Obligation, discharge
from .solving import SolverSession
from .translate import EncodeContext, TranslationError, Translator, VEnv


class TotalityChecker:
    def __init__(self, table, diag: Diagnostics, session: SolverSession):
        self.table = table
        self.diag = diag
        self.session = session

    def check_method(self, method: MethodInfo) -> None:
        decl = method.decl
        if decl.matches is None and decl.ensures is None:
            return
        for mode in method.modes():
            if decl.body is None:
                self._check_abstract(method, mode)
            elif isinstance(decl.body, ast.Expr):
                self._check_concrete(method, mode)
            # imperative bodies: left to the programmer (Section 4.3)

    # ------------------------------------------------------------------

    def _setup(
        self, method: MethodInfo, mode: Mode
    ) -> tuple[EncodeContext, Translator, VEnv, list[F]]:
        """Build the known-variable environment for one mode."""
        owner = method.owner or None
        ctx = EncodeContext(
            self.table, viewer=owner, tracer=self.session.tracer
        )
        translator = Translator(ctx, owner)
        env: VEnv = {}
        context: list[F] = []
        creation = method.is_constructor and RESULT in mode.unknowns
        needs_this = (
            method.is_constructor
            or (owner is not None and not method.decl.static)
        )
        if needs_this:
            # In creation mode ``this`` is the object being created: it
            # has no invariant or fields yet, but a receiver-less call in
            # the spec (``height()``) still means ``this.height()``.
            this = ctx.fresh("this", OBJ)
            this_type = ast.Type(owner) if owner else None
            env["this"] = (this, this_type)
        if needs_this and not creation:
            if method.is_constructor:
                env[RESULT] = (this, this_type)
            # The receiver satisfies its class's invariants, including
            # private ones visible to the implementation (Figure 7).
            context.append(ctx.type_formula(this, this_type, depth=0))
            if owner:
                translator.bind_fields(env, this, owner)
        scope: dict[str, ast.Type | None] = {
            param.name: param.type
            for param in method.params
            if param.name not in mode.unknowns
        }
        if (
            RESULT not in mode.unknowns
            and not method.is_constructor
            and method.decl.return_type not in (ast.BOOLEAN_TYPE, None)
        ):
            scope[RESULT] = method.decl.return_type
        known, known_context = ctx.declare(scope)
        env.update(known)
        context.extend(known_context)
        return ctx, translator, env, context

    def _discharge(
        self, kind: str, method: MethodInfo, mode: Mode, ctx: EncodeContext,
        formulas: list[F] | None = None, error: str | None = None,
    ) -> None:
        owner = f"{method.owner}." if method.owner else ""
        obligation = Obligation(
            kind, method.decl.span, f"{owner}{method.name} in mode {mode}",
            formulas, ctx.plugin, error=error,
        )
        discharge(obligation, self.session, self.diag)

    def _check_concrete(self, method: MethodInfo, mode: Mode) -> None:
        ctx, translator, env, context = self._setup(method, mode)
        owner = method.owner or None
        body = method.decl.body
        assert isinstance(body, ast.Expr)
        matches_ast = extract_matches(method.decl, mode, self.table, owner)
        env_after_body: list[VEnv] = []

        def capture(e: VEnv) -> F:
            env_after_body.append(e)
            return fir.TRUE

        try:
            body_f = translator.vf(body, dict(env), capture)
            matches_f = translator.vf(matches_ast, dict(env), lambda e: fir.TRUE)
        except TranslationError as exc:
            self._discharge("totality", method, mode, ctx, error=exc.message)
            return
        # Assertion (4).
        formulas = context + [matches_f, negate(body_f)]
        self._discharge("totality", method, mode, ctx, formulas)
        # Assertion (5).
        if method.decl.ensures is None:
            return
        post_env = env_after_body[-1] if env_after_body else dict(env)
        try:
            ensures_f = translator.vf(
                method.decl.ensures, dict(post_env), lambda e: fir.TRUE
            )
        except TranslationError as exc:
            self._discharge(
                "postcondition", method, mode, ctx, error=exc.message
            )
            return
        formulas = context + [body_f, negate(ensures_f)]
        self._discharge("postcondition", method, mode, ctx, formulas)

    def _check_abstract(self, method: MethodInfo, mode: Mode) -> None:
        ctx, translator, env, context = self._setup(method, mode)
        owner = method.owner or None
        matches_ast = extract_matches(method.decl, mode, self.table, owner)
        ensures_ast = extract_ensures(method.decl, mode, self.table, owner)
        try:
            matches_f = translator.vf(matches_ast, dict(env), lambda e: fir.TRUE)
            ensures_f = translator.vf(ensures_ast, dict(env), lambda e: fir.TRUE)
        except TranslationError as exc:
            self._discharge("spec", method, mode, ctx, error=exc.message)
            return
        formulas = context + [matches_f, negate(ensures_f)]
        self._discharge("spec", method, mode, ctx, formulas)
