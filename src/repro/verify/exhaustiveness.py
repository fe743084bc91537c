"""Exhaustiveness and redundancy checking (Section 5.1).

``switch`` statements reduce to ``cond``: the subject is bound to a
fresh variable ``y`` and each ``case p_i`` becomes the arm ``y = p_i``.
For a cond with arms ``f_1 .. f_n``:

* arm *i* is redundant unless ``I_i /\\ VF[[f_i]]`` is satisfiable,
* ``I_{i+1} = I_i /\\ negate(fresh(VF[[f_i]]))``,
* the statement is exhaustive iff the final ``I'`` is unsatisfiable;
  a satisfying assignment becomes the counterexample shown to the
  programmer.

The pattern algebra (:mod:`repro.verify.tiered`) decides most switch
obligations before any of this runs; for a switch it finds
non-exhaustive, its witness pattern (``t = succ(_)``) is the
counterexample, and no model is asked for.

``let f`` is total iff ``negate(VF[[f]])`` is unsatisfiable (given the
context).  UNKNOWN results from the solver (depth-bounded lazy
expansion, Section 6.2) become the "could not find a counterexample,
but there may be one" warning.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..errors import Diagnostics, Span
from ..lang import ast
from . import fir
from .fir import F, negate
from .obligation import Obligation, discharge
from .solving import SolverSession
from .translate import EncodeContext, TranslationError, Translator, VEnv


#: the name a desugared switch binds its subject to
SUBJECT = "$subject"


def _shown_names(env: VEnv) -> dict:
    """The names a counterexample describes: every variable in scope and
    a switch's subject, but none of the checker's other ``$`` names."""
    return {
        name: entry[0]
        for name, entry in env.items()
        if isinstance(entry, tuple)
        and (name == SUBJECT or not name.startswith("$"))
    }


class ExhaustivenessChecker:
    """Checks cond/switch/let statements within one method context."""

    def __init__(
        self,
        ctx: EncodeContext,
        owner: str | None,
        diag: Diagnostics,
        session: SolverSession,
    ):
        self.ctx = ctx
        self.owner = owner
        self.diag = diag
        self.session = session

    def _obligation(
        self, kind: str, site: Span, subject: object = "", **fields
    ) -> Obligation:
        return Obligation(
            kind, site, subject, plugin=self.ctx.plugin, **fields
        )

    def _discharge(
        self, kind: str, site: Span, subject: object = "", **fields
    ) -> Obligation:
        obligation = self._obligation(kind, site, subject, **fields)
        return discharge(obligation, self.session, self.diag)

    # ------------------------------------------------------------------

    def check_cond(
        self,
        arms: list[ast.Expr],
        has_else: bool,
        context: list[F],
        env: VEnv,
        span: Span,
        verdicts: Sequence[str | None] = (),
        witness: str | None = None,
    ) -> list[Obligation]:
        """The core algorithm; also used for switch after desugaring.

        Discharges, in order, one redundancy obligation per arm, then
        exhaustiveness unless an else suppresses it, and returns them.

        ``verdicts`` are the pattern algebra's verdicts on those
        obligations, in that order: "sat", "unsat", or None (the
        default for all of them) where SMT answers.  ``witness`` is the
        counterexample text of an exhaustiveness verdict of "sat".  An
        arm that cannot be translated reports its translation error
        whatever the algebra said; like SMT, the algebra's verdicts on
        later arms read it as matching nothing.
        """
        algebra = iter(verdicts)
        invariant: list[F] = list(context)
        translator = Translator(self.ctx, self.owner)
        done: list[Obligation] = []
        for index, arm in enumerate(arms):
            obligation = self._obligation(
                "redundancy", span, f"arm {index + 1}"
            )
            verdict = next(algebra, None)
            try:
                arm_f = translator.vf(arm, dict(env), lambda e: fir.TRUE)
            except TranslationError as exc:
                obligation.error = exc.message
                verdict = None
            else:
                obligation.formulas = invariant + [arm_f]
                invariant.append(negate(fir.fresh(arm_f)))
            done.append(
                discharge(obligation, self.session, self.diag, verdict)
            )
        if not has_else:
            exhaustive = self._obligation(
                "exhaustiveness",
                span,
                formulas=invariant,
                shown=_shown_names(env),
                witness=witness,
            )
            done.append(
                discharge(
                    exhaustive, self.session, self.diag, next(algebra, None)
                )
            )
        return done

    def check_switch(
        self,
        stmt: ast.SwitchStmt,
        context: list[F],
        env: VEnv,
        verdicts: Sequence[str | None] = (),
        witness: str | None = None,
    ) -> list[Obligation]:
        """Desugar switch to cond (Section 5.1) and check it, with the
        algebra's ``verdicts`` and ``witness`` as :meth:`check_cond`
        takes them.  An untranslatable subject reports only that
        error."""
        try:
            arms, context, env = self.desugar_switch(stmt, context, env)
        except TranslationError as exc:
            return [
                self._discharge("exhaustiveness", stmt.span, error=exc.message)
            ]
        return self.check_cond(
            arms, stmt.default is not None, context, env, stmt.span,
            verdicts, witness,
        )

    def desugar_switch(
        self, stmt: ast.SwitchStmt, context: list[F], env: VEnv
    ) -> tuple[list[ast.Expr], list[F], VEnv]:
        """The cond a switch becomes: one arm ``$subject = p`` per case
        pattern, with the context and environment extended by the
        subject's translation.  Raises :class:`TranslationError` when
        the subject cannot be translated."""
        translator = Translator(self.ctx, self.owner)
        env = dict(env)
        holder: list = []

        def grab(value, e):
            holder.append(value)
            return fir.TRUE

        subject_f = translator.vp(stmt.subject, dict(env), grab)
        if not holder:
            raise TranslationError("subject not evaluable", stmt.span)
        # The subject's own translation (e.g. a call's success
        # predicate, whose ensures clause may bound the value) is part
        # of the context.
        context = context + [subject_f]
        subject_type = None
        if isinstance(stmt.subject, ast.Var):
            entry = env.get(stmt.subject.name)
            subject_type = entry[1] if entry else None
        env[SUBJECT] = (holder[0], subject_type)
        arms = [
            ast.Binary("=", ast.Var(SUBJECT, span=p.span), p, span=p.span)
            for case in stmt.cases
            for p in case.patterns
        ]
        return arms, context, env

    def check_let(
        self, formula: ast.Expr, context: list[F], env: VEnv, span: Span
    ) -> F | None:
        """Warn when a let may fail; returns VF[[f]] for context reuse."""
        translator = Translator(self.ctx, self.owner)
        try:
            let_f = translator.vf(formula, dict(env), lambda e: fir.TRUE)
        except TranslationError as exc:
            self._discharge("let-totality", span, formula, error=exc.message)
            return None
        self._discharge(
            "let-totality",
            span,
            formula,
            formulas=context + [negate(fir.fresh(let_f))],
            shown=_shown_names(env),
        )
        return let_f
