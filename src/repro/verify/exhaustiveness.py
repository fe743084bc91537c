"""Exhaustiveness and redundancy checking (Section 5.1).

``switch`` statements reduce to ``cond``: the subject is bound to a
fresh variable ``y`` and each ``case p_i`` becomes the arm ``y = p_i``.
For a cond with arms ``f_1 .. f_n``:

* arm *i* is redundant unless ``I_i /\\ VF[[f_i]]`` is satisfiable,
* ``I_{i+1} = I_i /\\ negate(fresh(VF[[f_i]]))``,
* the statement is exhaustive iff the final ``I'`` is unsatisfiable;
  a satisfying assignment becomes the counterexample shown to the
  programmer.

``let f`` is total iff ``negate(VF[[f]])`` is unsatisfiable (given the
context).  UNKNOWN results from the solver (depth-bounded lazy
expansion, Section 6.2) become the "could not find a counterexample,
but there may be one" warning.
"""

from __future__ import annotations

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
        verdicts: list[str | None] | None = None,
    ) -> list[Obligation]:
        """The core algorithm; also used for switch after desugaring.

        Returns the discharged obligations: one redundancy obligation
        per arm, then exhaustiveness unless an else suppresses it.

        ``verdicts`` are the pattern algebra's verdicts on those
        obligations, in that order: "sat", "unsat", or None where it
        left the obligation to SMT.  They are kept, and SMT is asked
        only the undecided obligations and, on a statement the algebra
        found non-exhaustive, the exhaustiveness query, whose model
        renders the counterexample; see :meth:`_keep_verdicts`.
        """
        invariant: list[F] = list(context)
        translator = Translator(self.ctx, self.owner)
        done: list[Obligation] = []
        for index, arm in enumerate(arms):
            obligation = self._obligation(
                "redundancy", span, f"arm {index + 1}"
            )
            try:
                arm_f = translator.vf(arm, dict(env), lambda e: fir.TRUE)
            except TranslationError as exc:
                obligation.error = exc.message
            else:
                obligation.formulas = invariant + [arm_f]
                invariant.append(negate(fir.fresh(arm_f)))
            done.append(obligation)
            if verdicts is None:
                discharge(obligation, self.session, self.diag)
        if not has_else:
            done.append(
                self._obligation(
                    "exhaustiveness",
                    span,
                    formulas=invariant,
                    shown=_shown_names(env),
                )
            )
            if verdicts is None:
                discharge(done[-1], self.session, self.diag)
        if verdicts is not None and not self._keep_verdicts(done, verdicts):
            for obligation in done:
                discharge(obligation, self.session, self.diag)
        return done

    def _keep_verdicts(
        self, done: list[Obligation], verdicts: list[str | None]
    ) -> bool:
        """Discharge ``done`` in order, with the algebra's verdicts and
        with SMT where a verdict is None.

        On a statement the algebra found non-exhaustive, the
        exhaustiveness query runs first, reporting into a buffer, so
        that its warning still follows the arms'.  If it is not SAT
        (UNSAT, UNKNOWN, or no query could run), or if some arm could
        not be translated (SMT reports it as covering nothing), nothing
        is reported, the run counts an algebra fallback, and False
        sends every obligation to SMT.
        """
        if any(obligation.error is not None for obligation in done):
            self._fall_back()
            return False
        pending = list(zip(done, verdicts))
        found = Diagnostics()
        if done[-1].kind == "exhaustiveness" and verdicts[-1] == "sat":
            exhaustive, _ = pending.pop()
            discharge(exhaustive, self.session, found)
            if exhaustive.verdict != "sat":
                self._fall_back()
                return False
        for obligation, verdict in pending:
            discharge(obligation, self.session, self.diag, verdict)
        self.diag.extend(found)
        return True

    def _fall_back(self) -> None:
        if self.session.stats is not None:
            self.session.stats.algebra_fallbacks += 1

    def check_switch(
        self,
        stmt: ast.SwitchStmt,
        context: list[F],
        env: VEnv,
        verdicts: list[str | None] | None = None,
    ) -> list[Obligation]:
        """Desugar switch to cond (Section 5.1) and check it, keeping
        the algebra's ``verdicts`` as :meth:`check_cond` does."""
        translator = Translator(self.ctx, self.owner)
        env = dict(env)
        context = list(context)
        try:
            holder: list = []

            def grab(value, e):
                holder.append(value)
                return fir.TRUE

            subject_f = translator.vp(stmt.subject, dict(env), grab)
            if not holder:
                raise TranslationError("subject not evaluable", stmt.span)
            subject_value = holder[0]
            # The subject's own translation (e.g. a call's success
            # predicate, whose ensures clause may bound the value) is
            # part of the context.
            context.append(subject_f)
        except TranslationError as exc:
            if verdicts is not None:
                self._fall_back()
            return [
                self._discharge("exhaustiveness", stmt.span, error=exc.message)
            ]
        subject_type = None
        if isinstance(stmt.subject, ast.Var):
            entry = env.get(stmt.subject.name)
            subject_type = entry[1] if entry else None
        env[SUBJECT] = (subject_value, subject_type)
        arms = [
            ast.Binary("=", ast.Var(SUBJECT, span=p.span), p, span=p.span)
            for case in stmt.cases
            for p in case.patterns
        ]
        return self.check_cond(
            arms, stmt.default is not None, context, env, stmt.span,
            verdicts,
        )

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
