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

from dataclasses import dataclass, field

from ..errors import Diagnostics, Span, WarningKind
from ..lang import ast
from ..smt import Result
from ..smt.solver import eval_int
from ..smt.theory import TheoryModel
from . import fir
from .fir import F, negate
from .solving import SolverSession
from .translate import EncodeContext, TranslationError, Translator, TupleVal, VEnv


@dataclass
class CheckOutcome:
    """Result of checking one cond/switch statement."""

    redundant_arms: list[int] = field(default_factory=list)
    exhaustive: bool = True
    inconclusive: bool = False
    counterexample: str | None = None
    #: per-arm VF translations, for reuse by body walking
    arm_formulas: list[F] = field(default_factory=list)
    #: per-arm solver outcome, aligned with the desugared arm list:
    #: "redundant" | "reachable" | "unknown" | "error" (untranslatable)
    arm_verdicts: list[str] = field(default_factory=list)
    #: the exhaustiveness obligation's outcome: "exhaustive" |
    #: "nonexhaustive" | "unknown", or None when an else/default
    #: suppressed the obligation.  The tier oracle
    #: (``tests/verify/tier_oracle.py``) compares these (and
    #: ``arm_verdicts``) against the pattern algebra's decision.
    exhaustive_verdict: str | None = None


class ExhaustivenessChecker:
    """Checks cond/switch/let statements within one method context."""

    def __init__(
        self,
        ctx: EncodeContext,
        owner: str | None,
        diag: Diagnostics,
        session: SolverSession | None = None,
    ):
        self.ctx = ctx
        self.owner = owner
        self.diag = diag
        self.session = session or SolverSession()

    def _translator(self) -> Translator:
        return Translator(self.ctx, self.owner)

    def _check(
        self, formulas: list[F], want_model: bool = False
    ) -> tuple[Result, TheoryModel | None]:
        return self.session.check(
            self.ctx.plugin,
            [f.to_term() for f in formulas],
            want_model=want_model,
        )

    # ------------------------------------------------------------------

    def check_cond(
        self,
        arms: list[ast.Expr],
        has_else: bool,
        context: list[F],
        env: VEnv,
        span: Span,
        subject_terms: dict | None = None,
    ) -> CheckOutcome:
        """The core algorithm; also used for switch after desugaring."""
        outcome = CheckOutcome()
        invariant: list[F] = list(context)
        translator = self._translator()
        tracer = self.session.tracer
        for index, arm in enumerate(arms):
            with tracer.span(
                "obligation", f"redundancy of arm {index + 1}", tier="smt"
            ):
                try:
                    arm_f = translator.vf(arm, dict(env), lambda e: fir.TRUE)
                except TranslationError as exc:
                    self.diag.warn(
                        WarningKind.UNKNOWN,
                        f"arm {index + 1} could not be analyzed: "
                        f"{exc.message}",
                        span,
                    )
                    outcome.arm_formulas.append(fir.TRUE)
                    outcome.arm_verdicts.append("error")
                    outcome.inconclusive = True
                    continue
                outcome.arm_formulas.append(arm_f)
                result, _ = self._check(invariant + [arm_f])
                if result == Result.UNSAT:
                    outcome.redundant_arms.append(index)
                    outcome.arm_verdicts.append("redundant")
                    self.diag.warn(
                        WarningKind.REDUNDANT_ARM,
                        f"arm {index + 1} is redundant: no value reaches it",
                        span,
                    )
                elif result == Result.UNKNOWN:
                    outcome.arm_verdicts.append("unknown")
                    outcome.inconclusive = True
                    self.diag.warn(
                        WarningKind.UNKNOWN,
                        f"could not decide whether arm {index + 1} is "
                        "redundant" + self.session.unknown_suffix(),
                        span,
                    )
                else:
                    outcome.arm_verdicts.append("reachable")
            invariant.append(negate(fir.fresh(arm_f)))
        if has_else:
            return outcome
        with tracer.span("obligation", "exhaustiveness", tier="smt"):
            result, model = self._check(invariant, want_model=True)
            if result == Result.SAT:
                outcome.exhaustive = False
                outcome.exhaustive_verdict = "nonexhaustive"
                outcome.counterexample = self._render_counterexample(
                    model, env, subject_terms
                )
                self.diag.warn(
                    WarningKind.NONEXHAUSTIVE,
                    "match is not exhaustive",
                    span,
                    counterexample=outcome.counterexample,
                )
            elif result == Result.UNKNOWN:
                outcome.exhaustive_verdict = "unknown"
                outcome.inconclusive = True
                self.diag.warn(
                    WarningKind.UNKNOWN,
                    "no counterexample to exhaustiveness found, but there "
                    "may be one" + self.session.unknown_suffix(),
                    span,
                )
            else:
                outcome.exhaustive_verdict = "exhaustive"
        return outcome

    def check_switch(
        self,
        stmt: ast.SwitchStmt,
        context: list[F],
        env: VEnv,
    ) -> CheckOutcome:
        """Desugar switch to cond (Section 5.1) and check it."""
        translator = self._translator()
        env = dict(env)
        context = list(context)
        subject_name = "$subject"
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
            self.diag.warn(
                WarningKind.UNKNOWN,
                f"switch subject could not be analyzed: {exc.message}",
                stmt.span,
            )
            return CheckOutcome(inconclusive=True)
        subject_type = None
        if isinstance(stmt.subject, ast.Var):
            entry = env.get(stmt.subject.name)
            subject_type = entry[1] if entry else None
        env[subject_name] = (subject_value, subject_type)
        arms = [
            ast.Binary("=", ast.Var(subject_name, span=p.span), p, span=p.span)
            for case in stmt.cases
            for p in case.patterns
        ]
        return self.check_cond(
            arms,
            stmt.default is not None,
            context,
            env,
            stmt.span,
            subject_terms={subject_name: subject_value},
        )

    def check_let(
        self, formula: ast.Expr, context: list[F], env: VEnv, span: Span
    ) -> F | None:
        """Warn when a let may fail; returns VF[[f]] for context reuse."""
        translator = self._translator()
        with self.session.tracer.span("obligation", "let-totality", tier="smt"):
            try:
                let_f = translator.vf(formula, dict(env), lambda e: fir.TRUE)
            except TranslationError as exc:
                self.diag.warn(
                    WarningKind.UNKNOWN,
                    f"let formula could not be analyzed: {exc.message}",
                    span,
                )
                return None
            result, model = self._check(
                context + [negate(fir.fresh(let_f))], want_model=True
            )
            if result == Result.SAT:
                self.diag.warn(
                    WarningKind.LET_MAY_FAIL,
                    f"let may not be total: {formula}",
                    span,
                    counterexample=self._render_counterexample(
                        model, env, None
                    ),
                )
            elif result == Result.UNKNOWN:
                self.diag.warn(
                    WarningKind.UNKNOWN,
                    "could not prove this let total"
                    + self.session.unknown_suffix(),
                    span,
                )
        return let_f

    # ------------------------------------------------------------------

    def _render_counterexample(
        self,
        model: TheoryModel | None,
        env: VEnv,
        subject_terms: dict | None,
    ) -> str | None:
        """Describe a satisfying assignment in source-level vocabulary."""
        if model is None:
            return None
        parts: list[str] = []
        interesting = dict(subject_terms or {})
        for name, entry in env.items():
            if name.startswith("$") or not isinstance(entry, tuple):
                continue
            interesting.setdefault(name, entry[0])
        for name, value in sorted(interesting.items()):
            from ..smt.terms import Term

            if isinstance(value, TupleVal):
                continue
            if not isinstance(value, Term):
                continue
            if value.sort.name == "Int":
                parts.append(f"{name} = {eval_int(value, model)}")
            else:
                facts = self._object_facts(value, model)
                if facts:
                    parts.append(f"{name}: {', '.join(facts)}")
        return "; ".join(parts) if parts else "(any value)"

    def _object_facts(self, term, model: TheoryModel) -> list[str]:
        """True/false atoms about one object term, readably."""
        facts: list[str] = []
        for atom, value in sorted(
            model.atom_values.items(), key=lambda kv: str(kv[0])
        ):
            if term not in atom.args:
                continue
            name = getattr(atom.payload, "name", "")
            if name.startswith("call:"):
                label = name[len("call:"):]
                facts.append(f"{'' if value else 'not '}matched-by {label}")
            elif name.startswith("instanceof:") and value:
                facts.append(f"instanceof {name[len('instanceof:'):]}")
        return facts
