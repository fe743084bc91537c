"""The verification driver: one pass over a checked program.

Per method (Section 7's "verification is performed one method at a
time"):

* methods carrying ``matches``/``ensures`` clauses are checked for
  totality and postconditions (:mod:`repro.verify.totality`);
* imperative bodies are walked statement by statement, checking
  ``switch``/``cond`` exhaustiveness and redundancy and ``let``
  totality (:mod:`repro.verify.exhaustiveness`), threading path
  conditions into nested statements as Section 5.1 prescribes;
* every disjoint disjunction ``|`` is verified disjoint
  (:mod:`repro.verify.disjointness`).

Verification "does not affect the dynamic semantics; it only affects
warnings given to the programmer" -- the driver returns a
:class:`~repro.errors.Diagnostics` of warnings.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Iterator

from ..errors import NO_SPAN, Diagnostics, WarningKind
from ..lang import ast
from ..lang.symbols import MethodInfo, ProgramTable
from ..metrics.solver_stats import VerifyStats
from ..modes.mode import RESULT
from ..obs import NULL_TRACER
from ..smt.cache import SolverCache
from ..smt.terms import scoped_intern_state
from . import fir
from .disjointness import DisjointnessChecker
from .exhaustiveness import ExhaustivenessChecker
from .extract import mode_knowns
from .fir import F
from .obligation import Obligation, discharge
from .solving import SolverSession
from .tiered import AlgebraDecision, PatternAlgebra
from .totality import TotalityChecker
from .translate import EncodeContext, TranslationError, Translator, VEnv


@dataclass(frozen=True)
class VerifyTask:
    """One independent unit of verification work.

    The paper verifies "one method at a time" (Section 7), which makes
    each method — and each type's invariant set — a self-contained
    obligation.  A task names one such obligation; it is cheap,
    hashable, and picklable, so the parallel engine can ship it to a
    worker process that holds its own copy of the program table.
    """

    kind: str  #: "invariants" | "method" | "function"
    type_name: str = ""
    method_name: str = ""

    @property
    def label(self) -> str:
        """The human-facing name of this obligation.

        Matches the ``method`` column of ``verify --stats`` for method
        and function tasks; also the handle the fault-injection harness
        (:mod:`repro.verify.faults`) and timeout warnings use, so a
        task can be named from the command line.
        """
        if self.kind == "invariants":
            return f"invariant of {self.type_name}"
        if self.kind == "method":
            return f"{self.type_name}.{self.method_name}"
        return self.method_name


def iter_tasks(table: ProgramTable) -> Iterator[VerifyTask]:
    """All verification tasks of a program, in serial (source) order.

    Every driver verifies and merges tasks in this order, so the
    warning stream is the same byte for byte whichever driver ran.
    """
    for name, info in table.types.items():
        if info.decl is None:
            continue
        if info.invariants:
            yield VerifyTask("invariants", type_name=name)
        for method_name in info.methods:
            yield VerifyTask("method", type_name=name, method_name=method_name)
    for function_name in table.functions:
        yield VerifyTask("function", method_name=function_name)


def task_span(table: ProgramTable, task: VerifyTask):
    """The source span a task's pipeline-level warnings attach to."""
    if task.kind == "invariants":
        info = table.types[task.type_name]
        if info.invariants:
            return info.invariants[0].span
        return info.decl.span if info.decl is not None else NO_SPAN
    if task.kind == "method":
        return table.types[task.type_name].methods[task.method_name].decl.span
    method = table.lookup_function(task.method_name)
    return method.decl.span if method is not None else NO_SPAN


#: bump when the machine-readable report shape changes incompatibly
REPORT_SCHEMA_VERSION = 8


@dataclass
class VerificationReport:
    diagnostics: Diagnostics
    seconds: float = 0.0
    methods_checked: int = 0
    statements_checked: int = 0
    #: per-method and total solver instrumentation for this run
    solver_stats: VerifyStats | None = None

    def of_kind(self, kind: WarningKind):
        return self.diagnostics.of_kind(kind)

    @property
    def clean(self) -> bool:
        return not self.diagnostics.warnings

    # -- machine-readable form -----------------------------------------

    def to_dict(self) -> dict:
        """The report as a stable, JSON-ready structure.

        Rendered by ``repro verify --format json``; the shape is
        versioned by ``schema`` so downstream consumers can detect
        incompatible changes.  Warning order matches the text output;
        ``warning_counts`` keys are the ``WarningKind`` values present,
        sorted.
        """
        warnings = self.diagnostics.warnings
        counts: dict[str, int] = {}
        for warning in warnings:
            counts[warning.kind.value] = counts.get(warning.kind.value, 0) + 1
        return {
            "schema": REPORT_SCHEMA_VERSION,
            "clean": self.clean,
            "seconds": self.seconds,
            "methods_checked": self.methods_checked,
            "statements_checked": self.statements_checked,
            "warnings": [w.to_dict() for w in warnings],
            "warning_counts": dict(sorted(counts.items())),
            "solver_stats": (
                None if self.solver_stats is None else self.solver_stats.to_dict()
            ),
            "tasks": {
                "retried": self.tasks_retried,
                "timed_out": self.tasks_timed_out,
                "failed": self.tasks_failed,
            },
        }

    def to_json(self, indent: int | None = None) -> str:
        """``to_dict()`` serialized; key order is fixed by the schema."""
        return json.dumps(self.to_dict(), indent=indent)

    # -- fault-tolerance accounting (see repro.verify.parallel) --------

    @property
    def tasks_retried(self) -> int:
        """Task re-executions after a worker crash or failure."""
        return self.solver_stats.tasks_retried if self.solver_stats else 0

    @property
    def tasks_timed_out(self) -> int:
        """Obligations cut off by the per-task deadline (warned UNKNOWN)."""
        return self.solver_stats.tasks_timed_out if self.solver_stats else 0

    @property
    def tasks_failed(self) -> int:
        """Obligations degraded to UNKNOWN because their run raised."""
        return self.solver_stats.tasks_failed if self.solver_stats else 0

    @property
    def tasks_replayed(self) -> int:
        """Tasks answered by a kept outcome instead of a run."""
        return self.solver_stats.tasks_replayed if self.solver_stats else 0


class Verifier:
    def __init__(
        self,
        table: ProgramTable,
        budget: float | None = None,
        cache: SolverCache | None = None,
        tracer=NULL_TRACER,
    ):
        self.table = table
        self.diag = Diagnostics()
        self.tracer = tracer
        self.session = SolverSession(
            budget=budget,
            cache=cache,
            stats=VerifyStats(),
            tracer=tracer,
        )
        self.totality = TotalityChecker(table, self.diag, self.session)
        self.disjointness = DisjointnessChecker(
            table, self.diag, self.session
        )
        self.statements_checked = 0
        self.methods_checked = 0

    # ------------------------------------------------------------------

    def run_task(self, task: VerifyTask) -> None:
        """Verify one task's obligations, appending to ``self.diag``.

        Each task runs inside a pristine term-interning scope, so the
        warnings, models, and cache fingerprints it produces are a
        deterministic function of the task alone — identical whether
        the task runs in this process after a hundred others or alone
        in a parallel worker.
        """
        with scoped_intern_state(), self.tracer.span(
            "task", task.label, kind=task.kind
        ):
            if task.kind == "invariants":
                info = self.table.types[task.type_name]
                for inv in info.invariants:
                    self.session.method_label = f"invariant of {info.name}"
                    self.disjointness.check_formula(
                        inv.formula,
                        info.name,
                        {"this": ast.Type(info.name)},
                        inv.span,
                        f"invariant of {info.name}",
                    )
            elif task.kind == "method":
                info = self.table.types[task.type_name]
                self._verify_method(info.methods[task.method_name])
            elif task.kind == "function":
                method = self.table.lookup_function(task.method_name)
                assert method is not None
                self._verify_method(method)
            else:
                raise ValueError(f"unknown task kind {task.kind!r}")

    # ------------------------------------------------------------------

    def _verify_method(self, method: MethodInfo) -> None:
        self.methods_checked += 1
        owner = method.owner or None
        self.session.method_label = (
            f"{owner}.{method.name}" if owner else method.name
        )
        self.totality.check_method(method)
        decl = method.decl
        scope = self._method_scope(method)
        for clause in (decl.matches, decl.ensures):
            if clause is not None:
                self.disjointness.check_formula(
                    clause, owner, scope, decl.span, f"spec of {method.name}"
                )
        if isinstance(decl.body, ast.Expr):
            # Declarative body: check | disjointness per mode's knowns.
            for mode in method.modes():
                knowns = mode_knowns(
                    decl, mode, has_receiver=owner is not None
                )
                env_types = {
                    name: type_
                    for name, type_ in scope.items()
                    if name in knowns
                }
                self.disjointness.check_formula(
                    decl.body,
                    owner,
                    env_types,
                    decl.span,
                    f"{method.name} in mode {mode}",
                )
        elif isinstance(decl.body, ast.Block):
            walker = _BodyWalker(self, owner)
            walker.walk(decl.body.statements, dict(scope), [])

    def _method_scope(self, method: MethodInfo) -> dict[str, ast.Type | None]:
        scope: dict[str, ast.Type | None] = {}
        owner = method.owner or None
        if owner is not None and not method.decl.static:
            scope["this"] = ast.Type(owner)
        for param in method.params:
            scope[param.name] = param.type
        if method.is_constructor:
            scope[RESULT] = ast.Type(owner) if owner else None
        elif method.decl.return_type is not None:
            scope[RESULT] = method.decl.return_type
        return scope


def _expr_names(expr: ast.Expr) -> set[str]:
    """Every variable name mentioned (or bound) in a source expression.

    Used to decide which path conditions an imperative re-binding
    invalidates; bound names (pattern declarations) are included, which
    errs on the side of dropping a condition -- always sound, since a
    smaller path context only weakens later checks.
    """
    out: set[str] = set()
    stack: list = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, list):
            stack.extend(node)
            continue
        if not isinstance(node, ast.Expr):
            continue
        if isinstance(node, ast.Var):
            out.add(node.name)
        elif isinstance(node, ast.VarDecl):
            if node.name is not None:
                out.add(node.name)
        elif isinstance(node, ast.NotAll):
            out.update(node.names)
        for fld in dataclasses.fields(node):
            value = getattr(node, fld.name)
            if isinstance(value, (ast.Expr, list)):
                stack.append(value)
    return out


class _BodyWalker:
    """Walks an imperative body, checking each pattern-matching statement."""

    def __init__(self, verifier: Verifier, owner: str | None):
        self.verifier = verifier
        self.table = verifier.table
        self.diag = verifier.diag
        self.tracer = verifier.tracer
        self.owner = owner
        self.algebra = PatternAlgebra(verifier.table, owner)

    # -- environment assembly ------------------------------------------------

    def _fresh_context(
        self, scope: dict[str, ast.Type | None], path: list[ast.Expr]
    ) -> tuple[ExhaustivenessChecker, VEnv, list[F]]:
        ctx = EncodeContext(
            self.table, viewer=self.owner, tracer=self.tracer
        )
        translator = Translator(ctx, self.owner)
        env, context = ctx.declare(scope)
        if "this" in env and self.owner:
            translator.bind_fields(env, env["this"][0], self.owner)
        for formula in path:
            holder: list[VEnv] = []

            def capture(e: VEnv, _holder=holder) -> F:
                _holder.append(e)
                return fir.TRUE

            try:
                f = translator.vf(formula, dict(env), capture)
            except TranslationError:
                continue  # untranslatable path conditions weaken the context
            context.append(f)
            if holder:
                env = holder[-1]
        checker = ExhaustivenessChecker(
            ctx, self.owner, self.diag, self.verifier.session
        )
        return checker, env, context

    def _extend_scope(
        self, scope: dict[str, ast.Type | None], formula: ast.Expr
    ) -> dict[str, ast.Type | None]:
        out = dict(scope)
        self._collect_decls(formula, out)
        return out

    def _collect_decls(self, expr: ast.Expr, scope) -> None:
        if isinstance(expr, ast.VarDecl) and expr.name is not None:
            scope[expr.name] = expr.type
        elif isinstance(expr, (ast.Binary, ast.PatOr, ast.PatAnd)):
            self._collect_decls(expr.left, scope)
            self._collect_decls(expr.right, scope)
        elif isinstance(expr, ast.Not):
            self._collect_decls(expr.operand, scope)
        elif isinstance(expr, ast.Where):
            self._collect_decls(expr.pattern, scope)
            self._collect_decls(expr.condition, scope)
        elif isinstance(expr, ast.TupleExpr):
            for item in expr.items:
                self._collect_decls(item, scope)
        elif isinstance(expr, ast.Call):
            for arg in expr.args:
                self._collect_decls(arg, scope)
            if expr.receiver is not None:
                self._collect_decls(expr.receiver, scope)

    # -- statement dispatch ------------------------------------------------

    def walk(self, stmts, scope, path: list[ast.Expr]) -> None:
        for stmt in stmts:
            scope, path = self._walk_stmt(stmt, scope, path)

    def _walk_stmt(self, stmt, scope, path):
        if isinstance(stmt, ast.Block):
            self.walk(stmt.statements, dict(scope), list(path))
            return scope, path
        if isinstance(stmt, ast.LocalDecl):
            scope = dict(scope)
            scope[stmt.name] = stmt.type
            return scope, path
        if isinstance(stmt, ast.LetStmt):
            return self._walk_let(stmt.formula, stmt.span, scope, path)
        if isinstance(stmt, ast.ExprStmt):
            expr = stmt.expr
            if (
                isinstance(expr, ast.Binary)
                and expr.op == "="
                and isinstance(expr.left, ast.Var)
                and expr.left.name in scope
            ):
                # Imperative re-binding: side effects are outside the
                # reasoning (Section 5.4).  Only conditions mentioning
                # the re-bound name are stale; the rest still hold and
                # keep later exhaustiveness contexts precise.
                assigned = expr.left.name
                return scope, [
                    f for f in path if assigned not in _expr_names(f)
                ]
            if isinstance(expr, ast.Call):
                return scope, path  # effectful call, nothing to check
            return self._walk_let(expr, stmt.span, scope, path)
        if isinstance(stmt, ast.SwitchStmt):
            self.verifier.statements_checked += 1
            with self.tracer.span("statement", f"switch@{stmt.span.start}"):
                self._check_switch(stmt, scope, path)
                self._check_disjoint_in(
                    stmt.subject, scope, stmt.span, "switch"
                )
                for case in stmt.cases:
                    case_scope = dict(scope)
                    case_path = list(path)
                    for pattern in case.patterns:
                        self._collect_decls(pattern, case_scope)
                        case_path.append(
                            ast.Binary(
                                "=", stmt.subject, pattern, span=pattern.span
                            )
                        )
                        self._check_disjoint_in(
                            pattern, case_scope, case.span, "case pattern"
                        )
                    self.walk(case.body, case_scope, case_path)
                if stmt.default is not None:
                    self.walk(stmt.default, dict(scope), list(path))
            return scope, path
        if isinstance(stmt, ast.CondStmt):
            self.verifier.statements_checked += 1
            with self.tracer.span("statement", f"cond@{stmt.span.start}"):
                checker, env, context = self._fresh_context(scope, path)
                arms = [arm.formula for arm in stmt.arms]
                checker.check_cond(
                    arms, stmt.else_body is not None, context, env, stmt.span
                )
                for arm in stmt.arms:
                    arm_scope = self._extend_scope(scope, arm.formula)
                    self._check_disjoint_in(
                        arm.formula, arm_scope, arm.span, "cond arm"
                    )
                    self.walk(arm.body, arm_scope, path + [arm.formula])
                if stmt.else_body is not None:
                    self.walk(stmt.else_body, dict(scope), list(path))
            return scope, path
        if isinstance(stmt, ast.IfStmt):
            then_scope = self._extend_scope(scope, stmt.condition)
            self.walk(stmt.then_body, then_scope, path + [stmt.condition])
            if stmt.else_body is not None:
                self.walk(stmt.else_body, dict(scope), list(path))
            return scope, path
        if isinstance(stmt, ast.ForeachStmt):
            body_scope = self._extend_scope(scope, stmt.formula)
            self.walk(stmt.body, body_scope, path + [stmt.formula])
            return scope, path
        if isinstance(stmt, ast.WhileStmt):
            body_scope = self._extend_scope(scope, stmt.condition)
            self.walk(stmt.body, body_scope, path + [stmt.condition])
            return scope, path
        return scope, path

    # -- the pattern-algebra fast path (repro.verify.tiered) -----------

    def _check_switch(self, stmt, scope, path) -> None:
        """Discharge one switch with the pattern algebra and SMT.

        A statement with no ``where`` guard whose every obligation the
        algebra decides (exhaustive, or with a ``default``) is reported
        without translation or any SMT query.  Any other statement runs
        :meth:`ExhaustivenessChecker.check_cond`'s one pass with the
        algebra's verdicts, SMT answering the rest; an ineligible one
        has no verdicts.
        """
        decision = self.algebra.analyze_switch(stmt, scope, path)
        verdicts = () if decision is None else decision.verdicts
        if (
            decision is not None
            and None not in verdicts
            and not decision.guarded
        ):
            self._report_algebra(stmt, decision)
        else:
            self._check_switch_smt(stmt, scope, path, verdicts)

    def _check_switch_smt(
        self, stmt, scope, path, verdicts=()
    ) -> list[Obligation]:
        checker, env, context = self._fresh_context(scope, path)
        return checker.check_switch(stmt, context, env, verdicts)

    def _report_algebra(self, stmt, decision: AlgebraDecision) -> None:
        """Discharge an algebra decision's obligations at the algebra
        tier, through the :func:`discharge` every SMT verdict takes."""
        session = self.verifier.session
        for index, verdict in enumerate(decision.arm_verdicts):
            arm = Obligation("redundancy", stmt.span, f"arm {index + 1}")
            discharge(arm, session, self.diag, verdict)
        if decision.exhaustive is not None:
            exhaustive = Obligation("exhaustiveness", stmt.span)
            discharge(exhaustive, session, self.diag, "unsat")

    def _walk_let(self, formula, span, scope, path):
        self.verifier.statements_checked += 1
        with self.tracer.span("statement", f"let@{span.start}"):
            checker, env, context = self._fresh_context(scope, path)
            checker.check_let(formula, context, env, span)
            self._check_disjoint_in(formula, scope, span, "let")
        scope = self._extend_scope(scope, formula)
        return scope, path + [formula]

    def _check_disjoint_in(self, formula, scope, span, label) -> None:
        self.verifier.disjointness.check_formula(
            formula, self.owner, dict(scope), span, label
        )
