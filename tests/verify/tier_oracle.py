"""The pattern algebra's differential oracle: SMT on every obligation.

The verifier discharges constructor-only obligations with the pattern
algebra (:mod:`repro.verify.tiered`) and sends the rest to SMT.  Two
context managers here re-route that dispatch, the same way
``tests/smt/reference_solver.py``'s ``reference_engine()`` swaps the
solving engine:

* :func:`smt_only` turns the algebra off: every switch and every ``|``
  goes to SMT, as if the fast path did not exist.  A default run must
  give the same warnings, in order, with the same kind, message and
  span, and the same counterexample wherever the algebra rendered
  none; where it rendered one, its witness pattern stands in for SMT's
  model (:func:`smt_only_mismatches` checks this, with the texts
  :func:`algebra_counterexamples` collects).
* :func:`tier_check` runs both sides on every obligation the algebra
  decides and raises ``AssertionError`` on any verdict disagreement.
  It replaces ``_BodyWalker._check_switch`` whole, so every verdict a
  default run keeps without a query -- on a non-exhaustive switch and
  on a guarded one, where SMT answers only what the algebra left
  undecided -- is re-derived by SMT here too.  Undecided obligations
  are not compared (SMT answers them in both runs), and a decided
  exhaustiveness is compared either way.  The SMT side's verdicts are
  its discharged :class:`~repro.verify.obligation.Obligation`
  records' ``verdict`` ("sat", "unsat", "unknown" or "error").
  UNKNOWN and untranslatable ("error") SMT outcomes are compatible
  with any algebra verdict (SMT ran out of budget or scope; it did not
  disagree).  Each witness a non-exhaustive verdict carries is checked
  true by SMT as well (:func:`witness_disagreements`); one that passes
  leaves a :data:`WITNESS_CHECKED` event on its switch's statement
  span, so a traced run can count them on every driver.  The task loop
  turns the error into a failed task on every driver, so a run passes
  the check when ``tasks_failed == 0``.  The ``with`` target is a list
  that collects the disagreements raised in this process.

Both patch classes, so pool workers forked inside the ``with`` block
inherit them, and a task that fails in a worker is re-run, and fails
again, in this process.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
from unittest import mock

from repro.lang import ast
from repro.verify import fir
from repro.verify.disjointness import DisjointnessChecker
from repro.verify.exhaustiveness import SUBJECT
from repro.verify.tiered import AlgebraDecision, PatternAlgebra
from repro.verify.translate import TranslationError, Translator
from repro.verify.verifier import _BodyWalker

#: the trace event each witness that passed its SMT check leaves on
#: its switch's statement span
WITNESS_CHECKED = "witness-checked"


@contextlib.contextmanager
def smt_only():
    """Decide every switch and ``|`` with SMT; the algebra decides none."""
    with mock.patch.object(
        PatternAlgebra, "analyze_switch", lambda self, *args: None
    ), mock.patch.object(
        DisjointnessChecker, "_asserted_by_algebra", lambda self, *args: False
    ):
        yield


@contextlib.contextmanager
def algebra_counterexamples():
    """Collect every counterexample text the algebra renders in this
    process (a run with ``jobs=1``)."""
    rendered: list[str] = []
    real = AlgebraDecision.counterexample

    def recording(decision, subject):
        text = real(decision, subject)
        if text is not None:
            rendered.append(text)
        return text

    with mock.patch.object(AlgebraDecision, "counterexample", recording):
        yield rendered


def findings(report) -> list[tuple[str, str | None]]:
    """A report's warnings as (kind, span and message; counterexample)
    pairs, the shape :func:`smt_only_mismatches` compares."""
    return [
        (f"warning[{w.kind.value}] {w.span}: {w.message}", w.counterexample)
        for w in report.diagnostics.warnings
    ]


def smt_only_mismatches(auto, smt, rendered) -> list[str]:
    """Where a default run's findings break the contract with
    ``smt_only()``'s: the same warnings in order, and the same
    counterexample unless ``rendered`` (the algebra's texts) holds the
    default run's."""
    if [warning for warning, _ in auto] != [warning for warning, _ in smt]:
        return [f"warnings differ: {auto} != {smt}"]
    return [
        f"{warning}: counterexample {ours!r} != {theirs!r}"
        for (warning, ours), (_, theirs) in zip(auto, smt)
        if ours not in rendered and ours != theirs
    ]


def switch_disagreements(decision, obligations) -> list[str]:
    """Where an algebra decision and SMT's discharged obligations
    (``ExhaustivenessChecker.check_switch``'s) disagree.  Only decided
    verdicts are compared: an undecided one is SMT's in a default run
    too."""
    mismatches: list[str] = []
    arms = [o for o in obligations if o.kind == "redundancy"]
    for index, (arm, verdict) in enumerate(zip(arms, decision.arm_verdicts)):
        if arm.verdict == "unsat" and verdict == "sat":
            mismatches.append(
                f"arm {index + 1}: smt=redundant, algebra=reachable"
            )
        elif arm.verdict == "sat" and verdict == "unsat":
            mismatches.append(
                f"arm {index + 1}: smt=reachable, algebra=redundant"
            )
    for obligation in obligations:
        if obligation.kind != "exhaustiveness":
            continue
        if obligation.verdict == "unsat" and decision.exhaustive is False:
            mismatches.append(
                "exhaustiveness: smt=exhaustive, algebra=nonexhaustive"
            )
        elif obligation.verdict == "sat" and decision.exhaustive is True:
            mismatches.append(
                "exhaustiveness: smt=nonexhaustive, algebra=exhaustive"
            )
    return mismatches


def witness_disagreements(walker, stmt, scope, path, witness) -> list[str]:
    """Where the algebra's witness for a non-exhaustive switch is false,
    by SMT, with each ``_`` a fresh variable.  ``W`` is ``subject =
    witness``; in the switch's context no instance of it may match an
    arm (a SAT ``W && (arm_1 || ... || arm_n)`` disagrees), and it must
    have one (an UNSAT ``W`` disagrees).

    The SMT encoding reads a sealing invariant's ``|`` as a plain
    disjunction, so its models let one value match two constructors;
    the free algebra's values match exactly one.  ``W`` therefore also
    says, of each constructor node, that no other constructor of its
    signature matches it.  An arm that cannot be translated matches
    nothing, as in the SMT pipeline; UNKNOWN disagrees with neither
    check."""
    checker, env, context = walker._fresh_context(scope, path)
    try:
        arms, context, env = checker.desugar_switch(stmt, context, env)
    except TranslationError:
        return []  # SMT has no verdict on this switch either
    translator = Translator(checker.ctx, checker.owner)

    def vf(formula):
        return translator.vf(formula, dict(env), lambda e: fir.TRUE)

    def verdict(formulas) -> str:
        outcome = checker.session.check(
            checker.ctx.plugin, [f.to_term() for f in formulas]
        )
        return outcome.result.value

    subject = stmt.subject
    values = subject.items if isinstance(subject, ast.TupleExpr) else [subject]
    patterns = witness.items if isinstance(witness, ast.TupleExpr) else [witness]
    names = itertools.count(1)
    conjuncts = [
        conjunct
        for value, pattern in zip(values, patterns)
        for conjunct in _instance_of(
            walker.algebra, value, pattern, scope[value.name], names
        )
    ]
    try:
        instance = vf(functools.reduce(_and, conjuncts, ast.Lit(True)))
    except TranslationError as exc:
        return [f"witness {witness} does not translate: {exc.message}"]
    matched = []
    for arm in arms:
        try:
            matched.append(vf(arm))
        except TranslationError:
            continue
    mismatches = []
    if verdict(context + [instance, fir.for_(*matched)]) == "sat":
        mismatches.append(f"witness {witness}: an instance matches an arm")
    if verdict(context + [instance]) == "unsat":
        mismatches.append(f"witness {witness}: no value is an instance")
    return mismatches


def _instance_of(algebra, value, pattern, col_type, names) -> list:
    """``value = pattern`` as conjuncts, one per constructor node: the
    node's match, with each argument that is not ``_`` bound to a fresh
    name, then ``!(value = d(_, ..))`` for each other constructor ``d``
    of the column's signature."""
    if isinstance(pattern, ast.Wildcard):
        return []
    canonical = algebra._resolve_pattern_ctor(pattern)
    args, nested = [], []
    for arg, param in zip(pattern.args, canonical.params):
        if isinstance(arg, ast.Wildcard):
            args.append(arg)
            continue
        name = f"$witness{next(names)}"
        args.append(ast.VarDecl(param.type, name))
        nested += _instance_of(algebra, ast.Var(name), arg, param.type, names)
    out = [ast.Binary("=", value, ast.Call(None, None, pattern.name, args))]
    signature = algebra.signature(col_type.name)
    key = f"{canonical.owner}.{canonical.name}"
    others = () if signature is None else signature.ctors.items()
    for other, (name, params) in others:
        if other != key:
            wild = [ast.Wildcard() for _ in params]
            out.append(
                ast.Not(ast.Binary("=", value, ast.Call(None, None, name, wild)))
            )
    return out + nested


def _and(left, right):
    return ast.Binary("&&", left, right)


@contextlib.contextmanager
def tier_check():
    """Run the algebra and SMT side by side; raise on any disagreement."""
    disagreements: list[str] = []

    def fail(span, messages: list[str]):
        located = [f"{span}: {message}" for message in messages]
        disagreements.extend(located)
        raise AssertionError("; ".join(located))

    def checked_switch(walker, stmt, scope, path):
        decision = walker.algebra.analyze_switch(stmt, scope, path)
        obligations = walker._check_switch_smt(stmt, scope, path)
        if decision is None:
            return
        stats = walker.verifier.session.stats
        if stats is not None:
            # what a default run discharges at the algebra tier
            stats.algebra_discharged += sum(
                verdict is not None for verdict in decision.verdicts
            )
        details = switch_disagreements(decision, obligations)
        if decision.witness is not None:
            wrong = witness_disagreements(
                walker, stmt, scope, path, decision.witness
            )
            details += wrong
            if not wrong:
                walker.tracer.event(WITNESS_CHECKED)
        if details:
            fail(
                stmt.span,
                [f"tier disagreement on switch ({d})" for d in details],
            )

    def checked_disjunction(checker, node, owner, env_types, span, label):
        before = len(checker.diag.warnings)
        checker._check_smt(node, owner, env_types, span, label)
        if not checker._asserted_by_algebra(node, owner):
            return
        stats = checker.session.stats
        if stats is not None:
            stats.algebra_discharged += 1
        if len(checker.diag.warnings) != before:
            fail(
                span,
                [
                    f"tier disagreement on `{node}` (algebra predicted no "
                    f"disjointness warning, smt warned)"
                ],
            )

    with mock.patch.object(
        _BodyWalker, "_check_switch", checked_switch
    ), mock.patch.object(
        DisjointnessChecker, "_check_one", checked_disjunction
    ):
        yield disagreements
