"""The pattern algebra's differential oracle: SMT on every obligation.

The verifier discharges constructor-only obligations with the pattern
algebra (:mod:`repro.verify.tiered`) and sends the rest to SMT.  Two
context managers here re-route that dispatch, the same way
``tests/smt/reference_solver.py``'s ``reference_engine()`` swaps the
solving engine:

* :func:`smt_only` turns the algebra off: every switch and every ``|``
  goes to SMT, as if the fast path did not exist.  Warnings under it
  must be byte-identical to a default run.
* :func:`tier_check` runs both sides on every obligation the algebra
  decides and raises ``AssertionError`` on any verdict disagreement.
  It replaces ``_BodyWalker._check_switch`` whole, so every verdict a
  default run keeps -- on a non-exhaustive switch, where SMT is asked
  only for the counterexample, and on a guarded one, where SMT answers
  only what the algebra left undecided -- is re-derived by SMT here
  too.  Undecided obligations are not compared (SMT answers them in
  both runs), and a decided exhaustiveness is compared either way.
  The SMT side's verdicts are its discharged
  :class:`~repro.verify.obligation.Obligation` records' ``verdict``
  ("sat", "unsat", "unknown" or "error").  UNKNOWN and untranslatable
  ("error") SMT outcomes are compatible with any algebra verdict (SMT
  ran out of budget or scope; it did not disagree).  The task loop turns the error into a failed task on
  every driver, so a run passes the check when ``tasks_failed == 0``.
  The ``with`` target is a list that collects the disagreements raised
  in this process.

Both patch classes, so pool workers forked inside the ``with`` block
inherit them, and a task that fails in a worker is re-run, and fails
again, in this process.
"""

from __future__ import annotations

import contextlib
from unittest import mock

from repro.verify.disjointness import DisjointnessChecker
from repro.verify.tiered import PatternAlgebra
from repro.verify.verifier import _BodyWalker


@contextlib.contextmanager
def smt_only():
    """Decide every switch and ``|`` with SMT; the algebra decides none."""
    with mock.patch.object(
        PatternAlgebra, "analyze_switch", lambda self, *args: None
    ), mock.patch.object(
        DisjointnessChecker, "_asserted_by_algebra", lambda self, *args: False
    ):
        yield


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
