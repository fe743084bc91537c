"""The pre-incremental rebuild engine, kept as a differential oracle.

``ReferenceSolver`` is the architecture the incremental
:class:`~repro.smt.solver.Solver` replaced: every deepening depth gets
a fresh CNF encoding and CDCL core, and axioms and theory blocking
clauses are re-derived from nothing each pass.  Its two methods are
the old ``Solver._check_rebuilding`` (now the ``_check_with_deepening``
override) and ``Solver._rebuild_pass``, moved here unchanged except
that the round loop, like the engine's, is bounded by the budget alone.

:func:`reference_engine` monkeypatches ``SolverSession._solve`` so that
every query of every session, model queries included, is answered by a
fresh ``ReferenceSolver``.  The patch is on the class, so pool workers
forked inside the ``with`` block inherit it.  The parity suites use it,
and ``tests/verify/test_work_counts.py`` checks that the engine asserts
fewer axioms than this oracle.
"""

from __future__ import annotations

import contextlib
import time

import pytest

from repro.smt import budget
from repro.smt import terms as tm
from repro.smt.cnf import CnfBuilder
from repro.smt.sat import FALSE_VAL, TRUE_VAL, SatSolver
from repro.smt.solver import Result, Solver, _evaluate
from repro.smt.terms import Term
from repro.smt.theory import check_literals
from repro.verify.solving import SolverSession, solve_fresh


class ReferenceSolver(Solver):
    """A ``Solver`` that rebuilds all solving state per deepening depth."""

    def _check_with_deepening(self) -> Result:
        """Deepening driver of the pre-incremental architecture.

        Every depth gets a fresh CNF encoding and CDCL core; axioms and
        theory blocking clauses are re-derived from nothing each pass.
        Kept verbatim as the reference the differential suite and the
        benchmark baseline measure the incremental engine against.
        """
        if not self.plugin.has_triggers():
            return self._rebuild_pass()
        for depth in self.DEPTH_SCHEDULE:
            self.stats.deepening_passes += 1
            self.last_depth = depth
            self.plugin.reset_for_depth(depth)
            result = self._rebuild_pass()
            if result == Result.UNSAT and not self._blocked_unconfirmed:
                return result
            if result == Result.SAT:
                return result
        self.last_unknown_cause = "depth"
        return Result.UNKNOWN

    def _rebuild_pass(self) -> Result:
        self._blocked_unconfirmed = False
        plugin = self.plugin
        cnf = CnfBuilder()
        sat = SatSolver()
        cursor = 0

        def flush() -> bool:
            nonlocal cursor
            ok = True
            while cursor < len(cnf.clauses):
                if not sat.add_clause(list(cnf.clauses[cursor])):
                    ok = False
                cursor += 1
            return ok

        t0 = time.perf_counter()
        for assertion in self._assertions:
            cnf.assert_term(assertion)
        ok = flush()
        self.stats.encode_s += time.perf_counter() - t0
        if not ok:
            return Result.UNSAT

        while True:
            self.stats.sat_rounds += 1
            budget.checkpoint()
            t0 = time.perf_counter()
            satisfiable = sat.solve()
            self.stats.sat_s += time.perf_counter() - t0
            if not satisfiable:
                return Result.UNSAT
            assignment: dict[Term, bool] = {}
            for var, atom in cnf.atom_of_var.items():
                value = sat.value(var)
                if value == TRUE_VAL:
                    assignment[atom] = True
                elif value == FALSE_VAL:
                    assignment[atom] = False

            # Step 3: lazy axiom expansion.
            t0 = time.perf_counter()
            axioms = plugin.expand(assignment)
            self.stats.expand_s += time.perf_counter() - t0
            if axioms:
                self.stats.axioms_asserted += len(axioms)
                for axiom in axioms:
                    cnf.assert_term(axiom)
                if not flush():
                    return Result.UNSAT
                continue

            # Step 4: theory consistency.
            literals = sorted(assignment.items(), key=lambda kv: kv[0]._id)
            t0 = time.perf_counter()
            outcome = check_literals(literals)
            self.stats.theory_s += time.perf_counter() - t0
            if not outcome.consistent:
                self.stats.theory_conflicts += 1
                conflict = outcome.conflict or literals
                self.stats.theory_core_lits += len(conflict)
                blocking = [
                    tm.mk_not(atom) if value else atom
                    for atom, value in conflict
                ]
                cnf.assert_clause_terms(blocking)
                if not flush():
                    return Result.UNSAT
                continue

            # Step 5: validate against the original assertions.
            model = outcome.model
            assert model is not None
            t0 = time.perf_counter()
            valid = all(_evaluate(a, model) for a in self._assertions)
            self.stats.validate_s += time.perf_counter() - t0
            if valid:
                if plugin.relevant_suppression(assignment):
                    self._blocked_unconfirmed = True
                    blocking = [
                        tm.mk_not(atom) if polarity else atom
                        for atom, polarity in plugin.suppressed
                        if assignment.get(atom) == polarity
                    ]
                    cnf.assert_clause_terms(blocking)
                    if not flush():
                        return Result.UNSAT
                    continue
                self._model = model
                return Result.SAT
            blocking = [
                tm.mk_not(atom) if value else atom for atom, value in literals
            ]
            cnf.assert_clause_terms(blocking)
            if not flush():
                return Result.UNSAT


def reference_solve(session, plugin, terms, want_model=False):
    """``SolverSession._solve`` answered by a fresh ``ReferenceSolver``.

    As in the session, only a verdict query consults the cache.
    """
    solver = ReferenceSolver(
        plugin,
        cache=None if want_model else session.cache,
        time_budget=session.budget,
    )
    return solve_fresh(solver, terms, want_model)


@contextlib.contextmanager
def reference_engine():
    """Answer every ``SolverSession`` query with the reference oracle."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SolverSession, "_solve", reference_solve)
        yield
