"""z3 as a verdict-only differential oracle.

This module never imports ``z3`` at the top level: the wheel is not a
dependency of this project, so :func:`z3_available` reports whether it
is installed and the parity tests that use the oracle skip cleanly
without it.  A CI lane installs ``z3-solver`` to run them.

Semantics: the engine is *lazy* DPLL(T) -- trigger axioms are asserted
only when their trigger literal is assigned, bounded by the
iterative-deepening depth schedule.  z3 has no hook for that
discipline, so this oracle expands the trigger universe **eagerly but
depth-bounded**: for each depth in the schedule it transitively
instantiates every registration whose depth fits the bound, asserts
the guarded implication ``premise => axiom`` (the paper's global
assertion discipline), and treats deeper registrations exactly like
the lazy engine's suppressed keys -- a SAT model that relies on a
suppressed (atom, polarity) is *unconfirmed*, so the model is blocked
and the search re-run; an UNSAT answer derived while any model was
blocked is downgraded to UNKNOWN at the final depth, mirroring
``Solver._blocked_unconfirmed``.  Axiom instantiation goes through
:meth:`LazyTheoryPlugin.axiom_for`, so the terms asserted are the very
same interned terms the engine uses.

Model queries are answered by the reference oracle's fresh solve, so
reports stay byte-identical; this keeps z3 a pure verdict oracle and
sidesteps translating z3 models back into theory models.  The solver
cache is bypassed for verdicts: entries fingerprint the lazy engine's
behavior, and a cache populated by one engine must not change what
another would answer.

:func:`z3_engine` monkeypatches ``SolverSession._solve`` so every query
goes through the oracle (see ``tests/smt/test_backend_parity.py``).
"""

from __future__ import annotations

import contextlib
import importlib.util
import time

import pytest

from repro.smt import budget as budget_mod
from repro.smt import terms as tm
from repro.smt.budget import BudgetExceeded
from repro.smt.solver import Result, Solver, SolverStats
from repro.smt.sorts import BOOL, INT, Sort
from repro.smt.terms import (
    ADD,
    AND,
    APP,
    BOOL_CONST,
    DISTINCT,
    EQ,
    IFF,
    IMPLIES,
    INT_CONST,
    ITE,
    LE,
    MUL,
    NOT,
    OR,
    VAR,
    Term,
)
from repro.verify.solving import QueryOutcome, SolverSession

from .reference_solver import reference_solve


def z3_available() -> bool:
    """Is the z3 wheel installed?  Cheap: nothing is imported."""
    return importlib.util.find_spec("z3") is not None


def z3_solve(session, plugin, terms, want_model=False):
    """``SolverSession._solve`` with verdicts from z3."""
    if want_model:
        return reference_solve(session, plugin, terms, want_model=True)
    import z3

    stats = SolverStats()
    try:
        result, depth = _Z3Oracle(session.budget).check(
            z3, plugin, terms, stats
        )
    except BudgetExceeded:
        result, depth = Result.UNKNOWN, None
    return QueryOutcome(result, None, stats, depth)


@contextlib.contextmanager
def z3_engine():
    """Answer every ``SolverSession`` query through the z3 oracle."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SolverSession, "_solve", z3_solve)
        yield


class _Z3Oracle:
    """Depth-bounded eager expansion into z3, verdicts only."""

    def __init__(self, budget: float | None):
        self.budget = budget

    def check(self, z3, plugin, terms, stats):
        deadline = None
        if self.budget is not None:
            deadline = time.monotonic() + self.budget
        triggers = plugin is not None and plugin.has_triggers()
        for depth in Solver.DEPTH_SCHEDULE:
            stats.deepening_passes += 1
            budget_mod.checkpoint()
            if deadline is not None and time.monotonic() > deadline:
                return Result.UNKNOWN, depth
            result, blocked = self._solve_at_depth(
                z3, plugin, terms, depth, stats, deadline
            )
            if result == Result.SAT:
                return Result.SAT, depth
            if result == Result.UNSAT and not blocked:
                return Result.UNSAT, depth
            if result == Result.UNKNOWN:
                return Result.UNKNOWN, depth
            if not triggers:
                # No axiom universe to deepen into: the verdict is final.
                return result, depth
        # UNSAT at the deepest pass with blocked models: unconfirmed,
        # exactly like the lazy engine's _blocked_unconfirmed downgrade.
        return Result.UNKNOWN, Solver.DEPTH_SCHEDULE[-1]

    def _solve_at_depth(self, z3, plugin, terms, depth, stats, deadline):
        translator = _Translator(z3)
        solver = z3.Solver()
        if deadline is not None:
            remaining = max(0.0, deadline - time.monotonic())
            solver.set("timeout", int(remaining * 1000) or 1)
        for term in terms:
            solver.add(translator.translate(term))
        suppressed = (
            self._assert_axioms(z3, plugin, depth, solver, translator, stats)
            if plugin is not None and plugin.has_triggers()
            else []
        )
        blocked = False
        while True:
            budget_mod.checkpoint()
            stats.sat_rounds += 1
            verdict = solver.check()
            if verdict == z3.unsat:
                return Result.UNSAT, blocked
            if verdict != z3.sat:
                return Result.UNKNOWN, blocked
            model = solver.model()
            # A model leaning on a suppressed expansion is unconfirmed:
            # an axiom that was never asserted could rule it out.  Block
            # exactly the suppressed literals it satisfies and re-solve.
            relied = [
                literal
                for key, literal in suppressed
                if z3.is_true(model.eval(literal, model_completion=True))
            ]
            if not relied:
                return Result.SAT, blocked
            blocked = True
            solver.add(z3.Not(z3.And(relied)))

    def _assert_axioms(self, z3, plugin, depth, solver, translator, stats):
        """Transitively instantiate the registry down to ``depth``.

        Firing an axiom registers its nested triggers, so iterate to a
        fixpoint over ``plugin.registrations()``; instantiation goes
        through ``axiom_for`` and therefore shares the interned axiom
        terms (and the exactly-once callback discipline) with the
        engine.
        """
        asserted: set = set()
        suppressed: list = []
        suppressed_keys: set = set()
        while True:
            progressed = False
            for atom, polarity, reg_depth, weak, _cb in plugin.registrations():
                key = (atom, polarity)
                if key in asserted or key in suppressed_keys:
                    continue
                if reg_depth > depth:
                    suppressed_keys.add(key)
                    if not weak:
                        z3_atom = translator.translate(atom)
                        literal = z3_atom if polarity else z3.Not(z3_atom)
                        suppressed.append((key, literal))
                    continue
                axiom = plugin.axiom_for(key)
                premise = atom if polarity else tm.mk_not(atom)
                solver.add(
                    translator.translate(tm.mk_implies(premise, axiom))
                )
                stats.axioms_asserted += 1
                asserted.add(key)
                progressed = True
            if not progressed:
                return suppressed


class _Translator:
    """Interned :class:`Term` graphs into z3 expressions, memoized."""

    def __init__(self, z3):
        self.z3 = z3
        self._memo: dict[int, object] = {}
        self._sorts: dict[Sort, object] = {}
        self._funs: dict[object, object] = {}

    def sort(self, sort: Sort):
        z3 = self.z3
        if sort == BOOL:
            return z3.BoolSort()
        if sort == INT:
            return z3.IntSort()
        cached = self._sorts.get(sort)
        if cached is None:
            cached = z3.DeclareSort(sort.name)
            self._sorts[sort] = cached
        return cached

    def translate(self, term: Term):
        memo = self._memo
        cached = memo.get(term._id)
        if cached is not None:
            return cached
        expr = self._build(term)
        memo[term._id] = expr
        return expr

    def _build(self, term: Term):
        z3 = self.z3
        kind = term.kind
        if kind == VAR:
            # Two vars may share a name across sorts; qualify so z3
            # never conflates them.
            return z3.Const(f"{term.payload}|{term.sort.name}", self.sort(term.sort))
        if kind == INT_CONST:
            return z3.IntVal(term.payload)
        if kind == BOOL_CONST:
            return z3.BoolVal(term.payload)
        if kind == APP:
            sym = term.payload
            fun = self._funs.get(sym)
            if fun is None:
                if sym.arity == 0:
                    # z3 nullary functions are plain constants
                    fun = z3.Const(
                        f"{sym.name}|{sym.result_sort.name}#fun",
                        self.sort(sym.result_sort),
                    )
                else:
                    domain = [self.sort(s) for s in sym.arg_sorts]
                    fun = z3.Function(
                        f"{sym.name}|{sym.result_sort.name}",
                        *domain,
                        self.sort(sym.result_sort),
                    )
                self._funs[sym] = fun
            if not term.args:
                return fun
            return fun(*[self.translate(a) for a in term.args])
        args = [self.translate(a) for a in term.args]
        if kind == ADD:
            return z3.Sum(args) if len(args) > 1 else args[0]
        if kind == MUL:
            expr = args[0]
            for a in args[1:]:
                expr = expr * a
            return expr
        if kind == LE:
            return args[0] <= args[1]
        if kind == EQ:
            return args[0] == args[1]
        if kind == NOT:
            return z3.Not(args[0])
        if kind == AND:
            return z3.And(args) if len(args) != 1 else args[0]
        if kind == OR:
            return z3.Or(args) if len(args) != 1 else args[0]
        if kind == IMPLIES:
            return z3.Implies(args[0], args[1])
        if kind == IFF:
            return args[0] == args[1]
        if kind == ITE:
            return z3.If(args[0], args[1], args[2])
        if kind == DISTINCT:
            return z3.Distinct(args)
        raise ValueError(f"untranslatable term kind {kind!r}")
