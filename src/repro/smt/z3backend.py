"""An optional z3py backend behind the :class:`SolverBackend` seam.

This module never imports ``z3`` at the top level: the wheel is not a
dependency of this project, so the backend reports itself unavailable
(``Z3Backend.available() -> False``) when the import would fail and
the registry skips it cleanly — selecting ``--backend z3`` without the
wheel exits with a clear error instead of a traceback, and the CI
``backend-matrix`` z3 lane is the only place it runs routinely.

Semantics: the pure-Python engine is *lazy* DPLL(T) — trigger axioms
are asserted only when their trigger literal is assigned, bounded by
the iterative-deepening depth schedule.  z3 has no hook for that
discipline, so this backend expands the trigger universe **eagerly but
depth-bounded**: for each depth in the schedule it transitively
instantiates every registration whose depth fits the bound, asserts
the guarded implication ``premise => axiom`` (the paper's global
assertion discipline), and treats deeper registrations exactly like
the lazy engine's suppressed keys — a SAT model that relies on a
suppressed (atom, polarity) is *unconfirmed*, so the model is blocked
and the search re-run; an UNSAT answer derived while any model was
blocked is downgraded to UNKNOWN at the final depth, mirroring
``Solver._blocked_unconfirmed``.  Axiom instantiation goes through
:meth:`LazyTheoryPlugin.axiom_for`, so the terms asserted are the very
same interned terms every other backend uses.

Model queries are answered by the canonical reference solve (as the
incremental backend does), so reports stay byte-identical; this keeps z3 a pure
verdict engine and sidesteps translating z3 models back into theory
models.  The solver cache is bypassed: entries fingerprint the lazy
engine's behavior, and a cache populated by one backend must not
change what another backend would answer.

Differential testing: ``tests/smt/test_backend_parity.py`` runs this
backend (when the wheel is present) over the corpus and a seeded
generated corpus, asserting verdict-for-verdict report equality with
the reference engine.
"""

from __future__ import annotations

import importlib.util
import time

from . import budget as budget_mod
from . import terms as tm
from .backend import CheckOutcome, ReferenceBackend, SolverBackend
from .budget import BudgetExceeded
from .solver import Result, Solver, SolverStats
from .sorts import BOOL, INT, Sort
from .terms import (
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


class Z3Backend(SolverBackend):
    """Depth-bounded eager expansion into z3, verdicts only."""

    name = "z3"

    @classmethod
    def available(cls) -> bool:
        return importlib.util.find_spec("z3") is not None

    def __init__(self, budget=None, cache=None):
        # ``cache=None`` always: see the module docstring.
        super().__init__(budget, cache=None)
        self._canonical = ReferenceBackend(budget=budget, cache=cache)

    def check(self, plugin, terms, want_model=False):
        if want_model:
            return self._canonical.check(plugin, terms, want_model=True)
        import z3

        start = time.perf_counter()
        stats = SolverStats()
        try:
            result, depth = self._check_deepening(z3, plugin, terms, stats)
        except BudgetExceeded:
            result, depth = Result.UNKNOWN, None
        stats.cache_misses += 1
        return CheckOutcome(result, None, stats, cache_tier="off", depth=depth)

    def _check_deepening(self, z3, plugin, terms, stats):
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
        terms (and the exactly-once callback discipline) with every
        other backend touching this plugin.
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
