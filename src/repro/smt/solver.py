"""The public SMT solver: lazy DPLL(T) with plugin-driven axiom expansion.

``Solver`` is the component the verifier talks to, playing the role Z3
plays in the paper.  The architecture is the classic *lazy* SMT loop:

1. Tseitin-encode the boolean skeleton of the assertions; theory atoms
   become SAT variables.
2. Ask the CDCL core for a propositional model.
3. Let the lazy plugin expand invariant/matches/ensures axioms
   triggered by the assignment (Section 6.2); if it produced new
   clauses, go to 2.
4. Check the assignment's theory literals with EUF+LIA.  On conflict,
   add the blocking clause of the explained conflict core and go to 2.
5. On theory success, validate the candidate model against the
   original assertions; block the assignment if validation fails
   (guards against combination incompleteness), otherwise report SAT.

Iterative deepening wraps the loop: a SAT answer obtained while the
plugin had suppressed expansions is retried at a greater depth, and if
the budget runs out the answer is UNKNOWN -- which the verifier turns
into the paper's "no counterexample found, but there may be one"
warning.  The wall-clock budget is the only bound on the loop: there
is no cap on SAT rounds.

The engine is *incremental*, MiniSat-style.  One ``CnfBuilder`` /
``SatSolver`` pair lives for the whole ``Solver`` lifetime, across
``push``/``pop`` and every deepening depth:

* Tseitin definitions, plugin axioms, and theory blocking clauses are
  facts independent of any particular query, so they are encoded once
  and carried forward (together with the CDCL core's learned clauses).
* Assertions added inside a ``push`` frame are guarded by a per-frame
  *activation literal* that is assumed during ``check``; ``pop``
  retires the guard with a permanent unit clause instead of discarding
  solver state.
* Step-5 blocking clauses (validation failures and suppressed-depth
  blocks) are only meaningful relative to the current assertion set
  and depth, so each deepening pass guards them with an ephemeral
  activation literal that is retired when the pass ends.

This is the only engine.  The test suite's differential oracle
(``tests/smt/reference_solver.py``) rebuilds all of the above per
deepening depth instead.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, fields, replace

from . import budget
from . import terms as tm
from .cache import SolverCache, term_atoms
from .cnf import CnfBuilder
from .plugin import LazyTheoryPlugin
from .sat import FALSE_VAL, TRUE_VAL, SatSolver
from .simplify import simplify
from .terms import Term
from .theory import TheoryContext, TheoryModel

# Not used here: the engine checks theory literals through its
# persistent ``TheoryContext``.  The name stays importable because
# ``perfbench/spans.py`` patches ``repro.smt.solver.check_literals``
# by name, and every one of its targets must resolve.
from .theory import check_literals  # noqa: F401


class Result(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class SolverStats:
    sat_rounds: int = 0
    theory_conflicts: int = 0
    #: literals across the theory conflict cores (the blocking clauses'
    #: total width): how tight the explanations are
    theory_core_lits: int = 0
    axioms_asserted: int = 0
    deepening_passes: int = 0
    #: phase timers (seconds): where solving time actually goes
    encode_s: float = 0.0
    sat_s: float = 0.0
    expand_s: float = 0.0
    theory_s: float = 0.0
    validate_s: float = 0.0

    def snapshot(self) -> "SolverStats":
        """A copy of the current counters (for later delta())."""
        return replace(self)

    def delta(self, before: "SolverStats") -> "SolverStats":
        """The change since ``before`` -- per-query numbers for a
        persistent solver whose counters accumulate across checks."""
        return SolverStats(
            **{
                f.name: getattr(self, f.name) - getattr(before, f.name)
                for f in fields(self)
            }
        )


class _Frame:
    """One ``push`` level: its assertion mark and lazy activation literal."""

    __slots__ = ("mark", "act")

    def __init__(self, mark: int):
        self.mark = mark
        self.act: int | None = None


class Solver:
    """Check satisfiability of quantifier-free LIA+EUF assertions."""

    #: iterative deepening schedule for the lazy plugin
    DEPTH_SCHEDULE = (2, 4, 8)
    #: default wall-clock budget per check(); queries beyond it answer
    #: UNKNOWN, which the verifier reports as "could not decide" -- the
    #: paper's iterative-deepening time budget plays the same role
    #: (Section 6.2).  Override per instance via ``time_budget``.
    TIME_BUDGET = 8.0

    def __init__(
        self,
        plugin: LazyTheoryPlugin | None = None,
        cache: SolverCache | None = None,
        time_budget: float | None = None,
    ):
        self._assertions: list[Term] = []
        self._frames: list[_Frame] = []
        self.plugin = plugin or LazyTheoryPlugin()
        self._model: TheoryModel | None = None
        #: verdict memoization; None (the default) solves every query.
        #: The cache keeps verdicts only, so a check it answers leaves
        #: no model: a caller that needs one solves with cache=None.
        self.cache = cache
        #: per-instance wall-clock budget; None falls back to TIME_BUDGET
        self.time_budget = time_budget
        #: a pass blocked candidate models that relied on suppressed
        #: expansions; its UNSAT answer is then inconclusive
        self._blocked_unconfirmed = False
        self.stats = SolverStats()
        # -- per-check observability (read by the tracing layer) ---------
        #: deepest iterative-deepening depth the last check() reached
        #: (0: answered before deepening -- cache hit or no triggers)
        self.last_depth: int = 0
        #: why the last check() answered UNKNOWN: "deadline" (the time
        #: budget ran out) or "depth" (the deepening schedule ended with
        #: an expansion still suppressed); None for any other answer
        self.unknown_cause: str | None = None
        # -- the persistent incremental engine ---------------------------
        self._cnf = CnfBuilder()
        self._sat = SatSolver()
        self._clause_cursor = 0
        #: how many leading assertions have been Tseitin-encoded
        self._encoded = 0
        #: axioms already asserted as clauses (they are global facts;
        #: re-asserting across queries and depths would be wasted work)
        self._asserted_axioms: set[Term] = set()
        self._simplify_memo: dict[Term, Term] = {}
        #: persistent theory state (undoable congruence closure) shared
        #: by every theory check this engine ever runs; consecutive
        #: assignments overlap on a long literal prefix, which the
        #: context keeps asserted instead of re-closing from scratch
        self._theory = TheoryContext()

    # -- assertion stack ------------------------------------------------------

    def add(self, term: Term) -> None:
        if not term.is_bool:
            raise ValueError("assertions must be boolean terms")
        self._assertions.append(simplify(term, self._simplify_memo))
        self._model = None

    def push(self) -> None:
        self._frames.append(_Frame(len(self._assertions)))
        self._model = None

    def pop(self) -> None:
        frame = self._frames.pop()
        del self._assertions[frame.mark:]
        self._encoded = min(self._encoded, frame.mark)
        if frame.act is not None:
            # Retire the frame's guard permanently.  Eagerly, not at the
            # next check: phase saving remembers the guard as true, and a
            # branch on it would re-activate the popped clauses.
            self._cnf.add_clause_lits((-frame.act,))
            self._flush_clauses()
        self._model = None

    # -- solving ----------------------------------------------------------

    def check(self) -> Result:
        """Decide the conjunction of current assertions."""
        self._model = None
        self.last_depth = 0
        self.unknown_cause = None
        fp = None
        if self.cache is not None:
            fp = self.cache.fingerprint(
                self._assertions, self.plugin, self.DEPTH_SCHEDULE
            )
            verdict = self.cache.lookup(fp)
            if verdict is not None:
                return verdict
        seconds = (
            self.TIME_BUDGET if self.time_budget is None else self.time_budget
        )
        budget.arm(seconds)
        try:
            result = self._check_with_deepening()
        except budget.BudgetExceeded:
            result = Result.UNKNOWN
            self.unknown_cause = "deadline"
        finally:
            budget.disarm()
        if fp is not None and result != Result.UNKNOWN:
            # UNKNOWN depends on the budget, not the query: never cached.
            self.cache.store(fp, result)
        return result

    def _check_with_deepening(self) -> Result:
        if not self._encode_pending():
            return Result.UNSAT
        # Atoms the current query can mention.  Built once per check --
        # axiom expansion widens it in place, and carrying the widened
        # set into deeper passes is sound: the same axioms would be
        # re-delivered (and re-widen it) in round one anyway.
        relevant: set[Term] = set()
        for assertion in self._assertions:
            relevant.update(term_atoms(assertion))
        if not self.plugin.has_triggers():
            return self._run_pass(relevant)
        for depth in self.DEPTH_SCHEDULE:
            self.stats.deepening_passes += 1
            self.last_depth = depth
            self.plugin.reset_for_depth(depth)
            result = self._run_pass(relevant)
            if result == Result.UNSAT and not self._blocked_unconfirmed:
                # Suppressed expansions only *omit* axioms; omitting
                # axioms only enlarges the model space, so UNSAT at any
                # depth is conclusive -- unless we blocked unconfirmed
                # models ourselves, in which case only a deeper pass can
                # tell whether one of them was genuine.
                return result
            if result == Result.SAT:
                return result
        self.unknown_cause = "depth"
        return Result.UNKNOWN

    def model(self) -> TheoryModel:
        if self._model is None:
            raise RuntimeError(
                "model is only available after a solved SAT check (a "
                "query-cache hit keeps the verdict only)"
            )
        return self._model

    # -- incremental encoding ---------------------------------------------

    def _frame_for(self, index: int) -> _Frame | None:
        for frame in reversed(self._frames):
            if index >= frame.mark:
                return frame
        return None

    def _encode_pending(self) -> bool:
        """Tseitin-encode assertions added since the last check.

        Frame-local assertions get their frame's activation guard, so a
        later ``pop`` can retire them without touching shared state.
        Returns False when the unguarded clause set became unsatisfiable.
        """
        t0 = time.perf_counter()
        while self._encoded < len(self._assertions):
            index = self._encoded
            frame = self._frame_for(index)
            guard = None
            if frame is not None:
                if frame.act is None:
                    frame.act = self._cnf.new_var()
                guard = frame.act
            self._cnf.assert_term(self._assertions[index], guard)
            self._encoded += 1
        ok = self._flush_clauses()
        self.stats.encode_s += time.perf_counter() - t0
        return ok

    def _flush_clauses(self) -> bool:
        ok = True
        clauses = self._cnf.clauses
        while self._clause_cursor < len(clauses):
            clause = clauses[self._clause_cursor]
            self._clause_cursor += 1
            if not self._sat.add_clause(list(clause)):
                ok = False
        return ok

    # -- one pass of the lazy loop ---------------------------------------

    def _run_pass(self, relevant: set[Term]) -> Result:
        self._blocked_unconfirmed = False
        pass_act = self._cnf.new_var()
        try:
            return self._pass_rounds(pass_act, relevant)
        finally:
            # Step-5 blocking clauses are only valid relative to this
            # pass's assertion set and depth; retire their guard for
            # good.  Eagerly (see pop()): saved phases must not be able
            # to re-activate them in a later pass.
            self._cnf.add_clause_lits((-pass_act,))
            self._flush_clauses()

    def _pass_rounds(self, pass_act: int, relevant: set[Term]) -> Result:
        cnf = self._cnf
        sat = self._sat
        plugin = self.plugin
        if not self._flush_clauses():
            return Result.UNSAT
        assumptions = [f.act for f in self._frames if f.act is not None]
        assumptions.append(pass_act)
        # The persistent atom table spans every query this engine has
        # seen; restrict each round's assignment to atoms the *current*
        # query can mention (assertions plus axioms triggered so far),
        # exactly the set a from-scratch solver would build.  The
        # (variable, atom) pair list is cached and rebuilt only when the
        # relevant set or the variable table grew, instead of scanning
        # the whole table every round; ascending-variable order is
        # precisely the table's insertion order, so the assignment is
        # built in the same order as before.
        var_of_term = cnf.var_of_term
        pairs: list[tuple[int, Term]] = []
        by_id: list[Term] = []
        pairs_key: tuple[int, int] | None = None

        def atom_pairs() -> list[tuple[int, Term]]:
            nonlocal pairs, by_id, pairs_key
            key = (len(relevant), len(var_of_term))
            if key != pairs_key:
                pairs = sorted(
                    (var_of_term[a], a) for a in relevant if a in var_of_term
                )
                # The same atoms in interned-id order: step 4 needs its
                # literal lists id-sorted (stable across queries, so the
                # theory context sees long common prefixes), and keeping
                # a second presorted view avoids re-sorting every round.
                by_id = sorted((a for _, a in pairs), key=lambda a: a._id)
                pairs_key = key
            return pairs

        while True:
            self.stats.sat_rounds += 1
            budget.checkpoint()
            t0 = time.perf_counter()
            satisfiable = sat.solve(assumptions)
            self.stats.sat_s += time.perf_counter() - t0
            if not satisfiable:
                return Result.UNSAT
            # Step 3: lazy axiom expansion, run to a fixpoint against the
            # *current* SAT model.  When every axiom a round triggers is
            # already asserted (an earlier query or depth put its clauses
            # in the database), the model we just found already satisfies
            # them, so re-solving would reproduce it -- instead, widen the
            # relevant-atom set with the duplicate axioms' atoms, rebuild
            # the assignment from the values the SAT solver already holds,
            # and expand again.  Only genuinely fresh clauses force a
            # re-solve.
            need_resolve = False
            while True:
                assignment: dict[Term, bool] = {}
                for var, atom in atom_pairs():
                    value = sat.value(var)
                    if value == TRUE_VAL:
                        assignment[atom] = True
                    elif value == FALSE_VAL:
                        assignment[atom] = False
                t0 = time.perf_counter()
                axioms = plugin.expand(assignment)
                self.stats.expand_s += time.perf_counter() - t0
                if not axioms:
                    break
                fresh = 0
                for axiom in axioms:
                    relevant.update(term_atoms(axiom))
                    if axiom in self._asserted_axioms:
                        continue
                    self._asserted_axioms.add(axiom)
                    cnf.assert_term(axiom)
                    fresh += 1
                if fresh:
                    self.stats.axioms_asserted += fresh
                    need_resolve = True
                    break
            if need_resolve:
                if not self._flush_clauses():
                    return Result.UNSAT
                continue

            # Step 4: theory consistency.
            t0 = time.perf_counter()
            literals = []
            for atom in by_id:
                value = assignment.get(atom)
                if value is not None:
                    literals.append((atom, value))
            outcome = self._theory.check(literals)
            self.stats.theory_s += time.perf_counter() - t0
            if not outcome.consistent:
                self.stats.theory_conflicts += 1
                conflict = outcome.conflict or literals
                self.stats.theory_core_lits += len(conflict)
                blocking = [
                    tm.mk_not(atom) if value else atom for atom, value in conflict
                ]
                # A theory conflict refutes the literal set itself -- a
                # fact about the theories, valid for every later query:
                # assert it unguarded so it carries forward.
                cnf.assert_clause_terms(blocking)
                if not self._flush_clauses():
                    return Result.UNSAT
                continue

            # Step 5: validate against the original assertions.
            model = outcome.model
            assert model is not None
            t0 = time.perf_counter()
            memo: dict[Term, bool] = {}
            valid = all(_evaluate(a, model, memo) for a in self._assertions)
            self.stats.validate_s += time.perf_counter() - t0
            if valid:
                if plugin.relevant_suppression(assignment):
                    # The model depends on an expansion beyond the depth
                    # horizon, so it is unconfirmed: rule it out and look
                    # for a model that stays within the horizon.
                    self._blocked_unconfirmed = True
                    blocking = [
                        tm.mk_not(atom) if polarity else atom
                        for atom, polarity in plugin.suppressed
                        if assignment.get(atom) == polarity
                    ]
                    cnf.assert_clause_terms(blocking, guard=pass_act)
                    if not self._flush_clauses():
                        return Result.UNSAT
                    continue
                self._model = model
                return Result.SAT
            blocking = [
                tm.mk_not(atom) if value else atom for atom, value in literals
            ]
            # Validation failure is relative to *these* assertions (extra
            # context can flip it), so the block dies with the pass.
            cnf.assert_clause_terms(blocking, guard=pass_act)
            if not self._flush_clauses():
                return Result.UNSAT


# ---------------------------------------------------------------------------
# Model evaluation (for validation and for counterexample reporting)
# ---------------------------------------------------------------------------


def _evaluate(
    t: Term, model: TheoryModel, memo: dict[Term, bool] | None = None
) -> bool:
    """Evaluate a boolean term under a theory model.

    ``memo`` caches results per (term, model) pair for one validation
    sweep; assertions share large subformulas (invariants repeat under
    every arm), so memoization turns the sweep linear in the term DAG.
    """
    if t in model.atom_values:
        return model.atom_values[t]
    if memo is not None:
        hit = memo.get(t)
        if hit is not None:
            return hit
    kind = t.kind
    if kind == tm.BOOL_CONST:
        return t.payload
    if kind == tm.NOT:
        result = not _evaluate(t.args[0], model, memo)
    elif kind == tm.AND:
        result = all(_evaluate(a, model, memo) for a in t.args)
    elif kind == tm.OR:
        result = any(_evaluate(a, model, memo) for a in t.args)
    elif kind == tm.IMPLIES:
        result = (not _evaluate(t.args[0], model, memo)) or _evaluate(
            t.args[1], model, memo
        )
    elif kind == tm.IFF:
        result = _evaluate(t.args[0], model, memo) == _evaluate(
            t.args[1], model, memo
        )
    elif kind == tm.ITE:
        branch = t.args[1] if _evaluate(t.args[0], model, memo) else t.args[2]
        result = _evaluate(branch, model, memo)
    elif kind == tm.LE:
        result = eval_int(t.args[0], model) <= eval_int(t.args[1], model)
    elif kind == tm.EQ:
        a, b = t.args
        if a.sort.name == "Int":
            result = eval_int(a, model) == eval_int(b, model)
        else:
            result = model.same_object(a, b) or a is b
    elif kind in (tm.VAR, tm.APP):
        # An atom the SAT core never saw; unconstrained, so any value
        # satisfies the literal -- pick False deterministically.
        result = False
    else:
        raise AssertionError(f"cannot evaluate {t!r}")
    if memo is not None:
        memo[t] = result
    return result


def eval_int(t: Term, model: TheoryModel) -> int:
    """Evaluate an integer term under a theory model (default 0)."""
    if t in model.int_values:
        return model.int_values[t]
    kind = t.kind
    if kind == tm.INT_CONST:
        return t.payload
    if kind == tm.ADD:
        return sum(eval_int(a, model) for a in t.args)
    if kind == tm.MUL:
        product = 1
        for a in t.args:
            product *= eval_int(a, model)
        return product
    if kind == tm.ITE:
        branch = t.args[1] if _evaluate(t.args[0], model) else t.args[2]
        return eval_int(branch, model)
    return 0
