"""Theory reasoning: EUF + LIA combination over literal sets.

The lazy SMT loop in :mod:`repro.smt.solver` hands this module a full
assignment of theory atoms and asks whether it is consistent in the
combined theory of uninterpreted functions and linear integer
arithmetic.  Combination follows a light-weight Nelson-Oppen scheme:

1. integer-sorted atoms are *purified* -- maximal non-arithmetic
   integer subterms (uninterpreted applications, variables) become LIA
   variables while also being registered with the congruence closure;
2. EUF and LIA exchange equalities over those shared terms until a
   fixpoint (EUF by congruence, LIA by entailment probing), each
   equality carrying its justification: ``euf.explain`` for one EUF
   hands to LIA, the failing probes' cores for one LIA hands to EUF;
3. a combined model is assembled from the LIA model and the EUF
   classes -- or, when either theory fails, its explanation is mapped
   back through those justifications to the input literals, giving the
   conflict core in one pass.

LIA is non-convex, so entailment probing can in principle miss a
disjunction of equalities; the solver driver guards against this by
validating candidate models against the original assertions and
blocking the assignment if validation fails (see solver.py), keeping
the overall procedure sound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from . import lia
from . import terms as tm
from .euf import EufSolver
from .sorts import INT
from .terms import Term

Literal = tuple[Term, bool]  # (atom, polarity)


@dataclass
class TheoryModel:
    """A first-order model for one consistent literal set."""

    int_values: dict[Term, int] = field(default_factory=dict)
    #: object term -> representative class id
    obj_class: dict[Term, int] = field(default_factory=dict)
    atom_values: dict[Term, bool] = field(default_factory=dict)

    def same_object(self, a: Term, b: Term) -> bool:
        ca, cb = self.obj_class.get(a), self.obj_class.get(b)
        return ca is not None and ca == cb


@dataclass
class TheoryCheck:
    """Result of a consistency check."""

    consistent: bool
    model: TheoryModel | None = None
    conflict: list[Literal] | None = None


def _linearize(t: Term, vars_out: set[Term]) -> tuple[dict[Term, int], int]:
    """Term -> (coefficient map over purified variables, constant)."""
    if t.kind == tm.INT_CONST:
        return {}, t.payload
    if t.kind == tm.ADD:
        coeffs: dict[Term, int] = {}
        const = 0
        for arg in t.args:
            sub_coeffs, sub_const = _linearize(arg, vars_out)
            const += sub_const
            for v, c in sub_coeffs.items():
                coeffs[v] = coeffs.get(v, 0) + c
        return coeffs, const
    if t.kind == tm.MUL:
        a, b = t.args
        if a.kind == tm.INT_CONST:
            sub_coeffs, sub_const = _linearize(b, vars_out)
            return (
                {v: a.payload * c for v, c in sub_coeffs.items()},
                a.payload * sub_const,
            )
        # Nonlinear product: opaque.
        vars_out.add(t)
        return {t: 1}, 0
    # VAR, APP, anything else: a purified LIA variable.
    vars_out.add(t)
    return {t: 1}, 0


def _diff_constraint(a: Term, b: Term, rel: str, vars_out: set[Term]) -> lia.Constraint:
    """Build the LIA constraint ``a - b  rel  0``."""
    ca, ka = _linearize(a, vars_out)
    cb, kb = _linearize(b, vars_out)
    coeffs = dict(ca)
    for v, c in cb.items():
        coeffs[v] = coeffs.get(v, 0) - c
    return lia.Constraint.make(coeffs, ka - kb, rel)


class _Separation:
    """Literals split into their EUF and LIA parts, each part keeping
    the literal it came from (the reason EUF records, the source of a
    LIA constraint)."""

    def __init__(self, literals: list[Literal]):
        self.euf_eqs: list[tuple[Term, Term, Literal]] = []
        self.euf_nes: list[tuple[Term, Term, Literal]] = []
        self.preds: list[tuple[Term, bool]] = []
        self.lia_constraints: list[lia.Constraint] = []
        #: parallel to lia_constraints: the literal behind each
        self.lia_sources: list[Literal] = []
        self.shared: set[Term] = set()
        for lit in literals:
            atom, value = lit
            if atom.kind == tm.LE:
                a, b = atom.args
                if value:
                    c = _diff_constraint(a, b, lia.LE, self.shared)
                else:  # not (a <= b)  ==  b + 1 <= a  ==  b - a + 1 <= 0
                    c = _diff_constraint(b, a, lia.LE, self.shared)
                    c = lia.Constraint(c.coeffs, c.const + 1, lia.LE)
                self.lia_constraints.append(c)
                self.lia_sources.append(lit)
            elif atom.kind == tm.EQ:
                a, b = atom.args
                if a.sort == INT:
                    rel = lia.EQ if value else lia.NE
                    self.lia_constraints.append(
                        _diff_constraint(a, b, rel, self.shared)
                    )
                    self.lia_sources.append(lit)
                else:
                    (self.euf_eqs if value else self.euf_nes).append((a, b, lit))
            else:
                # Boolean VAR or APP: an EUF predicate atom.
                self.preds.append((atom, value))

    def assert_euf(self, euf: EufSolver) -> None:
        """Assert the EUF part, each fact with its literal as reason."""
        for a, b, lit in self.euf_eqs:
            euf.assert_eq(a, b, lit)
        for a, b, lit in self.euf_nes:
            euf.assert_ne(a, b, lit)
        for atom, value in self.preds:
            euf.assert_pred(atom, value)  # reason: the literal itself
        # Register shared integer terms so congruence can reach them.
        for t in self.shared:
            euf.find(t)


def check_literals(literals: list[Literal]) -> TheoryCheck:
    """Decide a conjunction of theory literals: a model, or a conflict core."""
    sep = _Separation(literals)
    euf = EufSolver()
    sep.assert_euf(euf)
    return _combine(
        euf, sep.lia_constraints, sep.lia_sources, sep.shared, literals
    )


class _FromEuf:
    """Source of an equality EUF handed to LIA: explained by the closure."""

    __slots__ = ("a", "b")

    def __init__(self, a: Term, b: Term):
        self.a = a
        self.b = b


class _FromLia:
    """Reason of an equality LIA handed to EUF: the constraints forcing it."""

    __slots__ = ("core",)

    def __init__(self, core: tuple[lia.Constraint, ...]):
        self.core = core


def _conflict(
    explanations: list[list],
    euf: EufSolver,
    constraints: list[lia.Constraint],
    sources: list,
    literals: list[Literal],
) -> TheoryCheck:
    """Map a theory's explanations back to input literals, in input order.

    Each explanation mixes literals, LIA constraints (resolved through
    ``sources``), and the two exchange justifications.  The resolution
    is well-founded: an exchanged equality is justified only by facts
    that existed before it was exchanged.
    """
    source_of: dict[lia.Constraint, object] = {}
    for c, source in zip(constraints, sources):
        source_of.setdefault(c, source)
    cores = []
    for reasons in explanations:
        core: set[Literal] = set()
        seen: set = set()
        todo = list(reasons)
        while todo:
            reason = todo.pop()
            if type(reason) is tuple:
                core.add(reason)
            elif reason not in seen:
                seen.add(reason)
                if type(reason) is lia.Constraint:
                    todo.append(source_of[reason])
                elif type(reason) is _FromLia:
                    todo.extend(reason.core)
                else:
                    todo.extend(euf.explain(reason.a, reason.b))
        cores.append(core)
    best = max(cores, key=_recency)
    return TheoryCheck(False, conflict=[lit for lit in literals if lit in best])


def _recency(core: set[Literal]) -> tuple:
    """Order on cores: the larger one is over more recently created atoms.

    Ascending atom ids compared lexicographically, where a subset beats
    its supersets.  Of several conflicts this picks the one deletion
    from the front of the literal list would keep; its blocking clause
    targets the newest axiom instances, which keeps the DPLL(T) search
    as short as deletion-based cores did.
    """
    return tuple(sorted(atom._id for atom, _ in core)) + (math.inf,)


def _iface_candidates(atom: Term) -> tuple[Term, ...]:
    """Arguments of uninterpreted applications under ``atom``.

    Cached on the interned node: theory checks re-examine the same
    atoms every round and every query, and the subterm walk was the
    single hottest path in the whole solver.
    """
    cached = atom._iface
    if cached is None:
        cached = tuple(
            dict.fromkeys(
                arg
                for sub in tm.subterms(atom)
                if sub.kind == tm.APP
                for arg in sub.args
            )
        )
        atom._iface = cached
    return cached


def _interface_terms(literals: list[Literal], shared: set[Term]) -> list[Term]:
    """Shared integer terms that feed EUF congruence.

    LIA -> EUF equality propagation only matters for terms appearing as
    arguments of uninterpreted applications (congruence could then
    merge the parents).  Anything else can safely disagree with EUF's
    partition, so probing it would be wasted work.
    """
    out: set[Term] = set()
    for atom, _ in literals:
        for arg in _iface_candidates(atom):
            if arg in shared:
                out.add(arg)
    return sorted(out, key=lambda t: t._id)


def _combine(
    euf: EufSolver,
    lia_constraints: list[lia.Constraint],
    lia_sources: list[Literal],
    shared_set: set[Term],
    literals: list[Literal],
) -> TheoryCheck:
    """Nelson-Oppen fixpoint + model assembly over a primed EUF engine.

    ``euf`` must already hold the literal set's equalities, disequalities
    and predicate assertions, with every shared term registered and each
    fact's literal as its reason; ``lia_sources`` gives the literal
    behind each constraint.  The fixpoint then only exchanges equalities
    between the theories.  The caller owns the engine, so a persistent
    (undoable) instance can roll the exchange back afterwards.
    """
    constraints = list(lia_constraints)
    sources: list = list(lia_sources)
    shared = sorted(shared_set, key=lambda t: t._id)
    probe_terms = _interface_terms(literals, shared_set)
    known_eq: set[tuple[Term, Term]] = set()
    result = lia.LiaResult(True)

    for _ in range(len(probe_terms) * len(probe_terms) + 2):
        if not euf.check():
            return _conflict(euf.conflicts(), euf, constraints, sources, literals)
        # EUF -> LIA: congruent shared terms are numerically equal.
        changed = False
        for a, b in itertools.combinations(shared, 2):
            if (a, b) in known_eq:
                continue
            if euf.find(a) is euf.find(b):
                known_eq.add((a, b))
                constraints.append(
                    lia.Constraint.make({a: 1, b: -1}, 0, lia.EQ)
                )
                sources.append(_FromEuf(a, b))
                changed = True
        result = lia.solve(constraints)
        if not result:
            return _conflict([result.core], euf, constraints, sources, literals)
        # LIA -> EUF: entailed equalities, but only over terms whose
        # equality EUF could actually exploit (congruence interfaces).
        for a, b in itertools.combinations(probe_terms, 2):
            if (a, b) in known_eq:
                continue
            core = lia.eq_core(constraints, a, b)
            if core is not None:
                known_eq.add((a, b))
                euf.assert_eq(a, b, _FromLia(core))
                changed = True
        if not changed:
            break
    else:
        result = lia.solve(constraints)
        if not result:
            return _conflict([result.core], euf, constraints, sources, literals)

    if not euf.check():
        return _conflict(euf.conflicts(), euf, constraints, sources, literals)

    # --- model assembly ----------------------------------------------------
    model = TheoryModel()
    lia_model = result.model
    for t in shared:
        model.int_values[t] = lia_model.get(t, 0)
    # Also expose plain integer variables that only LIA saw.
    for v, value in lia_model.items():
        if isinstance(v, Term):
            model.int_values.setdefault(v, value)
    class_ids: dict[Term, int] = {}
    for rep, members in euf.classes().items():
        cid = class_ids.setdefault(rep, len(class_ids))
        for m in members:
            model.obj_class[m] = cid
    for atom, value in literals:
        model.atom_values[atom] = value
    return TheoryCheck(True, model=model)


class _StackEntry:
    """One asserted literal plus everything needed to retract it."""

    __slots__ = ("atom", "value", "mark", "n_lia", "shared")

    def __init__(self, atom, value, mark, n_lia, shared):
        self.atom = atom
        self.value = value
        self.mark = mark
        self.n_lia = n_lia
        self.shared = shared


class TheoryContext:
    """A persistent theory checker that reuses state across literal sets.

    Consecutive theory checks issued by one incremental solver share
    most of their literals (the encoding orders atoms stably, so shared
    atoms occupy a common prefix).  Instead of rebuilding the congruence
    closure from scratch per check, this context keeps one undoable
    :class:`EufSolver` and a literal stack: each :meth:`check` pops the
    stack back to the longest common prefix with the new literal list,
    pushes the divergent suffix (settling the closure per literal, so
    prefix work is never repeated), and then runs the same Nelson-Oppen
    exchange as :func:`check_literals` -- whose own mutations are rolled
    back before the next check, since equalities entailed under one
    constraint set need not hold under the next.

    Verdicts match :func:`check_literals` (the closure is
    order-independent and the exchange runs on identical data); model
    *representatives* may differ, which is fine because callers only use
    models semantically.  Conflict cores come from this context's own
    closure: its proof edges sit on the same undo trail as the rest of
    its state, so they always describe the current literal stack.
    """

    def __init__(self) -> None:
        self._euf = EufSolver(undoable=True)
        self._stack: list[_StackEntry] = []
        self._lia: list[lia.Constraint] = []
        #: parallel to _lia: the literal behind each constraint
        self._lia_sources: list[Literal] = []
        self._shared: dict[Term, int] = {}
        self._fix_mark: tuple[int, int, int] | None = None

    def check(self, literals: list[Literal]) -> TheoryCheck:
        self._sync(literals)
        self._fix_mark = self._euf.mark()
        return _combine(
            self._euf, self._lia, self._lia_sources, set(self._shared), literals
        )

    def _sync(self, literals: list[Literal]) -> None:
        euf = self._euf
        if self._fix_mark is not None:
            euf.undo_to(self._fix_mark)
            self._fix_mark = None
        stack = self._stack
        prefix = 0
        limit = min(len(stack), len(literals))
        while prefix < limit:
            entry = stack[prefix]
            atom, value = literals[prefix]
            if entry.atom is not atom or entry.value is not value:
                break
            prefix += 1
        while len(stack) > prefix:
            entry = stack.pop()
            euf.undo_to(entry.mark)
            del self._lia[entry.n_lia :]
            del self._lia_sources[entry.n_lia :]
            for t in entry.shared:
                count = self._shared[t] - 1
                if count:
                    self._shared[t] = count
                else:
                    del self._shared[t]
        for lit in literals[prefix:]:
            self._push(lit)

    def _push(self, lit: Literal) -> None:
        euf = self._euf
        entry = _StackEntry(
            lit[0], lit[1], euf.mark(), len(self._lia), ()
        )
        sep = _Separation([lit])
        sep.assert_euf(euf)
        # Settle now so this literal's closure work sits below the next
        # literal's mark and survives later pops of deeper entries.
        euf._settle()
        if sep.lia_constraints:
            self._lia.extend(sep.lia_constraints)
            self._lia_sources.extend(sep.lia_sources)
        if sep.shared:
            entry.shared = tuple(sep.shared)
            for t in sep.shared:
                self._shared[t] = self._shared.get(t, 0) + 1
        self._stack.append(entry)
