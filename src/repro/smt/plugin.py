"""Lazy axiom expansion, reproducing the paper's Z3 external theory.

Section 6.2: facts about type invariants, matching preconditions, and
postconditions are expanded "only when instances of the theory
predicates are assigned a truth value", each instantiated axiom being
"asserted as an implication whose premise is the assigned predicate".
Iterative deepening bounds the unrolling; once the maximum depth is
hit, the plugin stops expanding and records that it did, so the driver
can downgrade a SAT answer to "unknown" (the compiler's
cannot-find-a-counterexample warning).

The encoder registers a callback per (trigger atom, polarity).  When
the SMT driver sees the atom assigned with that polarity, the callback
runs once and yields an axiom term; any *new* trigger atoms the axiom
mentions are registered by the callback itself at ``depth + 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from . import terms as tm
from .terms import Term

AxiomFn = Callable[[], Term]


@dataclass
class _Registration:
    callback: AxiomFn
    depth: int
    fired: bool = False
    #: weak registrations constrain objects beyond the unrolling horizon
    #: (e.g. the negative polarity of a deep invariant instance); their
    #: suppression does not invalidate a model
    weak: bool = False
    #: the instantiated axiom, cached so that iterative-deepening passes
    #: re-assert the same terms instead of minting fresh unknowns
    axiom: Term | None = None


@dataclass
class LazyTheoryPlugin:
    """Depth-bounded, trigger-driven axiom expansion."""

    max_depth: int = 4
    #: opaque salt identifying the axiom universe the callbacks draw
    #: from (e.g. a digest of the program table and viewer); queries
    #: whose triggers look alike but expand against different
    #: declarations must not share cache entries
    signature: object = None
    #: (atom, polarity) -> registration
    _registry: dict[tuple[Term, bool], _Registration] = field(default_factory=dict)
    #: set when an expansion was suppressed because of the depth bound
    exhausted: bool = False
    #: the (atom, polarity) pairs whose expansion was suppressed
    suppressed: set[tuple[Term, bool]] = field(default_factory=set)
    #: registry keys not yet fired this pass; expansion scans this
    #: (usually tiny, eventually empty) set instead of the whole
    #: assignment, which matters for persistent engines whose
    #: assignments span a long query chain
    _unfired: set[tuple[Term, bool]] = field(default_factory=set)

    def register(
        self,
        atom: Term,
        polarity: bool,
        callback: AxiomFn,
        depth: int,
        weak: bool = False,
    ) -> None:
        """Attach an axiom generator to one polarity of a trigger atom."""
        key = (atom, polarity)
        if key not in self._registry:
            self._registry[key] = _Registration(callback, depth, weak=weak)
            self._unfired.add(key)

    def registered(self, atom: Term, polarity: bool) -> bool:
        """Does one polarity of ``atom`` already have a generator?"""
        return (atom, polarity) in self._registry

    def has_triggers(self) -> bool:
        return bool(self._registry)

    def registrations(self) -> list[tuple[Term, bool, int, bool, AxiomFn]]:
        """Snapshot of (atom, polarity, depth, weak, callback) entries.

        The query cache uses this as the plugin's *trigger signature*:
        two queries with identical assertions but different axiom
        schemata must fingerprint differently.
        """
        return [
            (atom, polarity, reg.depth, reg.weak, reg.callback)
            for (atom, polarity), reg in self._registry.items()
        ]

    def axiom_for(self, key: tuple[Term, bool]) -> Term:
        """Instantiate (at most once, ever) the axiom for a registered key.

        Callbacks mint fresh variables and register nested triggers, so
        a key's callback must run exactly once per obligation; every
        deepening pass after the first reuses the cached term.
        """
        reg = self._registry[key]
        if reg.axiom is None:
            reg.axiom = reg.callback()
        return reg.axiom

    def pending(self, assignment: dict[Term, bool]) -> bool:
        """Would `expand` produce anything (or be depth-suppressed)?"""
        return any(
            assignment.get(atom) == value
            for atom, value in self._unfired
        )

    def expand(self, assignment: dict[Term, bool]) -> list[Term]:
        """Fire registrations triggered by the assignment.

        Returns guarded axioms of the form ``premise => axiom`` where the
        premise is the trigger literal, matching the paper's global
        assertion discipline.  Registrations beyond the depth budget are
        suppressed and :attr:`exhausted` is set.
        """
        unfired = self._unfired
        if not unfired:
            return []
        matched = [
            key for key in unfired if assignment.get(key[0]) == key[1]
        ]
        if not matched:
            return []
        if len(matched) > 1:
            # Fire in assignment order, as the full scan used to: axiom
            # order determines clause/variable numbering downstream.
            member = set(matched)
            matched = [
                (atom, value)
                for atom, value in assignment.items()
                if (atom, value) in member
            ]
        axioms: list[Term] = []
        for key in matched:
            reg = self._registry[key]
            if reg.depth > self.max_depth:
                # Beyond the unrolling budget the theory "will not further
                # expand facts" (Section 6.2): the atom stays
                # unconstrained.  A model that relies on this polarity is
                # unconfirmed -- the solver checks `relevant_suppression`
                # before trusting SAT.  The key stays unfired, so deeper
                # passes (which re-arm and raise the bound) retry it.
                self.exhausted = True
                if not reg.weak:
                    self.suppressed.add(key)
                continue
            reg.fired = True
            unfired.discard(key)
            atom, value = key
            premise = atom if value else tm.mk_not(atom)
            axioms.append(tm.mk_implies(premise, self.axiom_for(key)))
        return axioms

    def relevant_suppression(self, assignment: dict[Term, bool]) -> bool:
        """Does the model depend on a suppressed expansion?

        True when some suppressed (atom, polarity) matches the model's
        assignment of that atom, i.e. an axiom that was never asserted
        could have ruled the model out.
        """
        return any(
            assignment.get(atom) == polarity
            for atom, polarity in self.suppressed
        )

    def reset_for_depth(self, max_depth: int) -> None:
        """Re-arm every registration for a deeper iterative-deepening pass."""
        self.max_depth = max_depth
        self.exhausted = False
        self.suppressed.clear()
        for reg in self._registry.values():
            reg.fired = False
        self._unfired = set(self._registry)


class PluginView:
    """A layer-tracing target only; never instantiated.

    ``perfbench/spans.py`` lists ``PluginView.expand`` among the
    functions it wraps, and every listed function must resolve.  This
    class and that entry go together.
    """

    def expand(self, assignment: dict[Term, bool]) -> list[Term]:
        raise NotImplementedError("PluginView is never instantiated")
