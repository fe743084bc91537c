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

import threading
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
    #: serializes registry growth and first-firing of callbacks when
    #: several views (see PluginView) share this plugin across threads;
    #: reentrant because a firing callback registers nested triggers
    #: back here
    _lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )

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
        with self._lock:
            if key not in self._registry:
                self._registry[key] = _Registration(callback, depth, weak=weak)
                self._unfired.add(key)

    def has_triggers(self) -> bool:
        return bool(self._registry)

    def registrations(self) -> list[tuple[Term, bool, int, bool, AxiomFn]]:
        """Snapshot of (atom, polarity, depth, weak, callback) entries.

        The query cache uses this as the plugin's *trigger signature*:
        two queries with identical assertions but different axiom
        schemata must fingerprint differently.
        """
        with self._lock:
            return [
                (atom, polarity, reg.depth, reg.weak, reg.callback)
                for (atom, polarity), reg in self._registry.items()
            ]

    def axiom_for(self, key: tuple[Term, bool]) -> Term:
        """Instantiate (at most once, ever) the axiom for a registered key.

        Callbacks mint fresh variables and register nested triggers, so
        a key's callback must run exactly once per obligation no matter
        how many views observe the trigger; the reentrant lock
        serializes the first firing and every later caller reuses the
        cached term.
        """
        reg = self._registry[key]
        if reg.axiom is None:
            with self._lock:
                if reg.axiom is None:
                    reg.axiom = reg.callback()
        return reg.axiom

    def view(self) -> "PluginView":
        """A private cursor over this plugin (see PluginView)."""
        return PluginView(self)

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
        with self._lock:
            for reg in self._registry.values():
                reg.fired = False
            self._unfired = set(self._registry)


class PluginView:
    """A private cursor over a shared :class:`LazyTheoryPlugin`.

    Lets several solvers work on the *same* obligation, each walking
    its own iterative-deepening schedule.  The registry of trigger
    callbacks — and each registration's instantiated axiom — is
    shared: a callback mints fresh variables and registers nested
    triggers, so it has to run exactly once per obligation regardless
    of how many views observe its trigger (see
    :meth:`LazyTheoryPlugin.axiom_for`).  The *cursor* (which keys
    fired this pass, the current depth bound, the suppression record)
    belongs to the view.  A view quacks exactly like a plugin to the
    solver and the query cache (``signature``/``has_triggers``/
    ``registrations`` are proxied, so cache fingerprints are identical
    to the base plugin's).

    No solving path creates views: one engine solves each obligation.
    The class stays while ``perfbench/spans.py`` names
    ``PluginView.expand`` as a layer target; both go together.
    """

    def __init__(self, plugin: LazyTheoryPlugin):
        self._plugin = plugin
        self.max_depth = plugin.max_depth
        self.exhausted = False
        self.suppressed: set[tuple[Term, bool]] = set()
        self._fired: set[tuple[Term, bool]] = set()
        self._unfired: set[tuple[Term, bool]] = set()
        self._seen = 0
        self._sync()

    @property
    def signature(self):
        return self._plugin.signature

    def has_triggers(self) -> bool:
        return self._plugin.has_triggers()

    def registrations(self):
        return self._plugin.registrations()

    def register(self, atom, polarity, callback, depth, weak=False) -> None:
        self._plugin.register(atom, polarity, callback, depth, weak=weak)

    def _sync(self) -> None:
        # Adopt registry keys added (by any view's callbacks) since the
        # last sync.  The registry dict is insertion-ordered and only
        # ever grows, so the new keys are exactly the tail.
        plugin = self._plugin
        with plugin._lock:
            keys = list(plugin._registry)
        for key in keys[self._seen:]:
            if key not in self._fired:
                self._unfired.add(key)
        self._seen = len(keys)

    def pending(self, assignment: dict[Term, bool]) -> bool:
        self._sync()
        return any(
            assignment.get(atom) == value for atom, value in self._unfired
        )

    def expand(self, assignment: dict[Term, bool]) -> list[Term]:
        self._sync()
        unfired = self._unfired
        if not unfired:
            return []
        matched = [
            key for key in unfired if assignment.get(key[0]) == key[1]
        ]
        if not matched:
            return []
        if len(matched) > 1:
            # Same assignment-order firing discipline as the base
            # plugin: axiom order determines clause numbering downstream.
            member = set(matched)
            matched = [
                (atom, value)
                for atom, value in assignment.items()
                if (atom, value) in member
            ]
        axioms: list[Term] = []
        for key in matched:
            reg = self._plugin._registry[key]
            if reg.depth > self.max_depth:
                self.exhausted = True
                if not reg.weak:
                    self.suppressed.add(key)
                continue
            self._fired.add(key)
            unfired.discard(key)
            atom, value = key
            premise = atom if value else tm.mk_not(atom)
            axioms.append(tm.mk_implies(premise, self._plugin.axiom_for(key)))
        return axioms

    def relevant_suppression(self, assignment: dict[Term, bool]) -> bool:
        return any(
            assignment.get(atom) == polarity
            for atom, polarity in self.suppressed
        )

    def reset_for_depth(self, max_depth: int) -> None:
        self.max_depth = max_depth
        self.exhausted = False
        self.suppressed.clear()
        self._fired.clear()
        with self._plugin._lock:
            keys = list(self._plugin._registry)
        self._unfired = set(keys)
        self._seen = len(keys)
