"""Congruence closure for equality with uninterpreted functions (EUF).

The verifier encodes object values, skolemised method outputs, and
matches/ensures predicate instances as uninterpreted applications, so
EUF does the heavy lifting for reasoning about patterns (Section 5 of
the paper).  Boolean predicate atoms are handled by equating them with
the distinguished ``TRUE``/``FALSE`` terms.

The implementation is the classic union-find + signature-table
congruence closure, extended with a *proof forest* (Nieuwenhuis &
Oliveras, "Fast congruence closure and extensions", 2007) so that
every inconsistency comes with its explanation: each merge records
one proof edge, labelled either with the *reason* the caller attached
to the asserted equality or as a congruence of two applications, and
:meth:`EufSolver.explain` collects the reasons on the forest path
between two terms, recursing into argument pairs for congruence edges.
:mod:`repro.smt.theory` attaches input literals as reasons, so a
failing check yields its conflict core directly.  A merge that would
join ``TRUE``'s class with ``FALSE``'s is refused and kept as a clash,
so a closure holding several independent conflicts reports each of
them (:meth:`EufSolver.conflicts`) and the caller picks one.

An instance constructed with ``undoable=True`` additionally records
every state mutation -- proof edges included -- on a trail, so a
persistent owner (the incremental engine's
:class:`~repro.smt.theory.TheoryContext`) can roll the closure back to
a marked point instead of rebuilding it -- consecutive queries in a
verification chain share most of their literals, and re-running the
closure over the shared prefix was the single largest redundant cost.
"""

from __future__ import annotations

from . import terms as tm
from .terms import Term

#: proof-edge label of a merge made by congruence: the edge joins two
#: applications of one symbol whose arguments are pairwise equal
_CONGRUENCE = object()


class EufSolver:
    """A congruence closure engine with explanations, optionally undoable.

    Usage: construct, ``assert_eq``/``assert_ne``/``assert_pred`` any
    number of times, then call :meth:`check`.  After a successful check,
    :meth:`find` gives class representatives and :meth:`congruent`
    answers equality queries under the asserted constraints; after a
    failed one, :meth:`conflicts` names the reasons behind it.

    Every assertion carries a *reason*, an opaque token the caller
    chooses (by default the asserted pair, or the ``(atom, value)``
    literal for predicates).  :meth:`explain` and :meth:`conflicts`
    return reasons, never derived facts.

    With ``undoable=True``, :meth:`mark` snapshots the current state
    and :meth:`undo_to` restores it.  Path compression is kept -- the
    trail records every parent rewrite, compressions included, so
    rollback is exact.
    """

    def __init__(self, undoable: bool = False) -> None:
        self._parent: dict[Term, Term] = {}
        self._rank: dict[Term, int] = {}
        #: class representative -> parent applications mentioning the class
        self._uses: dict[Term, list[Term]] = {}
        self._sig: dict[tuple, Term] = {}
        #: (a, b, reason) merges not yet applied
        self._pending: list[tuple[Term, Term, object]] = []
        self._diseqs: list[tuple[Term, Term, object]] = []
        #: (a, b, reason) merges refused because they would join TRUE's
        #: class with FALSE's: each is one conflict, kept apart so that
        #: later conflicts stay visible too
        self._clashes: list[tuple[Term, Term, object]] = []
        self._registered: set[Term] = set()
        #: proof forest: term -> (proof parent, edge label); roots absent
        self._proof: dict[Term, tuple[Term, object]] = {}
        #: mutation log for rollback; None on plain (rebuilt) instances,
        #: which then pay only a predicate test per mutation
        self._trail: list[tuple] | None = [] if undoable else None

    # -- undo -----------------------------------------------------------------

    def mark(self) -> tuple[int, int, int]:
        """Snapshot the state; pass the result to :meth:`undo_to`."""
        assert self._trail is not None, "constructed without undoable=True"
        return (len(self._trail), len(self._diseqs), len(self._clashes))

    def undo_to(self, mark: tuple[int, int, int]) -> None:
        """Roll every mutation after ``mark`` back, newest first."""
        trail = self._trail
        assert trail is not None
        trail_len, diseq_len, clash_len = mark
        while len(trail) > trail_len:
            op = trail.pop()
            tag = op[0]
            if tag == "parent":
                self._parent[op[1]] = op[2]
            elif tag == "proof":
                if op[2] is None:
                    del self._proof[op[1]]
                else:
                    self._proof[op[1]] = op[2]
            elif tag == "rank":
                self._rank[op[1]] = op[2]
            elif tag == "use":
                self._uses[op[1]].pop()
            elif tag == "moved":
                _, ra, rb, count = op
                uses = self._uses.setdefault(ra, [])
                self._uses[rb] = uses[len(uses) - count :]
                del uses[len(uses) - count :]
            elif tag == "sig":
                del self._sig[op[1]]
            else:  # "reg"
                t = op[1]
                self._registered.discard(t)
                del self._parent[t]
                del self._rank[t]
                del self._uses[t]
        del self._diseqs[diseq_len:]
        del self._clashes[clash_len:]
        self._pending.clear()

    # -- union-find -----------------------------------------------------------

    def _register(self, t: Term) -> None:
        if t in self._registered:
            return
        self._registered.add(t)
        self._parent[t] = t
        self._rank[t] = 0
        self._uses[t] = []
        if self._trail is not None:
            self._trail.append(("reg", t))
        for arg in t.args:
            self._register(arg)
        if t.kind == tm.APP and t.args:
            for arg in t.args:
                root = self.find(arg)
                self._uses[root].append(t)
                if self._trail is not None:
                    self._trail.append(("use", root))
            self._insert_sig(t)

    def find(self, t: Term) -> Term:
        self._register(t)
        parent = self._parent
        root = t
        while parent[root] is not root:
            root = parent[root]
        if self._trail is None:
            while parent[t] is not root:
                parent[t], t = root, parent[t]
        else:
            while parent[t] is not root:
                self._trail.append(("parent", t, parent[t]))
                parent[t], t = root, parent[t]
        return root

    def _sig_of(self, t: Term) -> tuple:
        return (t.payload, tuple(self.find(a) for a in t.args))

    def _insert_sig(self, t: Term) -> None:
        sig = self._sig_of(t)
        other = self._sig.get(sig)
        if other is None:
            self._sig[sig] = t
            if self._trail is not None:
                self._trail.append(("sig", sig))
        elif self.find(other) is not self.find(t):
            self._pending.append((other, t, _CONGRUENCE))

    # -- assertions -------------------------------------------------------

    def assert_eq(self, a: Term, b: Term, reason: object = None) -> None:
        """Assert ``a = b``; ``reason`` defaults to the pair itself."""
        self._register(a)
        self._register(b)
        self._pending.append((a, b, (a, b) if reason is None else reason))

    def assert_ne(self, a: Term, b: Term, reason: object = None) -> None:
        """Assert ``a != b``; ``reason`` defaults to the pair itself."""
        self._register(a)
        self._register(b)
        self._diseqs.append((a, b, (a, b) if reason is None else reason))

    def assert_pred(self, atom: Term, value: bool, reason: object = None) -> None:
        """Assert a boolean application atom's truth value.

        ``reason`` defaults to the literal ``(atom, value)``.
        """
        self._register(tm.TRUE)
        self._register(tm.FALSE)
        if reason is None:
            reason = (atom, value)
        self.assert_eq(atom, tm.TRUE if value else tm.FALSE, reason)

    # -- closure ----------------------------------------------------------

    def _union(self, a: Term, b: Term, reason: object) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra is rb:
            return
        if tm.FALSE in self._registered:
            true_root = self.find(tm.TRUE)
            if ra is true_root or rb is true_root:
                false_root = self.find(tm.FALSE)
                if ra is false_root or rb is false_root:
                    self._clashes.append((a, b, reason))
                    return
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
            a, b = b, a
        elif self._rank[ra] == self._rank[rb]:
            if self._trail is not None:
                self._trail.append(("rank", ra, self._rank[ra]))
            self._rank[ra] += 1
        if self._trail is not None:
            self._trail.append(("parent", rb, self._parent[rb]))
        self._parent[rb] = ra
        # Proof edge b -> a: reroot b's proof tree (the smaller-ranked
        # class) at b, then hang it under a.
        self._reroot(b)
        self._set_proof(b, (a, reason))
        moved = self._uses.get(rb, [])
        self._uses[rb] = []
        self._uses.setdefault(ra, []).extend(moved)
        if self._trail is not None and moved:
            self._trail.append(("moved", ra, rb, len(moved)))
        for app in moved:
            self._insert_sig(app)

    def _set_proof(self, t: Term, edge: tuple[Term, object] | None) -> None:
        proof = self._proof
        if self._trail is not None:
            self._trail.append(("proof", t, proof.get(t)))
        if edge is None:
            del proof[t]
        else:
            proof[t] = edge

    def _reroot(self, t: Term) -> None:
        """Reverse the proof path from ``t`` to its root, making ``t`` root."""
        edge = self._proof.get(t)
        if edge is None:
            return
        self._set_proof(t, None)
        child = t
        while edge is not None:
            node, label = edge
            edge = self._proof.get(node)
            self._set_proof(node, (child, label))
            child = node

    def _settle(self) -> None:
        while self._pending:
            a, b, reason = self._pending.pop()
            self._union(a, b, reason)

    def check(self) -> bool:
        """Run the closure; True iff the asserted literals are consistent."""
        self._settle()
        self._register(tm.TRUE)
        self._register(tm.FALSE)
        if self._clashes:
            return False
        for a, b, _ in self._diseqs:
            if self.find(a) is self.find(b):
                return False
        return True

    def conflicts(self) -> list[list]:
        """Every conflict behind a failed :meth:`check`, as reason lists.

        A refused merge of ``a`` (in TRUE's class) with ``b`` (in FALSE's)
        explains as ``explain(TRUE, FALSE)`` would have after it: the
        path from TRUE to ``a``, the merge's own reason (or its argument
        pairs, for a congruence), and the path from ``b`` to FALSE.  A
        violated disequality ``a != b`` explains as ``explain(a, b)``
        plus its own reason.
        """
        out = []
        for a, b, reason in self._clashes:
            if self.find(a) is not self.find(tm.TRUE):
                a, b = b, a
            pairs = [(tm.TRUE, a), (b, tm.FALSE)]
            if reason is _CONGRUENCE:
                pairs.extend(zip(a.args, b.args))
                out.append(self._explain_pairs(pairs))
            else:
                out.append(self._explain_pairs(pairs) + [reason])
        for a, b, reason in self._diseqs:
            if self.find(a) is self.find(b):
                out.append(self.explain(a, b) + [reason])
        return out

    def explain(self, a: Term, b: Term) -> list:
        """Reasons of the asserted equalities that make ``a = b``.

        ``a`` and ``b`` must be congruent (see :meth:`congruent`).

        Each proof edge is taken at most once, so the result has no
        repeated edge; the path between two terms of one class never
        changes once they are merged (proof edges are only added), so
        every congruence edge's argument pairs were joined by older
        edges and the recursion is well-founded.
        """
        return self._explain_pairs([(a, b)])

    def _explain_pairs(self, todo: list[tuple[Term, Term]]) -> list:
        proof = self._proof
        reasons: list = []
        taken: set[Term] = set()
        while todo:
            x, y = todo.pop()
            if x is y:
                continue
            ancestors = {x}
            node = x
            while node in proof:
                node = proof[node][0]
                ancestors.add(node)
            common = y
            while common not in ancestors:
                common = proof[common][0]
            for start in (x, y):
                node = start
                while node is not common:
                    parent, label = proof[node]
                    if node not in taken:
                        taken.add(node)
                        if label is _CONGRUENCE:
                            todo.extend(zip(node.args, parent.args))
                        else:
                            reasons.append(label)
                    node = parent
        return reasons

    def congruent(self, a: Term, b: Term) -> bool:
        """Are ``a`` and ``b`` equal under the closure?

        Registering previously unseen terms can trigger new congruences
        (their signatures may collide with existing classes), so settle
        before comparing.
        """
        self._register(a)
        self._register(b)
        self._settle()
        return self.find(a) is self.find(b)

    def classes(self) -> dict[Term, list[Term]]:
        """Representative -> members, for model construction."""
        out: dict[Term, list[Term]] = {}
        for t in self._registered:
            out.setdefault(self.find(t), []).append(t)
        return out
