"""Process-wide memoization of solver verdicts: the SMT query cache.

The verification driver builds a fresh ``EncodeContext``/``Translator``
pipeline for every ``switch``, ``cond``, and ``let`` it checks, so
structurally identical queries recur constantly -- both within one
program (the same invariant instantiated at many sites) and across
repeated verification passes.  Solving is by far the dominant cost of
verification, so memoizing verdicts is the single biggest lever on the
hot path.

A query is fingerprinted by a SHA-256 digest of

* the assertion set, with variables alpha-renamed in first-occurrence
  order and function symbols identified by name and sorts (fresh-name
  counters therefore do not defeat the cache),
* the lazy plugin's *trigger signature*: every registration whose
  trigger atom occurs in the assertion set, as (canonical atom,
  polarity, depth, weak, callback code site) -- two queries with the
  same assertions but different axiom schemata must not collide, and
* the solver's iterative-deepening schedule.

Only conclusive verdicts are memoized; UNKNOWN is never cached (it
depends on wall-clock budgets, not on the query).  An entry is the
verdict alone, with no model: a query whose caller needs a model (a
counterexample) never consults the cache and is solved afresh (see
:meth:`repro.verify.solving.SolverSession._solve`), so counterexamples
depend on the query alone.  A ``Solver`` answered from the cache has
no model, and its :meth:`~repro.smt.solver.Solver.model` says so.

Registrations whose trigger atom does *not* occur in the assertions
are excluded from the signature on purpose: callbacks register their
children while firing, so the registry grows during solving, and
including those grown entries would make a query's fingerprint depend
on which earlier queries happened to hit the cache.  Excluding them is
sound: what a callback adds is fixed by the registrations the
signature does include.

The registration for an atom is *not* a function of the atom alone,
though.  ``LazyTheoryPlugin.register`` keeps the first registration and
``EncodeContext.lazy`` skips an atom that is already registered, so an
atom that an earlier solve registered while expanding (at depth 1)
keeps that depth, while a pass that solves nothing (a warm pass
answering from cache) registers it at depth 0.  The depth is part of
the signature, so such a query misses the cache on a warm pass: a lost
hit, not a wrong one (ROADMAP, "Warm-pass cache misses").

The salt is coarse, though.  Every query carries the program's
``plugin.signature``, whose first half is the digest of the file's
name and source text that :func:`~repro.lang.parser.parse_program`
records (``ast.Program.text_digest``; equal text gives an equal
analysed program, so it stands for the declarations the axioms expand
against, at the cost of one hash per compile).  So no entry survives
an edit anywhere in the file.  With one ``SolverCache`` across two
passes, ``nat`` hits 2 of 8 queries after a one-line body edit, and
``collections`` hits 5 of 58 after one unrelated function is appended
(54 of 58 when nothing changed).  A daemon's long-lived cache
therefore pays only on unchanged programs, where its dependency index
already replays every task, undone edits included (the daemon keeps
the last few outcomes of each task).

The cache lives in memory only, for the lifetime of one process.
Reuse across runs happens a level up, per task: the ``--cache-dir``
store (:mod:`repro.verify.store`) keeps whole task outcomes under
their dependency fingerprints.

The cache is a bounded LRU.  A bare ``Solver`` uses none; a
verification run chooses one through ``VerifyOptions(cache=...)``: the
process-wide :data:`GLOBAL_CACHE` by default, a private
:class:`SolverCache`, or None.  Lookups, stores, and the hit/miss
counters are guarded by a lock, so a cache may be shared between
threads.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Any, Callable, Iterable, Sequence

from . import terms as tm
from .cnf import is_atom
from .terms import FunSym, Term


def _callback_site(callback: Callable) -> str:
    """A stable-within-the-process identity for an axiom callback."""
    site = getattr(callback, "site", None)
    if site is not None:
        return site
    code = getattr(callback, "__code__", None)
    if code is not None:
        return f"{code.co_filename}:{code.co_firstlineno}"
    cls = type(callback)
    return f"{cls.__module__}.{cls.__qualname__}"


# ---------------------------------------------------------------------------
# Per-term structural fingerprints
# ---------------------------------------------------------------------------
#
# Each interned term carries (in its ``_fp`` slot) a Merkle-style
# digest of its structure with variables alpha-renamed in
# first-occurrence order, plus the tuples needed to compose digests
# upward without re-walking the DAG:
#
#   (digest, vars, atoms)
#
# * ``digest`` -- sha256 over the term's kind/payload, its children's
#   digests, and for each child the mapping of the child's variable
#   slots into this term's first-occurrence order (the de Bruijn-style
#   twist that makes the digest alpha-invariant);
# * ``vars`` -- the term's free variables in first-occurrence order;
# * ``atoms`` -- its theory atoms (for trigger-signature membership).
#
# Because terms are interned, the walk happens once per distinct term
# per process; every later query containing the term composes the
# cached digest in O(vars) -- this is what removes fingerprinting from
# the hot path (the cold cached run used to be slower than --no-cache).


def _compute_fp(term: Term) -> tuple:
    kind = term.kind
    if kind == tm.VAR:
        digest = hashlib.sha256(
            b"v\x00" + term.sort.name.encode("utf-8")
        ).digest()
        atoms = (term,) if term.is_bool else ()
        return (digest, (term,), atoms)
    if kind in (tm.INT_CONST, tm.BOOL_CONST):
        digest = hashlib.sha256(
            f"c\x00{kind}\x00{term.payload!r}".encode("utf-8")
        ).digest()
        return (digest, (), ())
    if kind == tm.APP:
        sym: FunSym = term.payload
        head = (
            f"a\x00{sym.name}\x00{','.join(s.name for s in sym.arg_sorts)}"
            f"\x00{sym.result_sort.name}"
        ).encode("utf-8")
    else:
        head = f"k\x00{kind}".encode("utf-8")
    hasher = hashlib.sha256(head)
    var_index: dict[Term, int] = {}
    variables: list[Term] = []
    atom_list: list[Term] = []
    for arg in term.args:
        arg_digest, arg_vars, arg_atoms = arg._fp
        hasher.update(arg_digest)
        for v in arg_vars:
            slot = var_index.get(v)
            if slot is None:
                slot = var_index[v] = len(variables)
                variables.append(v)
            hasher.update(b"%d," % slot)
        hasher.update(b";")
        atom_list.extend(arg_atoms)
    atoms = list(dict.fromkeys(atom_list))
    if is_atom(term):
        atoms.append(term)
    return (hasher.digest(), tuple(variables), tuple(atoms))


def term_fp(term: Term) -> tuple:
    """The cached ``(digest, vars, atoms)`` fingerprint of a term."""
    fp = term._fp
    if fp is not None:
        return fp
    # Iterative post-order so deep formulas cannot blow the stack.
    stack: list[tuple[Term, bool]] = [(term, False)]
    while stack:
        t, expanded = stack.pop()
        if t._fp is not None:
            continue
        if not expanded:
            stack.append((t, True))
            for arg in t.args:
                if arg._fp is None:
                    stack.append((arg, False))
            continue
        t._fp = _compute_fp(t)
    return term._fp


def term_atoms(term: Term) -> tuple[Term, ...]:
    """The theory atoms occurring in ``term`` (cached on the term).

    Computed by the same composition rule as the fingerprint's atom
    component (children's atoms in argument order, deduplicated, plus
    the term itself when it is an atom) but *without* the sha256
    digests: the incremental engine asks for atoms on every check even
    when no query cache is configured, and hashing an entire assertion
    DAG just to read its atoms dominated that path.
    """
    cached = term._atoms
    if cached is not None:
        return cached
    stack: list[tuple[Term, bool]] = [(term, False)]
    while stack:
        t, expanded = stack.pop()
        if t._atoms is not None:
            continue
        if t._fp is not None:
            t._atoms = t._fp[2]
            continue
        if not expanded:
            stack.append((t, True))
            for arg in t.args:
                if arg._atoms is None and arg._fp is None:
                    stack.append((arg, False))
            continue
        kind = t.kind
        if kind == tm.VAR:
            t._atoms = (t,) if t.is_bool else ()
        elif kind in (tm.INT_CONST, tm.BOOL_CONST):
            t._atoms = ()
        else:
            merged: list[Term] = []
            for arg in t.args:
                merged.extend(arg._atoms if arg._fp is None else arg._fp[2])
            out = list(dict.fromkeys(merged))
            if is_atom(t):
                out.append(t)
            t._atoms = tuple(out)
    return term._atoms


def fingerprint_query(
    assertions: Sequence[Term],
    plugin,
    depth_schedule: Iterable[int],
) -> bytes:
    """The digest of an assertion set under a plugin's trigger signature."""
    parts: list[Any] = [tuple(depth_schedule)]
    if plugin is not None and plugin.signature is not None:
        parts.append(("S", repr(plugin.signature)))
    var_index: dict[Term, int] = {}
    atoms_present: set[Term] = set()
    for assertion in assertions:
        digest, term_vars, term_atoms_ = term_fp(assertion)
        slots = []
        for v in term_vars:
            slot = var_index.get(v)
            if slot is None:
                slot = var_index[v] = len(var_index)
            slots.append(slot)
        parts.append(("A", digest, tuple(slots)))
        atoms_present.update(term_atoms_)
    if plugin is not None and plugin.has_triggers():
        for atom, polarity, depth, weak, callback in plugin.registrations():
            if atom in atoms_present:
                digest, atom_vars, _ = term_fp(atom)
                slots = tuple(var_index[v] for v in atom_vars)
                parts.append(
                    (
                        "T",
                        digest,
                        slots,
                        polarity,
                        depth,
                        weak,
                        _callback_site(callback),
                    )
                )
    return hashlib.sha256(repr(parts).encode("utf-8")).digest()


# ---------------------------------------------------------------------------
# The LRU cache proper
# ---------------------------------------------------------------------------


class SolverCache:
    """An LRU of conclusive verdicts keyed by query fingerprints.

    Keys are SHA-256 digests and values are :class:`Result` members,
    never live :class:`Term` objects, so entries remain valid across
    interning scopes.  All mutation -- the LRU order, the entry map,
    and the hit/miss counters -- happens under one lock.
    """

    def __init__(self, max_entries: int = 4096):
        self.max_entries = max_entries
        self._entries: OrderedDict[bytes, Any] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop every entry."""
        with self._lock:
            self._entries.clear()

    def fingerprint(
        self,
        assertions: Sequence[Term],
        plugin,
        depth_schedule: Iterable[int],
    ) -> bytes:
        return fingerprint_query(assertions, plugin, depth_schedule)

    def lookup(self, fp: bytes):
        """The stored verdict, or None on a miss."""
        with self._lock:
            verdict = self._entries.get(fp)
            if verdict is None:
                self.misses += 1
                return None
            self._entries.move_to_end(fp)
            self.hits += 1
            return verdict

    def store(self, fp: bytes, verdict) -> None:
        if getattr(verdict, "value", None) == "unknown":
            raise ValueError("UNKNOWN verdicts must never be cached")
        with self._lock:
            self._entries[fp] = verdict
            self._entries.move_to_end(fp)
            self.stores += 1
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1


#: the process-wide cache a verification run uses unless told otherwise
GLOBAL_CACHE = SolverCache()
