"""Process-wide memoization of solver verdicts: the SMT query cache.

The verification driver builds a fresh ``EncodeContext``/``Translator``
pipeline for every ``switch``, ``cond``, and ``let`` it checks, so
structurally identical queries recur constantly -- both within one
program (the same invariant instantiated at many sites) and across
repeated verification passes.  Solving is by far the dominant cost of
verification, so memoizing verdicts is the single biggest lever on the
hot path.

A query is fingerprinted by a *canonical serialization* of

* the assertion set, with variables alpha-renamed in first-occurrence
  order and function symbols identified by name and sorts (fresh-name
  counters therefore do not defeat the cache),
* the lazy plugin's *trigger signature*: every registration whose
  trigger atom occurs in the assertion set, as (canonical atom,
  polarity, depth, weak, callback code site) -- two queries with the
  same assertions but different axiom schemata must not collide, and
* the solver's iterative-deepening schedule.

Only conclusive verdicts are memoized; UNKNOWN is never cached (it
depends on wall-clock budgets, not on the query).  SAT entries carry a
canonicalized snapshot of the theory model, decoded back into the
hitting query's own term space on lookup, so counterexample rendering
is unaffected by whether a verdict came from the cache.

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
``plugin.signature``, whose first half is
:func:`~repro.verify.translate.table_signature`: a digest of the
``repr`` of every declaration in the file, spans and method bodies
included.  So no entry survives an edit anywhere in the file.  With
one ``SolverCache`` across two passes, ``nat`` hits 2 of 8 queries
after a one-line body edit, and ``collections`` hits 5 of 58 after one
unrelated function is appended (54 of 58 when nothing changed).  A
daemon's long-lived cache therefore pays only on unchanged programs,
where its dependency index already replays every task.  A finer salt,
such as the per-task dependency digests of
:mod:`repro.verify.daemon.index`, is an open item (ROADMAP, "A
query-cache salt that survives edits").

The cache lives in memory only, for the lifetime of one process.
Reuse across runs happens a level up, per task: the ``--cache-dir``
store (:mod:`repro.verify.store`) keeps whole task outcomes under
their dependency fingerprints.

The cache is a process-wide LRU (:data:`GLOBAL_CACHE`); pass
``Solver(cache=None)`` to bypass it or a private :class:`SolverCache`
to isolate it.  Lookups, stores, and the hit/miss counters are guarded
by a lock, so a cache may be shared between threads.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Any, Callable, Iterable, Sequence

from . import terms as tm
from .cnf import is_atom
from .sorts import BOOL, INT, OBJ, Sort
from .terms import FunSym, Term
from .theory import TheoryModel

_SORT_BY_NAME = {"Bool": BOOL, "Int": INT, "Obj": OBJ}


def _sort_named(name: str) -> Sort:
    return _SORT_BY_NAME.get(name) or Sort(name)


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


class _Canonicalizer:
    """Structural term serialization with alpha-renamed variables.

    One instance per fingerprint; it doubles as the translation table
    used to decode a stored model back into the current query's terms
    (canonical variable id -> this query's variable, function-symbol
    key -> this query's ``FunSym``).
    """

    def __init__(self) -> None:
        self._var_nodes: dict[Term, tuple] = {}
        self.vars_by_id: list[Term] = []
        self._funsym_keys: dict[FunSym, tuple] = {}
        self.funsyms_by_key: dict[tuple, FunSym] = {}
        self._memo: dict[Term, tuple] = {}
        #: set once the digest is computed; variables first seen after
        #: that (model-only terms) keep their source name in the node so
        #: decoding can reproduce them faithfully
        self._digest_frozen = False

    def freeze_digest(self) -> None:
        self._digest_frozen = True

    # -- encoding ----------------------------------------------------------

    def _var_node(self, t: Term) -> tuple:
        node = self._var_nodes.get(t)
        if node is None:
            index = len(self.vars_by_id)
            self.vars_by_id.append(t)
            if self._digest_frozen:
                node = ("v", index, t.sort.name, str(t.payload))
            else:
                node = ("v", index, t.sort.name)
            self._var_nodes[t] = node
        return node

    def _funsym_key(self, sym: FunSym) -> tuple:
        key = self._funsym_keys.get(sym)
        if key is None:
            key = (
                sym.name,
                tuple(s.name for s in sym.arg_sorts),
                sym.result_sort.name,
            )
            self._funsym_keys[sym] = key
            self.funsyms_by_key.setdefault(key, sym)
        return key

    def encode(self, t: Term) -> tuple:
        """Canonical node for ``t`` (explicit stack; terms can be deep)."""
        memo = self._memo
        node = memo.get(t)
        if node is not None:
            return node
        stack: list[tuple[Term, bool]] = [(t, False)]
        while stack:
            term, expanded = stack.pop()
            if term in memo:
                continue
            if not expanded:
                stack.append((term, True))
                for arg in term.args:
                    if arg not in memo:
                        stack.append((arg, False))
                continue
            kind = term.kind
            if kind == tm.VAR:
                memo[term] = self._var_node(term)
            elif kind == tm.INT_CONST:
                memo[term] = ("i", term.payload)
            elif kind == tm.BOOL_CONST:
                memo[term] = ("b", term.payload)
            elif kind == tm.APP:
                memo[term] = (
                    "a",
                    self._funsym_key(term.payload),
                    tuple(memo[a] for a in term.args),
                )
            else:
                memo[term] = (kind, tuple(memo[a] for a in term.args))
        return memo[t]

    # -- decoding ----------------------------------------------------------

    _BUILDERS: dict[str, Callable] = {
        tm.ADD: tm.mk_add,
        tm.MUL: tm.mk_mul,
        tm.LE: tm.mk_le,
        tm.EQ: tm.mk_eq,
        tm.NOT: tm.mk_not,
        tm.AND: tm.mk_and,
        tm.OR: tm.mk_or,
        tm.IMPLIES: tm.mk_implies,
        tm.IFF: tm.mk_iff,
        tm.ITE: tm.mk_ite,
    }

    def decode(self, node: tuple, memo: dict) -> Term:
        """Rebuild a stored node in this canonicalizer's term space."""
        hit = memo.get(node)
        if hit is not None:
            return hit
        tag = node[0]
        if tag == "v":
            index = node[1]
            if index < len(self.vars_by_id):
                term = self.vars_by_id[index]
            else:
                # A variable the current query never mentions (it was
                # minted during the stored run's solving); reproduce its
                # name when recorded, else a reserved one.
                name = node[3] if len(node) > 3 else f"?cache{index}"
                term = tm.mk_var(name, _sort_named(node[2]))
        elif tag == "i":
            term = tm.mk_int(node[1])
        elif tag == "b":
            term = tm.mk_bool(node[1])
        elif tag == "a":
            key = node[1]
            sym = self.funsyms_by_key.get(key)
            if sym is None:
                sym = FunSym(
                    key[0],
                    [_sort_named(n) for n in key[1]],
                    _sort_named(key[2]),
                )
                self.funsyms_by_key[key] = sym
            term = tm.mk_app(sym, [self.decode(a, memo) for a in node[2]])
        else:
            builder = self._BUILDERS[tag]
            term = builder(*[self.decode(a, memo) for a in node[1]])
        memo[node] = term
        return term


# ---------------------------------------------------------------------------
# Per-term structural fingerprints
# ---------------------------------------------------------------------------
#
# Each interned term carries (in its ``_fp`` slot) a Merkle-style
# digest of its structure with variables alpha-renamed in
# first-occurrence order, plus the tuples needed to compose digests
# upward without re-walking the DAG:
#
#   (digest, vars, atoms, syms)
#
# * ``digest`` -- sha256 over the term's kind/payload, its children's
#   digests, and for each child the mapping of the child's variable
#   slots into this term's first-occurrence order (the de Bruijn-style
#   twist that makes the digest alpha-invariant);
# * ``vars`` -- the term's free variables in first-occurrence order;
# * ``atoms`` -- its theory atoms (for trigger-signature membership);
# * ``syms`` -- its uninterpreted function symbols (so model decoding
#   can rebuild the symbol table without walking the assertions).
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
        return (digest, (term,), atoms, ())
    if kind in (tm.INT_CONST, tm.BOOL_CONST):
        digest = hashlib.sha256(
            f"c\x00{kind}\x00{term.payload!r}".encode("utf-8")
        ).digest()
        return (digest, (), (), ())
    if kind == tm.APP:
        sym: FunSym = term.payload
        head = (
            f"a\x00{sym.name}\x00{','.join(s.name for s in sym.arg_sorts)}"
            f"\x00{sym.result_sort.name}"
        ).encode("utf-8")
        syms: list[FunSym] = [sym]
    else:
        head = f"k\x00{kind}".encode("utf-8")
        syms = []
    hasher = hashlib.sha256(head)
    var_index: dict[Term, int] = {}
    variables: list[Term] = []
    atom_list: list[Term] = []
    for arg in term.args:
        arg_digest, arg_vars, arg_atoms, arg_syms = arg._fp
        hasher.update(arg_digest)
        for v in arg_vars:
            slot = var_index.get(v)
            if slot is None:
                slot = var_index[v] = len(variables)
                variables.append(v)
            hasher.update(b"%d," % slot)
        hasher.update(b";")
        atom_list.extend(arg_atoms)
        syms.extend(arg_syms)
    atoms = list(dict.fromkeys(atom_list))
    if is_atom(term):
        atoms.append(term)
    return (
        hasher.digest(),
        tuple(variables),
        tuple(atoms),
        tuple(dict.fromkeys(syms)),
    )


def term_fp(term: Term) -> tuple:
    """The cached ``(digest, vars, atoms, syms)`` fingerprint of a term."""
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


class Fingerprint:
    """The cache key for one ``check()`` call plus its decode tables.

    The canonicalizer (variable/function-symbol translation tables used
    to encode and decode model snapshots) is built lazily from the
    per-term fingerprint tuples: most lookups miss and most stores
    carry no model, and neither needs it.
    """

    __slots__ = ("digest", "_vars", "_syms", "_canon")

    def __init__(
        self,
        digest: bytes,
        variables: Sequence[Term] = (),
        syms: Sequence[FunSym] = (),
    ):
        self.digest = digest
        self._vars = variables
        self._syms = syms
        self._canon: _Canonicalizer | None = None

    @property
    def canon(self) -> _Canonicalizer:
        if self._canon is None:
            canon = _Canonicalizer()
            for v in self._vars:
                canon._var_node(v)
            for sym in self._syms:
                canon._funsym_key(sym)
            canon.freeze_digest()
            self._canon = canon
        return self._canon


def fingerprint_query(
    assertions: Sequence[Term],
    plugin,
    depth_schedule: Iterable[int],
) -> Fingerprint:
    """Fingerprint an assertion set under a plugin's trigger signature."""
    parts: list[Any] = [tuple(depth_schedule)]
    if plugin is not None and plugin.signature is not None:
        parts.append(("S", repr(plugin.signature)))
    var_index: dict[Term, int] = {}
    variables: list[Term] = []
    syms: dict[FunSym, None] = {}
    atoms_present: set[Term] = set()
    for assertion in assertions:
        digest, term_vars, term_atoms_, term_syms = term_fp(assertion)
        slots = []
        for v in term_vars:
            slot = var_index.get(v)
            if slot is None:
                slot = var_index[v] = len(variables)
                variables.append(v)
            slots.append(slot)
        parts.append(("A", digest, tuple(slots)))
        atoms_present.update(term_atoms_)
        for sym in term_syms:
            syms[sym] = None
    if plugin is not None and plugin.has_triggers():
        for atom, polarity, depth, weak, callback in plugin.registrations():
            if atom in atoms_present:
                digest, atom_vars, _, atom_syms = term_fp(atom)
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
                for sym in atom_syms:
                    syms[sym] = None
    digest = hashlib.sha256(repr(parts).encode("utf-8")).digest()
    return Fingerprint(digest, tuple(variables), tuple(syms))


# ---------------------------------------------------------------------------
# Model snapshots
# ---------------------------------------------------------------------------


def _encode_model(model: TheoryModel, canon: _Canonicalizer) -> tuple:
    return (
        tuple((canon.encode(k), v) for k, v in model.int_values.items()),
        tuple((canon.encode(k), v) for k, v in model.obj_class.items()),
        tuple((canon.encode(k), v) for k, v in model.atom_values.items()),
    )


def _decode_model(stored: tuple, canon: _Canonicalizer) -> TheoryModel:
    memo: dict = {}
    ints, objs, atoms = stored
    model = TheoryModel()
    for node, value in ints:
        model.int_values[canon.decode(node, memo)] = value
    for node, value in objs:
        model.obj_class[canon.decode(node, memo)] = value
    for node, value in atoms:
        model.atom_values[canon.decode(node, memo)] = value
    return model


# ---------------------------------------------------------------------------
# The LRU cache proper
# ---------------------------------------------------------------------------


class SolverCache:
    """An LRU of conclusive verdicts keyed by query fingerprints.

    Entries are ``(verdict, canonical model snapshot)`` pairs built
    from plain tuples, never live :class:`Term` objects, so they remain
    valid across interning scopes.  All mutation — the LRU order, the
    entry map, and the hit/miss counters — happens under one lock.
    """

    def __init__(self, max_entries: int = 4096):
        self.max_entries = max_entries
        self._entries: OrderedDict[bytes, tuple] = OrderedDict()
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
    ) -> Fingerprint:
        return fingerprint_query(assertions, plugin, depth_schedule)

    def lookup(self, fp: Fingerprint):
        """The stored (verdict, model-or-None), or None on a miss."""
        with self._lock:
            entry = self._entries.get(fp.digest)
            if entry is None:
                self.misses += 1
                return None
            verdict, stored_model = entry
            model = None
            if stored_model is not None:
                try:
                    model = _decode_model(stored_model, fp.canon)
                except Exception:
                    # A snapshot we cannot reproduce is useless: drop
                    # the entry and let the caller solve afresh.
                    self._entries.pop(fp.digest, None)
                    self.misses += 1
                    return None
            self._entries[fp.digest] = entry
            self._entries.move_to_end(fp.digest)
            self._evict()
            self.hits += 1
            return verdict, model

    def store(self, fp: Fingerprint, verdict, model: TheoryModel | None) -> None:
        if getattr(verdict, "value", None) == "unknown":
            raise ValueError("UNKNOWN verdicts must never be cached")
        snapshot = None if model is None else _encode_model(model, fp.canon)
        with self._lock:
            if snapshot is None:
                existing = self._entries.get(fp.digest)
                if existing is not None and existing[1] is not None:
                    # Never displace a model-carrying entry with a
                    # verdict-only one (shared engines store verdicts
                    # alone; the canonical model is the better entry).
                    self._entries.move_to_end(fp.digest)
                    return
            self._entries[fp.digest] = (verdict, snapshot)
            self._entries.move_to_end(fp.digest)
            self.stores += 1
            self._evict()

    def _evict(self) -> None:
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1


#: the process-wide cache every Solver uses unless told otherwise
GLOBAL_CACHE = SolverCache()
