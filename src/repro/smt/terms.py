"""Hash-consed terms for the SMT substrate.

Terms form a small quantifier-free language over integers, booleans,
and uninterpreted functions -- the fragment the JMatch 2.0 verifier
emits (Section 5 of the paper).  Terms are interned so that structural
equality is pointer equality, which keeps congruence closure and the
SAT encoding cheap.

Construction goes through the ``mk_*`` builders, which perform light
normalisation (constant folding, flattening of ``and``/``or``,
normalising comparisons to ``<=`` and ``=``).
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from typing import Iterable, Sequence

from .sorts import BOOL, INT, Sort


class FunSym:
    """An uninterpreted function or predicate symbol."""

    __slots__ = ("name", "arg_sorts", "result_sort")

    def __init__(self, name: str, arg_sorts: Sequence[Sort], result_sort: Sort):
        self.name = name
        self.arg_sorts = tuple(arg_sorts)
        self.result_sort = result_sort

    @property
    def arity(self) -> int:
        return len(self.arg_sorts)

    def __repr__(self) -> str:
        return f"FunSym({self.name}/{self.arity})"


# Term kinds.
VAR = "var"
INT_CONST = "int"
BOOL_CONST = "bool"
APP = "app"  # uninterpreted function application
ADD = "+"
MUL = "*"  # multiplication by at least one constant (kept linear)
LE = "<="
EQ = "="
NOT = "not"
AND = "and"
OR = "or"
IMPLIES = "=>"
IFF = "<=>"
ITE = "ite"
DISTINCT = "distinct"

_BOOLEAN_KINDS = {BOOL_CONST, LE, NOT, AND, OR, IMPLIES, IFF, DISTINCT}


class Term:
    """An immutable, interned term.

    Do not instantiate directly; use the ``mk_*`` builders below.
    """

    __slots__ = (
        "kind",
        "args",
        "payload",
        "sort",
        "_id",
        "_fp",
        "_iface",
        "_atoms",
    )

    _interned: dict[tuple, "Term"] = {}
    _counter = itertools.count()
    #: guards the miss path of ``__new__``: ``repro.api.verify`` may be
    #: called from any thread of a host program, and two threads
    #: interning the same structure must get the same node or pointer
    #: equality breaks everywhere
    _lock = threading.Lock()

    def __new__(cls, kind: str, args: tuple, payload, sort: Sort):
        key = (kind, args, payload, sort)
        cached = cls._interned.get(key)
        if cached is not None:
            return cached
        with cls._lock:
            cached = cls._interned.get(key)
            if cached is not None:
                return cached
            return cls._intern_new(key, kind, args, payload, sort)

    @classmethod
    def _intern_new(cls, key, kind, args, payload, sort):
        term = object.__new__(cls)
        term.kind = kind
        term.args = args
        term.payload = payload
        term.sort = sort
        term._id = next(cls._counter)
        #: lazily computed structural fingerprint (see repro.smt.cache);
        #: cached on the interned node so fingerprinting a query never
        #: re-walks shared DAG structure
        term._fp = None
        #: lazily computed interface-term candidates (see
        #: repro.smt.theory._interface_terms)
        term._iface = None
        #: lazily computed theory atoms (see repro.smt.cache.term_atoms);
        #: a light subset of the fingerprint, cached separately so hot
        #: paths that only need atoms never pay for sha256 digests
        term._atoms = None
        cls._interned[key] = term
        return term

    def __hash__(self) -> int:
        return self._id

    def __eq__(self, other) -> bool:
        return self is other

    def __repr__(self) -> str:
        return term_to_str(self)

    @property
    def is_bool(self) -> bool:
        return self.sort == BOOL


def term_to_str(t: Term) -> str:
    """An SMT-LIB-flavoured rendering, for debugging and reports."""
    if t.kind == VAR:
        return str(t.payload)
    if t.kind in (INT_CONST, BOOL_CONST):
        return str(t.payload).lower() if t.kind == BOOL_CONST else str(t.payload)
    if t.kind == APP:
        sym: FunSym = t.payload
        if not t.args:
            return sym.name
        return f"({sym.name} {' '.join(term_to_str(a) for a in t.args)})"
    return f"({t.kind} {' '.join(term_to_str(a) for a in t.args)})"


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

TRUE = Term(BOOL_CONST, (), True, BOOL)
FALSE = Term(BOOL_CONST, (), False, BOOL)


def mk_bool(value: bool) -> Term:
    return TRUE if value else FALSE


def mk_int(value: int) -> Term:
    return Term(INT_CONST, (), int(value), INT)


def mk_var(name: str, sort: Sort) -> Term:
    return Term(VAR, (), name, sort)


_fresh_counter = itertools.count()


def fresh_var(prefix: str, sort: Sort) -> Term:
    """A variable guaranteed not to collide with any other name."""
    return mk_var(f"{prefix}!{next(_fresh_counter)}", sort)


def fresh_copies(variables: Sequence[Term]) -> tuple[Term, ...]:
    """A fresh variable named after each of ``variables``, in their order.

    The copies are minted in interning order of the originals, so the
    names they get do not depend on the order the caller lists them in.
    """
    copies = {
        var: fresh_var(str(var.payload).split("!")[0], var.sort)
        for var in sorted(variables, key=lambda t: t._id)
    }
    return tuple(copies[var] for var in variables)


@contextmanager
def scoped_intern_state():
    """Run a block against a pristine term-interning state.

    Term normalization orients arguments by interning order (``_id``)
    and ``fresh_var`` draws from a process-global counter, so the exact
    terms built for a verification query depend on everything interned
    before it.  Verifying each method inside its own scope makes the
    query stream a deterministic function of that method alone: the
    same terms, fresh names, models, and cache fingerprints regardless
    of which methods were verified earlier or in which process.  That
    is what lets serial and parallel verification produce byte-identical
    warnings, and a task outcome stored by one run be replayed by any
    other.

    Terms created inside the scope must not be compared against terms
    from outside it (pointer interning does not span the boundary);
    ``TRUE``/``FALSE`` are re-seeded so module-level identity checks
    keep working.  The previous state is restored on exit, so terms
    held by the caller stay valid.
    """
    global _fresh_counter
    saved = (Term._interned, Term._counter, _fresh_counter)
    Term._interned = {
        (t.kind, t.args, t.payload, t.sort): t for t in (TRUE, FALSE)
    }
    Term._counter = itertools.count(max(TRUE._id, FALSE._id) + 1)
    _fresh_counter = itertools.count()
    try:
        yield
    finally:
        Term._interned, Term._counter, _fresh_counter = saved


def mk_app(sym: FunSym, args: Sequence[Term] = ()) -> Term:
    args = tuple(args)
    if len(args) != sym.arity:
        raise ValueError(f"{sym.name} expects {sym.arity} args, got {len(args)}")
    return Term(APP, args, sym, sym.result_sort)


def mk_add(*terms: Term) -> Term:
    """n-ary integer addition with constant folding and flattening."""
    flat: list[Term] = []
    const = 0
    for t in terms:
        if t.kind == INT_CONST:
            const += t.payload
        elif t.kind == ADD:
            for a in t.args:
                if a.kind == INT_CONST:
                    const += a.payload
                else:
                    flat.append(a)
        else:
            flat.append(t)
    if const != 0 or not flat:
        flat.append(mk_int(const))
    if len(flat) == 1:
        return flat[0]
    return Term(ADD, tuple(sorted(flat, key=lambda t: t._id)), None, INT)


def mk_neg(t: Term) -> Term:
    return mk_mul(mk_int(-1), t)


def mk_sub(a: Term, b: Term) -> Term:
    return mk_add(a, mk_neg(b))


def mk_mul(a: Term, b: Term) -> Term:
    if a.kind == INT_CONST and b.kind == INT_CONST:
        return mk_int(a.payload * b.payload)
    if a.kind == INT_CONST and a.payload == 1:
        return b
    if b.kind == INT_CONST and b.payload == 1:
        return a
    if (a.kind == INT_CONST and a.payload == 0) or (
        b.kind == INT_CONST and b.payload == 0
    ):
        return mk_int(0)
    # Keep the constant first when there is one; nonlinear products are
    # allowed syntactically and treated as opaque by the LIA solver.
    if b.kind == INT_CONST:
        a, b = b, a
    if a.kind == INT_CONST and b.kind == MUL and b.args[0].kind == INT_CONST:
        return mk_mul(mk_int(a.payload * b.args[0].payload), b.args[1])
    if a.kind == INT_CONST and b.kind == ADD:
        return mk_add(*[mk_mul(a, arg) for arg in b.args])
    return Term(MUL, (a, b), None, INT)


def mk_le(a: Term, b: Term) -> Term:
    if a.kind == INT_CONST and b.kind == INT_CONST:
        return mk_bool(a.payload <= b.payload)
    return Term(LE, (a, b), None, BOOL)


def mk_lt(a: Term, b: Term) -> Term:
    # Over the integers, a < b iff a + 1 <= b.
    return mk_le(mk_add(a, mk_int(1)), b)


def mk_ge(a: Term, b: Term) -> Term:
    return mk_le(b, a)


def mk_gt(a: Term, b: Term) -> Term:
    return mk_lt(b, a)


def mk_eq(a: Term, b: Term) -> Term:
    if a is b:
        return TRUE
    if a.kind == INT_CONST and b.kind == INT_CONST:
        return mk_bool(a.payload == b.payload)
    if a.kind == BOOL_CONST and b.kind == BOOL_CONST:
        return mk_bool(a.payload == b.payload)
    if a.is_bool:
        return mk_iff(a, b)
    if a._id > b._id:
        a, b = b, a
    return Term(EQ, (a, b), None, BOOL)


def mk_ne(a: Term, b: Term) -> Term:
    return mk_not(mk_eq(a, b))


def mk_distinct(terms: Sequence[Term]) -> Term:
    return mk_and(
        *[
            mk_ne(a, b)
            for i, a in enumerate(terms)
            for b in terms[i + 1 :]
        ]
    )


def mk_not(t: Term) -> Term:
    if t is TRUE:
        return FALSE
    if t is FALSE:
        return TRUE
    if t.kind == NOT:
        return t.args[0]
    return Term(NOT, (t,), None, BOOL)


def mk_and(*terms: Term) -> Term:
    flat: list[Term] = []
    for t in terms:
        if t is TRUE:
            continue
        if t is FALSE:
            return FALSE
        if t.kind == AND:
            flat.extend(t.args)
        else:
            flat.append(t)
    deduped = list(dict.fromkeys(flat))
    if not deduped:
        return TRUE
    if len(deduped) == 1:
        return deduped[0]
    return Term(AND, tuple(deduped), None, BOOL)


def mk_or(*terms: Term) -> Term:
    flat: list[Term] = []
    for t in terms:
        if t is FALSE:
            continue
        if t is TRUE:
            return TRUE
        if t.kind == OR:
            flat.extend(t.args)
        else:
            flat.append(t)
    deduped = list(dict.fromkeys(flat))
    if not deduped:
        return FALSE
    if len(deduped) == 1:
        return deduped[0]
    return Term(OR, tuple(deduped), None, BOOL)


def mk_implies(a: Term, b: Term) -> Term:
    if a is TRUE:
        return b
    if a is FALSE or b is TRUE:
        return TRUE
    if b is FALSE:
        return mk_not(a)
    return Term(IMPLIES, (a, b), None, BOOL)


def mk_iff(a: Term, b: Term) -> Term:
    if a is b:
        return TRUE
    if a is TRUE:
        return b
    if b is TRUE:
        return a
    if a is FALSE:
        return mk_not(b)
    if b is FALSE:
        return mk_not(a)
    if a._id > b._id:
        a, b = b, a
    return Term(IFF, (a, b), None, BOOL)


def mk_ite(c: Term, t: Term, e: Term) -> Term:
    if c is TRUE:
        return t
    if c is FALSE:
        return e
    if t is e:
        return t
    return Term(ITE, (c, t, e), None, t.sort)


# ---------------------------------------------------------------------------
# Traversals
# ---------------------------------------------------------------------------


def subterms(t: Term) -> Iterable[Term]:
    """All subterms of ``t`` in post-order (each term once)."""
    seen: set[Term] = set()
    stack = [(t, False)]
    while stack:
        term, expanded = stack.pop()
        if term in seen:
            continue
        if expanded:
            seen.add(term)
            yield term
        else:
            stack.append((term, True))
            for arg in term.args:
                stack.append((arg, False))


def free_vars(t: Term) -> set[Term]:
    return {s for s in subterms(t) if s.kind == VAR}


def substitute(t: Term, mapping: dict[Term, Term]) -> Term:
    """Capture-free substitution (terms have no binders)."""
    cache: dict[Term, Term] = {}

    def go(term: Term) -> Term:
        if term in mapping:
            return mapping[term]
        if not term.args:
            return term
        hit = cache.get(term)
        if hit is not None:
            return hit
        new_args = tuple(go(a) for a in term.args)
        if new_args == term.args:
            result = term
        else:
            result = _rebuild(term, new_args)
        cache[term] = result
        return result

    return go(t)


def _rebuild(term: Term, args: tuple) -> Term:
    kind = term.kind
    if kind == APP:
        return mk_app(term.payload, args)
    if kind == ADD:
        return mk_add(*args)
    if kind == MUL:
        return mk_mul(*args)
    if kind == LE:
        return mk_le(*args)
    if kind == EQ:
        return mk_eq(*args)
    if kind == NOT:
        return mk_not(*args)
    if kind == AND:
        return mk_and(*args)
    if kind == OR:
        return mk_or(*args)
    if kind == IMPLIES:
        return mk_implies(*args)
    if kind == IFF:
        return mk_iff(*args)
    if kind == ITE:
        return mk_ite(*args)
    raise AssertionError(f"unexpected term kind {kind}")
