"""Axiom templates: each lazy axiom schema is translated once per program.

The lazy axioms of Section 6.2 -- a type's hierarchy facts, its visible
invariants in either polarity, and a call's ``matches`` and ``ensures``
facts -- are registered on trigger atoms and instantiated when the
solver assigns the trigger.  One schema fires many times on different
terms: ``Nat``'s invariant on every Nat-typed value of every obligation
of every method.  Its first firing runs the direct translation under a
:class:`Tape`, which records in order every operation that builds a
term or touches the encoding context:

* the term builders (``mk_*``, ``substitute``, ``fresh_copies``),
* ``ctx.fresh`` mints and ``ctx.funsym`` lookups,
* nested lazy registrations (``ctx.lazy``), with their depth offset
  and weak flag,
* abstract success predicates and dropped invariant parts.

Every later firing replays the tape with the trigger's terms bound.

Replay re-runs the builders; it does not substitute into stored terms.
Each task interns terms in a scope of its own
(:func:`~repro.smt.terms.scoped_intern_state`) and ``mk_eq`` orients its
arguments by interning order, so only the same builder calls in the
same order give exactly the terms, fresh names and registrations the
direct translation would have given -- in any statement, task,
interning scope or pool worker.

Templates live on the :class:`~repro.lang.symbols.ProgramTable`
(``axiom_templates``), keyed by the schema, the viewer (for the one
schema whose translation reads it: an invariant instance) and the
shape of the input terms (:func:`input_shape`).
"""

from __future__ import annotations

from ..errors import JMatchError
from ..smt import terms as tm
from ..smt.terms import FunSym, Term
from . import fir

#: the builders a translation calls through ``ctx.b``
_BUILDERS = (
    "mk_app",
    "mk_int",
    "mk_bool",
    "mk_add",
    "mk_sub",
    "mk_mul",
    "mk_le",
    "mk_lt",
    "mk_ge",
    "mk_gt",
    "mk_eq",
    "mk_ne",
    "mk_not",
    "mk_and",
    "mk_or",
    "substitute",
    "fresh_copies",
)


class LazyAxiom:
    """The plugin callback of one registration: ``axiom`` on ``inputs``."""

    __slots__ = ("ctx", "axiom", "inputs", "depth", "site")

    def __init__(self, ctx, axiom, inputs: tuple[Term, ...], depth: int):
        self.ctx = ctx
        self.axiom = axiom
        self.inputs = inputs
        self.depth = depth
        #: the query cache's name for this callback: one per axiom kind,
        #: so fingerprints never merge two kinds
        self.site = axiom.kind

    def __call__(self) -> Term:
        return instantiate(self.ctx, self.axiom, self.inputs, self.depth)


def instantiate(ctx, axiom, inputs: tuple[Term, ...], depth: int) -> Term:
    """``axiom`` on ``inputs`` at ``depth``, replayed when it can be."""
    template = lookup(ctx, axiom, inputs)
    if template is not None:
        return template.replay(ctx, inputs, depth)
    return record(ctx, axiom, inputs, depth)[0]


def lookup(ctx, axiom, inputs: tuple[Term, ...]) -> "Template | None":
    """The table's template of ``axiom`` for inputs shaped like ``inputs``."""
    return ctx.table.axiom_templates.get(_key(ctx, axiom, inputs))


def _key(ctx, axiom, inputs: tuple[Term, ...]) -> tuple:
    viewer = ctx.viewer if axiom.sees_invariants else None
    return (axiom, viewer, input_shape(inputs))


def record(ctx, axiom, inputs: tuple[Term, ...], depth: int):
    """Translate ``axiom`` directly, keeping its template.

    Returns the translation and the values its operations produced
    (after the inputs).  A translation that raises (an untranslatable
    invariant part) keeps a template that notes the error, and the
    error propagates.  Recordings nest: a part of an invariant instance
    is recorded on a tape of its own while the instance's tape waits.
    """
    outer = ctx.tape
    tape = Tape(ctx, inputs, depth)
    ctx.tape = ctx.b = tape
    error = None
    try:
        result = axiom.translate(ctx, inputs, depth)
    except JMatchError as exc:  # an untranslatable invariant part
        error = exc
        result = None
    finally:
        ctx.tape = outer
        ctx.b = tm if outer is None else outer
    template = tape.finish(result, error)
    if template is not None:
        ctx.table.axiom_templates[_key(ctx, axiom, inputs)] = template
    if error is not None:
        raise error
    return result, tuple(tape.produced())


# ---------------------------------------------------------------------------
# Recording
# ---------------------------------------------------------------------------


class Depth:
    """Marks an argument of a recorded operation as an expansion depth."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value


class _Unrecordable(Exception):
    """An operation's argument is not a function of the template's inputs."""


#: the builders that intern at most one node, from their arguments
#: alone (see Tape._node)
_NODE_BUILDERS = frozenset({tm.mk_app, tm.mk_and, tm.mk_or, tm.mk_not})

#: argument encodings (see Tape._encode)
_SLOT, _LITERAL, _LIST, _TUPLE, _DICT, _CTX, _DEPTH = range(7)


class Tape:
    """The operations of one direct translation, in order.

    Also the builder namespace of the context while recording: a
    translation calls ``ctx.b.mk_and(...)``, which is ``terms.mk_and``
    outside a recording and the recording wrapper inside one.
    """

    def __init__(self, ctx, inputs: tuple[Term, ...], depth: int):
        self.ctx = ctx
        self.depth = depth
        self._n_inputs = len(inputs)
        #: every value an operation produced, after the inputs
        self._values: list = list(inputs)
        self._slot_of: dict = {value: i for i, value in enumerate(inputs)}
        #: the operations in replay form, one after another (see _op)
        self._ops: list = []
        self._failed = False

    def constant_call(self, fn, args: tuple, result) -> None:
        """Note that ``fn(ctx, *args)`` ran on constants alone (a symbol
        lookup, a mint, a dropped part) and returned ``result``."""
        if self._failed:
            return
        keep = 0
        if result is not None:
            keep = 1
            self._bind(result)
        self._ops.extend((_CTX_CALL, keep, fn, len(args), *args))

    def registration(
        self, fn, atom: Term, polarity: bool, depth: int, axiom, inputs, weak
    ) -> None:
        """Note that ``fn(ctx, atom, polarity, depth, axiom, inputs,
        weak)`` registered a lazy axiom (see ``EncodeContext.lazy``)."""
        if self._failed:
            return
        slot_of = self._slot_of
        try:
            atom_slot = slot_of[atom]
            slots = tuple([slot_of[term] for term in inputs])
        except KeyError:
            self._failed = True
            return
        self._ops.extend(
            (
                _LAZY, 0, fn, atom_slot, polarity, depth - self.depth,
                axiom, weak, len(slots), *slots,
            )
        )

    def record(self, fn, args: tuple, result) -> None:
        """Note that ``fn(*args)`` ran and returned ``result``."""
        if self._failed:
            return
        slot_of = self._slot_of
        if fn in _NODE_BUILDERS:
            if result in slot_of:
                # The builder met a term this recording already holds;
                # on inputs of this shape it always will.
                return
            op = self._node(result)
            if op is not None:
                self._bind(result)
                self._ops.extend(op)
                return
        slots = []
        for arg in args:
            slot = slot_of.get(arg) if type(arg) is Term else None
            if slot is None:
                break
            slots.append(slot)
        else:
            # Every argument is a slot (most builder calls).
            keep = 1
            if type(result) is Term:
                self._bind(result)
            else:
                keep = 2
                for value in result:
                    self._bind(value)
            self._ops.extend((_CALL, keep, fn, len(slots), *slots))
            return
        try:
            spec = self._encode_args(args)
        except _Unrecordable:
            self._failed = True
            return
        if result is None:
            keep = 0
        elif isinstance(result, tuple):
            keep = 2
            for value in result:
                self._bind(value)
        else:
            keep = 1
            self._bind(result)
        self._ops.extend(_op(fn, spec, keep))

    def _node(self, result: Term) -> tuple | None:
        """The operation interning ``result`` without its builder, or None.

        ``mk_app``, ``mk_and``, ``mk_or`` and ``mk_not`` intern at most
        one node, and which node depends only on which of their
        arguments are which terms -- the same on every input of a
        template's shape.  When every argument of that node is a slot,
        a replay interns it directly, in the same order.
        """
        if not result.args and result.kind != tm.APP:
            return None
        slot_of = self._slot_of
        refs = [slot_of.get(arg) for arg in result.args]
        if None in refs:
            return None
        payload = result.payload
        if payload is not None:
            payload = slot_of.get(payload)
            if payload is None:
                return None
        return (_NODE, 1, result.kind, payload, result.sort, len(refs), *refs)

    def finish(self, result, error: JMatchError | None = None):
        """The template, or None when some argument could not be encoded.

        The result of a recording that raised (``error``) is not kept.
        An F result (an invariant part's) is kept as its skeleton: its
        shape with each term replaced by that term's slot.
        """
        if self._failed:
            return None
        encoded = (_LITERAL, None)
        skeleton = None
        if error is None and type(result) is Term:
            try:
                encoded = self._encode(result)
            except _Unrecordable:
                return None
        elif error is None and isinstance(result, fir.F):
            try:
                skeleton = _skeleton(result, self._slot_of)
            except KeyError:
                pass
        return Template(
            tuple(self._ops), encoded, error, skeleton
        )

    def produced(self) -> list:
        """The values the recorded operations produced, in order."""
        return self._values[self._n_inputs:]

    def _bind(self, value) -> None:
        self._slot_of[value] = len(self._values)
        self._values.append(value)

    def _encode_args(self, args: tuple):
        """All-slot argument lists (the common case) stay a tuple of ints."""
        slot_of = self._slot_of
        slots = [slot_of.get(a) if type(a) is Term else None for a in args]
        if None not in slots:
            return tuple(slots)
        return [self._encode(a) for a in args]

    def _encode(self, value):
        kind = type(value)
        if kind is Term or kind is FunSym:
            slot = self._slot_of.get(value)
            if slot is not None:
                return (_SLOT, slot)
            if value is tm.TRUE or value is tm.FALSE:
                return (_LITERAL, value)
            raise _Unrecordable(value)
        if kind is list:
            return (_LIST, [self._encode(v) for v in value])
        if kind is tuple:
            return (_TUPLE, [self._encode(v) for v in value])
        if kind is dict:
            return (
                _DICT,
                [(self._encode(k), self._encode(v)) for k, v in value.items()],
            )
        if kind is Depth:
            return (_DEPTH, value.value - self.depth)
        if value is self.ctx:
            return (_CTX, None)
        return (_LITERAL, value)


def _builder(fn):
    def build(self, *args):
        result = fn(*args)
        self.record(fn, args, result)
        return result

    build.__name__ = fn.__name__
    return build


for _name in _BUILDERS:
    setattr(Tape, _name, _builder(getattr(tm, _name)))


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


def _resolve(spec, values: list, ctx, depth: int):
    tag, payload = spec
    if tag == _SLOT:
        return values[payload]
    if tag == _LITERAL:
        return payload
    if tag == _LIST:
        return [_resolve(s, values, ctx, depth) for s in payload]
    if tag == _TUPLE:
        return tuple(_resolve(s, values, ctx, depth) for s in payload)
    if tag == _DICT:
        return {
            _resolve(k, values, ctx, depth): _resolve(v, values, ctx, depth)
            for k, v in payload
        }
    if tag == _DEPTH:
        return depth + payload
    return ctx


#: replay operation codes (see _op and Template.run)
_NODE, _CALL, _CTX_CALL, _LAZY, _GENERAL = range(5)


def _op(fn, spec, keep: int) -> tuple:
    """An operation with encoded arguments, in ``Template.run``'s form.

    A template's operations lie one after another in one flat tuple,
    so a long-lived template is a handful of objects for the garbage
    collector to track, not one per operation.  Each is ``code, keep``,
    its fixed fields, and then a count and that many items:

    * ``_NODE kind payload sort n refs``: intern a node directly (see
      ``Tape._node``);
    * ``_CALL fn n slots``: call a builder on slots;
    * ``_CTX_CALL fn n constants``: call a context method on constants
      (a lookup, a mint, a dropped part);
    * ``_LAZY fn atom polarity offset axiom weak n slots``: register a
      lazy axiom (``EncodeContext.lazy``);
    * ``_GENERAL fn spec``: anything else, its arguments resolved one
      by one (no count).
    """
    if type(spec) is tuple:
        return (_CALL, keep, fn, len(spec), *spec)
    return (_GENERAL, keep, fn, spec)


class Template:
    """A recorded translation, replayable on other inputs of the same shape."""

    __slots__ = ("ops", "result", "error", "skeleton")

    def __init__(
        self,
        ops: tuple,
        result,
        error: JMatchError | None,
        skeleton: tuple | None = None,
    ):
        #: the operations, in recorded order, in one flat tuple (see _op)
        self.ops = ops
        self.result = result
        #: what the recorded translation raised after its operations
        self.error = error
        #: an F result over slots (see formula), or None
        self.skeleton = skeleton

    def run(self, ctx, inputs: tuple[Term, ...], depth: int) -> list:
        """Re-run the operations; every value, the inputs first."""
        v = list(inputs)
        new = Term
        code = self.ops
        i = 0
        end = len(code)
        while i < end:
            op = code[i]
            keep = code[i + 1]
            if op == _NODE:
                j = i + 6
                kind, payload, sort, n = code[i + 2 : j]
                i = j + n
                result = new(
                    kind,
                    tuple([v[k] for k in code[j:i]]),
                    None if payload is None else v[payload],
                    sort,
                )
            elif op == _CTX_CALL:
                j = i + 4
                fn = code[i + 2]
                i = j + code[i + 3]
                result = fn(ctx, *code[j:i])
            elif op == _LAZY:
                j = i + 9
                _, _, fn, atom, polarity, offset, axiom, weak, n = code[i:j]
                i = j + n
                result = fn(
                    ctx,
                    v[atom],
                    polarity,
                    depth + offset,
                    axiom,
                    tuple([v[k] for k in code[j:i]]),
                    weak,
                )
            elif op == _CALL:
                j = i + 4
                fn = code[i + 2]
                i = j + code[i + 3]
                result = fn(*[v[k] for k in code[j:i]])
            else:
                fn, spec = code[i + 2], code[i + 3]
                i += 4
                result = fn(*[_resolve(s, v, ctx, depth) for s in spec])
            if keep == 1:
                v.append(result)
            elif keep == 2:
                v.extend(result)
        return v

    def replay(self, ctx, inputs: tuple[Term, ...], depth: int) -> Term:
        values = self.run(ctx, inputs, depth)
        return _resolve(self.result, values, ctx, depth)

    def formula(self, values: list) -> fir.F:
        """The recorded F result rebuilt over ``values`` (from ``run``).

        F nodes are plain values, not interned, so building them again
        has no effect a translation could observe.
        """
        return _formula(self.skeleton, values)


def _skeleton(f: fir.F, slot_of: dict) -> tuple:
    """``f`` with every term replaced by its slot (KeyError: not slotted)."""
    kind = type(f)
    if kind is fir.FAtom:
        return (kind, slot_of[f.term], f.negated)
    if kind is fir.FAnd or kind is fir.FAssume:
        bound = tuple(slot_of[v] for v in f.bound)
        if kind is fir.FAnd:
            items = tuple(_skeleton(i, slot_of) for i in f.items)
            return (kind, items, bound)
        return (
            kind,
            _skeleton(f.premise, slot_of),
            _skeleton(f.body, slot_of),
            bound,
        )
    if kind is fir.FOr:
        return (kind, tuple(_skeleton(i, slot_of) for i in f.items))
    return (None, f)


def _formula(skeleton: tuple, values: list) -> fir.F:
    kind = skeleton[0]
    if kind is fir.FAtom:
        return fir.FAtom(values[skeleton[1]], skeleton[2])
    if kind is fir.FAnd:
        return fir.FAnd(
            tuple(_formula(i, values) for i in skeleton[1]),
            frozenset(values[i] for i in skeleton[2]),
        )
    if kind is fir.FAssume:
        return fir.FAssume(
            _formula(skeleton[1], values),
            _formula(skeleton[2], values),
            frozenset(values[i] for i in skeleton[3]),
        )
    if kind is fir.FOr:
        return fir.FOr(tuple(_formula(i, values) for i in skeleton[1]))
    return skeleton[1]


# ---------------------------------------------------------------------------
# Input shapes
# ---------------------------------------------------------------------------


def input_shape(inputs: tuple[Term, ...]) -> tuple:
    """What a replay may depend on in its input terms.

    A translation never looks inside a variable or a non-ground
    application: the builders treat both as atoms.  Such an input is
    described by its sort alone -- unless the translation could rebuild
    it from parts it does reach, which is when it contains another
    input, or a variable of an input the builders do open up
    (arithmetic, a constant, a connective).  Those inputs, and the
    opened ones, are described by their whole structure, with variables
    numbered by first occurrence and other inputs named by position.
    An input equal to an earlier one is described by that position.
    """
    if len(inputs) == 1:
        # Alone, a variable or non-ground application is opaque.
        (term,) = inputs
        if term.kind == tm.VAR or (term.kind == tm.APP and _has_var(term)):
            return (term.sort,)
    first: dict[Term, int] = {}
    for i, term in enumerate(inputs):
        first.setdefault(term, i)
    simple = len(first) == len(inputs)
    for term in inputs:
        if term.kind != tm.VAR and term.kind != tm.APP:
            simple = False
    if simple and all(
        term.kind == tm.VAR or _opaque(term, first, ()) for term in inputs
    ):
        return tuple(term.sort for term in inputs)
    exposed: set[Term] = set()
    for term in first:
        if term.kind != tm.VAR and term.kind != tm.APP:
            exposed.update(
                sub for sub in tm.subterms(term) if sub.kind == tm.VAR
            )
    numbering: dict[Term, int] = {}
    shape: list = []
    for i, term in enumerate(inputs):
        j = first[term]
        if j != i:
            shape.append(("=", j))
        elif term.kind == tm.VAR and term not in exposed:
            shape.append(term.sort)
        elif term.kind == tm.APP and _opaque(term, first, exposed):
            shape.append(term.sort)
        else:
            shape.append(_structure(term, term, first, numbering))
    return tuple(shape)


def _has_var(term: Term) -> bool:
    return any(arg.kind == tm.VAR or _has_var(arg) for arg in term.args)


def _opaque(term: Term, inputs: dict, exposed) -> bool:
    """Is ``term`` (an application) out of every builder's reach?"""
    has_var = False
    stack = list(term.args)
    while stack:
        sub = stack.pop()
        if sub in inputs or sub in exposed:
            return False
        if sub.kind == tm.VAR:
            has_var = True
        else:
            stack.extend(sub.args)
    return has_var


def _structure(term: Term, root: Term, inputs: dict, numbering: dict):
    if term is not root and term in inputs:
        return ("in", inputs[term])
    if term.kind == tm.VAR:
        return ("v", numbering.setdefault(term, len(numbering)), term.sort)
    head = term.payload.name if term.kind == tm.APP else term.payload
    return (
        term.kind,
        head,
        term.sort,
        tuple(_structure(a, root, inputs, numbering) for a in term.args),
    )
