"""The pre-SMT pattern-algebra fast path.

Most ``switch`` exhaustiveness/redundancy obligations in the corpus
range over plain constructor patterns: no arithmetic, no equality
constructors, at most a ``where`` refinement on some arms.  Over a
*sealed* type -- one whose visible invariants pin every value to a
finite constructor signature, like ``invariant(this = zero() |
succ(_))`` -- those obligations are decidable purely syntactically by
the classic usefulness-matrix algorithm (Maranget-style constructor
splitting with wildcard defaults, tuple and nested-pattern expansion,
or-pattern flattening).  This module implements that fast path;
anything it cannot decide falls through to the SMT pipeline untouched.

Alignment with SMT is the design constraint, not an
afterthought: an obligation is only *eligible* here when the free-
term-algebra reading provably coincides with the F-translation's
semantics.  Concretely:

* the subject must be a plain variable (or tuple of variables) of a
  declared type, with no path conditions in scope -- path conditions
  can change both redundancy and exhaustiveness;
* every column type must be *algebra-safe*: its visible invariants are
  either empty or exactly one sealing invariant
  ``this = C1(..) | C2(..) | ...`` whose alternatives resolve to
  abstract named constructors.  A type with other visible invariants
  (class-listing, arithmetic refinements) can make SMT prove more arms
  redundant than the free algebra, so it poisons the statement;
* constructor patterns must resolve -- through the unqualified-call
  resolution (``SolvabilityContext.lookup``) and the canonical-method
  rule (``ProgramTable.canonical``) the translator itself calls, not
  a copy of them -- to an *abstract* constructor with no ``ensures``,
  a ``matches`` clause that is absent or opaque (``notall``), and a
  non-iterative mode binding every parameter.  Iterative modes
  produce fresh existential outputs rather than unique skolem
  functions, which breaks the functional reading redundancy alignment
  depends on;
* variable patterns must be fresh (a name already in scope, or bound
  twice in one arm, is an equality constraint -- SMT territory);
  ``T x`` declarations are irrefutable only when the column type is a
  subtype of ``T``.

A ``where`` refinement, at the top of a case pattern or nested in it,
is outside the free algebra: the guard is a formula only SMT can
judge.  The arm is lowered to its unguarded *skeleton* and marked
*guarded*, and every obligation is bounded from both sides.  The
*lower* matrix holds only the unguarded rows (a guard may match
nothing); the *upper* matrix holds every skeleton (a guard may match
everything).  An arm whose rows are all useless against the lower
matrix is redundant; an unguarded arm with a row useful against the
upper matrix is reachable; the switch is exhaustive when a wildcard is
useless against the lower matrix and non-exhaustive when it is useful
against the upper one.  What falls between the bounds is
:data:`UNDECIDED`, and only that obligation goes to SMT; a guarded arm
is never proved reachable.  Without guards the bounds coincide and
every obligation is decided.

The usefulness test builds its answer (Maranget's algorithm I): a
*witness*, a pattern vector every instance of which matches the query
row and no matrix row, or None.  The exhaustiveness witness of a
non-exhaustive switch comes from the upper matrix, so it escapes every
skeleton and therefore every arm; rendered in source syntax
(``t = succ(zero())``, ``(m, n) = (zero(), succ(_))``) it is the
warning's counterexample, and no SMT model is asked for.  An open
column (no sealing invariant) whose rows name constructors has no
pattern witness: a value there matches none of them, and no pattern
names it.  SMT then answers that switch's exhaustiveness, and its
model renders the counterexample.

The algebra's verdicts are final: ``ExhaustivenessChecker.check_cond``
discharges each obligation with its verdict, or asks SMT where it has
none (see :attr:`AlgebraDecision.verdicts`).  An arm the translator
rejects (a guard it cannot translate) reports that error; the lower
matrix already reads a guarded arm as matching nothing, so the
verdicts on later arms hold.  An unguarded pattern the algebra lowers
always translates.  ``tests/verify/tier_oracle.py`` runs both sides on
every obligation the algebra decides, checks every witness with SMT,
and fails on any disagreement.

Disjointness obligations get a narrower treatment: the SMT checker
never warns about a ``|`` whose overlap witness involves an abstract
constructor predicate ("abstraction prevents us from making this
guarantee", Section 8) -- and it never warns about an arm it cannot
translate either.  So any disjunction in which some unqualified call
resolves to an abstract canonical method is *structurally guaranteed*
to produce no warning, whatever the solver would answer; the algebra
discharges exactly those without a query.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

from ..lang import ast
from ..lang.symbols import MethodInfo, ProgramTable
from ..modes.ordering import SolvabilityContext

__all__ = [
    "AlgebraDecision",
    "PatternAlgebra",
    "PCtor",
    "POr",
    "PWild",
    "Signature",
    "UNDECIDED",
]


class _Ineligible(Exception):
    """This construct is outside the algebra's aligned fragment."""


# ---------------------------------------------------------------------------
# pattern skeletons


@dataclass(frozen=True)
class PWild:
    """Matches anything: ``_``, a fresh binder, an irrefutable ``T x``."""


@dataclass(frozen=True)
class PCtor:
    """A constructor pattern with lowered argument patterns."""

    name: str
    args: tuple = ()
    #: declared parameter types of the canonical constructor, one per
    #: argument column produced by specialization
    arg_types: tuple = ()


@dataclass(frozen=True)
class POr:
    """A (nested) or-pattern; alternatives are already flattened."""

    alts: tuple = ()


@dataclass(frozen=True)
class POther:
    """A witness entry on an open column: a value that no constructor
    its rows name matches.  No pattern denotes it."""


@dataclass(frozen=True)
class Signature:
    """The finite constructor signature of one sealed type."""

    type_name: str
    #: constructor name -> parameter types (the argument column types)
    ctors: dict


#: the verdict of an obligation the algebra's two bounds leave open;
#: SMT answers it
UNDECIDED = "undecided"


@dataclass
class AlgebraDecision:
    """What the algebra concluded about one switch statement."""

    #: one redundancy verdict per desugared arm (one per case-label
    #: pattern): "unsat" (redundant), "sat" (reachable) or UNDECIDED
    arm_verdicts: list = field(default_factory=list)
    #: True/False, UNDECIDED, or None when a ``default`` suppresses the
    #: obligation
    exhaustive: bool | str | None = None
    #: some arm carries a ``where`` guard, whose translation only the
    #: SMT pipeline can attempt
    guarded: bool = False
    #: for a non-exhaustive switch, the source pattern of a value no arm
    #: matches (a tuple pattern for a tuple subject); None when no
    #: pattern names one (an open column whose rows name constructors)
    witness: ast.Expr | None = None

    @property
    def verdicts(self) -> list[str | None]:
        """The algebra's verdict on each obligation
        ``ExhaustivenessChecker.check_cond`` builds (every arm, then
        exhaustiveness unless a ``default`` suppresses it), None where
        SMT answers, as :func:`~repro.verify.obligation.discharge`
        takes them.  A non-exhaustive statement's exhaustiveness is
        "sat" when it has a :attr:`witness`, its counterexample, and
        otherwise SMT answers it and its model is the counterexample."""
        out = [None if v == UNDECIDED else v for v in self.arm_verdicts]
        if self.exhaustive is True:
            out.append("unsat")
        elif self.exhaustive is not None:  # False or UNDECIDED
            out.append(None if self.witness is None else "sat")
        return out

    def counterexample(self, subject: ast.Expr) -> str | None:
        """The witness as a warning shows it: ``<subject> = <pattern>``."""
        return None if self.witness is None else f"{subject} = {self.witness}"


# ---------------------------------------------------------------------------


#: process-wide signature memo, shared by every :class:`PatternAlgebra`
#: over the same live table: ``table -> {viewer -> {type_name: ...}}``.
#: Signature extraction is deterministic in ``(table, viewer)``, and a
#: verification run builds one algebra per method body, so without
#: sharing the same sealing invariants get re-parsed thousands of times
#: on a generated corpus.  :meth:`PatternAlgebra.signature` fills it on
#: first touch of each type.  Weak keys keep dead tables collectable.
_SHARED_SIGNATURES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _signature_store(table: ProgramTable, viewer: str | None) -> dict:
    return _SHARED_SIGNATURES.setdefault(table, {}).setdefault(viewer, {})


class PatternAlgebra:
    """The syntactic fast path for one (table, viewer) context."""

    def __init__(self, table: ProgramTable, viewer: str | None):
        self.table = table
        self.viewer = viewer
        self._resolver = SolvabilityContext(table, viewer)
        #: memoized per type name: Signature, None (open), or the
        #: _UNSAFE marker for unsafe invariant shapes; shared across
        #: instances over the same (table, viewer)
        self._signatures: dict = _signature_store(table, viewer)

    # -- constructor resolution ----------------------------------------

    def _resolve_pattern_ctor(
        self, call: ast.Call, owner: str | None = None
    ) -> MethodInfo | None:
        """The canonical constructor a pattern call translates through.

        Receiver-less, qualifier-less calls resolve through the same
        ``SolvabilityContext.lookup`` and ``ProgramTable.canonical`` the
        translator uses, so the algebra reasons about exactly the
        success predicate the SMT encoding builds.  Returns None when
        the call resolves elsewhere (function, method with a receiver
        convention) or to nothing.
        """
        if call.receiver is not None or call.qualifier is not None:
            return None
        resolver = (
            self._resolver
            if owner is None or owner == self.viewer
            else SolvabilityContext(self.table, owner)
        )
        method = resolver.lookup(call)
        if method is None or not method.owner:
            return None
        return self.table.canonical(method)

    def _eligible_ctor(self, canonical: MethodInfo, arity: int) -> bool:
        """Is this constructor inside the aligned free-algebra fragment?"""
        decl = canonical.decl
        if canonical.kind != "constructor":
            return False
        if not canonical.abstract:
            # A concrete canonical body introduces real axioms the free
            # algebra cannot see (e.g. ``PZero.succ(n) ( false )``).
            return False
        if len(canonical.params) != arity:
            return False
        if decl.ensures is not None:
            return False
        if decl.matches is not None and not isinstance(
            decl.matches, ast.NotAll
        ):
            return False
        wanted = frozenset(canonical.param_names)
        return any(
            not mode.iterative and mode.unknowns == wanted
            for mode in canonical.modes()
        )

    # -- sealed-type signatures ----------------------------------------

    def signature(self, type_name: str) -> Signature | None:
        """The sealed constructor signature of ``type_name``, if any.

        Raises :class:`_Ineligible` when the type's visible invariants
        exist but do not form exactly one clean sealing invariant --
        such invariants give SMT knowledge the free algebra
        lacks, so the whole column must fall through.
        """
        if type_name in self._signatures:
            cached = self._signatures[type_name]
            if cached is _UNSAFE:
                raise _Ineligible(type_name)
            return cached
        result = self._extract_signature(type_name)
        self._signatures[type_name] = _UNSAFE if result is _UNSAFE else result
        if result is _UNSAFE:
            raise _Ineligible(type_name)
        return result

    def _extract_signature(self, type_name: str):
        info = self.table.types.get(type_name)
        if info is None or info.decl is None:
            # Unknown/builtin object types: open, but safe (the SMT
            # context has no invariants for them either).
            return None
        invariants = self.table.invariants_visible_from(
            type_name, self.viewer
        )
        if not invariants:
            return None
        if len(invariants) != 1:
            return _UNSAFE
        declaring, inv = invariants[0]
        ctors = self._sealing_alternatives(inv.formula, declaring)
        if ctors is None:
            return _UNSAFE
        return Signature(type_name, ctors)

    def _sealing_alternatives(self, formula: ast.Expr, declaring: str):
        """Parse ``this = C1(..) | C2(..) | ...`` into a signature.

        Precedence makes that source parse as
        ``(this = C1(..)) | C2(..) | ...``, and the translator matches
        a bare constructor-call disjunct against ``this`` (see
        ``Translator._vf_call``), so both ``this = C(..)`` and a bare
        ``C(..)`` alternative mean "``this`` matches ``C``".
        Alternatives resolve with the declaring type as owner -- the
        environment the invariant's own translation runs in -- and each
        must be an eligible abstract constructor applied to irrefutable
        placeholders.  Returns None for any other invariant shape.
        """
        alternatives: list[ast.Call] = []
        stack = [formula]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.PatOr):  # source order
                stack.append(node.right)
                stack.append(node.left)
            elif (
                isinstance(node, ast.Binary)
                and node.op == "="
                and isinstance(node.left, ast.Var)
                and node.left.name == "this"
            ):
                stack.append(node.right)
            elif isinstance(node, ast.Call):
                alternatives.append(node)
            else:
                return None
        ctors: dict = {}
        for call in alternatives:
            canonical = self._resolve_pattern_ctor(call, owner=declaring)
            if canonical is None:
                return None
            if not self._eligible_ctor(canonical, len(call.args)):
                return None
            for arg in call.args:
                if not isinstance(arg, (ast.Wildcard, ast.Var, ast.VarDecl)):
                    return None
            key = f"{canonical.owner}.{canonical.name}"
            if key in ctors:
                return None
            ctors[key] = (
                canonical.name,
                tuple(param.type for param in canonical.params),
            )
        return ctors

    # -- pattern lowering ----------------------------------------------

    def _lower(
        self,
        pattern: ast.Expr,
        col_type: ast.Type | None,
        bound: set,
        env_names: frozenset,
    ):
        """One source pattern against one column, as a skeleton.

        Raises :class:`_Ineligible` for anything outside the fragment.
        """
        if isinstance(pattern, ast.Wildcard):
            return PWild()
        if isinstance(pattern, ast.Var):
            if pattern.name in env_names or pattern.name in bound:
                raise _Ineligible("equality test")  # `x` already bound
            bound.add(pattern.name)
            return PWild()
        if isinstance(pattern, ast.VarDecl):
            if pattern.name is not None:
                if pattern.name in env_names or pattern.name in bound:
                    raise _Ineligible("shadowing declaration")
                bound.add(pattern.name)
            if col_type is None or not self.table.is_subtype(
                col_type, pattern.type
            ):
                # A strict (or unknown) type test is refutable.
                raise _Ineligible("refutable type test")
            return PWild()
        if isinstance(pattern, ast.PatOr):
            alts: list = []
            for side in (pattern.left, pattern.right):
                lowered = self._lower(side, col_type, bound, env_names)
                if isinstance(lowered, POr):
                    alts.extend(lowered.alts)
                else:
                    alts.append(lowered)
            return POr(tuple(alts))
        if isinstance(pattern, ast.Call):
            return self._lower_ctor(pattern, col_type, bound, env_names)
        if isinstance(pattern, ast.Where):
            # the skeleton; the arm is marked guarded (see _has_guard)
            return self._lower(pattern.pattern, col_type, bound, env_names)
        raise _Ineligible(f"pattern {type(pattern).__name__}")

    def _lower_ctor(
        self,
        call: ast.Call,
        col_type: ast.Type | None,
        bound: set,
        env_names: frozenset,
    ) -> PCtor:
        if col_type is None or col_type.is_primitive or col_type.is_tuple:
            raise _Ineligible("constructor pattern on untyped column")
        canonical = self._resolve_pattern_ctor(call)
        if canonical is None or not self._eligible_ctor(
            canonical, len(call.args)
        ):
            raise _Ineligible("ineligible constructor")
        key = f"{canonical.owner}.{canonical.name}"
        sig = self.signature(col_type.name)  # may raise _Ineligible
        if sig is not None and key not in sig.ctors:
            # A sealed column's invariant can refute constructors
            # outside its signature -- knowledge the free algebra
            # cannot replicate.
            raise _Ineligible("constructor outside the sealing invariant")
        arg_types = tuple(param.type for param in canonical.params)
        for arg_type in arg_types:
            self._check_column_safety(arg_type)
        args = tuple(
            self._lower(arg, arg_type, bound, env_names)
            for arg, arg_type in zip(call.args, arg_types)
        )
        return PCtor(key, args, arg_types)

    def _check_column_safety(self, col_type: ast.Type | None) -> None:
        """Columns of types with non-sealing invariants are unsafe even
        under wildcards (the invariant could refute a later arm)."""
        if col_type is None:
            raise _Ineligible("untyped column")
        if col_type.is_primitive or col_type.is_tuple:
            return
        self.signature(col_type.name)  # raises _Ineligible when unsafe

    # -- the usefulness matrix -----------------------------------------

    def _head_ctors(self, pat) -> set:
        if isinstance(pat, PCtor):
            return {pat.name}
        if isinstance(pat, POr):
            out: set = set()
            for alt in pat.alts:
                out |= self._head_ctors(alt)
            return out
        return set()

    def _specialize(self, rows: list, name: str, arity: int) -> list:
        """S(c, P): rows as seen after the subject splits on ``c``."""
        out: list = []
        for row in rows:
            head, rest = row[0], row[1:]
            if isinstance(head, PWild):
                out.append([PWild()] * arity + rest)
            elif isinstance(head, PCtor):
                if head.name == name:
                    out.append(list(head.args) + rest)
            elif isinstance(head, POr):
                for alt in head.alts:
                    out.extend(self._specialize([[alt] + rest], name, arity))
        return out

    def _default(self, rows: list) -> list:
        """D(P): rows still live when the subject matches no listed ctor."""
        out: list = []
        for row in rows:
            head, rest = row[0], row[1:]
            if isinstance(head, PWild):
                out.append(rest)
            elif isinstance(head, POr):
                for alt in head.alts:
                    out.extend(self._default([[alt] + rest]))
        return out

    def _witness(self, rows: list, q: list, types: list) -> list | None:
        """A pattern vector every instance of which matches ``q`` and no
        row of ``rows``, or None when no value does: ``q`` is useful
        against ``rows`` exactly when there is one (Maranget's
        algorithm I).  A :class:`POther` entry stands for a value of an
        open column that no listed constructor matches."""
        if not q:
            return None if rows else []
        head, rest = q[0], q[1:]
        if isinstance(head, POr):
            for alt in head.alts:
                found = self._witness(rows, [alt] + rest, types)
                if found is not None:
                    return found
            return None
        if isinstance(head, PCtor):
            return _rebuild(
                head.name,
                head.arg_types,
                self._witness(
                    self._specialize(rows, head.name, len(head.args)),
                    list(head.args) + rest,
                    list(head.arg_types) + types[1:],
                ),
            )
        # Wildcard head: split on a complete signature, else default.
        sig = self._column_signature(types[0])
        heads: set = set()
        for row in rows:
            heads |= self._head_ctors(row[0])
        if sig is not None and set(sig.ctors) <= heads:
            for key, (_, arg_types) in sig.ctors.items():
                found = _rebuild(
                    key,
                    arg_types,
                    self._witness(
                        self._specialize(rows, key, len(arg_types)),
                        [PWild()] * len(arg_types) + rest,
                        list(arg_types) + types[1:],
                    ),
                )
                if found is not None:
                    return found
            return None
        found = self._witness(self._default(rows), rest, types[1:])
        if found is None:
            return None
        if not heads:
            return [PWild()] + found
        if sig is None:
            return [POther()] + found
        key, (_, arg_types) = next(
            (key, ctor) for key, ctor in sig.ctors.items() if key not in heads
        )
        return [PCtor(key, (PWild(),) * len(arg_types), arg_types)] + found

    def _column_signature(self, col_type) -> Signature | None:
        if (
            col_type is None
            or col_type.is_primitive
            or col_type.is_tuple
        ):
            return None
        return self.signature(col_type.name)

    # -- statement-level entry points ----------------------------------

    def analyze_switch(
        self,
        stmt: ast.SwitchStmt,
        scope: dict,
        path: list,
    ) -> AlgebraDecision | None:
        """Decide one switch statement, or None when ineligible.

        ``scope`` is the walker's name->type map; ``path`` the active
        path conditions (any make the statement ineligible: they
        constrain the subject in ways only the SMT context sees).
        """
        try:
            return self._analyze_switch(stmt, scope, path)
        except _Ineligible:
            return None

    def _analyze_switch(self, stmt, scope, path):
        if path:
            raise _Ineligible("path conditions in scope")
        col_types: list[ast.Type | None] = []
        subject = stmt.subject
        items = subject.items if isinstance(subject, ast.TupleExpr) else [subject]
        for item in items:
            if not (isinstance(item, ast.Var) and item.name in scope):
                raise _Ineligible("subject is not a scoped variable")
            col_types.append(scope[item.name])
        for col_type in col_types:
            self._check_column_safety(col_type)
        env_names = frozenset(scope)
        if "this" in scope and self.viewer:
            # The translator binds the owner's fields as well
            # (``Translator.bind_fields``), so a pattern variable named
            # after one is an equality test.
            env_names |= {
                name
                for ancestor in self.table.supertypes(self.viewer)
                if ancestor in self.table.types
                for name in self.table.types[ancestor].fields
            }
        width = len(col_types)
        types = list(col_types)
        decision = AlgebraDecision()
        lower: list = []  # the unguarded rows: a guard may match nothing
        upper: list = []  # every skeleton: a guard may match everything
        for case in stmt.cases:
            for pattern in case.patterns:
                rows = self._lower_arm(pattern, col_types, width, env_names)
                guarded = _has_guard(pattern)
                verdict, _ = self._bounded(lower, upper, rows, types)
                if guarded and verdict == "sat":
                    verdict = UNDECIDED  # its guard may match nothing
                decision.arm_verdicts.append(verdict)
                decision.guarded = decision.guarded or guarded
                # The SMT invariant accumulates every arm's negation,
                # redundant or not; mirror that.
                upper.extend(rows)
                if not guarded:
                    lower.extend(rows)
        if stmt.default is None:
            missed, witness = self._bounded(
                lower, upper, [[PWild()] * width], types
            )
            decision.exhaustive = (
                UNDECIDED if missed == UNDECIDED else missed == "unsat"
            )
            if witness is not None:
                decision.witness = self._witness_pattern(witness)
        return decision

    def _bounded(self, lower: list, upper: list, rows: list, types):
        """Does some value match one of ``rows`` and no earlier arm?

        "unsat" (no) when no row is useful against the ``lower``
        matrix, "sat" (yes) when one is useful against the ``upper``
        matrix, and UNDECIDED between the bounds.  Returns the verdict
        and, for "sat", a witness against the upper matrix: it matches
        a row and escapes every earlier skeleton.
        """
        witness = self._first_witness(lower, rows, types)
        if witness is None:
            return "unsat", None
        if len(lower) == len(upper):  # no guard yet: the bounds coincide
            return "sat", witness
        witness = self._first_witness(upper, rows, types)
        return (UNDECIDED, None) if witness is None else ("sat", witness)

    def _first_witness(self, matrix: list, rows: list, types) -> list | None:
        for row in rows:
            witness = self._witness(matrix, row, types)
            if witness is not None:
                return witness
        return None

    def _witness_pattern(self, witness: list) -> ast.Expr | None:
        """A witness vector as a source pattern, or None when no pattern
        denotes it: an open column's :class:`POther`, or a constructor
        whose name resolves elsewhere from this viewer."""
        try:
            items = [self._source_pattern(pat) for pat in witness]
        except _Ineligible:
            return None
        return items[0] if len(items) == 1 else ast.TupleExpr(items)

    def _source_pattern(self, pat) -> ast.Expr:
        if isinstance(pat, PWild):
            return ast.Wildcard()
        if isinstance(pat, POther):
            raise _Ineligible("no pattern names this value")
        call = ast.Call(
            None,
            None,
            pat.name.rsplit(".", 1)[1],
            [self._source_pattern(arg) for arg in pat.args],
        )
        canonical = self._resolve_pattern_ctor(call)
        if (
            canonical is None
            or f"{canonical.owner}.{canonical.name}" != pat.name
        ):
            raise _Ineligible("constructor name resolves elsewhere")
        return call

    def _lower_arm(self, pattern, col_types, width, env_names) -> list:
        """One case-label pattern as matrix rows (top-level ors split)."""
        bound: set = set()
        if isinstance(pattern, ast.PatOr) and width > 1:
            rows: list = []
            for side in (pattern.left, pattern.right):
                rows.extend(
                    self._lower_arm(side, col_types, width, env_names)
                )
            return rows
        if width == 1:
            return [[self._lower(pattern, col_types[0], bound, env_names)]]
        if isinstance(pattern, ast.Where):
            return self._lower_arm(
                pattern.pattern, col_types, width, env_names
            )
        if isinstance(pattern, ast.Wildcard):
            return [[PWild()] * width]
        if isinstance(pattern, ast.Var):
            if pattern.name in env_names:
                raise _Ineligible("equality test on tuple subject")
            return [[PWild()] * width]
        if isinstance(pattern, ast.TupleExpr):
            if len(pattern.items) != width:
                raise _Ineligible("tuple arity mismatch")
            return [
                [
                    self._lower(item, col_type, bound, env_names)
                    for item, col_type in zip(pattern.items, col_types)
                ]
            ]
        raise _Ineligible("non-tuple pattern on tuple subject")

    # -- disjointness --------------------------------------------------

    def disjunction_asserted(self, node: ast.PatOr, owner: str | None) -> bool:
        """True when SMT provably emits no warning for this ``|``.

        The disjointness checker skips any obligation whose translated
        arms mention an abstract constructor predicate (and any it
        cannot translate at all), so a disjunction in which some
        unqualified call resolves to an abstract canonical method can
        never warn -- whatever the solver verdict.  Only a structural
        guarantee discharges; "probably fine" falls through.
        """
        return self._mentions_abstract(node.left, owner) or (
            self._mentions_abstract(node.right, owner)
        )

    def _mentions_abstract(self, expr: ast.Expr, owner: str | None) -> bool:
        for node in ast.walk(expr):
            if (
                isinstance(node, ast.Call)
                and node.receiver is None
                and node.qualifier is None
            ):
                canonical = self._resolve_pattern_ctor(node, owner=owner)
                if canonical is not None and canonical.abstract:
                    return True
        return False


def _rebuild(name: str, arg_types: tuple, found: list | None) -> list | None:
    """``c(w1..wk)`` followed by the rest of a specialized witness."""
    if found is None:
        return None
    arity = len(arg_types)
    return [PCtor(name, tuple(found[:arity]), arg_types)] + found[arity:]


def _has_guard(pattern: ast.Expr) -> bool:
    """Does a ``where`` refine this case pattern, at its top or nested
    anywhere the lowering reaches?"""
    stack = [pattern]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Where):
            return True
        if isinstance(node, ast.PatOr):
            stack += (node.left, node.right)
        elif isinstance(node, ast.Call):
            stack.extend(node.args)
        elif isinstance(node, ast.TupleExpr):
            stack.extend(node.items)
    return False


#: sentinel for memoized "type with unsafe invariants"
_UNSAFE = object()
