"""The intermediate representation F (Section 5).

F is "similar to the language of quantifier-free logical formulas" with
two differences the paper calls out:

* negation appears only at the atomic level, introduced and eliminated
  by the :func:`negate` function;
* a right-associative *assume* operator ``F1 |> F2``: F1 captures
  knowledge about the environment in which F2 is evaluated (typically
  the solution of an unknown), so it survives negation::

      negate(F1 |> F2)  ==  F1 |> negate(F2)

Atoms are SMT terms from :mod:`repro.smt.terms`.  Unknown variables
introduced during translation are recorded on the nodes that bind
them, which is what :func:`fresh` renames (Section 5.1 uses
``fresh(VF[[f_i]])`` to rule out patterns matched by earlier arms).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..smt import terms as tm
from ..smt.terms import Term


class F:
    """Base class of F formulas."""

    def to_term(self, b=tm) -> Term:
        """Lower to a plain SMT term (assume becomes conjunction).

        ``b`` supplies the term builders (``terms`` itself, or a
        recording of them; see :mod:`repro.verify.templates`).
        """
        raise NotImplementedError

    def unknowns(self) -> frozenset[Term]:
        """All unknown variables introduced anywhere in this formula."""
        raise NotImplementedError

    def substitute(self, mapping: dict[Term, Term], b=tm) -> "F":
        raise NotImplementedError


@dataclass(frozen=True)
class FTrue(F):
    def to_term(self, b=tm) -> Term:
        return tm.TRUE

    def unknowns(self) -> frozenset[Term]:
        return frozenset()

    def substitute(self, mapping: dict[Term, Term], b=tm) -> F:
        return self

    def __str__(self) -> str:
        return "true"


@dataclass(frozen=True)
class FFalse(F):
    def to_term(self, b=tm) -> Term:
        return tm.FALSE

    def unknowns(self) -> frozenset[Term]:
        return frozenset()

    def substitute(self, mapping: dict[Term, Term], b=tm) -> F:
        return self

    def __str__(self) -> str:
        return "false"


TRUE = FTrue()
FALSE = FFalse()


@dataclass(frozen=True)
class FAtom(F):
    """A theory atom, possibly negated (negation lives only here)."""

    term: Term
    negated: bool = False

    def to_term(self, b=tm) -> Term:
        return b.mk_not(self.term) if self.negated else self.term

    def unknowns(self) -> frozenset[Term]:
        return frozenset()

    def substitute(self, mapping: dict[Term, Term], b=tm) -> F:
        return FAtom(b.substitute(self.term, mapping), self.negated)

    def __str__(self) -> str:
        return f"!{self.term}" if self.negated else str(self.term)


@dataclass(frozen=True)
class FAnd(F):
    items: tuple[F, ...]
    #: unknown variables whose solutions this conjunction introduces
    bound: frozenset[Term] = field(default=frozenset())

    def to_term(self, b=tm) -> Term:
        return b.mk_and(*[i.to_term(b) for i in self.items])

    def unknowns(self) -> frozenset[Term]:
        out = frozenset(self.bound)
        for item in self.items:
            out |= item.unknowns()
        return out

    def substitute(self, mapping: dict[Term, Term], b=tm) -> F:
        return FAnd(
            tuple(i.substitute(mapping, b) for i in self.items),
            frozenset(mapping.get(v, v) for v in self.bound),
        )

    def __str__(self) -> str:
        return "(" + " && ".join(str(i) for i in self.items) + ")"


@dataclass(frozen=True)
class FOr(F):
    items: tuple[F, ...]

    def to_term(self, b=tm) -> Term:
        return b.mk_or(*[i.to_term(b) for i in self.items])

    def unknowns(self) -> frozenset[Term]:
        out: frozenset[Term] = frozenset()
        for item in self.items:
            out |= item.unknowns()
        return out

    def substitute(self, mapping: dict[Term, Term], b=tm) -> F:
        return FOr(tuple(i.substitute(mapping, b) for i in self.items))

    def __str__(self) -> str:
        return "(" + " || ".join(str(i) for i in self.items) + ")"


@dataclass(frozen=True)
class FAssume(F):
    """``premise |> body``: premise is environment knowledge.

    The premise typically solves an unknown (``x = y - 1``) or records a
    callee's postcondition; it remains asserted when the formula is
    negated.
    """

    premise: F
    body: F
    #: unknowns whose solutions the premise provides
    bound: frozenset[Term] = field(default=frozenset())

    def to_term(self, b=tm) -> Term:
        return b.mk_and(self.premise.to_term(b), self.body.to_term(b))

    def unknowns(self) -> frozenset[Term]:
        return frozenset(self.bound) | self.premise.unknowns() | self.body.unknowns()

    def substitute(self, mapping: dict[Term, Term], b=tm) -> F:
        return FAssume(
            self.premise.substitute(mapping, b),
            self.body.substitute(mapping, b),
            frozenset(mapping.get(v, v) for v in self.bound),
        )

    def __str__(self) -> str:
        return f"({self.premise} |> {self.body})"


def fand(*items: F) -> F:
    flat: list[F] = []
    for item in items:
        if isinstance(item, FTrue):
            continue
        if isinstance(item, FFalse):
            return FALSE
        if isinstance(item, FAnd) and not item.bound:
            flat.extend(item.items)
        else:
            flat.append(item)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return FAnd(tuple(flat))


def for_(*items: F) -> F:
    flat: list[F] = []
    for item in items:
        if isinstance(item, FFalse):
            continue
        if isinstance(item, FTrue):
            return TRUE
        if isinstance(item, FOr):
            flat.extend(item.items)
        else:
            flat.append(item)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return FOr(tuple(flat))


def assume(premise: F, body: F, bound: frozenset[Term] = frozenset()) -> F:
    if isinstance(premise, FTrue) and not bound:
        return body
    return FAssume(premise, body, bound)


def negate(f: F) -> F:
    """Negation with assume-preservation (Section 5)."""
    if isinstance(f, FTrue):
        return FALSE
    if isinstance(f, FFalse):
        return TRUE
    if isinstance(f, FAtom):
        return FAtom(f.term, not f.negated)
    if isinstance(f, FAnd):
        # The bound unknowns' defining conjuncts are equations that act
        # as assumes only when wrapped in FAssume; a plain FAnd negates
        # clause-wise (De Morgan).
        return FOr(tuple(negate(i) for i in f.items))
    if isinstance(f, FOr):
        return FAnd(tuple(negate(i) for i in f.items))
    if isinstance(f, FAssume):
        return FAssume(f.premise, negate(f.body), f.bound)
    raise AssertionError(f"unexpected F node {f!r}")


def fresh(f: F, b=tm) -> F:
    """Rename every unknown variable introduced in ``f`` (Section 5.1)."""
    unknowns = sorted(f.unknowns(), key=lambda t: t._id)
    if not unknowns:
        return f
    return f.substitute(dict(zip(unknowns, b.fresh_copies(unknowns))), b)
