"""Sorts for the SMT substrate.

The verifier only ever needs three families of sorts:

* ``BOOL`` — propositional atoms and formulas,
* ``INT`` — mathematical integers (JMatch ``int`` values),
* uninterpreted sorts — one per reference-typed universe.  The encoder
  in :mod:`repro.verify.encode` uses a single object sort ``OBJ`` for
  all reference values and tracks Java types with ``instanceof``
  predicates, which mirrors how the paper treats dynamic types.
"""

from __future__ import annotations

from dataclasses import dataclass


#: the one Sort of each name
_SORTS: dict[str, "Sort"] = {}


@dataclass(frozen=True, eq=False)
class Sort:
    """An SMT sort, identified by name.

    Sorts are interned: ``Sort(name)`` is the one sort of that name, so
    equality and hashing are identity, which needs no call back into
    Python.  Every term interning lookup hashes a sort.
    """

    name: str

    def __new__(cls, name: str) -> "Sort":
        sort = _SORTS.get(name)
        if sort is None:
            sort = object.__new__(cls)
            object.__setattr__(sort, "name", name)
            sort = _SORTS.setdefault(name, sort)
        return sort

    def __reduce__(self):
        return (Sort, (self.name,))

    def __str__(self) -> str:
        return self.name


BOOL = Sort("Bool")
INT = Sort("Int")
OBJ = Sort("Obj")


def uninterpreted(name: str) -> Sort:
    """Create a fresh uninterpreted sort."""
    return Sort(name)
