"""Modes of JMatch methods (Section 2.1).

A JMatch method implements a relation over its parameters and its
result.  Each *mode* partitions those variables into knowns (inputs)
and unknowns (outputs).  The distinguished name ``result`` stands for
the method's return value; for constructors it is the constructed or
matched object.

Mode inventory per declaration kind:

* non-boolean method -- implicit *forward* mode (``result`` unknown),
  plus one mode per ``returns``/``iterates`` clause (``result`` known,
  listed parameters unknown);
* boolean method -- implicit *predicate* mode (nothing unknown), plus
  declared backward modes;
* named/class constructor -- implicit *creation* mode (``result``
  unknown, the new object), plus declared *pattern* modes (``result``
  known: the value being matched);
* equality constructor -- predicate mode only, unless modes declared.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..lang import ast

RESULT = "result"


@dataclass(frozen=True)
class Mode:
    """A partition of {params, result} into knowns and unknowns."""

    unknowns: frozenset[str]
    iterative: bool = False

    @staticmethod
    def of(names: list[str] | set[str], iterative: bool = False) -> "Mode":
        return Mode(frozenset(names), iterative)

    @property
    def is_predicate(self) -> bool:
        return not self.unknowns

    def knowns(self, param_names: list[str], include_result: bool) -> list[str]:
        known = [p for p in param_names if p not in self.unknowns]
        if include_result and RESULT not in self.unknowns:
            known.append(RESULT)
        return known

    def __str__(self) -> str:
        keyword = "iterates" if self.iterative else "returns"
        inner = ", ".join(sorted(self.unknowns))
        return f"{keyword}({inner})"


FORWARD = Mode(frozenset({RESULT}))
PREDICATE = Mode(frozenset())


def modes_of_method(decl: ast.MethodDecl | ast.FunctionDecl) -> list[Mode]:
    """Enumerate the modes a declaration supports."""
    declared = [Mode.of(m.names, m.iterative) for m in decl.modes]
    implicit: list[Mode]
    if isinstance(decl, ast.MethodDecl) and decl.is_constructor:
        if decl.kind == "equality":
            implicit = [PREDICATE]
        else:
            # Creation mode plus, when `returns()` was not declared, the
            # nullary pattern mode is *not* implicit -- the paper requires
            # it to be declared (e.g. `constructor zero() returns()`).
            implicit = [FORWARD]
    elif decl.return_type == ast.BOOLEAN_TYPE:
        implicit = [PREDICATE]
    elif decl.return_type == ast.VOID_TYPE:
        implicit = [PREDICATE]
    else:
        implicit = [FORWARD]
    out: list[Mode] = []
    for mode in implicit + declared:
        if mode not in out:
            out.append(mode)
    return out


def select_mode(
    modes: list[Mode], unknown_names: set[str], allow_iterative: bool = True
) -> Mode | None:
    """Pick the cheapest declared mode able to solve ``unknown_names``.

    A mode is usable if its unknown set contains every variable the call
    site needs solved (extra unknowns are solved and then checked against
    the supplied values).  Prefers exact matches, then smaller unknown
    sets, then non-iterative modes.
    """
    candidates = [
        m
        for m in modes
        if unknown_names <= m.unknowns and (allow_iterative or not m.iterative)
    ]
    if not candidates:
        return None
    candidates.sort(key=lambda m: (len(m.unknowns - unknown_names), m.iterative))
    return candidates[0]
