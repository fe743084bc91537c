"""Diagnostics shared by every stage of the JMatch 2.0 reproduction.

The compiler reports three flavours of diagnostics, mirroring the paper:

* *errors* — the program is rejected (syntax, type, mode errors).
* *warnings* — verification findings.  Following Section 5.4 of the
  paper, failures of exhaustiveness, redundancy, totality, and
  multiplicity are warnings, not errors: the program still runs.
* *notes* — auxiliary information attached to a warning, such as the
  counterexample produced from an SMT model.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


@dataclass(frozen=True, order=True)
class Position:
    """A line/column position in a source buffer (1-based)."""

    line: int = 0
    column: int = 0

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


@dataclass(frozen=True)
class Span:
    """A contiguous region of source text."""

    start: Position = Position()
    end: Position = Position()
    filename: str = "<input>"

    def __str__(self) -> str:
        return f"{self.filename}:{self.start}"


NO_SPAN = Span()


class JMatchError(Exception):
    """Base class for all errors raised by the toolchain."""

    def __init__(self, message: str, span: Span = NO_SPAN):
        super().__init__(f"{span}: {message}" if span is not NO_SPAN else message)
        self.message = message
        self.span = span


class LexError(JMatchError):
    """A malformed token in the source text."""


class ParseError(JMatchError):
    """The token stream does not match the grammar."""


class TypeCheckError(JMatchError):
    """A static semantic error (types, visibility, arity...)."""


class EvalError(JMatchError):
    """A runtime failure while solving formulas or executing statements."""


class MatchFailure(EvalError):
    """No case of a switch/cond matched, or a let was unsatisfiable.

    This is the dynamic error that the exhaustiveness analysis exists to
    rule out statically.
    """


class WarningKind(enum.Enum):
    """The verification warning taxonomy from Sections 5.1-5.3."""

    NONEXHAUSTIVE = "nonexhaustive"
    REDUNDANT_ARM = "redundant-arm"
    LET_MAY_FAIL = "let-may-fail"
    TOTALITY = "totality"
    POSTCONDITION = "postcondition"
    NOT_DISJOINT = "not-disjoint"
    MULTIPLICITY = "multiplicity"
    #: Section 6.2: iterative deepening exhausted its budget, so the
    #: compiler "warns that it did not find a counterexample to
    #: exhaustiveness, but that there might be one".
    UNKNOWN = "verification-inconclusive"


@dataclass
class Warning:
    """A single verification finding."""

    kind: WarningKind
    message: str
    span: Span = NO_SPAN
    #: Human-readable counterexample extracted from an SMT model, if any.
    counterexample: str | None = None

    def __str__(self) -> str:
        text = f"warning[{self.kind.value}] {self.span}: {self.message}"
        if self.counterexample:
            text += f"\n  counterexample: {self.counterexample}"
        return text

    def to_dict(self) -> dict:
        """The warning as a JSON-ready structure (``--format json``)."""
        return {
            "kind": self.kind.value,
            "message": self.message,
            "file": self.span.filename,
            "line": self.span.start.line,
            "column": self.span.start.column,
            "end_line": self.span.end.line,
            "end_column": self.span.end.column,
            "counterexample": self.counterexample,
        }


@dataclass
class Diagnostics:
    """Accumulates warnings during a verification run."""

    warnings: list[Warning] = field(default_factory=list)

    def warn(
        self,
        kind: WarningKind,
        message: str,
        span: Span = NO_SPAN,
        counterexample: str | None = None,
    ) -> Warning:
        warning = Warning(kind, message, span, counterexample)
        self.warnings.append(warning)
        return warning

    def of_kind(self, kind: WarningKind) -> list[Warning]:
        return [w for w in self.warnings if w.kind == kind]

    def extend(self, other: "Diagnostics") -> None:
        self.warnings.extend(other.warnings)

    def __bool__(self) -> bool:
        return bool(self.warnings)

    def __str__(self) -> str:
        return "\n".join(str(w) for w in self.warnings)
