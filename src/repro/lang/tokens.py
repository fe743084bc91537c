"""Token definitions for the JMatch 2.0 subset."""

from __future__ import annotations

import enum

from ..errors import Position, Span


class TokenKind(enum.Enum):
    IDENT = "identifier"
    INT_LIT = "int literal"
    STRING_LIT = "string literal"
    KEYWORD = "keyword"
    OPERATOR = "operator"
    EOF = "end of input"


KEYWORDS = frozenset(
    {
        "abstract",
        "as",
        "boolean",
        "case",
        "class",
        "cond",
        "constructor",
        "default",
        "else",
        "ensures",
        "extends",
        "false",
        "foreach",
        "if",
        "implements",
        "int",
        "interface",
        "invariant",
        "iterates",
        "let",
        "matches",
        "new",
        "notall",
        "null",
        "private",
        "protected",
        "public",
        "return",
        "returns",
        "static",
        "switch",
        "this",
        "true",
        "where",
        "while",
    }
)

# Multi-character operators first so the lexer applies maximal munch.
OPERATORS = (
    "&&",
    "||",
    "!=",
    "<=",
    ">=",
    "==",
    "=",
    "<",
    ">",
    "!",
    "+",
    "-",
    "*",
    "/",
    "%",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    ",",
    ";",
    ":",
    ".",
    "#",
    "|",
    "_",
)


class Token:
    """One token: its kind, its text, and where it sits on its line.

    A token never spans lines, so its position is three integers; the
    :class:`~repro.errors.Span` is built on first access (most tokens'
    spans are never read) and then kept.
    """

    __slots__ = ("kind", "text", "line", "column", "end_column", "filename", "_span")

    def __init__(
        self,
        kind: TokenKind,
        text: str,
        line: int,
        column: int,
        end_column: int,
        filename: str,
    ):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column
        self.end_column = end_column
        self.filename = filename
        self._span: Span | None = None

    @property
    def span(self) -> Span:
        span = self._span
        if span is None:
            span = self._span = Span(
                Position(self.line, self.column),
                Position(self.line, self.end_column),
                self.filename,
            )
        return span

    @property
    def is_eof(self) -> bool:
        return self.kind is TokenKind.EOF

    def matches(self, kind: TokenKind, text: str | None = None) -> bool:
        return self.kind is kind and (text is None or self.text == text)

    def __repr__(self) -> str:
        return f"Token({self.kind.name}, {self.text!r}, {self.span})"

    def __str__(self) -> str:
        if self.kind is TokenKind.EOF:
            return "<eof>"
        return self.text
