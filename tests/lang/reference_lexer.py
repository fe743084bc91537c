"""The character-at-a-time scanner the regex lexer replaced, kept as an oracle.

``repro.lang.lexer`` must produce exactly the tokens (kind, text and
span) and the errors (message and span) that this scanner produces;
``test_lexer_differential.py`` checks that on generated inputs and on
whole programs.  Its tokens are frozen dataclasses carrying a built
:class:`~repro.errors.Span`, which the parser reads like the lazily
spanned :class:`~repro.lang.tokens.Token`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import LexError, Position, Span
from repro.lang.tokens import KEYWORDS, OPERATORS, TokenKind


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    span: Span

    @property
    def is_eof(self) -> bool:
        return self.kind == TokenKind.EOF

    def matches(self, kind: TokenKind, text: str | None = None) -> bool:
        return self.kind == kind and (text is None or self.text == text)

    def __str__(self) -> str:
        if self.kind == TokenKind.EOF:
            return "<eof>"
        return self.text


def _ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_" or ch == "$"


def _ident_part(ch: str) -> bool:
    return ch.isalnum() or ch == "_" or ch == "$"


class Lexer:
    def __init__(self, source: str, filename: str = "<input>"):
        self.source = source
        self.filename = filename
        self.pos = 0
        self.line = 1
        self.column = 1

    def _position(self) -> Position:
        return Position(self.line, self.column)

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self.pos < len(self.source) and self.source[self.pos] == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
            self.pos += 1

    def _peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        return self.source[index] if index < len(self.source) else ""

    def _skip_trivia(self) -> None:
        while self.pos < len(self.source):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self.pos < len(self.source) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                start = self._position()
                self._advance(2)
                while self.pos < len(self.source) and not (
                    self._peek() == "*" and self._peek(1) == "/"
                ):
                    self._advance()
                if self.pos >= len(self.source):
                    raise LexError(
                        "unterminated block comment",
                        Span(start, self._position(), self.filename),
                    )
                self._advance(2)
            else:
                break

    def tokens(self) -> list[Token]:
        """Scan the entire source into a token list ending with EOF."""
        out: list[Token] = []
        while True:
            self._skip_trivia()
            start = self._position()
            if self.pos >= len(self.source):
                out.append(
                    Token(TokenKind.EOF, "", Span(start, start, self.filename))
                )
                return out
            ch = self._peek()
            if ch.isdigit():
                out.append(self._scan_number(start))
            elif ch == '"':
                out.append(self._scan_string(start))
            elif _ident_start(ch):
                out.append(self._scan_word(start))
            else:
                out.append(self._scan_operator(start))

    def _scan_number(self, start: Position) -> Token:
        begin = self.pos
        while self._peek().isdigit():
            self._advance()
        if _ident_start(self._peek()):
            raise LexError(
                f"malformed number near {self.source[begin:self.pos + 1]!r}",
                Span(start, self._position(), self.filename),
            )
        text = self.source[begin : self.pos]
        return Token(TokenKind.INT_LIT, text, Span(start, self._position(), self.filename))

    def _scan_string(self, start: Position) -> Token:
        self._advance()  # opening quote
        chars: list[str] = []
        while True:
            ch = self._peek()
            if not ch or ch == "\n":
                raise LexError(
                    "unterminated string literal",
                    Span(start, self._position(), self.filename),
                )
            if ch == '"':
                self._advance()
                break
            if ch == "\\":
                self._advance()
                escape = self._peek()
                mapping = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}
                if escape not in mapping:
                    raise LexError(
                        f"unknown escape \\{escape}",
                        Span(start, self._position(), self.filename),
                    )
                chars.append(mapping[escape])
                self._advance()
            else:
                chars.append(ch)
                self._advance()
        return Token(
            TokenKind.STRING_LIT,
            "".join(chars),
            Span(start, self._position(), self.filename),
        )

    def _scan_word(self, start: Position) -> Token:
        begin = self.pos
        while _ident_part(self._peek()):
            self._advance()
        text = self.source[begin : self.pos]
        span = Span(start, self._position(), self.filename)
        if text == "_":
            return Token(TokenKind.OPERATOR, "_", span)
        kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
        return Token(kind, text, span)

    def _scan_operator(self, start: Position) -> Token:
        for op in OPERATORS:
            if self.source.startswith(op, self.pos):
                self._advance(len(op))
                # `==` is accepted as a synonym for JMatch's `=` equality.
                text = "=" if op == "==" else op
                return Token(
                    TokenKind.OPERATOR,
                    text,
                    Span(start, self._position(), self.filename),
                )
        raise LexError(
            f"unexpected character {self._peek()!r}",
            Span(start, self._position(), self.filename),
        )


def tokenize(source: str, filename: str = "<input>") -> list[Token]:
    """Convenience wrapper: source text to token list."""
    return Lexer(source, filename).tokens()
