"""Lexer for the JMatch 2.0 subset.

One compiled master regex finds every token and every stretch of
trivia (whitespace and comments) in a single left-to-right pass; the
scan keeps only the current line number and the offset where that line
starts, so each token records ``(line, column, end column)`` as plain
integers and builds its :class:`~repro.errors.Span` only when someone
asks for it (:class:`~repro.lang.tokens.Token`).

A bare ``_`` is its own token (the wildcard pattern); identifiers may
still contain underscores elsewhere (``create$foo``-style names from
the translation of Section 6.1 use ``$``, which is allowed in
identifier tails like in Java).  Characters are classified as Python's
``str`` predicates do: an identifier starts with a letter
(``isalpha``), ``_`` or ``$`` and continues with ``isalnum`` characters,
``_`` or ``$``; a number is a run of ``isdigit`` characters.
"""

from __future__ import annotations

import re

from ..errors import LexError, Position, Span
from .tokens import KEYWORDS, OPERATORS, Token, TokenKind

_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}

# Alternatives are tried in order; the first that matches at the
# current offset wins.  ``word`` is the maximal run of identifier-tail
# characters (``\w`` is exactly ``isalnum`` plus ``_``); whether the run
# is an identifier, a number or an error is decided on its first
# character.  The ``bad_*`` alternatives catch an opening delimiter
# whose well-formed alternative failed, and ``other`` any character no
# token starts with.
_MASTER = re.compile(
    r"""
      (?P<space>[ \t\r\n]+)
    | (?P<word>[\w$]+)
    | (?P<op>{ops})
    | (?P<line_comment>//[^\n]*)
    | (?P<block_comment>/\*.*?\*/)
    | (?P<string>"(?:[^"\\\n]|\\[nt"\\])*")
    | (?P<bad_block_comment>/\*)
    | (?P<bad_string>")
    | (?P<other>.)
    """.format(
        # Comments must win over the `/` operator.
        ops="|".join(
            "/(?![/*])" if op == "/" else re.escape(op)
            for op in OPERATORS
            if op != "_"
        )
    ),
    re.VERBOSE | re.DOTALL,
)
_ESCAPE = re.compile(r"\\(.)")


class Lexer:
    def __init__(self, source: str, filename: str = "<input>", line: int = 1):
        self.source = source
        self.filename = filename
        #: the line number of the source's first line
        self.line = line

    def tokens(self) -> list[Token]:
        """Scan the entire source into a token list ending with EOF."""
        source = self.source
        filename = self.filename
        out: list[Token] = []
        append = out.append
        line = self.line
        line_start = 0  # offset of the first character of ``line``
        for match in _MASTER.finditer(source):
            group = match.lastgroup
            text = match.group()
            if group == "space" or group == "block_comment":
                newlines = text.count("\n")
                if newlines:
                    line += newlines
                    line_start = match.start() + text.rindex("\n") + 1
                continue
            start = match.start()
            column = start - line_start + 1
            if group == "word":
                first = text[0]
                if first.isalpha() or first == "_" or first == "$":
                    if text in KEYWORDS:
                        kind = TokenKind.KEYWORD
                    elif text == "_":
                        kind = TokenKind.OPERATOR
                    else:
                        kind = TokenKind.IDENT
                elif text.isdigit():
                    kind = TokenKind.INT_LIT
                else:
                    raise self._word_error(text, line, column)
                append(Token(kind, text, line, column, column + len(text), filename))
            elif group == "op":
                # `==` is accepted as a synonym for JMatch's `=` equality.
                append(
                    Token(
                        TokenKind.OPERATOR,
                        "=" if text == "==" else text,
                        line, column, column + len(text), filename,
                    )
                )
            elif group == "string":
                body = text[1:-1]
                if "\\" in body:
                    body = _ESCAPE.sub(lambda m: _ESCAPES[m.group(1)], body)
                append(
                    Token(
                        TokenKind.STRING_LIT, body,
                        line, column, column + len(text), filename,
                    )
                )
            elif group == "line_comment":
                continue
            elif group == "bad_block_comment":
                raise LexError(
                    "unterminated block comment",
                    Span(
                        Position(line, column),
                        self._end_position(line, line_start),
                        filename,
                    ),
                )
            elif group == "bad_string":
                raise self._bad_string(start, line, column)
            else:
                raise self._error(f"unexpected character {text!r}", line, column)
        column = len(source) - line_start + 1
        append(Token(TokenKind.EOF, "", line, column, column, filename))
        return out

    # -- errors (cold paths) ---------------------------------------------

    def _error(self, message: str, line: int, column: int, width: int = 0):
        """A LexError from ``column`` to ``width`` characters on."""
        return LexError(
            message,
            Span(
                Position(line, column),
                Position(line, column + width),
                self.filename,
            ),
        )

    def _end_position(self, line: int, line_start: int) -> Position:
        rest = self.source[line_start:]
        newlines = rest.count("\n")
        if newlines:
            return Position(line + newlines, len(rest) - rest.rindex("\n"))
        return Position(line, len(rest) + 1)

    def _word_error(self, word: str, line: int, column: int) -> LexError:
        """The error in a word that is neither an identifier nor a number.

        A word starting with a digit is a number up to its first
        non-digit.  A letter, ``_`` or ``$`` there makes the number
        malformed; any other character (one that may continue an
        identifier but starts no token, e.g. ``Ⅷ``) is unexpected.
        """
        digits = 0
        while word[digits].isdigit():
            digits += 1
        after = word[digits]
        if digits and (after.isalpha() or after == "_" or after == "$"):
            return self._error(
                f"malformed number near {word[:digits + 1]!r}",
                line, column, digits,
            )
        return self._error(
            f"unexpected character {after!r}", line, column + digits
        )

    def _bad_string(self, start: int, line: int, column: int) -> LexError:
        """The first defect of the string literal opening at ``start``."""
        source = self.source
        index = start + 1
        while True:
            ch = source[index] if index < len(source) else ""
            if not ch or ch == "\n":
                return self._error(
                    "unterminated string literal", line, column, index - start
                )
            if ch == "\\":
                index += 1
                escape = source[index] if index < len(source) else ""
                if escape not in _ESCAPES:
                    return self._error(
                        f"unknown escape \\{escape}", line, column, index - start
                    )
            index += 1


def tokenize(
    source: str, filename: str = "<input>", line: int = 1
) -> list[Token]:
    """Convenience wrapper: source text to token list.

    ``line`` numbers the source's first line, so a piece of a file that
    starts at column 1 of that line lexes to the tokens the whole file
    has there."""
    return Lexer(source, filename, line).tokens()
