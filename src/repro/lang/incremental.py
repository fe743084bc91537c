"""Incremental parsing: parse each top-level declaration once while its
text stays the same.

A source splits into *chunks* at top-level declarations
(:func:`split_chunks`): a chunk ends after a ``}`` that closes brace
depth 0 when nothing but trivia follows it on its line, so every chunk
starts at column 1 of some line.  Every class and interface, and every
function with a block body, ends with such a ``}``; a declaration that
does not simply shares a chunk with the next one.  The split scan skips
string literals and comments as the lexer does.

A chunk's declarations are a function of three things: its text, its
first line (every span in it) and the file's set of type names (the
parser's ``class``/``interface`` pre-scan, which decides whether
``Foo.bar(...)`` is a static call).  :class:`DeclarationMemo` keeps one
file's chunks under that key and parses only the chunks whose key
changed, each through :func:`~repro.lang.parser.tokenize` and
:meth:`~repro.lang.parser.Parser.parse_program`.  A lex or parse error
in any chunk sends the whole file through
:func:`~repro.lang.parser.parse_program`, so an error's text and span
are the whole file's.

Analysis rewrites some trees in place
(:class:`~repro.lang.check.Normalizer`), so :meth:`DeclarationMemo.settle`
drops the chunks whose declarations it rewrote: every kept tree equals
a fresh parse of its chunk, and a chunk can keep the dependency index's
renderings of its trees (:attr:`Chunk.renders`) for as long as it lives.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from ..errors import JMatchError
from . import ast, parser

# A string literal, a line comment, a block comment (unterminated: the
# rest of the source), or a brace; everything else is skipped.
_SCAN = re.compile(
    r"""
      "(?:[^"\\\n]|\\[nt"\\])*"
    | //[^\n]*
    | /\*.*?(?:\*/|\Z)
    | (?P<open>\{)
    | (?P<close>\})
    """,
    re.VERBOSE | re.DOTALL,
)
#: what may follow a chunk's last ``}`` on its line
_REST_OF_LINE = re.compile(r"[ \t\r]*(?://[^\n]*)?(?:\n|\Z)")


def split_chunks(source: str) -> list[tuple[int, str]]:
    """``source`` as ``(first line, text)`` chunks whose texts join to it."""
    chunks = []
    depth = start = 0
    line = 1
    for match in _SCAN.finditer(source):
        brace = match.lastgroup
        if brace == "open":
            depth += 1
        elif brace == "close":
            depth -= 1
            if depth == 0:
                rest = _REST_OF_LINE.match(source, match.end())
                if rest is not None:
                    text = source[start : rest.end()]
                    chunks.append((line, text))
                    line += text.count("\n")
                    start = rest.end()
    if start < len(source):
        chunks.append((line, source[start:]))
    return chunks


class Chunk(NamedTuple):
    """One chunk's parse, and what was rendered of it since."""

    #: the type names the chunk declares
    names: frozenset[str]
    #: the file's type names it was parsed with
    file_names: frozenset[str]
    declarations: list
    #: the dependency index's renderings of ``declarations``, filled
    #: only while the chunk is kept after :meth:`DeclarationMemo.settle`
    renders: dict


class DeclarationMemo:
    """The chunks of one file's last compile, and what the last
    :meth:`parse` did: ``parsed`` declarations it parsed and ``reused``
    ones it took from the memo."""

    def __init__(self, filename: str):
        self.filename = filename
        #: (first line, text) -> Chunk
        self.chunks: dict[tuple[int, str], Chunk] = {}
        #: the chunk key of each declaration of the last program
        self._owners: list[tuple[int, str]] = []
        self.parsed = self.reused = 0

    def parse(self, source: str) -> ast.Program:
        """The program ``parser.parse_program(source, filename)`` gives,
        or its error; the memo then holds this source's chunks."""
        filename = self.filename
        keys = split_chunks(source)
        kept = self.chunks
        fresh: dict[tuple[int, str], Chunk] = {}
        try:
            tokens = {}
            names = []
            for key in keys:
                chunk = kept.get(key)
                if chunk is None:
                    line, text = key
                    tokens[key] = parser.tokenize(text, filename, line)
                    names.append(
                        frozenset(parser.declared_type_names(tokens[key]))
                    )
                else:
                    names.append(chunk.names)
            file_names = frozenset().union(*names)
            declarations: list = []
            owners: list[tuple[int, str]] = []
            parsed = reused = 0
            for key, chunk_names in zip(keys, names):
                chunk = kept.get(key)
                if chunk is not None and chunk.file_names == file_names:
                    reused += len(chunk.declarations)
                else:
                    line, text = key
                    chunk_tokens = tokens.get(key)
                    if chunk_tokens is None:
                        chunk_tokens = parser.tokenize(text, filename, line)
                    chunk_parser = parser.Parser(chunk_tokens, filename)
                    chunk_parser.type_names |= file_names
                    chunk = Chunk(
                        chunk_names,
                        file_names,
                        chunk_parser.parse_program("").declarations,
                        {},
                    )
                    parsed += len(chunk.declarations)
                fresh[key] = chunk
                declarations += chunk.declarations
                owners += [key] * len(chunk.declarations)
        except JMatchError:
            # Keep every pristine tree this source still has, and let
            # the whole file name the error.
            self.chunks = {key: kept[key] for key in keys if key in kept}
            self.chunks |= fresh
            program = parser.parse_program(source, filename)
            # The whole file parsed where a chunk did not: keep nothing.
            self.chunks = {}
            self._owners = [None] * len(program.declarations)
            self.parsed, self.reused = len(program.declarations), 0
            return program
        self.chunks = fresh
        self._owners = owners
        self.parsed, self.reused = parsed, reused
        return ast.Program(declarations, parser.text_digest(source, filename))

    def settle(self, rewritten: set[int]) -> None:
        """Drop the chunks of the last program's declarations that
        analysis rewrote (``ProgramTable.rewritten``)."""
        for index in rewritten:
            self.chunks.pop(self._owners[index], None)
