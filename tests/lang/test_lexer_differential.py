"""The regex lexer against the scanner it replaced (``reference_lexer``).

Both must agree token for token (kind, text and span) or fail with the
same LexError (message and span), and a program parsed from either
token stream must be the same tree, spans included.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import combined_programs
from repro.errors import LexError
from repro.gen import GenConfig, generate_corpus
from repro.lang.lexer import tokenize
from repro.lang.parser import Parser

from . import reference_lexer

#: characters of JMatch sources, plus the ones the character classes
#: must get right: Unicode letters (``é``, titlecase ``ǅ``), decimal
#: digits outside ASCII (Arabic-Indic ``١``, mathematical ``𝟙``), digits
#: that are not decimal (``²``), numerics that are neither (``Ⅷ``,
#: ``½``), and characters no token starts with
ALPHABET = (
    "abzAZ019_$ \t\r\n"
    "=<>!+-*/%(){}[],;:.#|&\"\\"
    "éǅΩß١𝟙²Ⅷ½💩@~'\x0b\f"
)

#: whole lexemes, so that long keywords, comments, escapes and numbers
#: next to letters turn up often
FRAGMENTS = (
    "class", "switch", "case", "matches", "ensures", "where", "this",
    "_", "_a", "a_", "$x", "x$y", "12", "12ab", "12_", "١٢", "x²",
    "==", "!=", "<=", ">=", "&&", "||", " | ", " # ",
    "//", "// note\n", "/*", "*/", "/* a\n b */", "/*/",
    '"', '"ok"', '"a\\nb"', '"\\t\\"\\\\"', "\\q", "\\", "\r\n", "\n",
)

SOURCES = st.one_of(
    st.text(alphabet=ALPHABET, max_size=40),
    st.lists(
        st.one_of(st.sampled_from(FRAGMENTS), st.sampled_from(ALPHABET)),
        max_size=25,
    ).map("".join),
)


def lexed(tokenize_fn, source):
    """Tokens as (kind, text, span), or the error as (message, span)."""
    try:
        return [(t.kind, t.text, t.span) for t in tokenize_fn(source, "d.jm")]
    except LexError as exc:
        return ("LexError", exc.message, exc.span)


@settings(max_examples=400, deadline=None)
@given(SOURCES)
def test_lexer_matches_reference_scanner(source):
    assert lexed(tokenize, source) == lexed(reference_lexer.tokenize, source)


@pytest.mark.parametrize(
    "source",
    [
        "", "_", "_a", "$x", "12ab", "12²", "١٢٣", "١٢a", "1Ⅷ", "Ⅷ", "x²",
        "a\r\nb", "/* never", "/* x\n y", "/*/", '"abc', '"a\\qb"', '"a\\',
        '"a\nb"', '"a\\\nb"', "a ~ b", "\x0b", "a\n\n  /* c\n */ b\r\n",
    ],
)
def test_lexer_matches_reference_on_edge_cases(source):
    assert lexed(tokenize, source) == lexed(reference_lexer.tokenize, source)


def _programs() -> dict[str, str]:
    programs = dict(combined_programs())
    for generated in generate_corpus(GenConfig(seed=7, methods=120)).files:
        programs[generated.name] = generated.source
    return programs


PROGRAMS = _programs()


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_programs_parse_the_same_from_either_token_stream(name):
    source = PROGRAMS[name]
    ours = Parser(tokenize(source, name), name).parse_program("")
    theirs = Parser(reference_lexer.tokenize(source, name), name).parse_program("")
    assert repr(ours) == repr(theirs)
