"""Chunked parsing (``repro.lang.incremental``) against the whole-file parser.

After any sequence of edits, a :class:`DeclarationMemo` must give what
``parse_program`` gives on the same text: the same tree (``repr``, spans
included) and ``text_digest``, or the same error message and span.
Between edits the memo goes through analysis as the daemon drives it
(``analyze``, then ``settle``), so a tree the normaliser rewrote is
never handed out again.  The mutant tests break the memo's key or its
pruning from outside and check that these comparisons notice.
"""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import JMatchError
from repro.lang import analyze, parse_program
from repro.lang.incremental import Chunk, DeclarationMemo, split_chunks
from tests.verify.golden import golden_inputs

INPUTS = golden_inputs()
FILENAME = "edited.jm"


def whole(source):
    """What the whole-file parser makes of ``source``."""
    try:
        program = parse_program(source, FILENAME)
    except JMatchError as exc:
        return ("error", type(exc).__name__, exc.message, exc.span)
    return ("program", repr(program), program.text_digest)


def step(memo, source):
    """One daemon compile of ``source`` through ``memo``: the parse
    outcome, as :func:`whole` renders it, before analysis touches it."""
    try:
        program = memo.parse(source)
    except JMatchError as exc:
        return ("error", type(exc).__name__, exc.message, exc.span)
    outcome = ("program", repr(program), program.text_digest)
    try:
        table = analyze(program)
    except JMatchError:
        memo.chunks = {}
    else:
        memo.settle(table.rewritten)
    return outcome


def mismatches(sources, memo=None):
    """The indices of ``sources`` whose chunked parse, each after the
    ones before it, differs from the whole-file parse."""
    memo = memo or DeclarationMemo(FILENAME)
    return [
        index
        for index, source in enumerate(sources)
        if step(memo, source) != whole(source)
    ]


# -- the split --------------------------------------------------------------


def test_chunks_join_to_the_source_and_start_on_their_lines():
    for source in INPUTS.values():
        chunks = split_chunks(source)
        assert "".join(text for _, text in chunks) == source
        line = 1
        for first, text in chunks:
            assert first == line
            line += text.count("\n")


def test_split_skips_braces_in_strings_and_comments_and_mid_line():
    source = (
        'static int a(int x) { return "}"; }\n'
        "// }\n"
        "static int b(int x) {\n  /* }\n} */ return x;\n}\n"
        "static int c(int x) { return x; } static int d(int x) { return x; }\n"
        "static int e(int x) { return x; } // trailing\n"
    )
    assert [first for first, _ in split_chunks(source)] == [1, 2, 7, 8]
    assert mismatches([source]) == []


# -- the differential check -------------------------------------------------


def test_golden_inputs_parse_the_same_cold_warm_and_reverted():
    for name, source in INPUTS.items():
        memo = DeclarationMemo(FILENAME)
        assert mismatches([source, source], memo) == [], name
        # An unchanged file reuses every declaration analysis left alone.
        if len(memo.chunks) == len(split_chunks(source)):
            assert memo.parsed == 0 and memo.reused > 0, name
        edited = "// header\n" + source
        assert mismatches([edited, source], memo) == [], name


#: lines an edit inserts: trivia, braces inside strings and comments,
#: new declarations, and lex and parse errors
LINES = (
    "",
    "// }",
    "/* { */",
    "/* a } b",
    "   } */",
    'static int s(int x) { return "}{"; }',
    "static int extra(int x) { return x; }",
    "interface Extra { }",
    "class Extra2 { int v; }",
    "}",
    "{",
    "class",
    "static int",
    "@",
    '"abc',
    "/* never closed",
)


@st.composite
def edit(draw, source):
    lines = source.splitlines(keepends=True)
    at = draw(st.integers(0, len(lines)))
    kind = draw(
        st.sampled_from(
            ("insert", "delete", "join", "rename", "add-type", "body")
        )
    )
    if kind == "insert":
        lines.insert(at, draw(st.sampled_from(LINES)) + "\n")
    elif kind == "delete" and lines:
        del lines[min(at, len(lines) - 1)]
    elif kind == "join":
        # a top-level `}` followed by code on its line
        closers = [i for i, line in enumerate(lines[:-1]) if line == "}\n"]
        if closers:
            i = draw(st.sampled_from(closers))
            lines[i] = "} "
    elif kind == "rename":
        names = re.findall(r"\b(?:class|interface) (\w+)", source)
        if names:
            name = draw(st.sampled_from(names))
            if draw(st.booleans()):  # everywhere, or the declaration only
                return re.sub(rf"\b{name}\b", name + "Renamed", source)
            return re.sub(
                rf"\b(class|interface) {name}\b", rf"\1 {name}Renamed", source
            )
    elif kind == "add-type":
        # a type named like a call receiver turns `x.f()` into a static call
        names = re.findall(r"\b([a-z]\w*)\.\w+\(", source) or ["x"]
        lines.insert(at, f"class {draw(st.sampled_from(names))} {{ }}\n")
    else:
        bodies = [i for i, line in enumerate(lines) if "return" in line]
        if bodies:
            i = draw(st.sampled_from(bodies))
            lines[i] = lines[i].replace("return", "return 1 + ", 1)
    return "".join(lines)


@st.composite
def edit_sequences(draw):
    name = draw(st.sampled_from(sorted(INPUTS)))
    sources = [INPUTS[name]]
    for _ in range(draw(st.integers(1, 3))):
        sources.append(draw(edit(sources[-1])))
    if draw(st.booleans()):
        sources.append(INPUTS[name])  # the revert
    return sources


@settings(max_examples=100, deadline=None)
@given(edit_sequences())
def test_edited_inputs_parse_the_same_as_the_whole_file(sources):
    assert mismatches(sources) == []


# -- the mutants the check must catch ---------------------------------------

NAT = INPUTS["nat"]


class _LineBlind(dict):
    """Chunks looked up by text alone: a key without the first line."""

    def get(self, key, default=None):
        for (_, text), chunk in self.items():
            if text == key[1]:
                return chunk
        return default


class _AnyNames(frozenset):
    """File type names equal to any others: a key without the type names."""

    def __eq__(self, other):
        return True

    __hash__ = frozenset.__hash__


def test_a_key_without_the_first_line_is_caught():
    sources = [NAT, "// header\n" + NAT]
    assert mismatches(sources) == []
    memo = DeclarationMemo(FILENAME)
    step(memo, NAT)
    memo.chunks = _LineBlind(memo.chunks)
    assert step(memo, sources[1]) != whole(sources[1])


def test_a_key_without_the_type_names_is_caught():
    # `ZNat.succ(n)` in `plus` is a static call only while ZNat is a type.
    renamed = NAT.replace("ZNat", "ZNut").replace("ZNut.succ(", "ZNat.succ(")
    assert mismatches([NAT, renamed]) == []
    memo = DeclarationMemo(FILENAME)
    step(memo, NAT)
    memo.chunks = {
        key: chunk._replace(file_names=_AnyNames(chunk.file_names))
        for key, chunk in memo.chunks.items()
    }
    assert step(memo, renamed) != whole(renamed)


def test_reusing_a_rewritten_declaration_is_caught(monkeypatch):
    cps = INPUTS["cps"]
    memo = DeclarationMemo(FILENAME)
    step(memo, cps)
    assert analyze(parse_program(cps, FILENAME)).rewritten
    # the rewritten declarations' chunks are parsed again
    assert step(memo, cps) == whole(cps)
    assert memo.parsed == len(analyze(parse_program(cps, FILENAME)).rewritten)
    monkeypatch.setattr(DeclarationMemo, "settle", lambda self, rewritten: None)
    memo = DeclarationMemo(FILENAME)
    step(memo, cps)
    assert step(memo, cps) != whole(cps)


def test_an_error_keeps_the_pristine_chunks():
    memo = DeclarationMemo(FILENAME)
    step(memo, NAT)
    broken = NAT.replace("static Nat times", "static Nat times(", 1)
    assert step(memo, broken) == whole(broken)
    assert whole(broken)[0] == "error"
    assert step(memo, NAT) == whole(NAT)
    # only the repaired declaration's chunk was parsed again
    assert memo.parsed == 1


def test_chunk_records_its_parse():
    memo = DeclarationMemo(FILENAME)
    memo.parse(NAT)
    assert all(isinstance(chunk, Chunk) for chunk in memo.chunks.values())
    names = frozenset().union(*(c.names for c in memo.chunks.values()))
    assert names == {"Nat", "ZNat", "PZero", "PSucc"}
    assert all(c.file_names == names for c in memo.chunks.values())
