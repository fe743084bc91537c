"""The daemon's front end: it re-parses only the declarations an edit
touched, and what it serves is what a fresh compile gives.

Each request parses a file through the path's :class:`DeclarationMemo`
(``repro.lang.incremental``), so these tests check the daemon's reports
against ``api.verify(api.compile_program(text))`` over a scripted series
of edits, check every tree the daemon keeps against a fresh parse of its
chunk, and read the ``decls_parsed``/``decls_reused`` counts of each
file span's ``revalidate`` event.
"""

import os
from pathlib import Path

import pytest

from repro import api
from repro.errors import JMatchError
from repro.lang.parser import Parser, tokenize
from repro.verify.daemon import VerifyDaemon
from tests.verify.golden import golden_inputs
from tests.verify.test_daemon import (
    _normalize_report,
    _without_work,
    verify_result,
)

INPUTS = golden_inputs()
NAT = INPUTS["nat"]
#: nat with a method that draws warnings, whose spans an edit above it moves
WARNED = INPUTS["nat-swapped-arguments"]


@pytest.fixture(autouse=True)
def no_disk_cache(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", "")


def _edits() -> list[tuple[str, str]]:
    """(step, text) pairs: each step edits the text before it."""
    header = "// header\n" + WARNED
    method = header.replace(
        "case succ(_): return false;", "case succ(_): return true;", 1
    )
    appended = method + "\nstatic int extra(int k) {\n  return k;\n}\n"
    renamed = appended.replace("PSucc", "PNext")
    broken = renamed.replace("static Nat times(", "static Nat times((", 1)
    return [
        ("cold", WARNED),
        ("line inserted at the top", header),
        ("one method edited", method),
        ("method appended", appended),
        ("type renamed", renamed),
        ("parse error", broken),
        ("parse error fixed", renamed),
        ("revert", WARNED),
    ]


def _fresh(text: str, path: str) -> dict:
    """The file entry a fresh compile and verify of ``text`` gives."""
    try:
        unit = api.compile_program(text, filename=path)
    except JMatchError as exc:
        return {"path": path, "error": str(exc)}
    return {"path": path, "report": api.verify(unit).to_dict()}


def _revalidate(result: dict) -> dict:
    (event,) = [
        event
        for row in result["trace"]
        if row["kind"] == "file"
        for event in row["events"]
        if event["name"] == "revalidate"
    ]
    return event


@pytest.mark.parametrize("replay", [False, True])
def test_daemon_serves_what_a_fresh_compile_gives(tmp_path, replay):
    # Without replay every task runs, so the whole report must match;
    # with it, replayed tasks report no work, so solver_stats differ.
    compare = _normalize_report if not replay else _without_work
    path = str(tmp_path / "nat.jm")
    daemon = VerifyDaemon()
    for request_id, (step, text) in enumerate(_edits(), 1):
        Path(path).write_text(text)
        (served,) = verify_result(
            daemon, [path], request_id, use_cache=replay
        )["files"]
        expected = _fresh(text, path)
        assert "error" in expected or expected["report"]["warnings"], step
        if "error" in expected:
            assert served == expected, step
        else:
            assert compare(served["report"]) == compare(
                expected["report"]
            ), step


def test_kept_trees_equal_a_fresh_parse_of_their_chunk(tmp_path):
    daemon = VerifyDaemon()
    paths = []
    for name, source in INPUTS.items():
        path = tmp_path / f"{name}.jm"
        path.write_text(source)
        paths.append(str(path))
    result = verify_result(daemon, paths)
    assert result["status"] == 0
    assert len(daemon.declarations) == len(paths)
    for memo in daemon.declarations.values():
        assert memo.chunks
        for (line, text), chunk in memo.chunks.items():
            parser = Parser(tokenize(text, memo.filename, line), memo.filename)
            parser.type_names |= chunk.file_names
            fresh = parser.parse_program("").declarations
            assert repr(chunk.declarations) == repr(fresh), memo.filename


REWRITTEN = """static int small(int x) {
  if (x = 1 | 2) { return 1; }
  return 0;
}
static int same(int x) {
  return x;
}
"""


def test_a_rewritten_declaration_is_parsed_again(tmp_path):
    # Analysis distributes `x = 1 | 2` in place, so `small`'s tree is
    # never kept; `same`'s is.
    path = str(tmp_path / "rewritten.jm")
    Path(path).write_text(REWRITTEN)
    daemon = VerifyDaemon()
    cold = verify_result(daemon, [path], trace=True)
    assert _revalidate(cold)["decls_parsed"] == 2
    assert [
        chunk.declarations[0].name
        for chunk in daemon.declarations[path].chunks.values()
    ] == ["same"]
    warm = verify_result(daemon, [path], request_id=2, trace=True)
    event = _revalidate(warm)
    assert (event["decls_parsed"], event["decls_reused"]) == (1, 1)
    assert _without_work(warm["files"][0]["report"]) == _without_work(
        cold["files"][0]["report"]
    )


def test_a_one_method_edit_parses_one_declaration(tmp_path):
    path = str(tmp_path / "nat.jm")
    Path(path).write_text(NAT)
    daemon = VerifyDaemon()
    cold = _revalidate(verify_result(daemon, [path], trace=True))
    assert cold["decls_reused"] == 0
    total = cold["decls_parsed"]
    Path(path).write_text(
        NAT.replace("case succ(_): return false;", "case succ(_): return true;")
    )
    edited = verify_result(daemon, [path], request_id=2, trace=True)
    event = _revalidate(edited)
    assert (event["decls_parsed"], event["decls_reused"]) == (1, total - 1)
    assert edited["dep_misses"] == 1


def test_the_memo_follows_the_path_spelling(tmp_path, monkeypatch):
    # Spans carry the file name as the request spelled it, so another
    # spelling of the same file parses afresh.
    Path(tmp_path / "nat.jm").write_text(NAT)
    monkeypatch.chdir(tmp_path)
    daemon = VerifyDaemon()
    verify_result(daemon, ["nat.jm"])
    absolute = os.path.abspath("nat.jm")
    result = verify_result(daemon, [absolute], request_id=2, trace=True)
    assert _revalidate(result)["decls_reused"] == 0
    assert daemon.declarations[absolute].filename == absolute
    assert _without_work(result["files"][0]["report"]) == _without_work(
        _fresh(NAT, absolute)["report"]
    )
