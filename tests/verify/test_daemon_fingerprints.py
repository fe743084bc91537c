"""The daemon's task fingerprints against a fresh compile's.

The dependency index keeps what it renders of a kept declaration with
the declaration's parsed chunk (``repro.lang.incremental.Chunk.renders``)
and reuses it on the next request.  These tests drive an in-process
:class:`VerifyDaemon` over the golden inputs, scripted edits and
hypothesis-drawn edit sequences, record every fingerprint the daemon
used, and require each to equal ``fingerprint_tasks`` on a fresh
``api.compile_program`` of the same text.  They also read which tasks
re-ran, and bound what the chunks keep.
"""

import os
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import api
from repro.errors import JMatchError
from repro.verify.daemon import VerifyDaemon, fingerprint_tasks, server
from repro.verify.verifier import iter_tasks
from tests.verify.golden import golden_inputs
from tests.verify.test_daemon import _without_work, request_line, verify_result

INPUTS = golden_inputs()


@pytest.fixture(autouse=True)
def no_disk_cache(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", "")


@pytest.fixture
def used(monkeypatch):
    """The fingerprints the daemon computes, one dict per compiled file."""
    calls = []

    def recording(table, tasks=None, chunks=()):
        prints = fingerprint_tasks(table, tasks, chunks)
        calls.append(prints)
        return prints

    monkeypatch.setattr(server, "fingerprint_tasks", recording)
    return calls


def fresh(text: str, path: str) -> dict | None:
    """``fingerprint_tasks`` of a fresh compile, or None on an error."""
    try:
        unit = api.compile_program(text, filename=path)
    except JMatchError:
        return None
    return fingerprint_tasks(unit.table)


def served(daemon, used, texts: dict[str, str], request_id: int) -> dict:
    """Write ``texts``, verify them through ``daemon``, and check every
    fingerprint it used against a fresh compile's."""
    for path, text in texts.items():
        Path(path).write_text(text)
    used.clear()
    result = verify_result(daemon, list(texts), request_id, trace=True)
    compiled = [entry["path"] for entry in result["files"] if "report" in entry]
    assert len(used) == len(compiled)
    for path, prints in zip(compiled, used):
        assert prints == fresh(texts[path], path), path
    for entry in result["files"]:
        if "error" in entry:
            assert fresh(texts[entry["path"]], entry["path"]) is None
    return result


def reran(result: dict) -> set[str]:
    """The labels of the tasks a traced request ran (``dep-miss``)."""
    return {
        row["name"]
        for row in result["trace"]
        if row["kind"] == "task"
        and any(event["name"] == "dep-miss" for event in row["events"])
    }


def revalidate(result: dict) -> list[dict]:
    return [
        event
        for row in result["trace"]
        if row["kind"] == "file"
        for event in row["events"]
        if event["name"] == "revalidate"
    ]


# -- the golden inputs ------------------------------------------------------


def _body_edit(source: str) -> str:
    """One more space after the last ``return`` in the second half of
    ``source`` (or after its last ``(``): a one-declaration edit."""
    lines = source.splitlines(keepends=True)
    for i in range(len(lines) - 1, len(lines) // 2 - 1, -1):
        for token in ("return ", "( "):
            if token in lines[i]:
                lines[i] = lines[i].replace(token, token + " ", 1)
                return "".join(lines)
    return source + "\n"


def test_golden_inputs_reuse_renderings_that_equal_fresh_ones(tmp_path, used):
    daemon = VerifyDaemon()
    texts = {str(tmp_path / f"{name}.jm"): text for name, text in INPUTS.items()}
    cold = served(daemon, used, texts, 1)
    assert sum(event["renders_reused"] for event in revalidate(cold)) == 0
    edited = {path: _body_edit(text) for path, text in texts.items()}
    assert all(edited[path] != texts[path] for path in texts)
    warm = served(daemon, used, edited, 2)
    tasks = sum(len(prints) for prints in used)
    assert 0 < sum(event["renders_reused"] for event in revalidate(warm)) < tasks
    reverted = served(daemon, used, texts, 3)
    assert reverted["dep_misses"] == 0


# -- scripted edits ---------------------------------------------------------

#: two hierarchies, a class outside them, a callee with a spec, its
#: caller, and tasks that depend on none of them
HIERARCHY = """interface Nat {
  invariant(this = zero() | succ(_));
  constructor zero() matches(notall(result)) returns();
  constructor succ(Nat n) matches(notall(result)) returns(n);
}
class PZero implements Nat {
  constructor zero() returns()
    ( true )
  constructor succ(Nat n) returns(n)
    ( false )
}
class PSucc implements Nat {
  Nat pred;
  constructor zero() returns()
    ( false )
  constructor succ(Nat n) returns(n)
    ( pred = n )
}
interface Shape {
  invariant(this = round(_));
  constructor round(int r) matches(notall(result)) returns(r);
}
class PTwo {
  int two()
    ( result = 2 )
}
static int pick(int k) matches(k >= 0) {
  return k;
}
static int user(int k) {
  return pick(k);
}
static int g(Nat n) {
  switch (n) {
    case zero(): return 0;
    case succ(Nat p): return 1;
  }
}
static int area(Shape s) {
  switch (s) {
    case round(int r): return r;
  }
}
static int double(int x) {
  return x * 2;
}
"""

#: ``PTwo`` sealed into ``Shape``'s hierarchy: the type names stay, so
#: ``Shape``'s chunk is kept and only its implementation list changes.
#: (``Shape`` had none, so only that list leads its tasks to any class.)
SEALED = HIERARCHY.replace("class PTwo {", "class PTwo implements Shape {")
#: a stronger callee spec
NARROWED = HIERARCHY.replace("matches(k >= 0)", "matches(k >= 1)")

#: ``small``'s `|` reads as a comparison only while ``g`` returns an
#: int, so analysis rewrites ``small`` after an edit to ``g`` alone
REWRITTEN_LATER = """static boolean g(int x) {
  return x > 0;
}
static int small(int x) {
  if (x = 1 | g(x)) { return 1; }
  return 0;
}
"""
REWRITTEN_NOW = REWRITTEN_LATER.replace(
    "static boolean g(int x) {\n  return x > 0;",
    "static int g(int x) {\n  return x + 0;",
)


def changed(before: str, after: str, path: str) -> set[str]:
    """The labels whose fresh fingerprint differs between two texts."""
    old, new = fresh(before, path), fresh(after, path)
    return {task.label for task in new if old.get(task) != new[task]}


@pytest.mark.parametrize(
    "texts",
    [
        [HIERARCHY, SEALED, HIERARCHY],
        [HIERARCHY, NARROWED, HIERARCHY],
        [REWRITTEN_LATER, REWRITTEN_NOW, REWRITTEN_LATER],
    ],
    ids=["sealed", "narrowed", "rewritten"],
)
def test_scripted_edits_reuse_renderings_that_equal_fresh_ones(
    tmp_path, used, texts
):
    path = str(tmp_path / "edited.jm")
    daemon = VerifyDaemon()
    for request_id, text in enumerate(texts, 1):
        served(daemon, used, {path: text}, request_id)
    assert revalidate(served(daemon, used, {path: texts[-1]}, 9))[0][
        "renders_reused"
    ] == len(used[0])


@pytest.mark.parametrize(
    "after, expected",
    [
        # every class reaches every concrete class through ``Object``'s
        # implementations, so PTwo's new header changes Nat's tasks too
        (SEALED, {"invariant of Nat", "Nat.zero", "Nat.succ", "PZero.zero",
                  "PZero.succ", "PSucc.zero", "PSucc.succ", "PTwo.two", "g",
                  "invariant of Shape", "Shape.round", "area"}),
        (NARROWED, {"pick", "user"}),
    ],
    ids=["sealed-into-a-kept-hierarchy", "callee-matches-changed"],
)
def test_an_edit_reruns_exactly_the_tasks_whose_fresh_fingerprint_changed(
    tmp_path, after, expected
):
    path = str(tmp_path / "edited.jm")
    Path(path).write_text(HIERARCHY)
    daemon = VerifyDaemon()
    verify_result(daemon, [path])
    Path(path).write_text(after)
    result = verify_result(daemon, [path], 2, trace=True)
    assert changed(HIERARCHY, after, path) == expected
    assert reran(result) == expected
    assert result["dep_misses"] == len(expected)
    (event,) = revalidate(result)
    # every root outside the edited chunk came from the memo
    assert event["renders_reused"] > 0
    local = api.verify(api.compile_program(after, filename=path)).to_dict()
    assert _without_work(result["files"][0]["report"]) == _without_work(local)


# -- what the chunks keep ---------------------------------------------------


def _root_keys(memo) -> set[tuple]:
    return {
        key
        for chunk in memo.chunks.values()
        for key in chunk.renders
        if key[0] == "root"
    }


def test_renderings_live_and_die_with_their_chunk(tmp_path):
    path = str(tmp_path / "edited.jm")
    other = str(tmp_path / "other.jm")
    Path(path).write_text(HIERARCHY)
    Path(other).write_text(REWRITTEN_LATER)
    daemon = VerifyDaemon()
    verify_result(daemon, [path, other])
    Path(path).write_text(NARROWED)
    verify_result(daemon, [path, other], 2)
    # one rendering set per live declaration: each kept chunk holds the
    # roots of exactly its own declarations' tasks
    memo = daemon.declarations[path]
    table = api.compile_program(NARROWED, filename=path).table
    tasks = list(iter_tasks(table))
    assert len(memo.chunks) == len(table.program.declarations)
    assert _root_keys(memo) == {
        ("root", task.kind, task.label) for task in tasks
    }
    for chunk in memo.chunks.values():
        (decl,) = chunk.declarations
        owned = {
            task.label for task in tasks
            if (task.type_name or task.method_name) == decl.name
        }
        assert {key[2] for key in chunk.renders if key[0] == "root"} == owned
        assert all(
            key[1] in (decl.name, None) for key in chunk.renders
            if key[0] != "root"
        )
    # invalidating a path drops its renderings with its declarations
    daemon.handle_line(request_line("invalidate", 3, paths=[path]))
    assert path not in daemon.declarations
    assert _root_keys(daemon.declarations[other])
    # so does a verify of a path that no longer exists
    os.unlink(other)
    result = verify_result(daemon, [other], 4)
    assert "error" in result["files"][0]
    assert daemon.declarations == {}


# -- hypothesis-drawn edits -------------------------------------------------

#: small inputs with hierarchies, calls and specs
SEQUENCE_INPUTS = ("nat", "lists", "cps", "nat-swapped-arguments")
SEQUENCE_BASES = dict(
    {name: INPUTS[name] for name in SEQUENCE_INPUTS}, hierarchy=HIERARCHY
)
#: declaration-level starts a new declaration may go before
_STARTS = ("class ", "interface ", "static ")


@st.composite
def edit(draw, source):
    lines = source.splitlines(keepends=True)
    at = draw(st.integers(0, len(lines) - 1))
    kind = draw(
        st.sampled_from(
            ("insert", "delete", "duplicate", "body", "seal", "implements",
             "same-name")
        )
    )
    interfaces = re.findall(r"^interface (\w+)", source, re.M)
    classes = [i for i, line in enumerate(lines) if line.startswith("class ")]
    if kind == "insert":
        lines.insert(at, draw(st.sampled_from(("\n", "// a comment\n"))))
    elif kind == "delete":
        del lines[at]
    elif kind == "duplicate":
        lines.insert(at, lines[at])
    elif kind == "body":
        bodies = [i for i, line in enumerate(lines) if "return " in line]
        if bodies:
            i = draw(st.sampled_from(bodies))
            lines[i] = lines[i].replace("return ", "return  ", 1)
    elif kind == "seal" and interfaces:
        starts = [i for i, line in enumerate(lines) if line.startswith(_STARTS)]
        interface = draw(st.sampled_from(interfaces))
        number = draw(st.integers(0, 9))
        lines.insert(
            draw(st.sampled_from(starts)),
            f"class Sealed{number} implements {interface} {{ }}\n",
        )
    elif kind == "implements" and interfaces and classes:
        # an existing class joins or leaves a hierarchy: the file's type
        # names stay, so every other chunk is kept
        i = draw(st.sampled_from(classes))
        name = lines[i].split()[1]
        if " implements " in lines[i]:
            lines[i] = f"class {name} {{\n"
        else:
            interface = draw(st.sampled_from(interfaces))
            lines[i] = f"class {name} implements {interface} {{\n"
    elif kind == "same-name" and classes:
        names = re.findall(r"^\s+\w+ (\w+)\(", source, re.M) + re.findall(
            r"^static \w+ (\w+)\(", source, re.M
        )
        if names:
            name = draw(st.sampled_from(names))
            i = draw(st.sampled_from(classes))
            lines.insert(i + 1, f"  int {name}(int z)\n    ( result = z )\n")
    return "".join(lines)


@st.composite
def edit_sequences(draw):
    name = draw(st.sampled_from(sorted(SEQUENCE_BASES)))
    sources = [SEQUENCE_BASES[name]]
    for _ in range(draw(st.integers(1, 3))):
        sources.append(draw(edit(sources[-1])))
    if draw(st.booleans()):
        sources.append(sources[0])  # the revert
    return sources


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(sources=edit_sequences())
def test_edit_sequences_reuse_renderings_that_equal_fresh_ones(used, sources):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "edited.jm")
        daemon = VerifyDaemon()
        for request_id, text in enumerate(sources, 1):
            served(daemon, used, {path: text}, request_id)
