"""The dependency index's AST walker against ``repr``, its closure
against the old fixpoint, and the query-cache salt.

A task's own declarations enter its fingerprint with their spans, as
``repro.verify.daemon.index._dump`` renders them.  The dataclass
``repr`` of those declarations, spans and file names included, is the
reference: over the 50 golden inputs the walker must tell apart
exactly the task texts that ``repr`` tells apart.  The closure the
reference hashes is ``reference_closure``'s fixpoint, and the union of
the index's per-name ``reach`` must equal it on every task.
"""

from __future__ import annotations

import functools
import hashlib

import pytest

from repro import api
from repro.verify.daemon.index import (
    _IMPLICIT_METHODS,
    _dump,
    _table_index,
    fingerprint_tasks,
)
from repro.verify.translate import EncodeContext
from repro.verify.verifier import iter_tasks
from tests.verify.golden import golden_inputs
from tests.verify.reference_closure import reference_closure

INPUTS = golden_inputs()


def reference_fingerprint(table, task) -> str | None:
    """The task's fingerprint with its declarations hashed by ``repr``."""
    index = _table_index(table)
    roots = index._task_roots(task)
    if roots is None:
        return None
    seeds = set(_IMPLICIT_METHODS)
    if task.type_name:
        seeds.add(task.type_name)
    for root in roots:
        _dump(root, [], seeds)
    digest = hashlib.sha256(f"{task.kind}:{task.label}".encode("utf-8"))
    for root in roots:
        digest.update(repr(root).encode("utf-8"))
    types, methods = reference_closure(index, seeds)
    for name in sorted(types):
        digest.update(index.type_component(name)[0])
    for name in sorted(methods):
        digest.update(index.method_component(name)[0])
    return digest.hexdigest()


@functools.cache
def prints(name: str, variant: str = "", filename: str = "input.jm"):
    """``(walker, reference)`` fingerprints of one input, by task."""
    source = INPUTS[name]
    if variant == "top":
        source = "\n" + source
    elif variant in ("middle", "indent"):
        # a blank line before, or one space into the first body line of,
        # a declaration in the second half
        lines = source.splitlines(keepends=True)
        at = next(
            i for i in range(len(lines) // 2, len(lines))
            if lines[i].startswith(("static ", "class ", "interface "))
        )
        if variant == "middle":
            lines.insert(at, "\n")
        else:
            lines[at + 1] = " " + lines[at + 1]
        source = "".join(lines)
    table = api.compile_program(source, filename=filename).table
    tasks = list(iter_tasks(table))
    walker = fingerprint_tasks(table, tasks)
    reference = {task: reference_fingerprint(table, task) for task in tasks}
    return walker, reference


def changed(before: dict, after: dict) -> set:
    return {task for task in before if before[task] != after[task]}


@pytest.mark.parametrize("name", list(INPUTS))
def test_compiling_twice_gives_equal_fingerprints(name):
    walker, _ = prints(name)
    again = fingerprint_tasks(
        api.compile_program(INPUTS[name], filename="input.jm").table
    )
    assert walker == again
    assert all(fingerprint is not None for fingerprint in walker.values())


@pytest.mark.parametrize("name", list(INPUTS))
def test_another_filename_changes_every_fingerprint(name):
    walker, reference = prints(name)
    moved_walker, moved_reference = prints(name, filename="other.jm")
    assert changed(reference, moved_reference) == set(reference)
    assert changed(walker, moved_walker) == set(walker)


@pytest.mark.parametrize("where", ["top", "middle", "indent"])
@pytest.mark.parametrize("name", list(INPUTS))
def test_shifted_text_changes_what_repr_changes(name, where):
    walker, reference = prints(name)
    shifted_walker, shifted_reference = prints(name, where)
    expected = changed(reference, shifted_reference)
    assert changed(walker, shifted_walker) == expected
    if where != "indent":
        # (an indented line may hold a field, which no task's text has)
        assert expected, "a shifted declaration must change its fingerprint"
    if where == "middle":
        assert expected != set(reference)


@pytest.mark.parametrize("name", list(INPUTS))
def test_reach_unions_to_the_reference_closure(name):
    table = api.compile_program(INPUTS[name], filename="input.jm").table
    index = _table_index(table)
    method_names = set(table.functions).union(
        *(info.methods for info in table.types.values())
    )
    for task in iter_tasks(table):
        seeds = set(_IMPLICIT_METHODS)
        if task.type_name:
            seeds.add(task.type_name)
        for root in index._task_roots(task):
            _dump(root, [], seeds)
        reached = set().union(*map(index.reach, seeds))
        types, methods = reference_closure(index, seeds)
        assert reached & set(table.types) == types, task.label
        assert reached & method_names == methods, task.label


def salt(source: str, filename: str, viewer: str | None = None):
    table = api.compile_program(source, filename=filename).table
    return EncodeContext(table, viewer).plugin.signature


def test_query_cache_salt_follows_filename_and_text():
    source = INPUTS["nat"]
    assert salt(source, "a.jm") == salt(source, "a.jm")
    edited = source.replace("return ", "return  ", 1)
    assert edited != source
    assert salt(edited, "a.jm") != salt(source, "a.jm")
    assert salt(source, "b.jm") != salt(source, "a.jm")
    assert salt(source, "a.jm", "ZNat") != salt(source, "a.jm")
