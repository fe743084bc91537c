"""The per-task fixpoint the per-name reach replaced, kept as an oracle.

``repro.verify.daemon.index`` computes a task's dependency closure as
the union of each seed's memoised ``reach``.  :func:`reference_closure`
is the fixpoint the index ran once per task before: every name
resolves as a type and as a method name, and their components surface
new names until the set is stable.  ``test_task_fingerprints.py``
requires the two to agree on every task of the golden inputs.
"""

from __future__ import annotations


def reference_closure(index, seeds: set[str]) -> tuple[set[str], set[str]]:
    """The type and method names ``seeds`` reach in ``index``'s table."""
    table = index.table
    method_names = set(table.functions)
    for info in table.types.values():
        method_names.update(info.methods)
    types_done: set[str] = set()
    methods_done: set[str] = set()
    pending = set(seeds)
    while pending:
        name = pending.pop()
        if name in table.types and name not in types_done:
            types_done.add(name)
            pending.update(
                n for n in index.type_component(name)[1]
                if n not in types_done
            )
        if name not in methods_done and name in method_names:
            methods_done.add(name)
            pending.update(
                n
                for n in index.method_component(name)[1]
                if n not in types_done
            )
    return types_done, methods_done
