"""``ast.children``: the one place that knows an expression's shape.

Every walker over expressions is built on :func:`repro.lang.ast.children`,
so a node kind it skipped would be skipped by all of them at once.
These tests build every ``Expr`` subclass with fresh sub-expressions in
each ``Expr``-valued field and check that ``children`` returns exactly
those.
"""

import dataclasses
import typing

import pytest

from repro.lang import ast

EXPR_CLASSES = sorted(
    (
        value
        for value in vars(ast).values()
        if isinstance(value, type)
        and issubclass(value, ast.Expr)
        and value is not ast.Expr
    ),
    key=lambda cls: cls.__name__,
)

#: a value for each field type that holds no expression
PLAIN_VALUES = {
    str: "n",
    bool: True,
    ast.Type: ast.INT_TYPE,
    typing.Optional[str]: "n",
    typing.Optional[ast.Type]: ast.INT_TYPE,
    list[str]: ["a", "b"],
    typing.Union[int, bool, str, None]: 1,
}


def _build(cls):
    """An instance of ``cls`` and the expressions it holds, in field
    order, list fields flattened."""
    hints = typing.get_type_hints(cls)
    values, held = {}, []
    for fld in dataclasses.fields(cls):
        if fld.name == "span":
            continue
        hint = hints[fld.name]
        if hint in (ast.Expr, typing.Optional[ast.Expr]):
            values[fld.name] = ast.Lit(len(held))
            held.append(values[fld.name])
        elif hint == list[ast.Expr]:
            values[fld.name] = [ast.Lit(len(held)), ast.Lit(len(held) + 1)]
            held.extend(values[fld.name])
        else:
            assert hint in PLAIN_VALUES, f"{cls.__name__}.{fld.name}: {hint}"
            values[fld.name] = PLAIN_VALUES[hint]
    return cls(**values), held


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_expression_kind_is_covered():
    # no node kind is declared outside ``ast``, so none escapes the list
    assert set(_subclasses(ast.Expr)) == set(EXPR_CLASSES)
    names = {cls.__name__ for cls in EXPR_CLASSES}
    assert {"Binary", "Call", "FieldAccess", "NotAll", "Where"} <= names


@pytest.mark.parametrize("cls", EXPR_CLASSES, ids=lambda cls: cls.__name__)
def test_children_are_exactly_the_expression_fields(cls):
    node, held = _build(cls)
    found = ast.children(node)
    assert len(found) == len(held)
    assert {id(child) for child in found} == {id(child) for child in held}


@pytest.mark.parametrize("cls", EXPR_CLASSES, ids=lambda cls: cls.__name__)
def test_children_come_in_source_order(cls):
    node, held = _build(cls)
    if cls is ast.Call:
        # `r.m(a, b)`: the arguments come before the receiver
        held = held[1:] + held[:1]
    assert list(ast.children(node)) == held


def test_a_call_without_receiver_has_only_its_arguments():
    arg = ast.Var("x")
    assert ast.children(ast.Call(None, "Nat", "succ", [arg])) == (arg,)


def test_walk_visits_parents_first_in_children_order():
    inner = ast.PatOr(ast.Var("p"), ast.Var("q"), disjoint=True)
    outer = ast.Binary("=", ast.FieldAccess(inner, "pred"), ast.Var("n"))
    assert [str(node) for node in ast.walk(outer)] == [
        "((p | q).pred = n)", "(p | q).pred", "(p | q)", "p", "q", "n",
    ]
