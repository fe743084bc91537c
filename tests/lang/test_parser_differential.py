"""The precedence-table parser against the descent it replaced
(``reference_parser``).

Both must build the same tree (``repr``, spans included) or raise the
same error (type, message and span): on whole programs, and on
formulas drawn from every operator, ``as``, ``where``, ``!``, unary
``-``, parentheses, tuples, calls, ``.f`` selections and declaration
patterns.  The drawn cases use a derandomized profile, so a run draws
the same formulas every time.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import combined_programs
from repro.errors import JMatchError
from repro.lang.parser import parse_formula, parse_program
from tests.verify.golden import golden_inputs

from . import reference_parser

#: type names the formulas may use: ``Nat x`` is a declaration pattern
#: and ``Nat.succ(x)`` a static-qualified call
TYPE_NAMES = {"Nat"}

OPERATORS = (
    "||", "|", "#", "&&", "=", "!=", "<", "<=", ">", ">=",
    "as", "where", "+", "-", "*", "/", "%",
)
PREFIXES = ("!", "-")
ATOMS = (
    "a", "b", "x", "1", "0", "true", "null", "this", "_",
    "Nat x", "int _", "zero()", "succ(y)", "n.f", "n.succ(y)",
    "Nat.succ(x)", "(a, b)", "notall(a, b)",
)

#: every token a formula may hold, for unstructured strings
TOKENS = OPERATORS + PREFIXES + ATOMS + ("(", ")", ",", ".", "f", "Nat")


def _formula(children):
    """One formula level above ``children``: a binary operation, a
    prefix, a group, a tuple, a call or a selection."""
    return st.one_of(
        st.tuples(children, st.sampled_from(OPERATORS), children).map(
            " ".join
        ),
        st.tuples(st.sampled_from(PREFIXES), children).map(" ".join),
        children.map("( {} )".format),
        st.lists(children, min_size=2, max_size=3).map(
            lambda items: "( " + " , ".join(items) + " )"
        ),
        st.lists(children, max_size=2).map(
            lambda args: "succ ( " + " , ".join(args) + " )"
        ),
        children.map("( {} ) . f".format),
        children.map("( {} ) . succ ( )".format),
    )


def _chain(operands, operators):
    """``operands`` joined by ``operators``, one fewer of them."""
    words = [operands[0]]
    for operator, operand in zip(operators, operands[1:]):
        words += [operator, operand]
    return " ".join(words)


#: operator chains without brackets, ``!`` and ``-`` before operands:
#: where the binding levels and the ceilings decide the tree
CHAINS = st.lists(
    st.tuples(
        st.sampled_from(("", "", "!", "-", "! !")).map(
            lambda prefix: prefix + " " if prefix else ""
        ),
        st.sampled_from(ATOMS),
    ).map("".join),
    min_size=1,
    max_size=6,
).flatmap(
    lambda operands: st.lists(
        st.sampled_from(OPERATORS),
        min_size=len(operands) - 1,
        max_size=len(operands) - 1,
    ).map(lambda operators: _chain(operands, operators))
)

#: well-bracketed formulas with chains inside, most of them grammatical
STRUCTURED = st.recursive(
    st.one_of(st.sampled_from(ATOMS), CHAINS), _formula, max_leaves=6
)

#: anything: token soups, and structured formulas with a token dropped
#: or inserted somewhere
SOUPS = st.one_of(
    st.lists(st.sampled_from(TOKENS), max_size=12).map(" ".join),
    st.tuples(
        STRUCTURED, st.integers(0, 40), st.sampled_from(TOKENS + ("",))
    ).map(lambda t: _splice(*t)),
)


def _splice(source: str, index: int, token: str) -> str:
    words = source.split(" ")
    index %= len(words) + 1
    if token:
        return " ".join(words[:index] + [token] + words[index:])
    return " ".join(words[:index] + words[index + 1:])


def outcome(parse, *args):
    """What ``parse(*args)`` makes: its tree or its error."""
    try:
        return ("tree", repr(parse(*args)))
    except JMatchError as exc:
        return ("error", type(exc).__name__, exc.message, exc.span)


def outcomes(source):
    """What the table parser and the descent make of a formula."""
    return tuple(
        outcome(parse, source, TYPE_NAMES)
        for parse in (parse_formula, reference_parser.parse_formula)
    )


def agree(source):
    ours, theirs = outcomes(source)
    assert ours == theirs


@settings(max_examples=500, deadline=None, derandomize=True)
@given(CHAINS)
def test_operator_chains_parse_as_the_descent_parses_them(source):
    agree(source)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(STRUCTURED)
def test_structured_formulas_parse_as_the_descent_parses_them(source):
    agree(source)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(SOUPS)
def test_token_soups_parse_or_fail_as_the_descent_does(source):
    agree(source)


def _short_chains():
    """Every chain of up to three operators, with ``!``, ``-`` or
    nothing before each operand (before the first only, for three)."""
    for count in range(4):
        operands = count + 1 if count < 3 else 1
        for operators in itertools.product(OPERATORS, repeat=count):
            for prefixes in itertools.product(("", "! ", "- "), repeat=operands):
                words = [prefix + "a" for prefix in prefixes]
                words += ["b", "c", "d"][: count + 1 - operands]
                yield _chain(words, operators)


def test_every_short_chain_parses_as_the_descent_parses_it():
    mismatched = []
    for source in _short_chains():
        ours, theirs = outcomes(source)
        if ours != theirs:
            mismatched.append((source, ours, theirs))
    assert not mismatched, mismatched[:5]


@pytest.mark.parametrize(
    "source",
    [
        # comparisons do not chain, not even under a looser operator
        "a < b < c", "a = b != c", "x | a != b != c", "x && a = b = c",
        # `!` binds looser than a comparison and cannot be its operand
        "! a > b", "! a > b != c", "! a = b && c", "a = ! b", "! ! a | b",
        # `where` takes a parenthesised formula or one comparison
        "x where a = b = c", "x where (a) = b", "x where (a) + 1",
        "x where a where b as y", "a = x where b = c = d",
        "x where (a, b)", "x as y as z = w", "a + b where c",
        # arithmetic associates left; unary minus binds tightest
        "a - b - c * d % 2 / e", "- a * - b", "- - a . f",
        "(a | b) . f = n", "Nat x = succ (Nat y) where y > 0",
        "zero() && n.zero() | succ(Nat y) && n.succ(y)",
        "", "a b", "( a", "a )", "a ||", "|| a",
    ],
)
def test_edge_formulas_parse_as_the_descent_parses_them(source):
    agree(source)


def _programs() -> dict[str, str]:
    programs = golden_inputs()
    for name, source in combined_programs().items():
        programs[f"corpus-{name}"] = source
    return programs


PROGRAMS = _programs()


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_programs_parse_as_the_descent_parses_them(name):
    source = PROGRAMS[name]
    assert outcome(parse_program, source, name) == outcome(
        reference_parser.parse_program, source, name
    )
