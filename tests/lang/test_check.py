"""Tests for semantic analysis: normalisation and type inference."""

import pytest

from repro.errors import TypeCheckError
from repro.lang import analyze, ast, parse_program
from repro.lang.check import TypeEnv, infer_type
from repro.lang.parser import parse_formula
from repro.lang.symbols import ProgramTable

NAT_SOURCE = """
interface Nat {
  invariant(this = zero() | succ(_));
  constructor zero() returns();
  constructor succ(Nat n) returns(n);
}
class ZNat implements Nat {
  int val;
  private invariant(val >= 0);
  constructor zero() returns() ( val = 0 )
  constructor succ(Nat n) returns(n) ( val >= 1 && ZNat(val - 1) = n )
  private ZNat(int n) matches(n >= 0) returns(n) ( val = n && n >= 0 )
}
"""


def analyze_source(source):
    program = parse_program(source)
    return program, analyze(program)


def test_symbol_table_builds():
    program, table = analyze_source(NAT_SOURCE)
    assert "Nat" in table.types
    assert table.types["Nat"].is_interface
    assert table.types["ZNat"].is_class
    assert table.lookup_method("ZNat", "zero") is not None


def test_method_lookup_through_interface():
    _, table = analyze_source(NAT_SOURCE)
    # ZNat implements Nat; zero is found on ZNat itself first.
    method = table.lookup_method("ZNat", "zero")
    assert method.owner == "ZNat"
    # succ on the interface is found for the interface type.
    method = table.lookup_method("Nat", "succ")
    assert method.owner == "Nat"


def test_subtyping():
    _, table = analyze_source(NAT_SOURCE)
    assert table.is_subtype(ast.Type("ZNat"), ast.Type("Nat"))
    assert table.is_subtype(ast.Type("ZNat"), ast.Type("Object"))
    assert not table.is_subtype(ast.Type("Nat"), ast.Type("ZNat"))
    assert table.is_subtype(ast.INT_TYPE, ast.INT_TYPE)
    assert not table.is_subtype(ast.INT_TYPE, ast.Type("Object"))


def test_implementations_of_interface():
    _, table = analyze_source(NAT_SOURCE)
    impls = {info.name for info in table.implementations_of("Nat")}
    assert impls == {"ZNat"}


def test_invariant_visibility():
    _, table = analyze_source(NAT_SOURCE)
    client_view = table.invariants_visible_from("ZNat", viewer=None)
    owners = [owner for owner, _ in client_view]
    assert "Nat" in owners  # public interface invariant inherited
    assert all(inv.visibility == "public" for _, inv in client_view)
    own_view = table.invariants_visible_from("ZNat", viewer="ZNat")
    assert any(inv.visibility == "private" for _, inv in own_view)


def test_duplicate_class_rejected():
    with pytest.raises(TypeCheckError):
        analyze_source("class A {} class A {}")


def test_unknown_interface_rejected():
    with pytest.raises(TypeCheckError):
        analyze_source("class A implements Nothing {}")


def test_inheritance_cycle_rejected():
    with pytest.raises(TypeCheckError):
        analyze_source("class A extends B {} class B extends A {}")


# -- normalisation -----------------------------------------------------------


def normalized_body(source, class_name, method_name):
    program, table = analyze_source(source)
    return table.types[class_name].methods[method_name].decl.body


def test_value_disjunction_distributes():
    # x = 1 | 2 must become (x = 1) | (x = 2).
    source = """
    class C {
      boolean f(int x) ( x = 1 | 2 )
    }
    """
    body = normalized_body(source, "C", "f")
    assert isinstance(body, ast.PatOr)
    assert isinstance(body.left, ast.Binary) and body.left.op == "="
    assert isinstance(body.right, ast.Binary) and body.right.op == "="
    assert str(body.right.right) == "2"


def test_hash_disjunction_distributes():
    source = """
    class C {
      boolean f(int x, int y) ( int z = y-1 # y+1 )
    }
    """
    body = normalized_body(source, "C", "f")
    assert isinstance(body, ast.PatOr) and not body.disjoint
    assert body.right.op == "="


def test_formula_disjunction_not_distributed():
    # Figure 4's equals body: both arms are conjunctions, keep them.
    source = """
    interface Nat {
      constructor zero() returns();
      constructor succ(Nat n) returns(n);
    }
    class ZNat implements Nat {
      constructor zero() returns() ( true )
      constructor succ(Nat n) returns(n) ( true )
      constructor equals(Nat n)
        ( zero() && n.zero() | succ(Nat y) && n.succ(y) )
    }
    """
    body = normalized_body(source, "ZNat", "equals")
    assert isinstance(body, ast.PatOr)
    assert isinstance(body.left, ast.Binary) and body.left.op == "&&"
    assert isinstance(body.right, ast.Binary) and body.right.op == "&&"


def test_chained_tuple_disjunction_distributes():
    source = """
    class C {
      boolean f(int a, int b) ( (a, b) = (1, 2) | (3, 4) | (5, 6) )
    }
    """
    body = normalized_body(source, "C", "f")
    # (a,b)=(1,2) | ((a,b)=(3,4) | (a,b)=(5,6)): distribution nests on
    # the right, preserving the alternatives' order.
    assert isinstance(body, ast.PatOr)
    assert isinstance(body.left, ast.Binary) and body.left.op == "="
    inner = body.right
    assert isinstance(inner, ast.PatOr)
    assert isinstance(inner.left, ast.Binary) and inner.left.op == "="
    assert isinstance(inner.right, ast.Binary) and inner.right.op == "="
    assert isinstance(inner.right.right, ast.TupleExpr)


def test_constructor_predicate_disjunction_kept():
    # Tree invariant: leaf() | branch(_, _, _) stays formula-level.
    source = """
    interface Tree {
      invariant(leaf() | branch(Tree l, int v, Tree r));
      constructor leaf() returns();
      constructor branch(Tree l, int v, Tree r) returns(l, v, r);
    }
    """
    program, table = analyze_source(source)
    inv = table.types["Tree"].invariants[0]
    assert isinstance(inv.formula, ast.PatOr)
    assert isinstance(inv.formula.left, ast.Call)
    assert isinstance(inv.formula.right, ast.Call)


def test_interface_invariant_pattern_disjunction():
    program, table = analyze_source(NAT_SOURCE)
    inv = table.types["Nat"].invariants[0]
    # this = zero() | succ(_): the right operand (a constructor call)
    # stays at formula level -- it is a predicate on `this`.
    assert isinstance(inv.formula, ast.PatOr)


# -- type inference ---------------------------------------------------------


def test_infer_literals():
    _, table = analyze_source(NAT_SOURCE)
    env = TypeEnv(table)
    assert infer_type(parse_formula("42"), env) == ast.INT_TYPE
    assert infer_type(parse_formula("true"), env) == ast.BOOLEAN_TYPE
    assert infer_type(parse_formula('"s"'), env) == ast.STRING_TYPE
    assert infer_type(parse_formula("null"), env) == ast.NULL_TYPE


def test_infer_arithmetic_and_comparison():
    _, table = analyze_source(NAT_SOURCE)
    env = TypeEnv(table)
    env.bind("x", ast.INT_TYPE)
    assert infer_type(parse_formula("x + 1"), env) == ast.INT_TYPE
    assert infer_type(parse_formula("x <= 1"), env) == ast.BOOLEAN_TYPE


def test_infer_field_and_this():
    _, table = analyze_source(NAT_SOURCE)
    env = TypeEnv(table, owner="ZNat")
    assert infer_type(parse_formula("this"), env) == ast.Type("ZNat")
    assert infer_type(parse_formula("val"), env) == ast.INT_TYPE


def test_infer_calls():
    _, table = analyze_source(NAT_SOURCE)
    env = TypeEnv(table, owner="ZNat")
    env.bind("n", ast.Type("Nat"))
    # Receiver call on a constructor acts as a predicate.
    assert (
        infer_type(parse_formula("n.succ(y)", {"ZNat"}), env) == ast.BOOLEAN_TYPE
    )
    # Qualified creation yields the implementation type.
    assert infer_type(parse_formula("ZNat.succ(n)", {"ZNat"}), env) == ast.Type(
        "ZNat"
    )
    # Class constructor call yields the class type.
    assert infer_type(parse_formula("ZNat(0)", {"ZNat"}), env) == ast.Type("ZNat")


CANONICAL_SOURCE = """
interface Top {
  int size(int a, int b);
}
interface Mid extends Top {
  int size(int a);
}
class Leaf implements Mid {
  int size(int a) ( result = a )
}
static int twice(int a) ( result = a + a )
"""


def test_canonical_resolves_overriding_family_to_most_abstract():
    _, table = analyze_source(NAT_SOURCE)
    canonical = table.canonical(table.lookup_method("ZNat", "succ"))
    assert canonical is table.types["Nat"].methods["succ"]
    # The most abstract declaration is its own canonical one.
    assert table.canonical(canonical) is canonical


def test_canonical_skips_ancestor_with_different_arity():
    _, table = analyze_source(CANONICAL_SOURCE)
    leaf = table.types["Leaf"].methods["size"]
    # Top.size takes two parameters, so it is not part of the family;
    # the most abstract one-parameter declaration is Mid.size.
    assert table.canonical(leaf) is table.types["Mid"].methods["size"]
    top = table.types["Top"].methods["size"]
    assert table.canonical(top) is top


def test_canonical_returns_ownerless_function_unchanged():
    _, table = analyze_source(CANONICAL_SOURCE)
    function = table.lookup_function("twice")
    assert function.owner == ""
    assert table.canonical(function) is function
