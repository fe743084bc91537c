"""Parser tests, anchored on the paper's own code figures."""

import pytest

from repro.errors import ParseError
from repro.lang import ast
from repro.lang.parser import parse_formula, parse_program


# -- formulas ----------------------------------------------------------------


def test_literal():
    assert parse_formula("42").value == 42


def test_arithmetic_precedence():
    e = parse_formula("1 + 2 * 3")
    assert isinstance(e, ast.Binary) and e.op == "+"
    assert isinstance(e.right, ast.Binary) and e.right.op == "*"


def test_comparison():
    e = parse_formula("x - 2 = 1 + y")
    assert isinstance(e, ast.Binary) and e.op == "="
    assert isinstance(e.left, ast.Binary) and e.left.op == "-"


def test_conjunction_precedence():
    e = parse_formula("a = 1 && b = 2")
    assert isinstance(e, ast.Binary) and e.op == "&&"
    assert e.left.op == "=" and e.right.op == "="


def test_pattern_disjunction_between_and_or():
    # Figure 4: zero() && n.zero() | succ(Nat y) && n.succ(y)
    e = parse_formula("zero() && n.zero() | succ(Nat y) && n.succ(y)")
    assert isinstance(e, ast.PatOr) and e.disjoint
    assert isinstance(e.left, ast.Binary) and e.left.op == "&&"
    assert isinstance(e.right, ast.Binary) and e.right.op == "&&"


def test_hash_disjunction():
    e = parse_formula("int x = y-1 # y+1")
    assert isinstance(e, ast.PatOr) and not e.disjoint


def test_or_looser_than_disjoint_bar():
    e = parse_formula("a = 1 | a = 2 || b = 3")
    assert isinstance(e, ast.Binary) and e.op == "||"
    assert isinstance(e.left, ast.PatOr)


def test_declaration_pattern():
    e = parse_formula("Nat x")
    assert isinstance(e, ast.VarDecl)
    assert e.type.name == "Nat" and e.name == "x"


def test_typed_wildcard():
    e = parse_formula("PZero _")
    assert isinstance(e, ast.VarDecl) and e.name is None


def test_wildcard():
    assert isinstance(parse_formula("_"), ast.Wildcard)


def test_tuple_pattern():
    e = parse_formula("(zero(), Nat x)")
    assert isinstance(e, ast.TupleExpr) and len(e.items) == 2
    assert isinstance(e.items[0], ast.Call)


def test_parenthesized_is_not_tuple():
    e = parse_formula("(x + 1)")
    assert isinstance(e, ast.Binary)


def test_call_unqualified():
    e = parse_formula("succ(Nat k)")
    assert isinstance(e, ast.Call)
    assert e.receiver is None and e.qualifier is None
    assert isinstance(e.args[0], ast.VarDecl)


def test_call_with_receiver():
    e = parse_formula("n.succ(y)")
    assert isinstance(e, ast.Call)
    assert isinstance(e.receiver, ast.Var) and e.receiver.name == "n"


def test_call_qualified_by_class():
    e = parse_formula("ZNat.succ(n)", type_names={"ZNat"})
    assert isinstance(e, ast.Call)
    assert e.qualifier == "ZNat" and e.receiver is None


def test_field_access():
    e = parse_formula("n.value + 1")
    assert isinstance(e, ast.Binary)
    assert isinstance(e.left, ast.FieldAccess)


def test_chained_calls():
    e = parse_formula("y.greater(x)")
    assert isinstance(e, ast.Call) and e.name == "greater"


def test_as_pattern():
    e = parse_formula('Var("v") as Var va')
    assert isinstance(e, ast.PatAnd)
    assert isinstance(e.left, ast.Call)
    assert isinstance(e.right, ast.VarDecl)


def test_where_pattern_unparenthesized():
    e = parse_formula("x where y >= 0")
    assert isinstance(e, ast.Where)
    assert isinstance(e.condition, ast.Binary)


def test_notall():
    e = parse_formula("notall(result, n)")
    assert isinstance(e, ast.NotAll)
    assert e.names == ["result", "n"]


def test_this():
    e = parse_formula("this = succ(Nat y)")
    assert isinstance(e.left, ast.Var) and e.left.name == "this"


def test_negation():
    e = parse_formula("!(x = 1)")
    assert isinstance(e, ast.Not)


def test_unary_minus():
    e = parse_formula("-x + 1")
    assert isinstance(e, ast.Binary) and e.op == "+"
    assert isinstance(e.left, ast.Binary) and e.left.op == "-"


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse_formula("x = 1 )")


# -- declarations ------------------------------------------------------------

FIGURE1 = """
class Nat {
  private int value;
  private Nat(int n) returns(n)
    ( value = n )
  public static Nat zero() returns()
    ( result = Nat(0) )
  public static Nat succ(Nat n) returns(n)
    ( result = Nat(n.value + 1) )
}
static Nat plus(Nat m, Nat n) {
  switch (m, n) {
    case (zero(), Nat x):
    case (x, zero()):
      return x;
    case (succ(Nat k), _):
      return plus(k, Nat.succ(n));
  }
}
"""


def test_figure1_parses():
    program = parse_program(FIGURE1)
    nat = program.classes()[0]
    assert nat.name == "Nat"
    assert [f.name for f in nat.fields] == ["value"]
    assert [m.name for m in nat.methods] == ["Nat", "zero", "succ"]
    assert nat.methods[0].kind == "class-constructor"
    assert nat.methods[1].static
    plus = program.functions()[0]
    assert plus.name == "plus"
    switch = plus.body.statements[0]
    assert isinstance(switch, ast.SwitchStmt)
    assert isinstance(switch.subject, ast.TupleExpr)
    # First two case labels share one body (fallthrough).
    assert len(switch.cases) == 2
    assert len(switch.cases[0].patterns) == 2
    assert len(switch.cases[1].patterns) == 1


FIGURE2_3 = """
interface Nat {
  invariant(this = zero() | succ(_));
  constructor zero() returns();
  constructor succ(Nat n) returns(n);
}
class ZNat implements Nat {
  int val;
  private invariant(val >= 0);
  private ZNat(int n) matches(n >= 0) returns(n)
    ( val = n && n >= 0 )
  constructor zero() returns()
    ( val = 0 )
  constructor succ(Nat n) returns(n)
    ( val >= 1 && ZNat(val - 1) = n )
}
class PZero implements Nat {
  constructor zero() returns() ( true )
  constructor succ(Nat n) returns(n) ( false )
}
class PSucc implements Nat {
  Nat pred;
  constructor zero() returns() ( false )
  constructor succ(Nat n) returns(n) ( pred = n )
}
"""


def test_figures_2_and_3_parse():
    program = parse_program(FIGURE2_3)
    iface = program.interfaces()[0]
    assert iface.name == "Nat"
    assert len(iface.invariants) == 1
    assert [m.name for m in iface.methods] == ["zero", "succ"]
    assert all(m.kind == "constructor" for m in iface.methods)
    assert all(m.body is None for m in iface.methods)
    znat = program.classes()[0]
    assert znat.interfaces == ["Nat"]
    ctor = znat.methods[0]
    assert ctor.kind == "class-constructor"
    assert ctor.matches is not None
    assert znat.invariants[0].visibility == "private"


def test_equality_constructor_kind():
    program = parse_program(
        """
        class PSucc {
          Nat pred;
          constructor equals(Nat n) ( n.succ(pred) )
        }
        """
    )
    equals = program.classes()[0].methods[0]
    assert equals.kind == "equality"


def test_matches_ensures_shorthand():
    program = parse_program(
        """
        interface List {
          constructor snoc(List hd, Object tl)
            matches ensures(cons(_, _)) returns(hd, tl);
        }
        """
    )
    snoc = program.interfaces()[0].methods[0]
    assert snoc.matches is not None and snoc.ensures is not None
    assert str(snoc.matches) == str(snoc.ensures)


def test_iterates_mode():
    program = parse_program(
        """
        interface Collection {
          boolean contains(Object x) iterates(x);
        }
        """
    )
    contains = program.interfaces()[0].methods[0]
    assert contains.modes[0].iterative
    assert contains.modes[0].names == ["x"]


def test_cond_statement():
    program = parse_program(
        """
        static int f(int x) {
          cond {
            (x > 0) { return 1; }
            (x = 0) { return 0; }
            else return -1;
          }
        }
        """
    )
    cond = program.functions()[0].body.statements[0]
    assert isinstance(cond, ast.CondStmt)
    assert len(cond.arms) == 2
    assert cond.else_body is not None


def test_foreach_statement():
    program = parse_program(
        """
        static int f(Nat n) {
          foreach (n.greater(Nat x)) {
            g(x);
          }
          return 0;
        }
        """
    )
    loop = program.functions()[0].body.statements[0]
    assert isinstance(loop, ast.ForeachStmt)


def test_let_statement():
    program = parse_program(
        """
        static int f(List l) {
          let l = reverse(List r1);
          return 0;
        }
        """
    )
    let = program.functions()[0].body.statements[0]
    assert isinstance(let, ast.LetStmt)


def test_default_case():
    program = parse_program(
        """
        static int f(int x) {
          switch (x) {
            case 0: return 1;
            default: return 2;
          }
        }
        """
    )
    switch = program.functions()[0].body.statements[0]
    assert switch.default is not None


def test_local_decl_and_assignment():
    program = parse_program(
        """
        static int f() {
          Nat n;
          int x = 2;
          x = 3;
          return x;
        }
        """
    )
    stmts = program.functions()[0].body.statements
    assert isinstance(stmts[0], ast.LocalDecl)
    assert isinstance(stmts[1], ast.ExprStmt)
    assert isinstance(stmts[2], ast.ExprStmt)


def test_interface_extends():
    program = parse_program("interface A {} interface B extends A {}")
    assert program.interfaces()[1].extends == ["A"]


def test_class_extends_and_implements():
    program = parse_program(
        "interface I {} class A implements I {} class B extends A implements I {}"
    )
    b = program.classes()[1]
    assert b.superclass == "A"
    assert b.interfaces == ["I"]


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as exc_info:
        parse_program("class { }")
    assert "expected" in str(exc_info.value)


@pytest.mark.parametrize(
    "source, found",
    [
        ("class A { int x }", "expected '(', found '}'"),
        ("class A {", "expected 'identifier', found end of input"),
        ("class A { void f() { x = ; } }", "expected an expression, found ';'"),
        ("class A { A(int x) ( x = 1 ) }}", "expected a declaration, found '}'"),
        ("static int f() { switch (x) { foo } }",
         "expected 'case' or 'default', found 'foo'"),
        ("static int f() { switch (x) { case 1 x } }", "expected ':', found 'x'"),
        ("static int f() return", "expected a method body, found 'return'"),
    ],
)
def test_parse_errors_name_the_token_not_its_repr(source, found):
    with pytest.raises(ParseError) as exc_info:
        parse_program(source, "bad.jm")
    message = str(exc_info.value)
    assert "Token(" not in message
    assert message.endswith(found)


def test_trailing_input_error_names_the_token():
    with pytest.raises(ParseError) as exc_info:
        parse_formula("x = 1 )")
    assert str(exc_info.value) == "<input>:1:7: unexpected trailing input ')'"
