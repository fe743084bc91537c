"""Exhaustiveness/redundancy tests reproducing Section 4-5 scenarios."""

import pytest

from repro import api
from repro.errors import WarningKind

NAT_PRELUDE = """
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


def verify(source):
    unit = api.compile_program(source)
    return api.verify(unit)


def kinds(report):
    return [w.kind for w in report.diagnostics.warnings]


class TestFigure6:
    """The paper's redundant switch statement (Figure 6)."""

    SOURCE = NAT_PRELUDE + """
    static int observe(Nat n) {
      switch (n) {
        case succ(Nat p): return 1;
        case succ(succ(Nat pp)): return 2;
        case zero(): return 0;
      }
    }
    """

    def test_second_arm_redundant(self):
        report = verify(self.SOURCE)
        redundant = report.of_kind(WarningKind.REDUNDANT_ARM)
        assert len(redundant) == 1
        assert "arm 2" in redundant[0].message

    def test_no_false_redundancy_on_zero_arm(self):
        # "the exposed information should let the compiler know that zero
        # and succ are indeed disjoint and conclude that the third case
        # and the first two are not redundant."
        report = verify(self.SOURCE)
        for w in report.of_kind(WarningKind.REDUNDANT_ARM):
            assert "arm 3" not in w.message

    def test_exhaustive_no_warning(self):
        report = verify(self.SOURCE)
        assert not report.of_kind(WarningKind.NONEXHAUSTIVE)


class TestMissingCase:
    def test_missing_zero_case_warns(self):
        source = NAT_PRELUDE + """
        static int f(Nat n) {
          switch (n) {
            case succ(Nat p): return 1;
          }
        }
        """
        report = verify(source)
        warnings = report.of_kind(WarningKind.NONEXHAUSTIVE)
        assert len(warnings) == 1
        assert warnings[0].counterexample is not None
        assert "zero" in warnings[0].counterexample

    def test_missing_succ_case_warns(self):
        source = NAT_PRELUDE + """
        static int f(Nat n) {
          switch (n) {
            case zero(): return 0;
          }
        }
        """
        report = verify(source)
        assert report.of_kind(WarningKind.NONEXHAUSTIVE)

    def test_full_match_is_exhaustive(self):
        source = NAT_PRELUDE + """
        static int f(Nat n) {
          switch (n) {
            case zero(): return 0;
            case succ(Nat p): return 1;
          }
        }
        """
        report = verify(source)
        assert not report.of_kind(WarningKind.NONEXHAUSTIVE)
        assert not report.of_kind(WarningKind.REDUNDANT_ARM)

    def test_default_makes_exhaustive(self):
        source = NAT_PRELUDE + """
        static int f(Nat n) {
          switch (n) {
            case zero(): return 0;
            default: return 1;
          }
        }
        """
        report = verify(source)
        assert not report.of_kind(WarningKind.NONEXHAUSTIVE)


class TestClassPatternSwitch:
    """Section 4.1's second example: matching on implementation classes."""

    INVARIANT_PRELUDE = NAT_PRELUDE.replace(
        "invariant(this = zero() | succ(_));",
        "invariant(this = zero() | succ(_));"
        "\n  invariant(this = ZNat _ | PZero _ | PSucc _);",
    )

    def test_class_cases_exhaustive(self):
        source = self.INVARIANT_PRELUDE + """
        static int f(Nat n) {
          switch (n) {
            case ZNat z: return 0;
            case PZero _: return 1;
            case PSucc p: return 2;
          }
        }
        """
        report = verify(source)
        assert not report.of_kind(WarningKind.NONEXHAUSTIVE)
        assert not report.of_kind(WarningKind.REDUNDANT_ARM)

    def test_missing_class_case_warns(self):
        source = self.INVARIANT_PRELUDE + """
        static int f(Nat n) {
          switch (n) {
            case ZNat z: return 0;
            case PZero _: return 1;
          }
        }
        """
        report = verify(source)
        assert report.of_kind(WarningKind.NONEXHAUSTIVE)

    def test_duplicate_class_case_redundant(self):
        source = self.INVARIANT_PRELUDE + """
        static int f(Nat n) {
          switch (n) {
            case ZNat z: return 0;
            case PZero _: return 1;
            case PSucc p: return 2;
            case ZNat w: return 3;
          }
        }
        """
        report = verify(source)
        redundant = report.of_kind(WarningKind.REDUNDANT_ARM)
        assert any("arm 4" in w.message for w in redundant)

    def test_without_invariant_not_exhaustive(self):
        # No class-listing invariant: new implementations could exist,
        # so the class switch cannot be proven exhaustive.
        source = NAT_PRELUDE + """
        static int f(Nat n) {
          switch (n) {
            case ZNat z: return 0;
            case PZero _: return 1;
            case PSucc p: return 2;
          }
        }
        """
        report = verify(source)
        assert report.of_kind(WarningKind.NONEXHAUSTIVE) or report.of_kind(
            WarningKind.UNKNOWN
        )


class TestTuplePatterns:
    def test_plus_switch_exhaustive(self):
        # Figure 1's plus: (zero(), x) | (x, zero()) | (succ(k), _).
        source = NAT_PRELUDE + """
        static Nat plus(Nat m, Nat n) {
          switch (m, n) {
            case (zero(), Nat x):
            case (x, zero()):
              return x;
            case (succ(Nat k), _):
              return plus(k, ZNat.succ(n));
          }
        }
        """
        report = verify(source)
        assert not report.of_kind(WarningKind.NONEXHAUSTIVE)

    def test_plus_missing_first_case(self):
        # Section 1: "if the programmer forgot the first of the three
        # cases ... the compiler would warn that no cases match values
        # of the form (Zero, Succ _)".
        source = NAT_PRELUDE + """
        static Nat plus(Nat m, Nat n) {
          switch (m, n) {
            case (Nat x, zero()):
              return x;
            case (succ(Nat k), _):
              return plus(k, ZNat.succ(n));
          }
        }
        """
        report = verify(source)
        assert report.of_kind(WarningKind.NONEXHAUSTIVE)


class TestCondStatements:
    def test_integer_cond_exhaustive(self):
        source = """
        static int sign(int x) {
          cond {
            (x > 0) { return 1; }
            (x = 0) { return 0; }
            (x < 0) { return -1; }
          }
        }
        """
        report = verify(source)
        assert not report.of_kind(WarningKind.NONEXHAUSTIVE)
        assert not report.of_kind(WarningKind.REDUNDANT_ARM)

    def test_integer_cond_gap(self):
        source = """
        static int f(int x) {
          cond {
            (x > 0) { return 1; }
            (x < 0) { return -1; }
          }
        }
        """
        report = verify(source)
        warnings = report.of_kind(WarningKind.NONEXHAUSTIVE)
        assert len(warnings) == 1
        assert "x = 0" in (warnings[0].counterexample or "")

    def test_integer_cond_redundant_arm(self):
        source = """
        static int f(int x) {
          cond {
            (x >= 0) { return 1; }
            (x > 0) { return 2; }
            else return 3;
          }
        }
        """
        report = verify(source)
        assert report.of_kind(WarningKind.REDUNDANT_ARM)

    def test_else_suppresses_exhaustiveness(self):
        source = """
        static int f(int x) {
          cond {
            (x > 0) { return 1; }
            else return 0;
          }
        }
        """
        report = verify(source)
        assert not report.of_kind(WarningKind.NONEXHAUSTIVE)


class TestLetTotality:
    def test_total_let(self):
        report = verify("static int f() { let int x = 2; return x; }")
        assert not report.of_kind(WarningKind.LET_MAY_FAIL)

    def test_partial_let_warns(self):
        report = verify("static int f(int y) { let 2 = y; return y; }")
        assert report.of_kind(WarningKind.LET_MAY_FAIL)

    def test_guarded_let_after_cond(self):
        # Inside the (y = 2) arm the let is total.
        source = """
        static int f(int y) {
          cond {
            (y = 2) { let 2 = y; return y; }
            else return 0;
          }
        }
        """
        report = verify(source)
        assert not report.of_kind(WarningKind.LET_MAY_FAIL)

    def test_let_with_matches_clause_total(self):
        source = NAT_PRELUDE + """
        static ZNat f(int k) {
          cond {
            (k >= 0) { let ZNat z = ZNat(k); return z; }
            else return ZNat(0);
          }
        }
        """
        report = verify(source)
        # ZNat(k) matches(n >= 0): inside the k >= 0 arm the let is total.
        assert not report.of_kind(WarningKind.LET_MAY_FAIL)

    def test_let_without_guard_warns(self):
        source = NAT_PRELUDE + """
        static ZNat f(int k) {
          let ZNat z = ZNat(k);
          return z;
        }
        """
        report = verify(source)
        assert report.of_kind(WarningKind.LET_MAY_FAIL)


class TestUnknownCause:
    """An inconclusive exhaustiveness check names why it is inconclusive.
    (The path condition leaves the switch to SMT: the pattern algebra
    decides one without it whatever the budget.)"""

    SOURCE = NAT_PRELUDE + """
    static int observe(Nat n, int k) {
      if (k > 0) {
        switch (n) {
          case succ(Nat p): return 1;
        }
      }
      return 0;
    }
    """

    def test_starved_budget_names_the_time_budget(self):
        unit = api.compile_program(self.SOURCE)
        report = api.verify(
            unit, options=api.VerifyOptions(budget=0.0, cache=None)
        )
        messages = [w.message for w in report.of_kind(WarningKind.UNKNOWN)]
        assert (
            "no counterexample to exhaustiveness found, but there may be "
            "one (time budget exhausted)"
        ) in messages
        assert not any("expansion depth" in m for m in messages)


class TestDeclarationUnderFieldAccess:
    """A declaration pattern under a field selection binds for the body."""

    SOURCE = NAT_PRELUDE + """
    static int g(Nat n) {
      if ((PSucc q).pred = n) {
        switch (q) {
          case succ(_): return 1;
        }
      }
      return 0;
    }
    """

    def test_counterexample_names_the_declared_variable(self):
        report = verify(self.SOURCE)
        assert kinds(report) == [WarningKind.NONEXHAUSTIVE]
        (warning,) = report.diagnostics.warnings
        assert warning.counterexample == (
            "$subject: not matched-by Nat.succ[n], matched-by Nat.zero[pred], "
            "instanceof Nat, instanceof PSucc; "
            "n: matched-by Nat.succ[n], not matched-by Nat.zero[pred], "
            "instanceof Nat; "
            "q: not matched-by Nat.succ[n], matched-by Nat.zero[pred], "
            "instanceof Nat, instanceof PSucc; "
            "result = 0"
        )
