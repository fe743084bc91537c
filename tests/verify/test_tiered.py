"""Tests for the pre-SMT pattern-algebra tier (:mod:`repro.verify.tiered`).

Three layers of assurance:

- hand-written edge cases (empty match, lone wildcard, or-patterns at
  the top and under nesting, arms shadowed by an earlier wildcard),
  each checked for byte-identical warnings across tiers and for the
  expected discharge accounting;
- the whole example corpus run in ``--tier check`` differential mode,
  which hard-fails on any algebra/SMT verdict disagreement;
- a property-style sweep: random small constructor hierarchies and
  random pattern columns, verified in check mode with the SMT pipeline
  as the oracle.
"""

import pytest

from repro import api
from repro.corpus import combined_programs
from repro.errors import WarningKind
from repro.smt import SolverCache
from repro.verify import PatternAlgebra, TierMismatchError, VerifyOptions

from .test_exhaustiveness import NAT_PRELUDE

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis ships in the image
    HAVE_HYPOTHESIS = False


def compile_(source):
    return api.compile_program(source)


def warning_strings(report):
    return [str(w) for w in report.diagnostics.warnings]


def verify_tier(source, tier):
    return api.verify(
        compile_(source),
        options=api.VerifyOptions(cache=SolverCache(), tier=tier),
    )


def in_method(body):
    return NAT_PRELUDE + "\nstatic int f(Nat n) {\n" + body + "\n}\n"


class TestEdgeCases:
    """Hand-written pattern shapes, each compared across tiers."""

    CASES = {
        "empty_match": in_method("switch (n) { }"),
        "single_wildcard": in_method("switch (n) { case _: return 0; }"),
        "or_pattern": in_method(
            "switch (n) { case zero() | succ(_): return 0; }"
        ),
        "nested_or": in_method(
            "switch (n) {\n"
            "  case zero(): return 0;\n"
            "  case succ(zero() | succ(_)): return 1;\n"
            "}"
        ),
        "redundant_after_wildcard": in_method(
            "switch (n) {\n"
            "  case _: return 0;\n"
            "  case zero(): return 1;\n"
            "}"
        ),
        "missing_ctor": in_method(
            "switch (n) { case succ(Nat p): return 1; }"
        ),
        "complete_split": in_method(
            "switch (n) {\n"
            "  case zero(): return 0;\n"
            "  case succ(Nat p): return 1;\n"
            "}"
        ),
        "deep_redundant": in_method(
            "switch (n) {\n"
            "  case zero(): return 0;\n"
            "  case succ(_): return 1;\n"
            "  case succ(succ(_)): return 2;\n"
            "}"
        ),
    }

    #: every case is conclusive for both tiers (the canonical pattern-
    #: mode encoding keeps one success predicate per constructor, so
    #: nested-wildcard redundancy like ``deep_redundant`` is provable
    #: by SMT too), so warnings must match byte for byte.
    PARITY_CASES = sorted(CASES)

    @pytest.mark.parametrize("name", PARITY_CASES)
    def test_auto_matches_smt_only_byte_for_byte(self, name):
        source = self.CASES[name]
        auto = verify_tier(source, "auto")
        smt = verify_tier(source, "smt-only")
        assert warning_strings(auto) == warning_strings(smt)

    def test_deep_redundancy_proved_by_both_tiers(self):
        # succ(succ(_)) after succ(_): the arms share one success
        # predicate per constructor occurrence, so negating the earlier
        # arm rules out the later one in the SMT encoding just as the
        # algebra's usefulness matrix does.
        auto = verify_tier(self.CASES["deep_redundant"], "auto")
        smt = verify_tier(self.CASES["deep_redundant"], "smt-only")
        for report in (auto, smt):
            assert report.of_kind(WarningKind.REDUNDANT_ARM)
            assert not report.of_kind(WarningKind.UNKNOWN)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_check_mode_agrees(self, name):
        # check mode raises TierMismatchError on any disagreement, so
        # merely completing is the assertion.
        report = verify_tier(self.CASES[name], "check")
        assert report.solver_stats.tier_mismatches == 0
        assert report.solver_stats.algebra_discharged > 0

    def test_exhaustive_switch_discharged_without_queries(self):
        report = verify_tier(self.CASES["complete_split"], "auto")
        stats = report.solver_stats
        assert stats.algebra_discharged > 0
        # The switch's obligations never reach the solver; remaining
        # queries come from the prelude's spec obligations only.
        smt = verify_tier(self.CASES["complete_split"], "smt-only")
        assert stats.total.queries < smt.solver_stats.total.queries

    def test_nonexhaustive_falls_back_for_counterexample(self):
        # The algebra decides "not exhaustive" but defers to SMT so the
        # warning keeps its model counterexample.
        report = verify_tier(self.CASES["missing_ctor"], "auto")
        assert report.of_kind(WarningKind.NONEXHAUSTIVE)
        assert report.solver_stats.algebra_fallbacks > 0

    def test_redundant_after_wildcard_warns_identically(self):
        auto = verify_tier(self.CASES["redundant_after_wildcard"], "auto")
        redundant = auto.of_kind(WarningKind.REDUNDANT_ARM)
        assert redundant
        assert auto.solver_stats.algebra_discharged > 0

    def test_algebra_only_renders_witness(self):
        report = verify_tier(self.CASES["missing_ctor"], "algebra-only")
        warnings = [
            str(w) for w in report.of_kind(WarningKind.NONEXHAUSTIVE)
        ]
        assert warnings
        # The witness names the missing constructor syntactically.
        assert any("zero" in w for w in warnings)

    def test_algebra_only_makes_no_queries_for_switches(self):
        report = verify_tier(self.CASES["deep_redundant"], "algebra-only")
        assert report.solver_stats.algebra_discharged > 0


class TestRefinementsStayOnSmt:
    """Patterns the algebra must refuse to judge."""

    GUARDED = NAT_PRELUDE + """
    static int g(Nat n, int k) {
      switch (n) {
        case zero(): return 0;
        case succ(Nat p) where (k > 0): return 1;
        case succ(Nat p): return 2;
      }
    }
    """

    def test_where_clause_falls_through_to_smt(self):
        auto = verify_tier(self.GUARDED, "auto")
        smt = verify_tier(self.GUARDED, "smt-only")
        assert warning_strings(auto) == warning_strings(smt)

    def test_algebra_only_skips_ineligible_switch(self):
        # algebra-only must not invent verdicts for switches it cannot
        # lower; the guarded switch is skipped silently.
        report = verify_tier(self.GUARDED, "algebra-only")
        assert not report.of_kind(WarningKind.NONEXHAUSTIVE)


#: trees is minutes-long under full-budget SMT, so (matching the
#: parity suites' convention) it runs separately under a tiny budget —
#: check mode treats the resulting UNKNOWNs as compatible, which still
#: exercises the comparison plumbing on every switch.
FAST_GROUPS = ["nat", "lists", "cps", "typeinf", "collections"]


class TestCheckModeOverCorpus:
    @pytest.mark.parametrize("name", FAST_GROUPS)
    def test_corpus_program_survives_tier_check(self, name):
        source = combined_programs()[name]
        report = api.verify(
            api.compile_program(source, filename=name),
            options=api.VerifyOptions(cache=SolverCache(), tier="check"),
        )
        assert report.solver_stats.tier_mismatches == 0

    def test_trees_survives_tier_check_under_tiny_budget(self):
        source = combined_programs()["trees"]
        report = api.verify(
            api.compile_program(source, filename="trees"),
            options=api.VerifyOptions(
                cache=SolverCache(),
                budget=1e-9,
                tier="check",
            ),
        )
        assert report.solver_stats.tier_mismatches == 0

    def test_corpus_has_nonzero_algebra_discharge(self):
        total = 0
        for name in FAST_GROUPS:
            report = api.verify(
                api.compile_program(combined_programs()[name], filename=name),
                options=api.VerifyOptions(cache=SolverCache(), tier="auto"),
            )
            total += report.solver_stats.algebra_discharged
        assert total > 0


class TestTierPlumbing:
    def test_invalid_tier_rejected(self):
        with pytest.raises(ValueError):
            VerifyOptions(tier="fast").validate()

    def test_mismatch_error_carries_report(self, monkeypatch):
        # Force a disagreement by making the algebra swear an
        # incomplete switch is exhaustive; check mode must raise with
        # the report attached.
        from repro.verify import tiered

        real = tiered.PatternAlgebra.analyze_switch

        def lying(self, node, *rest):
            decision = real(self, node, *rest)
            if decision is not None and decision.exhaustive is False:
                decision.exhaustive = True
                decision.witness = []
            return decision

        monkeypatch.setattr(tiered.PatternAlgebra, "analyze_switch", lying)
        source = in_method("switch (n) { case succ(Nat p): return 1; }")
        with pytest.raises(TierMismatchError) as excinfo:
            api.verify(
                compile_(source),
                options=api.VerifyOptions(cache=SolverCache(), tier="check"),
            )
        report = excinfo.value.report
        assert report is not None
        assert report.solver_stats.tier_mismatches > 0
        assert report.of_kind(WarningKind.TIER_MISMATCH)

    def test_algebra_exported_from_verify_package(self):
        assert PatternAlgebra is not None


def _hierarchy_source(arities):
    """A sealed interface T with constructors c0..cN of the given arities.

    Constructor arguments are all T-typed, so patterns nest.
    """
    seals = " | ".join(
        f"c{i}({', '.join('_' for _ in range(a))})"
        if a
        else f"c{i}()"
        for i, a in enumerate(arities)
    )
    decls = "\n".join(
        f"  constructor c{i}({', '.join(f'T x{j}' for j in range(a))}) "
        f"returns({', '.join(f'x{j}' for j in range(a))});"
        for i, a in enumerate(arities)
    )
    impls = "\n".join(
        f"  constructor c{i}({', '.join(f'T x{j}' for j in range(a))}) "
        f"returns({', '.join(f'x{j}' for j in range(a))})\n"
        f"    ( tag = {i}"
        + "".join(f" && f{j} = x{j}" for j in range(a))
        + " )"
        for i, a in enumerate(arities)
    )
    max_arity = max(arities) if arities else 0
    fields = "\n".join(f"  T f{j};" for j in range(max_arity))
    return (
        "interface T {\n"
        f"  invariant(this = {seals});\n"
        f"{decls}\n"
        "}\n"
        "class CT implements T {\n"
        "  int tag;\n"
        f"{fields}\n"
        f"{impls}\n"
        "}\n"
    )


def _pattern_source(pat, arities):
    """Render a generated pattern tree as JMatch case syntax."""
    kind = pat[0]
    if kind == "wild":
        return "_"
    index = pat[1]
    args = pat[2]
    rendered = ", ".join(_pattern_source(a, arities) for a in args)
    return f"c{index}({rendered})"


if HAVE_HYPOTHESIS:

    @st.composite
    def hierarchies(draw):
        count = draw(st.integers(min_value=1, max_value=3))
        return [
            draw(st.integers(min_value=0, max_value=2))
            for _ in range(count)
        ]

    def patterns_for(arities, depth=2):
        wild = st.just(("wild",))
        if depth == 0:
            return wild
        sub = patterns_for(arities, depth - 1)

        def ctor(i):
            return st.tuples(
                st.just("ctor"),
                st.just(i),
                st.tuples(*[sub for _ in range(arities[i])]),
            )

        return st.one_of(wild, *[ctor(i) for i in range(len(arities))])

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_random_columns_agree_with_smt_oracle(data):
        arities = data.draw(hierarchies())
        rows = data.draw(
            st.lists(
                patterns_for(arities), min_size=0, max_size=4
            )
        )
        cases = "\n".join(
            f"    case {_pattern_source(p, arities)}: return {i};"
            for i, p in enumerate(rows)
        )
        source = (
            _hierarchy_source(arities)
            + "static int f(T t) {\n  switch (t) {\n"
            + cases
            + "\n  }\n}\n"
        )
        try:
            unit = api.compile_program(source)
        except Exception:
            # Some generated shapes are rejected upstream (e.g. the
            # checker refuses a pattern form); that is out of scope.
            return
        # check mode IS the oracle comparison: it runs the algebra and
        # SMT on the same obligations and raises on any disagreement.
        report = api.verify(
            unit, options=api.VerifyOptions(cache=SolverCache(), tier="check")
        )
        assert report.solver_stats.tier_mismatches == 0
