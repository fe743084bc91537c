"""Tests for the pattern-algebra fast path (:mod:`repro.verify.tiered`).

Three layers of assurance, all through the oracle in
:mod:`tests.verify.tier_oracle`:

- hand-written edge cases (empty match, lone wildcard, or-patterns at
  the top and under nesting, arms shadowed by an earlier wildcard,
  ``where`` guards the algebra bounds from both sides), each checked
  for the same warnings with and without the algebra (``smt_only()``;
  an algebra witness stands in for SMT's model counterexample) and for
  the expected discharge accounting;
- the whole example corpus under ``tier_check()``, which fails a task
  on any algebra/SMT verdict disagreement and on any witness SMT finds
  false;
- every unguarded arm the algebra decides, over the golden inputs and
  the shapes here, translates;
- a property-style sweep: random small constructor hierarchies and
  random pattern columns, some rows guarded, verified under
  ``tier_check()`` with the SMT pipeline as the oracle.
"""

import pytest

from repro import api
from repro.corpus import combined_programs
from repro.errors import WarningKind
from repro.smt import Result, SolverCache
from repro.verify import PatternAlgebra, VerifyOptions
from repro.verify.solving import SolverSession

from .test_exhaustiveness import NAT_PRELUDE
from .test_fault_tolerance import count_pools
from .tier_oracle import (
    algebra_counterexamples,
    findings,
    smt_only,
    smt_only_mismatches,
    tier_check,
)

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


def verify_tier(source, tier="auto"):
    """Verify ``source`` by default, under ``smt_only()``, or under
    ``tier_check()`` (which must not find a disagreement)."""
    unit = compile_(source)
    options = api.VerifyOptions(cache=SolverCache())
    if tier == "auto":
        return api.verify(unit, options=options)
    if tier == "smt-only":
        with smt_only():
            return api.verify(unit, options=options)
    assert tier == "check"
    with tier_check() as disagreements:
        report = api.verify(unit, options=options)
    assert disagreements == [] and report.tasks_failed == 0
    return report


def in_method(body):
    return NAT_PRELUDE + "\nstatic int f(Nat n) {\n" + body + "\n}\n"


def in_guarded_method(body):
    """``body`` in ``f(Nat n, int k)``, with a predicate ``pos`` whose
    call on a tuple the translator rejects."""
    return (
        NAT_PRELUDE
        + "\nstatic boolean pos(int a) ( a >= 0 )\n"
        + "static int f(Nat n, int k) {\n" + body + "\n}\n"
    )


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
        # non-exhaustive with a redundant arm: the arm's warning comes
        # before the exhaustiveness warning, as under SMT
        "redundant_and_missing": in_method(
            "switch (n) {\n"
            "  case succ(_): return 1;\n"
            "  case succ(Nat p): return 2;\n"
            "}"
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
        # the guarded arm's skeleton is covered already: redundant
        # whatever the guard says
        "guard_covered": in_guarded_method(
            "switch (n) {\n"
            "  case zero(): return 0;\n"
            "  case succ(_): return 1;\n"
            "  case succ(Nat p) where (k > 0): return 2;\n"
            "}"
        ),
        # an always-true guard makes the next arm redundant, which only
        # SMT can see
        "guard_always_true": in_guarded_method(
            "switch (n) {\n"
            "  case zero(): return 0;\n"
            "  case succ(_) where (true): return 1;\n"
            "  case succ(_): return 2;\n"
            "}"
        ),
        "guard_first_nonexhaustive": in_guarded_method(
            "switch (n) {\n"
            "  case zero() where (k > 0): return 0;\n"
            "  case succ(zero()): return 1;\n"
            "}"
        ),
        "guard_untranslatable": in_guarded_method(
            "switch (n) {\n"
            "  case zero(): return 0;\n"
            "  case succ(_) where (pos((k, k))): return 1;\n"
            "  case succ(_): return 2;\n"
            "}"
        ),
        # covered: the algebra alone would call it redundant
        "guard_untranslatable_covered": in_guarded_method(
            "switch (n) {\n"
            "  case zero(): return 0;\n"
            "  case succ(_): return 1;\n"
            "  case succ(_) where (pos((k, k))): return 2;\n"
            "}"
        ),
    }

    #: every case is conclusive for both sides (the canonical pattern-
    #: mode encoding keeps one success predicate per constructor, so
    #: nested-wildcard redundancy like ``deep_redundant`` is provable
    #: by SMT too), so warnings must match byte for byte, except that
    #: an algebra witness replaces SMT's model counterexample.
    PARITY_CASES = sorted(CASES)

    @pytest.mark.parametrize("name", PARITY_CASES)
    def test_auto_matches_smt_only_byte_for_byte(self, name):
        source = self.CASES[name]
        with algebra_counterexamples() as rendered:
            auto = verify_tier(source, "auto")
        smt = verify_tier(source, "smt-only")
        assert smt_only_mismatches(findings(auto), findings(smt), rendered) == []

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
        # verify_tier asserts the oracle found no disagreement; the
        # discharge count shows the algebra really decided something.
        report = verify_tier(self.CASES[name], "check")
        assert report.solver_stats.algebra_discharged > 0

    def test_exhaustive_switch_discharged_without_queries(self):
        report = verify_tier(self.CASES["complete_split"], "auto")
        stats = report.solver_stats
        assert stats.algebra_discharged > 0
        # The switch's obligations never reach the solver; remaining
        # queries come from the prelude's spec obligations only.
        smt = verify_tier(self.CASES["complete_split"], "smt-only")
        assert stats.total.queries < smt.solver_stats.total.queries

    def test_nonexhaustive_asks_smt_nothing(self):
        # The algebra decides "not exhaustive", keeps its arm verdicts
        # and renders its witness as the counterexample: f makes no
        # query, where smt_only() makes two.
        auto = verify_tier(self.CASES["missing_ctor"], "auto")
        smt = verify_tier(self.CASES["missing_ctor"], "smt-only")
        (warning,) = auto.of_kind(WarningKind.NONEXHAUSTIVE)
        assert warning.counterexample == "n = zero()"
        assert "f" not in auto.solver_stats.per_method
        assert smt.solver_stats.per_method["f"].queries == 2
        assert auto.solver_stats.algebra_fallbacks == 0

    def test_unknown_model_query_keeps_the_algebra_witness(self, monkeypatch):
        # SMT answers UNKNOWN to every model query.  smt_only() can only
        # report that; the algebra's verdict needs no model, so the
        # switch still warns non-exhaustive with its witness.
        real = SolverSession._solve

        def unknown_models(self, plugin, terms, want_model):
            outcome = real(self, plugin, terms, want_model)
            if not want_model:
                return outcome
            return outcome._replace(
                result=Result.UNKNOWN, model=None, unknown_cause="deadline"
            )

        monkeypatch.setattr(SolverSession, "_solve", unknown_models)
        auto = verify_tier(self.CASES["missing_ctor"], "auto")
        smt = verify_tier(self.CASES["missing_ctor"], "smt-only")
        assert [
            (w.message, w.counterexample)
            for w in auto.of_kind(WarningKind.NONEXHAUSTIVE)
        ] == [("match is not exhaustive", "n = zero()")]
        assert not auto.of_kind(WarningKind.UNKNOWN)
        assert [w.message for w in smt.of_kind(WarningKind.UNKNOWN)] == [
            "no counterexample to exhaustiveness found, but there may be "
            "one (time budget exhausted)"
        ]
        assert auto.solver_stats.algebra_fallbacks == 0
        assert "f" not in auto.solver_stats.per_method

    def test_starved_budget_keeps_the_algebra_verdicts(self):
        # Under a zero budget every query is UNKNOWN, but the algebra's
        # proof that arm 2 is redundant, and its witness that the match
        # is not exhaustive, need none.
        source = self.CASES["redundant_and_missing"]
        report = api.verify(
            compile_(source), options=api.VerifyOptions(budget=0.0)
        )
        switch = source[: source.index("switch")].count("\n") + 1
        assert [
            (w.kind, w.message, w.counterexample)
            for w in report.diagnostics.warnings
            if w.span.start.line == switch
        ] == [
            (
                WarningKind.REDUNDANT_ARM,
                "arm 2 is redundant: no value reaches it",
                None,
            ),
            (
                WarningKind.NONEXHAUSTIVE,
                "match is not exhaustive",
                "n = zero()",
            ),
        ]

    def test_algebra_warnings_do_not_depend_on_the_budget(self):
        # The algebra decides every obligation of this switch, so a
        # starved budget changes none of its warnings (the prelude's
        # own obligations do go UNKNOWN).
        source = self.CASES["redundant_and_missing"]
        switch = source[: source.index("switch")].count("\n") + 1
        unit = compile_(source)
        starved, default = (
            [
                str(w)
                for w in api.verify(unit, options=options).diagnostics.warnings
                if w.span.start.line == switch
            ]
            for options in (
                api.VerifyOptions(budget=0.0),
                api.VerifyOptions(),
            )
        )
        assert len(default) == 2
        assert starved == default

    def test_redundant_after_wildcard_warns_identically(self):
        auto = verify_tier(self.CASES["redundant_after_wildcard"], "auto")
        redundant = auto.of_kind(WarningKind.REDUNDANT_ARM)
        assert redundant
        assert auto.solver_stats.algebra_discharged > 0

    def test_covered_guard_is_redundant_without_a_query(self):
        auto = verify_tier(self.CASES["guard_covered"], "auto")
        smt = verify_tier(self.CASES["guard_covered"], "smt-only")
        redundant = auto.of_kind(WarningKind.REDUNDANT_ARM)
        assert [w.message for w in redundant] == [
            "arm 3 is redundant: no value reaches it"
        ]
        assert "f" not in auto.solver_stats.per_method
        assert smt.solver_stats.per_method["f"].queries == 4

    def test_always_true_guard_leaves_the_next_arm_to_smt(self):
        # The guarded arm and the arm after it are undecided; SMT finds
        # the second redundant, and arm 1 and exhaustiveness stay with
        # the algebra.
        auto = verify_tier(self.CASES["guard_always_true"], "auto")
        redundant = auto.of_kind(WarningKind.REDUNDANT_ARM)
        assert [w.message for w in redundant] == [
            "arm 3 is redundant: no value reaches it"
        ]
        assert auto.solver_stats.per_method["f"].queries == 2

    def test_guarded_first_arm_keeps_the_counterexample(self):
        # Arm 1 goes to SMT; arm 2 and the exhaustiveness are the
        # algebra's, whose witness escapes every arm's skeleton.
        with algebra_counterexamples() as rendered:
            auto = verify_tier(
                self.CASES["guard_first_nonexhaustive"], "auto"
            )
        smt = verify_tier(
            self.CASES["guard_first_nonexhaustive"], "smt-only"
        )
        (warning,) = auto.of_kind(WarningKind.NONEXHAUSTIVE)
        assert warning.counterexample == "n = succ(succ(_))"
        assert smt_only_mismatches(findings(auto), findings(smt), rendered) == []
        assert auto.solver_stats.per_method["f"].queries == 1
        assert auto.solver_stats.algebra_fallbacks == 0

    @pytest.mark.parametrize(
        "name, arm",
        [("guard_untranslatable", 2), ("guard_untranslatable_covered", 3)],
    )
    def test_untranslatable_guard_keeps_its_warning(self, name, arm):
        # The arm reports its translation error whatever the algebra
        # said, and the algebra's verdicts on the other arms stand.
        auto = verify_tier(self.CASES[name], "auto")
        smt = verify_tier(self.CASES[name], "smt-only")
        assert [w.message for w in auto.of_kind(WarningKind.UNKNOWN)] == [
            f"arm {arm} could not be analyzed: tuple argument"
        ]
        assert warning_strings(auto) == warning_strings(smt)
        assert auto.solver_stats.algebra_fallbacks == 0
        # f asks SMT only its undecided arms: 1 and 0 queries against 3
        per_method = auto.solver_stats.per_method
        queries = per_method["f"].queries if "f" in per_method else 0
        assert queries < smt.solver_stats.per_method["f"].queries


class TestGuardedRows:
    """A ``where`` arm is lowered to its skeleton; SMT answers only
    what the guard can change."""

    GUARDED = NAT_PRELUDE + """
    static int g(Nat n, int k) {
      switch (n) {
        case zero(): return 0;
        case succ(Nat p) where (k > 0): return 1;
        case succ(Nat p): return 2;
      }
    }
    """

    def test_where_clause_sends_only_its_undecided_arms_to_smt(self):
        # Arm 1 and exhaustiveness are the algebra's; the guarded arm 2
        # and arm 3, which only the guard can make redundant, go to SMT.
        auto = verify_tier(self.GUARDED, "auto")
        smt = verify_tier(self.GUARDED, "smt-only")
        assert warning_strings(auto) == warning_strings(smt)
        assert auto.solver_stats.per_method["g"].queries == 2
        assert smt.solver_stats.per_method["g"].queries == 4
        assert auto.solver_stats.algebra_fallbacks == 0


def in_box(body):
    """``body`` in an instance method ``get(Nat m)`` of a class whose
    field ``pred`` the translator binds in every method of it."""
    return (
        NAT_PRELUDE
        + "class Box {\n  Nat pred;\n  int get(Nat m) {\n"
        + body
        + "\n  }\n}\n"
    )


class TestUnguardedArmsTranslate:
    """Every unguarded pattern the algebra lowers translates, so an arm
    that reports a translation error (whatever the algebra said) is
    always a guarded one, and no statement needs a second pass."""

    SHAPES = {
        "tuple_subject": NAT_PRELUDE
        + "static int f(Nat n, Nat m) {\n"
        "  switch (n, m) {\n"
        "    case (zero(), _) | (_, zero()): return 0;\n"
        "    case (succ(Nat a), succ(succ(b))): return 1;\n"
        "    case t: return 2;\n"
        "  }\n"
        "}\n",
        "binders": in_method(
            "switch (n) {\n"
            "  case succ(succ(Nat a) | zero()): return 0;\n"
            "  case Nat q: return 1;\n"
            "  case succ(p): return 2;\n"
            "}"
        ),
        "instance_method": in_box(
            "switch (m) {\n"
            "  case zero(): return 0;\n"
            "  case succ(succ(q)): return 1;\n"
            "}"
        ),
    }

    def test_every_unguarded_arm_the_algebra_decides_translates(
        self, monkeypatch
    ):
        from repro.verify.tiered import _has_guard
        from repro.verify.verifier import _BodyWalker

        from .golden import golden_inputs

        failures: list[str] = []
        arms_checked = 0

        def translating(walker, stmt, scope, path):
            # Translate every arm of a decided switch, even one the
            # default run reports without translation.
            nonlocal arms_checked
            decision = walker.algebra.analyze_switch(stmt, scope, path)
            verdicts = () if decision is None else decision.verdicts
            done = walker._check_switch_smt(stmt, scope, path, verdicts)
            if decision is None:
                return
            patterns = [p for case in stmt.cases for p in case.patterns]
            arms = [o for o in done if o.kind == "redundancy"]
            if len(arms) != len(patterns):
                failures.append(f"{stmt.span}: subject did not translate")
            for pattern, arm in zip(patterns, arms):
                if not _has_guard(pattern):
                    arms_checked += 1
                    if arm.error is not None:
                        failures.append(f"{stmt.span}: {arm.error}")

        monkeypatch.setattr(_BodyWalker, "_check_switch", translating)
        sources = {**golden_inputs(), **TestEdgeCases.CASES, **self.SHAPES}
        for name, source in sources.items():
            report = api.verify(
                api.compile_program(source, filename=name),
                options=api.VerifyOptions(budget=0.0),
            )
            assert report.tasks_failed == 0, name
        assert failures == []
        assert arms_checked > 1000

    def test_a_binder_named_after_a_field_is_an_equality_test(self):
        # In an instance method the translator binds the owner's fields,
        # so ``succ(pred)`` matches only ``this.pred``'s successor and
        # arm 3 is reachable.  The algebra must not read ``pred`` as a
        # fresh binder (which proves arm 3 redundant).
        source = in_box(
            "switch (m) {\n"
            "  case zero(): return 0;\n"
            "  case succ(pred): return 1;\n"
            "  case succ(_): return 2;\n"
            "}"
        )
        auto = verify_tier(source, "check")
        smt = verify_tier(source, "smt-only")
        assert not auto.of_kind(WarningKind.REDUNDANT_ARM)
        assert warning_strings(auto) == warning_strings(smt)


#: trees is minutes-long under full-budget SMT, so (matching the
#: parity suites' convention) it runs separately under a tiny budget —
#: the oracle treats the resulting UNKNOWNs as compatible, which still
#: exercises the comparison plumbing on every switch.
FAST_GROUPS = ["nat", "lists", "cps", "typeinf", "collections"]


class TestCheckModeOverCorpus:
    @pytest.mark.parametrize("name", FAST_GROUPS)
    def test_corpus_program_survives_tier_check(self, name):
        source = combined_programs()[name]
        with tier_check() as disagreements:
            report = api.verify(
                api.compile_program(source, filename=name),
                options=api.VerifyOptions(cache=SolverCache()),
            )
        assert disagreements == []
        assert report.tasks_failed == 0

    def test_trees_survives_tier_check_under_tiny_budget(self):
        source = combined_programs()["trees"]
        with tier_check() as disagreements:
            report = api.verify(
                api.compile_program(source, filename="trees"),
                options=api.VerifyOptions(cache=SolverCache(), budget=1e-9),
            )
        assert disagreements == []
        assert report.tasks_failed == 0

    def test_corpus_has_nonzero_algebra_discharge(self):
        total = 0
        for name in FAST_GROUPS:
            report = api.verify(
                api.compile_program(combined_programs()[name], filename=name),
                options=api.VerifyOptions(cache=SolverCache()),
            )
            total += report.solver_stats.algebra_discharged
        assert total > 0


class TestTierPlumbing:
    def test_invalid_tier_rejected(self):
        # The algebra is a fast path, not a setting: no tier option.
        with pytest.raises(TypeError):
            VerifyOptions(tier="auto")

    def test_algebra_exported_from_verify_package(self):
        assert PatternAlgebra is not None


class TestOracleSelfTest:
    """A lying algebra must fail ``tier_check()`` on every driver."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_lying_algebra_fails_tier_check(self, monkeypatch, jobs):
        # The algebra swears an incomplete switch is exhaustive, in four
        # copies of the method; jobs=2 forks two workers for them.
        from repro.verify import tiered

        real = tiered.PatternAlgebra.analyze_switch

        def lying(self, node, *rest):
            decision = real(self, node, *rest)
            if decision is not None and decision.exhaustive is False:
                decision.exhaustive = True
            return decision

        monkeypatch.setattr(tiered.PatternAlgebra, "analyze_switch", lying)
        pools = count_pools(monkeypatch)
        methods = "".join(
            f"static int f{i}(Nat n) {{\n"
            "  switch (n) { case succ(Nat p): return 1; }\n"
            "}\n"
            for i in range(4)
        )
        unit = compile_(NAT_PRELUDE + methods)
        with tier_check() as disagreements:
            report = api.verify(
                unit, options=api.VerifyOptions(cache=SolverCache(), jobs=jobs)
            )
        # Under jobs=2 each task failed first in a forked worker, then
        # again in the parent's serial re-run.
        assert report.tasks_failed == 4
        assert report.tasks_retried == (4 if jobs > 1 else 0)
        assert pools == ([jobs] if jobs > 1 else [])
        assert disagreements
        assert all(
            "tier disagreement on switch (exhaustiveness: "
            "smt=nonexhaustive, algebra=exhaustive)" in d
            for d in disagreements
        )
        failed = [
            w for w in report.of_kind(WarningKind.UNKNOWN)
            if "failed (AssertionError)" in w.message
        ]
        assert len(failed) == 4


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

    #: a row's optional guard: none, one only SMT can judge, an
    #: always-true one (the upper bound is exact) and an always-false
    #: one (the lower bound is)
    GUARDS = (None, "k > 0", "true", "false")

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_random_columns_agree_with_smt_oracle(data):
        arities = data.draw(hierarchies())
        rows = data.draw(
            st.lists(
                st.tuples(patterns_for(arities), st.sampled_from(GUARDS)),
                min_size=0,
                max_size=4,
            )
        )
        cases = "\n".join(
            f"    case {_pattern_source(p, arities)}"
            + ("" if guard is None else f" where ({guard})")
            + f": return {i};"
            for i, (p, guard) in enumerate(rows)
        )
        source = (
            _hierarchy_source(arities)
            + "static int f(T t, int k) {\n  switch (t) {\n"
            + cases
            + "\n  }\n}\n"
        )
        try:
            unit = api.compile_program(source)
        except Exception:
            # Some generated shapes are rejected upstream (e.g. the
            # checker refuses a pattern form); that is out of scope.
            return
        # tier_check IS the oracle comparison: it runs the algebra and
        # SMT on the same obligations and fails the task on any
        # disagreement.
        with tier_check() as disagreements:
            report = api.verify(
                unit, options=api.VerifyOptions(cache=SolverCache())
            )
        assert disagreements == []
        assert report.tasks_failed == 0
        # every drawn pattern and guard translates
        assert not [
            w for w in report.of_kind(WarningKind.UNKNOWN)
            if "could not be analyzed" in w.message
        ]
