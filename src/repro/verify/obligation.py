"""One obligation record, and the one function that discharges it.

Every question of Section 5 has one shape: a formula set whose verdict
warns (UNSAT for a redundant arm; SAT for a non-exhaustive match, a
partial ``let``, a method that may fail or miss its postcondition, and
overlapping ``|`` arms), and an UNKNOWN that becomes "no counterexample
found, but there may be one".  A checker builds an :class:`Obligation`;
:data:`KINDS` says, per kind, which verdict warns and with what text;
:func:`discharge` decides the obligation and reports it.

:func:`discharge` is the one place a verdict becomes a warning, for an
SMT query (tier ``smt``) and for a verdict the pattern algebra reached
(tier ``algebra``) alike.  It opens the obligation's trace span, whose
``tier`` and ``verdict`` attrs make the trace a ledger: each query sits
under one SMT obligation, and the algebra spans count
``VerifyStats.algebra_discharged``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from ..errors import Diagnostics, Span, WarningKind
from ..smt.plugin import LazyTheoryPlugin
from ..smt.solver import eval_int
from ..smt.terms import Term
from ..smt.theory import TheoryModel
from .fir import F
from .solving import SolverSession
from .translate import TupleVal


class ObligationKind(NamedTuple):
    """One kind's span name and warning texts: ``str.format`` templates
    over the obligation's ``subject``, ``label`` and ``error``."""

    name: str
    #: the warning a verdict of ``warns_on`` ("sat" or "unsat") raises
    warning: WarningKind
    warns_on: str
    message: str
    #: the UNKNOWN warning, before the limit the query reached
    unknown: str
    #: the UNKNOWN warning when the formulas could not be built (None:
    #: such an obligation is skipped unreported)
    error: str | None = None


KINDS = {
    "redundancy": ObligationKind(
        "redundancy of {subject}", WarningKind.REDUNDANT_ARM, "unsat",
        "{subject} is redundant: no value reaches it",
        "could not decide whether {subject} is redundant",
        "{subject} could not be analyzed: {error}",
    ),
    "exhaustiveness": ObligationKind(
        "exhaustiveness", WarningKind.NONEXHAUSTIVE, "sat",
        "match is not exhaustive",
        "no counterexample to exhaustiveness found, but there may be one",
        "switch subject could not be analyzed: {error}",
    ),
    "let-totality": ObligationKind(
        "let-totality", WarningKind.LET_MAY_FAIL, "sat",
        "let may not be total: {subject}",
        "could not prove this let total",
        "let formula could not be analyzed: {error}",
    ),
    "totality": ObligationKind(
        "totality of {subject}", WarningKind.TOTALITY, "sat",
        "{subject} may fail although its matching precondition holds",
        "could not decide totality of {subject}",
        "could not verify {subject}: {error}",
    ),
    "postcondition": ObligationKind(
        "postcondition of {subject}", WarningKind.POSTCONDITION, "sat",
        "{subject} may succeed without establishing its ensures clause",
        "could not decide the postcondition of {subject}",
        "could not check postcondition of {subject}: {error}",
    ),
    "spec": ObligationKind(
        "spec of {subject}", WarningKind.POSTCONDITION, "sat",
        "{subject}: the postcondition may not hold when the matching "
        "precondition does",
        "could not check specification of {subject}",
        "could not verify {subject}: {error}",
    ),
    "disjointness": ObligationKind(
        "disjointness of `{subject}`", WarningKind.NOT_DISJOINT, "sat",
        "{label}: the arms of `{subject}` are not disjoint",
        "{label}: could not prove `{subject}` disjoint",
    ),
}


@dataclass
class Obligation:
    """One question a checker asks about a statement or a spec."""

    #: a key of :data:`KINDS`
    kind: str
    #: the source span its warning attaches to
    site: Span
    #: what it is about ("arm 2", a method and mode, a formula); the
    #: texts format it with ``str`` only when they use it
    subject: object = ""
    #: the formula set whose satisfiability decides it; None when it
    #: could not be built, and ``error`` says why
    formulas: list[F] | None = None
    plugin: LazyTheoryPlugin | None = None
    #: the source names a counterexample describes; set exactly when
    #: the obligation wants a model
    shown: dict | None = None
    #: where a disjointness warning says the ``|`` is ("switch", ...)
    label: str = ""
    error: str | None = None
    #: asked before a verdict warns: True when the obligation is
    #: asserted, not verified (a ``|`` over abstract constructors,
    #: Section 8), so it reports nothing
    asserted: Callable[[], bool] | None = None
    #: the counterexample the pattern algebra rendered, in source
    #: syntax (``t = succ(_)``); shown when no model renders one
    witness: str | None = None
    #: set by :func:`discharge`: a query's "sat", "unsat" or "unknown",
    #: "error" when no query could run, or the algebra's verdict
    verdict: str | None = None

    @property
    def want_model(self) -> bool:
        return self.shown is not None

    @property
    def name(self) -> str:
        return KINDS[self.kind].name.format(subject=self.subject)


def discharge(
    obligation: Obligation,
    session: SolverSession,
    diag: Diagnostics,
    algebra_verdict: str | None = None,
) -> Obligation:
    """Decide ``obligation`` and report it: every verdict warns here.

    Its formulas go to ``session.check`` as one query (a fresh solve
    when it wants a model), unless the pattern algebra has reached
    ``algebra_verdict`` already, which counts as ``algebra_discharged``.
    """
    tracer = session.tracer
    span = None
    if tracer.enabled:  # an untraced run never formats the span name
        tier = "smt" if algebra_verdict is None else "algebra"
        span = tracer.begin("obligation", obligation.name, tier=tier)
    try:
        model = unknown_cause = None
        if algebra_verdict is not None:
            obligation.verdict = algebra_verdict
            if session.stats is not None:
                session.stats.algebra_discharged += 1
        elif obligation.formulas is None:
            obligation.verdict = "error"
        else:
            outcome = session.check(
                obligation.plugin,
                [f.to_term() for f in obligation.formulas],
                want_model=obligation.want_model,
            )
            obligation.verdict = outcome.result.value
            model, unknown_cause = outcome.model, outcome.unknown_cause
        _report(obligation, diag, model, unknown_cause)
    finally:
        if span is not None:
            tracer.end(span, verdict=obligation.verdict)
    return obligation


def _report(
    obligation: Obligation,
    diag: Diagnostics,
    model: TheoryModel | None,
    unknown_cause: str | None,
) -> None:
    """Emit the warning, if any, that ``obligation.verdict`` raises; an
    UNKNOWN one names the limit its own query reached."""
    kind = KINDS[obligation.kind]
    if obligation.verdict == kind.warns_on:
        warning, text = kind.warning, kind.message
    elif obligation.verdict == "unknown":
        exhausted = (
            "time budget" if unknown_cause == "deadline" else "expansion depth"
        )
        warning = WarningKind.UNKNOWN
        text = f"{kind.unknown} ({exhausted} exhausted)"
    elif obligation.verdict == "error":
        warning, text = WarningKind.UNKNOWN, kind.error
    else:
        return
    if obligation.asserted is not None and obligation.asserted():
        return
    message = text.format(
        subject=obligation.subject,
        label=obligation.label,
        error=obligation.error,
    )
    counterexample = (
        obligation.witness
        if model is None
        else render_counterexample(model, obligation.shown)
    )
    diag.warn(warning, message, obligation.site, counterexample)


def render_counterexample(model: TheoryModel, shown: dict) -> str:
    """Describe a satisfying assignment in source-level vocabulary."""
    parts: list[str] = []
    for name, value in sorted(shown.items()):
        if isinstance(value, TupleVal) or not isinstance(value, Term):
            continue
        if value.sort.name == "Int":
            parts.append(f"{name} = {eval_int(value, model)}")
        else:
            facts = _object_facts(value, model)
            if facts:
                parts.append(f"{name}: {', '.join(facts)}")
    return "; ".join(parts) if parts else "(any value)"


def _object_facts(term: Term, model: TheoryModel) -> list[str]:
    """True/false atoms about one object term, readably."""
    facts: list[str] = []
    for atom, value in sorted(
        model.atom_values.items(), key=lambda kv: str(kv[0])
    ):
        if term not in atom.args:
            continue
        name = getattr(atom.payload, "name", "")
        if name.startswith("call:"):
            label = name[len("call:"):]
            facts.append(f"{'' if value else 'not '}matched-by {label}")
        elif name.startswith("instanceof:") and value:
            facts.append(f"instanceof {name[len('instanceof:'):]}")
    return facts
