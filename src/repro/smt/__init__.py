"""A pure-Python SMT solver for quantifier-free LIA + EUF.

This package stands in for the Z3 theorem prover used by the paper's
JMatch 2.0 implementation.  It provides exactly the capabilities the
verifier needs:

* :class:`~repro.smt.solver.Solver` -- assert boolean terms, check
  satisfiability, extract models (for counterexamples),
* :class:`~repro.smt.plugin.LazyTheoryPlugin` -- the lazy
  invariant/matches/ensures expansion mechanism of Section 6.2,
* the term language in :mod:`repro.smt.terms`.
"""

from .cache import SolverCache
from .plugin import LazyTheoryPlugin
from .solver import Result, Solver, SolverStats, eval_int
from .sorts import BOOL, INT, OBJ, Sort
from .terms import (
    FALSE,
    TRUE,
    FunSym,
    Term,
    fresh_var,
    mk_add,
    mk_and,
    mk_app,
    mk_bool,
    mk_distinct,
    mk_eq,
    mk_ge,
    mk_gt,
    mk_iff,
    mk_implies,
    mk_int,
    mk_ite,
    mk_le,
    mk_lt,
    mk_mul,
    mk_ne,
    mk_neg,
    mk_not,
    mk_or,
    mk_sub,
    mk_var,
)

__all__ = [
    "BOOL",
    "INT",
    "OBJ",
    "FALSE",
    "TRUE",
    "FunSym",
    "LazyTheoryPlugin",
    "Result",
    "Solver",
    "SolverCache",
    "SolverStats",
    "Sort",
    "Term",
    "eval_int",
    "fresh_var",
    "mk_add",
    "mk_and",
    "mk_app",
    "mk_bool",
    "mk_distinct",
    "mk_eq",
    "mk_ge",
    "mk_gt",
    "mk_iff",
    "mk_implies",
    "mk_int",
    "mk_ite",
    "mk_le",
    "mk_lt",
    "mk_mul",
    "mk_ne",
    "mk_neg",
    "mk_not",
    "mk_or",
    "mk_sub",
    "mk_var",
]
