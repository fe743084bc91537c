"""Static verification of exhaustiveness, redundancy, totality, and
disjointness (Sections 4-6 of the paper)."""

from .options import VerifyOptions
from .tiered import AlgebraDecision, PatternAlgebra
from .verifier import VerificationReport, Verifier, VerifyTask, iter_tasks

__all__ = [
    "AlgebraDecision",
    "PatternAlgebra",
    "VerificationReport",
    "Verifier",
    "VerifyOptions",
    "VerifyTask",
    "iter_tasks",
]
