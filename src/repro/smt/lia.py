"""Linear integer arithmetic, Omega-test style.

The verifier's arithmetic obligations (``val >= 0``, ``height() =
l.height() + 1``, ...) are conjunctions of linear constraints over the
integers.  This module decides such conjunctions *and produces integer
models*, which the verifier turns into counterexamples.

The algorithm is Pugh's Omega test:

* equalities are eliminated by substitution (unit coefficient) or by
  the symmetric-modulus trick (non-unit coefficients),
* variables are eliminated from inequalities by Fourier-Motzkin
  combination, using the *exact* shadow when a coefficient is 1, the
  *dark* shadow otherwise, and splinter case-splits when the dark
  shadow is too strong,
* models are rebuilt by back-substitution through the elimination
  order,
* an UNSAT answer names the input constraints it used (its *core*):
  every derived constraint carries a bitmask of the inputs it was
  derived from, and case splits (``!=`` branches, dark shadow plus
  splinters) union the cores of their branches.

Constraints are in normal form ``sum(coeff * var) + const <= 0`` /
``= 0`` / ``!= 0``, with variables being arbitrary hashable keys (the
DPLL(T) layer uses purified SMT terms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import budget
from typing import Hashable, Iterable

Var = Hashable
LinExpr = dict[Var, int]  # variable -> coefficient; missing means 0

LE = "<=0"
EQ = "=0"
NE = "!=0"


@dataclass(frozen=True)
class Constraint:
    """``expr + const  (<=|=|!=)  0`` with integer coefficients.

    ``src`` is provenance inside :func:`solve`: a bitmask of the input
    constraints this one was derived from.  It takes no part in
    equality or hashing, so deduplication and the solve cache still key
    on the constraint's value.
    """

    coeffs: tuple[tuple[Var, int], ...]
    const: int
    rel: str = LE
    src: int = field(default=0, compare=False, repr=False)

    @staticmethod
    def make(
        coeffs: LinExpr, const: int, rel: str = LE, src: int = 0
    ) -> "Constraint":
        clean = tuple(
            sorted(
                ((v, c) for v, c in coeffs.items() if c != 0),
                key=lambda item: repr(item[0]),
            )
        )
        return Constraint(clean, const, rel, src)

    def expr(self) -> LinExpr:
        return dict(self.coeffs)

    def variables(self) -> set[Var]:
        return {v for v, _ in self.coeffs}

    def evaluate(self, model: dict[Var, int]) -> int:
        return sum(c * model[v] for v, c in self.coeffs) + self.const

    def holds(self, model: dict[Var, int]) -> bool:
        value = self.evaluate(model)
        if self.rel == LE:
            return value <= 0
        if self.rel == EQ:
            return value == 0
        return value != 0

    def __str__(self) -> str:
        parts = [f"{c}*{v}" for v, c in self.coeffs]
        lhs = " + ".join(parts) if parts else "0"
        return f"{lhs} + {self.const} {self.rel.replace('0', ' 0')}"


class LiaResult:
    """Outcome of a LIA check: SAT with a model, or UNSAT with a core.

    Inside the elimination the core is a bitmask over the inputs of
    :func:`solve`; :func:`solve` returns it as the tuple of those input
    constraints, an inconsistent subset of its argument.
    """

    def __init__(
        self, sat: bool, model: dict[Var, int] | None = None, core=()
    ):
        self.sat = sat
        self.model = model or {}
        self.core = core

    def __bool__(self) -> bool:
        return self.sat


def _unsat(src: int) -> LiaResult:
    return LiaResult(False, core=src)


def _gcd_all(values: Iterable[int]) -> int:
    g = 0
    for v in values:
        g = math.gcd(g, v)
    return g


def _mod_hat(a: int, m: int) -> int:
    """Symmetric residue of ``a`` modulo ``m``, in ``(-m/2, m/2]``."""
    return a - m * ((2 * a + m) // (2 * m))


def _ceil_div(a: int, b: int) -> int:
    assert b > 0
    return -((-a) // b)


def _floor_div(a: int, b: int) -> int:
    assert b > 0
    return a // b


class _Subst:
    """A recorded elimination step, replayed to rebuild the model."""

    def apply(self, model: dict[Var, int]) -> None:
        raise NotImplementedError


class _EqSubst(_Subst):
    """x := sum(coeffs) + const, from an eliminated equality."""

    def __init__(self, var: Var, coeffs: LinExpr, const: int):
        self.var = var
        self.coeffs = coeffs
        self.const = const

    def apply(self, model: dict[Var, int]) -> None:
        model[self.var] = (
            sum(c * model.get(v, 0) for v, c in self.coeffs.items()) + self.const
        )


class _BoundSubst(_Subst):
    """x was FM-eliminated; choose any integer between its bounds."""

    def __init__(
        self,
        var: Var,
        lowers: list[tuple[int, LinExpr, int]],
        uppers: list[tuple[int, LinExpr, int]],
    ):
        # lowers: (b, rest, const) meaning b*x >= -(rest + const)
        # uppers: (a, rest, const) meaning a*x <= -(rest + const)
        self.var = var
        self.lowers = lowers
        self.uppers = uppers

    def apply(self, model: dict[Var, int]) -> None:
        lo: int | None = None
        hi: int | None = None
        for b, rest, const in self.lowers:
            # -b*x + rest + const <= 0, so x >= ceil((rest + const) / b).
            value = sum(c * model.get(v, 0) for v, c in rest.items()) + const
            bound = _ceil_div(value, b)
            lo = bound if lo is None else max(lo, bound)
        for a, rest, const in self.uppers:
            value = sum(c * model.get(v, 0) for v, c in rest.items()) + const
            bound = _floor_div(-value, a)
            hi = bound if hi is None else min(hi, bound)
        if lo is None and hi is None:
            model[self.var] = 0
        elif lo is None:
            model[self.var] = min(hi, 0)
        elif hi is None:
            model[self.var] = max(lo, 0)
        else:
            assert lo <= hi, "shadow guaranteed a nonempty interval"
            candidate = max(lo, min(hi, 0))
            model[self.var] = candidate


_solve_cache: dict[frozenset, LiaResult] = {}
_SOLVE_CACHE_LIMIT = 200_000


def solve(constraints: list[Constraint]) -> LiaResult:
    """Decide a conjunction of LIA constraints: a model if SAT, else a core.

    The core of an UNSAT result is a tuple of input constraints that is
    itself inconsistent.  Results are memoised: the DPLL(T) loop and
    equality probing repeatedly decide overlapping systems, and a cached
    core stays valid because the key is the constraint set.
    """
    key = frozenset(constraints)
    cached = _solve_cache.get(key)
    if cached is not None:
        return cached
    tagged = [
        Constraint(c.coeffs, c.const, c.rel, 1 << i)
        for i, c in enumerate(constraints)
    ]
    eqs = [c for c in tagged if c.rel == EQ]
    les = [c for c in tagged if c.rel == LE]
    nes = [c for c in tagged if c.rel == NE]
    result = _solve_with_ne(eqs, les, nes)
    if not result:
        mask = result.core
        result = LiaResult(
            False,
            core=tuple(c for i, c in enumerate(constraints) if mask >> i & 1),
        )
    if len(_solve_cache) >= _SOLVE_CACHE_LIMIT:
        _solve_cache.clear()
    _solve_cache[key] = result
    return result


def _solve_with_ne(
    eqs: list[Constraint], les: list[Constraint], nes: list[Constraint]
) -> LiaResult:
    if not nes:
        return _solve_eq_le(eqs, les)
    head, rest = nes[0], nes[1:]
    # expr != 0 splits into expr <= -1 or expr >= 1.
    left = Constraint(head.coeffs, head.const + 1, LE, head.src)
    result = _solve_with_ne(eqs, les + [left], rest)
    if result:
        return result
    if not result.core & head.src:
        # The left branch failed without the split: so does the system.
        return result
    negated = tuple((v, -c) for v, c in head.coeffs)
    right = Constraint(negated, -head.const + 1, LE, head.src)
    other = _solve_with_ne(eqs, les + [right], rest)
    if other:
        return other
    return _unsat(result.core | other.core)


def _solve_eq_le(eqs: list[Constraint], les: list[Constraint]) -> LiaResult:
    subs: list[_Subst] = []
    result = _eliminate(eqs, les, subs)
    if not result:
        return result
    model = dict(result.model)
    for step in reversed(subs):
        step.apply(model)
    return LiaResult(True, model)


def _normalize_le(c: Constraint) -> Constraint | None:
    """GCD-tighten an inequality.  None means tautology; raises nothing."""
    expr = c.expr()
    if not expr:
        return None if c.const <= 0 else c
    g = _gcd_all(expr.values())
    if g > 1:
        # sum(c*x) <= -const  =>  sum(c/g * x) <= floor(-const / g)
        expr = {v: k // g for v, k in expr.items()}
        return Constraint.make(expr, -_floor_div(-c.const, g), LE, c.src)
    return c


def _eliminate(
    eqs: list[Constraint], les: list[Constraint], subs: list[_Subst]
) -> LiaResult:
    budget.checkpoint()
    # --- equality elimination ---------------------------------------------
    eqs = list(eqs)
    les = list(les)
    while eqs:
        eq = eqs.pop()
        expr = eq.expr()
        if not expr:
            if eq.const != 0:
                return _unsat(eq.src)
            continue
        g = _gcd_all(expr.values())
        if eq.const % g != 0:
            return _unsat(eq.src)
        if g > 1:
            expr = {v: c // g for v, c in expr.items()}
            eq = Constraint.make(expr, eq.const // g, EQ, eq.src)
        src = eq.src
        unit = next((v for v, c in expr.items() if abs(c) == 1), None)
        if unit is not None:
            a = expr[unit]
            # unit*a + rest + const = 0  =>  unit = -(rest + const)/a
            coeffs = {v: -c // a for v, c in expr.items() if v is not unit}
            const = -eq.const // a
            subs.append(_EqSubst(unit, coeffs, const))
            eqs = [_substitute(c, unit, coeffs, const, src) for c in eqs]
            les = [_substitute(c, unit, coeffs, const, src) for c in les]
            continue
        # Pugh's symmetric-modulus elimination for non-unit coefficients.
        k = min(expr, key=lambda v: abs(expr[v]))
        m = abs(expr[k]) + 1
        sigma = ("_lia_sigma", len(subs), id(eq))
        hat = {v: _mod_hat(c, m) for v, c in expr.items()}
        hat_const = _mod_hat(eq.const, m)
        # sum(hat)*x + hat_const = m * sigma, and hat[k] == -sign(expr[k]).
        sign = 1 if expr[k] > 0 else -1
        assert hat[k] == -sign
        # Solve for x_k:  x_k = sign * (sum_{v!=k} hat_v x_v + hat_const - m*sigma)
        coeffs = {v: sign * c for v, c in hat.items() if v is not k}
        coeffs[sigma] = -sign * m
        const = sign * hat_const
        subs.append(_EqSubst(k, coeffs, const))
        eqs = [_substitute(c, k, coeffs, const, src) for c in eqs]
        les = [_substitute(c, k, coeffs, const, src) for c in les]
        eqs.append(_substitute(eq, k, coeffs, const, src))
    # --- inequality elimination ---------------------------------------------
    return _eliminate_ineqs(les, subs)


def _substitute(
    c: Constraint, var: Var, coeffs: LinExpr, const: int, src: int
) -> Constraint:
    """``c`` with ``var := coeffs + const``, an equality with provenance ``src``."""
    expr = c.expr()
    factor = expr.pop(var, 0)
    if factor == 0:
        return c
    for v, k in coeffs.items():
        expr[v] = expr.get(v, 0) + factor * k
    return Constraint.make(expr, c.const + factor * const, c.rel, c.src | src)


def _eliminate_ineqs(les: list[Constraint], subs: list[_Subst]) -> LiaResult:
    # Normalise, drop tautologies, detect ground contradictions.
    work: list[Constraint] = []
    for c in les:
        c2 = _normalize_le(c)
        if c2 is None:
            continue
        if not c2.coeffs:
            if c2.const > 0:
                return _unsat(c2.src)
            continue
        work.append(c2)
    work = list(dict.fromkeys(work))
    if not work:
        return LiaResult(True, {})

    variables = set()
    for c in work:
        variables |= c.variables()

    # Choose the variable minimising the FM blow-up.
    def cost(v: Var) -> tuple[int, int]:
        nl = sum(1 for c in work if dict(c.coeffs).get(v, 0) < 0)
        nu = sum(1 for c in work if dict(c.coeffs).get(v, 0) > 0)
        exact = all(
            abs(dict(c.coeffs).get(v, 0)) <= 1 for c in work
        )
        return (0 if exact else 1, nl * nu)

    var = min(variables, key=cost)

    lowers: list[tuple[int, LinExpr, int]] = []  # (b, rest, const): -b*x + rest + const <= 0
    uppers: list[tuple[int, LinExpr, int]] = []  # (a, rest, const): a*x + rest + const <= 0
    lower_src: list[int] = []
    upper_src: list[int] = []
    others: list[Constraint] = []
    for c in work:
        expr = c.expr()
        a = expr.pop(var, 0)
        if a == 0:
            others.append(c)
        elif a > 0:
            uppers.append((a, expr, c.const))
            upper_src.append(c.src)
        else:
            lowers.append((-a, expr, c.const))
            lower_src.append(c.src)

    if not lowers or not uppers:
        # Unbounded in one direction: any consistent assignment extends.
        subs.append(_BoundSubst(var, lowers, uppers))
        return _eliminate_ineqs(others, subs)

    exact = all(a == 1 for a, _, _ in uppers) or all(b == 1 for b, _, _ in lowers)
    shadow: list[Constraint] = list(others)
    dark: list[Constraint] = list(others)
    for (a, ru, cu), su in zip(uppers, upper_src):
        for (b, rl, cl), sl in zip(lowers, lower_src):
            # From a*x <= -(ru+cu) and b*x >= (rl+cl) ... combine:
            expr: LinExpr = {}
            for v, k in ru.items():
                expr[v] = expr.get(v, 0) + b * k
            for v, k in rl.items():
                expr[v] = expr.get(v, 0) + a * k
            const = b * cu + a * cl
            src = su | sl
            shadow.append(Constraint.make(expr, const, LE, src))
            dark.append(
                Constraint.make(dict(expr), const + (a - 1) * (b - 1), LE, src)
            )

    if exact:
        subs.append(_BoundSubst(var, lowers, uppers))
        return _eliminate_ineqs(shadow, subs)

    # Substitutions replay in reverse, so var's bound-substitution must be
    # appended *before* the recursive call records the variables it depends on.
    dark_subs: list[_Subst] = list(subs)
    dark_subs.append(_BoundSubst(var, lowers, uppers))
    dark_result = _eliminate_ineqs(dark, dark_subs)
    if dark_result:
        subs[:] = dark_subs
        return dark_result

    real_result = _eliminate_ineqs(shadow, list(subs))
    if not real_result:
        return real_result

    # Splinters: the real shadow is satisfiable but the dark shadow is not.
    # The system is infeasible only if every splinter is, so the core is
    # the union of the dark shadow's and every splinter's.  The budget
    # checkpoint in _eliminate bounds a long enumeration: it ends as
    # UNKNOWN, never as UNSAT.
    core = dark_result.core
    a_max = max(a for a, _, _ in uppers)
    for (b, rl, cl), sl in zip(lowers, lower_src):
        limit = (a_max * b - a_max - b) // a_max
        for i in range(limit + 1):
            # b*x = (rl + cl) + i   i.e.  b*x - rl - cl - i = 0
            expr = {v: -k for v, k in rl.items()}
            expr[var] = expr.get(var, 0) + b
            eq = Constraint.make(expr, -cl - i, EQ, sl)
            trial_subs: list[_Subst] = list(subs)
            result = _eliminate([eq], work, trial_subs)
            if result:
                subs[:] = trial_subs
                return result
            core |= result.core
    return _unsat(core)


# ---------------------------------------------------------------------------
# Convenience checks used by the theory combination layer
# ---------------------------------------------------------------------------


def eq_core(
    constraints: list[Constraint], x: Var, y: Var
) -> tuple[Constraint, ...] | None:
    """The constraints that force ``x == y``, or None if they do not.

    The union of the two failing probes' cores, minus the probes: a
    subset of ``constraints`` that entails the equality by itself.
    """
    lt = Constraint.make({x: 1, y: -1}, 1, LE)  # x - y <= -1
    below = solve(constraints + [lt])
    if below:
        return None
    gt = Constraint.make({x: -1, y: 1}, 1, LE)  # y - x <= -1
    above = solve(constraints + [gt])
    if above:
        return None
    probes = (lt, gt)
    return tuple(
        dict.fromkeys(c for c in below.core + above.core if c not in probes)
    )
