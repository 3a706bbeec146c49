"""Exact rational feasibility for tiny linear inequality systems.

Fourier-Motzkin elimination over `fractions.Fraction`.  Float inputs are
converted exactly (every float is a rational), so feasibility decisions
carry no rounding error.  Only intended for a handful of variables; the
sufficiency decision procedure uses it for n <= 3.

A constraint is a pair (coeffs, const) encoding  sum_j coeffs[j] x_j +
const >= 0.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

Constraint = tuple[tuple[Fraction, ...], Fraction]


def _to_fraction_constraints(rows: Sequence[Sequence[float]], consts: Sequence[float]) -> list[Constraint]:
    out = []
    for row, c in zip(rows, consts):
        out.append((tuple(Fraction(float(v)) for v in row), Fraction(float(c))))
    return out


def _dedup(constraints: list[Constraint]) -> list[Constraint]:
    seen = set()
    out = []
    for coeffs, const in constraints:
        if all(c == 0 for c in coeffs):
            if const < 0:
                return [((), Fraction(-1))]  # infeasible marker: -1 >= 0
            continue
        # normalize by the first nonzero coefficient's absolute value
        scale = next(abs(c) for c in coeffs if c != 0)
        key = (tuple(c / scale for c in coeffs), const / scale)
        if key not in seen:
            seen.add(key)
            out.append((key[0], key[1]))
    return out


def feasible_point(rows: Sequence[Sequence[float]], consts: Sequence[float]) -> Optional[tuple[Fraction, ...]]:
    """Exact rational point satisfying all constraints, or None.

    Eliminates the last variable first; back-substitution picks interval
    midpoints so the returned point sits strictly inside whenever the
    region has interior.
    """
    constraints = _dedup(_to_fraction_constraints(rows, consts))
    if constraints and constraints[0][0] == ():
        return None
    nvars = len(rows[0]) if rows else 0
    return _solve(constraints, nvars)


def _solve(constraints: list[Constraint], nvars: int) -> Optional[tuple[Fraction, ...]]:
    if nvars == 0:
        for coeffs, const in constraints:
            if const < 0:
                return None
        return ()

    j = nvars - 1
    lowers: list[Constraint] = []  # a > 0: x_j >= -(rest + const)/a
    uppers: list[Constraint] = []  # a < 0: x_j <= ...
    passthrough: list[Constraint] = []
    for coeffs, const in constraints:
        a = coeffs[j] if len(coeffs) > j else Fraction(0)
        reduced = (tuple(coeffs[:j]), const)
        if a > 0:
            lowers.append((tuple(c / a for c in coeffs[:j]), const / a))
        elif a < 0:
            uppers.append((tuple(c / (-a) for c in coeffs[:j]), const / (-a)))
        else:
            passthrough.append(reduced)

    combined = list(passthrough)
    for lc, lconst in lowers:
        for uc, uconst in uppers:
            # x_j >= -(lc.x + lconst)  and  -x_j >= -(uc.x + uconst)  combine to
            # (lc + uc).x + (lconst + uconst) >= 0
            coeffs = tuple(a + b for a, b in zip(lc, uc)) if j else ()
            combined.append((coeffs, lconst + uconst))
    combined = _dedup(combined)
    if combined and combined[0][0] == ():
        return None

    inner = _solve(combined, j)
    if inner is None:
        return None

    lo: Optional[Fraction] = None
    hi: Optional[Fraction] = None
    for lc, lconst in lowers:
        bound = -(sum((c * x for c, x in zip(lc, inner)), Fraction(0)) + lconst)
        if lo is None or bound > lo:
            lo = bound
    for uc, uconst in uppers:
        bound = sum((c * x for c, x in zip(uc, inner)), Fraction(0)) + uconst
        if hi is None or bound < hi:
            hi = bound

    if lo is not None and hi is not None:
        if lo > hi:
            return None  # should not happen after elimination
        x = (lo + hi) / 2
    elif lo is not None:
        x = lo + 1
    elif hi is not None:
        x = hi - 1
    else:
        x = Fraction(0)
    return inner + (x,)


def exact_products(m, x) -> list[Fraction]:
    """Componentwise x_i (M x)_i evaluated exactly over rationals."""
    n = len(x)
    xs = [Fraction(float(v)) for v in x]
    rows = [[Fraction(float(v)) for v in row] for row in m]
    out = []
    for i in range(n):
        mx = sum((rows[i][j] * xs[j] for j in range(n)), Fraction(0))
        out.append(xs[i] * mx)
    return out
