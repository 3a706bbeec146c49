"""Exact arithmetic on floats: the one dyadic conversion, the exact
reversal products, and feasibility of tiny linear inequality systems.

Each float is a dyadic rational, so floats convert exactly to integers
over one denominator, their largest, a power of two (`_dyadic`).
`exact_products` gives x_i (M x)_i as integers over one such denominator,
so callers decide signs and margins in ints, with no rounding.

Fourier-Motzkin elimination runs over primitive integer rows: a
constraint is converted by `_dyadic`, then divided by the gcd of its
entries.  Two constraints are positive multiples of each other exactly
when their primitive rows are equal, which is the dedupe key, and
eliminating x_j combines a lower row L (a_l > 0) with an upper row U
(a_u < 0) as (-a_u) L + a_l U, again made primitive.  Back-substitution
runs in `fractions.Fraction`, so feasibility decisions and the returned
point carry no rounding error.  Only intended for a handful of variables;
the sufficiency decision procedure uses it for n <= 3.

A constraint is a pair (coeffs, const) encoding  sum_j coeffs[j] x_j +
const >= 0.  Internally a row is one tuple of ints, coeffs then const,
and keeps its width through elimination.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence

import numpy as np

Row = tuple[int, ...]


def _dyadic(values: Sequence[float]) -> tuple[Row, int]:
    """(ints, den) with values[i] == ints[i] / den exactly: den is the
    largest denominator of the floats, a power of two, so every other
    denominator divides it (1 for no values)."""
    ratios = [float(v).as_integer_ratio() for v in values]
    den = max((d for _, d in ratios), default=1)
    return tuple(p * (den // d) for p, d in ratios), den


def _dedup(rows: list[Row]) -> Optional[list[Row]]:
    """Primitive rows in first-seen order, one per ray; rows with all
    coefficients zero are dropped, or give None when their constant is
    negative (the system is infeasible)."""
    out: dict[Row, None] = {}
    for row in rows:
        if not any(row[:-1]):
            if row[-1] < 0:
                return None
            continue
        g = gcd(*row)
        out[tuple(v // g for v in row) if g > 1 else row] = None
    return list(out)


def feasible_point(rows: Sequence[Sequence[float]], consts: Sequence[float]) -> Optional[tuple[Fraction, ...]]:
    """Exact rational point satisfying all constraints, or None.

    Eliminates the last variable first; back-substitution picks interval
    midpoints so the returned point sits strictly inside whenever the
    region has interior.  Rows of unequal length, or a constant count
    other than the row count, raise ValueError.
    """
    nvars = len(rows[0]) if len(rows) else 0
    if any(len(row) != nvars for row in rows) or len(consts) != len(rows):
        raise ValueError("feasible_point needs one constant per row and rows of equal length")
    constraints = _dedup([_dyadic(list(row) + [c])[0] for row, c in zip(rows, consts)])
    if constraints is None:
        return None
    return _solve(constraints, nvars)


def _solve(constraints: list[Row], nvars: int) -> Optional[tuple[Fraction, ...]]:
    if nvars == 0:
        return ()  # _dedup keeps only rows with a nonzero coefficient

    j = nvars - 1
    lowers = [row for row in constraints if row[j] > 0]  # x_j >= bound
    uppers = [row for row in constraints if row[j] < 0]  # x_j <= bound
    # rows keep their width: the eliminated coefficients stay as zeros
    combined = [row for row in constraints if row[j] == 0]
    for lo_row in lowers:
        for up_row in uppers:
            a_l, a_u = lo_row[j], -up_row[j]
            combined.append(tuple(a_u * lv + a_l * uv for lv, uv in zip(lo_row, up_row)))
    combined = _dedup(combined)
    if combined is None:
        return None

    inner = _solve(combined, j)
    if inner is None:
        return None

    # the bound -(sum_k c_k x_k + const) / a_j of each row, over the common
    # denominator of x_0..x_{j-1}
    den = lcm(*(x.denominator for x in inner))
    nums = [x.numerator * (den // x.denominator) for x in inner]

    def bound(row: Row) -> Fraction:
        return Fraction(-(sum(c * v for c, v in zip(row, nums)) + row[-1] * den), row[j] * den)

    lo = max(map(bound, lowers), default=None)
    hi = min(map(bound, uppers), default=None)
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


def exact_products(m, x) -> tuple[list[int], int]:
    """(p, d) with x_i (M x)_i == p[i] / d exactly for every i, d a positive
    power of two.  With M = A / a and x = X / b (`_dyadic`, one
    denominator each), p_i = X_i sum_j A_ij X_j and d = a b^2."""
    xs, b = _dyadic(np.asarray(x, dtype=float).ravel().tolist())
    a_ints, a = _dyadic(np.asarray(m, dtype=float).ravel().tolist())
    n = len(xs)
    return [xi * sum(map(mul, a_ints[i * n:(i + 1) * n], xs)) for i, xi in enumerate(xs)], a * b * b
