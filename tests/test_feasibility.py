"""The exact kernel against the Fraction arithmetic it replaced: the dyadic
conversion and the exact products x_i (M x)_i give the same rationals, and
Fourier-Motzkin over integer rows gives the same point, or None, on every
system."""

from fractions import Fraction
from itertools import product
from typing import Optional

import numpy as np
import pytest

from pmkit import classify
from pmkit.feasibility import _dyadic, exact_products, feasible_point
from pmkit.generators import GenSpec, generate


# The elimination as it stood over `Fraction`s: each constraint normalized
# by its first nonzero coefficient, combined as lc + uc.  The library must
# return exactly its points.


def _reference_dedup(constraints):
    seen = set()
    out = []
    for coeffs, const in constraints:
        if all(c == 0 for c in coeffs):
            if const < 0:
                return [((), Fraction(-1))]  # infeasible marker: -1 >= 0
            continue
        scale = next(abs(c) for c in coeffs if c != 0)
        key = (tuple(c / scale for c in coeffs), const / scale)
        if key not in seen:
            seen.add(key)
            out.append((key[0], key[1]))
    return out


def _reference_solve(constraints, nvars: int) -> Optional[tuple]:
    if nvars == 0:
        for coeffs, const in constraints:
            if const < 0:
                return None
        return ()
    j = nvars - 1
    lowers, uppers, passthrough = [], [], []
    for coeffs, const in constraints:
        a = coeffs[j] if len(coeffs) > j else Fraction(0)
        if a > 0:
            lowers.append((tuple(c / a for c in coeffs[:j]), const / a))
        elif a < 0:
            uppers.append((tuple(c / (-a) for c in coeffs[:j]), const / (-a)))
        else:
            passthrough.append((tuple(coeffs[:j]), const))
    combined = list(passthrough)
    for lc, lconst in lowers:
        for uc, uconst in uppers:
            coeffs = tuple(a + b for a, b in zip(lc, uc)) if j else ()
            combined.append((coeffs, lconst + uconst))
    combined = _reference_dedup(combined)
    if combined and combined[0][0] == ():
        return None
    inner = _reference_solve(combined, j)
    if inner is None:
        return None
    lo = hi = None
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
            return None
        x = (lo + hi) / 2
    elif lo is not None:
        x = lo + 1
    elif hi is not None:
        x = hi - 1
    else:
        x = Fraction(0)
    return inner + (x,)


def _reference_feasible_point(rows, consts):
    constraints = _reference_dedup([(tuple(Fraction(float(v)) for v in row), Fraction(float(c)))
                                    for row, c in zip(rows, consts)])
    if constraints and constraints[0][0] == ():
        return None
    return _reference_solve(constraints, len(rows[0]) if rows else 0)


def _same(rows, consts):
    got = feasible_point(rows, consts)
    want = _reference_feasible_point(rows, consts)
    assert got == want
    assert got is None or all(type(v) is Fraction for v in got)
    return got


def _matrices(n: int):
    """Seeded triangular (up to a cyclic permutation), arbitrary and small
    integer matrices."""
    rng = np.random.default_rng(n)
    shift = np.roll(np.eye(n), 1, axis=1)
    for seed in range(6):
        arb = generate(GenSpec("arbitrary", n, seed=seed))
        yield arb
        yield shift @ np.triu(arb) @ shift.T
        yield rng.integers(-4, 5, (n, n)).astype(float)


def _orthant_systems():
    """The rows of every orthant system that column sufficiency decides
    exactly, with and without a violation position."""
    for n in (2, 3):
        for mat in _matrices(n):
            for signs in product((1, -1), repeat=n):
                for i in (None,) + tuple(range(n)):
                    a_ub, b_ub = classify._reversal_cone(mat, signs, i)
                    yield list(-a_ub), list(b_ub)


class TestAgainstReferenceElimination:
    def test_orthant_systems(self):
        feasible = infeasible = 0
        for rows, consts in _orthant_systems():
            if _same(rows, consts) is None:
                infeasible += 1
            else:
                feasible += 1
        assert feasible > 100 and infeasible > 100

    @pytest.mark.parametrize("const", [-1.0, 0.0])
    def test_zero_coefficient_row(self, const):
        rows = [[1.0, -2.0], [0.0, 0.0], [-1.0, 0.5]]
        consts = [3.0, const, 4.0]
        point = _same(rows, consts)
        assert (point is None) == (const < 0)

    def test_negative_zero(self):
        _same([[-0.0, 1.0], [1.0, -0.0], [-0.0, -0.0]], [-0.0, 2.0, -0.0])
        _same([[-0.0, -1.0], [-1.0, 0.0]], [-0.0, 0.0])

    def test_wide_exponents_in_one_row(self):
        big, tiny = 2.0 ** 1000, 2.0 ** -1000
        point = _same([[big, tiny], [-1.0, -tiny], [0.0, 1.0]], [tiny, big, -3.0])
        assert point is not None
        _same([[big, -tiny]], [tiny])

    def test_proportional_duplicates(self):
        rows = [[1.0, 2.0], [0.5, 1.0], [3.0, 6.0], [-1.0, 0.25], [-4.0, 1.0], [0.0, -1.0]]
        consts = [1.0, 0.5, 3.0, 2.0, 8.0, 5.0]
        assert _same(rows, consts) is not None

    def test_empty_system(self):
        assert _same([], []) == ()

    @pytest.mark.parametrize("rows, consts", [
        ([[1.0, 2.0], [1.0]], [0.0, 0.0]),
        ([[1.0], [1.0, 2.0]], [0.0, 0.0]),
        ([[1.0, 2.0]], [0.0, 1.0]),
        ([[1.0, 2.0], [3.0, 4.0]], [0.0]),
    ])
    def test_ragged_input_rejected(self, rows, consts):
        with pytest.raises(ValueError):
            feasible_point(rows, consts)


TINY = 5e-324  # the smallest subnormal


def _fraction_products(m, x):
    """x_i (M x)_i over Fractions, as `exact_products` stood before."""
    xs = [Fraction(float(v)) for v in x]
    rows = [[Fraction(float(v)) for v in row] for row in m]
    return [xs[i] * sum((rows[i][j] * xs[j] for j in range(len(xs))), Fraction(0)) for i in range(len(xs))]


def _wide(rng, shape):
    """Normal entries, each scaled by 2^k for k in -1000..1000, with zero
    and subnormal entries."""
    out = rng.standard_normal(shape) * np.exp2(rng.integers(-1000, 1001, shape))
    out[rng.random(shape) < 0.15] = 0.0
    sub = rng.random(shape) < 0.1
    out[sub] = rng.integers(-2**40, 2**40, shape)[sub] * TINY
    return out


def _product_inputs():
    """Seeded (m, x) at n = 1..40: entrywise wide exponents, one whole-array
    scale of 2^1000 or 2^-1000 each, and all-subnormal x."""
    for n in range(1, 41):
        rng = np.random.default_rng(n)
        yield _wide(rng, (n, n)), _wide(rng, n)
        yield rng.standard_normal((n, n)) * 2.0 ** 1000, rng.standard_normal(n) * 2.0 ** -1000
        yield rng.standard_normal((n, n)) * 2.0 ** -1000, rng.integers(-3, 4, n) * TINY


def _is_power_of_two(d: int) -> bool:
    return d > 0 and d & (d - 1) == 0


class TestDyadic:
    @pytest.mark.parametrize("values", [
        [], [0.0], [-0.0, 1.0], [0.75, -3.0, 2.0 ** -1000], [TINY, 1e308, -2.5], [2.0 ** 1000, 2.0 ** -1074],
    ])
    def test_exact_over_the_largest_denominator(self, values):
        ints, den = _dyadic(values)
        assert all(type(v) is int for v in ints)
        assert [Fraction(v, den) for v in ints] == [Fraction(v) for v in values]
        assert den == max((Fraction(v).denominator for v in values), default=1)
        assert _is_power_of_two(den)


class TestExactProducts:
    def test_equal_to_the_fraction_products(self):
        for m, x in _product_inputs():
            prods, den = exact_products(m, x)
            assert _is_power_of_two(den)
            assert all(type(p) is int for p in prods)
            assert [Fraction(p, den) for p in prods] == _fraction_products(m, x)

    def test_inputs_reach_past_2000_bits(self):
        # the wide inputs make integers no float could hold
        bits = max(max(abs(p).bit_length() for p in exact_products(m, x)[0]) for m, x in _product_inputs())
        assert bits > 2000
