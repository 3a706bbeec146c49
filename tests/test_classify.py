"""Class-membership tests: P / P0 / Z / positive stable / sufficiency."""

import math
import warnings
from fractions import Fraction
from itertools import combinations, count, product

import numpy as np
import pytest

from pmkit import classify, feasibility, linalg
from pmkit.classify import NO, UNKNOWN, YES
from pmkit.errors import DimensionTooLargeError, PreconditionViolatedError
from pmkit.generators import CLASS_TAGS, GenSpec, generate
from pmkit.tolerances import DEFAULT_TOL, Tolerances

EXAMPLE = np.array([[-1.0, -1.0], [4.0, 3.0]])  # not P, spectrum {1,1}

# P-matrix with two eigenvalues in the open left half-plane (verified in
# TestNotPositiveStableFixture): the key witness that P does not imply
# positive stability.
P_NOT_STABLE = np.array(
    [
        [0.13, 0.08, -2.24],
        [-2.24, 0.03, -0.12],
        [0.02, 2.24, 0.09],
    ]
)


class TestIsPMinors:
    def test_worked_example_witness(self):
        verdict, witness = classify.is_P_minors(EXAMPLE)
        assert verdict == NO
        assert witness == (1,)

    def test_identity(self):
        assert classify.is_P_minors(np.eye(4))[0] == YES

    def test_hand_minors(self):
        # minors 2, 2, 3 all positive
        assert classify.is_P_minors([[2.0, -1.0], [-1.0, 2.0]])[0] == YES

    def test_first_violating_set_in_shortlex_order(self):
        # minors: {1}: 1 > 0, {2}: -1 < 0, {1,2}: -1 < 0; shortlex visits
        # singletons first, so the witness is (2,).
        m = np.array([[1.0, 0.0], [0.0, -1.0]])
        verdict, witness = classify.is_P_minors(m)
        assert verdict == NO
        assert witness == (2,)

    def test_dimension_cap(self):
        with pytest.raises(DimensionTooLargeError):
            classify.is_P_minors(np.eye(13))

    def test_p0_boundary(self):
        assert classify.is_P0_minors(np.diag([1.0, 0.0]))[0] == YES
        assert classify.is_P0_minors(np.diag([1.0, -1.0]))[0] == NO
        # minors: singletons 0, 1, 1; {1,2}: 0, {1,3}: -6, {2,3}: 1,
        # {1,2,3}: -6.  P0 fails at {1,3} and {1,2,3}, shortlex reports
        # {1,3}; P already fails at the zero 1x1 minor.
        m = np.array([[0.0, 0.0, 2.0], [0.0, 1.0, 0.0], [3.0, 0.0, 1.0]])
        assert classify.is_P0_minors(m) == (NO, (1, 3))
        assert classify.is_P_minors(m) == (NO, (1,))


def shortlex(n):
    """Every nonempty 0-based subset of range(n), smallest size first and
    lexicographic within each size."""
    return [sel for k in range(1, n + 1) for sel in combinations(range(n), k)]


class TestLexIndexSets:
    """The shortlex index-set sweep, `principal_stacks`."""

    def test_submatrix_sweep_follows_it_0_based(self):
        m = np.arange(16.0).reshape(4, 4)
        for idx, stack in linalg.principal_stacks(m):
            for sel, sub in zip(idx, stack):
                np.testing.assert_array_equal(sub, linalg.principal_submatrix(m, [int(i) + 1 for i in sel]))


class TestBatchedSweep:
    @staticmethod
    def reference_sweep(m, strict):
        """One determinant per index set, in shortlex order."""
        norm = linalg.inf_norm(m)
        for sel in shortlex(m.shape[0]):
            minor = float(np.linalg.det(m[np.ix_(sel, sel)]))
            thr = DEFAULT_TOL.minor_for(norm, len(sel))
            if (minor <= thr) if strict else (minor < -thr):
                return NO, tuple(i + 1 for i in sel)
        return YES, None

    @staticmethod
    def planted(n, cycles, rng):
        """Unit diagonal, small noise, and a -2 cycle on each index set:
        the cycle's own minor is 1 - 2^k < 0, its proper subsets are ~1."""
        m = np.eye(n) + rng.uniform(-0.01, 0.01, (n, n))
        for alpha in cycles:
            for a, b in zip(alpha, alpha[1:] + alpha[:1]):
                m[a - 1, b - 1] = -2.0
        return m

    def batch(self):
        rng = np.random.default_rng(41)
        mats = [rng.uniform(-1.0, 1.0, (n, n)) for n in range(1, 8) for _ in range(6)]
        mats += [generate(GenSpec(tag, n, seed=s)) for tag in ("P-diagdom", "M-matrix", "sym-PD", "non-P", "Z")
                 for n in (1, 3, 6, 9) for s in range(2)]
        plants = ([(2, 5)], [(3, 4)], [(1, 6, 8)], [(2, 5, 7), (1, 6, 8)], [(3, 4, 7, 8)],
                  [(2, 3, 5, 6, 8)], [(4, 5)], [(1, 2, 3, 4, 5, 6, 7, 8)])
        mats += [self.planted(8, cycles, rng) for cycles in plants]
        return mats

    def test_same_verdict_and_witness_as_per_subset_loop(self):
        sizes, positions = set(), set()
        for m in self.batch():
            for fn, strict in ((classify.is_P_minors, True), (classify.is_P0_minors, False)):
                got = fn(m)
                assert got == self.reference_sweep(m, strict)
                if got[1] is not None:
                    sizes.add(len(got[1]))
                    positions.add(got[1])
        assert {1, 2, 3, 4, 5, 8} <= sizes
        assert {(2, 5), (3, 4), (4, 5), (1, 6, 8)} <= positions

    def test_stacks_in_shortlex_order(self):
        for n in range(1, 5):
            m = np.arange(float(n * n)).reshape(n, n)
            stacks = list(linalg.principal_stacks(m))
            assert [idx.shape[1] for idx, _ in stacks] == list(range(1, n + 1))
            rows = [tuple(int(i) for i in row) for idx, _ in stacks for row in idx]
            assert rows == shortlex(n)
            for idx, stack in stacks:
                k = idx.shape[1]
                assert idx.dtype == np.intp and idx.shape == (math.comb(n, k), k)
                assert stack.shape == (idx.shape[0], k, k)
                for sel, sub in zip(idx, stack):
                    np.testing.assert_array_equal(sub, m[np.ix_(sel, sel)])


class TestSubmatrixEigenOracle:
    def test_worked_example(self):
        assert classify.is_P_submatrix_eigen(EXAMPLE) == NO

    def test_diagonal(self):
        assert classify.is_P_submatrix_eigen(np.diag([1.0, 2.0, 3.0])) == YES

    def test_rotation_zero_eigenvalue_submatrix(self):
        assert classify.is_P_submatrix_eigen([[0.0, -1.0], [1.0, 0.0]]) == NO

    @pytest.mark.parametrize("scale", [1e155, 1e200])
    def test_negative_eigenvalue_past_the_overflow_scale(self, scale):
        # eigenvalues 3 * scale and -scale; the 2x2 closed form gave NaN
        # there, which the realness test skipped, and the oracle said "yes"
        m = scale * np.array([[1.0, 2.0], [2.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert classify.is_P_submatrix_eigen(m) == NO
            assert classify.is_P_minors(m) == (NO, (1, 2))

    def test_agrees_with_minors_on_random(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            m = rng.uniform(-1, 1, (n, n))
            assert classify.is_P_minors(m)[0] == classify.is_P_submatrix_eigen(m)

    @staticmethod
    def per_subset_oracle(m):
        """One `eigenvalues` call per index set, in shortlex order."""
        for sel in shortlex(m.shape[0]):
            sub = m[np.ix_(sel, sel)]
            thr = DEFAULT_TOL.minor_for(linalg.inf_norm(sub), 1)
            if any(v <= thr for v in linalg.eigenvalues(sub, check_residual=False).real_values()):
                return NO
        return YES

    def test_same_verdict_as_per_subset_loop(self):
        rng = np.random.default_rng(43)
        full = [generate(GenSpec(tag, n, seed=s)) for tag in ("P-diagdom", "M-matrix", "sym-PD")
                for n in range(6, 11) for s in range(2)]
        for m in full:
            assert classify.is_P_submatrix_eigen(m) == self.per_subset_oracle(m) == YES
        # a cycle planted on the last k indices: the first failure is at size k
        for n in (6, 8):
            for k in range(1, n + 1):
                cycle = tuple(range(n - k + 1, n + 1))
                m = TestBatchedSweep.planted(n, [cycle], rng)
                assert classify.is_P_minors(m) == (NO, cycle)
                assert classify.is_P_submatrix_eigen(m) == self.per_subset_oracle(m) == NO


class TestReversalWitness:
    def test_worked_example(self):
        w = classify.find_reversal_witness(EXAMPLE, seed=1)
        assert w is not None
        assert classify.products_nonpositive_exact(EXAMPLE, w)
        # the documented witness (1, -1) evaluates to products (0, -1)
        np.testing.assert_allclose(
            classify.reversal_products(EXAMPLE, [1.0, -1.0]), [0.0, -1.0]
        )

    def test_identity_has_no_witness(self):
        # x_i (Ix)_i = x_i^2 cannot all be <= 0 for x != 0
        assert classify.find_reversal_witness(np.eye(2), budget=600, seed=0) is None

    def test_nilpotent_example(self):
        m = np.array([[0.0, 0.0], [1.0, 0.0]])
        w = classify.find_reversal_witness(m, seed=2)
        assert w is not None
        assert classify.products_nonpositive_exact(m, w)
        np.testing.assert_allclose(
            classify.reversal_products(m, [1.0, -1.0]), [0.0, -1.0]
        )

    def test_witness_normalized(self):
        w = classify.find_reversal_witness(EXAMPLE, seed=3)
        assert 0.5 < np.abs(w).max() <= 1.0 + 1e-15

    def test_witnesses_sound_on_random_non_p(self):
        rng = np.random.default_rng(31)
        found = 0
        for _ in range(60):
            n = int(rng.integers(2, 6))
            m = rng.uniform(-1, 1, (n, n))
            if classify.is_P_minors(m)[0] == YES:
                continue
            w = classify.find_reversal_witness(m, seed=int(rng.integers(10_000)))
            if w is not None:
                found += 1
                assert classify.products_nonpositive_exact(m, w)
        assert found >= 20


class TestZAndSpectralRoute:
    def test_z_examples(self):
        assert classify.is_Z([[2.0, -1.0], [-1.0, 2.0]]) == YES
        assert classify.is_Z(np.eye(3)) == YES
        assert classify.is_Z([[1.0, 1.0], [0.0, 1.0]]) == NO

    def test_z_spectrum_route(self):
        assert classify.is_P_via_Z_spectrum([[2.0, -1.0], [-1.0, 2.0]]) == YES
        assert classify.is_P_via_Z_spectrum([[0.0, -1.0], [-1.0, 0.0]]) == NO
        assert classify.is_P_via_Z_spectrum(np.eye(2)) == YES

    def test_precondition(self):
        with pytest.raises(PreconditionViolatedError):
            classify.is_P_via_Z_spectrum([[1.0, 1.0], [0.0, 1.0]])

    def test_route_agrees_with_minors_on_random_z(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            n = int(rng.integers(1, 7))
            m = -rng.uniform(0, 1, (n, n))
            np.fill_diagonal(m, rng.uniform(-0.5, 2.5, n))
            assert classify.is_P_via_Z_spectrum(m) == classify.is_P_minors(m)[0]


class TestPositiveStable:
    def test_identity(self):
        assert classify.is_positive_stable(np.eye(3)) == YES

    def test_worked_example_is_stable(self):
        # spectrum {1, 1} has positive real parts even though A is not P
        assert classify.is_positive_stable(EXAMPLE) == YES

    def test_rotation(self):
        assert classify.is_positive_stable([[0.0, -1.0], [1.0, 0.0]]) == NO


class TestNotPositiveStableFixture:
    def test_fixture_is_P(self):
        assert classify.is_P_minors(P_NOT_STABLE)[0] == YES

    def test_fixture_not_positive_stable(self):
        assert classify.is_positive_stable(P_NOT_STABLE) == NO
        spec = linalg.eigenvalues(P_NOT_STABLE)
        assert sum(1 for v in spec.values if v.real < 0) == 2


class TestColumnSufficiency:
    @pytest.mark.parametrize("n", [2, 13])
    @pytest.mark.parametrize(
        "fn",
        [classify.is_column_sufficient, classify.is_row_sufficient, classify.is_sufficient,
         classify.find_reversal_witness, classify.classify_matrix],
    )
    def test_budget_below_one_rejected_at_every_n(self, fn, n):
        m = generate(GenSpec("P-diagdom", n, seed=1))
        for budget in (0, -1):
            with pytest.raises(ValueError, match="budget must be >= 1"):
                fn(m, budget=budget)

    def test_identity(self):
        verdict, witness = classify.is_column_sufficient(np.eye(2))
        assert (verdict, witness) == (YES, None)

    def test_nilpotent_has_witness(self):
        m = np.array([[0.0, 0.0], [1.0, 0.0]])
        verdict, w = classify.is_column_sufficient(m)
        assert verdict == NO
        assert classify.products_nonpositive_exact(m, w, strict=True)

    def test_rank_deficient_diagonal(self):
        # products (x_1^2, 0): all <= 0 forces x_1 = 0, then all are 0
        assert classify.is_column_sufficient(np.diag([1.0, 0.0]))[0] == YES

    def test_negative_diagonal_refuted(self):
        verdict, w = classify.is_column_sufficient(np.diag([1.0, -1.0]))
        assert verdict == NO
        assert classify.products_nonpositive_exact(np.diag([1.0, -1.0]), w, strict=True)

    def test_row_sufficiency_via_transpose(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        verdict, w = classify.is_row_sufficient(m)
        assert verdict == NO
        assert classify.products_nonpositive_exact(m.T, w, strict=True)
        assert classify.is_row_sufficient(np.eye(2))[0] == YES
        assert classify.is_row_sufficient(np.diag([1.0, 0.0]))[0] == YES

    def test_sufficient_conjunction(self):
        assert classify.is_sufficient(np.eye(2)) == YES
        assert classify.is_sufficient(np.array([[0.0, 0.0], [1.0, 0.0]])) == NO
        assert classify.is_sufficient(np.diag([1.0, 0.0])) == YES

    def test_is_sufficient_agrees_with_classify_matrix(self):
        # both seed the row search with seed + 1; arbitrary n=4 seed 274 at
        # budget 40 once read "unknown" here and "no" in the report
        cases = [(generate(GenSpec("arbitrary", 4, seed=274)), 40, 0)]
        rng = np.random.default_rng(17)
        for _ in range(24):
            n = int(rng.integers(4, 7))
            kind = ("arbitrary", "non-P", "P-diagdom")[int(rng.integers(3))]
            m = generate(GenSpec(kind, n, seed=int(rng.integers(1000))))
            cases.append((m, int(rng.choice([1, 40, 60, 90])), int(rng.integers(5))))
        cases += [(_triangular_p(n), 40, 0) for n in (4, 5, 6)]  # "unknown" at n > 3
        verdicts = set()
        for m, budget, seed in cases:
            got = classify.is_sufficient(m, budget=budget, seed=seed)
            assert got == classify.classify_matrix(m, budget=budget, seed=seed).verdicts["sufficient"]
            verdicts.add(got)
        assert classify.is_sufficient(cases[0][0], budget=40, seed=0) == NO
        assert {NO, UNKNOWN} <= verdicts

    def test_exact_decision_on_3x3(self):
        # positive definite symmetric => column sufficient
        m = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
        assert classify.is_column_sufficient(m)[0] == YES

    def test_exact_yes_past_psd_shortcut(self):
        # upper-triangular P-matrix under a cyclic permutation: P, hence
        # sufficient, with an indefinite symmetric part, so the verdict
        # comes from the Fourier-Motzkin orthant systems
        u = np.array([[1.0, 4.0, -3.0], [0.0, 1.0, 5.0], [0.0, 0.0, 1.0]])
        perm = np.eye(3)[[2, 0, 1]]
        m = perm @ u @ perm.T
        assert classify.is_P_minors(m)[0] == YES
        assert np.linalg.eigvalsh(0.5 * (m + m.T)).min() < -1.0
        assert classify.is_column_sufficient(m) == (YES, None)
        assert classify.is_row_sufficient(m) == (YES, None)

    def test_exact_no_from_orthant_system(self):
        # seed 33 is the first integer draw whose refutation no axis
        # candidate finds: the witness comes from an orthant system
        m = np.random.default_rng(33).integers(-3, 4, (3, 3)).astype(float)
        assert np.linalg.eigvalsh(0.5 * (m + m.T)).min() < 0.0
        for cand in classify._axis_candidates(3):
            assert classify._gate_witness(m, cand, strict=True) is None
        verdict, w = classify.is_column_sufficient(m)
        assert verdict == NO
        assert classify.products_nonpositive_exact(m, w, strict=True)

    def test_large_non_csu_found_by_search(self):
        m = np.diag([1.0, 1.0, 1.0, -1.0])
        verdict, w = classify.is_column_sufficient(m, seed=5)
        assert verdict == NO
        assert classify.products_nonpositive_exact(m, w, strict=True)

    def test_psd_symmetric_part_shortcut(self):
        # PSD symmetric part certifies column sufficiency at any n
        assert classify.is_column_sufficient(np.eye(4), budget=300)[0] == YES
        assert classify.is_column_sufficient(np.diag([1.0, 0.0]))[0] == YES

    def test_large_unknown(self):
        # triangular P-matrix (so column sufficient, but no witness exists
        # and the n > 3 search cannot certify): verdict stays unknown
        m = np.eye(4)
        m[0, 1] = -3.0
        assert classify.is_P_minors(m)[0] == YES
        assert classify.is_column_sufficient(m, budget=300)[0] == UNKNOWN

    def test_p_matrices_never_refuted(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            m = rng.uniform(-1, 1, (n, n))
            np.fill_diagonal(m, np.abs(m).sum(axis=1) + 0.2)
            assert classify.is_P_minors(m)[0] == YES
            assert classify.is_column_sufficient(m, budget=400)[0] != NO
            assert classify.is_row_sufficient(m, budget=400)[0] != NO


class TestWitnessGate:
    def test_one_exact_check_per_rejected_candidate(self, monkeypatch):
        # a P-matrix has no reversal witness: every axis candidate and
        # every Gaussian draw is rejected after a single exact check
        m = generate(GenSpec("P-diagdom", 6, seed=10))
        calls = {"exact": 0, "gate": 0}
        exact, gate = feasibility.exact_products, classify._gate_witness

        def count_exact(*args):
            calls["exact"] += 1
            return exact(*args)

        def count_gate(*args, **kwargs):
            calls["gate"] += 1
            return gate(*args, **kwargs)

        monkeypatch.setattr(feasibility, "exact_products", count_exact)
        monkeypatch.setattr(classify, "_gate_witness", count_gate)
        assert classify.find_reversal_witness(m, budget=100) is None
        assert calls["gate"] == 97  # 72 axis candidates + 25 Gaussian draws
        assert calls["exact"] == calls["gate"]


def _reference_products_nonpositive_exact(m, x, strict=False, tol=DEFAULT_TOL):
    """The exact gate as it stood over Fractions: the products x_i (M x)_i
    and the margin tol.minor_for(||M||_inf, 1) * ||x||_inf^2."""
    v = [Fraction(float(t)) for t in x]
    if not any(v):
        return not strict
    prods = [v[i] * sum((Fraction(float(a)) * b for a, b in zip(row, v)), Fraction(0)) for i, row in enumerate(m)]
    if any(p > 0 for p in prods):
        return False
    if not strict:
        return True
    margin = Fraction(float(tol.minor_for(linalg.inf_norm(m), 1))) * Fraction(float(np.abs(x).max())) ** 2
    return any(p < -margin for p in prods)


def _across_margin(tol, steps=12):
    """The floats a within `steps` ulps of a = tol.minor (1 + a), where the
    product -a of diag(-a) and x = 1 meets the strict margin."""
    a0 = tol.minor / (1.0 - tol.minor)
    below, above = [a0], [a0]
    for _ in range(steps):
        below.append(np.nextafter(below[-1], 0.0))
        above.append(np.nextafter(above[-1], 1.0))
    return below[:0:-1] + above


class TestExactGate:
    TOLS = (DEFAULT_TOL, Tolerances(minor=1e-3), Tolerances(minor=0.3))

    def _gate_cases(self):
        """diag(-a) with a stepping across the strict margin, x of norm 2^k
        and 3 * 2^k for k in -1000..1000 (with a zero and a subnormal
        coordinate); then seeded wide-exponent matrices whose every product
        is <= 0 (nonpositive entries, x >= 0), and arbitrary draws."""
        for tol in self.TOLS:
            for k in (-1000, -1, 0, 500, 1000):
                for s in (2.0 ** k, 3.0 * 2.0 ** k):
                    for a in _across_margin(tol):
                        yield np.diag([-a, 1.0, -a]), np.array([s, 0.0, 5e-324]), tol
        rng = np.random.default_rng(26)
        for n in range(1, 13):
            for _ in range(6):
                m = -np.abs(rng.standard_normal((n, n))) * np.exp2(rng.integers(-500, 501, (n, n)))
                x = np.abs(rng.standard_normal(n)) * np.exp2(rng.integers(-500, 501, n))
                x[rng.random(n) < 0.2] = 0.0
                yield m, x, self.TOLS[n % 3]
                yield generate(GenSpec("arbitrary", n, seed=n)), rng.standard_normal(n), DEFAULT_TOL

    def test_same_verdicts_as_the_fraction_gate(self):
        seen = set()
        for m, x, tol in self._gate_cases():
            for strict in (False, True):
                want = _reference_products_nonpositive_exact(m, x, strict, tol)
                assert classify.products_nonpositive_exact(m, x, strict, tol) == want
                seen.add((strict, want))
        assert seen == {(False, False), (False, True), (True, False), (True, True)}

    def test_margin_decided_at_one_ulp(self):
        # the strict verdict flips between two adjacent a
        for tol in self.TOLS:
            verdicts = [classify.products_nonpositive_exact(np.diag([-a]), [1.0], True, tol)
                        for a in _across_margin(tol)]
            assert verdicts == sorted(verdicts) and verdicts[0] is False and verdicts[-1] is True


def _reference_find_reversal_witness(m, budget, seed, tol=DEFAULT_TOL):
    """The reversal search as one hand-counted loop per phase, kept to
    pin the candidate stream of `find_reversal_witness`."""
    classify._check_budget(budget)
    mat = linalg.as_matrix(m)
    n = mat.shape[0]
    spent = 0

    for cand in classify._axis_candidates(n):
        if spent >= budget:
            return None
        spent += 1
        out = classify._gate_witness(mat, cand, strict=False, tol=tol)
        if out is not None:
            return out

    rng = np.random.default_rng(seed)
    n_random = min(max(budget // 4, 16), budget - spent)
    for _ in range(max(n_random, 0)):
        spent += 1
        out = classify._gate_witness(mat, rng.standard_normal(n), strict=False, tol=tol)
        if out is not None:
            return out

    if n <= classify.REVERSAL_LP_MAX_DIM:
        for signs in product((1.0, -1.0), repeat=n):
            if spent >= budget:
                return None
            spent += 1
            x = classify._orthant_reversal_point(mat, np.array(signs))
            if x is None:
                continue
            out = classify._gate_witness(mat, x, strict=False, tol=tol)
            if out is not None:
                return out
    return None


def _reference_is_column_sufficient(m, budget, seed, tol=DEFAULT_TOL):
    """The sufficiency search as one hand-counted loop per phase, kept to
    pin the candidate stream of `is_column_sufficient`."""
    classify._check_budget(budget)
    mat = linalg.as_matrix(m)
    n = mat.shape[0]
    spent = 0

    sym_min = float(np.linalg.eigvalsh(0.5 * (mat + mat.T)).min())
    if sym_min >= -tol.minor_for(linalg.inf_norm(mat), 1) / n:
        return YES, None

    for cand in classify._axis_candidates(n):
        spent += 1
        out = classify._gate_witness(mat, cand, strict=True, tol=tol)
        if out is not None:
            return NO, out

    if n <= classify.EXACT_SUFFICIENCY_MAX_DIM:
        for signs in product((1, -1), repeat=n):
            for i in range(n):
                a_ub, b_ub = classify._reversal_cone(mat, signs, i)
                point = feasibility.feasible_point(list(-a_ub), list(b_ub))
                if point is None:
                    continue
                x = np.array([float(v) for v in point])
                out = classify._gate_witness(mat, x, strict=True, tol=tol)
                if out is not None:
                    return NO, out
                x = classify._csu_violation_lp_max(mat, signs, i)
                if x is not None:
                    out = classify._gate_witness(mat, x, strict=True, tol=tol)
                    if out is not None:
                        return NO, out
        return YES, None

    rng = np.random.default_rng(seed)
    n_random = max(budget // 2, 16)
    for _ in range(n_random):
        if spent >= budget:
            break
        spent += 1
        out = classify._gate_witness(mat, rng.standard_normal(n), strict=True, tol=tol)
        if out is not None:
            return NO, out

    pattern_pool = list(product((1, -1), repeat=n)) if n <= classify.REVERSAL_LP_MAX_DIM else []
    rng.shuffle(pattern_pool)
    for signs in pattern_pool:
        for i in range(n):
            if spent >= budget:
                return UNKNOWN, None
            spent += 1
            x = classify._lp_point(np.zeros(n), *classify._reversal_cone(mat, signs, i))
            if x is None:
                continue
            out = classify._gate_witness(mat, x, strict=True, tol=tol)
            if out is not None:
                return NO, out
    return UNKNOWN, None


def _phase_budgets(n: int, share: int) -> list:
    """Budget 1, the end of the 2n^2 axis phase and one past it, and the
    budgets around the end of the random phase, which draws
    max(budget // share, 16) points."""
    axis = 2 * n * n
    end = next(b for b in count(axis) if b - axis >= max(b // share, 16))
    return sorted({1, axis, axis + 1, end - 1, end, end + 1})


def _cyclic(n: int, a: float) -> np.ndarray:
    """I + a C for the cyclic shift C, plus a seeded perturbation: every
    1x1 and 2x2 minor is near 1, so no axis candidate refutes it, and its
    witnesses (when it has any) come from the random or LP phases."""
    rng = np.random.default_rng(n)
    return np.eye(n) + a * np.roll(np.eye(n), 1, axis=1) + 0.05 * rng.uniform(-1, 1, (n, n))


def _triangular_p(n: int) -> np.ndarray:
    """A permuted unit upper-triangular P-matrix with an indefinite
    symmetric part: no witness, so every phase runs to its end."""
    rng = np.random.default_rng(100 + n)
    perm = np.eye(n)[rng.permutation(n)]
    return perm @ (np.eye(n) + np.triu(rng.uniform(-4, 4, (n, n)), 1)) @ perm.T


def _search_batch(n: int) -> list:
    return [generate(GenSpec("arbitrary", n, seed=n)), _cyclic(n, -3.0), _cyclic(n, 3.0), _triangular_p(n)]


def _same(got, want) -> bool:
    if isinstance(got, tuple):
        return got[0] == want[0] and _same(got[1], want[1])
    if got is None or want is None:
        return got is want
    return got.dtype == want.dtype and np.array_equal(got, want)


class TestSearchStreams:
    """The candidate-stream searches against the phase-by-phase loops they
    replace, at every phase boundary: the same candidates reach the gate
    in the same order, and the same verdicts and witness bits come out."""

    @staticmethod
    def _record_gate(monkeypatch):
        # a gate that rejects everything and records what it was offered
        seen = []

        def record(mat, x, strict, tol=DEFAULT_TOL):
            seen.append((strict, x.tobytes()))
            return None

        monkeypatch.setattr(classify, "_gate_witness", record)
        return seen

    @pytest.mark.parametrize("n", range(2, 14))
    def test_reversal_stream_matches_reference(self, monkeypatch, n):
        seen = self._record_gate(monkeypatch)
        for m in _search_batch(n):
            for budget in _phase_budgets(n, 4):
                assert classify.find_reversal_witness(m, budget=budget, seed=n) is None
                got = seen[:]
                seen.clear()
                assert _reference_find_reversal_witness(m, budget, n) is None
                assert got == seen and len(got) <= budget
                seen.clear()

    @pytest.mark.parametrize("n", range(2, 14))
    def test_sufficiency_stream_matches_reference(self, monkeypatch, n):
        seen = self._record_gate(monkeypatch)
        # the exact n <= 3 decision does not read the budget past its check
        budgets = _phase_budgets(n, 2) if n > classify.EXACT_SUFFICIENCY_MAX_DIM else [1]
        for m in _search_batch(n):
            for budget in budgets:
                got = classify.is_column_sufficient(m, budget=budget, seed=n), seen[:]
                seen.clear()
                assert got == (_reference_is_column_sufficient(m, budget, n), seen)
                seen.clear()

    # with the real gate a search with no witness pays one exact check per
    # candidate, so the witness bits are compared at n <= 6 and at three
    # budgets: 1, one past the axis phase and one past the random phase
    @pytest.mark.parametrize("n", range(2, 7))
    def test_reversal_search_matches_reference(self, n):
        found = 0
        for m in _search_batch(n)[:3]:
            for budget in (1, 2 * n * n + 1, _phase_budgets(n, 4)[-1]):
                got = classify.find_reversal_witness(m, budget=budget, seed=n)
                assert _same(got, _reference_find_reversal_witness(m, budget, n)), budget
                found += got is not None
        assert found > 0

    @pytest.mark.parametrize("n", range(2, 7))
    def test_sufficiency_search_matches_reference(self, n):
        verdicts = set()
        for m in _search_batch(n)[:3]:
            for budget in (1, 2 * n * n + 1, _phase_budgets(n, 2)[-1]):
                for mat in (m, m.T):  # column and row sufficiency
                    got = classify.is_column_sufficient(mat, budget=budget, seed=n)
                    assert _same(got, _reference_is_column_sufficient(mat, budget, n)), budget
                    verdicts.add(got[0])
        assert NO in verdicts

    @pytest.mark.parametrize("n", [4, 7])
    @pytest.mark.parametrize("left", [1, 5, 16])
    def test_lp_solves_equal_the_budget_left(self, monkeypatch, n, left):
        # no witness exists, so every LP the budget leaves after the axis
        # and random phases is solved, and not one more
        m = _triangular_p(n)
        axis = 2 * n * n
        solves = []
        lp_point = classify._lp_point

        def spy(*args):
            solves.append(1)
            return lp_point(*args)

        monkeypatch.setattr(classify, "_lp_point", spy)
        for share, search in ((4, classify.find_reversal_witness), (2, classify.is_column_sufficient)):
            budget = next(b for b in count(axis) if b - axis - max(b // share, 16) == left)
            solves.clear()
            assert search(m, budget=budget) in (None, (UNKNOWN, None))
            assert len(solves) == left


class TestPowers:
    def test_identity(self):
        rpt = classify.powers_P_check(np.eye(2), 3)
        assert rpt.verdicts == (YES, YES, YES)
        assert rpt.eigenvalues_all_positive_real is True

    def test_triangular(self):
        rpt = classify.powers_P_check([[1.0, 3.0], [0.0, 1.0]], 2)
        assert rpt.verdicts == (YES, YES)
        assert rpt.eigenvalues_all_positive_real is True

    def test_worked_example(self):
        rpt = classify.powers_P_check(EXAMPLE, 1)
        assert rpt.verdicts == (NO,)
        assert rpt.eigenvalues_all_positive_real is None

    def test_caps(self):
        with pytest.raises(DimensionTooLargeError):
            classify.powers_P_check(np.eye(11), 2)
        with pytest.raises(ValueError):
            classify.powers_P_check(np.eye(2), 17)


class TestTheorem111Properties:
    def test_shift_and_inverse_stay_P(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            m = rng.uniform(-1, 1, (n, n))
            np.fill_diagonal(m, np.abs(m).sum(axis=1) + rng.uniform(0.1, 1.0))
            assert classify.is_P_minors(m)[0] == YES
            d = np.diag(rng.uniform(0, 2, n) * rng.integers(0, 2, n))
            assert classify.is_P_minors(m + d)[0] == YES
            assert classify.is_P_minors(linalg.inverse(m))[0] == YES


class TestClassifyReport:
    def test_worked_example_report(self):
        rpt = classify.classify_matrix(EXAMPLE, seed=9)
        assert rpt.verdicts["P"] == NO
        assert tuple(rpt.witnesses["P"]) == (1,)
        assert rpt.verdicts["positive-stable"] == YES
        assert rpt.verdicts["Z"] == NO
        assert rpt.seed == 9
        obj = rpt.as_obj()
        # the CLI envelope carries the input, the seed and the tolerances
        assert set(obj) == {"verdicts", "witnesses", "methods"}
        assert obj["witnesses"]["P"] == [1]

    def test_p0_verdict_matches_minor_sweep(self):
        rng = np.random.default_rng(11)
        batch = [np.diag([1.0, 0.0]), np.diag([2.0, 0.0, 1.0]), EXAMPLE]
        for kind in ("P-diagdom", "M-matrix", "non-P"):
            batch += [generate(GenSpec(kind, n, seed=n)) for n in (2, 4)]
        batch += [rng.uniform(-1.0, 1.0, (n, n)) for n in (2, 3, 4)]
        seen = set()
        for m in batch:
            rpt = classify.classify_matrix(m, budget=40, seed=1)
            assert rpt.verdicts["P0"] == classify.is_P0_minors(m)[0]
            seen.add((rpt.verdicts["P"], rpt.verdicts["P0"]))
        # P, P0-but-not-P and not-P0 all occur in the batch
        assert {(YES, YES), (NO, YES), (NO, NO)} <= seen

    def test_m_matrix_report(self):
        m = np.array([[2.0, -1.0], [-1.0, 2.0]])
        rpt = classify.classify_matrix(m)
        assert rpt.verdicts["P"] == YES
        assert rpt.verdicts["Z"] == YES
        assert rpt.verdicts["M"] == YES
        assert rpt.verdicts["column-sufficient"] == YES
        assert rpt.verdicts["sufficient"] == YES

    def test_one_spectrum_per_report(self, monkeypatch):
        # the M verdict of a Z-matrix is its positive-stable verdict, so the
        # report takes the spectrum once
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return linalg.eigenvalues(*args, **kwargs)

        monkeypatch.setattr(classify, "eigenvalues", counting)
        m = generate(GenSpec("M-matrix", 8, seed=3))
        rpt = classify.classify_matrix(m, budget=1)
        assert rpt.verdicts["M"] == YES
        assert len(calls) == 1

    def test_m_and_stable_verdicts_equal_their_routes(self):
        seen = set()
        for tag in CLASS_TAGS:
            for n in range(2, 9):
                m = generate(GenSpec(tag, n, seed=n))
                # budget 1: the sufficiency search ends after its axis scan
                rpt = classify.classify_matrix(m, budget=1)
                stable = classify.is_positive_stable(m)
                assert rpt.verdicts["positive-stable"] == stable
                if classify.is_Z(m) == YES:
                    assert rpt.verdicts["M"] == classify.is_P_via_Z_spectrum(m)
                else:
                    assert rpt.verdicts["M"] == NO
                seen.add((rpt.verdicts["Z"], rpt.verdicts["M"], stable))
        # Z and M, Z but not M, and stable non-Z matrices all occur
        assert {(YES, YES, YES), (YES, NO, NO), (NO, NO, YES)} <= seen
