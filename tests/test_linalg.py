"""Kernel tests: determinants, solves, inverses, spectra, charpoly.

Expected values marked by hand derivation in comments were computed with
the stated independent method (cofactor expansion, adjugate formula,
substitution) before being frozen here.
"""

import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from pmkit import linalg
from pmkit.errors import DimensionTooLargeError, FloatRangeError, InvalidIndexError, SingularMatrixError
from pmkit.generators import CLASS_TAGS, GenSpec, generate

EXAMPLE = [[-1.0, -1.0], [4.0, 3.0]]  # spectrum {1, 1}, not a P-matrix


class TestDet:
    def test_identity(self):
        assert linalg.det(np.eye(2)) == pytest.approx(1.0)

    def test_example_matrix(self):
        # product of eigenvalues 1 * 1
        assert linalg.det(EXAMPLE) == pytest.approx(1.0)

    def test_hand_cofactor(self):
        # 2*2 - (-1)(-1) = 3 by cofactor expansion
        assert linalg.det([[2.0, -1.0], [-1.0, 2.0]]) == pytest.approx(3.0)


class TestSolve:
    def test_identity(self):
        b = np.array([3.0, -7.0])
        np.testing.assert_allclose(linalg.solve(np.eye(2), b), b)

    def test_hand_substitution(self):
        # x = (3, 3): 2*3 - 3 = 3 and -3 + 2*3 = 3
        x = linalg.solve([[2.0, -1.0], [-1.0, 2.0]], [3.0, 3.0])
        np.testing.assert_allclose(x, [3.0, 3.0], atol=1e-12)

    def test_zero_matrix_singular(self):
        with pytest.raises(SingularMatrixError):
            linalg.solve(np.zeros((2, 2)), [1.0, 1.0])
        with pytest.raises(SingularMatrixError):
            linalg.inverse(np.zeros((3, 3)))
        for n in (1, 2, 5):
            assert not linalg.lu_factor_checked(np.zeros((n, n)), 0.0)[2]

    def test_checked_lu_threshold(self):
        # the pivots of diag(2, 1e-3) are 2 and 1e-3: the smaller decides
        m = np.diag([2.0, 1e-3])
        lu, piv, ok = linalg.lu_factor_checked(m, 1e-4)
        assert ok
        np.testing.assert_allclose(np.abs(np.diag(lu)), [2.0, 1e-3])
        assert not linalg.lu_factor_checked(m, 1e-3)[2]

    def test_residual_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = rng.integers(1, 9)
            m = rng.uniform(-1, 1, (n, n)) + 2 * n * np.eye(n)
            b = rng.uniform(-1, 1, n)
            x = linalg.solve(m, b)
            resid = linalg.inf_norm(m @ x - b)
            bound = 1e-8 * (linalg.inf_norm(m) * linalg.inf_norm(x) + linalg.inf_norm(b))
            assert resid <= bound


class TestInverse:
    def test_identity(self):
        np.testing.assert_allclose(linalg.inverse(np.eye(3)), np.eye(3))

    def test_diagonal_reciprocal(self):
        np.testing.assert_allclose(
            linalg.inverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25])
        )

    def test_hand_adjugate(self):
        # adjugate/det: (1/3) [[2, 1], [1, 2]]
        inv = linalg.inverse([[2.0, -1.0], [-1.0, 2.0]])
        np.testing.assert_allclose(inv, np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0)

    def test_singular(self):
        with pytest.raises(SingularMatrixError):
            linalg.inverse([[1.0, 1.0], [1.0, 1.0]])

    def test_double_inverse_roundtrip(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            n = rng.integers(1, 9)
            m = rng.uniform(-1, 1, (n, n)) + 2 * n * np.eye(n)
            back = linalg.inverse(linalg.inverse(m))
            rel = np.linalg.norm(back - m) / np.linalg.norm(m)
            assert rel <= 1e-8


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestDirectLapack:
    """lu_factor_checked and lu_solve call getrf/getrs without scipy's
    wrappers; they must give scipy.linalg.lu_factor / lu_solve's bits."""

    @pytest.mark.parametrize("tag", CLASS_TAGS)
    def test_same_bits_as_scipy(self, tag):
        rng = np.random.default_rng(len(tag))
        for n in range(1, 13):
            m = generate(GenSpec(tag, n, seed=n))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
                lu, piv = scipy.linalg.lu_factor(m, check_finite=False)
            fac = linalg.lu_factor_checked(m, 0.0)
            _same_bits(m, generate(GenSpec(tag, n, seed=n)))
            if np.abs(np.diag(lu)).min() == 0.0:
                assert not fac[2]
                continue
            assert fac[2]
            _same_bits(fac[0], lu)
            _same_bits(fac[1], piv)
            for k in (1, 2, n + 3):
                b = rng.uniform(-5.0, 5.0, (n, k))
                for rhs in (b[:, 0], b):
                    want = scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)
                    before = rhs.copy()
                    _same_bits(linalg.lu_solve(fac, rhs), want)
                    _same_bits(rhs, before)
            b = rng.uniform(-5.0, 5.0, n)
            try:
                x, inv = linalg.solve(m, b), linalg.inverse(m)
            except SingularMatrixError:
                continue  # a pivot below the scaled threshold: nothing to solve
            _same_bits(x, scipy.linalg.lu_solve((lu, piv), b, check_finite=False))
            _same_bits(inv, scipy.linalg.lu_solve((lu, piv), np.eye(n), check_finite=False))

    def test_exact_zero_pivot(self):
        # getrf reports info > 0 for an exactly zero pivot: column 1 of the
        # first matrix is zero, and [[1, 2], [2, 4]] eliminates to u22 = 0
        for m in (np.array([[0.0, 0.0], [0.0, 1.0]]), np.array([[1.0, 2.0], [2.0, 4.0]])):
            assert scipy.linalg.lapack.dgetrf(m)[2] > 0
            assert not linalg.lu_factor_checked(m, 0.0)[2]
            with pytest.raises(SingularMatrixError):
                linalg.solve(m, [1.0, 1.0])

    def test_threshold_rejects_a_nonzero_pivot(self):
        # the pivots of [[4, 2], [2, 1 + 1e-9]] are 4 and 1e-9: nonzero, so
        # getrf succeeds, and only the threshold decides
        m = np.array([[4.0, 2.0], [2.0, 1.0 + 1e-9]])
        assert scipy.linalg.lapack.dgetrf(m)[2] == 0
        assert linalg.lu_factor_checked(m, 1e-10)[2]
        assert not linalg.lu_factor_checked(m, 1e-8)[2]


class TestEigenvalues:
    def test_worked_example_defective_pair_exact(self):
        spec = linalg.eigenvalues(EXAMPLE)
        assert sorted(v.real for v in spec.values) == [1.0, 1.0]
        assert all(v.imag == 0.0 for v in spec.values)

    def test_diagonal(self):
        spec = linalg.eigenvalues(np.diag([2.0, 3.0]))
        assert sorted(v.real for v in spec.values) == [2.0, 3.0]

    def test_two_by_two_past_the_overflow_scale(self):
        # the closed form's discriminant was inf - inf here, and the NaN
        # values failed conjugate pairing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = linalg.eigenvalues(np.diag([1e155, 2e155]))
        np.testing.assert_allclose(spec.real_values(), [1e155, 2e155], rtol=1e-15)

    def test_residual_bound_saturates_past_the_float_range(self):
        # (2 max(||A||_inf, max |lambda|))^n raised OverflowError here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = linalg.eigenvalues(np.diag([1e110, 2e110, 3e110]))
        assert spec.values == (1e110, 2e110, 3e110)

    @pytest.mark.parametrize("n", [2, 3])
    def test_eigenvalue_past_the_float_range_raises(self, n):
        # the 3x3 returned an inf eigenvalue after numpy warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatRangeError, match="float64 range"):
                linalg.eigenvalues(np.full((n, n), 1e308))

    def test_rotation_pure_imaginary(self):
        # characteristic polynomial x^2 + 1
        spec = linalg.eigenvalues([[0.0, -1.0], [1.0, 0.0]])
        vals = sorted(spec.values, key=lambda z: z.imag)
        assert vals[0] == pytest.approx(-1j)
        assert vals[1] == pytest.approx(1j)
        assert_canonical(spec.values)
        assert spec.values[0].imag > 0 and spec.values[1] == spec.values[0].conjugate()

    def test_det_trace_consistency(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            n = int(rng.integers(1, 9))
            m = rng.uniform(-1, 1, (n, n))
            spec = linalg.eigenvalues(m)
            prod = np.prod(np.array(spec.values))
            total = np.sum(np.array(spec.values))
            d, t = linalg.det(m), float(np.trace(m))
            assert abs(prod.real - d) <= 1e-6 * max(1.0, abs(d))
            assert abs(prod.imag) <= 1e-6 * max(1.0, abs(d))
            assert abs(total.real - t) <= 1e-6 * max(1.0, abs(t))

    def test_conjugate_pairing_structure(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            m = rng.uniform(-1, 1, (n, n))
            spec = linalg.eigenvalues(m)
            assert spec.closed
            assert_canonical(spec.values)

    def test_canonical_order_is_a_fixed_point(self):
        # a second pair_conjugates gives a Spectrum back bit for bit, so the
        # spectral layer takes an eigenvalue Spectrum as it is
        def bits(values):
            return [(v.real.hex(), v.imag.hex()) for v in values]

        spectra = [linalg.eigenvalues(generate(GenSpec(tag, n, seed=seed)))
                   for tag in CLASS_TAGS for n in range(1, 11) for seed in range(3)]
        rng = np.random.default_rng(17)
        for _ in range(300):
            vals = [complex(x, 1e-12 * rng.uniform(-1, 1)) for x in rng.uniform(-3, 3, int(rng.integers(0, 4)))]
            for _ in range(int(rng.integers(1, 5))):
                a, b = rng.uniform(-3, 3), rng.uniform(0.01, 3)
                # a pair that is conjugate only up to rounding is symmetrized
                vals += [complex(a, b), complex(a + 1e-10 * rng.uniform(-1, 1), -b)]
            rng.shuffle(vals)
            spectra.append(linalg.pair_conjugates(vals))
        for spec in spectra:
            assert spec.closed
            assert_canonical(spec.values)
            again = linalg.pair_conjugates(spec.values)
            assert again.closed and bits(again.values) == bits(spec.values)


def assert_canonical(values):
    """The canonical order of `pair_conjugates`: sorted by (real part,
    |imag|), each real value with imaginary part exactly 0, and each
    non-real value a + bi with b > 0, followed by its conjugate."""
    keys = [(v.real, abs(v.imag)) for v in values]
    assert keys == sorted(keys)
    i = 0
    while i < len(values):
        v = values[i]
        if v.imag == 0.0:
            i += 1
            continue
        assert v.imag > 0
        assert i + 1 < len(values) and values[i + 1] == v.conjugate()
        i += 2


def closed_form_2x2(mat):
    """The scalar 2x2 closed form, one matrix at a time."""
    t = mat[0, 0] + mat[1, 1]
    d = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
    disc = t * t - 4.0 * d
    if disc >= 0.0:
        s = np.sqrt(disc)
        return np.array([(t + s) / 2.0, (t - s) / 2.0], dtype=complex)
    s = np.sqrt(-disc) / 2.0
    return np.array([complex(t / 2.0, s), complex(t / 2.0, -s)])


class TestStackEigvals:
    @staticmethod
    def assert_same_bits(stack, want):
        _same_bits(linalg.stack_eigvals(np.asarray(stack, dtype=float)), want)

    @pytest.mark.parametrize("mat", [
        [[1.0, 1.0], [0.0, 1.0]],     # defective: disc = 0, double eigenvalue 1
        EXAMPLE,                      # defective: disc = 0
        [[0.0, -1.0], [1.0, 0.0]],    # disc < 0: +-i
        [[1.0, -3.0], [2.0, 0.5]],    # disc < 0, nonzero real part
        [[2.0, 0.0], [0.0, 3.0]],     # disc > 0
        [[0.1, 0.7], [0.3, -0.2]],    # disc > 0, inexact entries
    ])
    def test_two_by_two_matches_scalar_formula(self, mat):
        m = np.array(mat)
        self.assert_same_bits(m[None], closed_form_2x2(m)[None])

    def test_two_by_two_stack_takes_both_branches(self):
        rng = np.random.default_rng(3)
        stack = np.concatenate([rng.uniform(-1.0, 1.0, (200, 2, 2)),
                                rng.integers(-2, 3, (200, 2, 2)) * 2.0 ** -7])
        # the small integer rows are exact, so their sign of disc is too
        t = stack[:, 0, 0] + stack[:, 1, 1]
        disc = t * t - 4.0 * (stack[:, 0, 0] * stack[:, 1, 1] - stack[:, 0, 1] * stack[:, 1, 0])
        assert (disc < 0).any() and (disc == 0).any() and (disc > 0).any()
        self.assert_same_bits(stack, np.array([closed_form_2x2(m) for m in stack]))

    @pytest.mark.parametrize("mat, want", [
        (1e155 * np.array([[1.0, 2.0], [2.0, 1.0]]), (3e155, -1e155)),
        (1e200 * np.array([[1.0, 2.0], [2.0, 1.0]]), (3e200, -1e200)),
        (np.diag([1e155, 2e155]), (2e155, 1e155)),
        (np.diag([1e200, 1e200]), (1e200, 1e200)),
        (np.array([[1e200, 0.0], [0.0, -1e200]]), (1e200, -1e200)),   # t*t = 0 but a*d = -inf: disc = inf
        (np.array([[1e300, -1e300], [1e300, 1e300]]), (1e300 + 1e300j, 1e300 - 1e300j)),
    ])
    def test_two_by_two_past_the_overflow_scale(self, mat, want):
        # t*t and a*d overflow here, and the plain closed form gives NaN or inf
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = linalg.stack_eigvals(mat[None])[0]
            assert not np.isfinite(closed_form_2x2(mat)).all()
        np.testing.assert_allclose(got, want, rtol=1e-15)
        # the closed form on the entries times 2^-e, scaled back by 2^e
        e = np.frexp(np.abs(mat).max())[1]
        small, want = closed_form_2x2(np.ldexp(mat, -e)), np.empty(2, dtype=complex)
        want.real, want.imag = np.ldexp(small.real, e), np.ldexp(small.imag, e)
        _same_bits(got, want)

    def test_two_by_two_below_the_underflow_scale(self):
        # t*t and a*d underflowed here, and the closed form gave the double
        # eigenvalue 1e-170 for 1e-170 * (1 +- sqrt(6))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = linalg.stack_eigvals(1e-170 * np.array([[[1.0, 2.0], [3.0, 1.0]]]))[0]
        np.testing.assert_allclose(got, 1e-170 * (1.0 + np.array([1.0, -1.0]) * np.sqrt(6.0)), rtol=1e-15)

    def test_finite_rows_keep_their_bits_next_to_a_rescaled_row(self):
        rng = np.random.default_rng(11)
        finite = np.concatenate([[EXAMPLE, [[1.0, 1.0], [0.0, 1.0]], [[1e150, 1.0], [0.0, 1e150]]],
                                 rng.uniform(-1.0, 1.0, (20, 2, 2))])
        stack = np.concatenate([finite[:2], [1e200 * np.eye(2)], finite[2:]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = linalg.stack_eigvals(stack)
        self.assert_same_bits(finite, np.delete(got, 2, axis=0))
        self.assert_same_bits(finite, np.array([closed_form_2x2(m) for m in finite]))
        # the worked example's exact double eigenvalue 1
        _same_bits(got[0], np.array([1.0, 1.0], dtype=complex))

    def test_one_by_one_is_the_entry(self):
        self.assert_same_bits([[[2.5]], [[-0.0]], [[1e-300]]], np.array([[2.5], [-0.0], [1e-300]], dtype=complex))

    def test_lapack_stack_matches_single_calls(self):
        rng = np.random.default_rng(5)
        for k in (3, 4, 7):
            stack = rng.uniform(-1.0, 1.0, (30, k, k))
            want = np.array([np.linalg.eigvals(m) for m in stack], dtype=complex)
            self.assert_same_bits(stack, want)


class TestCharpoly:
    def test_worked_example_sigma(self):
        # spectrum {1,1}: sigma_1 = 2, sigma_2 = 1
        p = linalg.charpoly(EXAMPLE)
        assert p[0] == pytest.approx(1.0)
        assert p[1] == pytest.approx(2.0)
        assert p[2] == pytest.approx(1.0)

    def test_identity_binomials(self):
        p = linalg.charpoly(np.eye(3))
        np.testing.assert_allclose(p, [1.0, 3.0, 3.0, 1.0], atol=1e-12)

    def test_hand_trace_det(self):
        p = linalg.charpoly([[2.0, -1.0], [-1.0, 2.0]])
        assert p[1] == pytest.approx(4.0)
        assert p[2] == pytest.approx(3.0)

    def test_coefficients_are_principal_minor_sums(self):
        # c_k == sum of all k x k principal minors, brute forced via det
        from itertools import combinations

        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            m = rng.uniform(-1, 1, (n, n))
            p = linalg.charpoly(m)
            for k in range(1, n + 1):
                brute = sum(
                    np.linalg.det(m[np.ix_(idx, idx)])
                    for idx in combinations(range(n), k)
                )
                assert abs(p[k] - brute) <= 1e-8 * max(1.0, abs(brute))

    def test_tuple_is_the_recursion_bit_for_bit(self):
        # the batch of the sigma/charpoly bridge test, against an in-test
        # copy of the Faddeev-LeVerrier recursion
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            m = rng.uniform(-1, 1, (n, n))
            want, nk = [1.0], np.eye(n)
            for k in range(1, n + 1):
                an = m @ nk
                bk = -float(np.trace(an)) / k
                want.append((-1.0) ** k * bk)
                nk = an + bk * np.eye(n)
            got = linalg.charpoly(m)
            assert type(got) is tuple and all(type(c) is float for c in got)
            assert [c.hex() for c in got] == [c.hex() for c in want]

    def test_monic_coefficients_match_numpy(self):
        # det(xI - m) = x^n - c_1 x^(n-1) + ... in descending powers
        m = np.array([[2.0, -1.0], [-1.0, 2.0]])
        monic = [(-1.0) ** k * c for k, c in enumerate(linalg.charpoly(m))]
        np.testing.assert_allclose(monic, np.poly(m), atol=1e-10)


class TestPrincipalSubmatrix:
    def test_worked_example_negative_minor(self):
        sub = linalg.principal_submatrix(EXAMPLE, (1,))
        np.testing.assert_allclose(sub, [[-1.0]])

    def test_full_set(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(linalg.principal_submatrix(m, (1, 2)), m)

    def test_direct_selection(self):
        m = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]
        np.testing.assert_allclose(
            linalg.principal_submatrix(m, (1, 3)), [[1.0, 3.0], [7.0, 9.0]]
        )

    @given(st.permutations([1, 3, 2]))
    def test_selection_order_independent(self, perm):
        m = np.arange(9.0).reshape(3, 3)
        np.testing.assert_array_equal(
            linalg.principal_submatrix(m, perm),
            linalg.principal_submatrix(m, (1, 2, 3)),
        )

    def test_out_of_range(self):
        with pytest.raises(InvalidIndexError):
            linalg.principal_submatrix(np.eye(2), (0,))
        with pytest.raises(InvalidIndexError):
            linalg.principal_submatrix(np.eye(2), (3,))
        with pytest.raises(InvalidIndexError):
            linalg.principal_submatrix(np.eye(2), (1, 1))

    def test_index_sets_cached_and_read_only(self):
        # every sweep of the same n walks the same index arrays; a caller
        # that wrote into one would corrupt every later sweep, so none can
        a = np.arange(16.0).reshape(4, 4)
        first = [idx for idx, _ in linalg.principal_stacks(a)]
        again = [idx for idx, _ in linalg.principal_stacks(-a)]
        assert all(x is y for x, y in zip(first, again))
        for idx in first:
            assert not idx.flags.writeable
            with pytest.raises(ValueError):
                idx[0, 0] = 1


class TestValidation:
    def test_dimension_cap(self):
        with pytest.raises(DimensionTooLargeError):
            linalg.as_matrix(np.eye(65))

    def test_nonsquare(self):
        with pytest.raises(ValueError):
            linalg.as_matrix(np.ones((2, 3)))

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            linalg.as_matrix([[np.nan, 0.0], [0.0, 1.0]])

    @settings(max_examples=50)
    @given(st.lists(st.floats(-10, 10), min_size=4, max_size=4))
    def test_inf_norm_is_max_row_sum(self, entries):
        m = np.array(entries).reshape(2, 2)
        expected = max(abs(m[0, 0]) + abs(m[0, 1]), abs(m[1, 0]) + abs(m[1, 1]))
        assert linalg.inf_norm(m) == pytest.approx(expected)
