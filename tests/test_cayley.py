"""Transform identities, P-factorization, stability experiments."""

import dataclasses

import numpy as np
import pytest

from pmkit import cayley, classify, linalg
from pmkit.classify import NO, YES
from pmkit.errors import NonPositiveDiagonalError, NotAPMatrixError, SingularMatrixError
from pmkit.generators import GenSpec, generate


class TestCayleyU:
    def test_scalar(self):
        # (1+3)^{-1} (1-3) = -0.5
        np.testing.assert_allclose(cayley.cayley_u([[3.0]]), [[-0.5]])

    def test_zero_matrix(self):
        np.testing.assert_allclose(cayley.cayley_u(np.zeros((3, 3))), np.eye(3))

    def test_minus_one_singular(self):
        with pytest.raises(SingularMatrixError):
            cayley.cayley_u([[-1.0]])

    def test_order_of_products(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(-0.4, 0.4, (4, 4))
        u = cayley.cayley_u(a)
        eye = np.eye(4)
        np.testing.assert_allclose(u, np.linalg.inv(eye + a) @ (eye - a), atol=1e-12)


class TestInvolution:
    def test_scalar_roundtrip(self):
        # U(3) = -0.5, U(-0.5) = (0.5)^{-1} (1.5) = 3
        assert cayley.verify_involution([[3.0]]) <= 1e-14

    def test_identity(self):
        assert cayley.verify_involution(np.eye(3)) <= 1e-14

    def test_random_contraction(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(-1, 1, (5, 5))
        a *= 0.9 / max(1.0, np.abs(np.linalg.eigvals(a)).max())
        assert cayley.verify_involution(a) <= 1e-10

    def test_batch_well_conditioned(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            a = rng.uniform(-1, 1, (n, n))
            np.fill_diagonal(a, np.abs(a).sum(axis=1) + 0.5)
            assert cayley.verify_involution(a) <= 1e-8


class TestIdentities:
    def test_scalar(self):
        res = cayley.verify_identities([[3.0]])
        assert res.plus_residual <= 1e-14
        assert res.minus_residual <= 1e-14
        assert not res.minus_singular

    def test_identity_matrix(self):
        res = cayley.verify_identities(np.eye(2))
        assert res.plus_residual <= 1e-14
        assert res.minus_residual <= 1e-14

    def test_singular_input_reports_minus(self):
        res = cayley.verify_identities([[0.0]])
        assert res.plus_residual <= 1e-14  # I + U(0) = 2I = 2 (I+0)^{-1}
        assert res.minus_residual is None
        assert res.minus_singular

    def test_closed_form_minus_identity(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(-1, 1, (4, 4)) + 4 * np.eye(4)
        eye = np.eye(4)
        u = cayley.cayley_u(a)
        np.testing.assert_allclose(
            eye - u, 2 * np.linalg.inv(eye + a) @ a, atol=1e-10
        )


class TestFactorP:
    def test_identity(self):
        res = cayley.factor_p(np.eye(2))
        np.testing.assert_allclose(res.factor_left, np.eye(2))
        np.testing.assert_allclose(res.factor_right, np.eye(2))
        assert res.left_is_P == YES and res.right_is_P == YES

    def test_diagonal_hand_values(self):
        res = cayley.factor_p(np.diag([2.0, 3.0]))
        np.testing.assert_allclose(res.factor_left, np.diag([1.5, 2.0]))
        np.testing.assert_allclose(res.factor_right, np.diag([4.0 / 3.0, 1.5]))
        np.testing.assert_allclose(
            res.factor_left @ res.factor_right, np.diag([2.0, 3.0]), atol=1e-12
        )

    def test_rejects_non_p(self):
        with pytest.raises(NotAPMatrixError):
            cayley.factor_p([[-1.0, -1.0], [4.0, 3.0]])

    def test_random_p_matrices(self):
        rng = np.random.default_rng(5)
        for _ in range(150):
            n = int(rng.integers(1, 7))
            a = rng.uniform(-1, 1, (n, n))
            np.fill_diagonal(a, np.abs(a).sum(axis=1) + rng.uniform(0.1, 1.0))
            res = cayley.factor_p(a)
            assert res.residual <= 1e-8
            assert res.u_path_residual <= 1e-8
            assert res.left_is_P == YES
            assert res.right_is_P == YES

    def test_factorization_of_the_fixture(self):
        # works even for a P-matrix that is not positive stable
        a = np.array(cayley.P_NOT_POSITIVE_STABLE)
        res = cayley.factor_p(a)
        assert res.residual <= 1e-8
        assert res.left_is_P == YES and res.right_is_P == YES

    def test_accepted_rejects_hand_built_failures(self):
        res = cayley.factor_p(np.array(cayley.P_NOT_POSITIVE_STABLE))
        assert res.accepted
        assert not dataclasses.replace(res, residual=1e-6).accepted
        assert not dataclasses.replace(res, left_is_P=NO).accepted
        assert not dataclasses.replace(res, right_is_P=NO).accepted


class TestOneFactorizationOfIPlusA:
    @pytest.mark.parametrize(
        "name, count",
        [("cayley_u", 1), ("verify_involution", 2), ("verify_identities", 3), ("factor_p", 2),
         ("scaled_stable_factor", 3)],
    )
    def test_lu_factorizations_per_call(self, monkeypatch, name, count):
        # I + A is factored once per call: U(A), 2(I+A)^{-1}A and
        # 2(I+A)^{-1} are all solved with that LU
        a = generate(GenSpec("P-diagdom", 6, seed=1))
        calls = []
        real = linalg.lu_factor_checked

        def spy(mat, thr):
            calls.append(mat.shape)
            return real(mat, thr)

        monkeypatch.setattr(linalg, "lu_factor_checked", spy)
        args = (np.eye(6), np.eye(6)) if name == "scaled_stable_factor" else ()
        getattr(cayley, name)(a, *args)
        assert len(calls) == count


class TestHurwitz:
    def test_agrees_with_eigensolver(self):
        rng = np.random.default_rng(6)
        agree = 0
        for _ in range(300):
            n = int(rng.integers(1, 7))
            m = rng.uniform(-2, 2, (n, n))
            ev = np.linalg.eigvals(m)
            margin = np.abs(ev.real).min()
            if margin < 1e-6:  # skip knife-edge stability
                continue
            expected = bool(ev.real.min() > 0)
            assert cayley.hurwitz_positive_stable(m) == expected
            agree += 1
        assert agree >= 250

    def test_fixture_not_stable(self):
        assert not cayley.hurwitz_positive_stable(np.array(cayley.P_NOT_POSITIVE_STABLE))
        assert cayley.hurwitz_positive_stable(np.eye(3))


class TestScaledFactor:
    def test_identity_everything(self):
        rpt = cayley.scaled_stable_factor(np.eye(2), np.eye(2), np.eye(2))
        np.testing.assert_allclose(rpt.factor_one, np.eye(2))
        np.testing.assert_allclose(rpt.factor_two, np.eye(2))
        assert rpt.factor_one_positive_stable == YES
        assert rpt.factor_one_is_P == YES
        assert rpt.ad_positive_stable == YES
        assert rpt.ad_hurwitz_agrees

    def test_diagonal_hand_values(self):
        a = np.diag([2.0, 3.0])
        s = np.diag([1.0, 2.0])
        rpt = cayley.scaled_stable_factor(a, s, s)
        # U(A) = diag(-1/3, -1/2); (I+U)S = diag(2/3, 1); (I-U)S = diag(4/3, 3)
        np.testing.assert_allclose(rpt.factor_one, np.diag([2.0 / 3.0, 1.0]), atol=1e-12)
        np.testing.assert_allclose(rpt.factor_two, np.diag([4.0 / 3.0, 3.0]), atol=1e-12)
        assert rpt.product_residual <= 1e-10
        assert rpt.factor_two_positive_stable == YES
        assert rpt.factor_two_is_P == YES

    def test_fixture_identity_scaling_not_stable(self):
        # with S = T = I the "positive stable" claim fails for the fixture
        a = np.array(cayley.P_NOT_POSITIVE_STABLE)
        rpt = cayley.scaled_stable_factor(a, np.eye(3), np.eye(3))
        assert rpt.ad_positive_stable == NO
        assert rpt.ad_hurwitz_agrees

    def test_rejects_bad_diagonal(self):
        with pytest.raises(NonPositiveDiagonalError):
            cayley.scaled_stable_factor(np.eye(2), np.diag([1.0, -1.0]), np.eye(2))
        with pytest.raises(NonPositiveDiagonalError):
            cayley.scaled_stable_factor(np.eye(2), np.array([[1.0, 0.5], [0.0, 1.0]]), np.eye(2))


class TestSm1Probe:
    def test_probe_runs_and_confirms(self):
        rpt = cayley.sm1_probe(trials=200, seed=1)
        assert rpt.tested > 150
        assert rpt.all_confirmed
        # the fixture-derived draws put counterexamples in the log
        assert len(rpt.counterexamples) > 0
        for ce in rpt.counterexamples:
            a = np.array(ce.matrix)
            d = np.diag(ce.diagonal)
            assert classify.is_P_minors(a)[0] == YES
            spec = linalg.eigenvalues(a @ d)
            assert min(v.real for v in spec.values) <= 0
            assert ce.hurwitz_confirms

    def test_probe_deterministic(self):
        a = cayley.sm1_probe(trials=60, seed=9)
        b = cayley.sm1_probe(trials=60, seed=9)
        assert a == b
