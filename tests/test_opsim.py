"""Finite-section operator experiments."""

import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from pmkit import classify, opsim, serialize, suites
from pmkit.classify import NO, UNKNOWN, YES
from pmkit.cli import main
from pmkit.errors import (
    NonDiagonalSpecError,
    NonPositiveEigenvalueError,
    NonPositiveSectionError,
    PreconditionNotEstablishedError,
    PreconditionViolatedError,
    RuleUndefinedError,
)
from pmkit.generators import GenSpec, generate
from pmkit.linalg import scipy_extension
from pmkit.opsim import make_spec, section


def diag_literal(*values, kind="dense-rule", decay=False):
    n = len(values)
    rows = [[float(values[i]) if i == j else 0.0 for j in range(n)] for i in range(n)]
    return make_spec(kind, "matrix-literal", {"matrix": rows}, decay=decay)


def literal_spec(mat):
    return make_spec("dense-rule", "matrix-literal", {"matrix": np.asarray(mat, dtype=float).tolist()})


INV_SQ = make_spec("diagonal", "inverse-square-diagonal", {"c": 1.0}, decay=True)
TRIDIAG = make_spec("banded", "tridiag", {"a": 2.0, "b": -1.0})
IDENTITY = make_spec("diagonal", "matrix-literal", {"matrix": []}, decay=True)


class TestSpec:
    def test_unknown_rule(self):
        with pytest.raises(RuleUndefinedError):
            make_spec("diagonal", "mystery", {})

    def test_missing_params(self):
        with pytest.raises(RuleUndefinedError):
            make_spec("banded", "tridiag", {"a": 1.0})

    def test_diagonal_kind_enforced(self):
        with pytest.raises(NonDiagonalSpecError):
            make_spec("diagonal", "tridiag", {"a": 2.0, "b": -1.0})

    def test_decay_check(self):
        growing = [[1.0, 0.0], [0.0, 2.0]]
        make_spec("dense-rule", "matrix-literal", {"matrix": growing})  # fine without tag
        # identity extension makes sampled diagonal grow again after 0
        with pytest.raises(ValueError):
            make_spec(
                "dense-rule",
                "matrix-literal",
                {"matrix": [[1.0, 0.0], [0.0, 0.0]]},
                decay=True,
            )

    def test_json_roundtrip(self):
        obj = opsim.spec_to_obj(INV_SQ)
        back = opsim.spec_from_obj(obj)
        assert back == INV_SQ


class TestSection:
    def test_inverse_square_readout(self):
        sec = section(INV_SQ, 3)
        np.testing.assert_allclose(sec, np.diag([1.0, 0.25, 1.0 / 9.0]))

    def test_identity_rule(self):
        np.testing.assert_allclose(section(IDENTITY, 4), np.eye(4))

    def test_tridiag_readout(self):
        np.testing.assert_allclose(
            section(TRIDIAG, 2), [[2.0, -1.0], [-1.0, 2.0]]
        )

    def test_nested_consistency(self):
        for spec in (INV_SQ, TRIDIAG, diag_literal(1.0, -1.0, 0.5)):
            big = section(spec, 12)
            for m in (1, 3, 7):
                np.testing.assert_array_equal(section(spec, m), big[:m, :m])

    def test_order_caps(self):
        with pytest.raises(Exception):
            section(INV_SQ, 0)
        with pytest.raises(Exception):
            section(INV_SQ, 65)

    @pytest.mark.parametrize("spec", [
        make_spec("diagonal", "inverse-square-diagonal", {"c": 4.0}, decay=True),
        TRIDIAG,
        diag_literal(4.0, 1.0, 1.0, kind="diagonal", decay=True),
    ])
    def test_section_and_root_are_the_entry_arrays(self, spec):
        # one spec per rule; the root only for the diagonal ones
        for n in (1, 3, 6):
            want = np.array([[spec.entry(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)])
            got = section(spec, n)
            assert got.dtype == want.dtype == np.float64 and np.array_equal(got, want)
            if spec.kind == "diagonal":
                root = opsim.operator_sqrt(spec, n)
                want_root = np.diag(np.sqrt(np.diag(want)))
                assert root.dtype == np.float64 and np.array_equal(root, want_root)


class TestPOperatorSection:
    def test_positive_diagonal_every_order(self):
        for n in (1, 2, 4, 8, 12):
            assert opsim.is_P_operator_section(INV_SQ, n) == YES

    def test_negative_entry_breaks_at_three(self):
        spec = diag_literal(1.0, 1.0, -1.0)
        assert opsim.is_P_operator_section(spec, 2) == YES
        assert opsim.is_P_operator_section(spec, 3) == NO

    def test_tridiag_P(self):
        for n in (2, 5, 9, 12):
            assert opsim.is_P_operator_section(TRIDIAG, n) == YES


class TestEigenPositivity:
    def test_inverse_square_all_positive(self):
        rpt = opsim.eigen_positivity_check(INV_SQ, [2, 4, 8, 16, 32, 64])
        assert rpt.violations == 0
        assert all(e.all_real_positive for e in rpt.entries)

    def test_tridiag_two_by_two_closed_form(self):
        rpt = opsim.eigen_positivity_check(TRIDIAG, [2])
        np.testing.assert_allclose(sorted(rpt.entries[0].real_eigenvalues), [1.0, 3.0])

    def test_negative_entry_flagged(self):
        rpt = opsim.eigen_positivity_check(diag_literal(1.0, -1.0), [2])
        assert not rpt.entries[0].all_real_positive
        # not P, so it is a finding, not a contradiction
        assert rpt.violations == 0


class TestSqrt:
    def test_quarter_squares(self):
        # lambda = (1, 1/4, 1/9, 1/16) is the inverse-square rule at n = 4
        root = opsim.operator_sqrt(INV_SQ, 4)
        np.testing.assert_allclose(
            np.diag(root), [1.0, 0.5, 1.0 / 3.0, 0.25], atol=1e-15
        )

    def test_identity(self):
        root = opsim.operator_sqrt(IDENTITY, 3)
        np.testing.assert_allclose(root, np.eye(3))

    def test_scaled_inverse_square(self):
        spec = make_spec("diagonal", "inverse-square-diagonal", {"c": 4.0}, decay=True)
        root = opsim.operator_sqrt(spec, 6)
        np.testing.assert_allclose(np.diag(root), [2.0 / i for i in range(1, 7)])
        sec = section(spec, 6)
        assert np.abs(root @ root - sec).max() <= 1e-15

    def test_residual_ladder(self):
        for n in (2, 4, 8, 16, 32, 64):
            root = opsim.operator_sqrt(INV_SQ, n)
            sec = section(INV_SQ, n)
            assert np.abs(root @ root - sec).max() <= 1e-12

    def test_uniqueness_injectivity(self):
        # the square root is injective on positive diagonals: a candidate
        # off the canonical root has a square residual
        root, sec = opsim.operator_sqrt(INV_SQ, 4), section(INV_SQ, 4)
        assert np.abs(root @ root - sec).max() <= 1e-15
        bad = root + np.diag([0.05, 0.0, 0.0, 0.0])
        dev = np.abs(np.diag(bad) - np.diag(root)).max()
        assert np.abs(bad @ bad - sec).max() > 1e-3 * dev

    def test_preconditions(self):
        with pytest.raises(NonDiagonalSpecError):
            opsim.operator_sqrt(TRIDIAG, 3)
        with pytest.raises(PreconditionViolatedError):
            opsim.operator_sqrt(diag_literal(1.0, 0.5, kind="diagonal"), 2)
        negative = make_spec(
            "diagonal", "inverse-square-diagonal", {"c": -4.0}, decay=True
        )
        with pytest.raises(NonPositiveEigenvalueError):
            opsim.operator_sqrt(negative, 2)


class TestMinMax:
    def test_all_ones(self):
        spec = make_spec("dense-rule", "matrix-literal", {"matrix": [[1.0, 1.0], [1.0, 1.0]]})
        res = opsim.minmax_rho(spec, 2, samples=32, seed=0)
        assert res.rho == pytest.approx(2.0, abs=1e-9)
        assert res.inf_sup == pytest.approx(2.0, abs=1e-6)
        assert res.sup_inf == pytest.approx(2.0, abs=1e-6)

    def test_symmetric_two_by_two(self):
        spec = make_spec("dense-rule", "matrix-literal", {"matrix": [[2.0, 1.0], [1.0, 2.0]]})
        res = opsim.minmax_rho(spec, 2, samples=64, seed=1)
        assert res.rho == pytest.approx(3.0, abs=1e-9)
        assert res.sup_inf <= res.rho + 1e-9
        assert res.inf_sup >= res.rho - 1e-9

    def test_bracketing_random_sections(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            m = rng.uniform(0.1, 3.0, (n, n))
            spec = make_spec("dense-rule", "matrix-literal", {"matrix": m.tolist()})
            res = opsim.minmax_rho(spec, n, samples=48, seed=int(rng.integers(1 << 30)))
            assert res.sup_inf <= res.rho + 1e-9
            assert res.inf_sup >= res.rho - 1e-9
            assert abs(res.inf_sup - res.rho) <= 1e-6
            assert abs(res.sup_inf - res.rho) <= 1e-6

    def test_rejects_nonpositive_section(self):
        with pytest.raises(NonPositiveSectionError):
            opsim.minmax_rho(IDENTITY, 2)

    @pytest.mark.parametrize("samples", [0, -3])
    def test_rejects_no_samples(self, samples):
        spec = make_spec("dense-rule", "matrix-literal", {"matrix": [[1.0, 1.0], [1.0, 1.0]]})
        with pytest.raises(ValueError, match="samples must be >= 1"):
            opsim.minmax_rho(spec, 2, samples=samples)

    @staticmethod
    def pooled_bracket(spec, n, samples, seed, perron):
        """The bracket over a pool of every sample vector, kept in full."""
        mat = section(spec, n)
        rng = np.random.default_rng(seed)
        pool = [np.array(perron)]
        for _ in range(samples - 1):
            pool.append(np.exp(rng.uniform(np.log(0.1), np.log(10.0), n)))
        ratios = [(mat @ x) / x for x in pool]
        return min(float(r.max()) for r in ratios), max(float(r.min()) for r in ratios)

    def test_streamed_bracket_is_the_pool_bracket(self):
        rng = np.random.default_rng(23)
        for samples in (1, 2, 3, 17, 64):
            for seed in range(5):
                n = int(rng.integers(2, 7))
                spec = make_spec("dense-rule", "matrix-literal", {"matrix": rng.uniform(0.1, 3.0, (n, n)).tolist()})
                res = opsim.minmax_rho(spec, n, samples=samples, seed=seed)
                want = self.pooled_bracket(spec, n, samples, seed, res.perron)
                assert (res.inf_sup.hex(), res.sup_inf.hex()) == tuple(x.hex() for x in want)

    def test_samples_are_not_kept(self):
        # a pool of every sample vector peaks at about 200 bytes per sample
        spec = make_spec("dense-rule", "matrix-literal", {"matrix": [[1.0, 2.0], [3.0, 1.0]]})
        tracemalloc.start()
        try:
            opsim.minmax_rho(spec, 2, samples=10_000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_bracket_ok_rejects_hand_built_failures(self):
        def result(inf_sup, sup_inf):
            return opsim.MinMaxResult(inf_sup=inf_sup, sup_inf=sup_inf, rho=2.0, iterations=1, perron=(0.5, 0.5))

        assert result(2.0, 2.0).bracket_ok
        assert not result(2.0, 2.0 + 1e-8).bracket_ok  # sup_inf above rho past the slack
        assert not result(2.0 - 1e-8, 2.0).bracket_ok  # inf_sup below rho past the slack
        assert not result(2.0 + 1e-5, 2.0).bracket_ok  # brackets rho, but the gap exceeds 1e-6


class TestInterp:
    def test_identity_pair(self):
        rpt = opsim.diag_interp_check(IDENTITY, IDENTITY, 3, trials=20, seed=0)
        assert rpt.case1_established and rpt.case2_established
        assert not rpt.violations

    def test_scalar_hand_value(self):
        s = diag_literal(2.0)
        rpt = opsim.diag_interp_check(s, IDENTITY, 1, trials=20, seed=1)
        # section value t + 2(1-t) = 2 - t >= 1 on [0, 1]
        assert not rpt.violations
        assert rpt.min_abs_det >= 1.0 - 1e-12

    @pytest.mark.parametrize("trials", [1, 0, -5])
    def test_rejects_fewer_trials_than_corners(self, trials):
        with pytest.raises(ValueError, match="trials must be >= 2"):
            opsim.diag_interp_check(IDENTITY, IDENTITY, 3, trials=trials)

    def test_rejects_unestablished(self):
        left = diag_literal(1.0, -1.0)
        with pytest.raises(PreconditionNotEstablishedError):
            opsim.diag_interp_check(left, diag_literal(-1.0, 1.0), 2, trials=5)

    def test_singular_section_unestablished(self):
        # a singular section has no inverse, so neither precondition holds;
        # the singularity itself does not escape
        singular = diag_literal(1.0, 0.0, 2.0)
        for s, t in ((singular, IDENTITY), (IDENTITY, singular), (singular, diag_literal(0.0, 1.0, 1.0))):
            with pytest.raises(PreconditionNotEstablishedError):
                opsim.diag_interp_check(s, t, 3, trials=5)

    def test_random_p_pairs_no_violations(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = 5
            s = rng.uniform(-1, 1, (n, n))
            np.fill_diagonal(s, np.abs(s).sum(axis=1) + 0.5)
            t = np.diag(rng.uniform(0.5, 2.0, n))
            spec_s = make_spec("dense-rule", "matrix-literal", {"matrix": s.tolist()})
            spec_t = make_spec("dense-rule", "matrix-literal", {"matrix": t.tolist()})
            rpt = opsim.diag_interp_check(spec_s, spec_t, n, trials=40, seed=int(rng.integers(1 << 30)))
            assert rpt.case1_established
            assert not rpt.violations

    @pytest.mark.parametrize("c", [5e-4, 2.0 ** -20, 1.0, 2.0 ** 20])
    def test_scaled_identity_pair_no_violations(self, c):
        # every combination is c I: |det| = c^5 is far below the pivot
        # threshold at small c, yet every pivot is c
        spec = literal_spec(c * np.eye(5))
        rpt = opsim.diag_interp_check(spec, spec, 5, trials=10)
        assert rpt.case1_established and rpt.case2_established
        assert not rpt.violations
        assert rpt.min_abs_det == pytest.approx(c ** 5)

    def test_one_factorization_per_interpolant(self, monkeypatch):
        flapack = scipy_extension("linalg._flapack")
        getrf, det = flapack.dgetrf, np.linalg.det
        factored, det_callers = [], []

        def counting_getrf(a, *args, **kwargs):
            factored.append(a.shape)
            return getrf(a, *args, **kwargs)

        def recording_det(a):
            det_callers.append(sys._getframe(1).f_globals["__name__"])
            return det(a)

        monkeypatch.setattr(flapack, "dgetrf", counting_getrf)
        monkeypatch.setattr(np.linalg, "det", recording_det)
        spec_s = literal_spec(generate(GenSpec("P-diagdom", 5, seed=2)))
        spec_t = literal_spec(np.diag([0.5, 1.0, 1.5, 2.0, 1.2]))
        rpt = opsim.diag_interp_check(spec_s, spec_t, 5, trials=30, seed=5)
        assert rpt.case1_established and rpt.case2_established
        # one getrf per combination, and two for the sections' inverses
        assert len(factored) == rpt.trials_case1 + rpt.trials_case2 + 2
        # numpy's det runs only in the preconditions' minor sweeps
        assert det_callers and set(det_callers) == {"pmkit.classify"}

    def test_abs_det_agrees_with_numpy(self, monkeypatch):
        # every combination of the operator suite (seed 1) and of the digest
        # pairs: |det| from the LU against np.linalg.det, 1e-12 relative
        factor = opsim.lu_factor_checked
        dets = []

        def spy(mat, thr):
            out = factor(mat, thr)
            dets.append((opsim._abs_det(out[0]), abs(float(np.linalg.det(mat)))))
            return out

        monkeypatch.setattr(opsim, "lu_factor_checked", spy)
        suites.suite_operator(1)
        pdiag = literal_spec(generate(GenSpec("P-diagdom", 5, seed=2)))
        small = literal_spec(5e-4 * np.eye(5))
        # the digest's other pairs raise PreconditionNotEstablishedError
        runs = [
            (IDENTITY, IDENTITY, 5, 40, 2),
            (make_spec("banded", "tridiag", {"a": 2.0, "b": -0.5}), diag_literal(3.0, 1.0, 2.0, 0.5, 1.0), 5, 40, 2),
            (pdiag, diag_literal(0.5, 1.0, 1.5, 2.0, 1.2), 5, 40, 2),
            (small, small, 5, 10, 0),
            (IDENTITY, IDENTITY, 3, 30, 3),
            (diag_literal(2.0), IDENTITY, 1, 30, 1),
            (pdiag, diag_literal(0.5, 1.0, 1.5, 2.0, 1.2), 5, 30, 5),
            (TRIDIAG, IDENTITY, 6, 30, 6),
        ]
        for s, t, n, trials, seed in runs:
            opsim.diag_interp_check(s, t, n, trials=trials, seed=seed)
        assert len(dets) > suites.INTERP_TRIALS
        for got, want in dets:
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_cli_exits_zero_on_a_small_scale_pair(self, tmp_path):
        spec = opsim.spec_to_obj(literal_spec(5e-4 * np.eye(5)))
        path, out = tmp_path / "pair.json", tmp_path / "interp.json"
        serialize.write_json(str(path), {"s": spec, "t": spec})
        argv = ["opsim", "interp", "--spec", str(path), "--order", "5", "--trials", "10", "--out", str(out), "--quiet"]
        assert main(argv) == 0
        assert serialize.load_json(str(out))["result"]["violations"] == []


class TestKernelSearch:
    def test_diag_one_minus_one_refuted(self):
        rpt = opsim.csufficient_kernel_search(diag_literal(1.0, -1.0), 2)
        assert rpt.refuted
        assert rpt.classifier_verdict == NO
        assert rpt.consistent
        # the documented refutation: alpha = {2}, D = (1) has kernel (1)
        alphas = {r.alpha for r in rpt.refutations}
        assert (2,) in alphas

    def test_identity_consistent(self):
        rpt = opsim.csufficient_kernel_search(IDENTITY, 2)
        assert not rpt.refuted
        assert rpt.classifier_verdict == YES
        assert rpt.consistent

    def test_diag_one_zero_not_refuted(self):
        rpt = opsim.csufficient_kernel_search(diag_literal(1.0, 0.0), 2)
        assert not rpt.refuted
        assert rpt.classifier_verdict == YES
        assert rpt.consistent

    def test_nilpotent_refuted(self):
        spec = make_spec("dense-rule", "matrix-literal", {"matrix": [[0.0, 0.0], [1.0, 0.0]]})
        rpt = opsim.csufficient_kernel_search(spec, 2)
        assert rpt.refuted and rpt.classifier_verdict == NO and rpt.consistent

    def test_refutation_witness_is_reversal_witness(self):
        nilpotent = make_spec("dense-rule", "matrix-literal", {"matrix": [[0.0, 0.0], [1.0, 0.0]]})
        z3 = literal_spec(generate(GenSpec("Z", 3, seed=7)))
        for spec, n in ((diag_literal(1.0, 1.0, -0.5), 3), (diag_literal(1.0, -1.0), 2), (nilpotent, 2),
                        (diag_literal(1.0, 1.0, 1.0, -1.0), 4), (z3, 3)):
            rpt = opsim.csufficient_kernel_search(spec, n)
            assert rpt.refuted
            mat = section(spec, n)
            for r in rpt.refutations:
                w = np.array(r.full_witness)
                assert classify.products_nonpositive_exact(mat, w, strict=True)
                # the kernel identity of the refutation, over the rationals
                t = [[Fraction(float(v)) for v in row] for row in mat]
                x = [Fraction(v) for v in r.full_witness]
                alpha = [i - 1 for i in r.alpha]
                assert alpha == [i for i, v in enumerate(x) if v != 0]
                assert list(r.kernel_vector) == [r.full_witness[i] for i in alpha]
                tx = [sum(t[i][j] * x[j] for j in range(n)) for i in range(n)]
                d = [-x[i] * tx[i] / x[i] ** 2 for i in alpha]
                for k, i in enumerate(alpha):
                    assert sum(t[i][j] * x[j] for j in alpha) + d[k] * x[i] == 0
                assert r.d_values == tuple(float(v) for v in d)
                assert all(v >= 0 for v in d) and any(v > 0 for v in d)

    def test_kernel_refutation_d_values_bits(self):
        # d_i = -x_i (Tx)_i / x_i^2 rounded once, as float(Fraction) rounds
        # it; OverflowError where the quotient is past the float range
        def reference(mat, x):
            t = [[Fraction(float(v)) for v in row] for row in mat]
            xs = [Fraction(float(v)) for v in x]
            prods = [xs[i] * sum((t[i][j] * xs[j] for j in range(len(xs))), Fraction(0)) for i in range(len(xs))]
            d = [-prods[i] / Fraction(float(x[i])) ** 2 for i in range(len(xs)) if x[i] != 0.0]
            if any(v < 0 for v in d) or not any(d):
                return None
            return tuple(float(v) for v in d)

        def outcome(fn, *args):
            try:
                return fn(*args)
            except OverflowError:
                return OverflowError

        def d_values(mat, x):
            r = opsim._kernel_refutation(mat, x)
            return None if r is None else r.d_values

        rng = np.random.default_rng(26)
        seen = set()
        for n in range(1, 9):
            for _ in range(40):
                # nonpositive entries and x >= 0: every product is <= 0
                mat = -np.abs(rng.standard_normal((n, n))) * np.exp2(rng.integers(-600, 601, (n, n)))
                mat[rng.random((n, n)) < 0.2] = 0.0
                x = np.abs(rng.standard_normal(n)) * np.exp2(rng.integers(-600, 601, n))
                x[rng.random(n) < 0.2] = 0.0
                x[rng.random(n) < 0.1] = 5e-324
                if rng.random() < 0.2:
                    x = x * rng.choice([-1.0, 1.0], n)
                want = outcome(reference, mat, x)
                assert outcome(d_values, mat, x) == want
                seen.add(want if want in (None, OverflowError) else tuple)
        assert seen == {None, OverflowError, tuple}

    def test_kernel_refutation_needs_a_nonzero_nonnegative_d(self):
        nilpotent = np.array([[0.0, 0.0], [1.0, 0.0]])
        # every product zero: D = 0
        assert opsim._kernel_refutation(nilpotent, np.array([0.0, 1.0])) is None
        # products (0, 1): d_2 = -1 < 0
        assert opsim._kernel_refutation(nilpotent, np.array([1.0, 1.0])) is None

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("tag, n, gen_seed", [
        ("arbitrary", 4, 14), ("arbitrary", 5, 15), ("arbitrary", 4, 50), ("Z", 3, 7), ("Z", 4, 0),
    ])
    def test_classifier_no_always_carries_a_refutation(self, tag, n, gen_seed, seed):
        # a float D grid missed these; the classifier's witness refutes each
        rpt = opsim.csufficient_kernel_search(literal_spec(generate(GenSpec(tag, n, seed=gen_seed))), n, seed=seed)
        assert rpt.classifier_verdict == NO
        assert rpt.refuted and len(rpt.refutations) == 1
        assert rpt.consistent

    def test_cli_exits_zero_on_a_classifier_no(self, tmp_path):
        spec = literal_spec(generate(GenSpec("arbitrary", 4, seed=14)))
        path, out = tmp_path / "arb4.json", tmp_path / "csuff.json"
        serialize.write_json(str(path), opsim.spec_to_obj(spec))
        assert main(["opsim", "csuff", "--spec", str(path), "--order", "4", "--out", str(out), "--quiet"]) == 0
        res = serialize.load_json(str(out))["result"]
        assert res["refuted"] and len(res["refutations"]) == 1
        assert res["classifier_verdict"] == NO and res["consistent"]

    def test_float_residual_hits_on_a_psd_matrix_are_not_refutations(self, tmp_path):
        # a float search meets T_alpha + D here with a small residual, but
        # no zero-padded kernel vector passes the exact strict gate: the PSD
        # matrix is column sufficient
        mat = generate(GenSpec("PSD", 5, seed=35))
        spec = make_spec("dense-rule", "matrix-literal", {"matrix": mat.tolist()})
        path, out = tmp_path / "psd5.json", tmp_path / "csuff.json"
        serialize.write_json(str(path), opsim.spec_to_obj(spec))
        assert main(["opsim", "csuff", "--spec", str(path), "--order", "5", "--out", str(out), "--quiet"]) == 0
        res = serialize.load_json(str(out))["result"]
        assert not res["refuted"] and not res["refutations"]
        assert res["classifier_verdict"] == YES and res["consistent"]

    def test_n4_curated_agreement(self):
        refuted_spec = diag_literal(1.0, 1.0, 1.0, -1.0)
        rpt = opsim.csufficient_kernel_search(refuted_spec, 4)
        assert rpt.refuted and rpt.classifier_verdict == NO and rpt.consistent
        ok_spec = make_spec(
            "dense-rule",
            "matrix-literal",
            {"matrix": (np.eye(4) + 0.1).tolist()},
        )
        rpt2 = opsim.csufficient_kernel_search(ok_spec, 4)
        assert not rpt2.refuted
        assert rpt2.classifier_verdict in (YES, UNKNOWN)
        assert rpt2.consistent


class TestRevMembership:
    def test_identity_not_reversing(self):
        q = opsim.rev_membership(IDENTITY, 2, [1.0, -1.0])
        assert q.products == (1.0, 1.0)
        assert not q.in_rev

    def test_worked_example_section(self):
        spec = make_spec(
            "dense-rule", "matrix-literal", {"matrix": [[-1.0, -1.0], [4.0, 3.0]]}
        )
        q = opsim.rev_membership(spec, 2, [1.0, -1.0])
        assert q.products == (0.0, -1.0)
        assert q.in_rev

    def test_zero_vector_degenerate_member(self):
        q = opsim.rev_membership(TRIDIAG, 3, [0.0, 0.0, 0.0])
        assert q.in_rev
        assert q.products == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("spec, x, in_rev", [
        (IDENTITY, [1.0, 1.0], False),
        (IDENTITY, [1.0, -1.0], False),
        (literal_spec([[-1.0, -1.0], [4.0, 3.0]]), [1.0, -1.0], True),
        (TRIDIAG, [1.0, -1.0, 1.0], False),
    ])
    def test_verdict_is_scale_free(self, spec, x, in_rev):
        # x -> 2^k x scales every product and the threshold by 4^k exactly
        n = len(x)
        for k in (-40, -20, 0, 20):
            assert opsim.rev_membership(spec, n, np.ldexp(x, k)).in_rev is in_rev


class TestEigvecRev:
    def test_identity_eigenvectors_not_in_rev(self):
        rpt = opsim.eigvec_rev_check(IDENTITY, 3)
        assert rpt.precondition == YES
        assert not rpt.skipped
        assert rpt.violations == 0
        assert len(rpt.entries) == 3

    def test_rank_deficient_diagonal(self):
        rpt = opsim.eigvec_rev_check(diag_literal(1.0, 0.0), 2)
        assert rpt.precondition == YES
        assert rpt.violations == 0
        assert [e.eigenvalue for e in rpt.entries] == [1.0]

    def test_non_csu_skipped(self):
        rpt = opsim.eigvec_rev_check(diag_literal(1.0, -1.0), 2)
        assert rpt.precondition == NO
        assert rpt.skipped

    def test_tridiag_no_violations(self):
        rpt = opsim.eigvec_rev_check(TRIDIAG, 3)
        assert rpt.violations == 0
        assert rpt.entries  # three real eigenvalues, all checked
