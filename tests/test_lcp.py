"""LCP solver vs brute-force enumeration, and the uniqueness census."""

import numpy as np
import pytest

from pmkit import lcp
from pmkit.generators import GenSpec, generate
from pmkit.lcp import LCPInstance


def inst(m, q):
    return LCPInstance.make(m, q)


class TestLemke:
    def test_componentwise_clip(self):
        sol = lcp.lemke_solve(inst(np.eye(2), [-1.0, 2.0]))
        np.testing.assert_allclose(sol.z, [1.0, 0.0], atol=1e-10)
        np.testing.assert_allclose(sol.w, [0.0, 2.0], atol=1e-10)
        assert sol.basis == (1,)

    def test_interior_solution(self):
        # Mz = -q has the nonnegative solution z = (3,3) with w = 0
        sol = lcp.lemke_solve(inst([[2.0, -1.0], [-1.0, 2.0]], [-3.0, -3.0]))
        np.testing.assert_allclose(sol.z, [3.0, 3.0], atol=1e-10)
        np.testing.assert_allclose(sol.w, [0.0, 0.0], atol=1e-10)

    def test_trivial_nonnegative_q(self):
        sol = lcp.lemke_solve(inst(np.eye(2), [1.0, 1.0]))
        np.testing.assert_allclose(sol.z, [0.0, 0.0])
        np.testing.assert_allclose(sol.w, [1.0, 1.0])

    def test_ray_termination(self):
        # M = -I, q < 0: z - ... no solution exists; Lemke must hit a ray
        assert lcp.lemke_solve(inst(-np.eye(2), [-1.0, -1.0])) is None

    def test_solutions_valid(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            m = rng.uniform(-1, 1, (n, n))
            np.fill_diagonal(m, np.abs(m).sum(axis=1) + 0.3)
            q = rng.uniform(-5, 5, n)
            sol = lcp.lemke_solve(inst(m, q))
            assert sol is not None
            assert lcp.validate_solution(inst(m, q), sol)


class TestEnumeration:
    def test_unique_on_identity(self):
        res = lcp.enumerate_solutions(inst(np.eye(2), [-1.0, 2.0]))
        assert len(res.solutions) == 1
        np.testing.assert_allclose(res.solutions[0].z, [1.0, 0.0], atol=1e-12)
        assert res.singular_skipped == 0

    def test_trivial_q_positive(self):
        res = lcp.enumerate_solutions(inst(np.eye(2), [1.0, 1.0]))
        assert len(res.solutions) == 1
        np.testing.assert_allclose(res.solutions[0].z, [0.0, 0.0])

    def test_nilpotent_singular_bases(self):
        # alpha = {1}, {2}, {1,2} all have singular M_aa for this matrix,
        # and q = (0,-1) leaves w_2 < 0 at the empty basis: no solutions
        res = lcp.enumerate_solutions(inst([[0.0, 0.0], [1.0, 0.0]], [0.0, -1.0]))
        assert len(res.solutions) == 0
        assert res.singular_skipped == 3

    def test_non_p_multiple_solutions(self):
        # negative diagonal: q > 0 admits both the trivial solution and a
        # basic one using the negative entry
        m = np.diag([-1.0, 1.0])
        res = lcp.enumerate_solutions(inst(m, [1.0, 1.0]))
        assert len(res.solutions) >= 2

    def test_lemke_matches_enumeration_on_p(self):
        rng = np.random.default_rng(3)
        for _ in range(150):
            n = int(rng.integers(1, 7))
            m = generate(GenSpec("P-diagdom", n, seed=int(rng.integers(1 << 30))))
            q = rng.uniform(-5, 5, n)
            res = lcp.enumerate_solutions(inst(m, q))
            assert len(res.solutions) == 1
            assert res.singular_skipped == 0
            sol = lcp.lemke_solve(inst(m, q))
            assert sol is not None
            dev = np.abs(sol.z - res.solutions[0].z).max()
            assert dev <= 1e-6 * (1.0 + np.abs(res.solutions[0].z).max())

    def test_lemke_agreement_rejects_hand_built_mismatch(self):
        ref = np.array([1.0, 0.0, 2.0])
        assert lcp.lemke_agrees(ref + 2e-6, ref)  # within 1e-6 (1 + 2)
        assert not lcp.lemke_agrees(ref + np.array([0.0, 4e-6, 0.0]), ref)
        assert not lcp.lemke_agrees(np.zeros(3), ref)

    def test_every_solution_revalidates(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            m = rng.uniform(-2, 2, (n, n))
            q = rng.uniform(-5, 5, n)
            for sol in lcp.enumerate_solutions(inst(m, q)).solutions:
                assert lcp.validate_solution(inst(m, q), sol)


class TestCensus:
    def test_identity_all_one(self):
        rpt = lcp.uniqueness_census(np.eye(2), trials=100, seed=0)
        assert rpt.count_one == 100
        assert rpt.verdict == "consistent-with-P"
        assert rpt.lemke_mismatches == 0 and rpt.lemke_rays == 0

    def test_three_dim_identity(self):
        rpt = lcp.uniqueness_census(np.eye(3), trials=50, seed=1)
        assert rpt.count_one == 50
        assert rpt.verdict == "consistent-with-P"

    def test_worked_example_violated(self):
        rpt = lcp.uniqueness_census(
            np.array([[-1.0, -1.0], [4.0, 3.0]]), trials=200, seed=2
        )
        assert rpt.verdict == "uniqueness-violated"
        assert rpt.example_bad_q is not None

    def test_stop_early(self):
        rpt = lcp.uniqueness_census(
            np.diag([-1.0, 1.0]), trials=500, seed=3, stop_early=True
        )
        assert rpt.example_bad_q is not None
        assert rpt.trials <= 500

    @pytest.mark.parametrize("trials", [0, -3])
    def test_no_trials_rejected(self, monkeypatch, trials):
        # zero samples would read consistent-with-P even for non-P diag(-1, 1);
        # the census refuses before it builds its basis table
        built = []
        monkeypatch.setattr(lcp, "_basis_table", lambda *args: built.append(args))
        with pytest.raises(ValueError, match="trials must be >= 1"):
            lcp.uniqueness_census(np.diag([-1.0, 1.0]), trials=trials)
        assert built == []

    def test_singular_skips_inconclusive(self):
        rpt = lcp.uniqueness_census(np.zeros((2, 2)), trials=10, seed=4)
        assert rpt.singular_skips == 3
        assert rpt.verdict == "inconclusive"

    def test_counts_match_enumeration(self):
        # the census draws q with its own seeded generator; replaying the
        # draws through enumerate_solutions must give the same tallies
        nilpotent = np.array([[0.0, 0.0], [1.0, 0.0]])
        rng = np.random.default_rng(8)
        mats = [nilpotent, np.diag([-1.0, 1.0]), np.eye(3), rng.uniform(-1.0, 1.0, (3, 3))]
        mats.append(rng.uniform(-1.0, 1.0, (4, 4)) + 4.0 * np.eye(4))
        for seed, m in enumerate(mats):
            rpt = lcp.uniqueness_census(m, trials=30, seed=seed)
            draws = np.random.default_rng(seed)
            counts = [0, 0, 0]
            for _ in range(30):
                res = lcp.enumerate_solutions(inst(m, draws.uniform(-5.0, 5.0, m.shape[0])))
                counts[min(len(res.solutions), 2)] += 1
                assert res.singular_skipped == rpt.singular_skips
            assert counts == [rpt.count_zero, rpt.count_one, rpt.count_many]
        assert lcp.uniqueness_census(nilpotent, trials=5).singular_skips == 3


class TestEnumerateForEach:
    def test_same_as_one_call_per_instance(self, monkeypatch):
        tables = []
        basis_table = lcp._basis_table

        def counted(m, tol):
            tables.append(m)
            return basis_table(m, tol)

        monkeypatch.setattr(lcp, "_basis_table", counted)
        rng = np.random.default_rng(12)
        mats = [generate(GenSpec("P-diagdom", 6, seed=11)), np.diag([-1.0, 1.0]),
                np.array([[0.0, 0.0], [1.0, 0.0]]), np.zeros((2, 2))]
        for m in mats:
            qs = [rng.uniform(-5.0, 5.0, m.shape[0]) for _ in range(12)]
            qs.append(np.zeros(m.shape[0]))
            del tables[:]
            results = list(lcp.enumerate_for_each(m, qs))
            assert len(tables) == 1 and len(results) == len(qs)
            for q, res in zip(qs, results):
                ref = lcp.enumerate_solutions(inst(m, q))
                assert res.singular_skipped == ref.singular_skipped
                assert len(res.solutions) == len(ref.solutions)
                for got, want in zip(res.solutions, ref.solutions):
                    np.testing.assert_array_equal(got.z, want.z)
                    np.testing.assert_array_equal(got.w, want.w)
                    assert got.basis == want.basis


class TestCaps:
    def test_enum_cap(self):
        with pytest.raises(Exception):
            lcp.enumerate_solutions(inst(np.eye(13), np.zeros(13)))

    def test_census_cap(self):
        with pytest.raises(Exception):
            lcp.uniqueness_census(np.eye(11), trials=1)
