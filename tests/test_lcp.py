"""LCP solver vs brute-force enumeration, and the uniqueness census."""

import pickle
import tracemalloc
import warnings
from collections import Counter
from itertools import combinations, groupby
from typing import Optional

import numpy as np
import pytest
import scipy.linalg

from pmkit import lcp
from pmkit.errors import FloatRangeError, LcpCycleError
from pmkit.generators import GenSpec, generate
from pmkit.lcp import LCPInstance
from pmkit.linalg import as_matrix, as_vector, inf_norm, scipy_extension
from pmkit.tolerances import DEFAULT_TOL


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

    def test_stop_early_draws_only_the_examined_q(self, monkeypatch):
        draws = []
        default_rng = np.random.default_rng

        class CountingRng:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def uniform(self, *args):
                draws.append(self.rng.uniform(*args))
                return draws[-1]

        monkeypatch.setattr(np.random, "default_rng", CountingRng)
        rpt = lcp.uniqueness_census(np.diag([-1.0, 1.0]), trials=500, seed=3, stop_early=True)
        assert 1 <= rpt.trials < 500
        assert len(draws) == rpt.trials
        # the same sequence as drawing all 500 first
        assert rpt.example_bad_q == tuple(default_rng(3).uniform(-5.0, 5.0, (500, 2))[rpt.trials - 1])

    def test_blocks_agree_with_one_q_at_a_time(self):
        # 100 q cross three block boundaries at n = 8; a P-matrix never stops
        # early, so stop_early examines every q on its own
        m = generate(GenSpec("P-diagdom", 8, seed=8))
        assert 100 > 3 * lcp._block_len(8 << 7)
        rpt = lcp.uniqueness_census(m, trials=100, seed=3)
        assert rpt.count_one == 100
        assert rpt == lcp.uniqueness_census(m, trials=100, seed=3, stop_early=True)

    def test_memory_bounded_by_one_block(self):
        # the peak with 2,000 q is that with 50, but for at most one block's
        # arrays: its band unknowns, their gathered right-hand sides and its
        # table of z vectors (2^n n per q)
        n = 10
        m = generate(GenSpec("P-diagdom", n, seed=n))
        lcp.uniqueness_census(m, trials=5, seed=1)

        def peak(trials):
            tracemalloc.start()
            try:
                assert lcp.uniqueness_census(m, trials=trials, seed=1).count_one == trials
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        unknowns = n << (n - 1)
        block_bytes = lcp._block_len(unknowns) * (2 * unknowns + (n << n)) * 8
        assert peak(2000) - peak(50) <= block_bytes

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


GEN_CLASSES = ("P-diagdom", "M-matrix", "sym-PD", "Z", "PSD", "non-P", "arbitrary")


class TestFloatRange:
    """M = diag(1e-3, 1) is P, but z_1 = 1e306 / 1e-3 overflows."""

    M = np.diag([1e-3, 1.0])
    Q = [-1e306, -1.0]

    def test_enumeration_raises(self):
        with pytest.raises(FloatRangeError):
            lcp.enumerate_solutions(inst(self.M, self.Q))
        # the overflow is in one basis, but the exact-zero coupling entries
        # carry it into the next block as NaN: no q of that table goes on
        with pytest.raises(FloatRangeError):
            list(lcp.enumerate_for_each(self.M, [[-1.0, -1.0], self.Q, [-1.0, -1.0]]))

    def test_overflow_in_a_rejected_basis_raises(self):
        # z_1 of bases {1} and {1, 2} overflows to -inf, which the z test
        # would reject, but the coupling entries turn the block of basis {2}
        # NaN: the solve raises rather than drop that basis
        with pytest.raises(FloatRangeError):
            lcp.enumerate_solutions(inst(self.M, [1e306, -1.0]))

    def test_lemke_raises(self):
        # z_1 overflows in the tableau: the error, not a warning, is the outcome
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(FloatRangeError):
            lcp.lemke_solve(inst(self.M, self.Q))

    def test_lemke_raises_without_numpy_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatRangeError):
                lcp.lemke_solve(inst(self.M, self.Q))

    def test_finite_at_the_edge_of_range(self):
        sol = lcp.enumerate_solutions(inst(self.M, [-1e300, -1.0])).solutions
        assert len(sol) == 1 and np.isfinite(sol[0].z).all() and np.isfinite(sol[0].w).all()

    def test_overflowing_row_sums_raise_without_numpy_warnings(self):
        # a P-matrix with ||M||_inf = inf: every threshold saturated, so the
        # enumeration once took z = 0, w = (-1, -1) as the one solution and
        # Lemke reported a ray, which no P-matrix has
        m, q = np.array([[1e308, 1e308], [0.0, 1e308]]), [-1.0, -1.0]
        calls = [lambda: lcp.lemke_solve(inst(m, q)), lambda: lcp.enumerate_solutions(inst(m, q)),
                 lambda: next(lcp.lemke_for_each(m, [np.ones(2)])),
                 lambda: lcp.uniqueness_census(m, 10), lambda: lcp.uniqueness_census(m, 10, stop_early=True)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(FloatRangeError, match="row sum of M"):
                    call()


class TestBandedSolve:
    def test_each_basis_equals_its_getrs(self):
        """The band solve of each basis that passes the pivot test equals
        getrs(getrf(M_aa), -q_alpha) under ==, on random q, q with zero
        entries and q >= 0, solved as the three columns of one block."""
        rng = np.random.default_rng(21)
        solved = 0
        for n in range(1, 13):
            for k, tag in enumerate(GEN_CLASSES):
                m = generate(GenSpec(tag, n, seed=1000 * n + k))
                table = lcp._basis_table(m, DEFAULT_TOL)
                bases = (list(c) for size in range(1, n + 1) for c in combinations(range(n), size))
                factors = [(alpha, *scipy.linalg.lapack.dgetrf(m[alpha][:, alpha])[:2])
                           for alpha, ok in zip(bases, table.ok[1:]) if ok]
                rows = np.repeat(table.ok[1:], table.layout.sizes)
                draw = rng.uniform(-5.0, 5.0, n)
                qs = np.array([draw, np.where(np.arange(n) % 2 == 0, 0.0, draw), np.abs(draw)])
                got = lcp._band_solve(table, qs)
                for q, x in zip(qs, got):
                    want = [scipy.linalg.lapack.dgetrs(lu, piv, -q[alpha])[0] for alpha, lu, piv in factors]
                    if want:
                        assert (x[rows] == np.concatenate(want)).all()
                    solved += len(want)
        assert solved > 100_000

    def test_maximum_clears_the_sign_of_zero(self):
        # the enumeration reports np.maximum(z, 0.0): a -0.0 that the band
        # solve leaves where getrs gives +0.0 must come out +0.0
        assert not np.signbit(np.maximum(np.array([-0.0]), 0.0)).any()

    def test_lapack_calls(self, monkeypatch):
        flapack = scipy_extension("linalg._flapack")
        calls = Counter()

        def counted(name):
            fn = getattr(flapack, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return call

        for name in ("dgetrf", "dgetrs", "dtbtrs"):
            monkeypatch.setattr(flapack, name, counted(name))
        rng = np.random.default_rng(22)
        # two dtbtrs calls per block of q; a block at n = 8 holds 32 q
        for n, count, blocks in ((1, 7, 1), (4, 7, 1), (8, 7, 1), (8, 70, 3)):
            m = generate(GenSpec("M-matrix", n, seed=n))
            qs = [rng.uniform(-5.0, 5.0, n) for _ in range(count)]
            calls.clear()
            assert len(list(lcp.enumerate_for_each(m, qs))) == count
            assert calls == {"dgetrf": 2 ** n - 1, "dtbtrs": 2 * blocks}


def _tied_cases():
    """(class, m, q) with the minimum of q tied: q = -1, q = -3.7 and q
    with its first ceil(n/2) entries -1, for seven classes at n = 2..10,
    seeds 0-14, and two arbitrary n = 16 instances that cycled past the
    pivot cap when the first tied row entered."""
    rng = np.random.default_rng(3)
    for tag in GEN_CLASSES:
        for n in range(2, 11):
            for seed in range(15):
                m = generate(GenSpec(tag, n, seed=seed))
                half = np.where(np.arange(n) < (n + 1) // 2, -1.0, rng.uniform(0.5, 3.0, n))
                for q in (np.full(n, -1.0), np.full(n, -3.7), half):
                    yield tag, m, q
    yield "arbitrary", generate(GenSpec("arbitrary", 16, seed=16)), np.full(16, -1.0)
    yield "arbitrary", generate(GenSpec("arbitrary", 16, seed=1016)), np.full(16, -3.7)


class TestTiedMinimum:
    def test_no_cycling_and_every_solution_validates(self):
        solved = 0
        for tag, m, q in _tied_cases():
            sol = lcp.lemke_solve(inst(m, q))  # an LcpCycleError fails the test
            if tag in ("P-diagdom", "M-matrix", "sym-PD"):
                assert sol is not None  # LCP(M, q) has a solution for every P-matrix M
            if sol is not None:
                assert lcp.validate_solution(inst(m, q), sol)
                solved += 1
        assert solved > 1000


class TestCaps:
    def test_enum_cap(self):
        with pytest.raises(Exception):
            lcp.enumerate_solutions(inst(np.eye(13), np.zeros(13)))

    def test_census_cap(self):
        with pytest.raises(Exception):
            lcp.uniqueness_census(np.eye(11), trials=1)


# The enumeration and Lemke loops as they stood before the LAPACK calls were
# made direct and the screens and ratio tests vectorized: scipy's LU
# wrappers, one basis at a time, one row update and one ratio-test key at a
# time.  The Lemke loop's first pivot takes the last row tied at min(q), as
# the library's does.  The library must reproduce their outputs bit for
# bit.


def _reference_enumerate_for_each(m, qs, tol=DEFAULT_TOL):
    mat = as_matrix(m)
    n = mat.shape[0]
    norm_m = inf_norm(mat)
    bases: list = [((), None)]
    skipped = 0
    for sel in [list(c) for k in range(1, n + 1) for c in combinations(range(n), k)]:
        sub = mat[np.ix_(sel, sel)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu, piv = scipy.linalg.lu_factor(sub, check_finite=False)
        if np.abs(np.diag(lu)).min() <= tol.sing_for(max(inf_norm(sub), norm_m)):
            skipped += 1
        else:
            bases.append((sel, (lu, piv)))
    thr_minor = tol.minor_for(norm_m, 1)
    for q in qs:
        inst = LCPInstance(mat, as_vector(q, n))
        thr_sign = thr_minor * (1.0 + inf_norm(inst.q))
        sols: list = []
        for sel, fac in bases:
            z = np.zeros(n)
            if sel:
                z[sel] = scipy.linalg.lu_solve(fac, -inst.q[sel], check_finite=False)
            w = mat @ z + inst.q
            if z.min(initial=0.0) < -thr_sign or w.min(initial=0.0) < -thr_sign:
                continue
            zc = np.maximum(z, 0.0)
            if not any(inf_norm(zc - s) <= 1e-8 * (1.0 + inf_norm(s)) for s in sols):
                sols.append(zc)
        yield lcp.EnumerationResult(tuple(lcp._solution_from_z(inst, z) for z in sols), skipped)


def _reference_lemke_solve(inst, tol=DEFAULT_TOL, late=None):
    """`late`, a list, gets one entry per ratio-test comparison that a key
    component past the first (the rhs ratio) decided."""
    n = inst.n
    m, q = inst.m, inst.q
    if q.min(initial=0.0) >= 0.0:
        return lcp._solution_from_z(inst, np.zeros(n))
    tab = np.hstack([np.eye(n), -m, -np.ones((n, 1)), q.reshape(-1, 1)])
    rhs_col = 2 * n + 1
    z0_col = 2 * n
    basis = list(range(n))
    piv_tol = 1e-11 * (1.0 + inf_norm(m))

    def pivot(row: int, col: int) -> None:
        tab[row] /= tab[row, col]
        for r in range(n):
            if r != row and tab[r, col] != 0.0:
                tab[r] -= tab[r, col] * tab[row]

    def lex_ratio_row(col: int) -> Optional[int]:
        cand = [r for r in range(n) if tab[r, col] > piv_tol]
        if not cand:
            return None
        best = cand[0]
        best_vec = np.concatenate(([tab[best, rhs_col]], tab[best, :n])) / tab[best, col]
        for r in cand[1:]:
            vec = np.concatenate(([tab[r, rhs_col]], tab[r, :n])) / tab[r, col]
            diff = vec - best_vec
            nz = np.nonzero(np.abs(diff) > 1e-12 * (1.0 + np.abs(best_vec)))[0]
            if late is not None and nz.size and nz[0] > 0:
                late.append(int(nz[0]))
            if nz.size and diff[nz[0]] < 0:
                best, best_vec = r, vec
        return best

    row = int(np.flatnonzero(q == q.min())[-1])
    pivot(row, z0_col)
    leaving = basis[row]
    basis[row] = z0_col
    entering = n + leaving
    for _ in range(2 ** (n + 2)):
        row = lex_ratio_row(entering)
        if row is None:
            return None
        pivot(row, entering)
        leaving, basis[row] = basis[row], entering
        if leaving == z0_col:
            z = np.zeros(n)
            for r, b in enumerate(basis):
                if n <= b < 2 * n:
                    z[b - n] = tab[r, rhs_col]
            return lcp._solution_from_z(inst, np.maximum(z, 0.0))
        entering = leaving + n if leaving < n else leaving - n
    raise LcpCycleError("pivot cap 2^(n+2) exceeded; lexicographic rule should prevent this")


FIXTURES = (np.array([[0.0, 0.0], [1.0, 0.0]]), np.zeros((2, 2)), np.diag([-1.0, 1.0]))


def _degenerate_qs(rng, n: int) -> list:
    """q with zero entries, with repeated entries, and q >= 0."""
    q = rng.uniform(-5.0, 5.0, n)
    with_zeros = np.where(np.arange(n) % 2 == 0, 0.0, q)
    repeated = np.full(n, q[0])
    repeated[n // 2:] = -1.0
    return [np.zeros(n), with_zeros, repeated, np.abs(q), -np.abs(q)]


def _lcp_cases():
    """(m, qs) over seeded draws of five classes at n = 1..8 and the three
    fixtures; each qs has 24 random q (a per-basis solve over all of them
    at once would take the multi-column path) and the degenerate ones."""
    rng = np.random.default_rng(10)
    mats = [generate(GenSpec(tag, n, seed=100 * n + k))
            for k, tag in enumerate(("P-diagdom", "non-P", "M-matrix", "sym-PD", "arbitrary"))
            for n in range(1, 9)]
    for m in mats + list(FIXTURES):
        n = m.shape[0]
        yield m, [rng.uniform(-5.0, 5.0, n) for _ in range(24)] + _degenerate_qs(rng, n)


def _borderline_qs(m) -> list:
    """Two q that put w_{n-1} of the basis {1..n-2} within one rounding of
    the sign threshold -thr, one on each side, as one matrix-vector product
    w = Mz + q rounds it (a matrix-matrix product over all bases rounds
    differently).  q_n is the largest entry, so ||q||_inf and thr do not
    move with q_{n-1}."""
    n = m.shape[0]
    k, big = n - 2, 10.0 * (1.0 + inf_norm(m))
    sub = m[:k, :k]
    q = np.zeros(n)
    q[:k], q[-1] = -(sub @ np.ones(k)), big
    z = np.zeros(n)
    z[:k] = scipy.linalg.lu_solve(scipy.linalg.lu_factor(sub), -q[:k], check_finite=False)
    thr = DEFAULT_TOL.minor_for(inf_norm(m), 1) * (1.0 + big)
    s = (m @ z)[k]
    qk = -thr - s
    while s + qk >= -thr:
        qk = np.nextafter(qk, -np.inf)
    while s + qk < -thr:
        qk = np.nextafter(qk, np.inf)
    passing, failing = q.copy(), q.copy()
    passing[k], failing[k] = qk, np.nextafter(qk, -np.inf)
    return [passing, failing]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except LcpCycleError as exc:
        return ("raised", str(exc))


class TestAgainstReferenceLoops:
    def test_enumeration_same_bits(self):
        for m, qs in _lcp_cases():
            got = list(lcp.enumerate_for_each(m, qs))
            want = list(_reference_enumerate_for_each(m, qs))
            assert pickle.dumps(got) == pickle.dumps(want)
            one = [lcp.enumerate_solutions(inst(m, q)) for q in qs[-5:]]
            assert pickle.dumps(one) == pickle.dumps(want[-5:])

    def test_sign_threshold_borderline_same_bits(self):
        for seed in range(16):
            m = generate(GenSpec("P-diagdom", 6 + seed % 3, seed=seed))
            qs = _borderline_qs(m)
            got = list(lcp.enumerate_for_each(m, qs))
            want = list(_reference_enumerate_for_each(m, qs))
            assert pickle.dumps(got) == pickle.dumps(want)

    def test_lemke_same_bits(self):
        cases = list(_lcp_cases())
        rng = np.random.default_rng(11)
        for n in (16, 32):
            cases.append((generate(GenSpec("P-diagdom", n, seed=n)),
                          [rng.uniform(-5.0, 5.0, n) for _ in range(3)]))
        for tag in ("P-diagdom", "Z", "arbitrary"):
            for n in (10, 12, 24):
                cases.append((generate(GenSpec(tag, n, seed=7 * n)),
                              [rng.uniform(-5.0, 5.0, n) for _ in range(3)]))
        late: list = []
        for m, qs in cases:
            for q in qs:
                got = _outcome(lcp.lemke_solve, inst(m, q))
                want = _outcome(_reference_lemke_solve, inst(m, q), DEFAULT_TOL, late)
                assert pickle.dumps(got) == pickle.dumps(want)
        # the w-block tie-break, not only the rhs ratio, was compared
        assert len(late) > 0


def _quiet(fn, *args):
    """fn(*args) with numpy's floating-point warnings off: the reference
    loops overflow on the way to FloatRangeError, where the library does not."""
    with np.errstate(all="ignore"):
        return _outcome(fn, *args)


def _reference_lemke_for_each(m, qs, late=None):
    return [_quiet(_reference_lemke_solve, inst(m, q), DEFAULT_TOL, late) for q in qs]


def _lemke_for_each(m, qs):
    """lemke_for_each's outcomes, its error (an LcpCycleError as _outcome
    records it) at the end."""
    out: list = []
    try:
        out.extend(lcp.lemke_for_each(m, qs))
    except LcpCycleError as exc:
        out.append(("raised", str(exc)))
    return out


def _batch_cases():
    """(m, qs) with more q than one block: several hundred q at n = 2, 4
    and 6, two enumeration blocks and one q more at n = 8..12, and Lemke
    blocks at n = 16 and 32, for a P and a non-P class, with q of zero,
    repeated and nonnegative entries among them."""
    rng = np.random.default_rng(31)
    sizes = [(n, 400) for n in (2, 4, 6)]
    sizes += [(n, 2 * lcp._block_len(n << (n - 1)) + 1) for n in range(8, 13)]
    sizes += [(n, lcp._block_len(n * (2 * n + 2)) + 1) for n in (16, 32)]
    for tag in ("P-diagdom", "non-P"):
        for n, count in sizes:
            m = generate(GenSpec(tag, n, seed=n))
            qs = [rng.uniform(-5.0, 5.0, n) for _ in range(count)]
            qs[1::7] = [_degenerate_qs(rng, n)[k % 5] for k in range(len(qs[1::7]))]
            yield m, qs


class TestBatchPaths:
    """The block paths give the bits of one q at a time: pickle-equal to the
    reference loops, with numpy warnings turned into errors."""

    def test_enumeration_across_blocks(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m, qs in _batch_cases():
                if m.shape[0] <= lcp.ENUM_MAX_DIM:
                    got = list(lcp.enumerate_for_each(m, qs))
                    assert pickle.dumps(got) == pickle.dumps(list(_reference_enumerate_for_each(m, qs)))

    def test_lemke_across_blocks(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m, qs in _batch_cases():
                assert pickle.dumps(_lemke_for_each(m, qs)) == pickle.dumps(_reference_lemke_for_each(m, qs))

    def test_lemke_tied_minimum_per_matrix(self):
        late: list = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _, group in groupby(_tied_cases(), key=lambda case: id(case[1])):
                group = list(group)
                m, qs = group[0][1], [q for _, _, q in group]
                assert pickle.dumps(_lemke_for_each(m, qs)) == pickle.dumps(_reference_lemke_for_each(m, qs, late))
        # key components past the first decided some steps
        assert len(late) > 0

    def test_an_error_comes_at_its_turn(self):
        # TestFloatRange's overflowing q in the middle of a block: the
        # results before it come first, then its FloatRangeError
        m = TestFloatRange.M
        qs = [[-1.0, -2.0], [3.0, -1.0], [0.5, 0.5], TestFloatRange.Q, [-1.0, -1.0], [2.0, 1.0]]
        for each, reference in ((lcp.enumerate_for_each, _reference_enumerate_for_each),
                                (lcp.lemke_for_each, _reference_lemke_for_each)):
            got = []
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(FloatRangeError):
                    for out in each(m, qs):
                        got.append(out)
            assert pickle.dumps(got) == pickle.dumps(list(reference(m, qs[:3])))
        for one_at_a_time in (False, True):
            seen = []
            with pytest.raises(FloatRangeError):
                for q, res, sol in lcp.cross_check_for_each(m, qs, one_at_a_time=one_at_a_time):
                    seen.append((q.tolist(), res, sol))
            assert [q for q, _, _ in seen] == qs[:3]
            assert pickle.dumps([sol for _, _, sol in seen]) == pickle.dumps(_reference_lemke_for_each(m, qs[:3]))

    def test_a_malformed_q_fails_at_its_turn(self):
        m = np.eye(2)
        for each in (lcp.enumerate_for_each, lcp.lemke_for_each):
            got = []
            with pytest.raises(ValueError, match="vector of length 2"):
                for out in each(m, [[-1.0, 1.0], [1.0, 2.0, 3.0], [1.0, 1.0]]):
                    got.append(out)
            assert len(got) == 1


class TestBackstop:
    @staticmethod
    def _row_zero(monkeypatch) -> list:
        """Patch the ratio test to always pick row 0, which walks w0 -> z1 ->
        z0 -> w1 -> w0 through row 0 while z0 stays basic in the other row:
        the fourth pivot repeats the first basis.  Returns the list of calls,
        and a fifth call fails the test rather than let it run on."""
        ratio_rows = lcp._ratio_rows
        calls: list = []

        def row_zero(tabs, cols, piv_tol):
            calls.append(cols)
            assert len(calls) <= 4, "no LcpCycleError within one cycle"
            return [0] * len(cols), ratio_rows(tabs, cols, piv_tol)[1]

        monkeypatch.setattr(lcp, "_ratio_rows", row_zero)
        return calls

    def test_repeated_basis_raises_within_one_cycle(self, monkeypatch):
        calls = self._row_zero(monkeypatch)
        with pytest.raises(LcpCycleError, match="basis repeated after 4 pivots"):
            lcp.lemke_solve(inst([[2.0, 1.0], [1.0, 2.0]], [1.0, -1.0]))
        assert len(calls) == 4

    def test_repeated_basis_raises_at_its_turn(self, monkeypatch):
        # in a block, the q >= 0 before the cycling q takes no pivot and
        # comes first; the last q, whose z0 sits in row 0, steps with the
        # cycling one once and leaves the block when z0 leaves its basis
        calls = self._row_zero(monkeypatch)
        got = []
        with pytest.raises(LcpCycleError):
            for sol in lcp.lemke_for_each([[2.0, 1.0], [1.0, 2.0]], [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0]]):
                got.append(sol)
        assert len(got) == 1 and got[0].basis == ()
        assert [len(cols) for cols in calls] == [2, 1, 1, 1]


class TestPivot:
    def test_rows_with_a_zero_entry_keep_their_bits(self):
        # updating every row would turn row 1's -0.0 into +0.0 (-0.0 minus
        # 0.0 * -0.5) and its last entry into NaN (0.0 * inf); the masked
        # update leaves both rows with a zero pivot-column entry as they are,
        # one tableau by views and two by fancy indexing
        tab = np.array([[2.0, 4.0, -2.0, np.inf], [-0.0, 0.0, -0.0, 1.0],
                        [3.0, 0.0, 5.0, 7.0], [1.0, 2.0, 3.0, 4.0]])
        want = tab.copy()
        want[0] /= want[0, 1]
        for r in (1, 2, 3):
            if want[r, 1] != 0.0:
                want[r] -= want[r, 1] * want[0]
        for count in (1, 2):
            tabs = np.array([tab] * count)
            with np.errstate(invalid="ignore", over="ignore"):
                lcp._pivot(tabs, [0] * count, tabs[:, :, 1].copy())
            assert all(t.tobytes() == want.tobytes() for t in tabs)
