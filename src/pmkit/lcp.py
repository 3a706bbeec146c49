"""Linear complementarity: Lemke pivoting, complementary-cone enumeration,
and the uniqueness census that cross-validates the P-matrix equivalence.

LCP(M, q): find z >= 0 with w = Mz + q >= 0 and z^T w = 0.  The problem
has a unique solution for every q exactly when M is a P-matrix; the
enumerator is the brute-force oracle over all 2^n complementary bases and
the Lemke solver is the constructive route checked against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionTooLargeError, LcpCycleError
from .linalg import as_matrix, as_vector, inf_norm, lu_factor_checked, lu_solve, principal_stacks
from .tolerances import COMP, DEFAULT_TOL, RES, Tolerances

LEMKE_MAX_DIM = 32
ENUM_MAX_DIM = 12
CENSUS_MAX_DIM = 10


@dataclass(frozen=True)
class LCPInstance:
    m: np.ndarray
    q: np.ndarray

    @staticmethod
    def make(m, q) -> "LCPInstance":
        mat = as_matrix(m)
        vec = as_vector(q, mat.shape[0])
        return LCPInstance(mat, vec)

    @property
    def n(self) -> int:
        return self.m.shape[0]


@dataclass(frozen=True)
class LCPSolution:
    z: np.ndarray
    w: np.ndarray
    basis: tuple[int, ...]  # 1-based indices where z is basic


def validate_solution(inst: LCPInstance, sol: LCPSolution, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Re-check the solution invariants independently of how it was found."""
    m, q = inst.m, inst.q
    norm_m, norm_q = inf_norm(m), inf_norm(q)
    norm_z, norm_w = inf_norm(sol.z), inf_norm(sol.w)
    res = inf_norm(sol.w - (m @ sol.z + q))
    thr_res = RES * (norm_m * norm_z + norm_q + 1.0)
    thr_sign = tol.minor_for(norm_m, 1) * (1.0 + norm_z + norm_w)
    comp = abs(float(sol.z @ sol.w))
    return bool(
        res <= thr_res
        and sol.z.min(initial=0.0) >= -thr_sign
        and sol.w.min(initial=0.0) >= -thr_sign
        and comp <= COMP * (1.0 + norm_q) * (1.0 + norm_z)
    )


def _solution_from_z(inst: LCPInstance, z: np.ndarray) -> LCPSolution:
    w = inst.m @ z + inst.q
    basis = tuple((np.flatnonzero(z > 0.0) + 1).tolist())
    return LCPSolution(z, w, basis)


def lemke_solve(inst: LCPInstance) -> Optional[LCPSolution]:
    """Lemke complementary pivoting with the all-ones covering vector.

    The tableau is laid out as [rhs | w_0..w_{n-1} | z_0..z_{n-1} | z0], so
    variable v (w_i = i, z_i = n + i, z0 = 2n) sits in column v + 1 and a
    row's lexicographic key (rhs, w-block) is the slice tab[r, :n+1].  The
    ratio test divides the keys of all candidate rows (pivot-column entry
    above the pivot tolerance) at once, then scans them in row order: a
    candidate replaces the best one so far when its first component that
    differs by more than 1e-12 (1 + |best component|) is smaller (Cottle,
    Pang & Stone, The Linear Complementarity Problem, 1992, ch. 4).  The
    band is relative to the running best, so the comparison is not
    transitive and the scan order is part of the rule.  A pivot updates only
    the rows whose pivot-column entry is nonzero.  z0 enters on the last
    row where q is smallest: after that pivot each other row tied at the
    minimum reads (0, e_i - e_r), which is lexicographically positive only
    for i < r, so with the first tied row the tableau would start outside
    the invariant that the anti-cycling argument needs.  The iteration cap
    2^(n+2) backstops the rule, and exceeding the cap raises LcpCycleError
    as an anomaly.  Returns None on ray termination.
    """
    n = inst.n
    if n > LEMKE_MAX_DIM:
        raise DimensionTooLargeError(f"lemke_solve capped at n={LEMKE_MAX_DIM}")
    m, q = inst.m, inst.q
    if q.min(initial=0.0) >= 0.0:
        return _solution_from_z(inst, np.zeros(n))

    tab = np.empty((n, 2 * n + 2))
    tab[:, 0] = q
    tab[:, 1:n + 1] = 0.0
    tab[np.arange(n), np.arange(1, n + 1)] = 1.0
    np.negative(m, out=tab[:, n + 1:2 * n + 1])
    tab[:, 2 * n + 1] = -1.0
    z0 = 2 * n
    basis = list(range(n))
    piv_tol = 1e-11 * (1.0 + inf_norm(m))

    def pivot(row: int, var: int) -> None:
        prow = tab[row]
        prow /= prow[var + 1]
        rows = tab[:, var + 1].nonzero()[0]
        rows = rows[rows != row]
        tab[rows] -= tab[rows, var + 1][:, None] * prow

    def lex_ratio_row(var: int) -> Optional[int]:
        col = tab[:, var + 1]
        cand = (col > piv_tol).nonzero()[0]
        if cand.size <= 1:
            return int(cand[0]) if cand.size else None
        keys = (tab[cand, :n + 1] / col[cand, None]).tolist()
        best, best_key = 0, keys[0]
        for k in range(1, len(keys)):
            for v, b in zip(keys[k], best_key):
                d = v - b
                if abs(d) > 1e-12 * (1.0 + abs(b)):
                    if d < 0:
                        best, best_key = k, keys[k]
                    break
        return int(cand[best])

    row = int(np.flatnonzero(q == q.min())[-1])
    pivot(row, z0)
    leaving = basis[row]
    basis[row] = z0
    entering = n + leaving  # complement of the leaving w-variable

    for _ in range(2 ** (n + 2)):
        row = lex_ratio_row(entering)
        if row is None:
            return None  # ray termination
        pivot(row, entering)
        leaving, basis[row] = basis[row], entering
        if leaving == z0:
            z = np.zeros(n)
            for r, b in enumerate(basis):
                if n <= b < 2 * n:
                    z[b - n] = tab[r, 0]
            z = np.maximum(z, 0.0)
            return _solution_from_z(inst, z)
        entering = leaving + n if leaving < n else leaving - n
    raise LcpCycleError("pivot cap 2^(n+2) exceeded; lexicographic rule should prevent this")


def lemke_agrees(z_lemke: np.ndarray, z_ref: np.ndarray) -> bool:
    """Lemke's z reproduces a reference solution: within 1e-6 (1 + ||z_ref||_inf)."""
    return inf_norm(z_lemke - z_ref) <= 1e-6 * (1.0 + inf_norm(z_ref))


@dataclass(frozen=True)
class EnumerationResult:
    solutions: tuple[LCPSolution, ...]
    singular_skipped: int


def _basis_table(mat: np.ndarray, tol: Tolerances):
    """LU factors of M_aa for every nonempty complementary basis alpha, as
    (alpha, factors) with alpha a 0-based index array, in shortlex order,
    plus the count of bases skipped as singular (a pivot <=
    tol.sing_for(max(||M_aa||, ||M||)))."""
    norm_m = inf_norm(mat)
    bases: list = []
    singular = 0
    for idx, stack in principal_stacks(mat):
        # inf_norm of each M_aa, one reduction per size
        norms = np.abs(stack).sum(axis=2).max(axis=1).tolist()
        for sel, sub, norm in zip(idx, stack, norms):
            fac = lu_factor_checked(sub, tol.sing_for(max(norm, norm_m)))
            if fac is None:
                singular += 1
            else:
                bases.append((sel, fac))
    return bases, singular


def enumerate_solutions(inst: LCPInstance, tol: Tolerances = DEFAULT_TOL) -> EnumerationResult:
    """Brute-force oracle over all 2^n complementary bases.

    For each index set alpha: z_alpha solves M_aa z_alpha = -q_alpha with
    the complement clamped to zero; a basis is accepted when every
    component of z and of w = Mz + q is at least -thr, where
    thr = tol.minor_for(||M||_inf, 1) * (1 + ||q||_inf).  Singular bases
    are skipped and counted.  Distinct solutions are merged within 1e-8.
    """
    return next(enumerate_for_each(inst.m, [inst.q], tol))


def enumerate_for_each(m, qs, tol: Tolerances = DEFAULT_TOL):
    """enumerate_solutions(LCPInstance.make(m, q)) for each q in `qs`, in
    order, over one basis table of `m` (built when the first result is
    taken)."""
    mat = as_matrix(m)
    if mat.shape[0] > ENUM_MAX_DIM:
        raise DimensionTooLargeError(f"enumeration capped at n={ENUM_MAX_DIM}")
    n = mat.shape[0]
    bases, skipped = _basis_table(mat, tol)
    thr_minor = tol.minor_for(inf_norm(mat), 1)
    for q in qs:
        inst = LCPInstance(mat, as_vector(q, n))
        thr_sign = thr_minor * (1.0 + inf_norm(inst.q))
        neg_q = -inst.q
        # row 0 is the empty basis, row k the k-th table entry; one getrs per
        # basis on one right-hand side (trsv): a block solve over several q
        # would take trsm and move the last bits
        zs = np.zeros((len(bases) + 1, n))
        for row, (sel, fac) in zip(zs[1:], bases):
            row[sel] = lu_solve(fac, neg_q[sel])
        sols: list[np.ndarray] = []
        # the z test on all rows at once, negated so that a NaN row passes
        for z in zs[~(zs.min(axis=1) < -thr_sign)]:
            w = mat @ z + inst.q
            if w.min(initial=0.0) < -thr_sign:
                continue
            zc = np.maximum(z, 0.0)
            if not any(inf_norm(zc - s) <= 1e-8 * (1.0 + inf_norm(s)) for s in sols):
                sols.append(zc)
        yield EnumerationResult(tuple(_solution_from_z(inst, z) for z in sols), skipped)


@dataclass(frozen=True)
class CensusReport:
    trials: int
    count_zero: int
    count_one: int
    count_many: int
    verdict: str  # consistent-with-P | uniqueness-violated | inconclusive
    lemke_mismatches: int
    lemke_rays: int
    singular_skips: int
    example_bad_q: Optional[tuple[float, ...]]


def uniqueness_census(
    m, trials: int, seed: int = 0, tol: Tolerances = DEFAULT_TOL, stop_early: bool = False
) -> CensusReport:
    """Sample random q in [-5, 5]^n and tally enumeration counts {0, 1, >=2}.

    Consistent-with-P requires every tally to be exactly one (and no
    singular bases skipped; skips downgrade the verdict to inconclusive).
    When the count is one, lemke_solve must reproduce the solution within
    1e-6.  `stop_early` returns as soon as a count != 1 shows up, for
    contrapositive sampling.  `trials` below 1 raises ValueError: no
    verdict rests on zero samples.
    """
    mat = as_matrix(m)
    n = mat.shape[0]
    if n > CENSUS_MAX_DIM:
        raise DimensionTooLargeError(f"census capped at n={CENSUS_MAX_DIM}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    qs = [rng.uniform(-5.0, 5.0, n) for _ in range(trials)]

    zero = one = many = 0
    mismatches = rays = 0
    skipped_bases = 0
    bad_q: Optional[tuple[float, ...]] = None
    for q, res in zip(qs, enumerate_for_each(mat, qs, tol)):
        skipped_bases = res.singular_skipped
        count = len(res.solutions)
        if count == 0:
            zero += 1
        elif count == 1:
            one += 1
            sol = lemke_solve(LCPInstance(mat, q))
            if sol is None:
                rays += 1
            elif not lemke_agrees(sol.z, res.solutions[0].z):
                mismatches += 1
        else:
            many += 1
        if count != 1 and bad_q is None:
            bad_q = tuple(float(x) for x in q)
            if stop_early:
                break

    ran = zero + one + many
    if skipped_bases > 0:
        verdict = "inconclusive"
    elif zero == 0 and many == 0:
        verdict = "consistent-with-P"
    else:
        verdict = "uniqueness-violated"
    return CensusReport(
        trials=ran,
        count_zero=zero,
        count_one=one,
        count_many=many,
        verdict=verdict,
        lemke_mismatches=mismatches,
        lemke_rays=rays,
        singular_skips=skipped_bases,
        example_bad_q=bad_q,
    )
