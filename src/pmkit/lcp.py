"""Linear complementarity: Lemke pivoting, complementary-cone enumeration,
and the uniqueness census that cross-validates the P-matrix equivalence.

LCP(M, q): find z >= 0 with w = Mz + q >= 0 and z^T w = 0.  The problem
has a unique solution for every q exactly when M is a P-matrix; the
enumerator is the brute-force oracle over all 2^n complementary bases and
the Lemke solver is the constructive route checked against it.

The enumerator factors each basis once per matrix (one LAPACK `dgetrf`
each) and packs the factors into one lower and one upper band, block after
block; each q then takes two banded solves (`dtbtrs`) for all bases at
once, with the bits of one `getrs` per basis (see `enumerate_for_each`).
No routine here returns a solution with an inf or NaN entry: one raises
FloatRangeError instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import tee
from typing import NamedTuple, Optional

import numpy as np

from .errors import DimensionTooLargeError, FloatRangeError, LcpCycleError
from .linalg import _index_sets, as_matrix, as_vector, inf_norm, principal_stacks, scipy_extension
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
    """The solution with this z; raises FloatRangeError when z or
    w = Mz + q has an inf or NaN entry (an inf in z makes w inf or NaN)."""
    w = inst.m @ z + inst.q
    if not np.isfinite(w).all():
        raise FloatRangeError("the LCP solution z or w = Mz + q left the float64 range")
    basis = tuple((np.flatnonzero(z > 0.0) + 1).tolist())
    return LCPSolution(z, w, basis)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
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
    as an anomaly.  Returns None on ray termination.  A z or w that leaves
    the float64 range raises FloatRangeError; the overflow in the tableau
    that leads there raises no numpy warning on the way.
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


class _BandLayout(NamedTuple):
    """Where the 2^n - 1 nonempty complementary bases of order n sit in the
    block-diagonal system of `_basis_table`, as read-only intp arrays.

    Block b, the b-th nonempty index set in shortlex order, takes the
    sizes[b] rows (and columns) from starts[b] on, and unknown r of the
    system is variable alpha[r].  `swaps[i]` holds the rows at position i
    of their block, for i < n - 1 (the last position never swaps).
    `zs_pos` is each unknown's place in the flattened (2^n, n) table of z
    vectors, row 0 the empty basis."""

    sizes: np.ndarray
    starts: np.ndarray
    alpha: np.ndarray
    zs_pos: np.ndarray
    swaps: tuple


@lru_cache(maxsize=None)
def _band_layout(n: int) -> _BandLayout:
    """The `_BandLayout` of order n, built at the first table of that order."""
    index_sets = [_index_sets(n, k) for k in range(1, n + 1)]
    sizes = np.concatenate([np.full(len(idx), idx.shape[1]) for idx in index_sets])
    starts = np.cumsum(sizes) - sizes
    alpha = np.concatenate([idx.ravel() for idx in index_sets])
    zs_pos = np.repeat(np.arange(1, len(sizes) + 1), sizes) * n + alpha
    position = np.arange(len(alpha)) - np.repeat(starts, sizes)
    swaps = tuple(np.flatnonzero(position == i) for i in range(n - 1))
    for a in (sizes, starts, alpha, zs_pos, *swaps):
        a.flags.writeable = False
    return _BandLayout(sizes, starts, alpha, zs_pos, swaps)


class _BasisTable(NamedTuple):
    """The factored complementary bases of one matrix; see `_basis_table`."""

    layout: _BandLayout
    lower: np.ndarray  # (n, N) Fortran band, kd = n - 1, unit diagonal
    upper: np.ndarray  # (n, N) Fortran band, kd = n - 1
    gather: np.ndarray  # (N,) index into [-q, 0] of each row's right-hand side
    ok: np.ndarray  # (2^n,) bool, row 0 the empty basis: not skipped as singular
    singular: int


def _basis_table(mat: np.ndarray, tol: Tolerances) -> _BasisTable:
    """LU factors of M_aa for every nonempty complementary basis alpha, in
    shortlex order, packed into two bands, plus the count of bases skipped
    as singular (a pivot <= tol.sing_for(max(||M_aa||, ||M||))).

    One `dgetrf` per basis, in place on a column-major copy of M_aa, then
    one pivot test for all of them.  The factors go block after block down
    the diagonal of an N x N matrix, N = n 2^(n-1): the unit lower ones
    into one lower band, the upper ones into one upper band, both in
    LAPACK band storage with kd = n - 1, so a block of order k <= n fits
    and every band entry that couples two blocks is an exact 0.  A
    singular basis gets an identity block with right-hand side 0, and its
    solution is ignored.  The row interchanges of each basis are folded
    into `gather` together with its index set."""
    n = mat.shape[0]
    layout = _band_layout(n)
    getrf = scipy_extension("linalg._flapack").dgetrf
    # row r of `upper` / `lower` is column r of the block-diagonal matrix in
    # band form; entry (i, j) of a block from row s is at [s + j, n - 1 + i - j]
    # of `upper` when i <= j, at [s + j, i - j] of `lower` when i > j
    upper = np.empty((len(layout.alpha), n))
    lower = np.empty((len(layout.alpha), n))
    norms, pivs = [], []
    row = 0
    for idx, stack in principal_stacks(mat):
        count, k = idx.shape
        # inf_norm of each M_aa, one reduction per size
        norms.append(np.abs(stack).sum(axis=2).max(axis=1))
        # facs[c] is column-major, so getrf overwrites it with the factors
        facs_t = np.empty((count, k, k))
        facs = facs_t.transpose(0, 2, 1)
        facs[...] = stack
        # overwrite_a=1, passed by position: the keyword costs more than a small getrf
        pivs += [getrf(a, 1)[1] for a in facs]
        # both bands of this size side by side, sharing column n - 1
        both = np.zeros((count * k, 2 * n - 1))
        step, item = both.strides
        # facs_t[c, j, i], entry (i, j) of block c, goes to [c k + j, n - 1 + i - j]
        np.ndarray(facs_t.shape, buffer=both, offset=(n - 1) * item,
                   strides=(k * step, step - item, item))[...] = facs_t
        upper[row:row + count * k] = both[:, :n]
        lower[row:row + count * k] = both[:, n - 1:]
        row += count * k
    thr = tol.sing_for(np.maximum(np.concatenate(norms), inf_norm(mat)))
    ok = np.ones(len(layout.starts) + 1, dtype=bool)
    ok[1:] = ~(np.minimum.reduceat(np.abs(upper[:, n - 1]), layout.starts) <= thr)
    # getrs swaps entries i and piv[i] of the right-hand side, i = 0..k-1,
    # before it solves; make the same swaps in the gather
    pivs = np.concatenate(pivs)
    gather = layout.alpha.copy()
    for i, rows in enumerate(layout.swaps):
        swap = rows + (pivs[rows] - i)
        gather[rows], gather[swap] = gather[swap], gather[rows]
    singular = len(ok) - int(np.count_nonzero(ok))
    if singular:
        rows = np.repeat(~ok[1:], layout.sizes)
        lower[rows] = 0.0
        upper[rows] = 0.0
        upper[rows, n - 1] = 1.0
        gather[rows] = n
    lower, upper = lower.T, upper.T
    return _BasisTable(layout, lower, upper, gather, ok, singular)


def _band_solve(table: _BasisTable, q: np.ndarray) -> np.ndarray:
    """z_alpha = M_aa^-1 (-q_alpha) for every basis of `table`, as the N
    unknowns of its block-diagonal system: two `dtbtrs` calls, on the unit
    lower band, then on the upper band.

    Raises FloatRangeError when an entry comes out inf or NaN: a coupling
    entry, 0, times inf is NaN in the next block, so no block of such a
    solve can be trusted."""
    tbtrs = scipy_extension("linalg._flapack").dtbtrs
    src = np.zeros(len(q) + 1)
    np.negative(q, out=src[:-1])
    y, info_lower = tbtrs(table.lower, src[table.gather], uplo="L", diag="U", overwrite_b=1)
    x, info_upper = tbtrs(table.upper, y, overwrite_b=1)
    if info_lower or info_upper:
        raise ValueError(f"dtbtrs returned info {info_lower or info_upper}")
    if not np.isfinite(x).all():
        raise FloatRangeError("a complementary basis solve left the float64 range")
    return x


def enumerate_solutions(inst: LCPInstance, tol: Tolerances = DEFAULT_TOL) -> EnumerationResult:
    """Brute-force oracle over all 2^n complementary bases.

    For each index set alpha: z_alpha solves M_aa z_alpha = -q_alpha with
    the complement clamped to zero; a basis is accepted when every
    component of z and of w = Mz + q is at least -thr, where
    thr = tol.minor_for(||M||_inf, 1) * (1 + ||q||_inf).  Singular bases
    are skipped and counted.  Distinct solutions are merged within 1e-8.
    A z or w that leaves the float64 range raises FloatRangeError.
    """
    return next(enumerate_for_each(inst.m, [inst.q], tol))


def enumerate_for_each(m, qs, tol: Tolerances = DEFAULT_TOL):
    """enumerate_solutions(LCPInstance.make(m, q)) for each q in `qs`, in
    order, over one basis table of `m` (built when the first result is
    taken).

    Each q costs a fixed number of LAPACK and numpy calls: the two band
    solves of `_band_solve`, one `np.minimum.reduceat` for the least z
    entry of every basis, and one stacked `np.matmul` for w = Mz + q on the
    bases that pass the z test; Python loops only over the bases that pass
    both sign tests.  The results are the bits of one `getrs` per basis
    and one `M @ z` per surviving basis:
    - `getrs` on one right-hand side is `laswp`, then `trsv` on L and U,
      which sweep the columns with `axpy` updates; `tbsv` (under `dtbtrs`)
      makes the same sweep inside the band.  The row swaps are folded into
      the table's gather.
    - A coupling entry between two blocks is an exact 0, so it adds +-0 to
      a finite entry: only the sign of a zero entry of z can differ.  z is
      reported as np.maximum(z, 0.0), which gives +0.0 for either zero,
      its w is computed from that z, and the sign tests compare -0 and +0
      as equal.
    - `np.matmul` of M with a stack of (n, 1) columns makes one `gemv` per
      column, the product `M @ z` makes; a `gemm` over z rows would not.
    """
    mat = as_matrix(m)
    if mat.shape[0] > ENUM_MAX_DIM:
        raise DimensionTooLargeError(f"enumeration capped at n={ENUM_MAX_DIM}")
    n = mat.shape[0]
    table = _basis_table(mat, tol)
    layout = table.layout
    thr_minor = tol.minor_for(inf_norm(mat), 1)
    for q in qs:
        inst = LCPInstance(mat, as_vector(q, n))
        thr_sign = thr_minor * (1.0 + inf_norm(inst.q))
        x = _band_solve(table, inst.q)
        # row 0 is the empty basis, row b the b-th nonempty one; the
        # clamped complement of a basis, 0, never fails a test against -thr
        zs = np.zeros(len(table.ok) * n)
        zs[layout.zs_pos] = x
        passing = table.ok.copy()
        passing[1:] &= np.minimum.reduceat(x, layout.starts) >= -thr_sign
        zs = zs.reshape(-1, n)[passing]
        ws = np.matmul(mat, zs[:, :, None])[:, :, 0] + inst.q
        sols: list[np.ndarray] = []
        # negated, so that a w with a NaN reaches _solution_from_z and raises
        for z in zs[~(ws.min(axis=1) < -thr_sign)]:
            zc = np.maximum(z, 0.0)
            if not any(inf_norm(zc - s) <= 1e-8 * (1.0 + inf_norm(s)) for s in sols):
                sols.append(zc)
        yield EnumerationResult(tuple(_solution_from_z(inst, z) for z in sols), table.singular)


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
    contrapositive sampling; each q is drawn from the seeded generator
    when it is examined, so the q after that one are never drawn.
    `trials` below 1 raises ValueError: no verdict rests on zero samples.
    """
    mat = as_matrix(m)
    n = mat.shape[0]
    if n > CENSUS_MAX_DIM:
        raise DimensionTooLargeError(f"census capped at n={CENSUS_MAX_DIM}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    qs, qs_enumerated = tee(rng.uniform(-5.0, 5.0, n) for _ in range(trials))

    zero = one = many = 0
    mismatches = rays = 0
    skipped_bases = 0
    bad_q: Optional[tuple[float, ...]] = None
    for q, res in zip(qs, enumerate_for_each(mat, qs_enumerated, tol)):
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
