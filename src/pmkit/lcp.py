"""Linear complementarity: Lemke pivoting, complementary-cone enumeration,
and the uniqueness census that cross-validates the P-matrix equivalence.

LCP(M, q): find z >= 0 with w = Mz + q >= 0 and z^T w = 0.  The problem
has a unique solution for every q exactly when M is a P-matrix; the
enumerator is the brute-force oracle over all 2^n complementary bases and
the Lemke solver is the constructive route checked against it.

The enumerator factors each basis once per matrix (one LAPACK `dgetrf`
each) and packs the factors into one lower and one upper band, block after
block.  Both kernels take their q in blocks of bounded size: a block of q
takes two multi-column banded solves (`dtbtrs`) for all bases of all its q
at once, with the bits of one `getrs` per basis and q (see
`enumerate_for_each`), and Lemke's method runs the tableaux of a block in
lockstep, with the bits of one tableau at a time (see `lemke_for_each`).
`cross_check_for_each` pairs the two, one Lemke batch per enumeration
block, for the census and the suites.  Each result is that of its q alone,
and an error is raised at the q that caused it, after the results of the
q before it.  No routine here returns a solution with an inf or NaN entry,
and none takes an M whose row sums overflow: each raises FloatRangeError
instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
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
    basis = tuple(i + 1 for i, v in enumerate(z.tolist()) if v > 0.0)
    return LCPSolution(z, w, basis)


def _finite_norm(mat: np.ndarray) -> float:
    """||M||_inf; raises FloatRangeError when a row sum overflows, since
    every threshold scaled by an infinite norm would accept or reject
    everything.  Callers hold np.errstate(over="ignore"), so the overflow
    raises no numpy warning."""
    norm = inf_norm(mat)
    if not math.isfinite(norm):
        raise FloatRangeError("a row sum of M left the float64 range: ||M||_inf is not finite")
    return norm


# A block of q holds at most this many band unknowns of the enumeration
# (n 2^(n-1) per q) or tableau entries of Lemke's method (n (2n + 2) per q),
# so that memory does not grow with the number of q.
_BLOCK_ENTRIES = 1 << 15
_FLOAT_MAX = float(np.finfo(float).max)


def _block_len(per_q: int) -> int:
    return max(1, _BLOCK_ENTRIES // per_q)


def _q_blocks(qs, n: int, size: int):
    """The q of `qs` as (B, n) arrays of at most `size` rows, each block
    drawn when it is taken, with the error of a q that `as_vector` rejects
    (or None): that block ends just before the q, and the error is raised
    after the results of the block."""
    it = iter(qs)
    while True:
        drawn = list(islice(it, size))
        if not drawn:
            return
        try:
            block = np.array(drawn, dtype=float)
        except (ValueError, TypeError):
            block = None
        if block is None or block.shape != (len(drawn), n) or not np.isfinite(block).all():
            # one q at a time, to find the first one that as_vector rejects
            good = []
            for q in drawn:
                try:
                    good.append(as_vector(q, n))
                except (ValueError, TypeError) as exc:
                    yield np.array(good).reshape(-1, n), exc
                    return
            block = np.array(good)
        yield block, None
        if len(drawn) < size:
            return


def lemke_solve(inst: LCPInstance) -> Optional[LCPSolution]:
    """Lemke's method on one instance: `lemke_for_each`'s kernel on a block
    of one q.  The instance's arrays go in as they are, without the copies
    and checks that `lemke_for_each` makes of raw input, which would cost a
    one-q call about a sixth of its time at n = 4.  Returns None on ray
    termination."""
    if inst.n > LEMKE_MAX_DIM:
        raise DimensionTooLargeError(f"lemke_solve capped at n={LEMKE_MAX_DIM}")
    (out,) = _lemke_block(inst.m, inst.q[None])
    if isinstance(out, Exception):
        raise out
    return out


def lemke_for_each(m, qs):
    """Lemke complementary pivoting with the all-ones covering vector on
    LCP(m, q), for each q in `qs`, in order: the solution, or None on ray
    termination.

    Each tableau is laid out as [rhs | w_0..w_{n-1} | z_0..z_{n-1} | z0], so
    variable v (w_i = i, z_i = n + i, z0 = 2n) sits in column v + 1 and a
    row's lexicographic key (rhs, w-block) is the slice tab[r, :n+1].  z0
    enters on the last row where q is smallest: after that pivot each other
    row tied at the minimum reads (0, e_i - e_r), which is lexicographically
    positive only for i < r, so with the first tied row the tableau would
    start outside the invariant that the anti-cycling argument needs.

    The q go in blocks of at most `_BLOCK_ENTRIES` tableau entries, and the
    tableaux of a block move in lockstep: each step makes one ratio test and
    one pivot in every tableau still running, with the roundings of one
    tableau at a time (see `_ratio_rows` and `_pivot`).  The ratio test
    divides the first key components, rhs over the pivot column, of the
    candidate rows (pivot-column entry above the pivot tolerance) of all
    tableaux at once; a tableau forms its full keys only when another
    candidate's first component comes near the smallest.  Then they are
    scanned in row order: a candidate replaces the best one so far when its
    first component that differs by more than 1e-12 (1 + |best component|)
    is smaller (Cottle, Pang & Stone, The Linear Complementarity Problem,
    1992, ch. 4).  The band is relative to the running best, so the
    comparison is not transitive and the scan order is part of the rule.
    A q leaves its block when z0 leaves the basis, at ray termination, or
    when its basis repeats.

    Backstop: under the lexicographic rule no basis repeats, so a path
    visits at most n 2^(n-1) bases (z0 and one variable of each of n - 1 of
    the n complementary pairs), which bounds its length.  Each tableau
    keeps its basis as one bitmask and
    the set of masks it has had, and the first repeat raises LcpCycleError
    as an anomaly.  A z or w that leaves the float64 range raises
    FloatRangeError; the overflow in the tableau that leads there raises no
    numpy warning on the way, and neither does an M whose row sums
    overflow, which raises FloatRangeError before any pivot.  An error is
    raised at the q that caused it, after the results of the q before it.
    """
    mat = as_matrix(m)
    n = mat.shape[0]
    if n > LEMKE_MAX_DIM:
        raise DimensionTooLargeError(f"lemke_solve capped at n={LEMKE_MAX_DIM}")
    with np.errstate(over="ignore"):
        piv_tol = _pivot_tol(mat)
    for block, error in _q_blocks(qs, n, _block_len(n * (2 * n + 2))):
        for out in _lemke_block(mat, block, piv_tol):
            if isinstance(out, Exception):
                raise out
            yield out
        if error is not None:
            raise error


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _lemke_block(mat: np.ndarray, qs: np.ndarray, piv_tol: Optional[float] = None) -> list:
    """The outcome of Lemke's method for each row q of `qs`: an LCPSolution,
    None on ray termination, or the error to raise at that q.  `piv_tol` is
    computed, and the norm of M checked, when the caller has not."""
    n = mat.shape[0]
    z0 = 2 * n
    if piv_tol is None:
        piv_tol = _pivot_tol(mat)
    out: list = [None] * len(qs)
    ids = []
    for i, q_min in enumerate(qs.min(axis=1).tolist()):
        if q_min >= 0.0:
            out[i] = _solution_from_z(LCPInstance(mat, qs[i]), np.zeros(n))
        else:
            ids.append(i)
    if not ids:
        return out
    tabs = np.empty((len(ids), n, 2 * n + 2))
    tabs[:, :, 0] = qs[ids]
    tabs[:, :, 1:n + 1] = np.eye(n)
    tabs[:, :, n + 1:2 * n + 1] = -mat
    tabs[:, :, 2 * n + 1] = -1.0
    rows = [n - 1 - r for r in tabs[:, ::-1, 0].argmin(axis=1).tolist()]
    _pivot(tabs, rows, tabs[:, :, z0 + 1].copy())
    # per path, in parallel lists: the basic variable of each row, the basis
    # as a bitmask, every mask it has had, and the entering variable
    bases, masks, seen, entering = [], [], [], []
    for row in rows:
        bases.append(list(range(n)))
        bases[-1][row] = z0
        masks.append(((1 << n) - 1) ^ (1 << row) ^ (1 << z0))
        seen.append({masks[-1]})
        entering.append(row + n)
    while True:
        rows, col = _ratio_rows(tabs, [var + 1 for var in entering], piv_tol)
        if -1 in rows:  # ray termination: None
            keep = [j for j, row in enumerate(rows) if row >= 0]
            tabs, col = tabs[keep], col[keep]
            ids, bases, masks, seen, entering, rows = (
                [a[j] for j in keep] for a in (ids, bases, masks, seen, entering, rows))
            if not ids:
                break
        _pivot(tabs, rows, col)
        keep = []
        for j, row in enumerate(rows):
            basis, var = bases[j], entering[j]
            left, basis[row] = basis[row], var
            masks[j] ^= (1 << left) | (1 << var)
            if left == z0:
                # z0 has left, so every basic variable v >= n is z_{v-n}
                z = np.zeros(n)
                for r, v in enumerate(basis):
                    if v >= n:
                        z[v - n] = tabs[j, r, 0]
                try:
                    out[ids[j]] = _solution_from_z(LCPInstance(mat, qs[ids[j]]), np.maximum(z, 0.0))
                except FloatRangeError as exc:
                    out[ids[j]] = exc
            elif masks[j] in seen[j]:
                out[ids[j]] = LcpCycleError(
                    f"basis repeated after {len(seen[j])} pivots; the lexicographic rule should prevent this")
            else:
                seen[j].add(masks[j])
                entering[j] = left + n if left < n else left - n
                keep.append(j)
        if not keep:
            break
        if len(keep) < len(ids):
            tabs = tabs[keep]
            ids, bases, masks, seen, entering = ([a[j] for j in keep] for a in (ids, bases, masks, seen, entering))
    return out


def _pivot_tol(mat: np.ndarray) -> float:
    """The pivot tolerance 1e-11 (1 + ||M||_inf) of Lemke's ratio test; see
    `_finite_norm`."""
    return 1e-11 * (1.0 + _finite_norm(mat))


def _per_tableau(idx: list) -> tuple:
    """The index that takes entry idx[j] of the second axis of tableau j in
    a stack, one axis shorter: a view when the stack holds one tableau."""
    if len(idx) == 1:
        return slice(None), idx[0]
    return np.arange(len(idx)), np.array(idx)


def _pivot(tabs: np.ndarray, rows: list, col: np.ndarray) -> None:
    """Pivot tableau j of the stack on row rows[j] of its column `col[j]`
    (a copy, which this overwrites), in place.

    The pivot row is divided by its pivot entry; every other row whose
    pivot-column entry c is nonzero takes row - c * pivot row, masked by
    `np.subtract(..., where=)`, so each entry gets one product and one
    difference, the roundings of a row-by-row update, and a row with c = 0
    keeps its bits (a -0.0 entry too)."""
    at = _per_tableau(rows)
    prow = tabs[at] / col[at][:, None]
    tabs[at] = prow
    col[at] = 0.0  # the pivot row keeps its quotient
    np.subtract(tabs, col[:, :, None] * prow[:, None, :], out=tabs, where=(col != 0.0)[:, :, None])


def _ratio_rows(tabs: np.ndarray, cols: list, piv_tol: float) -> tuple[list, np.ndarray]:
    """The lexicographic ratio test of each tableau of the stack on its
    column cols[j]: the pivot rows (-1 on ray termination) and a copy of
    the columns.

    The first key components, rhs / column entry, of the candidate rows of
    all tableaux are divided at once; the other rows, and one more slot,
    read as the largest float.  The smallest, `low`, is the scan's answer
    when every ratio is finite and the next smallest, `second`, passes
    second - low > 2e-12 ((1 + |second|) + |low|).  Then every other
    candidate k exceeds low by g >= second - low, and g exceeds both bands
    1e-12 (1 + |v_k|) and 1e-12 (1 + |low|) even after rounding (|v_k| is at
    most g + |low|), so the scan keeps low against every later row and takes
    it against any earlier best.  Otherwise `_lex_scan` runs the scan on the
    full keys of that tableau."""
    k, n = tabs.shape[:2]
    at = _per_tableau(cols)
    col = tabs[at[0], :, at[1]].copy()
    cand = col > piv_tol
    ratio = np.full((k, n + 1), _FLOAT_MAX)
    np.divide(tabs[:, :, 0], col, out=ratio[:, :n], where=cand)
    rows = ratio.argmin(axis=1).tolist()
    ratio.sort(axis=1)
    for j, (low, second, last) in enumerate(ratio.take((0, 1, n), axis=1).tolist()):
        if not (last < math.inf and second - low > 2e-12 * ((1.0 + abs(second)) + abs(low))):
            rows[j] = _lex_scan(tabs[j], col[j], cand[j])
    return rows, col


def _lex_scan(tab: np.ndarray, col: np.ndarray, cand: np.ndarray) -> int:
    """The lexicographic ratio test of one tableau, scanning the full keys
    (rhs, w-block) / column entry of its candidate rows in row order; -1
    when no row is a candidate."""
    rows = np.flatnonzero(cand)
    if not rows.size:
        return -1
    keys = (tab[rows, :tab.shape[0] + 1] / col[rows, None]).tolist()
    best, best_key = 0, keys[0]
    for k in range(1, len(keys)):
        for v, b in zip(keys[k], best_key):
            d = v - b
            if abs(d) > 1e-12 * (1.0 + abs(b)):
                if d < 0:
                    best, best_key = k, keys[k]
                break
    return int(rows[best])


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


def _band_solve(table: _BasisTable, qs: np.ndarray) -> np.ndarray:
    """z_alpha = M_aa^-1 (-q_alpha) for every basis of `table` and every
    row q of the (B, n) `qs`, as a (B, N) array, row b the N unknowns of the
    block-diagonal system for qs[b]: two multi-column `dtbtrs` calls, on the
    unit lower band, then on the upper band.  `dtbtrs` solves each column
    with its own `tbsv` sweep, so a column's bits do not depend on the
    others.  An entry may come out inf or NaN; `_enumerate_block` checks."""
    tbtrs = scipy_extension("linalg._flapack").dtbtrs
    src = np.zeros((len(qs), qs.shape[1] + 1))
    np.negative(qs, out=src[:, :-1])
    # (B, N) in C order is the (N, B) Fortran array that dtbtrs overwrites
    y, info_lower = tbtrs(table.lower, src[:, table.gather].T, uplo="L", diag="U", overwrite_b=1)
    x, info_upper = tbtrs(table.upper, y, overwrite_b=1)
    if info_lower or info_upper:
        raise ValueError(f"dtbtrs returned info {info_lower or info_upper}")
    return x.T


def enumerate_solutions(inst: LCPInstance, tol: Tolerances = DEFAULT_TOL) -> EnumerationResult:
    """Brute-force oracle over all 2^n complementary bases.

    For each index set alpha: z_alpha solves M_aa z_alpha = -q_alpha with
    the complement clamped to zero; a basis is accepted when every
    component of z and of w = Mz + q is at least -thr, where
    thr = tol.minor_for(||M||_inf, 1) * (1 + ||q||_inf).  Singular bases
    are skipped and counted.  Distinct solutions are merged within 1e-8.
    A z or w that leaves the float64 range, or an M whose row sums
    overflow, raises FloatRangeError.

    `enumerate_for_each`'s block kernel on a block of one q, with the
    instance's arrays as they are, as `lemke_solve` does.
    """
    table, thr_minor = _enumeration_table(inst.m, tol)
    results, error = _enumerate_block(table, inst.m, inst.q[None], thr_minor)
    if error is not None:
        raise error
    return results[0]


def enumerate_for_each(m, qs, tol: Tolerances = DEFAULT_TOL):
    """enumerate_solutions(LCPInstance.make(m, q)) for each q in `qs`, in
    order, over one basis table of `m` (built when the first result is
    taken).

    The q are taken in blocks of at most `_BLOCK_ENTRIES` band unknowns
    (n 2^(n-1) per q), each drawn from `qs` when its block is reached, so
    memory does not grow with the number of q, and a consumer that stops
    early has drawn no q past the block of the last result it took.  A
    block costs a fixed number of LAPACK and numpy calls: the two band
    solves of `_band_solve`, one `np.minimum.reduceat` for the least z
    entry of every basis of every q, and one stacked `np.matmul` for
    w = Mz + q on the bases that pass the z test; Python loops only over
    the q and the bases that pass the z test.  The results are the
    bits of one `getrs` per basis and one `M @ z` per surviving basis:
    - `getrs` on one right-hand side is `laswp`, then `trsv` on L and U,
      which sweep the columns with `axpy` updates; `tbsv` (under `dtbtrs`,
      one sweep per right-hand side) makes the same sweep inside the band.
      The row swaps are folded into the table's gather.
    - A coupling entry between two blocks is an exact 0, so it adds +-0 to
      a finite entry: only the sign of a zero entry of z can differ.  z is
      reported as np.maximum(z, 0.0), which gives +0.0 for either zero,
      its w is computed from that z, and the sign tests compare -0 and +0
      as equal.
    - `np.matmul` of M with a stack of (n, 1) columns makes one `gemv` per
      column, the product `M @ z` makes; a `gemm` over z rows would not.
    An error is raised at the q that caused it, after the results of the q
    before it.
    """
    mat = as_matrix(m)
    for _, results, error in _enumeration_blocks(mat, qs, tol, one_at_a_time=False):
        yield from results
        if error is not None:
            raise error


def _enumeration_blocks(mat: np.ndarray, qs, tol: Tolerances, one_at_a_time: bool):
    """(block, results, error) for each block of `qs`: the (B, n) q that the
    EnumerationResults answer, and the error to raise after them or None.
    Blocks hold one q each when `one_at_a_time`."""
    n = mat.shape[0]
    table, thr_minor = _enumeration_table(mat, tol)
    for block, late_error in _q_blocks(qs, n, 1 if one_at_a_time else _block_len(n << (n - 1))):
        results, error = _enumerate_block(table, mat, block, thr_minor) if len(block) else ([], None)
        error = error if error is not None else late_error
        yield block[:len(results)], results, error
        if error is not None:
            return


def _enumeration_table(mat: np.ndarray, tol: Tolerances) -> tuple[_BasisTable, float]:
    """The basis table of `mat` and the sign threshold before its (1 + ||q||)
    factor; raises on a matrix too large to enumerate or with an infinite
    norm."""
    if mat.shape[0] > ENUM_MAX_DIM:
        raise DimensionTooLargeError(f"enumeration capped at n={ENUM_MAX_DIM}")
    with np.errstate(over="ignore"):
        thr_minor = tol.minor_for(_finite_norm(mat), 1)
    return _basis_table(mat, tol), thr_minor


@np.errstate(over="ignore", invalid="ignore")
def _enumerate_block(table: _BasisTable, mat: np.ndarray, qs: np.ndarray, thr_minor: float):
    """The EnumerationResult of each row q of `qs`, in order, up to the
    first q whose basis solve or reported w leaves the float64 range, and
    that q's FloatRangeError (None when every q went through).  A basis
    solve with an inf or NaN entry fails its whole q: a coupling entry, 0,
    times inf is NaN in the next block, so no block of it can be trusted."""
    layout, n = table.layout, mat.shape[0]
    x = _band_solve(table, qs)
    error = None
    if not np.isfinite(x).all():
        stop = int(np.isfinite(x).all(axis=1).argmin())
        qs, x = qs[:stop], x[:stop]
        error = FloatRangeError("a complementary basis solve left the float64 range")
        if not stop:
            return [], error
    norm_q = np.abs(qs).max(axis=1)
    thr_sign = thr_minor * (1.0 + norm_q)
    # row 0 of each q is the empty basis, row b the b-th nonempty one; the
    # clamped complement of a basis, 0, never fails a test against -thr
    passing = np.ones((len(qs), len(table.ok)), dtype=bool)
    np.greater_equal(np.minimum.reduceat(x, layout.starts, axis=1), -thr_sign[:, None], out=passing[:, 1:])
    passing &= table.ok
    zs = np.zeros((len(qs), len(table.ok) * n))
    zs[:, layout.zs_pos] = x
    zs = zs.reshape(len(qs), -1, n)[passing]
    counts = passing.sum(axis=1)
    w_min = (np.matmul(mat, zs[:, :, None])[:, :, 0] + np.repeat(qs, counts, axis=0)).min(axis=1).tolist()
    results, row = [], 0
    for q, a, count in zip(qs, norm_q.tolist(), counts.tolist()):
        thr = thr_minor * (1.0 + a)  # thr_sign of this q
        sols: list[np.ndarray] = []
        for r in range(row, row + count):
            # negated, so that a w with a NaN reaches _solution_from_z and raises
            if not w_min[r] < -thr:
                zc = np.maximum(zs[r], 0.0)
                if not any(inf_norm(zc - s) <= 1e-8 * (1.0 + inf_norm(s)) for s in sols):
                    sols.append(zc)
        row += count
        inst = LCPInstance(mat, q)
        try:
            results.append(EnumerationResult(tuple(_solution_from_z(inst, z) for z in sols), table.singular))
        except FloatRangeError as exc:
            return results, exc
    return results, error


def cross_check_for_each(m, qs, tol: Tolerances = DEFAULT_TOL, one_at_a_time: bool = False):
    """(q, enumeration, lemke) for each q in `qs`, in order: the q as
    validated, its `enumerate_for_each` result and, when that has exactly
    one solution, the `lemke_for_each` outcome (a solution, or None on ray
    termination), else None.

    Each block of the enumeration is followed by Lemke's method on its q
    with exactly one solution, which the enumeration has checked, in
    batches of at most `_BLOCK_ENTRIES` tableau entries.  `one_at_a_time`
    makes every block one q, so each q is drawn from `qs` only when it is
    examined.  An error is raised at the q that caused it, after the
    results of the q before it.
    """
    mat = as_matrix(m)
    size = _block_len(mat.shape[0] * (2 * mat.shape[0] + 2))
    piv_tol = None
    for block, results, error in _enumeration_blocks(mat, qs, tol, one_at_a_time):
        # the enumeration has checked that ||M||_inf is finite
        piv_tol = piv_tol or _pivot_tol(mat)
        one = [len(res.solutions) == 1 for res in results]
        todo = block if all(one) else block[one]
        sols = iter([out for start in range(0, len(todo), size)
                     for out in _lemke_block(mat, todo[start:start + size], piv_tol)])
        for q, res, unique in zip(block, results, one):
            sol = next(sols) if unique else None
            if isinstance(sol, Exception):
                raise sol
            yield q, res, sol
        if error is not None:
            raise error


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
    When the count is one, Lemke's method must reproduce the solution
    within 1e-6.  The q are drawn lazily from the seeded generator and go
    through `cross_check_for_each`: the enumeration of a block of q, then
    one Lemke batch over those with one solution, so at most one block of q
    is held at a time and memory does not grow with `trials`.  `stop_early`
    returns as soon as a count != 1 shows up, for contrapositive sampling;
    each q is examined on its own, so the q after that one are never drawn.
    `trials` below 1 raises ValueError: no verdict rests on zero samples.
    An M whose row sums overflow raises FloatRangeError.
    """
    mat = as_matrix(m)
    n = mat.shape[0]
    if n > CENSUS_MAX_DIM:
        raise DimensionTooLargeError(f"census capped at n={CENSUS_MAX_DIM}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    qs = (rng.uniform(-5.0, 5.0, n) for _ in range(trials))

    zero = one = many = 0
    mismatches = rays = 0
    skipped_bases = 0
    bad_q: Optional[tuple[float, ...]] = None
    for q, res, sol in cross_check_for_each(mat, qs, tol, one_at_a_time=stop_early):
        skipped_bases = res.singular_skipped
        count = len(res.solutions)
        if count == 0:
            zero += 1
        elif count == 1:
            one += 1
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
