"""Dense real linear algebra kernel for small matrices (n <= 64).

Solves and inverses go through LU with partial pivoting (`lu_factor_checked`
and `lu_solve` call LAPACK `dgetrf`/`dgetrs` of scipy's compiled `_flapack`
module, loaded from its file at the first LU by `scipy_extension`, so
neither importing this module nor factoring loads the scipy.linalg
package); pivot magnitudes are checked against the scaled singularity
threshold so near-singular systems raise instead of returning garbage.
`det` is numpy's.  `principal_minors` computes all 2^n principal minors
at once by the level-wise Schur-complement recursion, with a first-order
error growth factor for each.
Eigenvalues come from one kernel over (R, k, k) stacks, `stack_eigvals`
(exact for k <= 2, on rows scaled by powers of two where the closed form
would underflow or overflow; LAPACK dgeev beyond); `eigenvalues` runs it
on a stack of one and returns a `Spectrum`, the one value-multiset type,
which the spectral layer takes as it is.  The characteristic polynomial
is computed independently by the Faddeev-LeVerrier trace recursion and
serves as the cross-check route everywhere else.
"""

from __future__ import annotations

import cmath
import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DimensionTooLargeError,
    FloatRangeError,
    InvalidIndexError,
    NoConvergenceError,
    SingularMatrixError,
)
from .tolerances import DEFAULT_TOL, Tolerances, conj_for

MAX_DIM = 64


def as_matrix(m) -> np.ndarray:
    """Validate and return a dense square float64 matrix."""
    a = np.array(m, dtype=float, copy=True)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {a.shape}")
    if a.shape[0] > MAX_DIM:
        raise DimensionTooLargeError(f"n={a.shape[0]} exceeds the cap {MAX_DIM}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must all be finite")
    return a


def as_vector(b, n: int) -> np.ndarray:
    a = np.array(b, dtype=float, copy=True).reshape(-1)
    if a.shape[0] != n:
        raise ValueError(f"expected a vector of length {n}, got {a.shape[0]}")
    if not np.isfinite(a).all():
        raise ValueError("vector entries must all be finite")
    return a


def inf_norm(m: np.ndarray) -> float:
    """Induced infinity norm (max absolute row sum); max-abs for vectors."""
    a = np.asarray(m, dtype=float)
    if a.ndim == 1:
        return float(np.abs(a).max()) if a.size else 0.0
    return float(np.abs(a).sum(axis=1).max())


def as_index_set(members: Iterable[int], n: int) -> tuple[int, ...]:
    """Validate a 1-based index set: nonempty, unique, within 1..n, returned sorted."""
    idx = tuple(sorted(int(i) for i in members))
    if not idx:
        raise InvalidIndexError("index set must be nonempty")
    if len(set(idx)) != len(idx):
        raise InvalidIndexError(f"duplicate members in index set {idx}")
    if idx[0] < 1 or idx[-1] > n:
        raise InvalidIndexError(f"index set {idx} out of range 1..{n}")
    return idx


def principal_submatrix(m, a: Iterable[int]) -> np.ndarray:
    """Rows and columns of `m` selected by the 1-based index set `a`."""
    mat = as_matrix(m)
    idx = as_index_set(a, mat.shape[0])
    sel = [i - 1 for i in idx]
    return mat[np.ix_(sel, sel)]


@lru_cache(maxsize=None)
def _index_sets(n: int, k: int) -> np.ndarray:
    """The (C(n, k), k) intp array of 0-based k-subsets of range(n) in
    lexicographic order, built once per (n, k) and read-only."""
    idx = np.array(list(combinations(range(n), k)), dtype=np.intp)
    idx.flags.writeable = False
    return idx


def principal_stacks(mat: np.ndarray, sizes: Iterable[int] | None = None):
    """The principal submatrices of each size k in `sizes` (default
    1..n, in increasing order) as one batch: yields (idx, stack), `idx`
    the cached, read-only (C(n, k), k) intp array of 0-based index sets in
    lexicographic order and `stack[j]` = mat[idx[j], idx[j]] of shape
    (C(n, k), k, k)."""
    n = mat.shape[0]
    for k in range(1, n + 1) if sizes is None else sizes:
        idx = _index_sets(n, k)
        yield idx, mat[idx[:, :, None], idx[:, None, :]]


@lru_cache(maxsize=None)
def shortlex_masks(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The 2^n - 1 nonempty subsets of range(n) in shortlex order (by
    size, then as `_index_sets` orders them), as read-only int arrays
    (masks, sizes): bit i of a mask is index i."""
    masks = np.concatenate([np.left_shift(1, _index_sets(n, k)).sum(axis=1) for k in range(1, n + 1)])
    sizes = np.repeat(np.arange(1, n + 1), [math.comb(n, k) for k in range(1, n + 1)])
    for a in (masks, sizes):
        a.flags.writeable = False
    return masks, sizes


def principal_minors(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All 2^n principal minors of `mat` and a first-order growth factor
    of each, as two arrays indexed by bitmask (bit i is index i; entry 0
    is the empty minor, 1).

    The level-wise Schur-complement recursion (Tsatsomeros & Li, BIT 40,
    2000; Griffin & Tsatsomeros, Linear Algebra Appl. 419, 2006): level j
    holds, for each subset b of 0..j-1, the Schur complement of mat[b, b]
    in mat restricted to indices j..n-1, a (2^j, n-j, n-j) stack.  Its
    leading entry p is the pivot, det(b + {j}) = det(b) p; excluding j
    keeps the trailing block, including j takes that block minus the
    outer product of p's column and row over p.  This is Gaussian
    elimination without pivoting on each submatrix, O(2^n) work in all
    (the level sizes 2^j (n - j)^2 sum to less than 6 2^n).
    Along it runs the same recursion on magnitudes, T' = T[1:, 1:] +
    |a b / p| from T = |mat|, so that T's leading entry is (|L||U|)_jj,
    and the growth of a minor is the product of (1 + T_00 / |p|) over the
    pivots of its path: a pivot's relative error is about u T_00 / |p|,
    and a later cancellation multiplies it.  A minor reached through a
    zero pivot is inf or NaN with infinite or NaN growth; numpy's warnings
    are silenced."""
    n = mat.shape[0]
    minors = np.empty(1 << n)
    growth = np.empty(1 << n)
    minors[0] = growth[0] = 1.0
    s = mat[None]
    t = np.abs(s)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for j in range(n):
            m = 1 << j
            p = s[:, 0, 0]
            np.multiply(minors[:m], p, out=minors[m:2 * m])
            np.multiply(growth[:m], t[:, 0, 0] / np.abs(p) + 1.0, out=growth[m:2 * m])
            if j == n - 1:
                break
            outer = s[:, 1:, :1] * (s[:, :1, 1:] / p[:, None, None])
            s = np.concatenate((s[:, 1:, 1:], s[:, 1:, 1:] - outer))
            t = np.concatenate((t[:, 1:, 1:], t[:, 1:, 1:] + np.abs(outer)))
    return minors, growth


@cache
def scipy_extension(name: str):
    """The compiled scipy module `scipy.<name>` (e.g. "linalg._flapack"),
    loaded once straight from its file.

    `find_spec("scipy")` locates the package without running its
    `__init__`, and the subpackage's `__init__` does not run either: for
    scipy.linalg and scipy.optimize that costs far more than the module
    itself.  The extensions loaded here have single-phase init, so the
    module is registered under its full name, and a later `import
    scipy.linalg` or `import scipy.optimize` reuses it: the functions are
    the same objects in either load order.  Raises ImportError when the
    file is not there."""
    package, _, leaf = name.rpartition(".")
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError("scipy is not installed", name="scipy")
    directory = os.path.join(spec.submodule_search_locations[0], *package.split("."))
    path = os.path.join(directory, leaf + importlib.machinery.EXTENSION_SUFFIXES[0])
    if not os.path.isfile(path):
        raise ImportError(f"no compiled module scipy.{name} in {directory}", name=f"scipy.{name}", path=path)
    ext = importlib.util.spec_from_file_location(f"scipy.{name}", path)
    module = importlib.util.module_from_spec(ext)
    ext.loader.exec_module(module)
    return module


def lu_factor_checked(mat: np.ndarray, thr: float):
    """LU factors of `mat` with partial pivoting and their pivot verdict, as
    `(lu, piv, ok)`: `ok` is False when LAPACK rejects the matrix or some
    pivot magnitude is <= `thr`.

    Calls `dgetrf` of the cached `scipy_extension("linalg._flapack")`
    without scipy's lu_factor wrapper, which on the small systems here
    costs several times the factorization itself.  An exact zero pivot
    (`info > 0`) fails the pivot test at any `thr` >= 0, so it needs no
    branch of its own."""
    lu, piv, info = scipy_extension("linalg._flapack").dgetrf(mat)
    return lu, piv, not (info < 0 or np.abs(lu.diagonal()).min() <= thr)


def lu_solve(fac, b: np.ndarray) -> np.ndarray:
    """Solve with the factors `(lu, piv)` of `lu_factor_checked` through
    LAPACK `dgetrs`; `b` is one right-hand side or a column block, and is
    not overwritten.  Bit for bit
    `scipy.linalg.lu_solve(fac, b, check_finite=False)`."""
    x, info = scipy_extension("linalg._flapack").dgetrs(fac[0], fac[1], b)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of getrs")
    return x


def _lu_with_pivot_check(mat: np.ndarray, tol: Tolerances):
    """LU factors `(lu, piv)`; raises SingularMatrixError on a tiny pivot."""
    thr = tol.sing_for(inf_norm(mat))
    lu, piv, ok = lu_factor_checked(mat, thr)
    if not ok:
        raise SingularMatrixError(f"pivot magnitude <= threshold {thr:.3e}")
    return lu, piv


def det(m) -> float:
    """Determinant via LU with partial pivoting (singular -> ~0, no error)."""
    return float(np.linalg.det(as_matrix(m)))


def solve(m, b, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Solve m x = b; raises SingularMatrixError below the pivot threshold."""
    mat = as_matrix(m)
    rhs = as_vector(b, mat.shape[0])
    return lu_solve(_lu_with_pivot_check(mat, tol), rhs)


def inverse(m, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    mat = as_matrix(m)
    # one getrs on the whole identity (OpenBLAS takes trsm); column-by-column
    # solves take trsv and would move the last bits of the inverse
    return lu_solve(_lu_with_pivot_check(mat, tol), np.eye(mat.shape[0]))


@dataclass(frozen=True)
class Spectrum:
    """A value multiset, and whether its non-real values all pair off.

    `pair_conjugates`, and so `eigenvalues`, gives the canonical order:
    by (real part, |imag|), a real value with imaginary part exactly 0,
    and a pair a +- bi in two adjacent slots, +b first.  `realize_P_set`
    needs that order; the sigma expansion takes the values as they come.
    """

    values: tuple[complex, ...]
    closed: bool

    def real_values(self) -> tuple[float, ...]:
        return tuple(v.real for v in self.values if abs(v.imag) <= conj_for(abs(v)))


def pair_conjugates(values: Sequence[complex]) -> Spectrum:
    """Canonicalize a value multiset into a `Spectrum`.

    Values with |Im| below the conjugation threshold are flattened to real.
    Remaining non-real values are matched into conjugate pairs and
    symmetrized exactly; the result is not `closed` when some value is
    left unmatched.
    """
    reals: list[float] = []
    plus: list[complex] = []
    minus: list[complex] = []
    for v in values:
        v = complex(v)
        if abs(v.imag) <= conj_for(abs(v)):
            reals.append(v.real)
        elif v.imag > 0:
            plus.append(v)
        else:
            minus.append(v)

    pairs: list[tuple[float, float]] = []
    closed = True
    leftovers: list[complex] = []
    minus_pool = list(minus)
    for p in sorted(plus, key=lambda z: (z.real, z.imag)):
        best_j, best_d = -1, np.inf
        for j, q in enumerate(minus_pool):
            d = abs(p - q.conjugate())
            if d < best_d:
                best_j, best_d = j, d
        if best_j >= 0 and best_d <= 2.0 * conj_for(abs(p)):
            q = minus_pool.pop(best_j)
            a = 0.5 * (p.real + q.real)
            b = 0.5 * (p.imag - q.imag)
            pairs.append((a, b))
        else:
            closed = False
            leftovers.append(p)
    if minus_pool:
        closed = False
        leftovers.extend(minus_pool)

    entries: list[tuple] = [((r, 0.0), (complex(r),)) for r in reals]
    entries += [((a, b), (complex(a, b), complex(a, -b))) for a, b in pairs]
    entries += [((z.real, abs(z.imag)), (z,)) for z in leftovers]
    entries.sort(key=lambda e: e[0])

    return Spectrum(tuple(v for _, group in entries for v in group), closed)


def _eigvals_2x2(flat: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The closed-form eigenvalues of each row (a, b, c, d) of an (R, 4)
    array times 2^-e, scaled back by 2^e (e an (R, 1) int array), as (R, 2)
    complex, and whether each row's discriminant is finite."""
    a, b, c, d = np.ldexp(flat, -e).T
    t = a + d
    disc = t * t - 4.0 * (a * d - b * c)
    root = np.sqrt(np.abs(disc))
    real = disc >= 0.0
    out = np.empty((len(t), 2), dtype=complex)
    # (t +- sqrt(disc)) / 2, or t / 2 +- i sqrt(-disc) / 2
    out.real = np.ldexp(np.where(real, [t + root, t - root], t).T / 2.0, e)
    out.imag = np.ldexp(np.where(real, 0.0, [root, -root]).T / 2.0, e)
    return out, np.isfinite(disc)


def stack_eigvals(stack: np.ndarray) -> np.ndarray:
    """Eigenvalues of each matrix of an (R, k, k) stack, as (R, k) complex.

    k <= 2 is exact: the entry, or the closed form (the terminal step of
    QR deflation), so a defective double eigenvalue of an integer 2x2
    matrix is not split by ~sqrt(eps).  With e the exponent of a row's
    largest |entry|, the closed form's t*t and a*d underflow on small rows
    and overflow past about 1e154.  So a row whose largest |entry| is below
    1 goes through the closed form as its entries times 2^-e, and a row
    whose discriminant is not finite is redone on the same scaling; their
    values are scaled back by 2^e (a value past the float64 range comes
    back inf, without a numpy warning).  Scaling by 2^-e is exact, so a row
    that neither underflows nor overflows keeps its bits.  k >= 3 is LAPACK
    dgeev per matrix through `np.linalg.eigvals`, the same bits as one call
    each; a matrix that does not converge raises NoConvergenceError."""
    k = stack.shape[-1]
    if k == 1:
        return stack[:, 0, :].astype(complex)
    if k == 2:
        flat = stack.reshape(-1, 4)
        e = np.frexp(np.abs(flat).max(axis=1))[1][:, None]
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite row is redone
            out, finite = _eigvals_2x2(flat, np.minimum(e, 0))
        if not finite.all():
            rows = ~finite
            with np.errstate(over="ignore"):  # a value past the range is inf
                out[rows] = _eigvals_2x2(flat[rows], e[rows])[0]
        return out
    try:
        return np.linalg.eigvals(stack).astype(complex, copy=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc


def eigenvalues(m, check_residual: bool = True) -> Spectrum:
    """All n eigenvalues, from `stack_eigvals` on a stack of one, as the
    `Spectrum` of `pair_conjugates`; raises FloatRangeError when a value is
    inf or NaN (the eigenvalues of a matrix near the top of the float64
    range can leave it), NoConvergenceError when a value is left unpaired
    or, with `check_residual`, at a large residual.

    For n >= 3 the residual |det(m - lambda I)| of the first three values
    must be at most 1e-6 (2 max(||m||_inf, max |lambda|))^n; that bound
    saturates at inf past the float64 range, where no residual fails it,
    and numpy's overflow warnings are silenced."""
    mat = as_matrix(m)
    n = mat.shape[0]
    vals = stack_eigvals(mat[None])[0].tolist()
    if not all(map(cmath.isfinite, vals)):
        raise FloatRangeError("an eigenvalue left the float64 range")
    spec = pair_conjugates(vals)
    if not spec.closed:
        raise NoConvergenceError("eigenvalues of a real matrix failed conjugate pairing")
    if check_residual and n >= 3:
        with np.errstate(over="ignore"):
            try:
                scale = max(1.0, (2.0 * max(inf_norm(mat), max(abs(v) for v in spec.values))) ** n)
            except OverflowError:
                scale = math.inf
            for v in spec.values[:3]:
                resid = abs(np.linalg.det(mat - v * np.eye(n)))
                if resid > 1e-6 * scale:
                    raise NoConvergenceError(
                        f"det(m - lambda I) residual {resid:.3e} too large for lambda={v}"
                    )
    return spec


def charpoly(m) -> tuple[float, ...]:
    """The characteristic polynomial of m by the Faddeev-LeVerrier trace
    recursion, as its symmetric functions (c_0, ..., c_n): c_0 = 1 and
    det(xI - m) = x^n - c_1 x^(n-1) + c_2 x^(n-2) - ... + (-1)^n c_n, so
    c_k is the k-th elementary symmetric function of the eigenvalues and
    also the sum of all k x k principal minors."""
    mat = as_matrix(m)
    n = mat.shape[0]
    coeffs = [1.0]
    nk = np.eye(n)
    for k in range(1, n + 1):
        an = mat @ nk
        bk = -float(np.trace(an)) / k
        coeffs.append((-1.0) ** k * bk)  # c_k = (-1)^k b_k with b_k from det(xI - A)
        nk = an + bk * np.eye(n)
    return tuple(coeffs)
