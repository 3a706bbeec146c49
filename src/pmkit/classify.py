"""Membership tests for the matrix classes under study.

P and P0 via exhaustive principal minors (n <= 12: batched LU
determinants per size, and from n = 9 on the level-wise Schur-complement
recursion for sizes >= 3, which hands every minor its error bound cannot
place back to the LU batch), the submatrix-eigenvalue characterization as
an independent oracle, Z / M-type via spectra, positive stability, and
column/row sufficiency.  Verdicts are
three-valued ("yes" / "no" / "unknown"): budgeted searches must not
masquerade as decisions.  Sufficiency is "yes" at every n when the
symmetric part is positive semidefinite within tolerance (the PSD
shortcut).  Otherwise, for n <= 3, every orthant/violation-position
system is tested for emptiness over exact rationals and two points of
each non-empty one go to the strict witness gate; "yes" means that none
passed.  That "yes" is not an exact decision (the method label
"exact-orthant-decomposition" names the procedure): a non-empty system
holds an exact strict violation, and another of its points may clear the
gate's margin.  Beyond n = 3 a search gives "no" with a witness or
"unknown".

Every returned witness is re-validated exactly, in integers over a
power-of-two denominator, before release: a sign-reversal witness x
satisfies x_i (Ax)_i <= 0 for all i, a sufficiency witness additionally
has a strictly negative product.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, islice, product
from typing import Optional

import numpy as np

from . import feasibility
from .errors import DimensionTooLargeError, PreconditionViolatedError
from .linalg import (
    as_matrix,
    as_vector,
    eigenvalues,
    inf_norm,
    principal_minors,
    principal_stacks,
    shortlex_masks,
    stack_eigvals,
)
from .tolerances import DEFAULT_TOL, Tolerances, conj_for

YES = "yes"
NO = "no"
UNKNOWN = "unknown"

MINORS_MAX_DIM = 12
SCHUR_MIN_DIM = 9  # the Schur recursion beats the per-size LU batch from here
SCHUR_MAX_GROWTH = 2.0**32  # past it, second-order error terms may matter
_UNIT_ROUNDOFF = np.finfo(float).eps / 2
_TINY = np.finfo(float).tiny
EIGEN_ORACLE_MAX_DIM = 10
EXACT_SUFFICIENCY_MAX_DIM = 3
REVERSAL_LP_MAX_DIM = 10
POWERS_MAX_DIM = 10
POWERS_MAX_K = 16
_VIOLATION_BOX = 1e4  # coordinate bound of the violation-maximizing LP


def verdict_and(*verdicts: str) -> str:
    """Three-valued conjunction: no dominates, unknown contaminates yes."""
    if NO in verdicts:
        return NO
    if UNKNOWN in verdicts:
        return UNKNOWN
    return YES


# ---------------------------------------------------------------------------
# principal-minor tests


def _lu_sweep(mat: np.ndarray, sizes, norm: float, strict: bool, tol: Tolerances):
    """(NO, the shortlex-first violating index set, 1-based) over the
    minors of the given increasing sizes, or None when none violates.
    Each size k is one batched determinant over the stack of its k x k
    submatrices (the same LAPACK LU per matrix, so the same bits as one
    call each); the first violating row of the first failing size is the
    shortlex-first violating set."""
    for idx, stack in principal_stacks(mat, sizes):
        minors = np.linalg.det(stack)
        thr = tol.minor_for(norm, idx.shape[1])
        bad = (minors <= thr) if strict else (minors < -thr)
        if bad.any():
            return NO, tuple(int(i) + 1 for i in idx[np.argmax(bad)])
    return None


def _schur_sweep(mat: np.ndarray, norm: float, strict: bool, tol: Tolerances):
    """The minors of size >= 3 from `principal_minors`, judged in one
    vectorized pass in shortlex order, with the LU sweep from the first
    size that holds a minor the recursion cannot place.

    A minor v is placed when it is finite, its growth g is below
    SCHUR_MAX_GROWTH (so the first-order bound holds) and |v - edge| >
    4n g (u |v| + tiny) for its threshold edge (u the unit roundoff, tiny
    the least normal float64, which covers underflow): then v is on the
    same side of the threshold as the exact minor, to first order in u.
    The factor 4n leaves room for the LU value's own rounding; the tests
    check that the two sweeps agree, on hostile inputs too.
    The first minor that is a placed violation or is not placed decides:
    the former is the witness, the latter starts the LU sweep at its size.
    Returns the verdict pair."""
    n = mat.shape[0]
    lo = n + n * (n - 1) // 2  # sizes 1 and 2 are judged by the LU sweep
    masks, sizes = (a[lo:] for a in shortlex_masks(n))
    minors, growth = principal_minors(mat)
    v, g = minors[masks], growth[masks]
    edge = np.array([tol.minor_for(norm, k) for k in range(3, n + 1)])[sizes - 3]
    if not strict:
        edge = -edge
    bad = (v <= edge) if strict else (v < edge)
    placed = (g < SCHUR_MAX_GROWTH) & (np.abs(v - edge) > 4 * n * g * (_UNIT_ROUNDOFF * np.abs(v) + _TINY))
    hit = bad | ~placed
    if not hit.any():
        return YES, None
    i = int(np.argmax(hit))
    if not placed[i]:
        return _lu_sweep(mat, range(int(sizes[i]), n + 1), norm, strict, tol) or (YES, None)
    return NO, tuple(j + 1 for j in range(n) if int(masks[i]) >> j & 1)


def _minor_sweep(m, strict: bool, tol: Tolerances):
    """Shortlex sweep over all 2^n - 1 principal minors.

    With `strict` every minor must exceed +tol.minor_for(||m||, k) (P);
    otherwise none may fall below -tol.minor_for(||m||, k) (P0).  Below
    SCHUR_MIN_DIM each size k is one batched LU determinant (`_lu_sweep`),
    sizes in increasing order.  From SCHUR_MIN_DIM on, sizes 1 and 2 are
    judged the same way, so a refutation there exits as early, and the
    larger sizes come from the Schur-complement recursion with its error
    bound, which hands every minor it cannot place back to the LU sweep
    (`_schur_sweep`): the verdict and witness are the LU sweep's.  A
    minor past the float64 range is +-inf, judged like any other, and
    numpy's overflow warning is silenced.
    Returns (verdict, the shortlex-first violating index set 1-based, or
    None).
    """
    mat = as_matrix(m)
    n = mat.shape[0]
    if n > MINORS_MAX_DIM:
        raise DimensionTooLargeError(f"minor enumeration capped at n={MINORS_MAX_DIM}")
    with np.errstate(over="ignore"):
        norm = inf_norm(mat)
        if n < SCHUR_MIN_DIM:
            return _lu_sweep(mat, None, norm, strict, tol) or (YES, None)
        return _lu_sweep(mat, (1, 2), norm, strict, tol) or _schur_sweep(mat, norm, strict, tol)


def is_P_minors(m, tol: Tolerances = DEFAULT_TOL):
    """All 2^n - 1 principal minors positive; on "no" returns the
    lexicographically-first violating index set.  The sweep is
    `_minor_sweep`: LU determinants batched per size, and from n = 9 on
    the Schur recursion for sizes >= 3 with the LU batch as its fallback,
    which give the same verdict and witness."""
    return _minor_sweep(m, True, tol)


def is_P0_minors(m, tol: Tolerances = DEFAULT_TOL):
    """All principal minors nonnegative (within tolerance); on "no" returns
    the lexicographically-first violating index set."""
    return _minor_sweep(m, False, tol)


def is_P_submatrix_eigen(m, tol: Tolerances = DEFAULT_TOL) -> str:
    """Independent oracle: every real eigenvalue of every principal
    submatrix is positive (Fiedler & Ptak, 1962).  One batched
    `stack_eigvals` call per size over `principal_stacks`; v is real when
    |Im v| <= conj_for(|v|), as in `pair_conjugates`, and positive
    when Re v > tol.minor_for(||A_aa||_inf, 1)."""
    mat = as_matrix(m)
    n = mat.shape[0]
    if n > EIGEN_ORACLE_MAX_DIM:
        raise DimensionTooLargeError(f"submatrix-eigenvalue oracle capped at n={EIGEN_ORACLE_MAX_DIM}")
    for _, stack in principal_stacks(mat):
        vals = stack_eigvals(stack)
        # inf_norm of each A_aa, one reduction per size
        thr = [[tol.minor_for(norm, 1)] for norm in np.abs(stack).sum(axis=2).max(axis=1).tolist()]
        real = np.abs(vals.imag) <= conj_for(np.hypot(vals.real, vals.imag))
        if (real & (vals.real <= np.array(thr))).any():
            return NO
    return YES


# ---------------------------------------------------------------------------
# sign-reversal witnesses


def products_nonpositive_exact(m, x, strict: bool = False, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Exact check that all x_i (m x)_i <= 0, on the integer numerators of
    `feasibility.exact_products`.

    With `strict`, at least one product must clear the scaled minor
    threshold (< -tol.minor_for(norm, 1) * ||x||_inf^2, taken exactly);
    violations below that are indistinguishable from rounding and do not
    refute sufficiency.  The check is scale-invariant in x.
    """
    mat = as_matrix(m)
    v = as_vector(x, mat.shape[0])
    if not np.any(v):
        return not strict
    prods, den = feasibility.exact_products(mat, v)
    if max(prods) > 0:
        return False
    if not strict:
        return True
    with np.errstate(over="ignore"):  # row sums past the float range saturate the threshold
        norm = inf_norm(mat)
    # the margin t s^2 over t = T / c and s = S / c: min p / den < -T S^2 / c^3
    (t, s), c = feasibility._dyadic([tol.minor_for(norm, 1), np.abs(v).max()])
    return min(prods) * c**3 < -t * s * s * den


def _gate_witness(
    mat: np.ndarray, x: np.ndarray, strict: bool, tol: Tolerances = DEFAULT_TOL
) -> Optional[np.ndarray]:
    """x, then x with its entries <= 1e-11 ||x||_inf snapped to 0: the
    first that passes the exact gate, scaled to ||x||_inf = 1 when that
    passes it too, else by a power of two (sign-preserving); or None."""
    scale = np.abs(x).max()
    snapped = x.copy()
    # the snap keeps the largest entry, so both candidates have x's scale
    snapped[np.abs(x) <= 1e-11 * scale] = 0.0
    # an equal-valued snap has the same exact verdict (+-0 are the same rational)
    for cand in (x,) if np.array_equal(snapped, x) else (x, snapped):
        if np.any(cand) and products_nonpositive_exact(mat, cand, strict, tol):
            for out in (cand / scale, cand * 2.0 ** (-np.floor(np.log2(scale)) - 1)):
                if products_nonpositive_exact(mat, out, strict, tol):
                    return out
    return None


def _axis_candidates(n: int):
    eye = np.eye(n)
    for i in range(n):
        yield eye[i]
        yield -eye[i]
    for i in range(n):
        for j in range(i + 1, n):
            for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                yield si * eye[i] + sj * eye[j]


def _reversal_cone(mat: np.ndarray, signs, i: Optional[int] = None):
    """Rows (a_ub, b_ub), read a_ub x <= b_ub, of the orthant cone
    {x : Sx >= 0, SAx <= 0}.  With a violation position i two rows follow
    that ask for s_i x_i >= 1 and s_i (Ax)_i <= -1 (margin 1)."""
    n = mat.shape[0]
    s = np.asarray(signs, dtype=float)
    a_ub = np.vstack([-np.diag(s), s[:, None] * mat])
    b_ub = np.zeros(2 * n)
    if i is not None:
        a_ub = np.vstack([a_ub, -s[i] * np.eye(n)[i], s[i] * mat[i]])
        b_ub = np.concatenate([b_ub, [-1.0, -1.0]])
    return a_ub, b_ub


def _lp_point(c: np.ndarray, a_ub, b_ub, a_eq=None, b_eq=None) -> Optional[np.ndarray]:
    """A minimizer of c.x over the free variables, or None.  scipy.optimize
    is imported here, at the first LP, so importing pmkit does not load it."""
    from scipy.optimize import linprog

    res = linprog(
        c=c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(None, None)] * len(c),
        method="highs",
    )
    return res.x if res.status == 0 and res.x is not None else None


def _orthant_reversal_point(mat: np.ndarray, signs: np.ndarray) -> Optional[np.ndarray]:
    """Nonzero point of {x : Sx >= 0, SAx <= 0} via LP, normalized so that
    sum_j s_j x_j = 1 (every nonzero cone point scales to this slice)."""
    s = np.asarray(signs, dtype=float)
    a_ub, b_ub = _reversal_cone(mat, s)
    return _lp_point(np.zeros(mat.shape[0]), a_ub, b_ub, s.reshape(1, -1), np.ones(1))


def _check_budget(budget: int) -> None:
    if budget < 1:
        raise ValueError("budget must be >= 1")


def _first_witness(mat: np.ndarray, candidates, strict: bool, tol: Tolerances) -> Optional[np.ndarray]:
    """The gated form of the first candidate that passes the exact gate,
    or None; None candidates (infeasible LPs) are skipped."""
    for x in candidates:
        if x is not None:
            out = _gate_witness(mat, x, strict, tol)
            if out is not None:
                return out
    return None


def find_reversal_witness(
    m, budget: int = 2000, seed: int = 0, tol: Tolerances = DEFAULT_TOL
) -> Optional[np.ndarray]:
    """Search for x != 0 with x_i (m x)_i <= 0 for all i (certifies not-P).

    Phases: the 2n^2 deterministic axis candidates, max(budget // 4, 16)
    seeded Gaussian draws, then for n <= 10 one LP point per sign pattern.
    The budget counts every candidate, infeasible LPs included, and stops
    the search wherever it runs out (at n >= 32 the default 2000 ends it
    inside the axis phase).  Absence of a witness is NOT a P-certificate.
    """
    _check_budget(budget)
    mat = as_matrix(m)
    n = mat.shape[0]
    rng = np.random.default_rng(seed)
    normals = (rng.standard_normal(n) for _ in range(max(budget // 4, 16)))
    patterns = product((1.0, -1.0), repeat=n) if n <= REVERSAL_LP_MAX_DIM else ()
    orthants = (_orthant_reversal_point(mat, signs) for signs in patterns)
    # islice pulls no item past its stop, so no LP beyond the budget is solved
    return _first_witness(mat, islice(chain(_axis_candidates(n), normals, orthants), budget), False, tol)


# ---------------------------------------------------------------------------
# entrywise / spectral classes


def is_Z(m) -> str:
    """Off-diagonal entries all <= 0."""
    mat = as_matrix(m)
    off = mat - np.diag(np.diag(mat))
    return YES if (off <= 0.0).all() else NO


def is_P_via_Z_spectrum(m, tol: Tolerances = DEFAULT_TOL) -> str:
    """For Z-matrices only: P iff the real part of every eigenvalue is
    positive."""
    mat = as_matrix(m)
    if is_Z(mat) != YES:
        raise PreconditionViolatedError("spectral Z-route requires a Z-matrix")
    return is_positive_stable(mat, tol)


def is_positive_stable(m, tol: Tolerances = DEFAULT_TOL) -> str:
    """Every eigenvalue has positive real part; raises FloatRangeError
    when an eigenvalue is past the float64 range."""
    mat = as_matrix(m)
    spec = eigenvalues(mat, check_residual=False)
    with np.errstate(over="ignore"):  # row sums past the float range saturate the threshold
        thr = tol.minor_for(inf_norm(mat), 1)
    return YES if min(v.real for v in spec.values) > thr else NO


# ---------------------------------------------------------------------------
# sufficiency


def _csu_violation_lp_max(mat: np.ndarray, signs, i: int) -> Optional[np.ndarray]:
    """Maximize the violation -s_i (Ax)_i on the slice s_i x_i = 1 of the
    orthant cone, coordinates bounded by _VIOLATION_BOX (backstop when a
    feasible system yields only a sub-threshold witness)."""
    n = mat.shape[0]
    s = np.asarray(signs, dtype=float)
    a_ub, b_ub = _reversal_cone(mat, s)
    return _lp_point(
        s[i] * mat[i],  # minimize s_i (Ax)_i
        np.vstack([a_ub, np.diag(s)]),
        np.concatenate([b_ub, np.full(n, _VIOLATION_BOX)]),
        (s[i] * np.eye(n)[i]).reshape(1, -1),
        np.ones(1),
    )


def _exact_orthant_points(mat: np.ndarray):
    """Per orthant and violation position, the exact Fourier-Motzkin point
    of its system and, when there is one, the violation-maximizing LP
    point (backstop when the first is only sub-threshold)."""
    n = mat.shape[0]
    for signs in product((1, -1), repeat=n):
        for i in range(n):
            # feasible_point reads a row as coeffs . x + const >= 0
            a_ub, b_ub = _reversal_cone(mat, signs, i)
            point = feasibility.feasible_point(list(-a_ub), list(b_ub))
            if point is not None:
                yield np.array([float(v) for v in point])
                yield _csu_violation_lp_max(mat, signs, i)


def _sampled_points(mat: np.ndarray, budget: int, seed: int):
    """max(budget // 2, 16) seeded Gaussian draws, then for n <= 10 one LP
    point per (orthant, violation position) in a seeded shuffled order."""
    n = mat.shape[0]
    rng = np.random.default_rng(seed)
    for _ in range(max(budget // 2, 16)):
        yield rng.standard_normal(n)
    pattern_pool = list(product((1, -1), repeat=n)) if n <= REVERSAL_LP_MAX_DIM else []
    rng.shuffle(pattern_pool)
    for signs in pattern_pool:
        for i in range(n):
            yield _lp_point(np.zeros(n), *_reversal_cone(mat, signs, i))


def is_column_sufficient(
    m, budget: int = 2000, seed: int = 0, tol: Tolerances = DEFAULT_TOL
):
    """Column sufficiency: x_i (Ax)_i <= 0 for all i implies all products 0.

    "no" carries an exact-validated witness.  Matrices whose symmetric
    part is positive semidefinite (within tolerance) are certified "yes"
    immediately at any n.  Otherwise the 2n^2 axis candidates always run
    in full.  For n <= 3 every orthant/violation-position system is then
    checked for emptiness over the rationals, its Fourier-Motzkin point
    and violation-maximizing LP point go to the strict gate, and the
    budget is not used.  "yes" there means that no such point passed,
    not that none exists: every point of a non-empty system is an exact
    strict violation, and for some matrices another of them clears the
    margin that these two miss.  For larger n a search returns "no" or
    "unknown"; what is left of the budget after the axis scan
    counts every further candidate, infeasible LPs included, so at
    n >= 32 the default 2000 stops the search after the axis scan.  A
    budget below 1 raises ValueError at every n.
    """
    _check_budget(budget)
    mat = as_matrix(m)
    n = mat.shape[0]

    # PSD shortcut: if the symmetric part is positive semidefinite within
    # tolerance, any x with all products <= 0 has every product bounded
    # below by lambda_min * n * ||x||_inf^2, which cannot clear the strict
    # witness gate; the verdict is "yes" with no search needed.  A sum past
    # the float range is redone halved first (finite sums keep their bits).
    with np.errstate(over="ignore"):
        sym = 0.5 * (mat + mat.T)
        if not np.isfinite(sym).all():
            sym = 0.5 * mat + 0.5 * mat.T
        thr = tol.minor_for(inf_norm(mat), 1)
    sym_min = float(np.linalg.eigvalsh(sym).min())
    if sym_min >= -thr / n:
        return YES, None

    exact = n <= EXACT_SUFFICIENCY_MAX_DIM
    rest = (_exact_orthant_points(mat) if exact
            else islice(_sampled_points(mat, budget, seed), max(budget - 2 * n * n, 0)))
    out = _first_witness(mat, chain(_axis_candidates(n), rest), True, tol)
    if out is not None:
        return NO, out
    # n <= 3: no point tried from a non-empty orthant system cleared the
    # strict margin (untried points of it may)
    return (YES if exact else UNKNOWN), None


def is_row_sufficient(m, budget: int = 2000, seed: int = 0, tol: Tolerances = DEFAULT_TOL):
    """Row sufficiency: the transpose is column sufficient."""
    mat = as_matrix(m)
    return is_column_sufficient(mat.T, budget=budget, seed=seed, tol=tol)


def is_sufficient(m, budget: int = 2000, seed: int = 0, tol: Tolerances = DEFAULT_TOL) -> str:
    """Column and row sufficient; the row search is seeded with seed + 1,
    as in classify_matrix, so both give the same verdict."""
    col, _ = is_column_sufficient(m, budget=budget, seed=seed, tol=tol)
    row, _ = is_row_sufficient(m, budget=budget, seed=seed + 1, tol=tol)
    return verdict_and(col, row)


# ---------------------------------------------------------------------------
# powers experiment


@dataclass(frozen=True)
class PowersReport:
    """is_P_minors verdicts for A, A^2, ..., A^kmax plus the spectral
    observation relevant to the open positivity question."""

    verdicts: tuple[str, ...]
    all_powers_P: bool
    eigenvalues_all_positive_real: Optional[bool]
    spectrum: tuple[complex, ...]


def powers_P_check(m, kmax: int, tol: Tolerances = DEFAULT_TOL) -> PowersReport:
    mat = as_matrix(m)
    n = mat.shape[0]
    if n > POWERS_MAX_DIM:
        raise DimensionTooLargeError(f"powers check capped at n={POWERS_MAX_DIM}")
    if not 1 <= kmax <= POWERS_MAX_K:
        raise ValueError(f"kmax must be in 1..{POWERS_MAX_K}")
    verdicts = []
    power = np.eye(n)
    for _ in range(kmax):
        power = power @ mat
        verdicts.append(is_P_minors(power, tol)[0])
    spec = eigenvalues(mat, check_residual=False)
    all_p = all(v == YES for v in verdicts)
    positive_real: Optional[bool] = None
    if all_p:
        reals = spec.real_values()
        positive_real = len(reals) == len(spec.values) and all(v > 0 for v in reals)
    return PowersReport(tuple(verdicts), all_p, positive_real, spec.values)


# ---------------------------------------------------------------------------
# full report


@dataclass
class ClassificationReport:
    verdicts: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)
    methods: dict = field(default_factory=dict)
    tolerances_used: dict = field(default_factory=dict)
    seed: int = 0

    def record(self, cls: str, verdict: str, method: str, witness=None) -> None:
        """Enter the verdict on `cls`, the method it rests on and its
        witness, when it has one."""
        self.verdicts[cls] = verdict
        self.methods[cls] = method
        if witness is not None:
            self.witnesses[cls] = witness

    def as_obj(self) -> dict:
        """Verdicts, witnesses and methods; the CLI report's envelope
        carries the seed, the tolerances and the input."""
        return {
            "verdicts": dict(self.verdicts),
            "witnesses": {
                k: (list(map(float, v)) if isinstance(v, np.ndarray) else list(v))
                for k, v in self.witnesses.items()
                if v is not None
            },
            "methods": dict(self.methods),
        }


def classify_matrix(
    m, budget: int = 2000, seed: int = 0, tol: Tolerances = DEFAULT_TOL
) -> ClassificationReport:
    """One-stop report over all classes, with witnesses where applicable."""
    mat = as_matrix(m)
    n = mat.shape[0]
    rpt = ClassificationReport(seed=seed, tolerances_used=tol.as_dict())

    if n <= MINORS_MAX_DIM:
        p_verdict, p_witness = is_P_minors(mat, tol)
        rpt.record("P", p_verdict, "principal-minors", p_witness)
        # every P minor clears +threshold, so P settles P0 without a sweep
        rpt.record("P0", YES if p_verdict == YES else is_P0_minors(mat, tol)[0], "principal-minors")
    else:
        witness = find_reversal_witness(mat, budget=budget, seed=seed, tol=tol)
        rpt.record("P", UNKNOWN if witness is None else NO, "sign-reversal-search", witness)
        rpt.record("P0", UNKNOWN, "sign-reversal-search")

    z = is_Z(mat)
    rpt.record("Z", z, "off-diagonal-signs")
    stable = is_positive_stable(mat, tol)
    # a Z-matrix is M exactly when it is positive stable (is_P_via_Z_spectrum)
    if z == YES:
        rpt.record("M", stable, "Z-plus-eigenvalue-real-parts")
    else:
        rpt.record("M", NO, "off-diagonal-signs")
    rpt.record("positive-stable", stable, "eigenvalue-real-parts")

    method = "exact-orthant-decomposition" if n <= EXACT_SUFFICIENCY_MAX_DIM else "budgeted-search"
    col, col_w = is_column_sufficient(mat, budget=budget, seed=seed, tol=tol)
    row, row_w = is_row_sufficient(mat, budget=budget, seed=seed + 1, tol=tol)
    rpt.record("column-sufficient", col, method, col_w)
    rpt.record("row-sufficient", row, method, row_w)
    rpt.record("sufficient", verdict_and(col, row), method)
    return rpt
