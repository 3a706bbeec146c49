"""Candidate spectra: symmetric functions, P-set tests, wedge bounds,
augmentation by positive reals, and heuristic realization by a P-matrix.

A candidate is a `linalg.Spectrum`: the one that `eigenvalues` returns is
taken as it is, and `make_candidate` canonicalizes a raw value list once.

A multiset of reals and conjugate pairs is a P-set exactly when all its
elementary symmetric functions are positive; such sets are precisely the
spectra of P-matrices.  All sigma computations here are matrix-free
(polynomial expansion of prod (x + lambda_i)); the characteristic
polynomial of a realizing matrix is the independent cross-check route.

The P-set decision is evaluated after scaling the values by
L = max(1, max |lambda|), which leaves the test invariant
(sigma_k scales by L^k) while keeping degree-~10^3 expansions inside
floating-point range.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .classify import MINORS_MAX_DIM, NO, YES, is_P_minors
from .errors import (
    DimensionTooLargeError,
    NotAPSetError,
    NotConjugationClosedError,
    PreconditionViolatedError,
    ZeroElementInP0CheckError,
)
from .generators import _diagdom
from .linalg import Spectrum, eigenvalues, pair_conjugates, scipy_extension
from .tolerances import DEFAULT_TOL, Tolerances, conj_for

FLOAT64_MAX_VALUES = 800   # beyond this the expansion switches to clongdouble
EXPANSION_MAX_VALUES = 12000


def make_candidate(values: Sequence[complex]) -> Spectrum:
    """Canonicalize a raw value list (conjugate pairing computed, not
    assumed).  A non-finite value (nan or inf in either part) raises
    ValueError."""
    raw = [complex(v) for v in values]
    if not all(cmath.isfinite(v) for v in raw):
        raise ValueError("spectral values must all be finite")
    return pair_conjugates(raw)


def _coerce(s) -> Spectrum:
    if isinstance(s, Spectrum):
        return s
    return make_candidate(s)


def _scale(values: Sequence[complex]) -> float:
    """L = max(1, max |lambda|), the scale of every sigma expansion."""
    return max(1.0, max((abs(v) for v in values), default=1.0))


def _expansion(values, scales):
    """The one expansion of prod (x + lambda_i / L), row-batched.

    `values` is an (R, n) batch with one scale L per row in `scales`;
    yields (degree, coeffs) for degree 0..n, coeffs the (R, n + 1) array
    with coeffs[r, k] = sigma_k of the first `degree` values of row r / L_r,
    updated in place; complex128 up to FLOAT64_MAX_VALUES values,
    clongdouble past that.  A 1-D `values` with a float scale is one row,
    and then coeffs is that row's (n + 1,) view.

    Two bit traps, each measured to move sigma bits.  Each value is
    divided componentwise, re / L and im / L: that gives the bits of
    Python's complex(v) / L up to the sign of a zero part, which no
    coefficient keeps (each entry starts at +0 and only has products added
    to it), whereas numpy's complex128 / float64 multiplies by a
    reciprocal.  And callers take L from Python abs (or np.hypot), never
    from np.abs on complex128, which differs from Python abs in the last
    bit.
    """
    vals = np.asarray(values, dtype=np.complex128)
    one_row = vals.ndim == 1
    if one_row:
        vals = vals.reshape(1, -1)
    scale = np.asarray(scales, dtype=float).reshape(-1, 1)
    vs = np.empty_like(vals)
    vs.real = vals.real / scale
    vs.imag = vals.imag / scale
    rows, n = vals.shape
    coeffs = np.zeros((rows, n + 1), dtype=np.complex128 if n <= FLOAT64_MAX_VALUES else np.clongdouble)
    coeffs[:, 0] = 1.0
    out = coeffs[0] if one_row else coeffs
    yield 0, out
    for deg in range(n):
        coeffs[:, 1 : deg + 2] = coeffs[:, 1 : deg + 2] + vs[:, deg : deg + 1] * coeffs[:, : deg + 1]
        yield deg + 1, out


def _full_expansion(values, scales) -> np.ndarray:
    """The coefficients of _expansion once every factor is in."""
    for _, coeffs in _expansion(values, scales):
        pass
    return coeffs


def _expand_scaled(cand: Spectrum) -> tuple[np.ndarray, float, float]:
    """Coefficients sigma_k(values / L) for k = 1..n plus (L, imag residue).

    Requires conjugation closure and at most EXPANSION_MAX_VALUES values.
    """
    if not cand.closed:
        raise NotConjugationClosedError("candidate spectrum has an unmatched non-real value")
    if len(cand.values) > EXPANSION_MAX_VALUES:
        raise DimensionTooLargeError(f"expansion capped at {EXPANSION_MAX_VALUES} values")
    scale = _scale(cand.values)
    coeffs = _full_expansion(cand.values, scale)
    residue = float(np.abs(coeffs.imag).max())
    return coeffs.real[1:], scale, residue


def _unscaled_sigma(scaled: np.ndarray, scale: float, residue: float):
    """sigma_k = scaled_k * L^k in float64 (inf on overflow), after checking
    the imaginary residue against the conjugation tolerance."""
    if residue > conj_for(float(np.abs(scaled).max(initial=1.0))):
        raise NotConjugationClosedError(f"imaginary residue {residue:.3e} above tolerance")
    k = np.arange(1, len(scaled) + 1, dtype=float)
    with np.errstate(over="ignore"):
        return scaled.astype(float) * np.power(scale, k)


def sigma_all(s) -> np.ndarray:
    """Elementary symmetric functions sigma_1..sigma_n of the candidate.

    Requires conjugation closure; the imaginary residue of the complex
    expansion is checked against the conjugation tolerance and discarded.
    """
    return _unscaled_sigma(*_expand_scaled(_coerce(s)))


def _pset_thresholds(n: int, scale, tol: Tolerances) -> np.ndarray:
    """tol.minor * (1 + L^-k) for k = 1..n: shape (n,) for one scale L,
    one such row per scale for a 1-D array of scales (each row computed
    by the same elementwise power loop as the one-scale case)."""
    k = np.arange(1, n + 1, dtype=float)
    return tol.minor * (1.0 + np.power(np.asarray(scale, dtype=float)[..., None], -k))


def is_P_set(s, tol: Tolerances = DEFAULT_TOL, variant: str = "P") -> str:
    """P-set test: sigma_k > threshold for all k (P0: sigma_k >= -threshold).

    Scale-invariant: evaluated on values/L against thresholds
    tol.minor * (1 + L^k) / L^k.
    """
    if variant not in ("P", "P0"):
        raise ValueError("variant must be 'P' or 'P0'")
    scaled, scale, _ = _expand_scaled(_coerce(s))
    thr = _pset_thresholds(len(scaled), scale, tol).astype(scaled.dtype)
    if variant == "P":
        return YES if bool((scaled > thr).all()) else NO
    return YES if bool((scaled >= -thr).all()) else NO


@dataclass(frozen=True)
class WedgeResult:
    verdict: str
    max_arg: float
    bound: float
    equality_case: Optional[bool] = None
    equality_sigma_consistent: Optional[bool] = None


def wedge_check(s, variant: str = "P", tol: Tolerances = DEFAULT_TOL) -> WedgeResult:
    """Kellogg wedge bound: |arg lambda_i| < (n-1)pi/n for P-sets
    (<= for P0-sets with nonzero values, equality iff sigma_1..sigma_{n-1}
    vanish and sigma_n > 0).  The P0 check raises on a value that is
    exactly zero, at any scale of the others.

    Degenerate note: for n = 1 the bound is 0, so even the singleton
    P-set {t}, t > 0, sits exactly on it; callers interested in the
    theorem proper should use n >= 2.
    """
    if variant not in ("P", "P0"):
        raise ValueError("variant must be 'P' or 'P0'")
    cand = _coerce(s)
    n = len(cand.values)
    if n == 0:
        raise ValueError("empty candidate spectrum")
    bound = (n - 1) * math.pi / n
    if variant == "P0":
        for v in cand.values:
            if v == 0:
                raise ZeroElementInP0CheckError("P0 wedge bound requires nonzero values")
    max_arg = max(abs(math.atan2(v.imag, v.real)) for v in cand.values)
    if variant == "P":
        return WedgeResult(YES if max_arg < bound else NO, max_arg, bound)
    verdict = YES if max_arg <= bound + 1e-12 else NO
    equality = abs(max_arg - bound) <= 1e-9
    sigma_ok = None
    if equality and cand.closed:
        sig = sigma_all(cand)
        thr = tol.minor * (1.0 + np.power(_scale(cand.values), np.arange(1, n + 1, dtype=float)))
        sigma_ok = bool((np.abs(sig[:-1]) <= thr[:-1]).all() and sig[-1] > thr[-1])
    return WedgeResult(verdict, max_arg, bound, equality, sigma_ok)


# ---------------------------------------------------------------------------
# augmentation by positive reals


# search grid of the positive-real augmentation
_AUGMENT_MAGNITUDES = tuple(0.25 * i for i in range(1, 33))
_LADDER_MAGNITUDES = (0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0)
_MAX_ADDITIONS = 6000
_DENSE_COUNT_LIMIT = 24


@dataclass(frozen=True)
class AugmentResult:
    additions: tuple[float, ...]
    sigma: tuple[float, ...]
    sigma_scale: float  # 1.0 when sigma is unscaled; else sigma_k(true) = sigma[k-1] * scale^k


def _check_augment_precondition(cand: Spectrum) -> None:
    if not cand.closed:
        raise PreconditionViolatedError("non-real values must come in conjugate pairs")
    for v in cand.values:
        if v.imag == 0.0 and v.real <= 0.0:
            raise PreconditionViolatedError("real members must be positive")


def _kellogg_min_total(values: Sequence[complex]) -> int:
    """Smallest total set size not excluded by the wedge bound (necessary)."""
    mx = max((abs(math.atan2(v.imag, v.real)) for v in values), default=0.0)
    if mx <= 0.0:
        return 1
    if mx >= math.pi:
        return EXPANSION_MAX_VALUES + 1
    return math.floor(math.pi / (math.pi - mx)) + 1


def _dip_targets(values: Sequence[complex]) -> list[float]:
    """Candidate magnitudes near the dips of prod(x + pair) on x >= 0.

    A pair a +- bi with a < 0 dips at x = |a| with margin b^2; ladder
    values near the dip absorb it fastest.
    """
    out = []
    for v in values:
        if v.imag > 0 and v.real < 0:
            out.extend([abs(v.real), abs(v), 1.25 * abs(v.real)])
    return sorted(set(round(t, 6) for t in out if t > 0))


def _result_sigma(base, additions) -> tuple[tuple[float, ...], float]:
    vals = base + tuple(complex(t) for t in additions)
    scaled, scale, residue = _expand_scaled(Spectrum(vals, True))
    sig = _unscaled_sigma(scaled, scale, residue)
    if np.isfinite(sig).all():
        return tuple(float(x) for x in sig), 1.0
    return tuple(float(x) for x in scaled), float(scale)


def augment_to_P_set(c, tol: Tolerances = DEFAULT_TOL) -> Optional[AugmentResult]:
    """Copies of one positive real whose union with `c` passes the P-set
    test, the fewest the search finds; None on budget exhaustion (the
    augmentation theorem guarantees existence, so persistent failure at
    small sizes signals a bug).

    Every candidate goes through one kernel, _ladder_min_count, which
    returns the smallest passing count and, at that count, the first
    passing magnitude in the order given.  When the Kellogg bound leaves
    at most 8 values to add, one call scans the quarter grid and the dip
    targets, ascending, up to 23 counts past that bound.  Otherwise, or
    if no row passes, one call per magnitude, dip targets first, each
    capped one below the best count so far.  Those stay one magnitude per
    call: a row with t >= L never reaches its dead end, so one batch of
    every magnitude would run each count up to the cap.
    """
    cand = _coerce(c)
    _check_augment_precondition(cand)
    base = cand.values

    if len(base) <= EXPANSION_MAX_VALUES and is_P_set(cand, tol) == YES:
        sig, scale = _result_sigma(base, ())
        return AugmentResult((), sig, scale)

    m_start = max(1, _kellogg_min_total(base) - len(base))
    if m_start > _MAX_ADDITIONS:
        return None

    dips = _dip_targets(base)
    hit = None
    if m_start <= 8:
        dense_hi = min(m_start + _DENSE_COUNT_LIMIT - 1, _MAX_ADDITIONS)
        hit = _ladder_min_count(base, sorted(set(_AUGMENT_MAGNITUDES).union(dips)), dense_hi, tol)
    if hit is None:
        cap = _MAX_ADDITIONS
        for t in dict.fromkeys(dips + list(_LADDER_MAGNITUDES)):
            found = _ladder_min_count(base, (t,), cap, tol)
            if found is not None:
                hit, cap = found, found[0] - 1
    if hit is None:
        return None
    adds = (float(hit[1]),) * hit[0]
    sig, scale = _result_sigma(base, adds)
    return AugmentResult(adds, sig, scale)


def _ladder_min_count(
    base: tuple[complex, ...], ts: Sequence[float], m_cap: int, tol: Tolerances
) -> Optional[tuple[int, float]]:
    """(m, t): the smallest m <= m_cap at which base + m copies of some t
    in the positive `ts` passes the P-set test, with the first such t in
    `ts` order; or None.

    One _expansion batch, a row of base + m_cap copies of each t at scale
    L = max(L(base), t) (the row's _scale: abs(complex(t)) == t), judged
    against is_P_set's thresholds after every copy.  Every count is
    judged: exact positivity is monotone in m, since multiplying a
    polynomial with positive coefficients by (x + t), t > 0, keeps them
    positive, but the thresholded test is not.  {-1 +- 2i} with m copies
    of 0.5 passes for m = 5..15 and fails for every m >= 16, where the
    top scaled coefficient (t/L)^m drops below tol.minor.

    The scan returns None once every row is at a proven dead end: every
    base value is in and the row's top scaled coefficient is at or below
    its smallest threshold, the floor.  L >= t, so each further factor
    multiplies the top coefficient by t/L in (0, 1]; rounding is monotone,
    so a coefficient at or below the floor stays there (a nonpositive one
    stays nonpositive); and every threshold is at least the floor, so a
    dead row never passes again.  A NaN compares False and keeps
    scanning, as without the exit.
    """
    nb = len(base)
    m_cap = min(m_cap, EXPANSION_MAX_VALUES - nb)
    if m_cap < 1:
        return None
    values = np.empty((len(ts), nb + m_cap), dtype=np.complex128)
    values[:, :nb] = base
    values[:, nb:] = np.asarray(ts, dtype=float)[:, None]
    scales = np.maximum(_scale(base), ts)
    expansion = _expansion(values, scales)
    _, coeffs = next(expansion)
    real = coeffs.real  # a view: _expansion updates coeffs in place
    # cast once, not at every comparison with longdouble coefficients
    thr = _pset_thresholds(nb + m_cap, scales, tol).astype(real.dtype)
    floor = thr.min(axis=1)
    for deg, _ in expansion:
        if deg < nb:
            continue
        if (real[:, deg] <= floor).all():
            return None  # dead end: no top coefficient can pass again
        if deg > nb:
            passed = np.flatnonzero((real[:, 1 : deg + 1] > thr[:, :deg]).all(axis=1))
            if passed.size:
                return deg - nb, ts[passed[0]]
    return None


# ---------------------------------------------------------------------------
# realization


def spectra_match(a: Sequence[complex], b: Sequence[complex], tol: float = 1e-6):
    """Multiset eigenvalue comparison via Hungarian assignment.

    Returns (ok, max_deviation); ok when every matched pair is within
    tol * (1 + |value|).  The assignment is scipy's compiled
    `linear_sum_assignment`, loaded from `scipy.optimize._lsap` at the
    first call without importing the scipy.optimize package.
    """
    av = np.array([complex(v) for v in a])
    bv = np.array([complex(v) for v in b])
    if av.shape != bv.shape:
        return False, math.inf
    cost = np.abs(av[:, None] - bv[None, :])
    rows, cols = scipy_extension("optimize._lsap").linear_sum_assignment(cost)
    devs = cost[rows, cols] / (1.0 + np.abs(bv[cols]))
    return bool((devs <= tol).all()), float(devs.max(initial=0.0))


def _block_form(spec: Spectrum) -> np.ndarray:
    """The real block-diagonal form of a closed `Spectrum` in canonical
    order: a 1x1 block per real value and a rotation-scaling block
    [[a, b], [-b, a]] per pair a +- bi, read off the order (a pair fills
    two adjacent slots, +b first)."""
    vals = np.array(spec.values)
    out = np.diag(vals.real)
    i = np.flatnonzero(vals.imag > 0)
    out[i, i + 1] = vals.imag[i]
    out[i + 1, i] = -vals.imag[i]
    return out


def _random_similarity(block: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Q block Q^T, Q orthogonal from the QR of a Gaussian draw (signs by diag R)."""
    q, r = np.linalg.qr(rng.standard_normal(block.shape))
    q = q * np.sign(np.diag(r))
    return q @ block @ q.T


def realize_P_set(
    s, budget: int = 4000, seed: int = 0, tol: Tolerances = DEFAULT_TOL
) -> Optional[np.ndarray]:
    """Heuristic construction of a P-matrix with the given P-set spectrum.

    Starts from the real block-diagonal form (1x1 blocks for reals, 2x2
    rotation-scaling blocks for conjugate pairs) and searches over random
    orthogonal similarities; None on budget exhaustion (failure is not a
    refutation of the existential theorem).
    """
    cand = _coerce(s)
    if is_P_set(cand, tol) != YES:
        raise NotAPSetError("realization requires a P-set")
    n = len(cand.values)
    if n > MINORS_MAX_DIM:
        raise DimensionTooLargeError(f"realization verifies minors; capped at n={MINORS_MAX_DIM}")
    target = np.array(cand.values)
    block = _block_form(cand)

    def accept(mat):
        if is_P_minors(mat, tol)[0] != YES:
            return False
        ok, _ = spectra_match(eigenvalues(mat).values, target, 1e-6)
        return ok

    if accept(block):
        return block
    rng = np.random.default_rng(seed)
    for _ in range(budget):
        mat = _random_similarity(block, rng)
        if accept(mat):
            return mat
    return None


# ---------------------------------------------------------------------------
# extremal evidence harness


@dataclass(frozen=True)
class ExtremalSearchReport:
    n: int
    budget: int
    trials: int
    p_matrices_found: int
    max_left_half_plane_count: Optional[int]
    max_abs_arg: Optional[float]
    witness: Optional[tuple[tuple[float, ...], ...]]
    witness_spectrum: Optional[tuple[complex, ...]]


def extremal_spectrum_search(
    n: int, budget: int = 500, seed: int = 0, tol: Tolerances = DEFAULT_TOL
) -> ExtremalSearchReport:
    """Randomized evidence for P-matrices with eigenvalues far into the
    left half-plane: records the best left-half-plane count and the
    largest |arg lambda| seen over generated P-matrices.
    """
    if not 2 <= n <= 8:
        raise ValueError("extremal search supports 2 <= n <= 8")
    rng = np.random.default_rng(seed)
    trials = 0
    found = 0
    best_count: Optional[int] = None
    best_arg: Optional[float] = None
    witness = None
    witness_spec = None

    def consider(mat):
        nonlocal found, best_count, best_arg, witness, witness_spec
        if is_P_minors(mat, tol)[0] != YES:
            return
        found += 1
        spec = eigenvalues(mat, check_residual=False)
        lhp = sum(1 for v in spec.values if v.real < 0)
        arg = max(abs(math.atan2(v.imag, v.real)) for v in spec.values)
        if best_count is None or lhp > best_count:
            best_count = lhp
            witness = tuple(tuple(float(x) for x in row) for row in mat)
            witness_spec = spec.values
        if best_arg is None or arg > best_arg:
            best_arg = arg

    while trials < budget:
        mode = trials % 3
        trials += 1
        if mode == 0:
            consider(rng.uniform(-1.0, 1.0, (n, n)))
        elif mode == 1:
            consider(_diagdom(rng, n, 1.0) + rng.uniform(-0.3, 0.3, (n, n)))
        else:
            # random P-set with a left-half-plane pair, short realization try
            vals = []
            pairs = max(1, n // 2 - (0 if n % 2 else 1))
            for _ in range(pairs):
                a = rng.uniform(-2.0, 0.5)
                b = rng.uniform(0.5, 2.5)
                vals += [complex(a, b), complex(a, -b)]
            while len(vals) < n:
                vals.append(complex(rng.uniform(0.5, 4.0), 0.0))
            # the sigma bits follow the draw order, so the test keeps it
            if is_P_set(Spectrum(tuple(vals), True), tol) != YES:
                continue
            block = _block_form(pair_conjugates(vals))
            for _ in range(20):
                consider(_random_similarity(block, rng))

    return ExtremalSearchReport(
        n=n,
        budget=budget,
        trials=trials,
        p_matrices_found=found,
        max_left_half_plane_count=best_count,
        max_abs_arg=best_arg,
        witness=witness,
        witness_spectrum=witness_spec,
    )
