"""The transform U(A) = (I+A)^{-1}(I-A) and the P-matrix factorization.

A P-matrix has no negative real eigenvalues, so I + A is invertible and
A = (I+U(A))^{-1} (I-U(A)) factors A into two P-matrices; the factors are
materialized through the closed forms (I+A)/2 and 2(I+A)^{-1}A and
cross-checked against the U-path.

Positive stability of scaled factors is handled as a logged experiment,
not an asserted postcondition: with the identity scaling it would claim
every P-matrix is positive stable, which is false (see the fixture in the
tests: a 3x3 P-matrix with two eigenvalues in the left half-plane).
Counterexamples are confirmed independently of the eigensolver by the
Routh-Hurwitz criterion on the characteristic polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .classify import YES, is_P_minors, is_positive_stable
from .errors import NonPositiveDiagonalError, NotAPMatrixError, SingularMatrixError
from .generators import GenSpec, generate
from .linalg import _lu_with_pivot_check, as_matrix, as_vector, charpoly, eigenvalues, inverse, lu_solve
from .tolerances import DEFAULT_TOL, Tolerances

SM1_SIZES = (2, 3, 4, 5)  # matrix orders the positive-stability probe cycles through


def _solve_matrix(mat: np.ndarray, rhs: np.ndarray, tol: Tolerances) -> np.ndarray:
    # One LU, solved column by column: getrs on one right-hand side runs
    # BLAS trsv, on a column block trsm, and the two round differently, so a
    # single multi-column solve would move the last bits of U(A) and of the
    # factors.
    fac = _lu_with_pivot_check(as_matrix(mat), tol)
    cols = [as_vector(rhs[:, j], rhs.shape[0]) for j in range(rhs.shape[1])]
    return np.column_stack([lu_solve(fac, b) for b in cols])


def cayley_u(a, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """U(A) = (I+A)^{-1}(I-A); Singular when -1 is an eigenvalue of A."""
    mat = as_matrix(a)
    eye = np.eye(mat.shape[0])
    return _solve_matrix(eye + mat, eye - mat, tol)


def verify_involution(a, tol: Tolerances = DEFAULT_TOL) -> float:
    """Residual of A = U(U(A)): ||U(U(A)) - A||_F / (1 + ||A||_F)."""
    mat = as_matrix(a)
    roundtrip = cayley_u(cayley_u(mat, tol), tol)
    return float(np.linalg.norm(roundtrip - mat) / (1.0 + np.linalg.norm(mat)))


@dataclass(frozen=True)
class IdentityResiduals:
    """Scaled Frobenius residuals of I+U(A) = 2(I+A)^{-1} and
    I-U(A) = 2(I+A^{-1})^{-1}; the minus identity needs A invertible."""

    plus_residual: float
    minus_residual: Optional[float]
    minus_singular: bool


def verify_identities(a, tol: Tolerances = DEFAULT_TOL) -> IdentityResiduals:
    mat = as_matrix(a)
    eye = np.eye(mat.shape[0])
    u = cayley_u(mat, tol)
    rhs_plus = 2.0 * inverse(eye + mat, tol)
    plus = float(
        np.linalg.norm((eye + u) - rhs_plus) / (1.0 + np.linalg.norm(rhs_plus))
    )
    try:
        rhs_minus = 2.0 * inverse(eye + inverse(mat, tol), tol)
    except SingularMatrixError:
        return IdentityResiduals(plus, None, True)
    minus = float(
        np.linalg.norm((eye - u) - rhs_minus) / (1.0 + np.linalg.norm(rhs_minus))
    )
    return IdentityResiduals(plus, minus, False)


@dataclass(frozen=True)
class FactorizationResult:
    u: np.ndarray
    factor_left: np.ndarray
    factor_right: np.ndarray
    residual: float
    left_is_P: str
    right_is_P: str
    u_path_residual: float

    @property
    def accepted(self) -> bool:
        """The factorization holds: relative residual <= 1e-8 and both
        factors certified P."""
        return self.residual <= 1e-8 and self.left_is_P == YES and self.right_is_P == YES


def factor_p(a, tol: Tolerances = DEFAULT_TOL) -> FactorizationResult:
    """Factor a P-matrix as A = [(I+A)/2] [2(I+A)^{-1}A], both factors P.

    The closed forms equal (I+U(A))^{-1} and I-U(A); the U-path is
    recomputed as a cross-check and its deviation reported.
    """
    mat = as_matrix(a)
    verdict, _ = is_P_minors(mat, tol)
    if verdict != YES:
        raise NotAPMatrixError("factorization requires a P-matrix")
    eye = np.eye(mat.shape[0])
    u = cayley_u(mat, tol)
    left = (eye + mat) / 2.0
    right = 2.0 * _solve_matrix(eye + mat, mat, tol)
    residual = float(np.linalg.norm(left @ right - mat) / np.linalg.norm(mat))
    u_left = inverse(eye + u, tol)
    u_right = eye - u
    u_path = float(
        max(
            np.linalg.norm(u_left - left) / (1.0 + np.linalg.norm(left)),
            np.linalg.norm(u_right - right) / (1.0 + np.linalg.norm(right)),
        )
    )
    return FactorizationResult(
        u=u,
        factor_left=left,
        factor_right=right,
        residual=residual,
        left_is_P=is_P_minors(left, tol)[0],
        right_is_P=is_P_minors(right, tol)[0],
        u_path_residual=u_path,
    )


# ---------------------------------------------------------------------------
# positive stability experiments


def hurwitz_positive_stable(m) -> bool:
    """Routh-Hurwitz test that every eigenvalue of m has positive real part.

    det(xI + m) = sum c_k x^(n-k) with c_k the k-th minor sum from the
    Faddeev-LeVerrier recursion; stability of -m (all roots in the open
    left half-plane) is equivalent to positive leading Hurwitz minors.
    Fully independent of the eigensolver route.
    """
    mat = as_matrix(m)
    n = mat.shape[0]
    a = charpoly(mat)  # a_0 = 1, a_k = c_k
    if any(coef <= 0 for coef in a[1:]):
        return False  # positive coefficients are necessary
    h = np.zeros((n, n))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            k = 2 * j - i
            if 0 <= k <= n:
                h[i - 1, j - 1] = a[k]
    for k in range(1, n + 1):
        if np.linalg.det(h[:k, :k]) <= 0:
            return False
    return True


def _validate_positive_diagonal(d, n: int) -> np.ndarray:
    mat = as_matrix(d)
    if mat.shape[0] != n:
        raise ValueError("diagonal factor dimension mismatch")
    if np.any(mat - np.diag(np.diag(mat))):
        raise NonPositiveDiagonalError("factor must be diagonal")
    if not (np.diag(mat) > 0).all():
        raise NonPositiveDiagonalError("diagonal entries must be positive")
    return mat


@dataclass(frozen=True)
class ScaledFactorReport:
    """Observed verdicts for S^{-1}AT = [(I+U(A))S]^{-1} (I-U(A))T plus the
    single-instance probe of the AD positive-stability claim."""

    factor_one: np.ndarray
    factor_two: np.ndarray
    product_residual: float
    factor_one_positive_stable: str
    factor_two_positive_stable: str
    factor_one_is_P: str
    factor_two_is_P: str
    ad_positive_stable: str
    ad_hurwitz_agrees: bool


def scaled_stable_factor(a, s_diag, t_diag, tol: Tolerances = DEFAULT_TOL) -> ScaledFactorReport:
    mat = as_matrix(a)
    n = mat.shape[0]
    verdict, _ = is_P_minors(mat, tol)
    if verdict != YES:
        raise NotAPMatrixError("scaled factorization requires a P-matrix")
    s = _validate_positive_diagonal(s_diag, n)
    t = _validate_positive_diagonal(t_diag, n)
    eye = np.eye(n)
    u = cayley_u(mat, tol)
    f1 = (eye + u) @ s
    f2 = (eye - u) @ t
    combo = _solve_matrix(s, mat, tol) @ t
    recomposed = _solve_matrix(f1, f2, tol)
    resid = float(np.linalg.norm(recomposed - combo) / (1.0 + np.linalg.norm(combo)))
    ad = mat @ t
    ad_stable = is_positive_stable(ad, tol)
    return ScaledFactorReport(
        factor_one=f1,
        factor_two=f2,
        product_residual=resid,
        factor_one_positive_stable=is_positive_stable(f1, tol),
        factor_two_positive_stable=is_positive_stable(f2, tol),
        factor_one_is_P=is_P_minors(f1, tol)[0],
        factor_two_is_P=is_P_minors(f2, tol)[0],
        ad_positive_stable=ad_stable,
        ad_hurwitz_agrees=(hurwitz_positive_stable(ad) == (ad_stable == YES)),
    )


# A P-matrix that is not positive stable (eigenvalues ~ {2.25, -1 +- 2i});
# properties are re-verified wherever it is used, never assumed.
P_NOT_POSITIVE_STABLE = (
    (0.13, 0.08, -2.24),
    (-2.24, 0.03, -0.12),
    (0.02, 2.24, 0.09),
)


@dataclass(frozen=True)
class Sm1CounterExample:
    matrix: tuple[tuple[float, ...], ...]
    diagonal: tuple[float, ...]
    min_real_part: float
    hurwitz_confirms: bool


@dataclass(frozen=True)
class Sm1ProbeReport:
    trials: int
    tested: int
    counterexamples: tuple[Sm1CounterExample, ...]
    all_confirmed: bool


def sm1_probe(trials: int = 1000, seed: int = 0, tol: Tolerances = DEFAULT_TOL) -> Sm1ProbeReport:
    """Probe the claim "A P-matrix times a positive diagonal is positive
    stable" over random (A, D) pairs and log counterexamples.

    Draws mix diagonally dominant P-matrices (where the claim holds by
    Gershgorin) with verified perturbations of a P-matrix whose spectrum
    reaches the left half-plane.  Every counterexample is confirmed by the
    Routh-Hurwitz route before logging; no verdict is asserted on the
    claim itself.
    """
    rng = np.random.default_rng(seed)
    fixture = np.array(P_NOT_POSITIVE_STABLE)
    tested = 0
    log: list[Sm1CounterExample] = []
    for k in range(trials):
        n = SM1_SIZES[k % len(SM1_SIZES)]
        if k % 10 == 3:
            a = fixture + rng.uniform(-0.01, 0.01, (3, 3))
            n = 3
        else:
            a = generate(GenSpec("P-diagdom", n, seed=seed * 100003 + k))
        if is_P_minors(a, tol)[0] != YES:
            continue
        tested += 1
        d = np.exp(rng.uniform(np.log(0.1), np.log(10.0), n))
        ad = a @ np.diag(d)
        spec = eigenvalues(ad, check_residual=False)
        min_re = min(v.real for v in spec.values)
        if min_re <= -1e-8 * (1.0 + float(np.abs(ad).max())):
            log.append(
                Sm1CounterExample(
                    matrix=tuple(tuple(float(x) for x in row) for row in a),
                    diagonal=tuple(float(x) for x in d),
                    min_real_part=float(min_re),
                    hurwitz_confirms=not hurwitz_positive_stable(ad),
                )
            )
    return Sm1ProbeReport(
        trials=trials,
        tested=tested,
        counterexamples=tuple(log),
        all_confirmed=all(c.hurwitz_confirms for c in log),
    )
