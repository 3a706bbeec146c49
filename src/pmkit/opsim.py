"""Finite-section laboratory for rule-defined Hilbert-space operators.

Operators are given by coefficient rules relative to a fixed orthonormal
basis; every claim is tested on N x N leading sections only (ladders of
orders), never on limits.  Covers: P-operator section checks, real
eigenvalue positivity, the diagonal square root, the Collatz-Wielandt
min-max identity for positive sections, nonsingularity of diagonal
interpolations DT + (I-D)S under the P precondition, the kernel
characterization of column sufficiency, and sign-reversal-set membership.
Each check builds each section it judges once and judges that array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence

import numpy as np

from . import feasibility
from .classify import (
    MINORS_MAX_DIM,
    NO,
    YES,
    is_column_sufficient,
    is_P_minors,
)
from .errors import (
    DimensionTooLargeError,
    FloatRangeError,
    NoConvergenceError,
    NonDiagonalSpecError,
    NonPositiveEigenvalueError,
    NonPositiveSectionError,
    PreconditionNotEstablishedError,
    PreconditionViolatedError,
    RuleUndefinedError,
    SingularMatrixError,
)
from .linalg import as_matrix, as_vector, eigenvalues, inf_norm, inverse, lu_factor_checked
from .tolerances import DEFAULT_TOL, Tolerances, conj_for

SECTION_MAX_ORDER = 64
KINDS = ("diagonal", "banded", "dense-rule")
RULES = ("inverse-square-diagonal", "tridiag", "matrix-literal")
DECAY_SAMPLE_INDICES = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


@dataclass(frozen=True)
class OperatorSpec:
    kind: str
    rule: str
    params: Mapping[str, Any]
    decay: bool = False

    def entry(self, i: int, j: int) -> float:
        """Coefficient <T e_j, e_i> for 1-based indices."""
        if i < 1 or j < 1:
            raise RuleUndefinedError("indices are 1-based")
        if self.rule == "inverse-square-diagonal":
            c = float(self.params.get("c", 1.0))
            return c / (i * i) if i == j else 0.0
        if self.rule == "tridiag":
            if i == j:
                return float(self.params["a"])
            if abs(i - j) == 1:
                return float(self.params["b"])
            return 0.0
        if self.rule == "matrix-literal":
            rows = self.params["matrix"]
            k = len(rows)
            if i <= k and j <= k:
                return float(rows[i - 1][j - 1])
            return 1.0 if i == j else 0.0
        raise RuleUndefinedError(f"unknown rule {self.rule!r}")


def make_spec(kind: str, rule: str, params: Optional[Mapping[str, Any]] = None, decay: bool = False) -> OperatorSpec:
    """Validated constructor: rule totality and the declared decay are
    checked on sampled indices."""
    params = dict(params or {})
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    if rule not in RULES:
        raise RuleUndefinedError(f"unknown rule {rule!r}; known: {RULES}")
    if rule == "tridiag" and not {"a", "b"} <= params.keys():
        raise RuleUndefinedError("tridiag rule needs params 'a' and 'b'")
    if rule == "matrix-literal":
        rows = params.get("matrix")
        if rows is None or any(len(r) != len(rows) for r in rows):
            raise RuleUndefinedError("matrix-literal rule needs a square 'matrix' param")
    spec = OperatorSpec(kind, rule, params, decay)
    if kind == "diagonal":
        for i, j in ((1, 2), (2, 1), (3, 5), (7, 2)):
            if spec.entry(i, j) != 0.0:
                raise NonDiagonalSpecError("kind 'diagonal' but the rule has off-diagonal mass")
    if decay:
        diag = [abs(spec.entry(i, i)) for i in DECAY_SAMPLE_INDICES]
        slack = 1e-12 * (1.0 + diag[0])
        if any(b > a + slack for a, b in zip(diag, diag[1:])):
            raise ValueError("declared decay, but |entries| increase on sampled indices")
    return spec


def spec_to_obj(spec: OperatorSpec) -> dict:
    return {
        "kind": spec.kind,
        "rule": {"name": spec.rule, "params": dict(spec.params)},
        "decay": bool(spec.decay),
    }


def spec_from_obj(obj: dict) -> OperatorSpec:
    if not isinstance(obj, dict) or "kind" not in obj or "rule" not in obj:
        raise ValueError("operator spec object needs keys 'kind' and 'rule'")
    rule = obj["rule"]
    return make_spec(obj["kind"], rule["name"], rule.get("params", {}), bool(obj.get("decay", False)))


def section(spec: OperatorSpec, n: int) -> np.ndarray:
    """The leading n x n block <T e_j, e_i> (1 <= n <= 64), a float array."""
    if not 1 <= n <= SECTION_MAX_ORDER:
        raise DimensionTooLargeError(f"section order must be in 1..{SECTION_MAX_ORDER}")
    mat = np.array([[spec.entry(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)])
    if spec.kind == "diagonal" and np.any(mat - np.diag(np.diag(mat))):
        raise NonDiagonalSpecError("diagonal spec produced an off-diagonal entry")
    return mat


def _section_is_P(sec: np.ndarray, tol: Tolerances) -> str:
    """`is_P_minors` verdict on the section, its rows scaled to unit max-entry.

    Positive diagonal row scaling multiplies every principal minor by a
    positive factor and each sign-reversal product by a positive factor,
    so the P predicate is exactly preserved while the minors of compact
    sections (which decay like products of the eigenvalue tail) come back
    into threshold range.
    """
    scale = np.abs(sec).max(axis=1)
    scale = np.where(scale > 0.0, scale, 1.0)
    return is_P_minors(sec / scale[:, None], tol)[0]


def is_P_operator_section(spec: OperatorSpec, n: int, tol: Tolerances = DEFAULT_TOL) -> str:
    """Sign non-reversal P-test on the section (minor enumeration, n <= MINORS_MAX_DIM).

    The section is row-equilibrated first; see _section_is_P.
    """
    return _section_is_P(section(spec, n), tol)


# ---------------------------------------------------------------------------
# eigenvalue positivity ladder


@dataclass(frozen=True)
class EigenPositivityEntry:
    order: int
    real_eigenvalues: tuple[float, ...]
    all_real_positive: bool
    section_is_P: Optional[str]
    contradiction: bool


@dataclass(frozen=True)
class EigenPositivityReport:
    entries: tuple[EigenPositivityEntry, ...]
    violations: int


def eigen_positivity_check(
    spec: OperatorSpec, orders: Sequence[int], tol: Tolerances = DEFAULT_TOL
) -> EigenPositivityReport:
    """Real eigenvalues of each section with a positivity verdict; a
    non-positive real eigenvalue on a P section is a contradiction.  Each
    order builds its section once, and up to MINORS_MAX_DIM the same array
    gets the P verdict of `is_P_operator_section`."""
    entries = []
    for n in map(int, orders):
        sec = section(spec, n)
        reals = eigenvalues(sec, check_residual=False).real_values()
        thr = tol.minor_for(inf_norm(sec), 1)
        ok = all(v > thr for v in reals)
        p_verdict = _section_is_P(sec, tol) if n <= MINORS_MAX_DIM else None
        entries.append(EigenPositivityEntry(n, reals, ok, p_verdict, (not ok) and p_verdict == YES))
    return EigenPositivityReport(tuple(entries), sum(e.contradiction for e in entries))


# ---------------------------------------------------------------------------
# diagonal square root


def operator_sqrt(spec: OperatorSpec, n: int) -> np.ndarray:
    """Section of R = diag(sqrt(lambda_i)) for a positive diagonal compact
    spec; raises NoConvergenceError when ||R_N^2 - T_N||_inf exceeds
    1e-12 (1 + ||T_N||_inf)."""
    if spec.kind != "diagonal":
        raise NonDiagonalSpecError("square root requires a diagonal spec")
    if not spec.decay:
        raise PreconditionViolatedError("square root requires the decay tag (compactness surrogate)")
    sec = section(spec, n)
    lam = np.diag(sec)
    if not (lam > 0).all():
        raise NonPositiveEigenvalueError("diagonal coefficients must be positive")
    root = np.diag(np.sqrt(lam))
    resid = inf_norm(root @ root - sec)
    if resid > 1e-12 * (1.0 + inf_norm(sec)):
        raise NoConvergenceError(f"square-root residual {resid:.3e} unexpectedly large")
    return root


# ---------------------------------------------------------------------------
# Collatz-Wielandt min-max identity


@dataclass(frozen=True)
class MinMaxResult:
    inf_sup: float
    sup_inf: float
    rho: float
    iterations: int
    perron: tuple[float, ...]

    @property
    def bracket_ok(self) -> bool:
        """Both Collatz-Wielandt estimates bracket rho (slack 1e-9) and lie
        within 1e-6 of it."""
        return (
            self.sup_inf <= self.rho + 1e-9
            and self.inf_sup >= self.rho - 1e-9
            and abs(self.inf_sup - self.rho) <= 1e-6
            and abs(self.sup_inf - self.rho) <= 1e-6
        )


def minmax_rho(
    spec: OperatorSpec,
    n: int,
    samples: int = 64,
    seed: int = 0,
) -> MinMaxResult:
    """Perron root of an entrywise positive section via power iteration,
    bracketed by Collatz-Wielandt ratios over sampled positive vectors.

    Every positive x gives min_i (Tx)_i/x_i <= rho <= max_i (Tx)_i/x_i;
    with the Perron vector in the sample set both estimates collapse onto
    rho.  The Perron vector is the first of `samples` >= 1 vectors, and
    each ratio is folded into the running bracket as it is drawn.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1: the Perron vector is always one")
    mat = section(spec, n)
    if not (mat > 0).all():
        raise NonPositiveSectionError("min-max identity requires an entrywise positive section")

    v = np.ones(n) / n
    rho = None
    iterations = 0
    for iterations in range(1, 200_000 + 1):
        w = mat @ v
        ratios = w / v
        lo, hi = float(ratios.min()), float(ratios.max())
        if hi - lo <= 1e-10 * max(1.0, hi):
            rho = 0.5 * (lo + hi)
            v = w / w.sum()
            break
        v = w / w.sum()
    if rho is None:
        raise NoConvergenceError("power iteration did not reach the 1e-10 bracket")

    rng = np.random.default_rng(seed)
    r = (mat @ v) / v
    inf_sup, sup_inf = float(r.max()), float(r.min())
    for _ in range(samples - 1):
        x = np.exp(rng.uniform(np.log(0.1), np.log(10.0), n))
        r = (mat @ x) / x
        inf_sup = min(inf_sup, float(r.max()))
        sup_inf = max(sup_inf, float(r.min()))
    return MinMaxResult(
        inf_sup=inf_sup,
        sup_inf=sup_inf,
        rho=float(rho),
        iterations=iterations,
        perron=tuple(float(x) for x in v),
    )


# ---------------------------------------------------------------------------
# diagonal interpolation nonsingularity


@dataclass(frozen=True)
class InterpReport:
    case1_established: bool
    case2_established: bool
    trials_case1: int
    trials_case2: int
    violations: tuple[tuple[str, tuple[float, ...], float], ...]
    min_abs_det: float


def _d_samples(rng: np.random.Generator, n: int, trials: int):
    yield np.zeros(n)
    yield np.ones(n)
    produced = 2
    while produced < trials:
        mode = produced % 3
        if mode == 0:
            yield rng.uniform(0.0, 1.0, n)
        elif mode == 1:
            yield rng.integers(0, 2, n).astype(float)
        else:
            yield rng.uniform(0.0, 1.0, n) ** 2
        produced += 1


def _abs_det(lu: np.ndarray) -> float:
    """|det| from LU factors as numpy's det takes it from its own: exp of
    the log|u_ii| summed in order, by libm's log and exp, so it is 0 at an
    exact zero pivot and underflows and overflows where np.linalg.det does."""
    log_det = 0.0
    for u in np.abs(lu.diagonal()).tolist():
        log_det += math.log(u) if u else -math.inf
    try:
        return math.exp(log_det)
    except OverflowError:
        return math.inf


def diag_interp_check(
    spec_s: OperatorSpec,
    spec_t: OperatorSpec,
    n: int,
    trials: int = 100,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
) -> InterpReport:
    """Nonsingularity of D T_N + (I-D) S_N (case 1, precondition: S T^{-1}
    is P) and T_N D + S_N (I-D) (case 2, precondition: S^{-1} T is P) for
    diagonal D with entries in [0, 1], corners included.  Each combination
    is factored once, by `lu_factor_checked`: it is singular when an LU
    pivot is <= tol.sing_for(||combo||_inf), the rule of `solve`.  |det|,
    which scales like c^N, is reported but not judged; `_abs_det` takes it
    from the same LU.  The corners D = 0 and D = I are always drawn, so
    `trials` < 2 raises ValueError."""
    if trials < 2:
        raise ValueError("trials must be >= 2: the corners D = 0 and D = I are always drawn")
    s_mat = section(spec_s, n)
    t_mat = section(spec_t, n)

    def _inv_or_none(mat):
        try:  # both preconditions are minor tests: past their cap neither holds
            return inverse(mat, tol) if n <= MINORS_MAX_DIM else None
        except SingularMatrixError:
            return None

    t_inv = _inv_or_none(t_mat)
    s_inv = _inv_or_none(s_mat)
    case1 = t_inv is not None and is_P_minors(s_mat @ t_inv, tol)[0] == YES
    case2 = s_inv is not None and is_P_minors(s_inv @ t_mat, tol)[0] == YES
    if not case1 and not case2:
        raise PreconditionNotEstablishedError(
            "neither S T^{-1} nor S^{-1} T certified as a P-matrix"
        )

    eye = np.eye(n)
    combos = [(case, combine) for case, established, combine in (
        ("case1", case1, lambda d: d @ t_mat + (eye - d) @ s_mat),
        ("case2", case2, lambda d: t_mat @ d + s_mat @ (eye - d))) if established]
    violations = []
    samples = 0
    min_det = math.inf
    for samples, dvals in enumerate(_d_samples(np.random.default_rng(seed), n, trials), 1):
        d = np.diag(dvals)
        for case, combine in combos:
            combo = combine(d)
            lu, _, ok = lu_factor_checked(combo, tol.sing_for(inf_norm(combo)))
            val = _abs_det(lu)
            min_det = min(min_det, val)
            if not ok:
                violations.append((case, tuple(float(x) for x in dvals), val))
    return InterpReport(case1, case2, samples * case1, samples * case2, tuple(violations), min_det)


# ---------------------------------------------------------------------------
# column sufficiency via singular perturbed sections


@dataclass(frozen=True)
class KernelRefutation:
    alpha: tuple[int, ...]
    d_values: tuple[float, ...]
    kernel_vector: tuple[float, ...]
    full_witness: tuple[float, ...]


@dataclass(frozen=True)
class KernelSearchReport:
    refuted: bool
    refutations: tuple[KernelRefutation, ...]
    classifier_verdict: str
    consistent: bool


def _kernel_refutation(mat: np.ndarray, x: np.ndarray) -> Optional[KernelRefutation]:
    """The singular perturbed section that a reversal witness x carries.

    With alpha = supp(x) and d_i = -x_i (Tx)_i / x_i^2 on alpha,
    (T_alpha,alpha + D) x_alpha = 0 exactly.  None unless D >= 0 and
    D != 0 hold exactly, on the p_i of x_i (Tx)_i = p_i / den; with x = X / b,
    each d_values entry is the correctly rounded quotient of ints -p_i b^2 / (den X_i^2).
    Raises FloatRangeError when one of them is past the float64 range.
    """
    prods, den = feasibility.exact_products(mat, x)
    xs, b = feasibility._dyadic(x)
    alpha = [i for i, v in enumerate(xs) if v]
    if max(prods) > 0 or not any(prods):  # p_i = 0 off alpha
        return None
    try:
        d_values = tuple(-prods[i] * b * b / (den * xs[i] * xs[i]) for i in alpha)
    except OverflowError:
        raise FloatRangeError("a kernel refutation's d_i = -x_i (Tx)_i / x_i^2 is past the float64 range") from None
    return KernelRefutation(
        alpha=tuple(i + 1 for i in alpha),
        d_values=d_values,
        kernel_vector=tuple(float(x[i]) for i in alpha),
        full_witness=tuple(float(v) for v in x),
    )


def csufficient_kernel_search(
    spec: OperatorSpec,
    n: int,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
) -> KernelSearchReport:
    """Column sufficiency of the section through its kernel
    characterization: T is not column sufficient iff some T_alpha,alpha + D,
    D >= 0 diagonal and D != 0, is singular with a kernel vector that has
    no zero coordinate.  The refutation is built from the classifier's
    strict reversal witness x (`full_witness`): alpha = supp(x),
    d_i = -x_i (Tx)_i / x_i^2 and kernel vector x_alpha, and it counts only
    when D >= 0 and D != 0 hold exactly.  A classifier "no" gives one
    refutation; `consistent` is false only when its witness fails that
    exact check.
    """
    if n > 8:
        raise DimensionTooLargeError("kernel search capped at n=8")
    mat = section(spec, n)
    verdict, x = is_column_sufficient(mat, budget=2000, seed=seed, tol=tol)
    refutation = _kernel_refutation(mat, x) if verdict == NO else None
    refuted = refutation is not None
    return KernelSearchReport(refuted, (refutation,) if refuted else (), verdict, refuted or verdict != NO)


# ---------------------------------------------------------------------------
# sign-reversal set membership


@dataclass(frozen=True)
class RevQuery:
    products: tuple[float, ...]
    in_rev: bool


def _rev_query(sec: np.ndarray, v: np.ndarray, thr: float) -> RevQuery:
    """The products v_i (sec v)_i, and whether all are at most
    thr * ||v||_inf^2."""
    prods = v * (sec @ v)
    return RevQuery(tuple(float(p) for p in prods), bool((prods <= thr * float(np.abs(v).max()) ** 2).all()))


def rev_membership(spec: OperatorSpec, n: int, x, tol: Tolerances = DEFAULT_TOL) -> RevQuery:
    """Membership of x in the sign-reversal set of the section: all
    products <x, e_i><T_N x, e_i> at most tol.minor_for(||T_N||_inf, 1) *
    ||x||_inf^2, which scales like them: x and 2^k x get the same verdict.
    x = 0 is the degenerate member (all products exactly zero)."""
    sec = section(spec, n)
    v = as_vector(x, n)
    return _rev_query(as_matrix(sec), v, tol.minor_for(inf_norm(sec), 1))


@dataclass(frozen=True)
class EigvecRevEntry:
    eigenvalue: float
    in_rev: bool


@dataclass(frozen=True)
class EigvecRevReport:
    precondition: str
    skipped: bool
    entries: tuple[EigvecRevEntry, ...]
    violations: int


def eigvec_rev_check(
    spec: OperatorSpec, n: int, seed: int = 0, tol: Tolerances = DEFAULT_TOL
) -> EigvecRevReport:
    """For a column-sufficient section, no eigenvector of a nonzero real
    eigenvalue may reverse signs; any that does is a contradiction.

    Skipped when the classifier refutes column sufficiency; an "unknown"
    classifier verdict (n > 3) is logged and the check still runs.  Each
    eigenvector is judged as by `rev_membership`, on the one section.
    """
    sec = section(spec, n)
    verdict, _ = is_column_sufficient(sec, budget=2000, seed=seed, tol=tol)
    if verdict == NO:
        return EigvecRevReport(verdict, True, (), 0)
    vals, vecs = np.linalg.eig(sec)
    thr_lam = tol.minor_for(inf_norm(sec), 1)
    entries = []
    for idx in range(len(vals)):
        lam = vals[idx]
        if abs(lam.imag) > conj_for(abs(lam)) or abs(lam.real) <= thr_lam:
            continue
        v = np.real(vecs[:, idx])
        norm = np.abs(v).max()
        if norm == 0.0:
            continue
        v = v / norm
        resid = inf_norm(sec @ v - lam.real * v)
        if resid > 1e-6 * (1.0 + abs(lam.real)):
            continue  # realified vector is not actually an eigenvector
        entries.append(EigvecRevEntry(float(lam.real), _rev_query(sec, v, thr_lam).in_rev))
    return EigvecRevReport(verdict, False, tuple(entries), sum(e.in_rev for e in entries))
