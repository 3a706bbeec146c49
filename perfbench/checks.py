"""Checks of pmkit outputs made apart from pmkit.

Each check recomputes what it needs with numpy or with exact rational
arithmetic, or tests a property the method must have by theorem; none
compares against a stored copy of an earlier output.  A failing check
raises CheckFailed.  KnownFault marks the one failure the benchmark keeps
on purpose: `is_P_minors` answering "no" for a positive definite matrix
because its absolute threshold exceeds the true, positive minor.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np

# Relative tolerance for float recomputations (residuals, LCP feasibility).
FLOAT_TOL = 1e-8


class CheckFailed(Exception):
    """An output of pmkit disagrees with the independent computation."""


class KnownFault(CheckFailed):
    """The named is_P_minors threshold fault, diagnosed from the output."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# exact rational helpers


def exact_det(rows) -> Fraction:
    """Determinant by Gaussian elimination over Fraction (exact for floats)."""
    a = [[Fraction(float(v)) for v in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                for k in range(c, n):
                    a[r][k] -= f * a[c][k]
    return det


def exact_minor(m: np.ndarray, idx) -> Fraction:
    """Principal minor over the 1-based index set idx, exactly."""
    sel = [i - 1 for i in idx]
    return exact_det(m[np.ix_(sel, sel)].tolist())


def first_nonpositive_minor(m: np.ndarray, max_k: int):
    """Shortlex-first 1-based index set of size <= max_k whose exact
    principal minor is <= 0, or None."""
    n = m.shape[0]
    for k in range(1, max_k + 1):
        for idx in combinations(range(1, n + 1), k):
            if exact_minor(m, idx) <= 0:
                return idx
    return None


def exact_reversal_products(m: np.ndarray, x) -> list[Fraction]:
    """x_i (m x)_i for every i, over the rationals."""
    xs = [Fraction(float(v)) for v in np.asarray(x, dtype=float).reshape(-1)]
    require(len(xs) == m.shape[0], f"witness has length {len(xs)}, matrix is {m.shape[0]}")
    out = []
    for i, row in enumerate(m.tolist()):
        mx = sum((Fraction(a) * xj for a, xj in zip(row, xs)), Fraction(0))
        out.append(xs[i] * mx)
    return out


def reversal_witness(m: np.ndarray, x, strict: bool) -> None:
    """x != 0 reverses the sign of m: every x_i (m x)_i <= 0; with `strict`
    (a sufficiency witness) at least one product is < 0."""
    require(x is not None, "no witness vector returned")
    prods = exact_reversal_products(m, x)
    require(any(np.asarray(x, dtype=float) != 0.0), "witness vector is zero")
    require(all(p <= 0 for p in prods), "witness has a positive product x_i (Ax)_i")
    if strict:
        require(any(p < 0 for p in prods), "sufficiency witness has no negative product")


# ---------------------------------------------------------------------------
# inputs


def p_by_construction(kind: str, m: np.ndarray) -> None:
    """The input is a P-matrix for a reason pmkit does not compute."""
    n = m.shape[0]
    d = np.diag(m)
    off = m - np.diag(d)
    if kind == "P-diagdom":
        require(bool((d > 0).all() and (d > np.abs(off).sum(axis=1)).all()),
                "P-diagdom input is not strictly diagonally dominant with positive diagonal")
    elif kind == "M-matrix":
        require(bool((off <= 0).all()), "M-matrix input has a positive off-diagonal entry")
        require(bool(np.linalg.eigvals(m).real.min() > 0), "M-matrix input is not positive stable")
    elif kind == "sym-PD":
        require(bool((m == m.T).all()), "sym-PD input is not symmetric")
        try:
            np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            raise CheckFailed("sym-PD input has no Cholesky factor") from None
    elif kind == "triangular":
        require(first_nonpositive_minor(m, n) is None,
                "triangular input has a non-positive exact principal minor")
        sym_min = float(np.linalg.eigvalsh(0.5 * (m + m.T)).min())
        require(sym_min < 0, "triangular input has a positive semidefinite symmetric part")
    else:
        raise ValueError(f"unknown input kind {kind!r}")


def planted_violation(m: np.ndarray, planted: tuple[int, ...]) -> None:
    """The shortlex-first non-positive principal minor is the planted set,
    checked exactly over all minors up to its size."""
    found = first_nonpositive_minor(m, len(planted))
    require(found == planted, f"first non-positive minor is {found}, planted {planted}")
    require(exact_minor(m, planted) < 0, "planted minor is not negative")


# ---------------------------------------------------------------------------
# certify-p outputs


def _fault_or_fail(m: np.ndarray, witness, tol_minor: float, what: str) -> None:
    """A "no" on a certified P input: KnownFault when the reported minor is
    positive yet below the absolute threshold 1e-10 (1 + ||m||^k)."""
    if witness is not None:
        minor = exact_minor(m, witness)
        norm = float(np.abs(m).sum(axis=1).max())
        threshold = tol_minor * (1.0 + norm ** len(witness))
        if 0 < minor <= threshold:
            raise KnownFault(
                f"{what}: minor {tuple(witness)} = {float(minor):.3g} is positive but "
                f"below the threshold {threshold:.3g}"
            )
    raise CheckFailed(f"{what} refuted a P-matrix (witness {witness})")


def certified_report(kind: str, m: np.ndarray, rpt) -> None:
    """classify_matrix on a P-matrix: P and P0 "yes"; P is column and row
    sufficient, so neither may be "no"; Z and M agree with the entries."""
    v = rpt.verdicts
    if v.get("P") != "yes":
        _fault_or_fail(m, rpt.witnesses.get("P"), rpt.tolerances_used["minor"],
                       f"classify_matrix P={v.get('P')}")
    require(v.get("P0") == "yes", f"classify_matrix P0={v.get('P0')} on a P-matrix")
    for key in ("column-sufficient", "row-sufficient", "sufficient"):
        require(v.get(key) != "no", f"classify_matrix refuted {key} of a P-matrix")
    off = m - np.diag(np.diag(m))
    z = "yes" if (off <= 0).all() else "no"
    require(v.get("Z") == z, f"classify_matrix Z={v.get('Z')}, entries say {z}")
    if kind == "M-matrix":
        require(v.get("M") == "yes", f"classify_matrix M={v.get('M')} on an M-matrix")


def factorization(m: np.ndarray, res) -> None:
    """A = L R with both factors P (the factorization theorem)."""
    left, right = np.asarray(res.factor_left), np.asarray(res.factor_right)
    residual = float(np.linalg.norm(left @ right - m) / np.linalg.norm(m))
    require(residual <= FLOAT_TOL, f"factor residual {residual:.3g}")
    require(res.left_is_P == "yes" and res.right_is_P == "yes",
            f"factor verdicts {res.left_is_P}/{res.right_is_P} on a P-matrix")


def census(rpt, trials: int) -> None:
    """P implies a unique LCP solution for every q, and Lemke finds it."""
    require(rpt.trials == trials, f"census ran {rpt.trials} of {trials} trials")
    require(rpt.verdict == "consistent-with-P", f"census verdict {rpt.verdict}")
    require(rpt.count_one == trials, f"census found {rpt.count_one} unique of {trials}")
    require(rpt.lemke_mismatches == 0 and rpt.lemke_rays == 0,
            f"census lemke mismatches {rpt.lemke_mismatches}, rays {rpt.lemke_rays}")


def lcp_solution(m: np.ndarray, q: np.ndarray, sol) -> None:
    """z >= 0, w = Mz + q >= 0 and z.w = 0, recomputed from z alone."""
    require(sol is not None, "lemke_solve returned no solution on a P-matrix")
    z = np.asarray(sol.z, dtype=float)
    w = m @ z + q
    scale = 1.0 + np.abs(q).max() + np.abs(m).sum(axis=1).max() * np.abs(z).max()
    require(bool(z.min() >= -FLOAT_TOL * scale), "lemke z has a negative entry")
    require(bool(w.min() >= -FLOAT_TOL * scale), "lemke w = Mz + q has a negative entry")
    require(abs(float(z @ w)) <= FLOAT_TOL * scale * (1.0 + np.abs(z).max()),
            "lemke z.w is not zero")
    require(bool(np.abs(np.asarray(sol.w) - w).max() <= FLOAT_TOL * scale),
            "lemke w disagrees with Mz + q")


# ---------------------------------------------------------------------------
# refute-nonp outputs


def minors_refutation(planted: tuple[int, ...], result) -> None:
    verdict, witness = result
    require(verdict == "no" and tuple(witness or ()) == planted,
            f"is_P_minors gave {verdict} {witness}, planted {planted}")


def refuting_report(m: np.ndarray, planted: tuple[int, ...], rpt) -> None:
    """classify_matrix on a planted non-P matrix: P "no" with the planted
    set (n <= 12) or an exactly valid reversal vector (n > 12); the planted
    violation also refutes column and row sufficiency, by an axis vector,
    so both must be "no" with exactly valid strict witnesses."""
    v, w = rpt.verdicts, rpt.witnesses
    require(v.get("P") == "no", f"classify_matrix P={v.get('P')} on a non-P matrix")
    if m.shape[0] <= 12:
        require(tuple(w.get("P") or ()) == planted,
                f"classify_matrix P witness {w.get('P')}, planted {planted}")
        require(v.get("P0") == "no", f"classify_matrix P0={v.get('P0')} with a negative minor")
    else:
        reversal_witness(m, w.get("P"), strict=False)
    require(v.get("column-sufficient") == "no", f"column-sufficient={v.get('column-sufficient')}")
    reversal_witness(m, w.get("column-sufficient"), strict=True)
    require(v.get("row-sufficient") == "no", f"row-sufficient={v.get('row-sufficient')}")
    reversal_witness(m.T, w.get("row-sufficient"), strict=True)


# ---------------------------------------------------------------------------
# suite-all outputs


def suite_report(name: str, report) -> None:
    """The suite ran checks and none found a contradiction."""
    require(report.name == name, f"suite {report.name} returned for {name}")
    require(len(report.checks) > 0, f"suite {name} ran no checks")
    failed = [c.name for c in report.checks if not c.passed]
    require(not failed and report.contradictions == 0, f"suite {name} contradictions: {failed}")
