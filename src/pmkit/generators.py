"""Seeded random generators for each matrix class.

Every generated matrix is validated against its class oracle before
release; the P generator certifies membership structurally (strict
diagonal dominance with positive diagonal) so the property suites that
test the minor oracle do not depend on it for their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooLargeError, ValidationFailedError
from .linalg import MAX_DIM, inf_norm

CLASS_TAGS = ("P-diagdom", "M-matrix", "sym-PD", "Z", "PSD", "non-P", "arbitrary")


@dataclass(frozen=True)
class GenSpec:
    class_tag: str
    n: int
    seed: int
    scale: float = 1.0

    def __post_init__(self):
        if self.class_tag not in CLASS_TAGS:
            raise ValueError(f"unknown class tag {self.class_tag!r}; known: {CLASS_TAGS}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.n > MAX_DIM:
            raise DimensionTooLargeError(f"n={self.n} exceeds the cap {MAX_DIM}")
        if not self.scale > 0:
            raise ValueError("scale must be positive")


def _diagdom(rng: np.random.Generator, n: int, scale: float) -> np.ndarray:
    m = rng.uniform(-1.0, 1.0, (n, n)) * scale
    off = np.abs(m).sum(axis=1) - np.abs(np.diag(m))
    np.fill_diagonal(m, off + rng.uniform(0.1, 1.0, n) * scale)
    return m


def _strictly_diagdom_positive(m: np.ndarray) -> bool:
    d = np.diag(m)
    off = np.abs(m).sum(axis=1) - np.abs(d)
    return bool((d > 0).all() and (d > off).all())


def generate(g: GenSpec) -> np.ndarray:
    """Draw one matrix for the spec; deterministic in the spec."""
    rng = np.random.default_rng(g.seed)
    n, scale = g.n, g.scale

    if g.class_tag == "P-diagdom":
        m = _diagdom(rng, n, scale)
        if not _strictly_diagdom_positive(m):
            raise ValidationFailedError("diagonal dominance lost")
        return m

    if g.class_tag == "M-matrix":
        b = rng.uniform(0.0, 1.0, (n, n)) * scale
        rho = float(np.abs(np.linalg.eigvals(b)).max())
        m = (rho + rng.uniform(0.5, 2.0) * scale) * np.eye(n) - b
        ev = np.linalg.eigvals(m)
        off = m - np.diag(np.diag(m))
        if not ((off <= 0).all() and ev.real.min() > 0):
            raise ValidationFailedError("M-matrix oracle failed")
        return m

    if g.class_tag == "sym-PD":
        gmat = rng.standard_normal((n, n)) * scale
        m = gmat.T @ gmat + rng.uniform(0.1, 1.0) * scale**2 * np.eye(n)
        if np.linalg.eigvalsh(m).min() <= 0:
            raise ValidationFailedError("sym-PD oracle failed")
        return m

    if g.class_tag == "Z":
        m = -rng.uniform(0.0, 1.0, (n, n)) * scale
        np.fill_diagonal(m, rng.uniform(-0.5, 2.5, n) * scale)
        return m

    if g.class_tag == "PSD":
        k = int(rng.integers(1, n + 1))
        gmat = rng.standard_normal((k, n)) * scale
        m = gmat.T @ gmat
        if np.linalg.eigvalsh(m).min() < -1e-10 * max(1.0, inf_norm(m)):
            raise ValidationFailedError("PSD oracle failed")
        return m

    if g.class_tag == "non-P":
        m = _diagdom(rng, n, scale)
        i = int(rng.integers(0, n))
        m[i, i] = -abs(m[i, i])
        if not m[i, i] < 0:
            raise ValidationFailedError("negated diagonal entry must be negative")
        return m

    # arbitrary
    return rng.uniform(-1.0, 1.0, (n, n)) * scale
