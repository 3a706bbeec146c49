"""Centralized scale-aware numerical thresholds.

Most verdicts in the package are taken against a threshold derived from
one of the coefficients below, scaled by the magnitude of the data it
judges.  These literal thresholds stay local: in `lcp` 1e-11 (Lemke's
pivot tolerance), 1e-12 (its ratio-test tie band), 1e-8 (the enumeration's
dedupe band) and 1e-6 (`lemke_agrees`); 1e-6 (the residual bound of
`linalg.eigenvalues`); 1e-11 (the witness snap of `classify._gate_witness`);
1e-12 and 1e-9 (`spectral.wedge_check`'s P0 slack and equality band); in
`opsim` 1e-12 (the declared-decay slack and the square-root residual),
1e-10 (the power-iteration bracket), 1e-9 and 1e-6
(`MinMaxResult.bracket_ok`) and 1e-6 (the eigenvector residual of
`eigvec_rev_check`); and 1e-8 in
`cayley.sm1_probe` and `FactorizationResult.accepted`.  The pass/fail
bounds of the suite checks are not verdict thresholds.

`Tolerances` holds the two coefficients a caller can set, each from its
own CLI flag: `sing` (--tol-sing) and `minor` (--tol-minor).  Each must be
positive and finite; a nan, infinite, zero or negative one raises
ValueError.  Reports embed the pair actually used.

Three more coefficients are fixed module constants: CONJ (conjugate-pair
matching and the imaginary residue of a sigma expansion, applied through
`conj_for`), RES (the linear-solve residual of an LCP solution) and COMP
(LCP complementarity).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

_EXP_CAP = 700.0  # exp(700) ~ 1e304, just under float64 overflow

CONJ = 1e-8  # conjugate-pair matching, scaled by 1 + |lambda|
RES = 1e-8   # LCP residual, scaled by ||M|| ||z|| + ||q|| + 1
COMP = 1e-8  # LCP complementarity, scaled by (1 + ||q||_inf)(1 + ||z||_inf)


def _pow_capped(base: float, k: int) -> float:
    """base**k without OverflowError; saturates near float64 max."""
    if base <= 0.0:
        return 0.0
    return math.exp(min(k * math.log(base), _EXP_CAP))


def conj_for(magnitude):
    """The conjugation threshold CONJ * (1 + magnitude); elementwise on arrays."""
    return CONJ * (1.0 + magnitude)


@dataclass(frozen=True)
class Tolerances:
    """Threshold coefficients; the *_for methods apply the documented scaling."""

    sing: float = 1e-12  # pivot magnitude, scaled by ||m||_inf
    minor: float = 1e-10  # k x k minor positivity, scaled by 1 + ||m||_inf^k

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"tolerance {f.name!r} must be positive and finite, got {value!r}")

    def sing_for(self, norm: float) -> float:
        return self.sing * norm

    def minor_for(self, norm: float, k: int) -> float:
        return self.minor * (1.0 + _pow_capped(norm, k))

    def as_dict(self) -> dict:
        return asdict(self)


DEFAULT_TOL = Tolerances()
