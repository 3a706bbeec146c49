"""Centralized scale-aware numerical thresholds.

Every verdict in the package is taken against a threshold derived from one
of the coefficients below, scaled by the magnitude of the data it judges.
Every coefficient must be positive and finite; a nan, infinite, zero or
negative one raises ValueError.  Reports embed the coefficient set
actually used.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

_EXP_CAP = 700.0  # exp(700) ~ 1e304, just under float64 overflow


def _pow_capped(base: float, k: int) -> float:
    """base**k without OverflowError; saturates near float64 max."""
    if base <= 0.0:
        return 0.0
    return math.exp(min(k * math.log(base), _EXP_CAP))


@dataclass(frozen=True)
class Tolerances:
    """Threshold coefficients; the *_for methods apply the documented scaling."""

    sing: float = 1e-12  # pivot magnitude, scaled by ||m||_inf
    conj: float = 1e-8   # conjugate-pair matching, scaled by 1 + |lambda|
    minor: float = 1e-10  # k x k minor positivity, scaled by 1 + ||m||_inf^k
    res: float = 1e-8    # linear-solve residual coefficient
    comp: float = 1e-8   # LCP complementarity, scaled by 1 + ||q||_inf
    zero: float = 1e-9   # read by no verdict; kept because reports embed the set

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"tolerance {f.name!r} must be positive and finite, got {value!r}")

    def sing_for(self, norm: float) -> float:
        return self.sing * norm

    def conj_for(self, magnitude: float) -> float:
        return self.conj * (1.0 + magnitude)

    def minor_for(self, norm: float, k: int) -> float:
        return self.minor * (1.0 + _pow_capped(norm, k))

    def comp_for(self, q_norm: float) -> float:
        return self.comp * (1.0 + q_norm)

    def as_dict(self) -> dict:
        return asdict(self)


DEFAULT_TOL = Tolerances()
