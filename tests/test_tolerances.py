"""Threshold coefficients: every one must be positive and finite."""

import math
from dataclasses import fields, replace

import pytest

from pmkit.tolerances import DEFAULT_TOL, Tolerances

NAMES = [f.name for f in fields(Tolerances)]


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_invalid_coefficient_rejected(name, value):
    with pytest.raises(ValueError, match=name):
        Tolerances(**{name: value})
    with pytest.raises(ValueError, match=name):
        replace(DEFAULT_TOL, **{name: value})
