"""Generator oracle coverage and determinism."""

import numpy as np
import pytest

from pmkit import classify
from pmkit.classify import NO, YES
from pmkit.errors import DimensionTooLargeError
from pmkit.generators import GenSpec, generate
from pmkit.linalg import MAX_DIM


def test_unknown_tag_rejected():
    with pytest.raises(ValueError):
        GenSpec("bogus", 3, 0)


def test_past_the_dimension_cap_rejected():
    # refused before anything is drawn, with the message of as_matrix
    with pytest.raises(DimensionTooLargeError, match=f"^n=65 exceeds the cap {MAX_DIM}$"):
        GenSpec("arbitrary", MAX_DIM + 1, 0)
    assert generate(GenSpec("arbitrary", MAX_DIM, 0)).shape == (MAX_DIM, MAX_DIM)


def test_determinism():
    a = generate(GenSpec("P-diagdom", 5, seed=42))
    b = generate(GenSpec("P-diagdom", 5, seed=42))
    np.testing.assert_array_equal(a, b)
    c = generate(GenSpec("P-diagdom", 5, seed=43))
    assert not np.array_equal(a, c)


def test_p_diagdom_one_by_one_positive():
    m = generate(GenSpec("P-diagdom", 1, seed=7))
    assert m.shape == (1, 1) and m[0, 0] > 0


@pytest.mark.parametrize("seed", range(40))
def test_p_diagdom_passes_minor_oracle(seed):
    n = 2 + seed % 5
    m = generate(GenSpec("P-diagdom", n, seed=seed))
    assert classify.is_P_minors(m)[0] == YES


@pytest.mark.parametrize("seed", range(25))
def test_m_matrix_oracles(seed):
    n = 2 + seed % 5
    m = generate(GenSpec("M-matrix", n, seed=seed))
    assert classify.is_Z(m) == YES
    assert classify.is_P_via_Z_spectrum(m) == YES
    assert classify.is_P_minors(m)[0] == YES


@pytest.mark.parametrize("seed", range(25))
def test_sym_pd_is_p(seed):
    n = 2 + seed % 5
    m = generate(GenSpec("sym-PD", n, seed=seed))
    np.testing.assert_allclose(m, m.T)
    assert classify.is_P_minors(m)[0] == YES


@pytest.mark.parametrize("seed", range(25))
def test_psd_never_refuted_as_column_sufficient(seed):
    n = 2 + seed % 5
    m = generate(GenSpec("PSD", n, seed=seed))
    verdict, _ = classify.is_column_sufficient(m, budget=300, seed=seed)
    assert verdict != NO


@pytest.mark.parametrize("seed", range(25))
def test_non_p_has_singleton_witness(seed):
    n = 2 + seed % 5
    m = generate(GenSpec("non-P", n, seed=seed))
    verdict, witness = classify.is_P_minors(m)
    assert verdict == NO
    assert len(witness) == 1
    i = witness[0] - 1
    assert m[i, i] < 0


@pytest.mark.parametrize("seed", range(10))
def test_z_tag(seed):
    m = generate(GenSpec("Z", 4, seed=seed))
    assert classify.is_Z(m) == YES


def test_arbitrary_entries_bounded():
    m = generate(GenSpec("arbitrary", 6, seed=3, scale=2.0))
    assert np.abs(m).max() <= 2.0
