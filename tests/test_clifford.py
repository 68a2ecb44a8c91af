"""Clifford module generators and the block J-map."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hmlab.clifford import build_clifford_module, build_j_map
from hmlab.errors import (InvalidMultiplicity, InvalidSampling,
                          UnsupportedCenterDimension)


@pytest.mark.parametrize("l", [1, 2, 3])
def test_generators_anticommute_and_square_to_minus_one(l):
    gens = build_clifford_module(l)
    assert len(gens) == l
    d = gens[0].shape[0]
    for a in range(l):
        ga = gens[a]
        assert np.array_equal(ga @ ga, -np.eye(d, dtype=int))
        for b in range(a + 1, l):
            gb = gens[b]
            assert np.array_equal(ga @ gb + gb @ ga, np.zeros((d, d), dtype=int))


def test_module_dims():
    assert build_clifford_module(1)[0].shape == (2, 2)
    assert build_clifford_module(3)[0].shape == (4, 4)


def test_unsupported_center():
    with pytest.raises(UnsupportedCenterDimension):
        build_clifford_module(4)
    with pytest.raises(UnsupportedCenterDimension):
        build_clifford_module(0)


def test_empty_module_rejected():
    with pytest.raises(InvalidMultiplicity):
        build_j_map(3, 0, 0)
    with pytest.raises(InvalidMultiplicity):
        build_j_map(3, -1, 2)


@pytest.mark.parametrize("z", [(1, 0, 0, 5), (1, 0)])
def test_j_of_refuses_a_center_vector_of_the_wrong_length(z):
    """A fourth entry was dropped silently, and a missing one raised a bare
    IndexError."""
    with pytest.raises(InvalidSampling, match="needs 3 entries"):
        build_j_map(3, 1, 0).j_of(z)


def test_clifford_condition_for_mixed_signature():
    """J_Z^2 = -|Z|^2 id must hold regardless of the block signs."""
    jm = build_j_map(3, 1, 1)
    rng = np.random.default_rng(3)
    for _ in range(5):
        z = rng.standard_normal(3)
        jz = jm.j_of(z)
        assert_allclose(jz @ jz, -(z @ z) * np.eye(jm.total_dim), atol=1e-12)
        assert_allclose(jz + jz.T, 0.0, atol=1e-12)


def test_j_of_center_basis_is_integer_and_orthogonal():
    jm = build_j_map(3, 2, 0)
    for a in range(3):
        j = jm.j_of_center_basis(a)
        assert j.dtype.kind == 'i'
        assert np.array_equal(j @ j.T, np.eye(jm.total_dim, dtype=int))
