"""Shared geometry and J-map fixtures.

Building a 12-dimensional group geometry computes the covariant derivative
nabla R (n^5, about 249k entries at n = 12), so every space is
session-scoped and the tests treat the returned objects as immutable.
"""

import hmlab  # first: it sets one BLAS thread, read only when numpy loads

import numpy as np
import pytest

from hmlab.clifford import build_j_map
from hmlab.geometry import (constant_curvature_geometry, damek_ricci_geometry,
                            geometry_from_algebra, scale_bracket)


@pytest.fixture(scope="session")
def ch2():
    return damek_ricci_geometry(1, 1, 0)


@pytest.fixture(scope="session")
def hh2():
    return damek_ricci_geometry(3, 1, 0)


@pytest.fixture(scope="session")
def hh3():
    return damek_ricci_geometry(3, 2, 0)


@pytest.fixture(scope="session")
def ns12():
    # same dimension and center as hh3 but mixed module signature
    return damek_ricci_geometry(3, 1, 1)


@pytest.fixture(scope="session")
def hh3_jmap():
    """The Clifford data of hh3, which the spectral comparison reads."""
    return build_j_map(3, 2, 0)


@pytest.fixture(scope="session")
def ns12_jmap():
    return build_j_map(3, 1, 1)


@pytest.fixture(scope="session")
def all_spaces(ch2, hh2, hh3, ns12):
    return {"ch2": ch2, "hh2": hh2, "hh3": hh3, "ns12": ns12}


@pytest.fixture(scope="session")
def sphere4():
    return constant_curvature_geometry(4, 1.0)


@pytest.fixture(scope="session")
def sphere6():
    return constant_curvature_geometry(6, 1.0)


@pytest.fixture(params=[(member, factor)
                        for member in [(1, 1, 0), (1, 2, 0), (2, 1, 0),
                                       (3, 1, 1), (3, 2, 1)]
                        for factor in (1.0, 1.1, 0.7)],
                ids=lambda p: "{}:{},{}x{}".format(*p[0], p[1]))
def scaled_member(request):
    """A member, as built or with its bracket (0, n - 1) scaled as
    ``verify --perturb`` does.  That is a module-A bracket, so a scaled
    member's constants break the Jacobi identity and form no Lie algebra.
    Function-scoped, so a 16-dim member's nabla R (8.4 MB) is let go after
    its test; the scaled members are not dyadic, so a change of summation
    order shows in their last bits."""
    member, factor = request.param
    geo = damek_ricci_geometry(*member)
    if factor == 1.0:
        return geo
    return geometry_from_algebra(
        scale_bracket(geo.algebra, 0, geo.dim - 1, factor))


def unit(dim, axis=0):
    u = np.zeros(dim)
    u[axis] = 1.0
    return u


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)
