"""Clifford modules over low-dimensional centers and the J-map calculus.

The center dimensions supported are 1, 2 and 3.  For each one we fix an
irreducible module of integer matrices: dimension 2 for a one-dimensional
center, dimension 4 otherwise.  Matrices are integer numpy arrays so that
everything downstream that wants exact rational arithmetic can have it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidMultiplicity, UnsupportedCenterDimension

# left multiplication by i, j, k on the quaternions in the basis 1, i, j, k
_L_I = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
_L_J = np.array([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]])
_L_K = np.array([[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]])

_GENERATORS = {
    1: [np.array([[0, -1], [1, 0]])],
    2: [_L_I, _L_J],
    3: [_L_I, _L_J, _L_K],
}


@dataclass(frozen=True)
class JMap:
    """The linear map Z -> J_Z on a module of multiplicity (a, b).

    ``generators`` holds J_Z^irr of the irreducible module, one integer
    matrix per center basis direction; ``signs`` holds the per-copy sign (+1
    for the first ``pos`` copies, -1 for the remaining ``neg``); J_Z acts
    blockwise as sign * J_Z^irr.
    """

    center_dim: int
    pos: int
    neg: int
    generators: tuple
    signs: np.ndarray = field(repr=False)

    @property
    def total_dim(self):
        return (self.pos + self.neg) * self.generators[0].shape[0]

    def j_of_center_basis(self, a):
        """J_{Z_a} on the full module, as an integer matrix."""
        return np.kron(np.diag(self.signs), self.generators[a])

    def j_of(self, z):
        """J_Z for an arbitrary center vector ``z`` (floats allowed)."""
        z = np.asarray(z)
        out = sum(z[a] * self.j_of_center_basis(a) for a in range(self.center_dim))
        return out

    def all_j(self):
        return [self.j_of_center_basis(a) for a in range(self.center_dim)]


def build_clifford_module(center_dim):
    """Generators of the fixed irreducible Clifford module for a center of
    dimension 1, 2 or 3, as a tuple of integer matrices (copies).

    The generators anticommute and square to -identity; the module
    dimension is 2 (center_dim 1) or 4 (center_dim 2 or 3).
    """
    if center_dim not in _GENERATORS:
        raise UnsupportedCenterDimension(
            f"center dimension {center_dim} outside supported range {{1, 2, 3}}")
    return tuple(g.copy() for g in _GENERATORS[center_dim])


def build_j_map(center_dim, pos, neg):
    """J-map for multiplicity (pos, neg) copies of the irreducible module.

    The first ``pos`` copies carry the module action, the remaining ``neg``
    carry its negative.
    """
    if pos < 0 or neg < 0 or pos + neg == 0:
        raise InvalidMultiplicity(f"multiplicity ({pos}, {neg}) has no module copies")
    signs = np.array([1] * pos + [-1] * neg, dtype=int)
    return JMap(center_dim=center_dim, pos=pos, neg=neg,
                generators=build_clifford_module(center_dim), signs=signs)


def exchange_endomorphism(jmap):
    """Block-sign involution exchanging the (a+b, 0) and (a, b) actions.

    Returns the matrix sigma = diag(+I, ..., -I, ...) with one block per
    module copy; sigma squares to the identity, commutes with every
    J_Z^{(a+b,0)}, and sigma @ J_Z^{(a+b,0)} equals J_Z^{(a,b)}.
    """
    d = jmap.generators[0].shape[0]
    return np.kron(np.diag(jmap.signs), np.eye(d, dtype=int))
