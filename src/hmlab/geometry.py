"""Left-invariant metric geometry from structure constants.

Everything lives in a fixed orthonormal frame.  Structure constants
``c[i, j, m]`` give the e_m-component of [e_i, e_j]; the connection
``gamma[i, j, m]`` gives the e_m-component of the covariant derivative of
e_j along e_i.  Curvature sign convention: the Jacobi operator of a unit
sphere is the (nonnegative) projection orthogonal to the direction, so
solvable Damek-Ricci groups get negative Ricci.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clifford import build_j_map
from .errors import (InvalidSampling, NonFiniteGeometry, NotHType,
                     OrderUnsupported, OutsideDomain, checked_integer,
                     checked_real)

# Directions per jet contraction block.  From order 2 up a block holds nabla R
# with two or three direction pairs folded in, (m, 3, n^3) at most, ~1.3 MB
# at m = 32 and n = 12, and one transposed n^5 copy of nabla R.
JET_BLOCK = 32


@dataclass
class DirectionalCurvatureJet:
    """Taylor matrices of the Jacobi operator along the geodesics from ``u``.

    ``matrices[k]`` is the k-th derivative (not divided by k!) of the
    operator in a parallel frame at arc length zero: (n, n) for one
    direction of shape (n,), (m, n, n) for a batch of shape (m, n).
    """

    matrices: list

    @property
    def order(self):
        return len(self.matrices) - 1

    def taylor_coefficient(self, k):
        """Matrix coefficient of r**k in the operator's Taylor series."""
        out = self.matrices[k].copy()
        for j in range(2, k + 1):
            out /= j
        return out


def clifford_defect(j_list):
    """Largest violation of J_a J_b + J_b J_a = -2 delta_ab id."""
    worst = 0.0
    dim = j_list[0].shape[0]
    eye = np.eye(dim)
    for a, ja in enumerate(j_list):
        for b, jb in enumerate(j_list):
            target = -2.0 * eye if a == b else 0.0 * eye
            worst = max(worst, float(np.max(np.abs(ja @ jb + jb @ ja - target))))
    return worst


def build_htype_algebra(jmap):
    """Two-step nilpotent algebra of Heisenberg type from a J-map.

    Returns the structure constants ``c``.  Basis order: the ``k`` module
    directions, then the ``l`` center directions.  Raises :class:`NotHType`
    when the J-matrices fail the Clifford relations.
    """
    j_list = jmap.all_j()
    if clifford_defect(j_list) > 1e-12:
        raise NotHType("J-matrices do not satisfy the Clifford relations")
    k = jmap.total_dim
    l = jmap.center_dim
    n = k + l
    c = np.zeros((n, n, n))
    for a, ja in enumerate(j_list):
        # <[X_i, X_j], Z_a> = <J_a X_i, X_j> = (J_a)[j, i]
        c[:k, :k, k + a] = ja.T
    return c


def build_damek_ricci(jmap):
    """Solvable rank-one extension of the H-type algebra of ``jmap``.

    Returns the structure constants.  Adds a unit generator A (last basis
    slot) with [A, X] = X/2 on the module part and [A, Z] = Z on the center.
    """
    nil = build_htype_algebra(jmap)
    k = jmap.total_dim
    l = jmap.center_dim
    n = k + l + 1
    c = np.zeros((n, n, n))
    c[:k + l, :k + l, :k + l] = nil
    a_idx = n - 1
    for i in range(k):
        c[a_idx, i, i] = 0.5
        c[i, a_idx, i] = -0.5
    for z in range(k, k + l):
        c[a_idx, z, z] = 1.0
        c[z, a_idx, z] = -1.0
    return c


def scale_bracket(c, i, j, factor):
    """Copy of the structure constants ``c`` with the single bracket
    [e_i, e_j] rescaled.

    A module-module bracket lands in the center, so scaling it keeps the
    Jacobi identity and breaks the Clifford relations; ``verify --perturb``
    scales [e_0, e_{n-1}], a module-A bracket, which breaks Jacobi too.
    """
    c = c.copy()
    c[i, j, :] *= factor
    c[j, i, :] *= factor
    return c


def levi_civita(c):
    """Connection coefficients of the left-invariant metric with structure
    constants ``c``.

    gamma[i, j, m] = (c[i,j,m] - c[j,m,i] + c[m,i,j]) / 2; antisymmetric in
    (j, m) by metric compatibility, and gamma[i,j] - gamma[j,i] recovers c.
    """
    return 0.5 * (c - np.einsum('jmi->ijm', c) + np.einsum('mij->ijm', c))


def curvature(gamma, c):
    """Curvature tensor R[i, j, a, d] = <R(e_i, e_j) e_a, e_d>.

    Frame-constant coefficients, so the derivative terms of the usual
    formula drop and only the quadratic and bracket terms remain.
    """
    r = np.einsum('jam,imd->ijad', gamma, gamma)
    r -= np.einsum('iam,jmd->ijad', gamma, gamma)
    r -= np.einsum('ijm,mad->ijad', c, gamma)
    return r


def ricci(r):
    return np.einsum('cabc->ab', r)


def covariant_derivative(gamma, tensor):
    """One covariant derivative of a frame-constant covariant tensor.

    Output slot 0 is the derivative direction; the frame-constant component
    functions contribute nothing, so each slot picks up a -gamma correction.
    """
    rank = tensor.ndim
    out = np.zeros((gamma.shape[0],) + tensor.shape)
    for s in range(rank):
        # slot s moved to the front once (one n^(rank-1) copy), then one
        # frame index x at a time, so no term the size of out is held
        moved = np.moveaxis(tensor, s, 0)
        flat = moved.reshape(moved.shape[0], -1)
        for x, gx in enumerate(gamma):
            out[x] -= np.moveaxis((gx @ flat).reshape(moved.shape), 0, s)
    return out


class Geometry:
    """A homogeneous geometry probed through one base point.

    Bundles the connection and curvature in the frame at the base point and
    caches the first covariant derivative of curvature, from which every
    curvature jet is built.  For group geometries these are built from
    structure constants; the constant curvature model prescribes curvature
    directly with a parallel frame.  ``algebra`` holds the structure
    constants of a group geometry and None for the model.
    """

    def __init__(self, gamma, r, algebra=None, name="geometry"):
        self.gamma = np.asarray(gamma)
        self.r = np.asarray(r)
        self.algebra = algebra
        self.name = name
        self._s1 = None

    @property
    def dim(self):
        return self.r.shape[0]

    @property
    def nabla_r(self):
        if self._s1 is None:
            self._s1 = covariant_derivative(self.gamma, self.r)
        return self._s1


def geometry_from_algebra(c, name="group"):
    """Group geometry of the metric Lie algebra with structure constants
    ``c``.  A connection or curvature that overflows raises
    :class:`NonFiniteGeometry` here, before anything is computed from it."""
    with np.errstate(all="ignore"):
        gamma = levi_civita(c)
        r = curvature(gamma, c)
    # min and max carry any NaN or infinity; checking those floats with
    # math.isfinite allocates nothing, where a first np.isfinite on an array
    # raised verify's peak memory by ~0.15 MB
    extremes = (gamma.min(), gamma.max(), r.min(), r.max())
    if not all(map(math.isfinite, extremes)):
        raise NonFiniteGeometry(
            f"{name}: the connection or curvature of these structure "
            "constants is not finite")
    return Geometry(gamma=gamma, r=r, algebra=c, name=name)


def constant_curvature_geometry(dim, kappa=1.0):
    """Space form model: prescribed finite curvature, parallel frame along
    rays."""
    eye = np.eye(checked_integer("space form", "dim", dim, 1,
                                 error=OutsideDomain))
    kappa = checked_real("space form", "kappa", kappa, error=NonFiniteGeometry)
    r = float(kappa) * (np.einsum('bc,ad->abcd', eye, eye) - np.einsum('ac,bd->abcd', eye, eye))
    return Geometry(gamma=np.zeros((dim, dim, dim)), r=r,
                    name=f"space-form(kappa={kappa})")


def damek_ricci_geometry(center_dim, pos, neg):
    """Damek-Ricci geometry for a center of dimension ``center_dim`` and
    module multiplicity (pos, neg)."""
    jmap = build_j_map(center_dim, pos, neg)
    return geometry_from_algebra(build_damek_ricci(jmap), name=jmap.name)


def _unit_directions(geometry, u):
    """``u`` as a float array, checked to be one direction (n,) or a batch
    (m, n), n = ``geometry.dim``, of finite rows of norm 1 to within 1e-12;
    anything else raises :class:`InvalidSampling`.  Every jet, Jacobi-flow
    march and flow series starts from directions checked here."""
    n = geometry.dim
    u = np.asarray(u, dtype=float)
    # a NaN or infinite entry gives a NaN or infinite norm, which fails <=
    if (u.ndim not in (1, 2) or u.shape[-1] != n
            or not np.all(np.abs(np.linalg.norm(u, axis=-1) - 1.0) <= 1e-12)):
        raise InvalidSampling(
            f"directions must be finite unit rows of shape ({n},) or "
            f"(m, {n}), got an array of shape {u.shape}")
    return u


def curvature_jet(geometry, u, order=3):
    """Derivatives of the Jacobi operator along the geodesic from ``u``.

    ``u`` is one unit direction of shape (n,) or a batch of shape (m, n),
    checked by :func:`_unit_directions`.
    Returns matrices [R, R', R'', R'''][:order+1] in a parallel frame, each
    of shape (n, n) for one direction and (m, n, n) for a batch.  Directions
    are contracted ``JET_BLOCK`` at a time.  Every order is built from
    nabla R alone; no higher covariant derivative is formed.
    """
    order = checked_integer("jet", "order", order, 0, 3,
                            error=OrderUnsupported)
    u = _unit_directions(geometry, u)
    dirs = u.reshape(-1, geometry.dim)
    # an empty batch still runs one (empty) block, so it yields (0, n, n)
    blocks = [_jet_block(geometry, dirs[s:s + JET_BLOCK], order)
              for s in range(0, max(len(dirs), 1), JET_BLOCK)]
    mats = [np.concatenate(parts) for parts in zip(*blocks)]
    if u.ndim == 1:
        mats = [m[0] for m in mats]
    return DirectionalCurvatureJet(matrices=mats)


def _jet_block(geometry, u, order):
    """Jet matrices, each (m, n, n), for a block of directions ``u`` (m, n).

    A covariant derivative along u, contracted with vectors, takes one
    -gamma_u correction per slot, so every order comes from nabla R.  With
    T(x, q) = nabla R[x, ., a, b, .] q[a, b], gu = gamma_u and v = gu u,
    R'' = -(X + gu R' + R' gu^T) where X = T(v, uu) + T(u, uv + vu) puts v
    in one direction slot; R''' corrects every slot of R'' alike, and its
    direction slots take p = gamma_v u + gu v once or v twice.
    """
    def outer(x, y, sym=False):
        xy = np.einsum('ka,kb->kab', x, y)
        return xy + np.swapaxes(xy, 1, 2) if sym else xy

    def sandwich(g, m):
        return g @ m + m @ np.swapaxes(g, 1, 2)

    uu = outer(u, u)
    mats = [np.einsum('iabj,kab->kij', geometry.r, uu, optimize=True)]
    if order >= 1:
        mats.append(np.einsum('ciabj,kc,kab->kij', geometry.nabla_r, u, uu,
                              optimize=True))
    if order >= 2:
        gu = np.tensordot(u, geometry.gamma, axes=1)
        v = np.einsum('ka,kam->km', u, gu)
        pairs = [uu, outer(u, v, sym=True)]
        if order >= 3:
            gv = np.tensordot(v, geometry.gamma, axes=1)
            p = np.einsum('ka,kam->km', u, gv) + np.einsum('ka,kam->km', v, gu)
            pairs.append(outer(u, p, sym=True) + 2.0 * outer(v, v))
        # one GEMM folds each pair into the two inner direction slots
        folded = np.tensordot(np.stack(pairs, axis=1), geometry.nabla_r,
                              axes=([2, 3], [2, 3]))

        def t(x, s):
            return np.einsum('kc,kcij->kij', x, folded[:, s])

        x = t(v, 0) + t(u, 1)
        mats.append(-(x + sandwich(gu, mats[1])))
    if order >= 3:
        mats.append(sandwich(gu, x - mats[2]) + sandwich(gv, mats[1])
                    + t(p, 0) + 2.0 * t(v, 1) + t(u, 2))
    return mats
