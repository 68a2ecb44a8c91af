"""Curvature invariants, direction constants, and sphere averages.

Direction constants C(u), H(u), L(u) are the traces controlling the radial
density expansion; they are evaluated for one direction (n,) or a whole
batch (m, n) through one batched curvature jet.  The point invariants
collect the direction-independent curvature scalars.  Averages over the
unit sphere of direction polynomials are computed exactly by pairing
contractions (degree at most eight): a polynomial is given either as its
coefficient tensor or as the einsum of curvature factors that would build
it, and in the factor form each pairing contracts the factors straight to
a scalar, so no coefficient tensor is built.  Seeded Monte Carlo averages
cross-check them independently.
"""

from __future__ import annotations

import itertools
import math
import string
from dataclasses import dataclass, asdict

import numpy as np

from .errors import DegreeTooHigh, InvalidSampling
from .geometry import curvature_jet, ricci


# -- direction constants -----------------------------------------------------


@dataclass
class DirectionConstants:
    """Traces of the Jacobi operator and its derivatives along directions.

    Each trace is a float for one direction ``u`` of shape (n,) and an
    array of length m for a batch of shape (m, n).
    """

    u: np.ndarray
    c: float          # tr R_u
    h: float          # tr R_u^2
    l: float          # 32 tr R_u^3 - 9 tr R_u' R_u'
    odd_first: float  # tr R_u R_u'
    even_second: float  # tr R_u R_u'' + tr R_u' R_u'


def direction_constants(geometry, u):
    u = np.asarray(u, dtype=float)
    r0, r1, r2 = curvature_jet(geometry, u, order=2).matrices

    def tr(m):
        return np.trace(m, axis1=-2, axis2=-1)

    traces = [tr(r0), tr(r0 @ r0),
              32.0 * tr(r0 @ r0 @ r0) - 9.0 * tr(r1 @ r1),
              tr(r0 @ r1), tr(r0 @ r2) + tr(r1 @ r1)]
    if u.ndim == 1:
        traces = [float(t) for t in traces]
    return DirectionConstants(u, *traces)


# -- point invariants --------------------------------------------------------


@dataclass
class PointInvariants:
    """Direction-independent curvature scalars at the base point.

    ``c``, ``h``, ``l`` are sampled along the unit diagonal direction
    (constant over directions on a harmonic space; harmonicity is certified
    separately).
    """

    dim: int
    c: float
    h: float
    l: float
    norm_r_sq: float
    r_hat: float
    r_ring: float
    grad_r_sq: float

    def alpha_beta_averages(self):
        """Exact unit-sphere averages of (1/16) tr R_u'R_u' and (4/9) beta(u),
        the direction parts of ``heatinv.alpha_beta_parts``."""
        n = self.dim
        alpha = 3.0 * self.grad_r_sq / (16.0 * n * (n + 2) * (n + 4))
        beta = (4.0 / 9.0) * (n * self.c ** 3 + 2.0 * self.r_ring
                              - 0.25 * self.r_hat) / (n * (n + 2))
        return alpha, beta


def point_invariants(geometry):
    r = geometry.r
    n = geometry.dim
    dc = direction_constants(geometry, np.ones(n) / math.sqrt(n))
    s1 = geometry.nabla_r
    norm_r_sq = float(np.einsum('ijkl,ijkl->', r, r))
    # cubic scalars, normalized so the unit sphere gives 4n(n-1) and
    # n(n-1)(n-2) respectively
    r_hat = -float(np.einsum('ijkl,klab,abij->', r, r, r))
    r_ring = -float(np.einsum('iajb,akbl,kilj->', r, r, r))
    grad_r_sq = float(np.einsum('cijkl,cijkl->', s1, s1))
    return PointInvariants(dim=n, c=dc.c, h=dc.h, l=dc.l,
                           norm_r_sq=norm_r_sq, r_hat=r_hat, r_ring=r_ring,
                           grad_r_sq=grad_r_sq)


def gradient_adjusted_cubics(pi):
    """The two spectrally shared cubic combinations.

    Only the combinations are meaningful across an isospectral family; the
    individual cubic scalars are not, so nothing here tries to split them.
    """
    return {
        "r_hat_minus_7_24_grad": pi.r_hat - 7.0 / 24.0 * pi.grad_r_sq,
        "r_ring_minus_17_96_grad": pi.r_ring - 17.0 / 96.0 * pi.grad_r_sq,
    }


# -- reports -----------------------------------------------------------------


@dataclass
class ResidualRow:
    identity: str
    lhs: float
    rhs: float
    abs_residual: float
    rel_residual: float
    tolerance: float
    passed: bool

    def as_dict(self):
        return asdict(self)


@dataclass
class ResidualReport:
    space: str
    rows: list

    @property
    def passed(self):
        return all(r.passed for r in self.rows)

    def as_dict(self):
        return {"space": self.space, "passed": self.passed,
                "rows": [r.as_dict() for r in self.rows]}


def _residual_row(name, lhs, rhs, tol, scale=None):
    if scale is None:
        scale = max(abs(lhs), abs(rhs), 1.0)
    abs_res = abs(lhs - rhs)
    rel = abs_res / scale
    return ResidualRow(identity=name, lhs=lhs, rhs=rhs, abs_residual=abs_res,
                       rel_residual=rel, tolerance=tol, passed=rel <= tol)


def random_directions(dim, count, rng):
    g = rng.standard_normal((count, dim))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def verify_harmonicity(geometry, n_directions=100, seed=0, tol=1e-8):
    """Spread of the five direction traces over random unit directions.

    Constancy of all five certifies the radial density depends on distance
    only, through the orders probed here.  The two trace combinations built
    from odd derivative counts flip sign under u -> -u, so a small spread
    already forces them to vanish.
    """
    rng = np.random.default_rng(seed)
    dirs = random_directions(geometry.dim, n_directions, rng)
    dc = direction_constants(geometry, dirs)
    names = ("C", "H", "L", "tr(R R')", "tr(R R'') + tr(R' R')")
    rows = []
    for name, vals in zip(names, (dc.c, dc.h, dc.l, dc.odd_first,
                                  dc.even_second)):
        rows.append(_residual_row(f"spread[{name}]", float(vals.max()),
                                  float(vals.min()), tol))
    return ResidualReport(space=geometry.name, rows=rows)


def verify_einstein_identities(geometry, tol=1e-8):
    """Einstein property plus the three scalar curvature identities.

    The quadratic identity ties |R|^2 to C and H; the degree-six identity
    ties the L constant to the cubic scalars and |nabla R|^2; the
    Lichnerowicz-type identity must vanish.  All three hold on every member
    of the families built here and pin the normalization of each scalar.
    """
    pi = point_invariants(geometry)
    n, c, h, l = pi.dim, pi.c, pi.h, pi.l
    ric = ricci(geometry.r)
    einstein_dev = float(np.max(np.abs(ric - c * np.eye(n))))
    rows = [
        _residual_row("einstein", einstein_dev, 0.0, tol, scale=max(abs(c), 1.0)),
        _residual_row("norm-r-quadratic", pi.norm_r_sq,
                      (2.0 * n / 3.0) * ((n + 2) * h - c * c), tol),
        _residual_row(
            "l-from-cubics",
            32.0 * (n * c ** 3 + 4.5 * c * pi.norm_r_sq + 3.5 * pi.r_hat - pi.r_ring)
            - 27.0 * pi.grad_r_sq,
            n * (n + 2) * (n + 4) * l,
            tol),
        _residual_row(
            "lichnerowicz",
            2.0 * c * pi.norm_r_sq - pi.r_hat - 4.0 * pi.r_ring + pi.grad_r_sq,
            0.0,
            tol,
            scale=max(abs(2.0 * c * pi.norm_r_sq), abs(pi.r_hat),
                      abs(4.0 * pi.r_ring), 1.0)),
    ]
    return ResidualReport(space=geometry.name, rows=rows)


# -- exact sphere averages ---------------------------------------------------


def perfect_matchings(slots):
    if not slots:
        yield []
        return
    first = slots[0]
    for i in range(1, len(slots)):
        pair = (first, slots[i])
        rest = slots[1:i] + slots[i + 1:]
        for rest_m in perfect_matchings(rest):
            yield [pair] + rest_m


def sphere_average(tensor, *factors):
    """Exact average over the unit sphere of T[a1..ad] u_a1 ... u_ad.

    ``sphere_average(T)`` averages a coefficient tensor.  In the factor
    form, ``sphere_average('iabj,jcdk,kefi->abcdef', r, r, r)``, T is the
    einsum of the factors and its output letters are the direction slots;
    T itself is never built.  Gaussian pairing: each perfect matching of
    the slots contributes the corresponding delta-contraction, divided by
    n(n+2)...(n+2s-2).  In the factor form a matching renames the second
    letter of each pair to the first and contracts the factors to a scalar
    along a planned path.  Odd degree averages to zero; degree above eight
    is refused.
    """
    if isinstance(tensor, str):
        inputs, slots = tensor.split("->")
    else:
        factors = (np.asarray(tensor),)
        slots = inputs = string.ascii_letters[:factors[0].ndim]
    d = len(slots)
    if d == 0:
        return float(np.einsum(inputs + "->", *factors))
    if d % 2 == 1:
        return 0.0
    if d > 8:
        raise DegreeTooHigh(f"sphere average of degree {d} exceeds the pairing table")
    sizes = dict(zip(inputs.replace(",", ""),
                     itertools.chain.from_iterable(np.shape(f) for f in factors)))
    n = sizes[slots[0]]
    total = 0.0
    for matching in perfect_matchings(list(slots)):
        spec = inputs
        for first, second in matching:
            spec = spec.replace(second, first)
        total += float(np.einsum(spec + "->", *factors, optimize=True))
    denom = 1.0
    for t in range(d // 2):
        denom *= n + 2 * t
    return total / denom


# Direction polynomials as einsums of curvature factors; the output letters
# are the direction slots.  The builders below materialize them; the sphere
# averages contract the factors directly.

R_CUBE_SPEC = 'iabj,jcdk,kefi->abcdef'
GRAD_QUAD_SPEC = 'ciabj,diefj->cabdef'
# beta contracts one bare curvature against two Jacobi operators; the index
# routing is fixed by requiring the sphere value (n-1)(n-2)
BETA_SPEC = 'jiqm,qabi,mcdj->abcd'


def r_cube_tensor(geometry):
    """Coefficient tensor of tr R_u^3; the materialized reference that the
    factor form of ``sphere_average`` is checked against."""
    r = geometry.r
    return np.einsum(R_CUBE_SPEC, r, r, r, optimize=True)


def grad_quad_tensor(geometry):
    """Coefficient tensor of tr(R_u' R_u') as a degree-6 direction polynomial."""
    s1 = geometry.nabla_r
    return np.einsum(GRAD_QUAD_SPEC, s1, s1, optimize=True)


def beta_tensor(geometry):
    """Coefficient tensor of the mixed cubic trace beta(u)."""
    r = geometry.r
    return np.einsum(BETA_SPEC, r, r, r, optimize=True)


def verify_average_identities(geometry, tol=1e-7):
    """The two sphere-average identities for the mixed cubic traces."""
    pi = point_invariants(geometry)
    n, c = pi.dim, pi.c
    r, s1 = geometry.r, geometry.nabla_r
    avg_beta = sphere_average(BETA_SPEC, r, r, r)
    avg_grad = sphere_average(GRAD_QUAD_SPEC, s1, s1)
    avg_cube = sphere_average(R_CUBE_SPEC, r, r, r)
    rows = [
        _residual_row("beta-average",
                      n * (n + 2) * avg_beta,
                      n * c ** 3 - 0.25 * pi.r_hat + 2.0 * pi.r_ring,
                      tol),
        _residual_row("gradient-average",
                      n * (n + 2) * (n + 4) * avg_grad / 3.0,
                      pi.grad_r_sq,
                      tol),
        _residual_row("jacobi-cube-average",
                      n * (n + 2) * (n + 4) * avg_cube,
                      n * c ** 3 + 4.5 * c * pi.norm_r_sq + 3.5 * pi.r_hat - pi.r_ring,
                      tol),
    ]
    return ResidualReport(space=geometry.name, rows=rows)


# -- Monte Carlo averages ----------------------------------------------------


# Directions per Monte Carlo block.  A call allocates its buffers once,
# (2 * live monomials + live image rows) * MC_BLOCK floats (see _mc_plan),
# rather than mapping and unmapping fresh multi-MB arrays block by block.
MC_BLOCK = 4096


def _symmetric_factor(tensor, degree):
    """Fold the first ``degree`` direction slots onto symmetric monomials.

    Returns the nondecreasing multi-indices, one per row, and the factor
    matrix whose row k sums the tensor's rows (flattened over the trailing
    slots) over every ordering of index row k, so that T(u, ..., u) equals
    the sum over k of u_{idx[k, 0]} ... u_{idx[k, d-1]} factor[k].
    """
    n = tensor.shape[0]
    full = np.indices((n,) * degree).reshape(degree, -1).T
    idx, row = np.unique(np.sort(full, axis=1), axis=0, return_inverse=True)
    rows = tensor.reshape(n ** degree, -1)
    factor = np.zeros((len(idx), rows.shape[1]))
    np.add.at(factor, row.reshape(-1), rows)
    return idx, factor


def _monomials(dt, idx, out, gather):
    """Fill ``out`` with the monomials of the directions in the columns of
    ``dt`` (n, m): row k is the product of the rows of ``dt`` named by
    idx[k].  ``gather`` is a work array shaped like ``out``; mode='clip' (a
    no-op on valid rows) lets ``np.take`` write into them unbuffered."""
    np.take(dt, idx[:, 0], axis=0, out=out, mode='clip')
    for col in idx[:, 1:].T:
        out *= np.take(dt, col, axis=0, out=gather, mode='clip')
    return out


def _mc_plan(geometry, quantity):
    """Monomials and GEMM image of a Monte Carlo quantity, live part only.

    Returns ``idx`` (one row of direction indices per symmetric monomial)
    and ``image`` with one column per row of ``idx``.  beta(u) is w . (image
    w), with image the folded Gram matrix on the degree-2 monomials w;
    tr R_u'R_u' is |image w|^2, with image the transposed folded factor on
    the degree-3 monomials.  Only the monomials (columns) and image rows
    that hold a nonzero entry are kept: the dropped ones add exact zeros.
    beta keeps one live set for the rows and the columns of its Gram, so
    the image stays square.
    """
    n = geometry.dim
    if quantity == "beta":
        idx, fmat = _symmetric_factor(np.einsum('iabj->abij', geometry.r), 2)
        kmat = np.einsum('jiqm->qimj', geometry.r).reshape(n * n, n * n)
        image = fmat @ kmat @ fmat.T
        nonzero = image != 0.0
        rows = cols = nonzero.any(axis=0) | nonzero.any(axis=1)
    elif quantity == "grad_quad":
        idx, fmat = _symmetric_factor(
            np.einsum('ciabj->cabij', geometry.nabla_r), 3)
        image = fmat.T
        nonzero = image != 0.0
        rows, cols = nonzero.any(axis=1), nonzero.any(axis=0)
    else:
        raise InvalidSampling(f"unknown Monte Carlo quantity {quantity!r}; "
                              f"expected 'beta' or 'grad_quad'")
    return idx[cols], image[np.ix_(rows, cols)]


def mc_average(geometry, quantity, n_samples=1_000_000, seed=0):
    """Seeded Monte Carlo direction average with a standard error.

    ``quantity`` is 'beta' or 'grad_quad'.  Directions are drawn and
    evaluated ``MC_BLOCK`` at a time; each block becomes one array of
    symmetric monomials in row layout (one row per monomial, one column
    per direction), and the quantity is a small GEMM on it: beta(u) is the
    quadratic form of a folded Gram matrix on the degree-2 monomials, and
    tr R_u'R_u' the squared norm of the degree-3 monomials times a folded
    factor.  Only the live monomials and image rows are built (see
    ``_mc_plan``); where none is live, as for grad_quad on a symmetric
    space, every sample is 0.  The sample stream does not depend on the
    block size or on the live set.
    """
    n = geometry.dim
    if n_samples < 1:
        raise InvalidSampling(f"Monte Carlo average needs n_samples >= 1, "
                              f"got {n_samples}")
    idx, image = _mc_plan(geometry, quantity)
    rng = np.random.default_rng(seed)

    # flat buffers, so a short last block takes a contiguous leading part
    rows = (len(idx), len(idx), len(image))
    bufs = [np.empty(r * MC_BLOCK) for r in rows]
    total = total_sq = 0.0
    for done in range(0, n_samples, MC_BLOCK):
        m = min(MC_BLOCK, n_samples - done)
        w, gather, img = (b[:r * m].reshape(r, m) for b, r in zip(bufs, rows))
        dt = np.ascontiguousarray(random_directions(n, m, rng).T)
        _monomials(dt, idx, w, gather)
        np.matmul(image, w, out=img)
        # beta(u) = w . (image w); tr R_u'R_u' = |image w|^2
        img *= w if quantity == "beta" else img
        vals = img.sum(axis=0)
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
    mean = total / n_samples
    var = max(total_sq / n_samples - mean * mean, 0.0)
    stderr = math.sqrt(var / n_samples)
    return mean, stderr
