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
cross-check them independently on SFC64 draws g: ``_mc_form`` folds each
sampled quantity once into coefficients on its live monomials, held as a
matrix D on x = g^2 for the terms with only even exponents plus a dense
p x p block U on the degree-k halves w of the others (see
``mc_average``).
"""

from __future__ import annotations

import itertools
import math
import string
from dataclasses import dataclass

import numpy as np

from .errors import (DegreeTooHigh, InvalidSampling, checked_integer,
                     checked_real)
from .geometry import curvature_jet, ricci


# -- direction constants -----------------------------------------------------


@dataclass
class DirectionConstants:
    """Traces of the Jacobi operator and its derivatives along directions.

    Each trace is a float for one direction ``u`` of shape (n,) and an
    array of length m for a batch of shape (m, n).
    """

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
    return DirectionConstants(*traces)


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
        the direction parts of the sphere-expansion coefficients."""
        n = self.dim
        alpha = 3.0 * self.grad_r_sq / (16.0 * n * (n + 2) * (n + 4))
        beta = (4.0 / 9.0) * (n * self.c ** 3 + 2.0 * self.r_ring
                              - 0.25 * self.r_hat) / (n * (n + 2))
        return alpha, beta


def point_invariants(geometry):
    """The direction-independent curvature scalars of ``geometry``.

    ``norm_r_sq`` = |R|^2 and ``grad_r_sq`` = |nabla R|^2 are full
    contractions.  The cubic scalars are normalized so the unit sphere
    S^n gives r_hat = 4n(n-1) and r_ring = n(n-1)(n-2):

        r_hat  = -R_ijkl R_klab R_abij = -tr(M M M),
        r_ring = -R_iajb R_akbl R_kilj = -tr(P P P),

    with M[(i,j), (k,l)] = R_ijkl (a view of R) and P[(i,j), (a,b)] =
    R_iajb, both n^2 x n^2.  Each trace is one BLAS product and a
    trace of a product, never an n^6 sum; the product buffer of M M is
    reused for P P, so at most two n^2 x n^2 arrays are alive at once.
    On every family member R has dyadic entries with small denominators,
    so every partial sum is exact in float64 and the result does not
    depend on the summation order.
    """
    r = geometry.r
    n = geometry.dim
    dc = direction_constants(geometry, np.ones(n) / math.sqrt(n))
    s1 = geometry.nabla_r
    norm_r_sq = float(np.einsum('ijkl,ijkl->', r, r))
    mat = r.reshape(n * n, n * n)
    prod = mat @ mat
    r_hat = -float(np.einsum('ij,ji->', prod, mat))
    mat = r.transpose(0, 2, 1, 3).reshape(n * n, n * n)
    np.matmul(mat, mat, out=prod)
    r_ring = -float(np.einsum('ij,ji->', prod, mat))
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


@dataclass
class ResidualReport:
    space: str
    rows: list

    @property
    def passed(self):
        return all(r.passed for r in self.rows)

    def as_dict(self):
        return {"space": self.space, "passed": self.passed,
                "rows": self.rows}


def _residual_row(name, lhs, rhs, tol, scale=None):
    if scale is None:
        scale = max(abs(lhs), abs(rhs), 1.0)
    abs_res = abs(lhs - rhs)
    rel = abs_res / scale
    return ResidualRow(identity=name, lhs=lhs, rhs=rhs, abs_residual=abs_res,
                       rel_residual=rel, tolerance=tol, passed=rel <= tol)


# Directions per block in verify_harmonicity and mc_average; a multiple of
# geometry.JET_BLOCK, so a block splits into the same jet blocks as the
# whole draw.  Each call draws and evaluates MC_BLOCK directions at a time,
# so its memory does not grow with the count.  At 1024 the arrays of an
# mc_average block fit in a core's 2 MB L2 cache: 1.2 MB for grad_quad and
# 1.4 MB for beta on the 12-dim member 3:1,1, against 4.7 and 5.5 MB at 4096.
MC_BLOCK = 1024


def random_directions(dim, count, rng):
    g = rng.standard_normal((count, dim))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def verify_harmonicity(geometry, n_directions=100, seed=0, tol=1e-8):
    """Spread of the five direction traces over random unit directions.

    Constancy of all five certifies the radial density depends on distance
    only, through the orders probed here.  The two trace combinations built
    from odd derivative counts flip sign under u -> -u, so a small spread
    already forces them to vanish.  Directions are drawn and evaluated
    ``MC_BLOCK`` at a time, keeping a running maximum and minimum; the
    draws are those of one ``random_directions`` call.  ``n_directions``
    must be an integer >= 2, for a spread, ``seed`` an integer >= 0
    (neither a bool) and ``tol`` finite and > 0, else ``InvalidSampling``.
    """
    n_directions = checked_integer("harmonicity check", "n_directions",
                                   n_directions, 2)
    seed = checked_integer("harmonicity check", "seed", seed, 0)
    tol = checked_real("harmonicity check", "tol", tol, 0)
    rng = np.random.default_rng(seed)
    hi = np.full(5, -np.inf)
    lo = np.full(5, np.inf)
    for done in range(0, n_directions, MC_BLOCK):
        dirs = random_directions(geometry.dim,
                                 min(MC_BLOCK, n_directions - done), rng)
        dc = direction_constants(geometry, dirs)
        vals = np.array([dc.c, dc.h, dc.l, dc.odd_first, dc.even_second])
        hi = np.maximum(hi, vals.max(axis=1))
        lo = np.minimum(lo, vals.min(axis=1))
    names = ("C", "H", "L", "tr(R R')", "tr(R R'') + tr(R' R')")
    rows = [_residual_row(f"spread[{name}]", float(h), float(l), tol)
            for name, h, l in zip(names, hi, lo)]
    return ResidualReport(space=geometry.name, rows=rows)


def verify_einstein_identities(geometry, tol=1e-8):
    """Einstein property plus the three scalar curvature identities.

    The quadratic identity ties |R|^2 to C and H; the degree-six identity
    ties the L constant to the cubic scalars and |nabla R|^2; the
    Lichnerowicz-type identity must vanish.  All three hold on every member
    of the families built here and pin the normalization of each scalar.
    """
    tol = checked_real("Einstein identities", "tol", tol, 0)
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


def grad_quad_tensor(geometry):
    """Coefficient tensor of tr(R_u' R_u') as a degree-6 direction polynomial."""
    s1 = geometry.nabla_r
    return np.einsum(GRAD_QUAD_SPEC, s1, s1, optimize=True)


def beta_tensor(geometry):
    """Coefficient tensor of the mixed cubic trace beta(u)."""
    r = geometry.r
    return np.einsum(BETA_SPEC, r, r, r, optimize=True)


def verify_average_identities(geometry, tol=1e-7):
    """The sphere-average identities for the mixed cubic traces."""
    tol = checked_real("average identities", "tol", tol, 0)
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
    factor = np.zeros((len(idx), tensor.size // n ** degree))
    # one leading index at a time, in the same row order as one whole
    # fold, so a transposed tensor is copied n^(rank-1) entries at a time
    for c, targets in enumerate(row.reshape(n, -1)):
        np.add.at(factor, targets, tensor[c].reshape(n ** (degree - 1), -1))
    return idx, factor


def _monomials(dt, idx):
    """Monomials of the directions in the columns of ``dt`` (n, m), in row
    layout: row k is the product of the rows of ``dt`` named by idx[k]."""
    out = np.take(dt, idx[:, 0], axis=0)
    for col in idx[:, 1:].T:
        out *= np.take(dt, col, axis=0)
    return out


# Folded coefficients at most this fraction of the largest one are taken
# for cancelled sums.  On the members in the tests the smallest real one is
# 4.1e-5 of the largest and the residues are below 1e-16 of it.
PLAN_CUTOFF = 1e-12


def _mc_form(geometry, quantity):
    """A Monte Carlo quantity folded once into the form ``mc_average`` reads.

    Both quantities are quadratic forms w . (G w) in the degree-k symmetric
    monomials w of the direction: beta (k = 2) with the folded Gram
    G = F K F^T, tr R_u'R_u' = |F^T w|^2 (k = 3) with G = F F^T, F the
    folded factor.  Each nonzero G[a, b] is folded onto the degree-2k
    monomial idx[a] + idx[b] (an integer key per sorted multi-index, summed
    by ``np.bincount``), and the monomials whose coefficient is at most
    ``PLAN_CUTOFF`` times the largest in magnitude are dropped: they are
    rounding residues of sums that cancel, and their size follows the
    summation order.  Each kept monomial is the product of two degree-k
    halves, the first (a, b) pair that reached it.

    A live term whose sorted multi-index is all even pairs is x^beta on
    x = g^2: x at the last index of its half beta (every second index)
    times the monomial of x on the first k-1 (its head), so its
    coefficient sits at D[last index, head].  Every other term has an odd
    exponent and sits at its (a, b) entry of the dense p x p block U on
    the p halves such terms use, in ascending row order.  The quantity is
    w . (U w) on those halves plus the column sum of
    x * (D @ monomials(x, heads)).  Returns (U's halves, U, heads, D).
    """
    n = geometry.dim
    if quantity == "beta":
        idx, fmat = _symmetric_factor(np.einsum('iabj->abij', geometry.r), 2)
        kmat = np.einsum('jiqm->qimj', geometry.r).reshape(n * n, n * n)
        gram = fmat @ kmat @ fmat.T
    elif quantity == "grad_quad":
        idx, fmat = _symmetric_factor(
            np.einsum('ciabj->cabij', geometry.nabla_r), 3)
        keep = fmat.any(axis=1)       # a zero row has a zero Gram row
        idx, fmat = idx[keep], fmat[keep]
        gram = fmat @ fmat.T
    else:
        raise InvalidSampling(f"unknown Monte Carlo quantity {quantity!r}; "
                              f"expected 'beta' or 'grad_quad'")
    a, b = np.nonzero(gram)
    merged = np.sort(np.concatenate([idx[a], idx[b]], axis=1), axis=1)
    key = merged @ n ** np.arange(merged.shape[1])
    _, first, term = np.unique(key, return_index=True, return_inverse=True)
    coef = np.bincount(term.reshape(-1), weights=gram[a, b],
                       minlength=len(first))
    live = np.abs(coef) > PLAN_CUTOFF * np.abs(coef).max(initial=0.0)
    a, b, coef = a[first[live]], b[first[live]], coef[live]
    merged = merged[first[live]]
    even = (merged[:, ::2] == merged[:, 1::2]).all(axis=1)
    used = np.zeros(len(idx), dtype=bool)
    used[a[~even]] = used[b[~even]] = True
    pos = np.cumsum(used) - 1
    p = int(used.sum())
    umat = np.zeros((p, p))
    umat[pos[a[~even]], pos[b[~even]]] = coef[~even]
    squared = merged[even, ::2]
    heads, head = np.unique(squared[:, :-1], axis=0, return_inverse=True)
    dmat = np.zeros((n, len(heads)))
    dmat[squared[:, -1], head.reshape(-1)] = coef[even]
    return idx[used], umat, heads, dmat


def mc_average(geometry, quantity, n_samples=1_000_000, seed=0):
    """Seeded Monte Carlo direction average with a standard error.

    ``quantity`` is 'beta' or 'grad_quad', folded once into a polynomial
    of degree 2k on its live monomials and read as a quadratic form on
    its live degree-k halves (see ``_mc_form``).
    Gaussian draws g come from ``Generator(SFC64(seed))``, ``MC_BLOCK``
    rows at a time in order, so the stream does not depend on the block
    size or on the live set; SFC64 draws normals in about a fifth less time
    than the PCG64 that ``verify`` and ``expand`` keep for pinned reports.
    The polynomial is homogeneous, so its value at g / |g| is its value at
    g over s^k, s = |g|^2 = sum x, x = g^2.  A sample is the column sum of
    (U w) * w on U's halves w in row layout (one row per monomial, one
    column per direction, made only when U is not empty) plus the column
    sum of x * (D @ monomials(x, heads)) on x in row layout.  Every even
    term is read off x: beta on the 12-dim members is 78 terms on 12
    heads, tr R_u'R_u' on 3:1,1 48 on 16, and on the symmetric 3:2,0
    nothing is live in it, so every sample is 0.  U holds only the odd
    terms: p is 0 for both quantities on the 12-dim pair and on 3:4,1 and
    3:5,0 (measured), and 9 for beta and 60 for tr R_u'R_u' on 3:1,1 with
    one bracket scaled by 1.25.
    ``n_samples`` must be an integer >= 1 and ``seed`` an integer >= 0
    (neither a bool), else ``InvalidSampling``.
    """
    n = geometry.dim
    n_samples = checked_integer("Monte Carlo average", "n_samples",
                                n_samples, 1)
    seed = checked_integer("Monte Carlo average", "seed", seed, 0)
    halves, umat, heads, dmat = _mc_form(geometry, quantity)
    k = halves.shape[1]
    p = len(umat)
    rng = np.random.Generator(np.random.SFC64(seed))
    total = total_sq = 0.0
    for done in range(0, n_samples, MC_BLOCK):
        g = rng.standard_normal((min(MC_BLOCK, n_samples - done), n))
        x = np.square(g.T, order='C')
        vals = np.zeros(len(g))
        if p:  # an empty part would still cost ~15 us of a ~60 us block
            w = _monomials(np.ascontiguousarray(g.T), halves)
            vals += np.einsum('ij,ij->j', umat @ w, w)
            del w    # freed like the arrays below
        if len(heads):
            vals += np.einsum('ij,ij->j', x, dmat @ _monomials(x, heads))
        s = x.sum(axis=0)
        norm = s * s
        for _ in range(k - 2):
            norm *= s
        vals /= norm
        total += float(vals.sum())
        total_sq += float(vals @ vals)
        # freed before the next block makes its own, so every block reuses
        # the same L2-resident memory; kept alive, they would rotate the
        # blocks through three sets of addresses
        del g, x, vals, s, norm
    mean = total / n_samples
    var = max(total_sq / n_samples - mean * mean, 0.0)
    stderr = math.sqrt(var / n_samples)
    return mean, stderr
