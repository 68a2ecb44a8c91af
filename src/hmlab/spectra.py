"""Radial spectral problems attached to the lattice Fourier decomposition.

The center variable separates with parameter mu = pi |Z|, leaving a family
of singular Sturm-Liouville operators in t = |X|^2 indexed by the bidegree
of the harmonic factor.  Discretization is a cell-centered finite-volume
scheme whose flux weight t^s vanishes at the origin, so the interior
singularity needs no boundary condition; the outer edge takes a Robin pair
through a second-order ghost value.  Eigenvalues are Richardson-extrapolated
across one grid doubling and carry that difference as an error bar.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field
from functools import cache, cached_property
from fractions import Fraction

import numpy as np

from .errors import (ConsistencyFailure, ConvergenceFailure,
                     DegenerateBoundary, DegreeTooHigh, FamilyMismatch,
                     InvalidSampling, NonIntegrableWeight, NotComplexStructure,
                     SpectraDiffer, ZeroLatticeVector, checked_integer,
                     checked_real)
from .polynomials import (CPoly, PolyBatch, _over_one_denominator,
                          adapted_coordinates, harmonic_projection,
                          harmonic_space_dimension, integer_j,
                          monomials_of_degree)

MAX_DEGREE = 6  # of the exact bidegree bases
MIN_GRID = 64  # cells of a radial grid
BAR_SAFETY = 2.0  # error bars as a multiple of the Richardson estimate
MAX_SPREAD = 0.05  # grid-doubling spread, relative, above which a solve fails

# -- symbol of the lattice-restricted operator ---------------------------------


@dataclass
class LatticeSymbol:
    mu: float
    j_matrix: np.ndarray
    j_unit_rows: list


def laplacian_symbol(jmap, z_gamma):
    """Separation data for one lattice vector: mu = pi |Z|, J_Z and the
    exact unit-normalized J rows, which the harmonic-basis construction
    consumes.  Z must have ``jmap.center_dim`` entries, else
    :class:`InvalidSampling` is raised, and |Z| must be rational, else
    there are no exact unit rows and :class:`NotComplexStructure` is raised.

    With Z = n / d over one denominator, J_Z = M / d and its unit rows are
    M / sqrt(<n, n>) for the integer matrix M = sum_a n_a J_a.
    """
    jmap.check_center(z_gamma)
    nums, den = _over_one_denominator([Fraction(x) for x in z_gamma])
    norm_sq = sum(x * x for x in nums)
    if not norm_sq:
        raise ZeroLatticeVector("lattice vector must be nonzero")
    norm = math.isqrt(norm_sq)
    if norm * norm != norm_sq:
        raise NotComplexStructure(
            f"lattice vector {tuple(z_gamma)} has irrational norm; "
            "no exact unit structure")
    gens = [g.tolist() for g in jmap.all_j()]
    k = jmap.total_dim
    j_num = [[sum(x * g[r][c] for x, g in zip(nums, gens)) for c in range(k)]
             for r in range(k)]
    return LatticeSymbol(mu=math.pi * math.sqrt(norm_sq / (den * den)),
                         j_matrix=np.array([[x / den for x in row]
                                            for row in j_num]),
                         j_unit_rows=[[Fraction(x, norm) for x in row]
                                      for row in j_num])


# -- harmonic bidegree bases ----------------------------------------------------


@dataclass
class HnmBasis:
    """The harmonic bidegree spaces of one degree: ``dims`` counts the basis
    elements of each rotation eigenvalue m, and ``per_m`` lists them as
    reduced CPolys, in build order, made from the projected batch only when
    first read."""
    nvars: int
    degree: int
    dims: dict
    total_dim: int
    elements: PolyBatch = field(repr=False, compare=False)
    labels: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def per_m(self):
        per_m = {}
        for m, h in zip(self.labels.tolist(), self.elements.polys()):
            per_m.setdefault(m, []).append(h)
        return dict(sorted(per_m.items()))


def _check_complex_structure(j):
    """J, in the prepared form rows / den, must be a square matrix, skew,
    and square to minus the identity: rows^2 = -den^2 I."""
    rows, den = j
    k = len(rows)
    if any(len(row) != k for row in rows):
        raise NotComplexStructure(f"J is not a square matrix: {k} rows of "
                                  f"lengths {sorted({len(r) for r in rows})}")
    skew = all(rows[r][c] == -rows[c][r] for r in range(k) for c in range(k))
    cols = list(zip(*rows))
    square = all(sum(a * b for a, b in zip(rows[r], cols[c]))
                 == (-den * den if r == c else 0)
                 for r in range(k) for c in range(k))
    if not (skew and square):
        raise NotComplexStructure(
            "J is not skew with J^2 = -I; the lattice direction does not "
            "define a complex structure")


def build_hnm_basis(j_rows, max_degree):
    """Harmonic bidegree spaces of one complex structure, as the list of
    degrees 0..``max_degree``: J is checked and the adapted coordinates are
    built once for all degrees, and each degree runs as one
    :class:`PolyBatch`.

    Monomials z^p zbar^q in the adapted coordinates are harmonically
    projected and grouped by the rotation eigenvalue m = sum(q_i - p_i).
    Only those free of z_d zbar_d are projected: P_(p,q) = H_(p,q) +
    |X|^2 P_(p-1,q-1) with |X|^2 = sum w_i z_i zbar_i, w_i > 0, so the kept
    projections are a basis.  The kept products of one degree are kept
    products of the degree below, each times the linear form of its last
    nonzero exponent.  Every element must be an exact rotation
    eigenvector and the dimension count across groups must reproduce the
    closed formula for homogeneous harmonics; a violation of either raises
    :class:`ConsistencyFailure`.
    """
    max_degree = checked_integer("bidegree basis", "max_degree", max_degree, 0)
    if max_degree > MAX_DEGREE:
        raise DegreeTooHigh(
            f"bidegree bases are capped at total degree {MAX_DEGREE}")
    j = integer_j(j_rows)
    _check_complex_structure(j)
    k = len(j_rows)
    zs = adapted_coordinates(j)
    d = len(zs)
    top = max(max_degree, 1)  # the degree the batches' keys reach
    factors = PolyBatch.from_polys(k, zs + [z.conjugate() for z in zs], 1, top)
    # z^p zbar^q keyed by the exponents p + q, in the order of the elements
    exps = [(0,) * (2 * d)]
    products = PolyBatch.from_polys(k, [CPoly.constant(k, 1)], 0, top)
    bases = []
    for degree in range(max_degree + 1):
        monos = [monomials_of_degree(d, total) for total in range(degree + 1)]
        kept = [p + q for total_p in range(degree + 1)
                for p in monos[total_p] for q in monos[degree - total_p]
                if not (p[-1] and q[-1])]
        if degree:
            column = {e: c for c, e in enumerate(exps)}
            lower, factor = [], []
            for e in kept:
                i = max(i for i, x in enumerate(e) if x)
                lower.append(column[e[:i] + (e[i] - 1,) + e[i + 1:]])
                factor.append(i)
            products = products.take(lower).times(factors.take(factor))
        exps = kept
        labels = np.array([sum(e[d:]) - sum(e[:d]) for e in exps])
        projected = products.projected()
        nonzero = projected.nonzero_columns()
        eigen = projected.rotation_eigenvectors(j, -labels)
        if not eigen.all():
            raise ConsistencyFailure(
                f"basis element of group m={labels[~eigen].min()} is no "
                "rotation eigenvector")
        live = np.flatnonzero(nonzero)
        groups, counts = np.unique(labels[live], return_counts=True)
        dims = dict(zip(groups.tolist(), counts.tolist()))
        total = sum(dims.values())
        expected = harmonic_space_dimension(k, degree)
        if total != expected:
            raise ConsistencyFailure(
                f"bidegree bases span {total} dimensions, harmonics need "
                f"{expected}")
        bases.append(HnmBasis(nvars=k, degree=degree, dims=dims,
                              total_dim=total, elements=projected.take(live),
                              labels=labels[live]))
    return bases


def hnm_basis_for_lattice(jmap, z_u, degree):
    """Bidegree bases for the complex structure of a unit-normalizable Z."""
    return build_hnm_basis(laplacian_symbol(jmap, z_u).j_unit_rows,
                           degree)[degree]


def hnm_multiplicity_oracle(j_rows, degree):
    """Rotation-eigenvalue multiplicities from a float eigendecomposition.

    Independent route: build real harmonics by projecting the raw
    monomials whose last exponent is at most one (modulo |X|^2, x_k^2 x^a
    is -sum_(i<k) x_i^2 x^a, so the rest add nothing), restrict the
    rotation derivative to that space with a least-squares solve, and read
    multiplicities off the spectrum of i times the matrix.
    """
    degree = checked_integer("multiplicity oracle", "degree", degree, 0)
    j = integer_j(j_rows)
    _check_complex_structure(j)
    k = len(j_rows)
    monos = monomials_of_degree(k, degree)
    basis = []
    for mono in monos:
        if mono[-1] > 1:
            continue
        h = harmonic_projection(CPoly(k, {mono: (1, 0)}))
        if not h.is_zero():
            basis.append(h)

    def to_col(poly):
        return np.array([complex(*poly.coefficient(mono)) for mono in monos])
    bmat = np.stack([to_col(h) for h in basis], axis=1)
    amat = np.stack([to_col(h.rotation_derivative(j)) for h in basis], axis=1)
    mat, *_ = np.linalg.lstsq(bmat, amat, rcond=None)
    eigs = np.linalg.eigvals(1j * mat)
    out = {}
    for ev in eigs:
        m = int(round(ev.real))
        if abs(ev.real - m) >= 1e-8 or abs(ev.imag) >= 1e-8:
            raise ConsistencyFailure(
                f"rotation eigenvalue {ev} is not an integer")
        out[m] = out.get(m, 0) + 1
    return out


# -- the radial operator and its exact audit ------------------------------------


@dataclass(frozen=True)
class RadialOperator:
    """4 t f'' + (2k + 4n) f' - (2 m mu + 4 mu^2 (1 + t/4)) f."""

    k: int
    n: int
    m: int
    mu: float

    @property
    def s_exponent(self):
        return 0.5 * (self.k + 2 * self.n)


def operator_for_sector(k, degree, m_label, mu):
    """Radial operator acting on the (degree, m_label) harmonic sector.

    The rotation term contributes +2 m_label mu when moved to the radial
    factor, so the operator's m parameter is the negated label; the k = 2
    polynomial audit pins this sign.
    """
    return RadialOperator(k=k, n=degree, m=-m_label, mu=mu)


# -- finite-volume Sturm-Liouville solver ---------------------------------------


@dataclass
class SpectrumReport:
    eigenvalues: np.ndarray
    error_bars: np.ndarray


def _assemble_grid(op, t_domain, bc, n_cells):
    a_rob, b_rob = bc
    h = t_domain / n_cells
    denom = a_rob / h + b_rob / 2.0
    if denom == 0.0:
        raise DegenerateBoundary(
            "Robin pair places the ghost value at infinity for this grid")
    rho = (a_rob / h - b_rob / 2.0) / denom
    s = op.s_exponent
    edges = np.arange(n_cells + 1) * h
    p = edges ** s
    # cell integrals of the weight t^(s-1) and of t^s are closed-form, which
    # keeps fractional exponents (odd center fibers) second order
    mass = np.diff(edges ** s) / s
    mom1 = np.diff(edges ** (s + 1.0)) / (s + 1.0)
    diag = (p[:-1] + p[1:]) / h
    diag[-1] = p[-2] / h + p[-1] * (1.0 - rho) / h
    off = -p[1:-1] / h
    const_pot = 2.0 * op.m * op.mu + 4.0 * op.mu ** 2
    diag = diag + 0.25 * (const_pot * mass + op.mu ** 2 * mom1)
    scale = 1.0 / np.sqrt(mass)
    return diag * scale * scale, off * scale[:-1] * scale[1:]


@cache
def _lapack():
    """scipy's LAPACK wrapper, loaded once at first use without the
    scipy.linalg package, whose import (~0.2 s on a 2-vCPU host) clones
    numpy.  The calls pass what eigh_tridiagonal and schur pass, so every
    bit is kept."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy").submodule_search_locations
    spec = importlib.machinery.PathFinder.find_spec(
        name, [os.path.join(scipy[0], "linalg")])
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
    # the extension put itself in sys.modules; taken out, so that a later
    # import of scipy.linalg binds its _flapack (with the same functions)
    return sys.modules.pop(name)


def _solve_grid(op, t_domain, bc, n_cells, count):
    """Leading ``count`` eigenvalues on one grid.  A float overflow or
    division by zero, a non-finite matrix or a solver that does not
    converge raises :class:`ConvergenceFailure`."""
    try:
        with np.errstate(all='ignore'):
            sym_diag, sym_off = _assemble_grid(op, t_domain, bc, n_cells)
    except (OverflowError, ZeroDivisionError) as exc:
        raise ConvergenceFailure(
            f"assembling the radial operator on {n_cells} cells failed: "
            f"{exc}") from exc
    if not (np.isfinite(sym_diag).all() and np.isfinite(sym_off).all()):
        raise ConvergenceFailure(
            f"the radial operator is not finite on {n_cells} cells")
    m, lam, _, _, info = _lapack().dstebz(sym_diag, sym_off, 2, 0.0, 1.0, 1,
                                          count, 0.0, 'E')
    if info:
        raise ConvergenceFailure(
            f"the tridiagonal eigensolver failed on {n_cells} cells "
            f"(LAPACK dstebz info={info})")
    return -4.0 * lam[:m]


def radial_spectrum(op, t_domain, bc=(0.0, 1.0), grid=128, count=6):
    """Leading ``count`` (1..``grid``) eigenvalues with one grid-doubling
    Richardson pass.

    The scheme is second order in the cell width, so lam = (4 lam_fine
    - lam_coarse)/3 and the spread between grids bounds the remaining
    error.  A spread exceeding ``MAX_SPREAD`` of the eigenvalue scale
    means the grid never reached the asymptotic regime.
    """
    grid = checked_integer("radial spectrum", "grid", grid, MIN_GRID)
    count = checked_integer("radial spectrum", "count", count, 1, grid)
    checked_real("radial spectrum", "t_domain", t_domain, 0)
    checked_integer("radial spectrum", "k", op.k, 0)
    checked_integer("radial spectrum", "n", op.n, 0)
    checked_integer("radial spectrum", "m", op.m)
    checked_real("radial spectrum", "mu", op.mu)
    if op.s_exponent <= 0:
        raise NonIntegrableWeight(
            "measure weight t^(s-1) needs s = (k + 2n)/2 > 0")
    if len(bc) != 2:
        raise DegenerateBoundary(
            f"radial spectrum needs bc as two entries (A, B), got {bc!r}")
    a_rob, b_rob = (checked_real("radial spectrum", "each bc entry", x,
                                 error=DegenerateBoundary) for x in bc)
    if a_rob == 0.0 and b_rob == 0.0:
        raise DegenerateBoundary("Robin pair (0, 0) fixes nothing")
    coarse = _solve_grid(op, t_domain, bc, grid, count)
    fine = _solve_grid(op, t_domain, bc, 2 * grid, count)
    with np.errstate(over='ignore', invalid='ignore'):
        extrap = (4.0 * fine - coarse) / 3.0
    if not np.isfinite(extrap).all():
        raise ConvergenceFailure("Richardson extrapolation overflows")
    spread = np.abs(fine - coarse)
    bars = BAR_SAFETY * spread / 3.0
    scale = np.maximum(np.abs(extrap), 1.0)
    worst = float(np.max(spread / scale))
    if worst > MAX_SPREAD:
        raise ConvergenceFailure(
            f"grid doubling moved an eigenvalue by {worst:.2e} relative")
    return SpectrumReport(eigenvalues=extrap, error_bars=bars)


# -- orthogonal conjugacy of complex structures ---------------------------------


@dataclass
class ConjugacyReport:
    orthogonal: np.ndarray
    residual: float
    rotation_speeds: np.ndarray


def _canonical_skew_frame(j):
    a = np.array(j, dtype=float, order='F')  # dgees overwrites it
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size \
            or not np.isfinite(a).all():
        raise NotComplexStructure(f"J is no finite square matrix: {a.shape}")
    gees = _lapack().dgees
    lwork = int(gees(lambda *_: 0, a, lwork=-1)[-2][0])
    t, _, _, _, u, _, info = gees(lambda *_: 0, a, lwork=lwork, overwrite_a=1)
    if info:
        raise ConvergenceFailure(f"no real Schur form of J: dgees info={info}")
    scale = max(1.0, float(np.max(np.abs(t))))
    blocks = []  # (rotation speed, columns) of each diagonal block of t
    i = 0
    while i < len(t):
        if i + 1 < len(t) and abs(t[i + 1, i]) > 1e-12 * scale:
            if t[i, i + 1] < 0:
                u[:, i + 1] = -u[:, i + 1]
            blocks.append((abs(t[i, i + 1]), [i, i + 1]))
            i += 2
        else:
            blocks.append((0.0, [i]))
            i += 1
    blocks.sort(key=lambda block: -block[0])  # stable: ties keep t's order
    return (u[:, [c for _, cols in blocks for c in cols]],
            np.array([b for b, _ in blocks]))


def conjugacy_check(j1, j2):
    """Orthogonal O with O J1 O^T = J2, via canonical skew normal forms.

    Raises SpectraDiffer when the rotation-speed multisets disagree; the
    returned residual is the max-norm defect of the conjugation.
    """
    u1, s1 = _canonical_skew_frame(j1)
    u2, s2 = _canonical_skew_frame(j2)
    if len(s1) != len(s2) or np.max(np.abs(s1 - s2)) > 1e-10:
        raise SpectraDiffer(f"rotation speeds differ: {s1} vs {s2}")
    o = u2 @ u1.T
    residual = float(np.max(np.abs(o @ np.asarray(j1, float) @ o.T
                                   - np.asarray(j2, float))))
    return ConjugacyReport(orthogonal=o, residual=residual,
                           rotation_speeds=s1)


# -- cross-member comparison -----------------------------------------------------


@dataclass
class IsospectralityReport:
    module_dim: int
    center_dim: int
    blocks: list
    isospectral: bool


def isospectrality_report(jmap_a, jmap_b, lattice_vectors, degrees=(0, 1, 2),
                          grid=128, mu_scale_b=1.0):
    """Compare the four leading eigenvalues of each lattice sector of the
    family members of two J-maps.

    Every cell pairs identical radial parameters, so equality is by
    construction; the numerical comparison is still carried out and
    reported.  ``mu_scale_b`` deliberately detunes the second member for
    negative controls.  J-maps on different bundles raise
    :class:`FamilyMismatch`, a lattice vector of irrational norm
    :class:`NotComplexStructure`, and a sector that does not converge a
    :class:`ConvergenceFailure` naming it.
    """
    ka, la = jmap_a.total_dim, jmap_a.center_dim
    kb, lb = jmap_b.total_dim, jmap_b.center_dim
    if (ka, la) != (kb, lb):
        raise FamilyMismatch(
            f"members live on different bundles: ({ka},{la}) vs ({kb},{lb})")
    grid = checked_integer("isospectrality report", "grid", grid, MIN_GRID)
    degrees = [checked_integer("isospectrality report", "degree", degree, 0)
               for degree in degrees]
    checked_real("isospectrality report", "mu_scale_b", mu_scale_b)
    if not degrees or len(lattice_vectors) == 0:
        raise InvalidSampling("no lattice vector or no degree to compare")
    # Lattice vectors on one ray share their unit J, and undetuned members
    # share every radial operator: build the bases of every degree once per
    # unit J and solve each operator once per call, keyed on content.
    top = max(degrees)
    bases, solved = {}, {}

    def basis(rows):
        key = tuple(map(tuple, rows))
        if key not in bases:
            bases[key] = build_hnm_basis(rows, top)
        return bases[key]

    def spectrum(op, jmap, z, degree, m):
        if op not in solved:
            try:
                solved[op] = radial_spectrum(op, 10.0, (0.0, 1.0), grid, 4)
            except ConvergenceFailure as exc:
                raise ConvergenceFailure(
                    f"{jmap.name}, lattice vector {z}, degree {degree}, "
                    f"m = {m}: {exc}") from exc
        return solved[op]

    # laplacian_symbol refuses an irrational norm, so every lattice vector
    # is checked before any build or solve and none drops out
    symbols = [(z, laplacian_symbol(jmap_a, z), laplacian_symbol(jmap_b, z))
               for z in lattice_vectors]
    blocks = []
    all_agree = True
    for z, sym_a, sym_b in symbols:
        conj = conjugacy_check(sym_a.j_matrix, sym_b.j_matrix)
        entry = {"z_gamma": [float(Fraction(x)) for x in z],
                 "mu": sym_a.mu,
                 "conjugacy_residual": conj.residual,
                 "cells": []}
        for degree in degrees:
            basis_a = basis(sym_a.j_unit_rows)[degree]
            basis_b = basis(sym_b.j_unit_rows)[degree]
            for m in sorted(set(basis_a.dims) | set(basis_b.dims)):
                dim_a = basis_a.dims.get(m, 0)
                dim_b = basis_b.dims.get(m, 0)
                op_a = operator_for_sector(ka, degree, m, sym_a.mu)
                op_b = operator_for_sector(kb, degree, m, sym_b.mu * mu_scale_b)
                rep_a = spectrum(op_a, jmap_a, z, degree, m)
                rep_b = spectrum(op_b, jmap_b, z, degree, m)
                diff = float(np.max(np.abs(rep_a.eigenvalues - rep_b.eigenvalues)))
                budget = float(np.max(rep_a.error_bars + rep_b.error_bars))
                agree = dim_a == dim_b and diff <= max(budget, 1e-12)
                all_agree = all_agree and agree
                entry["cells"].append({
                    "degree": degree, "m": m, "dim_a": dim_a, "dim_b": dim_b,
                    "eigenvalues_a": rep_a.eigenvalues,
                    "eigenvalues_b": rep_b.eigenvalues,
                    "max_difference": diff,
                    "agree": bool(agree)})
        blocks.append(entry)
    return IsospectralityReport(module_dim=ka, center_dim=la, blocks=blocks,
                                isospectral=all_agree)
