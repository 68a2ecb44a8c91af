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

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (ConsistencyFailure, ConvergenceFailure,
                     DegenerateBoundary, DegreeTooHigh, FamilyMismatch,
                     InvalidSampling, NonIntegrableWeight, NotComplexStructure,
                     SpectraDiffer, ZeroLatticeVector)
from .polynomials import (CPoly, _over_one_denominator, adapted_coordinates,
                          harmonic_projection, harmonic_space_dimension,
                          integer_j, monomials_of_degree)

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
    if len(z_gamma) != jmap.center_dim:
        raise InvalidSampling(
            f"lattice vector {tuple(z_gamma)} needs {jmap.center_dim} "
            f"entries, one per center direction")
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
    nvars: int
    degree: int
    per_m: dict
    dims: dict
    total_dim: int


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
    degrees 0..``max_degree``: J is checked, and the adapted coordinates
    and the table of their products are built, once for all degrees.

    Monomials z^p zbar^q in the adapted coordinates are harmonically
    projected and grouped by the rotation eigenvalue m = sum(q_i - p_i).
    Only those free of z_d zbar_d are projected: P_(p,q) = H_(p,q) +
    |X|^2 P_(p-1,q-1) with |X|^2 = sum w_i z_i zbar_i, w_i > 0, so the kept
    projections are a basis.  Every element must be an exact rotation
    eigenvector and the dimension count across groups must reproduce the
    closed formula for homogeneous harmonics; a violation of either raises
    :class:`ConsistencyFailure`.
    """
    if max_degree < 0:
        raise InvalidSampling(f"degree must be at least 0, got {max_degree}")
    if max_degree > MAX_DEGREE:
        raise DegreeTooHigh(
            f"bidegree bases are capped at total degree {MAX_DEGREE}")
    j = integer_j(j_rows)
    _check_complex_structure(j)
    k = len(j_rows)
    zs = adapted_coordinates(j)
    factors = zs + [z.conjugate() for z in zs]
    d = len(zs)
    # z^p zbar^q keyed by the exponents p + q; each is the product one
    # factor lower times one more factor.  Products of the top degree are
    # used once, so only the lower ones are kept.
    products = {(0,) * (2 * d): CPoly.constant(k, 1)}

    def product(exps):
        if exps in products:
            return products[exps]
        i = max(j for j, e in enumerate(exps) if e)
        lower = exps[:i] + (exps[i] - 1,) + exps[i + 1:]
        poly = product(lower) * factors[i]
        if sum(exps) < max_degree:
            products[exps] = poly
        return poly

    bases = []
    for degree in range(max_degree + 1):
        buckets = {}
        for total_p in range(degree + 1):
            total_q = degree - total_p
            for p in monomials_of_degree(d, total_p):
                for q in monomials_of_degree(d, total_q):
                    if p[-1] and q[-1]:
                        continue
                    h = harmonic_projection(product(p + q))
                    if h.is_zero():
                        continue
                    buckets.setdefault(total_q - total_p, []).append(h)
        per_m = dict(sorted(buckets.items()))
        for m, basis in per_m.items():
            for h in basis:
                if h.rotation_derivative(j) != h.scale(0, -m):
                    raise ConsistencyFailure(
                        f"basis element of group m={m} is no rotation "
                        "eigenvector")
        dims = {m: len(basis) for m, basis in per_m.items()}
        total = sum(dims.values())
        expected = harmonic_space_dimension(k, degree)
        if total != expected:
            raise ConsistencyFailure(
                f"bidegree bases span {total} dimensions, harmonics need "
                f"{expected}")
        bases.append(HnmBasis(nvars=k, degree=degree, per_m=per_m,
                              dims=dims, total_dim=total))
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
    if degree < 0:
        raise InvalidSampling(f"degree must be at least 0, got {degree}")
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
    import scipy.linalg  # at first use: it adds ~0.1 s to every start-up
    try:
        lam = scipy.linalg.eigh_tridiagonal(
            sym_diag, sym_off, select='i', select_range=(0, count - 1),
            eigvals_only=True)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(
            f"the tridiagonal eigensolver failed on {n_cells} cells "
            f"({exc})") from exc
    return -4.0 * lam


def radial_spectrum(op, t_domain, bc=(0.0, 1.0), grid=128, count=6):
    """Leading ``count`` (1..``grid``) eigenvalues with one grid-doubling
    Richardson pass.

    The scheme is second order in the cell width, so lam = (4 lam_fine
    - lam_coarse)/3 and the spread between grids bounds the remaining
    error.  A spread exceeding ``MAX_SPREAD`` of the eigenvalue scale
    means the grid never reached the asymptotic regime.
    """
    if grid < MIN_GRID:
        raise InvalidSampling(f"grid must be at least {MIN_GRID} cells")
    if not 1 <= count <= grid:
        raise InvalidSampling(f"count must be in 1..{grid}, got {count}")
    if op.s_exponent <= 0:
        raise NonIntegrableWeight(
            "measure weight t^(s-1) needs s = (k + 2n)/2 > 0")
    if bc[0] == 0.0 and bc[1] == 0.0:
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
    import scipy.linalg  # at first use, as in _solve_grid
    t, u = scipy.linalg.schur(np.asarray(j, dtype=float), output='real')
    n = t.shape[0]
    scale = max(1.0, float(np.max(np.abs(t))))
    blocks = []
    i = 0
    while i < n:
        if i + 1 < n and abs(t[i + 1, i]) > 1e-12 * scale:
            b = t[i, i + 1]
            if b < 0:
                u[:, i + 1] = -u[:, i + 1]
                b = -b
            blocks.append((b, i))
            i += 2
        else:
            blocks.append((0.0, i))
            i += 1
    order = sorted(range(len(blocks)),
                   key=lambda idx: (-blocks[idx][0], idx))
    perm = []
    speeds = []
    for idx in order:
        b, start = blocks[idx]
        speeds.append(b)
        perm.append(start)
        if b > 0:
            perm.append(start + 1)
    return u[:, perm], np.array(speeds)


def conjugacy_check(j1, j2):
    """Orthogonal O with O J1 O^T = J2, via canonical skew normal forms.

    Raises SpectraDiffer when the rotation-speed multisets disagree; the
    returned residual is the max-norm defect of the conjugation.
    """
    u1, s1 = _canonical_skew_frame(j1)
    u2, s2 = _canonical_skew_frame(j2)
    if len(s1) != len(s2) or np.max(np.abs(s1 - s2)) > 1e-10:
        raise SpectraDiffer(
            f"rotation speeds differ: {s1} vs {s2}")
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


def isospectrality_report(member_a, member_b, lattice_vectors, degrees=(0, 1, 2),
                          grid=128, count=4, mu_scale_b=1.0):
    """Compare lattice-sector spectra of two family members.

    Every cell pairs identical radial parameters, so equality is by
    construction; the numerical comparison is still carried out and
    reported.  ``mu_scale_b`` deliberately detunes the second member for
    negative controls.  Both members need Clifford data (a ``jmap``); a
    space form or a perturbed group raises :class:`FamilyMismatch`, and a
    lattice vector of irrational norm :class:`NotComplexStructure`.
    """
    for member in (member_a, member_b):
        if member.jmap is None:
            raise FamilyMismatch(
                f"{member.name} carries no J-map, so it is no family member")
    ka, la = member_a.jmap.total_dim, member_a.jmap.center_dim
    kb, lb = member_b.jmap.total_dim, member_b.jmap.center_dim
    if (ka, la) != (kb, lb):
        raise FamilyMismatch(
            f"members live on different bundles: ({ka},{la}) vs ({kb},{lb})")
    if min(degrees, default=0) < 0:
        raise InvalidSampling(f"harmonic degrees must be at least 0: {degrees}")
    # Lattice vectors on one ray share their unit J, and undetuned members
    # share every radial operator: build the bases of every degree once per
    # unit J and solve each operator once per call, keyed on content.
    top = max(degrees, default=0)
    bases = {}
    solved = {}

    def basis(rows):
        key = tuple(map(tuple, rows))
        if key not in bases:
            bases[key] = build_hnm_basis(rows, top)
        return bases[key]

    def spectrum(op):
        if op not in solved:
            solved[op] = radial_spectrum(op, 10.0, (0.0, 1.0), grid, count)
        return solved[op]

    # laplacian_symbol refuses an irrational norm, so every lattice vector
    # is checked before any build or solve and none drops out
    symbols = [(z, laplacian_symbol(member_a.jmap, z),
                laplacian_symbol(member_b.jmap, z)) for z in lattice_vectors]
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
                rep_a = spectrum(op_a)
                rep_b = spectrum(op_b)
                diff = float(np.max(np.abs(rep_a.eigenvalues - rep_b.eigenvalues)))
                budget = float(np.max(rep_a.error_bars + rep_b.error_bars))
                agree = dim_a == dim_b and diff <= max(budget, 1e-12)
                all_agree = all_agree and agree
                entry["cells"].append({
                    "degree": degree, "m": m,
                    "dim_a": dim_a, "dim_b": dim_b,
                    "eigenvalues_a": rep_a.eigenvalues,
                    "eigenvalues_b": rep_b.eigenvalues,
                    "max_difference": diff,
                    "agree": bool(agree)})
        blocks.append(entry)
    return IsospectralityReport(module_dim=ka, center_dim=la, blocks=blocks,
                                isospectral=all_agree)
