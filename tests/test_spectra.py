"""Radial spectral solver, bidegree bases and the conjugacy machinery."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
from numpy.testing import assert_allclose

from hmlab import spectra
from hmlab.cli import default_lattice
from hmlab.clifford import build_j_map
from hmlab.errors import (ConsistencyFailure, ConvergenceFailure,
                          DegenerateBoundary, DegreeTooHigh, FamilyMismatch,
                          InvalidSampling, NonIntegrableWeight,
                          NotComplexStructure, SpectraDiffer,
                          ZeroLatticeVector)
from hmlab.geometry import (constant_curvature_geometry, geometry_from_algebra,
                            scale_bracket)
from hmlab.polynomials import (CPoly, adapted_coordinates,
                               harmonic_projection, harmonic_space_dimension,
                               integer_j, monomials_of_degree, radius_square)
from hmlab.spectra import (RadialOperator, build_hnm_basis, conjugacy_check,
                           hnm_basis_for_lattice, hnm_multiplicity_oracle,
                           isospectrality_report, laplacian_symbol,
                           operator_for_sector, radial_spectrum)


def unit_j_rows(jmap, z):
    return laplacian_symbol(jmap, z).j_unit_rows


# -- lattice symbols -----------------------------------------------------------


def test_lattice_symbol_basics(hh3):
    sym = laplacian_symbol(hh3.jmap, (1, 2, 2))
    assert_allclose(sym.mu, 3.0 * math.pi)
    assert sym.j_unit_rows is not None
    j = np.array([[float(x) for x in row] for row in sym.j_unit_rows])
    assert_allclose(j @ j, -np.eye(8), atol=1e-14)


def test_lattice_symbol_irrational_norm(hh3):
    with pytest.raises(NotComplexStructure, match="irrational norm"):
        laplacian_symbol(hh3.jmap, (1, 1, 0))
    with pytest.raises(NotComplexStructure):
        hnm_basis_for_lattice(hh3.jmap, (1, 1, 0), 2)


def test_lattice_symbol_is_the_exact_j_of_the_vector(hh3, ns12):
    """J_Z summed over the center basis in Fractions: exact unit rows when
    |Z| is rational, their float image times |Z|, and mu = pi |Z|."""
    half = Fraction(1, 2)
    for geo in (hh3, ns12):
        gens = geo.jmap.all_j()
        for z, norm in (((1, 0, 0), 1), ((1, 2, 2), 3), ((0, 3, 4), 5),
                        ((half, 1, 1), Fraction(3, 2))):
            sym = laplacian_symbol(geo.jmap, z)
            j = [[sum(Fraction(za) * int(g[r, c]) for za, g in zip(z, gens))
                  for c in range(8)] for r in range(8)]
            assert sym.j_unit_rows == [[x / norm for x in row] for row in j]
            assert all(type(x) is Fraction
                       for row in sym.j_unit_rows for x in row)
            assert (sym.j_matrix == np.array(j, dtype=float)).all()
            assert sym.mu == math.pi * float(norm)


def test_zero_lattice_vector(hh3):
    with pytest.raises(ZeroLatticeVector):
        laplacian_symbol(hh3.jmap, (0, 0, 0))


def reference_lattice_symbol(jmap, z_gamma):
    """The Fraction path the integer one replaced: mu, J_Z built as a numpy
    object array of Fractions and converted to floats, and its rows over
    the rational |Z|."""
    z = [Fraction(x) for x in z_gamma]
    norm_sq = sum(x * x for x in z)
    norm = Fraction(math.isqrt(norm_sq.numerator),
                    math.isqrt(norm_sq.denominator))
    assert norm * norm == norm_sq
    j_raw = jmap.j_of(z)
    return (math.pi * math.sqrt(float(norm_sq)), j_raw.astype(float),
            [[x / norm for x in row] for row in j_raw])


def test_lattice_symbol_matches_the_fraction_path():
    """Both members of each center dimension on the lattice vectors isospec
    uses, and the 12-dim pair on Z = (3/5, 4/5, 0): the same mu, the same
    float J_Z bit for bit and the same exact unit rows."""
    cases = [(l, member, z) for l, pair in ((1, ((1, 0), (0, 1))),
                                            (2, ((1, 0), (0, 1))),
                                            (3, ((2, 0), (1, 1))))
             for member in pair for z in default_lattice(l)]
    cases += [(3, member, (Fraction(3, 5), Fraction(4, 5), 0))
              for member in ((2, 0), (1, 1))]
    for l, (a, b), z in cases:
        jmap = build_j_map(l, a, b)
        sym = laplacian_symbol(jmap, z)
        mu, j_matrix, unit_rows = reference_lattice_symbol(jmap, z)
        assert sym.mu == mu
        assert sym.j_matrix.dtype == j_matrix.dtype
        assert sym.j_matrix.tobytes() == j_matrix.tobytes()
        assert sym.j_unit_rows == unit_rows
        assert all(type(x) is Fraction for row in sym.j_unit_rows for x in row)


@pytest.mark.parametrize("z", [(1, 0), (1, 0, 0, 0), (1, 0, 0, 5)])
def test_lattice_vector_of_the_wrong_length_is_refused(z):
    """Too short once failed in numpy indexing, one zero too many was
    dropped and (1, 0, 0, 5) was refused for its norm."""
    with pytest.raises(InvalidSampling, match="needs 3 entries"):
        laplacian_symbol(build_j_map(3, 2, 0), z)


def reference_is_complex_structure(j_rows):
    """The Fraction check the integer one replaced."""
    j = [[Fraction(x) for x in row] for row in j_rows]
    k = len(j)
    skew = all(j[r][c] == -j[c][r] for r in range(k) for c in range(k))
    square = all(sum(j[r][t] * j[t][c] for t in range(k))
                 == (-1 if r == c else 0)
                 for r in range(k) for c in range(k))
    return skew and square


def test_the_integer_j_check_matches_the_fraction_check():
    """A unit J passes; a non-skew J with J^2 = -I, a skew J with
    J^2 = -2I and 2J are refused, by both checks alike."""
    jmap = build_j_map(3, 1, 1)
    unit = laplacian_symbol(jmap, (1, 2, 2)).j_unit_rows
    non_skew = np.kron(np.eye(4, dtype=int), [[1, -2], [1, -1]]).tolist()
    cases = [(unit, True), (non_skew, False),
             (jmap.j_of((1, 1, 0)).tolist(), False),
             ([[2 * x for x in row] for row in unit], False)]
    for rows, ok in cases:
        assert reference_is_complex_structure(rows) is ok
        if ok:
            spectra._check_complex_structure(integer_j(rows))
        else:
            with pytest.raises(NotComplexStructure):
                spectra._check_complex_structure(integer_j(rows))


# -- bidegree bases --------------------------------------------------------------


def test_bidegree_dimensions_for_both_members(hh3, ns12):
    """Same multiset of (m, dim) cells on the two module actions, and the
    total must exhaust the harmonic space."""
    expected = {3: {-3: 20, -1: 36, 1: 36, 3: 20},
                2: {-2: 10, 0: 15, 2: 10},
                1: {-1: 4, 1: 4},
                0: {0: 1}}
    for geo in (hh3, ns12):
        rows = unit_j_rows(geo.jmap, (1, 0, 0))
        for degree, basis in enumerate(build_hnm_basis(rows, 3)):
            assert basis.dims == expected[degree], (geo.name, degree)


def test_bidegree_against_eigen_oracle(hh3):
    rows = unit_j_rows(hh3.jmap, (0, 1, 0))
    bases = build_hnm_basis(rows, 3)
    for degree in (1, 2, 3):
        constructive = bases[degree].dims
        oracle = hnm_multiplicity_oracle(rows, degree)
        assert constructive == oracle


def test_bidegree_eigen_relation_is_exact(ns12):
    """Every basis element must satisfy D h = -i m_label h... the stored
    label convention is checked member by member against the operator."""
    rows = unit_j_rows(ns12.jmap, (1, 0, 0))
    basis = build_hnm_basis(rows, 2)[2]
    for m, polys in basis.per_m.items():
        for h in polys:
            rotated = h.rotation_derivative(integer_j(rows))
            assert rotated == h.scale(0, -m)


def dense_independent_subset(polys, monos):
    """Dense-vector elimination on exact (re, im) Fraction pairs over the
    monomials ``monos``, pivots re-sorted for every polynomial."""
    echelon = {}
    chosen = []
    for poly in polys:
        vec = [poly.coefficient(mono) for mono in monos]
        for col in sorted(echelon):
            if any(vec[col]):
                fr, fi = vec[col]
                vec = [(a - fr * c + fi * d, b - fr * d - fi * c)
                       for (a, b), (c, d) in zip(vec, echelon[col])]
        pivot = next((i for i, x in enumerate(vec) if any(x)), None)
        if pivot is None:
            continue
        lr, li = vec[pivot]
        norm = lr * lr + li * li
        echelon[pivot] = [((a * lr + b * li) / norm, (b * lr - a * li) / norm)
                          for a, b in vec]
        chosen.append(poly)
    return chosen


def factor_by_factor_bases(rows, degree):
    """Bidegree bases with each z^p zbar^q multiplied up from 1 one factor
    at a time and every projection eliminated densely: the build that
    products of lower degree and the z_d zbar_d rule replaced."""
    k = len(rows)
    zs = adapted_coordinates(integer_j(rows))
    zbars = [z.conjugate() for z in zs]
    d = len(zs)
    buckets = {}
    for total_p in range(degree + 1):
        for p in monomials_of_degree(d, total_p):
            for q in monomials_of_degree(d, degree - total_p):
                poly = CPoly.constant(k, 1)
                for i in range(d):
                    for _ in range(p[i]):
                        poly = poly * zs[i]
                    for _ in range(q[i]):
                        poly = poly * zbars[i]
                h = harmonic_projection(poly)
                if not h.is_zero():
                    buckets.setdefault(sum(q) - sum(p), []).append(h)
    monos = monomials_of_degree(k, degree)
    return {m: dense_independent_subset(polys, monos)
            for m, polys in sorted(buckets.items())}


def test_bidegree_bases_equal_the_factor_by_factor_build(hh3, ns12):
    """The bases from the monomials free of z_d zbar_d equal those that an
    elimination over every projected monomial keeps, as exact values."""
    cases = [(hh3.jmap, (1, 0, 0), 2), (ns12.jmap, (1, 0, 0), 2)]
    for l, members, lattice in ((1, ((1, 0), (2, 0), (1, 1)), ((1,), (2,))),
                                (2, ((1, 0),), ((1, 0), (3, 4)))):
        for a, b in members:
            cases += [(build_j_map(l, a, b), z, 4) for z in lattice]
    for jmap, z, top in cases:
        rows = unit_j_rows(jmap, z)
        for degree, basis in enumerate(build_hnm_basis(rows, top)):
            got = basis.per_m
            want = factor_by_factor_bases(rows, degree)
            label = (jmap.center_dim, jmap.pos, jmap.neg, z, degree)
            assert list(got) == list(want), label
            for m in want:
                assert got[m] == want[m], label + (m,)


# SHA-256 of canonical_bases_text(), taken from the bases built with one
# Fraction pair per coefficient before the integer-pair representation.
BASES_SHA256 = \
    "b8ca2eacdc41dee0aa40ebafa094aab6bba9b19a6232404ac682636ee124c18b"


def canonical_bases_text():
    """Both 12-dim members at (1,0,0) and (1,2,2) to degree 3, and the l = 1
    and l = 2 cases of the factor-by-factor comparison to degree 4: m keys
    and elements in order, each element as its nonzero coefficients on the
    sorted monomials, reduced re and im."""
    cases = [(3, a, b, z, 3) for a, b in ((2, 0), (1, 1))
             for z in ((1, 0, 0), (1, 2, 2))]
    for l, members, lattice in ((1, ((1, 0), (2, 0), (1, 1)), ((1,), (2,))),
                                (2, ((1, 0),), ((1, 0), (3, 4)))):
        cases += [(l, a, b, z, 4) for a, b in members for z in lattice]
    lines = []
    for l, a, b, z, top in cases:
        rows = unit_j_rows(build_j_map(l, a, b), z)
        for degree, basis in enumerate(build_hnm_basis(rows, top)):
            lines.append(f"case {l} {a} {b} {z} {degree}")
            monos = sorted(monomials_of_degree(len(rows), degree))
            for m, polys in basis.per_m.items():
                lines.append(f"m {m}")
                for h in polys:
                    lines.append(" ".join(
                        f"{mono}:{re}:{im}" for mono in monos
                        for re, im in [h.coefficient(mono)] if re or im))
    return "\n".join(lines)


def test_bidegree_bases_equal_the_pinned_digest():
    text = canonical_bases_text()
    assert len(text.splitlines()) == 1176
    assert hashlib.sha256(text.encode()).hexdigest() == BASES_SHA256


@pytest.mark.parametrize("degree, projections", [(2, 35), (3, 112)])
def test_bidegree_bases_project_only_what_they_keep(degree, projections,
                                                    monkeypatch):
    """On both 12-dim members every projection becomes a basis element:
    harmonic_space_dimension(8, degree) of them at the top degree, where
    projecting every z^p zbar^q would take 36 and 120."""
    calls = counting(monkeypatch, "harmonic_projection")
    for a, b in ((2, 0), (1, 1)):
        rows = unit_j_rows(build_j_map(3, a, b), (1, 2, 2))
        calls.clear()
        bases = build_hnm_basis(rows, degree)
        assert len(calls) == sum(basis.total_dim for basis in bases)
        assert bases[-1].total_dim == projections
        assert harmonic_space_dimension(8, degree) == projections


@pytest.mark.parametrize("nvars", [2, 4, 8])
def test_real_harmonics_keep_the_monomials_of_last_exponent_at_most_one(
        nvars):
    """The oracle's rule: eliminating over the projections of every real
    monomial in monomials_of_degree order keeps exactly the monomials whose
    last exponent is at most one."""
    for degree in range(4):
        monos = monomials_of_degree(nvars, degree)
        projected = {mono: harmonic_projection(CPoly(nvars, {mono: (1, 0)}))
                     for mono in monos}
        kept = dense_independent_subset(list(projected.values()), monos)
        assert kept == [projected[mono] for mono in monos if mono[-1] <= 1]


@pytest.mark.parametrize("j", [
    [[1, -2], [1, -1]],
    np.kron(np.eye(2, dtype=int), [[1, -2], [1, -1]]).tolist(),
    [[0, -2], [2, 0]],
    [[0, -1, 0], [1, 0, 0]],
])
def test_only_a_skew_square_root_of_minus_one_is_a_complex_structure(j):
    """J^2 = -I without J^T = -J (alone and as a 4x4 block diagonal), a
    skew J with J^2 = -4I, and rows longer than there are rows: the build
    and the oracle both refuse them, rather than failing a rotation check
    or returning multiplicities."""
    for degree in (1, 2):
        with pytest.raises(NotComplexStructure):
            build_hnm_basis(j, degree)
        with pytest.raises(NotComplexStructure):
            hnm_multiplicity_oracle(j, degree)


def test_bidegree_degree_cap(hh3):
    rows = unit_j_rows(hh3.jmap, (1, 0, 0))
    with pytest.raises(DegreeTooHigh):
        build_hnm_basis(rows, 7)


def test_negative_bidegree_degree_is_refused(hh3):
    """A negative degree is an InvalidSampling at every entry point, not an
    empty list, an IndexError or numpy's stacking error."""
    rows = unit_j_rows(hh3.jmap, (1, 0, 0))
    with pytest.raises(InvalidSampling):
        build_hnm_basis(rows, -1)
    with pytest.raises(InvalidSampling):
        hnm_basis_for_lattice(build_j_map(3, 2, 0), (1, 0, 0), -1)
    with pytest.raises(InvalidSampling):
        hnm_multiplicity_oracle(rows, -1)


# -- the radial operator and its sign audit --------------------------------------


def test_operator_for_sector_negates_the_label():
    op = operator_for_sector(8, 3, m_label=3, mu=0.25)
    assert op.m == -3
    assert op.k == 8 and op.n == 3
    assert op.s_exponent == (8 + 2 * 3) / 2


def diamond_coefficients(f_coeffs, k, n, m, mu):
    """Exact coefficients of the radial operator applied to a t-polynomial;
    with ``restricted_apply`` it pins the sign of
    ``spectra.operator_for_sector``."""
    f = [Fraction(x) for x in f_coeffs]
    mu = Fraction(mu)
    out = [Fraction(0)] * (len(f) + 1)
    for j, c in enumerate(f):
        if j >= 1:
            out[j - 1] += (4 * j * (j - 1) + (2 * k + 4 * n) * j) * c
        out[j] += -(2 * m * mu + 4 * mu * mu) * c
        out[j + 1] += -(mu * mu) * c
    while out and not out[-1]:
        out.pop()
    return out


def restricted_apply(f_coeffs, h_poly, mu, j_rows):
    """Exact application of the lattice-restricted operator to f(|X|^2) H;
    the side of the audit that pins the sign of
    ``spectra.operator_for_sector``."""
    t = radius_square(h_poly.nvars)
    big = polynomial_to_series(f_coeffs, h_poly)
    mu = Fraction(mu)
    lap = big.laplacian()
    rot = big.rotation_derivative(integer_j(j_rows)).scale(0, 2 * mu)
    pot = (big + (t * big).scale(Fraction(1, 4))).scale(-4 * mu * mu)
    return lap + rot + pot


def polynomial_to_series(coeffs, h_poly):
    """f(|X|^2) H, where ``coeffs`` are the coefficients of f in t = |X|^2;
    it states both sides of the sign audit."""
    k = h_poly.nvars
    t = radius_square(k)
    out = CPoly.constant(k, 0)
    t_pow = CPoly.constant(k, 1)
    for c in coeffs:
        out = out + (t_pow * h_poly).scale(c)
        t_pow = t_pow * t
    return out


def test_restricted_apply_matches_diamond_coefficients():
    """Apply the full flat operator to f(|X|^2) h and compare with the
    radial recursion; the match picks out exactly one sign of m."""
    jm = build_j_map(1, 1, 0)
    rows = [[Fraction(int(x)) for x in r] for r in jm.j_of_center_basis(0)]
    basis = build_hnm_basis(rows, 1)[1]
    (label, polys), = [(m, p) for m, p in basis.per_m.items() if m == 1]
    h = polys[0]
    f_coeffs = [Fraction(2), Fraction(-1), Fraction(1, 3)]   # f(t) = 2 - t + t^2/3
    mu = Fraction(1, 2)
    applied = restricted_apply(f_coeffs, h, mu, rows)
    good = diamond_coefficients(f_coeffs, k=2, n=1, m=-label, mu=mu)
    bad = diamond_coefficients(f_coeffs, k=2, n=1, m=label, mu=mu)
    assert (applied - polynomial_to_series(good, h)).is_zero()
    assert not (applied - polynomial_to_series(bad, h)).is_zero()


def test_restricted_apply_builds_the_product_it_replaced():
    """f(|X|^2) H through polynomial_to_series equals the t-power sum the
    operator used to build itself; exact arithmetic, so term for term."""
    jm = build_j_map(1, 1, 0)
    rows = [[Fraction(int(x)) for x in r] for r in jm.j_of_center_basis(0)]
    for polys in build_hnm_basis(rows, 2)[2].per_m.values():
        for h in polys:
            t = radius_square(h.nvars)
            f_coeffs = [Fraction(2), Fraction(0), Fraction(-3, 7)]
            f = CPoly.constant(h.nvars, 0)
            t_pow = CPoly.constant(h.nvars, 1)
            for c in f_coeffs:
                f = f + t_pow.scale(c)
                t_pow = t_pow * t
            assert polynomial_to_series(f_coeffs, h) == f * h


def test_hnm_basis_rotation_eigenvectors_are_checked(monkeypatch):
    """A basis element that is no rotation eigenvector raises."""
    jm = build_j_map(1, 1, 0)
    rows = [[Fraction(int(x)) for x in r] for r in jm.j_of_center_basis(0)]
    monkeypatch.setattr(CPoly, "rotation_derivative",
                        lambda self, j_rows: self)
    with pytest.raises(ConsistencyFailure, match="rotation eigenvector"):
        build_hnm_basis(rows, 1)


# -- eigenvalue solver ------------------------------------------------------------


def test_bessel_reference_case():
    """k=2 sector with no rotation: exact eigenvalues -j_{0,i}^2 / T."""
    t_domain = 10.0
    op = RadialOperator(k=2, n=0, m=0, mu=0.0)
    report = radial_spectrum(op, t_domain, bc=(0.0, 1.0), grid=256, count=5)
    zeros = scipy.special.jn_zeros(0, 5)
    exact = -(zeros ** 2) / t_domain
    for i in range(5):
        assert abs(report.eigenvalues[i] - exact[i]) <= report.error_bars[i] \
            + 1e-12, (i, report.eigenvalues[i], exact[i], report.error_bars[i])


def test_grid_doubling_stays_within_bars():
    op = RadialOperator(k=2, n=0, m=0, mu=0.0)
    coarse = radial_spectrum(op, 10.0, grid=128, count=4)
    fine = radial_spectrum(op, 10.0, grid=256, count=4)
    assert np.all(np.abs(coarse.eigenvalues - fine.eigenvalues)
                  <= coarse.error_bars + fine.error_bars + 1e-12)


def laguerre_eigenvalue(op, index):
    """Whole-space eigenvalue -mu (4N + k + 2n + 2m) - 4 mu^2; the exact
    reference that ``radial_spectrum`` is checked against."""
    return -op.mu * (4 * index + op.k + 2 * op.n + 2 * op.m) \
        - 4.0 * op.mu ** 2


def test_laguerre_reference_case():
    """Whole-space oscillator sector: lam_N = -mu(4N + k + 2n + 2m) - 4 mu^2."""
    # the second excited state grows like t^2 against exp(-t/4), so the
    # domain must be generous before truncation error drops below 1e-5
    op = RadialOperator(k=4, n=1, m=-1, mu=0.5)
    report = radial_spectrum(op, 80.0, bc=(0.0, 1.0), grid=1024, count=3)
    for i in range(3):
        exact = laguerre_eigenvalue(op, i)
        assert_allclose(report.eigenvalues[i], exact, rtol=1e-5)
    assert laguerre_eigenvalue(op, 0) == -0.5 * (4 + 2 * 1 - 2) - 1.0


def test_neumann_ground_state_is_flat():
    op = RadialOperator(k=2, n=0, m=0, mu=0.0)
    report = radial_spectrum(op, 10.0, bc=(1.0, 0.0), grid=128, count=3)
    assert abs(report.eigenvalues[0]) < 1e-9


def test_degenerate_boundary_pair():
    op = RadialOperator(k=2, n=0, m=0, mu=0.0)
    with pytest.raises(DegenerateBoundary):
        radial_spectrum(op, 10.0, bc=(0.0, 0.0))
    with pytest.raises(InvalidSampling):
        radial_spectrum(op, 10.0, grid=32)
    for count in (0, 65):
        with pytest.raises(InvalidSampling):
            radial_spectrum(op, 10.0, grid=64, count=count)
    with pytest.raises(NonIntegrableWeight):
        radial_spectrum(RadialOperator(k=0, n=0, m=0, mu=0.0), 10.0)


def test_unresolved_potential_raises():
    op = RadialOperator(k=2, n=0, m=0, mu=40.0)
    with pytest.raises(ConvergenceFailure):
        radial_spectrum(op, 10.0, grid=64)


@pytest.mark.parametrize("t_domain, mu, cause", [
    (1e-200, 0.0, "eigensolver failed"),
    (1e300, 0.0, "not finite"),
    (10.0, 1e200, "assembling the radial operator"),
    (5e-324, 0.0, "assembling the radial operator"),
    (10.0, 6e153, "Richardson extrapolation overflows"),
])
def test_extreme_finite_inputs_raise_convergence_failure(t_domain, mu, cause):
    """Each way a finite input leaves the float range is a typed failure:
    the solver's LinAlgError, a non-finite matrix, a float overflow, a cell
    width that underflows to zero, two finite grids whose extrapolation
    overflows."""
    op = RadialOperator(k=2, n=0, m=0, mu=mu)
    with pytest.raises(ConvergenceFailure, match=cause):
        radial_spectrum(op, t_domain, grid=64, count=2)


# -- conjugacy and isospectrality --------------------------------------------------


def test_conjugacy_of_the_two_module_actions(hh3, ns12):
    z = np.array([1.0, 2.0, 2.0])
    j1 = hh3.jmap.j_of(z).astype(float)
    j2 = ns12.jmap.j_of(z).astype(float)
    report = conjugacy_check(j1, j2)
    assert report.residual < 1e-10
    assert_allclose(report.rotation_speeds, 3.0, atol=1e-12)
    o = report.orthogonal
    assert_allclose(o @ o.T, np.eye(8), atol=1e-12)
    assert_allclose(o @ j1 @ o.T, j2, atol=1e-10)


def test_conjugacy_rejects_different_speeds(hh3, ns12):
    z = np.array([1.0, 2.0, 2.0])
    j1 = hh3.jmap.j_of(z).astype(float)
    j2 = 2.0 * ns12.jmap.j_of(z).astype(float)
    with pytest.raises(SpectraDiffer):
        conjugacy_check(j1, j2)


def test_isospectrality_of_the_pair(hh3, ns12):
    report = isospectrality_report(hh3, ns12, [(1, 0, 0), (1, 2, 2)],
                                   degrees=(0, 1), grid=128, count=3)
    assert report.isospectral
    assert report.module_dim == 8 and report.center_dim == 3
    for block in report.blocks:
        assert block["conjugacy_residual"] < 1e-10
        for cell in block["cells"]:
            assert cell["dim_a"] == cell["dim_b"]
            assert cell["agree"]


def test_isospectrality_report_needs_clifford_data(ch2):
    """A space form and a perturbed group carry no J-map, so neither can
    enter the comparison; the report says so with a typed error."""
    assert (ch2.jmap.total_dim, ch2.jmap.center_dim) == (2, 1)
    perturbed = geometry_from_algebra(scale_bracket(ch2.algebra, 0, 1, 1.25))
    for other in (constant_curvature_geometry(4), perturbed):
        assert other.jmap is None
        for pair in ((ch2, other), (other, ch2)):
            with pytest.raises(FamilyMismatch):
                isospectrality_report(*pair, [(1,)], degrees=(0,), count=2)


def test_hnm_basis_dimension_count_is_checked(hh3, monkeypatch):
    rows = unit_j_rows(hh3.jmap, (1, 0, 0))
    monkeypatch.setattr(spectra, "harmonic_space_dimension",
                        lambda k, degree: -1)
    with pytest.raises(ConsistencyFailure):
        build_hnm_basis(rows, 1)


def counting(monkeypatch, name):
    calls = []
    real = getattr(spectra, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(spectra, name, counted)
    return calls


def test_isospectrality_builds_and_solves_each_distinct_input_once(
        hh3, ns12, monkeypatch):
    """(2,0,0) has the unit J of (1,0,0), and one build covers every
    degree: 2 builds, one per member, not 12.  Undetuned members share every
    operator, so each of the 12 cells solves once; detuned, both members'
    operators are solved."""
    builds = counting(monkeypatch, "build_hnm_basis")
    solves = counting(monkeypatch, "radial_spectrum")
    lattice = [(1, 0, 0), (2, 0, 0)]
    report = isospectrality_report(hh3, ns12, lattice, degrees=(0, 1, 2),
                                   grid=64, count=2)
    assert report.isospectral
    cells = sum(len(block["cells"]) for block in report.blocks)
    assert cells == 12
    assert len(builds) == 2
    assert len(solves) == 12
    builds.clear()
    solves.clear()
    detuned = isospectrality_report(hh3, ns12, lattice, degrees=(0, 1, 2),
                                    grid=64, count=2, mu_scale_b=1.05)
    assert not detuned.isospectral
    assert len(builds) == 2
    assert len(solves) == 24


def test_isospec_checks_and_adapts_each_unit_structure_once(hh3, ns12,
                                                            monkeypatch):
    """isospec --max-degree 3 on the pair's default lattice meets four unit
    complex structures ((1,0,0) and (2,0,0) share theirs, on each member):
    each is checked and adapted once for all four degrees, not per degree."""
    checks = counting(monkeypatch, "_check_complex_structure")
    adapted = counting(monkeypatch, "adapted_coordinates")
    isospectrality_report(hh3, ns12, default_lattice(3),
                          degrees=tuple(range(4)), grid=64, count=2)
    assert len(checks) == len(adapted) == 4


def test_isospectrality_rejects_a_negative_degree(hh3, ns12):
    with pytest.raises(InvalidSampling, match="at least 0"):
        isospectrality_report(hh3, ns12, [(1, 0, 0)], degrees=(-1, 1))


@pytest.mark.parametrize("lattice", [[(1, 1, 0)], [(1, 0, 0), (1, 1, 0)]])
def test_isospectrality_refuses_an_irrational_norm_before_solving(
        hh3, ns12, lattice, monkeypatch):
    """(1,1,0) has norm sqrt(2), so no exact unit structure: the report
    raises before any build or solve instead of passing with no cells."""
    builds = counting(monkeypatch, "build_hnm_basis")
    solves = counting(monkeypatch, "radial_spectrum")
    with pytest.raises(NotComplexStructure, match="irrational norm"):
        isospectrality_report(hh3, ns12, lattice, degrees=(0, 1), grid=64,
                              count=2)
    assert builds == solves == []


def test_isospectrality_negative_control(hh3, ns12):
    report = isospectrality_report(hh3, ns12, [(1, 0, 0)], degrees=(1,),
                                   grid=128, count=3, mu_scale_b=1.05)
    assert not report.isospectral


def test_family_mismatch(hh2, hh3):
    with pytest.raises(FamilyMismatch):
        isospectrality_report(hh2, hh3, [(1, 0, 0)])
