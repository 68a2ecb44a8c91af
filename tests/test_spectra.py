"""Radial spectral solver, bidegree bases and the conjugacy machinery."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
from numpy.testing import assert_allclose

from hmlab import spectra
from hmlab.clifford import build_j_map
from hmlab.errors import (ConsistencyFailure, ConvergenceFailure,
                          DegenerateBoundary, DegreeTooHigh, FamilyMismatch,
                          InvalidSampling, NonIntegrableWeight,
                          NotComplexStructure, SpectraDiffer,
                          ZeroLatticeVector)
from hmlab.geometry import (constant_curvature_geometry, geometry_from_algebra,
                            scale_bracket)
from hmlab.polynomials import (CPoly, CRat, adapted_coordinates,
                               harmonic_projection, harmonic_space_dimension,
                               monomials_of_degree, radius_square)
from hmlab.spectra import (RadialOperator, ball_bundle_spectrum,
                           build_hnm_basis, conjugacy_check,
                           diamond_coefficients, glz_parameter_map,
                           hnm_basis_for_lattice, hnm_multiplicity_oracle,
                           isospectrality_report, laguerre_eigenvalue,
                           laplacian_symbol, operator_for_sector,
                           polynomial_to_series, radial_spectrum,
                           restricted_apply)


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
    sym = laplacian_symbol(hh3.jmap, (1, 1, 0))
    assert sym.j_unit_rows is None
    with pytest.raises(NotComplexStructure):
        hnm_basis_for_lattice(hh3.jmap, (1, 1, 0), 2)


def test_zero_lattice_vector(hh3):
    with pytest.raises(ZeroLatticeVector):
        laplacian_symbol(hh3.jmap, (0, 0, 0))


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
        for degree in range(4):
            basis = build_hnm_basis(rows, degree)
            assert basis.dims == expected[degree], (geo.name, degree)


def test_bidegree_against_eigen_oracle(hh3):
    rows = unit_j_rows(hh3.jmap, (0, 1, 0))
    for degree in (1, 2, 3):
        constructive = build_hnm_basis(rows, degree).dims
        oracle = hnm_multiplicity_oracle(rows, degree)
        assert constructive == oracle


def test_bidegree_eigen_relation_is_exact(ns12):
    """Every basis element must satisfy D h = -i m_label h... the stored
    label convention is checked member by member against the operator."""
    rows = unit_j_rows(ns12.jmap, (1, 0, 0))
    basis = build_hnm_basis(rows, 2)
    for m, polys in basis.per_m.items():
        for h in polys:
            rotated = h.rotation_derivative(rows)
            target = h.scale(CRat(Fraction(0), Fraction(-m)))
            assert (rotated - target).is_zero()


def dense_independent_subset(polys, monomial_index):
    """Dense-vector elimination, pivots re-sorted for every polynomial."""
    echelon = {}
    chosen = []
    for poly in polys:
        vec = poly.coefficient_vector(monomial_index)
        for col in sorted(echelon):
            if vec[col]:
                factor = vec[col]
                vec = [a - factor * b for a, b in zip(vec, echelon[col])]
        pivot = next((i for i, x in enumerate(vec) if x), None)
        if pivot is None:
            continue
        lead = vec[pivot]
        echelon[pivot] = [x / lead for x in vec]
        chosen.append(poly)
    return chosen


def factor_by_factor_bases(rows, degree):
    """Bidegree bases with each z^p zbar^q multiplied up from 1 one factor
    at a time and every projection eliminated densely: the build that
    products of lower degree and the z_d zbar_d rule replaced."""
    k = len(rows)
    zs = adapted_coordinates(rows)
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
    index = {mono: i for i, mono in enumerate(monomials_of_degree(k, degree))}
    return {m: dense_independent_subset(polys, index)
            for m, polys in sorted(buckets.items())}


def test_bidegree_bases_equal_the_factor_by_factor_build(hh3, ns12):
    """The bases from the monomials free of z_d zbar_d equal those that an
    elimination over every projected monomial keeps, term for term."""
    cases = [(hh3.jmap, (1, 0, 0), 2), (ns12.jmap, (1, 0, 0), 2)]
    for l, members, lattice in ((1, ((1, 0), (2, 0), (1, 1)), ((1,), (2,))),
                                (2, ((1, 0),), ((1, 0), (3, 4)))):
        for a, b in members:
            cases += [(build_j_map(l, a, b), z, 4) for z in lattice]
    for jmap, z, top in cases:
        rows = unit_j_rows(jmap, z)
        for degree in range(top + 1):
            got = build_hnm_basis(rows, degree).per_m
            want = factor_by_factor_bases(rows, degree)
            label = (jmap.center_dim, jmap.pos, jmap.neg, z, degree)
            assert list(got) == list(want), label
            for m in want:
                assert [h.terms for h in got[m]] == \
                    [h.terms for h in want[m]], label + (m,)


@pytest.mark.parametrize("degree, projections", [(2, 35), (3, 112)])
def test_bidegree_bases_project_only_what_they_keep(degree, projections,
                                                    monkeypatch):
    """On both 12-dim members every projection becomes a basis element:
    harmonic_space_dimension(8, degree) of them, where projecting every
    z^p zbar^q would take 36 and 120."""
    calls = counting(monkeypatch, "harmonic_projection")
    for a, b in ((2, 0), (1, 1)):
        rows = unit_j_rows(build_j_map(3, a, b), (1, 2, 2))
        calls.clear()
        basis = build_hnm_basis(rows, degree)
        assert len(calls) == basis.total_dim == projections
        assert harmonic_space_dimension(8, degree) == projections


@pytest.mark.parametrize("nvars", [2, 4, 8])
def test_real_harmonics_keep_the_monomials_of_last_exponent_at_most_one(
        nvars):
    """The oracle's rule: eliminating over the projections of every real
    monomial in monomials_of_degree order keeps exactly the monomials whose
    last exponent is at most one."""
    for degree in range(4):
        monos = monomials_of_degree(nvars, degree)
        index = {mono: i for i, mono in enumerate(monos)}
        projected = {mono: harmonic_projection(CPoly(nvars, {mono: CRat(1)}))
                     for mono in monos}
        kept = dense_independent_subset(list(projected.values()), index)
        assert kept == [projected[mono] for mono in monos if mono[-1] <= 1]


def test_bidegree_degree_cap(hh3):
    rows = unit_j_rows(hh3.jmap, (1, 0, 0))
    with pytest.raises(DegreeTooHigh):
        build_hnm_basis(rows, 7)


# -- the radial operator and its sign audit --------------------------------------


def test_operator_for_sector_negates_the_label():
    op = operator_for_sector(8, 3, m_label=3, mu=0.25)
    assert op.m == -3
    assert op.k == 8 and op.n == 3
    assert op.s_exponent == (8 + 2 * 3) / 2


def test_restricted_apply_matches_diamond_coefficients():
    """Apply the full flat operator to f(|X|^2) h and compare with the
    radial recursion; the match picks out exactly one sign of m."""
    jm = build_j_map(1, 1, 0)
    rows = [[Fraction(int(x)) for x in r] for r in jm.j_of_center_basis(0)]
    basis = build_hnm_basis(rows, 1)
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
    for polys in build_hnm_basis(rows, 2).per_m.values():
        for h in polys:
            t = radius_square(h.nvars)
            f_coeffs = [Fraction(2), Fraction(0), Fraction(-3, 7)]
            f = CPoly.constant(h.nvars, 0)
            t_pow = CPoly.constant(h.nvars, 1)
            for c in f_coeffs:
                f = f + t_pow.scale(CRat(c))
                t_pow = t_pow * t
            assert (polynomial_to_series(f_coeffs, h).terms
                    == (f * h).terms)


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
    assert (ch2.module_dim, ch2.center_dim) == (2, 1)
    perturbed = geometry_from_algebra(scale_bracket(ch2.algebra, 0, 1, 1.25))
    for other in (constant_curvature_geometry(4), perturbed):
        assert (other.jmap, other.module_dim, other.center_dim) == \
            (None, None, None)
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
    """(2,0,0) has the unit J of (1,0,0): 2 members x 3 degrees = 6 builds,
    not 12.  Undetuned members share every operator, so each of the 12
    cells solves once; detuned, both members' operators are solved."""
    builds = counting(monkeypatch, "build_hnm_basis")
    solves = counting(monkeypatch, "radial_spectrum")
    lattice = [(1, 0, 0), (2, 0, 0)]
    report = isospectrality_report(hh3, ns12, lattice, degrees=(0, 1, 2),
                                   grid=64, count=2)
    assert report.isospectral
    cells = sum(len(block["cells"]) for block in report.blocks)
    assert cells == 12
    assert len(builds) == 6
    assert len(solves) == 12
    builds.clear()
    solves.clear()
    detuned = isospectrality_report(hh3, ns12, lattice, degrees=(0, 1, 2),
                                    grid=64, count=2, mu_scale_b=1.05)
    assert not detuned.isospectral
    assert len(builds) == 6
    assert len(solves) == 24


def test_isospectrality_negative_control(hh3, ns12):
    report = isospectrality_report(hh3, ns12, [(1, 0, 0)], degrees=(1,),
                                   grid=128, count=3, mu_scale_b=1.05)
    assert not report.isospectral


def test_family_mismatch(hh2, hh3):
    with pytest.raises(FamilyMismatch):
        isospectrality_report(hh2, hh3, [(1, 0, 0)])


# -- center-ball quantization ------------------------------------------------------


def test_interval_quantization_for_one_dimensional_center():
    """Dirichlet modes of [-R, R] split by parity over the two angular
    sectors; together the mu values must walk j pi / (4R)."""
    radius = 1.0
    entries = ball_bundle_spectrum(center_dim=1, z_radius=radius, k=2,
                                   degree=0, m_label=0, angular_max=1,
                                   per_mode=2, grid=256)
    mus = sorted(e.mu for e in entries)
    expected = sorted((j * math.pi / (2 * radius)) / 2 for j in (1, 2, 3, 4))
    assert_allclose(mus, expected, rtol=5e-3)
    for e in entries:
        assert e.x_eigenvalues.shape[0] >= 1


def test_neumann_center_ground_mode_collapses():
    entries = ball_bundle_spectrum(center_dim=1, z_radius=1.0, k=2,
                                   degree=0, m_label=0, angular_max=0,
                                   per_mode=1, bc_z=(1.0, 0.0), grid=128)
    # the center ground eigenvalue is zero only up to solver error, so mu
    # comes out at sqrt(solver error) scale rather than exactly zero
    assert abs(entries[0].mu) < 1e-4
    flat = RadialOperator(k=2, n=0, m=0, mu=0.0)
    direct = radial_spectrum(flat, 10.0, grid=128, count=4)
    assert_allclose(entries[0].x_eigenvalues, direct.eigenvalues, atol=1e-3)


def test_magnetic_dictionary():
    m = glz_parameter_map(charge=2.0, field_strength=3.0, mass=1.5,
                          light_speed=137.0, hbar=1.0)
    assert m.consistent
    assert_allclose(m.mu, 2.0 * 3.0 / (2 * 1.0 * 137.0))
