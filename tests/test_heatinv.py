"""Heat-kernel coefficient machinery and the intrinsic sphere oracle."""

import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hmlab import geometry, heatinv
from hmlab.errors import FitIllConditioned
from hmlab.exactlinalg import rank
from hmlab.geometry import constant_curvature_geometry, curvature_jet
from hmlab.heatinv import (P3_WEIGHTS, _sphere_curvature_samples,
                           alpha2_cross_difference, alpha_beta_parts,
                           a2_integrand, a2_integrand_from_traces,
                           averaged_boundary_r3, boundary_decomposition,
                           boundary_polynomials, sphere_intrinsic_oracle,
                           structural_p_decompositions, structural_r3_table)
from hmlab.invariants import (point_invariants, random_directions,
                              sphere_average, beta_tensor)
from hmlab.radial import (density_series, harmonic_trace_c6, jacobi_series,
                          shape_trace_series)
from hmlab.series import TruncatedSeries


def test_interior_coefficient_dual_routes(all_spaces):
    """The scalar-curvature route and the trace route must agree exactly."""
    for geo in all_spaces.values():
        inv = point_invariants(geo)
        assert_allclose(a2_integrand(inv), a2_integrand_from_traces(inv),
                        rtol=1e-12)


def test_interior_coefficient_frozen_values(hh2, ns12):
    assert_allclose(a2_integrand(point_invariants(hh2)), 14.0, rtol=1e-10)
    assert_allclose(a2_integrand(point_invariants(ns12)), 49.4, rtol=1e-10)


def test_alpha_beta_averages(ns12, hh3):
    u = np.eye(12)[0]
    ab = alpha_beta_parts(ns12, u)
    n = 12
    pi = point_invariants(ns12)
    assert_allclose(ab.average_alpha2_direction,
                    3.0 * pi.grad_r_sq / (16 * n * (n + 2) * (n + 4)),
                    rtol=1e-12)
    # dual route for the beta average: exact pairing of the quartic tensor
    avg_beta_pairing = (4.0 / 9.0) * sphere_average(beta_tensor(ns12))
    assert_allclose(ab.average_beta2_direction, avg_beta_pairing, rtol=1e-9)
    # symmetric member: no direction dependence at all
    ab_sym = alpha_beta_parts(hh3, u)
    assert_allclose(ab_sym.average_alpha2_direction, 0.0, atol=1e-12)
    assert_allclose(ab_sym.alpha2_direction, 0.0, atol=1e-10)


def test_tr_rprime_average_is_sixteen_alpha_averages(all_spaces):
    """averaged_boundary_r3 reads the tr R'R' average as 16 times the alpha
    average; the power-of-two scaling reproduces the direct closed form
    bit for bit."""
    for geo in all_spaces.values():
        pi = point_invariants(geo)
        n = pi.dim
        alpha, _ = pi.alpha_beta_averages()
        assert 16.0 * alpha == 3.0 * pi.grad_r_sq / (n * (n + 2) * (n + 4))


def test_alpha_direction_part_has_the_right_average(ns12, rng):
    """Monte Carlo over directions must reproduce the exact average."""
    vals = []
    for _ in range(150):
        u = rng.standard_normal(12)
        u /= np.linalg.norm(u)
        vals.append(alpha_beta_parts(ns12, u).alpha2_direction)
    vals = np.array(vals)
    exact = alpha_beta_parts(ns12, np.eye(12)[0]).average_alpha2_direction
    se = vals.std() / math.sqrt(len(vals))
    assert abs(vals.mean() - exact) < 5 * se


def test_structural_table_is_exact_rationals():
    table = structural_r3_table(12)
    assert table["cube"]["C3"] == Fraction(-1, 27)
    assert table["cube"]["CH"] == Fraction(2 * 11, 45)
    assert table["cube"]["L"] == Fraction(-121, 5040)
    assert table["mixed"]["CH"] == Fraction(-1, 135)
    assert table["mixed"]["L"] == Fraction(11, 3780)
    assert table["pure_cube"]["L"] == Fraction(1, 30240)
    assert table["pure_cube"]["TrRpRp"] == Fraction(-1, 96)
    assert table["curv_sigma"]["L"] == Fraction(-1, 1440)
    assert table["curv_sigma"]["TrRpRp"] == Fraction(1, 96)


def test_p_weights_and_rank():
    assert P3_WEIGHTS["p3_dirichlet"] == (Fraction(40, 21), Fraction(-88, 7),
                                          Fraction(320, 21))
    assert P3_WEIGHTS["p3_neumann"] == (Fraction(40, 3), Fraction(8),
                                        Fraction(32, 3))
    assert rank([list(P3_WEIGHTS["p3_dirichlet"]),
                 list(P3_WEIGHTS["p3_neumann"])]) == 2


def test_p2_structural_slope_is_one_sixth():
    decomp = structural_p_decompositions(12)
    assert decomp["p2"]["TrRpRp"] == Fraction(1, 6)
    assert decomp["p3_dirichlet"]["TrRpRp"] == Fraction(-10, 63)
    assert decomp["p3_neumann"]["TrRpRp"] == Fraction(-1, 9)


def test_boundary_fit_snaps_to_structural_slopes(ns12):
    fits = boundary_decomposition(ns12, n_directions=12, seed=2)
    expected = {"p2": Fraction(1, 6), "p3_dirichlet": Fraction(-10, 63),
                "p3_neumann": Fraction(-1, 9)}
    for key, fit in fits.items():
        assert fit.slope_snapped == expected[key]
        assert fit.fit_residual < 1e-9
        assert_allclose(fit.intercept_fitted, fit.intercept_structural,
                        rtol=1e-8)
        assert_allclose(fit.slope_fitted, float(expected[key]), rtol=1e-8)


def per_direction_fits(geo, n_directions, seed):
    """Reference for ``boundary_decomposition``: the per-direction path it
    replaced, with one order-3 jet and one written-out series closure per
    direction, then the same normalized-mode affine fit.  Returns
    {key: (intercept, slope)}."""
    inv = point_invariants(geo)
    dirs = random_directions(geo.dim, n_directions,
                             np.random.default_rng(seed))
    per_dir = []
    for u in dirs:
        jet = curvature_jet(geo, u, order=3)
        dens = density_series(jacobi_series(jet, order=5),
                              trace_c6=harmonic_trace_c6(jet))
        shape = shape_trace_series(dens.a_series, jet, r4_trace=0.0)
        per_dir.append((jet, dens, shape))
    avg = TruncatedSeries(
        [np.mean([float(d.normalized.coefficient(k)) for _, d, _ in per_dir])
         for k in range(7)], offset=0)
    ps = np.array([float(np.trace(jet.matrices[1] @ jet.matrices[1]))
                   for jet, _, _ in per_dir])
    design = np.stack([np.ones_like(ps), ps], axis=1)
    out = {}
    for key in ("p2", "p3_dirichlet", "p3_neumann"):
        values = [boundary_polynomials(shape, inv, density=d.normalized,
                                       averaged_density=avg).r3[key]
                  for _, d, shape in per_dir]
        sol, *_ = np.linalg.lstsq(design, np.asarray(values), rcond=None)
        out[key] = (float(sol[0]), float(sol[1]))
    return out


def test_boundary_fit_matches_the_per_direction_reference(ns12):
    fits = boundary_decomposition(ns12, n_directions=12, seed=2)
    reference = per_direction_fits(ns12, 12, 2)
    assert set(fits) == set(reference)
    for key, (intercept, slope) in reference.items():
        assert_allclose(fits[key].intercept_fitted, intercept, rtol=1e-12)
        assert_allclose(fits[key].slope_fitted, slope, rtol=1e-12)


def recorded_jets(monkeypatch):
    """Record (order, shape of u) of every jet taken by heatinv or through
    the geometry module."""
    calls = []
    original = geometry.curvature_jet

    def counted(geo, u, order=3):
        calls.append((order, np.shape(u)))
        return original(geo, u, order=order)

    monkeypatch.setattr(heatinv, "curvature_jet", counted)
    monkeypatch.setattr(geometry, "curvature_jet", counted)
    return calls


def test_boundary_fit_takes_one_jet_for_all_directions(ns12, monkeypatch):
    """One batched order-3 jet serves every direction of the fit."""
    calls = recorded_jets(monkeypatch)
    boundary_decomposition(ns12, n_directions=12, seed=2)
    assert [c for c in calls if c[0] == 3] == [(3, (12, 12))]


def test_cross_difference_predicts_from_one_jet(ns12, monkeypatch):
    calls = recorded_jets(monkeypatch)
    alpha2_cross_difference(ns12, np.eye(12)[0], np.eye(12)[5],
                            radii=np.geomspace(0.1, 0.4, 4), powers=(2, 3),
                            steps_per_unit=64)
    assert calls == [(1, (2, 12))]


def test_boundary_fit_degenerates_on_symmetric_member(hh3):
    with pytest.raises(FitIllConditioned):
        boundary_decomposition(hh3, n_directions=8, seed=0)


def test_averaged_boundary_r3_distinguishes_the_pair(hh3, ns12):
    sym = averaged_boundary_r3(point_invariants(hh3))
    mixed = averaged_boundary_r3(point_invariants(ns12))
    # C, H, L agree across the pair, so the offsets are the slope times the
    # average of tr R'R', which vanishes only on the symmetric member
    n = 12
    avg_p = 3.0 * point_invariants(ns12).grad_r_sq / (n * (n + 2) * (n + 4))
    slopes = {"p2": Fraction(1, 6), "p3_dirichlet": Fraction(-10, 63),
              "p3_neumann": Fraction(-1, 9)}
    for key in sym:
        assert_allclose(mixed[key] - sym[key], float(slopes[key]) * avg_p,
                        rtol=1e-7)
        assert abs(mixed[key] - sym[key]) > 1e-3


def test_normalized_mode_with_matching_density_is_raw(hh2):
    """Dividing by the direction's own density must undo the multiplication."""
    u = np.eye(8)[2]
    inv = point_invariants(hh2)
    jet = curvature_jet(hh2, u, order=3)
    dens = density_series(jacobi_series(jet, order=5),
                          trace_c6=harmonic_trace_c6(jet))
    shape = shape_trace_series(dens.a_series, jet, r4_trace=0.0)
    raw = boundary_polynomials(shape, inv)
    cooked = boundary_polynomials(shape, inv, density=dens.normalized,
                                  averaged_density=dens.normalized)
    for key in raw.r3:
        assert_allclose(cooked.r3[key], raw.r3[key], rtol=1e-10)
    assert raw.decomposition != {}


def test_flat_space_sphere_curvature_is_exact():
    geo = constant_curvature_geometry(3, 0.0)
    u = np.array([1.0, 0.0, 0.0])
    _, ric_sq, riem_sq = _sphere_curvature_samples(geo, u, [0.5], 512)
    # round 2-sphere of radius 1/2: |Ric|^2 = 2/r^4, |R|^2 = 4/r^4
    assert_allclose(ric_sq, [32.0], rtol=1e-10)
    assert_allclose(riem_sq, [64.0], rtol=1e-10)


def test_round_sphere_distance_spheres():
    geo = constant_curvature_geometry(4, 1.0)
    u = np.eye(4)[0]
    r = 0.7
    _, ric_sq, _ = _sphere_curvature_samples(geo, u, [r], 2048)
    # distance sphere in S^4 is round S^3 of intrinsic curvature 1/sin^2 r
    expected_ric = 12.0 / math.sin(r) ** 4
    assert_allclose(ric_sq, [expected_ric], rtol=1e-9)


def test_flat_oracle_reads_off_the_inverse_quartic():
    geo = constant_curvature_geometry(4, 0.0)
    u = np.eye(4)[0]
    fit = sphere_intrinsic_oracle(geo, u, radii=np.geomspace(0.1, 0.5, 6),
                                  powers=(-4, -2, 0), steps_per_unit=512)
    # S^3(r): |Ric|^2 = 12/r^4, |R|^2 = 12/r^4
    assert_allclose(fit["ric_sq"][0], 12.0, rtol=1e-7)
    assert_allclose(fit["riem_sq"][0], 12.0, rtol=1e-7)
    assert_allclose(fit["ric_sq"][1:], 0.0, atol=1e-5)


def test_oracle_fit_does_not_depend_on_radius_order(ns12):
    """The oracles march once through the sorted radii, so a shuffled radius
    list gives the same samples and the same fit."""
    radii = np.geomspace(0.1, 0.5, 6)
    shuffled = radii[[3, 0, 5, 1, 4, 2]]
    u = np.eye(12)[4]
    fit = sphere_intrinsic_oracle(ns12, u, radii=radii, steps_per_unit=512)
    assert sphere_intrinsic_oracle(ns12, u, radii=shuffled,
                                   steps_per_unit=512) == fit
    u2 = np.eye(12)[9]
    assert (alpha2_cross_difference(ns12, u, u2, radii=shuffled,
                                    steps_per_unit=512)
            == alpha2_cross_difference(ns12, u, u2, radii=radii,
                                       steps_per_unit=512))


def test_oracle_rejects_underdetermined_fit(ns12):
    with pytest.raises(FitIllConditioned):
        sphere_intrinsic_oracle(ns12, np.eye(12)[0], radii=np.array([0.1, 0.2]),
                                powers=(-4, -2, 0))


def test_cross_direction_difference_recovers_alpha2(ns12):
    """Differencing two directions cancels the isotropic terms, leaving the
    (1/16) tr R'R' difference as the r^2 slope."""
    rng = np.random.default_rng(11)
    u1, u2 = rng.standard_normal((2, 12))
    u1 /= np.linalg.norm(u1)
    u2 /= np.linalg.norm(u2)
    fitted, predicted = alpha2_cross_difference(ns12, u1, u2)
    assert abs(predicted) > 1e-3   # the pair actually separates directions
    assert abs(fitted - predicted) < 0.05 * abs(predicted)
