"""Heat-kernel coefficient machinery and the intrinsic sphere oracle."""

import inspect
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hmlab import geometry, heatinv, radial
from hmlab.errors import InvalidSampling
from hmlab.exactlinalg import rank
from hmlab.geometry import constant_curvature_geometry, curvature_jet
from hmlab.heatinv import (P3_WEIGHTS, _sphere_curvature_series,
                           alpha2_cross_difference, averaged_boundary_r3,
                           sphere_intrinsic_oracle,
                           structural_p_decompositions, structural_r3_table)
from hmlab.invariants import (point_invariants, random_directions,
                              sphere_average, beta_tensor)
from hmlab.radial import (density_series, harmonic_trace_c6, jacobi_series,
                          shape_trace_series)
from hmlab.series import TruncatedSeries


def a2_integrand(inv):
    """Pointwise second interior heat coefficient integrand.

    (5 scal^2 - 2|Ric|^2 + 2|R|^2)/360 with scal = nC and |Ric|^2 = nC^2 on
    an Einstein space.
    """
    n, c = inv.dim, inv.c
    scal = n * c
    ric_sq = n * c * c
    return (5.0 * scal * scal - 2.0 * ric_sq + 2.0 * inv.norm_r_sq) / 360.0


def a2_integrand_from_traces(inv):
    """Same combination with |R|^2 folded through the H identity."""
    n, c, h = inv.dim, inv.c, inv.h
    return (5.0 * (n * c) ** 2 - 2.0 * n * c * c
            + (4.0 * n / 3.0) * ((n + 2) * h - c * c)) / 360.0


def boundary_polynomials(shape, inv, density=None, averaged_density=None):
    """r^3 coefficients of the boundary polynomials P2, P3 (Dirichlet) and
    P3 (Neumann) from one direction's transverse trace series.

    Given the direction's normalized ``density`` and the
    ``averaged_density``, each series is multiplied by their ratio before
    coefficient extraction; the ratio is one when the density is a radial
    function (the harmonic case), which leaves the raw traces.
    """
    n = inv.dim
    c = inv.c
    tr1 = shape.tr_sigma
    p2 = tr1.scale((20.0 * n - 8.0) * c) + shape.tr_curv_sigma.scale(16.0)
    cube = tr1 * tr1 * tr1
    mixed = tr1 * shape.tr_sigma_sq
    pure = shape.tr_sigma_cube
    series = {"p2": p2}
    for name, (w1, w2, w3) in P3_WEIGHTS.items():
        series[name] = cube.scale(float(w1)) + mixed.scale(float(w2)) \
            + pure.scale(float(w3))
    if density is not None and averaged_density is not None:
        factor = density * averaged_density.inverse()
        series = {k: (s * factor).truncate(3) for k, s in series.items()}
    return {k: float(s.coefficient(3)) for k, s in series.items()}


@dataclass
class AlphaBeta:
    """Direction-dependent parts of the sphere-expansion coefficients.

    The constant ("hatted") parts are deliberately absent: they are not
    displayed in closed form anywhere we trust, so cross-member comparison
    happens through fit intercepts.  ``average_*`` are the exact sphere
    averages of the direction parts.
    """

    direction: np.ndarray
    alpha2_direction: float
    beta2_direction: float
    average_alpha2_direction: float
    average_beta2_direction: float


def alpha_beta_parts(geometry, u):
    """Direction parts (1/16) tr R'R' and (4/9) beta along ``u``: the
    reference that ``PointInvariants.alpha_beta_averages`` is checked
    against."""
    u = np.asarray(u, dtype=float)
    jet = curvature_jet(geometry, u, order=1)
    r1 = jet.matrices[1]
    alpha_dir = float(np.trace(r1 @ r1)) / 16.0
    ru = jet.matrices[0]
    beta = float(np.einsum('jiqm,qi,mj->', geometry.r, ru, ru))
    beta_dir = 4.0 * beta / 9.0
    avg_alpha, avg_beta = point_invariants(geometry).alpha_beta_averages()
    return AlphaBeta(direction=u, alpha2_direction=alpha_dir,
                     beta2_direction=beta_dir,
                     average_alpha2_direction=avg_alpha,
                     average_beta2_direction=avg_beta)


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


def per_direction_fits(geo, n_directions, seed):
    """Affine fit of each boundary polynomial's r^3 coefficient against
    tr R'R' over random directions, with one order-3 jet and one written-out
    series closure per direction; each series is normalized by the
    direction-averaged density.  Returns {key: (intercept, slope, max
    residual)}."""
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
        values = np.array([boundary_polynomials(shape, inv, density=d.normalized,
                                                averaged_density=avg)[key]
                           for _, d, shape in per_dir])
        sol, *_ = np.linalg.lstsq(design, values, rcond=None)
        out[key] = (float(sol[0]), float(sol[1]),
                    float(np.max(np.abs(design @ sol - values))))
    return out


def test_boundary_fit_snaps_to_structural_slopes(ns12):
    """On a harmonic space only tr R'R' varies with direction, so each r^3
    coefficient is affine in it: the fitted slope snaps to the structural
    rational, and the intercept is the exact (C^3, CH, L) combination."""
    inv = point_invariants(ns12)
    c = Fraction(inv.c).limit_denominator(10 ** 9)
    h = Fraction(inv.h).limit_denominator(10 ** 9)
    lfrac = Fraction(inv.l).limit_denominator(10 ** 9)
    decomp = structural_p_decompositions(12)
    expected = {"p2": Fraction(1, 6), "p3_dirichlet": Fraction(-10, 63),
                "p3_neumann": Fraction(-1, 9)}
    fits = per_direction_fits(ns12, 12, 2)
    assert set(fits) == set(expected)
    for key, (intercept, slope, residual) in fits.items():
        basis = decomp[key]
        structural = float(basis["C3"] * c ** 3 + basis["CH"] * c * h
                           + basis["L"] * lfrac)
        assert Fraction(slope).limit_denominator(10000) == expected[key]
        assert residual < 1e-9
        assert_allclose(intercept, structural, rtol=1e-8)
        assert_allclose(slope, float(expected[key]), rtol=1e-8)


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


def test_cross_difference_predicts_from_one_jet(ns12, monkeypatch):
    calls = recorded_jets(monkeypatch)
    alpha2_cross_difference(ns12, np.eye(12)[0], np.eye(12)[5],)
    assert calls == [(1, (2, 12))]


def test_cross_difference_marches_both_directions_at_once(ns12, monkeypatch):
    """Both directions are taken as one flow series of shape (2, 12)."""
    shapes = []
    original = heatinv.flow_series

    def counted(geo, u, order):
        shapes.append(np.shape(u))
        return original(geo, u, order)

    monkeypatch.setattr(heatinv, "flow_series", counted)
    alpha2_cross_difference(ns12, np.eye(12)[0], np.eye(12)[5],)
    assert shapes == [(2, 12)]


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
    assert set(cooked) == set(raw)
    for key in raw:
        assert_allclose(cooked[key], raw[key], rtol=1e-10)


def test_flat_space_sphere_curvature_is_exact():
    geo = constant_curvature_geometry(3, 0.0)
    u = np.array([1.0, 0.0, 0.0])
    [(ric_sq, riem_sq)] = _sphere_curvature_series(geo, u, 3)
    # round 2-sphere of radius 1/2: |Ric|^2 = 2/r^4, |R|^2 = 4/r^4
    assert_allclose(ric_sq(0.5), 32.0, rtol=1e-10)
    assert_allclose(riem_sq(0.5), 64.0, rtol=1e-10)


def test_round_sphere_distance_spheres():
    geo = constant_curvature_geometry(4, 1.0)
    u = np.eye(4)[0]
    r = 0.7
    # the series converges for r < pi; through r^24 it is exact to ~1e-16
    [(ric_sq, _)] = _sphere_curvature_series(geo, u, 24)
    # distance sphere in S^4 is round S^3 of intrinsic curvature 1/sin^2 r
    expected_ric = 12.0 / math.sin(r) ** 4
    assert_allclose(ric_sq(r), expected_ric, rtol=1e-9)


def inverse_sine_fourth(kappa, top):
    """Exact Laurent coefficients of 1/sin^4 r (kappa = 1) or 1/sinh^4 r
    (kappa = -1) at the powers -4..top."""
    terms = [Fraction(0)] * (top + 5)
    for m in range(0, (top + 4) // 2 + 1):
        terms[2 * m] = Fraction((-kappa) ** m, math.factorial(2 * m + 1))
    sin_over_r = TruncatedSeries(terms)       # sin(r)/r or sinh(r)/r
    square = sin_over_r * sin_over_r
    return [Fraction(c) for c in (square * square).inverse().coeffs]


@pytest.mark.parametrize("kappa", [1, -1])
def test_space_form_sphere_series_is_exact(kappa):
    """On S^5 and H^5 the distance sphere of radius r is a round S^4 of
    curvature 1/sin^2 r (1/sinh^2 r), so with m = 4 the series are
    m(m-1)^2 and 2m(m-1) times the Laurent coefficients of 1/sin^4 r,
    read at the oracle's powers (-4, -2, 0, 1, 2, 3): 1, 2/3, 11/45, 0,
    62/945, 0 up to signs on H^5."""
    geo = constant_curvature_geometry(5, float(kappa))
    fit = sphere_intrinsic_oracle(geo, np.eye(5)[2])
    exact = inverse_sine_fourth(kappa, 3)
    assert exact[:7] == [1, 0, Fraction(2, 3) * kappa, 0, Fraction(11, 45), 0,
                         Fraction(62, 945) * kappa]
    m = 4
    want = [float(exact[p + 4]) for p in fit["powers"]]
    assert_allclose(fit["ric_sq"], np.multiply(m * (m - 1) ** 2, want),
                    rtol=1e-13, atol=1e-13)
    assert_allclose(fit["riem_sq"], np.multiply(2 * m * (m - 1), want),
                    rtol=1e-13, atol=1e-13)


def test_flat_oracle_reads_off_the_inverse_quartic():
    geo = constant_curvature_geometry(4, 0.0)
    u = np.eye(4)[0]
    fit = sphere_intrinsic_oracle(geo, u)
    # S^3(r): |Ric|^2 = 12/r^4, |R|^2 = 12/r^4
    assert fit["powers"] == [-4, -2, 0, 1, 2, 3]
    assert_allclose(fit["ric_sq"][0], 12.0, rtol=1e-12)
    assert_allclose(fit["riem_sq"][0], 12.0, rtol=1e-12)
    assert_allclose(fit["ric_sq"][1:], 0.0, atol=1e-12)
    assert_allclose(fit["riem_sq"][1:], 0.0, atol=1e-12)


def test_oracles_take_only_the_geometry_and_directions():
    """The series order follows from the highest power each oracle returns:
    no radii, powers, order or step count comes from the caller."""
    assert list(inspect.signature(alpha2_cross_difference).parameters) == \
        ["geometry", "u1", "u2"]
    assert list(inspect.signature(sphere_intrinsic_oracle).parameters) == \
        ["geometry", "u"]


def refuse_before_the_march(monkeypatch, oracle, *args):
    """The oracle raises InvalidSampling before any march or flow series."""
    calls = []
    monkeypatch.setattr(radial, "_jacobi_flow", lambda *a: calls.append(a))
    monkeypatch.setattr(heatinv, "flow_series", lambda *a: calls.append(a))
    with pytest.raises(InvalidSampling):
        oracle(*args)
    assert calls == []


@pytest.mark.parametrize("u", [np.eye(12)[:2], np.eye(12)[:1], np.eye(11)[0],
                               np.float64(1.0)])
def test_intrinsic_oracle_refuses_anything_but_one_direction(ns12, u,
                                                             monkeypatch):
    """A batch used to run the whole march and then end in a bare numpy
    LinAlgError from the fit ("3-dimensional array given"); now it would
    return a batch of series where one is promised."""
    refuse_before_the_march(monkeypatch, sphere_intrinsic_oracle, ns12, u)


@pytest.mark.parametrize("pair", [
    (np.eye(12)[0], np.eye(13)[0]),             # shapes (n,) and (n + 1,)
    (np.eye(13)[0], np.eye(12)[0]),
    (np.eye(12)[0], 2.0 * np.eye(12)[1]),       # a speed-2 u2
], ids=["n-then-long", "long-then-n", "speed-2"])
def test_cross_difference_refuses_anything_but_two_unit_directions(
        ns12, pair, monkeypatch):
    """Two directions of different shapes used to end in numpy's bare
    ValueError while stacking them; a speed-2 direction would give the
    series of another geodesic speed."""
    refuse_before_the_march(monkeypatch, alpha2_cross_difference, ns12, *pair)


def test_cross_direction_difference_recovers_alpha2(ns12):
    """Differencing two directions cancels the isotropic terms, leaving the
    (1/16) tr R'R' difference as the r^2 coefficient, to 1e-10 relative
    (the fit it replaced was 1.5% off)."""
    rng = np.random.default_rng(11)
    u1, u2 = rng.standard_normal((2, 12))
    u1 /= np.linalg.norm(u1)
    u2 /= np.linalg.norm(u2)
    difference, predicted = alpha2_cross_difference(ns12, u1, u2)
    assert abs(predicted) > 1e-3   # the pair actually separates directions
    assert abs(difference - predicted) < 1e-10 * abs(predicted)
