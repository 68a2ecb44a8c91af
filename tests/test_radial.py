"""Density and shape-operator series against closed-form radial oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hmlab.errors import (InvalidSampling, OrderUnsupported, StepFailure,
                          ZeroLeadingCoefficient)
from hmlab.geometry import curvature_jet
from hmlab.heatinv import _sphere_curvature_samples
from hmlab.invariants import direction_constants, point_invariants
from hmlab.series import TruncatedSeries
from hmlab.radial import (density_series, extend_with_trace,
                          harmonic_shape_expectations, harmonic_trace_c6,
                          jacobi_series, ode_oracle,
                          peel_coefficients, radial_density,
                          shape_trace_series, vk_recursion, volume_series)


def poly_mul(a, b, top):
    """Plain exact convolution, kept local so the oracle owes nothing to
    the series class under test."""
    out = [Fraction(0)] * (top + 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            if i + j <= top:
                out[i + j] += ai * bj
    return out


def sin_over_r_power(exponent, top):
    base = [Fraction(0)] * (top + 1)
    for m in range(0, top // 2 + 1):
        base[2 * m] = Fraction((-1) ** m, math.factorial(2 * m + 1))
    acc = [Fraction(1)] + [Fraction(0)] * top
    for _ in range(exponent):
        acc = poly_mul(acc, base, top)
    return acc


def test_sphere_density_matches_cubed_sinc(sphere4):
    dens = radial_density(sphere4, np.eye(4)[0])
    oracle = sin_over_r_power(3, 6)
    for k in range(7):
        assert_allclose(dens.coefficient(k), float(oracle[k]), atol=1e-12)


def test_hyperbolic_density_flips_signs():
    from hmlab.geometry import constant_curvature_geometry
    geo = constant_curvature_geometry(4, -1.0)
    dens = radial_density(geo, np.eye(4)[1])
    oracle = sin_over_r_power(3, 6)
    for k in range(7):
        # sinh expansion: same magnitudes, all positive
        assert_allclose(dens.coefficient(k), abs(float(oracle[k])), atol=1e-12)


def test_density_is_even(hh2):
    u = np.eye(8)[0]
    dens = radial_density(hh2, u)
    for k in (1, 3, 5):
        assert abs(dens.coefficient(k)) < 1e-13
    assert dens.coefficient(0) == 1.0
    assert dens.density.offset == 7   # r^(n-1) prefactor


def test_jacobi_series_order_guard(hh2):
    jet = curvature_jet(hh2, np.eye(8)[0], order=1)
    with pytest.raises(OrderUnsupported):
        jacobi_series(jet, order=4)   # needs jet order >= 2
    with pytest.raises(OrderUnsupported):
        jacobi_series(curvature_jet(hh2, np.eye(8)[0], order=3), order=6)


def test_shape_traces_on_the_round_sphere(sphere4):
    u = np.eye(4)[0]
    jet = curvature_jet(sphere4, u, order=3)
    a = jacobi_series(jet, order=5)
    # the r^5 trace coefficients need the r^6 trace closure of the series
    dens = density_series(a, trace_c6=harmonic_trace_c6(jet))
    traces = shape_trace_series(dens.a_series, jet, r4_trace=0.0)
    # transverse part of the shape operator is cot(r) times identity:
    # 3 cot r = 3/r - r - r^3/15 - 2 r^5/315
    assert_allclose(traces.tr_sigma.coefficient(-1), 3.0, atol=1e-13)
    assert_allclose(traces.tr_sigma.coefficient(1), -1.0, atol=1e-13)
    assert_allclose(traces.tr_sigma.coefficient(3), -1.0 / 15.0, atol=1e-13)
    assert_allclose(traces.tr_sigma.coefficient(5), -2.0 / 315.0, atol=1e-12)
    expect = harmonic_shape_expectations(4, 3.0, 3.0, 96.0, 0.0)
    for name in ("tr_sigma", "tr_sigma_sq", "tr_sigma_cube", "tr_curv_sigma"):
        series = getattr(traces, name)
        for power, value in expect[name].items():
            assert_allclose(series.coefficient(power), value, atol=1e-12,
                            err_msg=f"{name} at r^{power}")


def test_shape_trace_table_on_quaternionic_member(hh2):
    """The frozen coefficient table must reproduce every computed trace."""
    pi = point_invariants(hh2)
    u = np.eye(8)[3]
    jet = curvature_jet(hh2, u, order=3)
    dc = direction_constants(hh2, u)
    p = float(np.trace(jet.matrices[1] @ jet.matrices[1]))
    dens = density_series(jacobi_series(jet, order=5),
                          trace_c6=harmonic_trace_c6(jet))
    traces = shape_trace_series(dens.a_series, jet, r4_trace=0.0)
    expect = harmonic_shape_expectations(8, pi.c, pi.h, pi.l, p)
    assert_allclose(dc.c, pi.c, rtol=1e-12)
    for name, table in expect.items():
        series = getattr(traces, name)
        for power, value in table.items():
            assert_allclose(series.coefficient(power), value, rtol=1e-9,
                            atol=1e-12, err_msg=f"{name} at r^{power}")


def test_curv_sigma_r3_varies_with_direction(ns12):
    """On the mixed-signature member tr R'R' depends on the direction, and
    the r^3 coefficient of tr(R_nu sigma) must track it exactly."""
    pi = point_invariants(ns12)
    rng = np.random.default_rng(4)
    for _ in range(4):
        u = rng.standard_normal(12)
        u /= np.linalg.norm(u)
        jet = curvature_jet(ns12, u, order=3)
        p = float(np.trace(jet.matrices[1] @ jet.matrices[1]))
        a = jacobi_series(jet, order=5)
        traces = shape_trace_series(a, jet, r4_trace=0.0)
        assert_allclose(traces.tr_curv_sigma.coefficient(3),
                        -pi.l / 1440.0 + p / 96.0, rtol=1e-8)


def test_volume_quotient_recursion_matches_series_division():
    coeffs = [Fraction(1), Fraction(0), Fraction(-1, 2), Fraction(0),
              Fraction(13, 120), Fraction(0), Fraction(-41, 3024)]
    n = 4
    vk = vk_recursion(coeffs, n, 7)
    from hmlab.series import TruncatedSeries
    dens = TruncatedSeries([float(c) for c in coeffs], offset=0)
    area, ball = volume_series(dens, n)
    quotient = ball * area.inverse()
    assert quotient.offset == 1
    for k, v in enumerate(vk):
        assert_allclose(float(v), quotient.coefficient(k + 1), atol=1e-13)


def test_vk_leading_coefficient_guard():
    with pytest.raises(ZeroLeadingCoefficient):
        vk_recursion([Fraction(0), Fraction(1)], 4, 3)


def test_ode_oracle_matches_series_on_quaternionic_member(hh2):
    u = np.eye(8)[5]
    dens = radial_density(hh2, u)
    radii = np.array([0.1, 0.15, 0.2, 0.3])
    ode = ode_oracle(hh2, u, radii, steps_per_unit=2048)
    series_vals = np.array([dens.normalized(r) for r in radii])
    assert_allclose(ode.theta_normalized, series_vals, rtol=2e-6)


def restart_flow(geometry, u, r_target, steps_per_unit):
    """Flow state (u, q, a, b) at one radius by an RK4 run from r = 0.

    The path the single march replaced: every radius restarts at r = 0 and
    takes max(16, ceil(r * steps_per_unit)) steps of the einsum derivative.
    """
    def derivative(state):
        u, q, a, b = state
        gamma = geometry.gamma
        du = -np.einsum('i,ijm,j->m', u, gamma, u)
        g = np.einsum('i,imd->dm', u, gamma)
        r4 = np.einsum('aefd,e,f->ad', geometry.r, u, u)
        return du, -g @ q, b, -(q.T @ r4 @ q) @ a

    n = geometry.dim
    steps = max(16, int(math.ceil(r_target * steps_per_unit)))
    h = r_target / steps
    state = (np.asarray(u, dtype=float).copy(), np.eye(n), np.zeros((n, n)),
             np.eye(n))
    for _ in range(steps):
        k1 = derivative(state)
        k2 = derivative(tuple(x + 0.5 * h * k for x, k in zip(state, k1)))
        k3 = derivative(tuple(x + 0.5 * h * k for x, k in zip(state, k2)))
        k4 = derivative(tuple(x + h * k for x, k in zip(state, k3)))
        state = tuple(x + (h / 6.0) * (p + 2 * q2 + 2 * q3 + q4)
                      for x, p, q2, q3, q4 in zip(state, k1, k2, k3, k4))
    return state


def flow_direction(dim):
    u = np.arange(1.0, dim + 1.0) * (-1.0) ** np.arange(dim)
    return u / np.linalg.norm(u)


@pytest.mark.parametrize("space", ["hh2", "ns12"])
def test_ode_oracle_matches_restart_per_radius(space, request):
    """One march through the sorted radii against an RK4 run from r = 0 for
    each radius; the radii are given unsorted."""
    geo = request.getfixturevalue(space)
    u = flow_direction(geo.dim)
    radii = [0.3, 0.1, 0.25]
    ode = ode_oracle(geo, u, radii, steps_per_unit=512)
    assert list(ode.radii) == sorted(radii)
    for r, theta in zip(ode.radii, ode.theta_normalized):
        a = restart_flow(geo, u, r, 512)[2]
        assert_allclose(theta, np.linalg.det(a) / r ** geo.dim, rtol=1e-12)
    # a is the reference endomorphism at the largest radius
    assert_allclose(ode.a_final, a, rtol=1e-12, atol=1e-14)


def conjugate4(tensor, m):
    """m_ai m_bj m_ck m_dl tensor_ijkl: the tensor read in the frame rows of m."""
    out = np.tensordot(m, tensor, axes=([1], [0]))
    out = np.tensordot(m, out, axes=([1], [1]))
    out = np.tensordot(m, out, axes=([1], [2]))
    out = np.tensordot(m, out, axes=([1], [3]))
    return out.transpose(3, 2, 1, 0)


def complement_basis(u):
    """Orthonormal rows spanning the complement of the unit vector u."""
    n = u.shape[0]
    full = np.eye(n)
    idx = int(np.argmax(np.abs(u)))
    cols = [full[i] for i in range(n) if i != idx]
    basis = []
    for v in cols:
        w = v - (v @ u) * u
        for b in basis:
            w = w - (w @ b) * b
        w = w / np.linalg.norm(w)
        basis.append(w)
    return np.stack(basis)


@pytest.mark.parametrize("space", ["hh2", "ns12", "ch2", "hh3", "sphere4"])
def test_sphere_curvature_matches_restart_flow(space, request):
    """One march through unsorted radii against the Gauss equation in
    tensor form: the ambient curvature conjugated into an (n-1)-dim sphere
    frame of restarted flow states."""
    geo = request.getfixturevalue(space)
    u = flow_direction(geo.dim)
    basis = complement_basis(u)

    def reference(r):
        _, q, a, b = restart_flow(geo, u, r, 512)
        st = basis @ b @ np.linalg.inv(a) @ basis.T
        gauss = (conjugate4(geo.r, basis @ q.T)
                 + np.einsum('ad,bc->abcd', st, st)
                 - np.einsum('ac,bd->abcd', st, st))
        ric = np.einsum('cabc->ab', gauss)
        return np.sum(ric * ric), np.sum(gauss * gauss)

    radii, ric_sq, riem_sq = _sphere_curvature_samples(geo, u, [0.3, 0.1, 0.25],
                                                       512)
    assert list(radii) == [0.1, 0.25, 0.3]
    for r, ric, riem in zip(radii, ric_sq, riem_sq):
        assert_allclose((ric, riem), reference(r), rtol=1e-12)


@pytest.mark.parametrize("radii", [[0.0, 0.1], [0.1, -0.2], [],
                                   [0.1, math.nan], [math.inf]])
def test_ode_oracle_rejects_radii_that_are_not_positive(hh2, radii):
    with pytest.raises(InvalidSampling):
        ode_oracle(hh2, np.eye(8)[5], radii)


@pytest.mark.parametrize("radii, where", [
    ([1.0, 400.0], "density at r = 400.0"),      # det(a) overflows, a finite
    ([2000.0], "endomorphism at r = 2000.0"),    # a itself overflows
])
@pytest.mark.filterwarnings("error")
def test_ode_oracle_raises_step_failure_on_overflow(ch2, radii, where):
    """A coarse march far out on CH^2 ends in a typed error, with no numpy
    RuntimeWarning before it and no inf density."""
    with pytest.raises(StepFailure, match=where):
        ode_oracle(ch2, np.eye(4)[0], radii, steps_per_unit=1)


@pytest.mark.parametrize("radius", [0.0, -0.2, math.nan, math.inf])
def test_sphere_curvature_rejects_radius_that_is_not_positive(hh2, radius):
    with pytest.raises(InvalidSampling):
        _sphere_curvature_samples(hh2, np.eye(8)[5], [radius], 4096)


def test_peel_recovers_leading_density_coefficients(hh2):
    """Integrate the flow, subtract 1, then peel r^2 and r^4 coefficients."""
    u = np.eye(8)[5]
    dens = radial_density(hh2, u)
    radii = np.geomspace(0.05, 0.4, 6)
    ode = ode_oracle(hh2, u, radii, steps_per_unit=2048)
    values = ode.theta_normalized - 1.0
    c2, c4 = peel_coefficients(values, radii, powers=(2, 4))
    assert_allclose(c2, dens.coefficient(2), rtol=1e-6)
    assert_allclose(c4, dens.coefficient(4), rtol=1e-4)


def test_trace_closure_consistency(hh2, ns12):
    """The r^6 trace closure must agree with the direction-constant traces."""
    for geo in (hh2, ns12):
        u = np.zeros(geo.dim)
        u[1] = 1.0
        jet = curvature_jet(geo, u, order=3)
        c6 = harmonic_trace_c6(jet)
        r0, r1 = jet.matrices[0], jet.matrices[1]
        assert_allclose(
            c6,
            -(float(np.trace(r0 @ r0 @ r0)) + 3 * float(np.trace(r1 @ r1))) / 5040.0,
            rtol=1e-12)
        dens = density_series(jacobi_series(jet, order=5), trace_c6=c6)
        assert dens.normalized.top >= 6


def test_trace_closure_takes_only_an_offset_zero_order_five_series():
    """The r^6 trace lands right after r^5 only on the series it closes; a
    shifted series with the same top would put it at a wrong power."""
    eye = np.eye(2)
    with pytest.raises(OrderUnsupported):
        extend_with_trace(TruncatedSeries([eye] * 4, offset=2), 1.0)
    with pytest.raises(OrderUnsupported):
        extend_with_trace(TruncatedSeries([eye] * 5), 1.0)
    closed = extend_with_trace(TruncatedSeries([eye] * 6), 1.0)
    assert closed.offset == 0 and closed.top == 6
    assert_allclose(closed.coefficient(6), 0.5 * eye)
