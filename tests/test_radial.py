"""Density and shape-operator series against closed-form radial oracles."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hmlab.errors import (InvalidSampling, OrderUnsupported, OutsideDomain,
                          StepFailure, ZeroLeadingCoefficient)
from hmlab.geometry import (constant_curvature_geometry, curvature_jet,
                            damek_ricci_geometry, geometry_from_algebra, ricci,
                            scale_bracket)
from hmlab import radial
from hmlab.heatinv import (_sphere_curvature_series, alpha2_cross_difference,
                           sphere_intrinsic_oracle)
from hmlab.invariants import (direction_constants, point_invariants,
                              random_directions)
from hmlab.series import TruncatedSeries
from hmlab.radial import (_jacobi_flow, flow_series, harmonic_density,
                          harmonic_series, harmonic_trace_c6, jacobi_series,
                          ode_oracle, peel_coefficients, vk_recursion,
                          volume_series)


def harmonic_shape_expectations(n, c, h, l, p):
    """Frozen transverse-trace coefficients of a harmonic space.

    Keyed by series power; derived once from the density coefficients and
    reproduced by the cotangent series on the round sphere.  ``p`` is
    tr R'R' along the direction.
    """
    return {
        "tr_sigma": {-1: float(n - 1), 1: -c / 3.0, 3: -h / 45.0, 5: -l / 15120.0},
        "tr_sigma_sq": {-2: float(n - 1), 0: -2.0 * c / 3.0, 2: h / 15.0,
                        4: l / 3024.0},
        "tr_sigma_cube": {-3: float(n - 1), -1: -c, 1: 4.0 * h / 15.0,
                          3: l / 30240.0 - p / 96.0},
        "tr_curv_sigma": {-1: c, 1: -h / 3.0, 3: -l / 1440.0 + p / 96.0},
    }


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
    dens = harmonic_density(curvature_jet(sphere4, np.eye(4)[0], order=3))
    oracle = sin_over_r_power(3, 6)
    for k in range(7):
        assert_allclose(dens.coefficient(k), float(oracle[k]), atol=1e-12)


def test_hyperbolic_density_flips_signs():
    from hmlab.geometry import constant_curvature_geometry
    geo = constant_curvature_geometry(4, -1.0)
    dens = harmonic_density(curvature_jet(geo, np.eye(4)[1], order=3))
    oracle = sin_over_r_power(3, 6)
    for k in range(7):
        # sinh expansion: same magnitudes, all positive
        assert_allclose(dens.coefficient(k), abs(float(oracle[k])), atol=1e-12)


def test_density_is_even(hh2):
    u = np.eye(8)[0]
    dens = harmonic_density(curvature_jet(hh2, u, order=3))
    for k in (1, 3, 5):
        assert abs(dens.coefficient(k)) < 1e-13
    assert dens.coefficient(0) == 1.0
    assert dens.density.offset == 7   # r^(n-1) prefactor


@pytest.mark.parametrize("order", [0, 1, 2])
def test_a_jet_below_order_three_raises(hh2, order):
    """The r^5 Jacobi series reads the r^3 Taylor matrix of the jet; a
    shorter jet is refused by every harmonic series entry."""
    jet = curvature_jet(hh2, np.eye(8)[0], order=order)
    for call in (jacobi_series, harmonic_density, harmonic_series):
        with pytest.raises(OrderUnsupported, match="jet order >= 3"):
            call(jet)


def test_shape_traces_on_the_round_sphere(sphere4):
    u = np.eye(4)[0]
    # the r^5 trace coefficients need the r^6 trace closure of the series
    _, traces = harmonic_series(curvature_jet(sphere4, u, order=3))
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
    _, traces = harmonic_series(jet)
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
        _, traces = harmonic_series(jet)
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


def test_volume_series_refuses_a_density_not_from_r0():
    """The ball coefficients c_k/(n + k) hold for a density from r^0 only:
    Theta = r + 2r^3 at n = 4 read r^4/4 + r^6/3, where the ball volume
    int_0^r s^3 Theta(s) ds is r^5/5 + 2r^7/7."""
    with pytest.raises(OutsideDomain, match="got offset 1"):
        volume_series(TruncatedSeries([1.0, 0.0, 2.0], offset=1), 4)


def test_vk_leading_coefficient_guard():
    with pytest.raises(ZeroLeadingCoefficient):
        vk_recursion([Fraction(0), Fraction(1)], 4, 3)


def test_ode_oracle_matches_series_on_quaternionic_member(hh2):
    u = np.eye(8)[5]
    dens = harmonic_density(curvature_jet(hh2, u, order=3))
    radii = np.array([0.1, 0.15, 0.2, 0.3])
    ode = ode_oracle(hh2, u, radii, steps_per_unit=2048)
    series_vals = np.array([dens.normalized(r) for r in radii])
    assert_allclose(ode.theta_normalized, series_vals, rtol=2e-6)


def restart_flow(geometry, u, r_target, steps_per_unit, dtype=float):
    """Flow state (u, q, a, b) at one radius by an RK4 run from r = 0.

    An independent formulation of the march: the parallel frame q is
    carried, and a and b = a' are the Jacobi endomorphism and its
    derivative in that frame, so q a is the march's X and q b its Z.  Every
    radius restarts at r = 0 and takes max(16, ceil(r * steps_per_unit))
    steps of the einsum derivative, in ``dtype`` throughout.
    """
    gamma = geometry.gamma.astype(dtype)
    curv = geometry.r.astype(dtype)

    def derivative(state):
        u, q, a, b = state
        du = -np.einsum('i,ijm,j->m', u, gamma, u)
        g = np.einsum('i,imd->dm', u, gamma)
        r4 = np.einsum('aefd,e,f->ad', curv, u, u)
        return du, -g @ q, b, -(q.T @ r4 @ q) @ a

    n = geometry.dim
    steps = max(16, int(math.ceil(r_target * steps_per_unit)))
    h = dtype(r_target) / steps
    state = (np.asarray(u, dtype=dtype).copy(), np.eye(n, dtype=dtype),
             np.zeros((n, n), dtype=dtype), np.eye(n, dtype=dtype))
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


@pytest.mark.parametrize("space", ["hh2", "ns12"])
def test_flow_matches_a_long_double_solution(space, request):
    """The march at 512 steps/unit against the restart formulation run in
    long double at 2048 steps/unit, whose own error is far below both
    bounds: theta at r = 0.3 to 2e-13 relative, X to 5e-14 of q a."""
    geo = request.getfixturevalue(space)
    u = flow_direction(geo.dim)
    radii = [0.1, 0.25, 0.3]
    _, q, a, _ = restart_flow(geo, u, 0.3, 2048, dtype=np.longdouble)
    theta = ode_oracle(geo, u, radii, steps_per_unit=512).theta_normalized[-1]
    want = np.linalg.det(a.astype(float)) / 0.3 ** geo.dim
    assert abs(theta / want - 1.0) < 2e-13
    x = _jacobi_flow(geo, u, radii, 512)[2][-1]
    assert np.max(np.abs(x - q @ a)) < 5e-14


def sphere_curvature_march(geometry, u, radii, steps_per_unit):
    """|Ric^S|^2 and |R^S|^2 of the geodesic spheres through exp(r u), at
    each radius r, from one Jacobi-flow march: the RK4 reference that the
    flow series of ``heatinv._sphere_curvature_series`` is checked against.

    ``u`` is one unit direction (n,) or a batch (m, n), marched together.
    Returns the arrays ``ric_sq`` and ``riem_sq`` at the sorted radii, of
    shape (k,) for k radii, or (m, k) for a batch.  The Gauss equation
    R^S_abcd = R_abcd + S_ad S_bc - S_ac S_bd is applied in the base frame:
    with v the flow's velocity, P = I - v v^T and S = P Z X^-1 P (see
    ``radial._jacobi_flow`` for the state),
      Ric^S = P (Ric - R_v) P + tr(S) S - S^2,   R_v[a, b] = R[v, a, b, v].
    For |R^S|^2 expand each of the four projectors of R as I - v v^T.  One v
    gives -|R(v, ., ., .)|^2 per slot; two v's fill a skew pair (ab) or (cd)
    and vanish, or straddle them and give +|R_v|^2 four times; three or four
    always fill a pair.  The cross term is 4 R_abcd S_ad S_bc by the skew in
    (cd), and the S-S term is 2 (tr S^2)^2 - 2 tr S^4, so
      |R^S|^2 = |R|^2 - 4|R(v)|^2 + 4|R_v|^2 + 4 R_abcd S_ad S_bc
                + 2 (tr S^2)^2 - 2 tr S^4   (no rank-4 array is built).
    """
    _, v, x, z = _jacobi_flow(geometry, u, radii, steps_per_unit)
    r = geometry.r
    n = r.shape[0]
    proj = np.eye(n) - v[..., :, None] * v[..., None, :]
    s = proj @ z @ np.linalg.inv(x) @ proj
    s2 = s @ s
    r_v_rows = v @ r.reshape(n, -1)                 # R(v, ., ., .), flattened
    r_v = (r_v_rows.reshape(*v.shape[:-1], n * n, n)
           @ v[..., None]).reshape(s.shape)
    tr_s = np.trace(s, axis1=-2, axis2=-1)[..., None, None]
    ric_s = proj @ (ricci(r) - r_v) @ proj + tr_s * s - s2
    ric_sq = np.sum(ric_s * ric_s, axis=(-2, -1))
    riem_sq = (float(np.sum(r * r)) - 4.0 * np.sum(r_v_rows * r_v_rows, axis=-1)
               + 4.0 * np.sum(r_v * r_v, axis=(-2, -1))
               + 4.0 * np.einsum('abcd,...ad,...bc->...', r, s, s)
               + 2.0 * np.trace(s2, axis1=-2, axis2=-1) ** 2
               - 2.0 * np.sum(s2 * np.swapaxes(s2, -2, -1), axis=(-2, -1)))
    return ric_sq, riem_sq


def alpha2_pair(dim):
    """The two seeded directions of the alpha2 cross-difference test."""
    pair = np.random.default_rng(11).standard_normal((2, dim))
    return pair / np.linalg.norm(pair, axis=1, keepdims=True)


@pytest.mark.parametrize("space", ["hh2", "ns12"])
@pytest.mark.parametrize("batch", ["five", "alpha2_pair"])
def test_batched_flow_equals_single_direction_marches(space, batch, request):
    """One march of a batch against one march per direction, through
    unsorted radii: the states (u, X, Z) at every radius, the densities
    and the sphere curvature samples."""
    geo = request.getfixturevalue(space)
    dirs = (random_directions(geo.dim, 5, np.random.default_rng(7))
            if batch == "five" else alpha2_pair(geo.dim))
    radii = [0.3, 0.1, 0.25]
    sorted_radii, *states = _jacobi_flow(geo, dirs, radii, 256)
    ode = ode_oracle(geo, dirs, radii, steps_per_unit=256)
    ric_sq, riem_sq = sphere_curvature_march(geo, dirs, radii, 256)
    for i, u in enumerate(dirs):
        single_radii, *single = _jacobi_flow(geo, u, radii, 256)
        assert list(single_radii) == list(sorted_radii) == sorted(radii)
        for got, want in zip(states, single):
            assert got.shape == (len(dirs),) + want.shape
            assert_allclose(got[i], want, rtol=1e-12, atol=1e-14)
        single_ode = ode_oracle(geo, u, radii, steps_per_unit=256)
        assert_allclose(ode.theta_normalized[i], single_ode.theta_normalized,
                        rtol=1e-12)
        ric, riem = sphere_curvature_march(geo, u, radii, 256)
        assert_allclose(ric_sq[i], ric, rtol=1e-12)
        assert_allclose(riem_sq[i], riem, rtol=1e-12)


def column_derivative(neg_gamma_t, neg_r_cols, y):
    """The flow derivative on states [u | X | Z] of shape (m, n, 1 + 2n),
    one column per vector, as the march computed it before its fixed-buffer
    kernel: -g^T y, then Z added to the X block and -R_u X to the Z block."""
    m, n = y.shape[:2]
    u = y[:, :, 0]
    uu = (u[:, :, None] * u[:, None, :]).reshape(m, n * n)
    neg_r_u = (uu @ neg_r_cols).reshape(m, n, n)
    dy = (u @ neg_gamma_t).reshape(m, n, n) @ y
    dy[:, :, 1:n + 1] += y[:, :, n + 1:]
    dy[:, :, n + 1:] += neg_r_u @ y[:, :, 1:n + 1]
    return dy


def column_march(geometry, u, radii, steps_per_unit):
    """(u, X, Z) at the sorted radii by the column-layout march that
    allocates every stage, with the step rule of ``_jacobi_flow``."""
    n = geometry.dim
    neg_gamma_t = -geometry.gamma.transpose(0, 2, 1).reshape(n, n * n)
    neg_r_cols = -geometry.r.transpose(1, 2, 0, 3).reshape(n * n, n * n)
    u = np.asarray(u, dtype=float)
    batch = u.reshape(-1, n)
    y = np.zeros((len(batch), n, 1 + 2 * n))
    y[:, :, 0] = batch
    y[:, :, n + 1:] = np.eye(n)
    states = []
    r_prev = 0.0
    for r_target in sorted(radii):
        dr = r_target - r_prev
        steps = int(math.ceil(max(dr * steps_per_unit, 16.0 * dr / r_target)))
        h = dr / max(steps, 1)
        for _ in range(steps):
            k1 = column_derivative(neg_gamma_t, neg_r_cols, y)
            k2 = column_derivative(neg_gamma_t, neg_r_cols, y + 0.5 * h * k1)
            k3 = column_derivative(neg_gamma_t, neg_r_cols, y + 0.5 * h * k2)
            k4 = column_derivative(neg_gamma_t, neg_r_cols, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        states.append(y)
        r_prev = r_target
    states = np.stack(states, axis=1).reshape(*u.shape[:-1], len(radii), n,
                                               1 + 2 * n)
    return states[..., 0], states[..., 1:n + 1], states[..., n + 1:]


@pytest.mark.parametrize("space", ["hh2", "hh3", "ns12", "ch2"])
@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("steps_per_unit", [256, 2048])
def test_fixed_buffer_march_equals_the_column_march(space, count,
                                                    steps_per_unit, request):
    """The row-layout march on fixed buffers against the column-layout march
    it replaced: u, X and Z at every radius, to 1e-14 of the largest entry,
    for one direction and for a batch of three."""
    geo = request.getfixturevalue(space)
    dirs = random_directions(geo.dim, count, np.random.default_rng(5))
    u = dirs[0] if count == 1 else dirs
    radii = [0.25, 0.05, 0.15]
    got = _jacobi_flow(geo, u, radii, steps_per_unit)[1:]
    want = column_march(geo, u, radii, steps_per_unit)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.max(np.abs(g - w)) <= 1e-14 * np.max(np.abs(w))


def test_flow_states_are_copied_out_at_each_radius(hh2):
    """The state at r = 0.1 of a march on through r = 0.2 is the state of a
    march that stops at 0.1, not the march's final state."""
    u = flow_direction(hh2.dim)
    _, u_on, x_on, z_on = _jacobi_flow(hh2, u, [0.1, 0.2], 512)
    _, u_at, x_at, z_at = _jacobi_flow(hh2, u, [0.1], 512)
    assert np.array_equal(x_on[0], x_at[0])
    assert np.array_equal(u_on[0], u_at[0])
    assert np.array_equal(z_on[0], z_at[0])
    assert not np.array_equal(x_on[0], x_on[1])


def rk4_steps(radii, steps_per_unit):
    """Steps of one march through the radii by the documented rule."""
    total, r_prev = 0, 0.0
    for r in sorted(radii):
        dr = r - r_prev
        total += math.ceil(max(dr * steps_per_unit, 16.0 * dr / r))
        r_prev = r
    return total


def counted_derivatives(monkeypatch):
    """The list that gets one entry per call of the flow derivative."""
    calls = []
    original = radial._flow_derivative

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(radial, "_flow_derivative", counted)
    return calls


@pytest.mark.parametrize("oracle", ["ode", "alpha2", "intrinsic"])
def test_each_march_takes_four_derivatives_per_step(hh2, oracle, monkeypatch):
    """The march evaluates the derivative four times per RK4 step, and takes
    the steps of its rule: the benchmark's ode_oracle call.  Both
    sphere-curvature oracles read a flow series and march through no radii,
    so they take no step and never call the derivative."""
    calls = counted_derivatives(monkeypatch)
    u1, u2 = alpha2_pair(hh2.dim)
    radii, steps_per_unit = (0.15, 0.21, 0.27, 0.33, 0.39, 0.45), 2048
    if oracle == "ode":
        ode_oracle(hh2, u1, radii, steps_per_unit)
    else:
        radii = ()
        if oracle == "alpha2":
            alpha2_cross_difference(hh2, u1, u2)
        else:
            sphere_intrinsic_oracle(hh2, u1)
    assert len(calls) == 4 * rk4_steps(radii, steps_per_unit)


def off_unit(n, factor):
    u = np.eye(n)[n // 2]
    return np.stack([u, factor * u])


@pytest.mark.parametrize("direction", [
    lambda n: 2.0 * np.eye(n)[1],               # a speed-2 geodesic
    lambda n: np.zeros(n),
    lambda n: off_unit(n, 1.0 + 1e-9),          # one row of norm 1 + 1e-9
    lambda n: np.eye(n)[1, :-1],                # one entry short
    lambda n: np.eye(n + 1)[:2],                # rows one entry long
    lambda n: np.eye(n)[None, :2],              # a 3-d array
    lambda n: np.float64(1.0),
    lambda n: off_unit(n, math.nan),
    lambda n: np.where(np.eye(n)[1] > 0, math.inf, 0.0),
], ids=["speed-2", "zero", "norm-off", "short", "long-rows", "3-d", "scalar",
        "nan", "inf"])
def test_flow_rejects_directions_that_are_not_unit_rows(ns12, direction):
    """Only finite unit directions of the geometry's dimension, one or a
    batch of rows, start a jet, a march or a flow series; anything else is
    refused before it, with one message.  The jet and the series recurrence
    run on any vector, so a speed-2 or NaN direction would otherwise give
    wrong or NaN numbers: a speed-2 direction made C = -20 where it is -5."""
    u = direction(ns12.dim)
    consumers = [lambda: curvature_jet(ns12, u),
                 lambda: direction_constants(ns12, u),
                 lambda: ode_oracle(ns12, u, [0.2, 0.4]),
                 lambda: flow_series(ns12, u, 8),
                 lambda: sphere_curvature_march(ns12, u, [0.2], 64)]
    for consumer in consumers:
        with pytest.raises(InvalidSampling, match="finite unit rows"):
            consumer()


@pytest.mark.parametrize("steps_per_unit", [math.nan, math.inf, 0, -5])
def test_flow_rejects_a_step_count_that_is_not_positive(ns12, steps_per_unit):
    """A step count per unit radius that is not finite and > 0 is refused
    before the march: NaN and inf used to end in a bare ValueError and
    OverflowError, 0 and -5 in 16 steps per segment."""
    u = flow_direction(ns12.dim)
    with pytest.raises(InvalidSampling, match="Jacobi flow needs"):
        ode_oracle(ns12, u, [0.2, 0.4], steps_per_unit=steps_per_unit)
    with pytest.raises(InvalidSampling, match="Jacobi flow needs"):
        sphere_curvature_march(ns12, u, [0.2], steps_per_unit)


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

    ric_sq, riem_sq = sphere_curvature_march(geo, u, [0.3, 0.1, 0.25], 512)
    for r, ric, riem in zip([0.1, 0.25, 0.3], ric_sq, riem_sq):
        assert_allclose((ric, riem), reference(r), rtol=1e-12)


@pytest.fixture(scope="module")
def ns12_scaled(ns12):
    """The 3:1,1 member with its bracket [e_0, e_11] scaled by 1.1, which is
    not harmonic."""
    return geometry_from_algebra(scale_bracket(ns12.algebra, 0, 11, 1.1))


SERIES_SPACES = ["hh2", "hh3", "ns12", "ns12_scaled"]
SERIES_RADII = np.array([0.05, 0.1, 0.2])


@pytest.mark.parametrize("space", SERIES_SPACES)
def test_sphere_series_sums_to_the_march(space, request):
    """The Laurent series of |Ric^S|^2 and |R^S|^2 through r^10, summed at
    r = 0.05, 0.1 and 0.2, against the RK4 march at 4096 steps/unit, for
    both seeded alpha2 directions, to 1e-12 relative."""
    geo = request.getfixturevalue(space)
    dirs = alpha2_pair(geo.dim)
    march = sphere_curvature_march(geo, dirs, SERIES_RADII, 4096)
    for i, norms in enumerate(_sphere_curvature_series(geo, dirs, 10)):
        for laurent, sampled in zip(norms, march):
            summed = np.array([laurent(r) for r in SERIES_RADII])
            assert np.max(np.abs(summed / sampled[i] - 1.0)) <= 1e-12


@pytest.mark.parametrize("space", SERIES_SPACES)
def test_flow_series_density_sums_to_the_ode_oracle(space, request):
    """det(sum X_j r^j) / r^n of the series through r^14 against ode_oracle
    at 4096 steps/unit, at r = 0.05, 0.1 and 0.2, to 1e-12 relative."""
    geo = request.getfixturevalue(space)
    dirs = alpha2_pair(geo.dim)
    _, x, _ = flow_series(geo, dirs, 14)
    powers = SERIES_RADII[:, None] ** np.arange(15)
    x_at = np.einsum('mjab,kj->mkab', x, powers)
    theta = np.linalg.det(x_at) / SERIES_RADII ** geo.dim
    want = ode_oracle(geo, dirs, SERIES_RADII, 4096).theta_normalized
    assert np.max(np.abs(theta / want - 1.0)) <= 1e-12


@pytest.mark.parametrize("space", ["hh2", "ns12"])
def test_flow_series_density_equals_the_jet_series(space, request):
    """det(X/r) of the flow series, taken through r^6, against the density
    of the order-3 jet closed by the harmonic trace; the flow series needs
    neither the jet nor the closure."""
    geo = request.getfixturevalue(space)
    u = flow_direction(geo.dim)
    _, x, _ = flow_series(geo, u, 7)
    det = TruncatedSeries(list(x[1:])).det()
    want = harmonic_density(curvature_jet(geo, u, order=3)).normalized
    for k in range(7):
        assert_allclose(det.coefficient(k), want.coefficient(k),
                        rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("order", [0, -1])
def test_flow_series_refuses_an_order_below_one(ns12, order):
    with pytest.raises(OrderUnsupported, match="order >= 1"):
        flow_series(ns12, flow_direction(ns12.dim), order)


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
        sphere_curvature_march(hh2, np.eye(8)[5], [radius], 4096)


def test_peel_recovers_leading_density_coefficients(hh2):
    """Integrate the flow, subtract 1, then peel r^2 and r^4 coefficients."""
    u = np.eye(8)[5]
    dens = harmonic_density(curvature_jet(hh2, u, order=3))
    radii = np.geomspace(0.05, 0.4, 6)
    ode = ode_oracle(hh2, u, radii, steps_per_unit=2048)
    values = ode.theta_normalized - 1.0
    c2, c4 = peel_coefficients(values, radii, powers=(2, 4))
    assert_allclose(c2, dens.coefficient(2), rtol=1e-6)
    assert_allclose(c4, dens.coefficient(4), rtol=1e-4)


@pytest.mark.parametrize("radii", [[0.1, 0.1, 0.2], [0.0, 0.1, 0.2],
                                   [-0.1, 0.1, 0.2], [np.nan, 0.1, 0.2],
                                   [np.inf, 0.1, 0.2], [0.1, 0.2], []])
def test_peel_rejects_bad_radii(radii):
    """A repeated radius, one not finite and > 0, or a radius count other
    than the value count is refused before any division."""
    with pytest.raises(InvalidSampling, match="peeling needs"):
        peel_coefficients([1e-3, 2e-3, 3e-3], radii, powers=(2, 4))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_peel_rejects_non_finite_values(bad):
    """One value that is not finite is refused: the solve used to return
    [nan, nan] for both coefficients without a word."""
    radii = np.linspace(0.15, 0.45, 6)
    values = radii ** 2
    values[2] = bad
    with pytest.raises(InvalidSampling, match="peeling needs"):
        peel_coefficients(values, radii, powers=(2, 4))


@pytest.mark.parametrize("powers", [(4, 2), (2, 3), (2, 2), (2, math.nan),
                                    (math.inf,), (2, 8), ()])
def test_peel_rejects_bad_powers(powers):
    """Powers that do not strictly increase with even gaps are refused
    before any division: on the hh2 flow (4, 2) used to give 469.2 as the
    r^4 coefficient, (2, 3) an r^3 coefficient of an even function, and
    (2, 2) a second r^2 coefficient of about 0.  Three radii carry the
    ladder 2, 4, 6, so (2, 8) asks for a power above its top rung, and no
    power at all leaves no ladder."""
    with pytest.raises(InvalidSampling, match="peeling needs"):
        peel_coefficients([1e-3, 2e-3, 3e-3], [0.1, 0.2, 0.3], powers=powers)


def test_peel_removes_the_rungs_it_is_not_asked_for():
    """(sinh r / r)^7 - 1 has an r^4 term between the requested r^2 and r^6;
    the even ladder removes it.  A sequential peel that skipped it read
    65.37 as the r^6 coefficient."""
    radii = np.linspace(0.15, 0.45, 6)
    values = (np.sinh(radii) / radii) ** 7 - 1.0
    c6 = Fraction(7, 5040) + 42 * Fraction(1, 6) * Fraction(1, 120) \
        + 35 * Fraction(1, 6) ** 3
    c2, got6 = peel_coefficients(values, radii, powers=(2, 6))
    assert_allclose(c2, 7 / 6, rtol=1e-5)
    assert_allclose(got6, float(c6), rtol=1e-5)


def test_peel_refuses_a_power_beyond_the_ladder():
    """Six radii carry the rungs 2..12; r^14 is not on the ladder."""
    radii = np.linspace(0.15, 0.45, 6)
    with pytest.raises(InvalidSampling, match="peeling needs"):
        peel_coefficients(radii ** 2, radii, powers=(2, 14))


@pytest.mark.parametrize("radii, values, powers", [
    # values r^2; every rung underflows to 0, so the design is all zeros
    ([1e-170, 2e-170, 3e-170], [1e-340, 4e-340, 9e-340], (2, 4)),
    # values r^2; the r^6 rung overflows to inf
    ([1e60, 2e60, 3e60], [1e120, 4e120, 9e120], (2, 4, 6)),
    # a subnormal design entry: the solution overflows
    ([1e-160], [1e10], (2,)),
])
@pytest.mark.filterwarnings("error")
def test_peel_refuses_a_design_it_cannot_solve(radii, values, powers):
    """The all-zero design read [0.0, 0.0] without a word; the one that
    overflows printed a RuntimeWarning and LAPACK errors, then raised a
    bare LinAlgError; the subnormal one read [inf].  Each is refused,
    naming the radii."""
    with pytest.raises(InvalidSampling,
                       match=re.escape(f"at radii {radii}")):
        peel_coefficients(values, radii, powers=powers)


@pytest.mark.parametrize("radii", [(0.15, 0.21, 0.27, 0.33, 0.39, 0.45),
                                   np.linspace(0.15, 0.45, 6)],
                         ids=["bench", "gate"])
def test_peel_solve_equals_least_squares(radii):
    """On the radii of the benchmark's and the release gate's flow checks,
    the LU solve of the square design gives the r^2 and r^4 coefficients
    of the least-squares solve it replaced to 1e-10 relative (about 1e-12
    measured)."""
    radii = np.asarray(radii)
    values = (np.sinh(radii) / radii) ** 7 - 1.0
    design = np.stack([radii ** p for p in 2 + 2 * np.arange(6)], axis=1)
    want, *_ = np.linalg.lstsq(design, values, rcond=None)
    got = peel_coefficients(values, radii, powers=(2, 4))
    assert_allclose(got, want[:2], rtol=1e-10, atol=0)


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
        dens = harmonic_density(jet)
        assert dens.normalized.top >= 6


def written_out_closure(jet):
    """The harmonic series composed by hand from its pieces, as it was
    written before ``harmonic_density`` closed the r^5 Jacobi series
    itself: the series copied and extended by (trace/n) id at r^6, its
    determinant, and the shape traces of the extended series with a zero
    r^4 matrix of R written as (0.0/n) id."""
    a = jacobi_series(jet)
    dim = a.coeffs[0].shape[0]
    coeffs = [c.copy() for c in a.coeffs]
    coeffs.append((harmonic_trace_c6(jet) / dim) * np.eye(dim))
    closed = TruncatedSeries(coeffs)
    theta = closed.det()
    a_full = closed.shift(1)
    sigma = a_full.derivative() * a_full.inverse()
    sigma_sq = sigma * sigma
    r_series = TruncatedSeries(
        [jet.taylor_coefficient(k) for k in range(4)]
        + [(0.0 / dim) * np.eye(dim)])
    traces = {"tr_sigma": sigma.trace().plus_term(-1.0, -1),
              "tr_sigma_sq": sigma_sq.trace().plus_term(-1.0, -2),
              "tr_sigma_cube": (sigma_sq * sigma).trace().plus_term(-1.0, -3),
              "tr_curv_sigma": (r_series * sigma).trace()}
    return theta, theta.shift(dim - 1), closed, traces


def series_bits(s):
    return s.offset, [np.asarray(c, dtype=float).view(np.int64).tolist()
                      for c in s.coeffs]


@pytest.mark.parametrize("build", [
    lambda fx: fx("ns12"),
    lambda fx: fx("hh3"),
    lambda fx: fx("ch2"),
    lambda fx: damek_ricci_geometry(2, 1, 0),
    lambda fx: constant_curvature_geometry(5, -1.0),
    lambda fx: geometry_from_algebra(scale_bracket(
        fx("ns12").algebra, 0, 11, 1.1)),
], ids=["3:1,1", "3:2,0", "1:1,0", "2:1,0", "kappa=-1", "3:1,1x1.1"])
def test_harmonic_series_is_the_written_out_closure(build, request):
    """harmonic_series gives the hand-composed closure bit for bit: the
    normalized and plain density, the closed endomorphism series and all
    four shape traces, in five directions.  The scaled member is not
    dyadic, so a change of summation order would show in its last bits."""
    geo = build(request.getfixturevalue)
    rng = np.random.default_rng(11)
    for _ in range(5):
        u = rng.standard_normal(geo.dim)
        jet = curvature_jet(geo, u / np.linalg.norm(u), order=3)
        dens, shape = harmonic_series(jet)
        theta, density, closed, traces = written_out_closure(jet)
        assert series_bits(dens.normalized) == series_bits(theta)
        assert series_bits(dens.density) == series_bits(density)
        assert series_bits(dens.a_series) == series_bits(closed)
        for name, want in traces.items():
            assert series_bits(getattr(shape, name)) == series_bits(want), \
                name
