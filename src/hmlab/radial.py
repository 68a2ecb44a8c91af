"""Radial expansions: Jacobi endomorphism, volume density, shape traces.

The normalized Jacobi endomorphism solves A'' + R(r) A = 0 with A(0) = 0,
A'(0) = id, written A = r * a(r); a(r) is computed on the full tangent
space (every jet matrix kills the direction, so the radial line carries the
exact factor r).  The volume density theta = det A / r and its normalized
form Theta = det a drive everything else.

Series are carried one order past the jet where a trace-only closure is
available: on a harmonic candidate the r^6 coefficient of a(r) enters the
density and the shape traces only through its trace, which is determined
by tr R^3 and tr R'R' alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (InvalidSampling, OrderUnsupported, StepFailure,
                     ZeroLeadingCoefficient)
from .geometry import curvature_jet
from .series import TruncatedSeries


def jacobi_series(jet, order=5):
    """Normalized Jacobi endomorphism a(r) through r**order (order <= 5).

    The jet matrices are those of the Jacobi equation A'' + R A = 0.  The
    recursion (j+2)(j+1) a_{j+2} = -sum R_i a_m is run on Taylor
    coefficients R_i = R^(i)/i!.
    """
    if order < 0 or order > 5:
        raise OrderUnsupported(f"jacobi series order {order} outside 0..5")
    if order > jet.order + 2:
        raise OrderUnsupported(
            f"series order {order} needs jet order >= {order - 2}, got {jet.order}")
    taylor = [jet.taylor_coefficient(k) for k in range(jet.order + 1)]
    dim = taylor[0].shape[0]
    zero = np.zeros((dim, dim))
    a = [zero, np.eye(dim)]
    for j in range(order):
        acc = zero.copy()
        for i, ri in enumerate(taylor):
            m = j - i
            if 0 <= m < len(a):
                acc = acc + ri @ a[m]
        a.append(-acc / ((j + 2) * (j + 1)))
    coeffs = a[1:order + 2]
    return TruncatedSeries(coeffs, offset=0)


def harmonic_trace_c6(jet):
    """Trace of the r^6 coefficient of a(r) on a harmonic candidate.

    Valid when tr R(r)^2 is constant along geodesics (so tr R R'' =
    -tr R'R') and tr R'''' vanishes; both follow from constancy of the
    direction traces.
    """
    r0 = jet.matrices[0]
    r1 = jet.matrices[1]
    tr_cube = float(np.trace(r0 @ r0 @ r0))
    p = float(np.trace(r1 @ r1))
    return -(tr_cube + 3.0 * p) / 5040.0


def extend_with_trace(a_series, trace_c6):
    """Append an r^6 coefficient carrying only a trace.

    The appended matrix is (trace/n) id; determinants and total traces
    through r^6 come out exactly right, but the individual matrix entries
    at r^5 of derived quotients are not meaningful.
    """
    if a_series.offset != 0 or a_series.top != 5:
        raise OrderUnsupported(
            "trace closure extends an offset-0 order-5 series only")
    dim = a_series.coeffs[0].shape[0]
    coeffs = [c.copy() for c in a_series.coeffs]
    coeffs.append((trace_c6 / dim) * np.eye(dim))
    return TruncatedSeries(coeffs)


@dataclass
class RadialDensity:
    """Volume density data along one direction."""

    dim: int
    normalized: TruncatedSeries   # Theta = det a(r), starts at 1
    density: TruncatedSeries      # theta = r^(n-1) Theta
    a_series: TruncatedSeries

    def coefficient(self, k):
        return float(self.normalized.coefficient(k))


def density_series(a_series, trace_c6):
    """Volume density series from the normalized Jacobi endomorphism, the
    order-5 endomorphism closed through r^6 by ``trace_c6`` first."""
    a_series = extend_with_trace(a_series, trace_c6)
    dim = a_series.coeffs[0].shape[0]
    theta = a_series.det()
    return RadialDensity(dim=dim, normalized=theta,
                         density=theta.shift(dim - 1), a_series=a_series)


def harmonic_density(jet):
    """Density series of one order-3 ``jet``: the order-5 Jacobi series
    closed through r^6 by the harmonic trace (the one place it is applied)."""
    return density_series(jacobi_series(jet, order=5),
                          trace_c6=harmonic_trace_c6(jet))


def radial_density(geometry, u=None):
    """Density series for one direction, with the harmonic r^6 closure."""
    if u is None:
        u = np.ones(geometry.dim) / math.sqrt(geometry.dim)
    return harmonic_density(curvature_jet(geometry, u, order=3))


# -- shape operator traces ---------------------------------------------------


@dataclass
class ShapeTraces:
    """Transverse traces of the distance-sphere shape operator.

    The radial eigenvalue contributes exactly 1/r**k to tr sigma^k and is
    subtracted; tr(R_nu sigma) is clean because the Jacobi operator kills
    the radial direction.
    """

    tr_sigma: TruncatedSeries
    tr_sigma_sq: TruncatedSeries
    tr_sigma_cube: TruncatedSeries
    tr_curv_sigma: TruncatedSeries
    sigma: TruncatedSeries


def shape_trace_series(a_series, jet, r4_trace=0.0):
    """Shape operator traces from the endomorphism series and the jet.

    ``r4_trace`` closes the r^3 coefficient of tr(R_nu sigma): the missing
    fourth Taylor coefficient of R(r) enters only through its trace, which
    vanishes on a harmonic candidate.
    """
    dim = a_series.coeffs[0].shape[0]
    a_full = a_series.shift(1)
    sigma = a_full.derivative() * a_full.inverse()
    tr_sigma = sigma.trace().plus_term(-1.0, -1)
    sigma_sq = sigma * sigma
    tr_sigma_sq = sigma_sq.trace().plus_term(-1.0, -2)
    tr_sigma_cube = (sigma_sq * sigma).trace().plus_term(-1.0, -3)
    r_coeffs = [jet.taylor_coefficient(k) for k in range(jet.order + 1)]
    if jet.order >= 3:
        r_coeffs.append((r4_trace / dim) * np.eye(dim))
    r_series = TruncatedSeries(r_coeffs, offset=0)
    tr_curv_sigma = (r_series * sigma).trace()
    return ShapeTraces(tr_sigma=tr_sigma, tr_sigma_sq=tr_sigma_sq,
                       tr_sigma_cube=tr_sigma_cube, tr_curv_sigma=tr_curv_sigma,
                       sigma=sigma)


def harmonic_series(jet):
    """(``RadialDensity``, ``ShapeTraces``) of one order-3 ``jet`` of a
    harmonic candidate, closed through r^6."""
    dens = harmonic_density(jet)
    return dens, shape_trace_series(dens.a_series, jet)


def harmonic_shape_expectations(n, c, h, l, p):
    """Frozen transverse-trace coefficients of a harmonic space.

    Keyed by series power; derived once from the density coefficients and
    reproduced by the cotangent series on the round sphere.
    """
    return {
        "tr_sigma": {-1: float(n - 1), 1: -c / 3.0, 3: -h / 45.0, 5: -l / 15120.0},
        "tr_sigma_sq": {-2: float(n - 1), 0: -2.0 * c / 3.0, 2: h / 15.0,
                        4: l / 3024.0},
        "tr_sigma_cube": {-3: float(n - 1), -1: -c, 1: 4.0 * h / 15.0,
                          3: l / 30240.0 - p / 96.0},
        "tr_curv_sigma": {-1: c, 1: -h / 3.0, 3: -l / 1440.0 + p / 96.0},
    }


# -- volume of geodesic balls and spheres ------------------------------------


def volume_series(normalized_density, dim):
    """Sphere-area and ball-volume series, per unit solid angle.

    The true area is omega_{n-1} times the first series; the quotient
    ball/area is normalization free.
    """
    area = normalized_density.shift(dim - 1)
    ball_coeffs = [c / (dim + k) for k, c in enumerate(normalized_density.coeffs)]
    ball = TruncatedSeries(ball_coeffs, offset=dim)
    return area, ball


def vk_recursion(a_coeffs, dim, count):
    """Quotient coefficients V_k of vol(ball)/vol(sphere) = sum V_k r^{k+1}.

    Exact over Fractions: A0 V_k = A_k/(n+k) - sum_{j>=1} A_j V_{k-j}.
    """
    a = [Fraction(x) for x in a_coeffs]
    if not a or a[0] == 0:
        raise ZeroLeadingCoefficient("density series must start with a nonzero constant")
    out = []
    for k in range(count):
        acc = (a[k] if k < len(a) else Fraction(0)) / (dim + k)
        for j in range(1, k + 1):
            if j < len(a):
                acc -= a[j] * out[k - j]
        out.append(acc / a[0])
    return out


# -- numerical Jacobi flow ---------------------------------------------------


@dataclass
class OdeResult:
    radii: np.ndarray
    theta_normalized: np.ndarray
    a_final: np.ndarray


def _flow_derivative(gamma_rows, r_rows, y):
    """d/dr of the flat flow state y = (u, q, a, b).

    ``gamma_rows`` is gamma[i, j, m] with rows i and columns (j, m), and
    ``r_rows`` is r[a, e, f, d] with rows (a, d) and columns (e, f), so the
    connection along u and the Jacobi operator r[a, u, u, d] are one
    matrix product each.
    """
    n = gamma_rows.shape[0]
    u = y[:n]
    q, a, b = y[n:].reshape(3, n, n)
    g = (u @ gamma_rows).reshape(n, n)
    r_u = (r_rows @ np.outer(u, u).ravel()).reshape(n, n)
    r_par = q.T @ r_u @ q
    return np.concatenate([-(u @ g), (-g.T @ q).ravel(), b.ravel(),
                           (-r_par @ a).ravel()])


def _jacobi_flow(geometry, u, radii, steps_per_unit):
    """States (u, q, a, b) of the Jacobi flow at each radius, in sorted order.

    One fixed-step RK4 march from r = 0 passes through the sorted radii.
    The segment ending at radius r_k is split into
    ceil(max(dr * steps_per_unit, 16 dr / r_k)) equal steps, so no step is
    longer than 1/steps_per_unit or r_k/16.  Returns the sorted radii and
    the list of states; every radius must be finite and positive.
    """
    radii = np.sort(np.asarray(radii, dtype=float))
    if radii.size == 0 or not np.all(np.isfinite(radii)) or radii[0] <= 0.0:
        raise InvalidSampling(
            f"the Jacobi flow needs finite radii > 0, got {radii.tolist()}")
    n = geometry.dim
    gamma_rows = geometry.gamma.reshape(n, n * n)
    r_rows = geometry.r.transpose(0, 3, 1, 2).reshape(n * n, n * n)
    eye = np.eye(n).ravel()
    y = np.concatenate([np.asarray(u, dtype=float), eye, np.zeros_like(eye),
                        eye])
    states = []
    r_prev = 0.0
    for r_target in radii:
        dr = r_target - r_prev
        steps = int(math.ceil(max(dr * steps_per_unit, 16.0 * dr / r_target)))
        h = dr / max(steps, 1)
        # an overflow shows as a non-finite state, which raises below
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(steps):
                k1 = _flow_derivative(gamma_rows, r_rows, y)
                k2 = _flow_derivative(gamma_rows, r_rows, y + 0.5 * h * k1)
                k3 = _flow_derivative(gamma_rows, r_rows, y + 0.5 * h * k2)
                k4 = _flow_derivative(gamma_rows, r_rows, y + h * k3)
                y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        state = (y[:n], *y[n:].reshape(3, n, n))
        if not np.all(np.isfinite(state[2])):
            raise StepFailure(f"non-finite Jacobi endomorphism at r = {r_target}")
        states.append(state)
        r_prev = r_target
    return radii, states


def ode_oracle(geometry, u, radii, steps_per_unit=2048):
    """Normalized density by integrating the Jacobi flow (fixed-step RK4).

    State: direction and parallel frame in the left-invariant trivialization
    plus the Jacobi endomorphism and its derivative.  Structure constants are
    frame-constant, so the curvature entering the flow is the frozen tensor
    conjugated by the frame.  One march from r = 0 passes through the sorted
    radii, which must be positive; the result lists them in sorted order.
    """
    n = geometry.dim
    radii, states = _jacobi_flow(geometry, u, radii, steps_per_unit)
    with np.errstate(over="ignore", invalid="ignore"):
        thetas = np.array([float(np.linalg.det(a)) / r ** n
                           for r, (_, _, a, _) in zip(radii, states)])
    if not np.all(np.isfinite(thetas)):
        # det(a) can overflow while a is still finite
        bad = radii[~np.isfinite(thetas)][0]
        raise StepFailure(f"non-finite density at r = {bad}")
    return OdeResult(radii=radii, theta_normalized=thetas,
                     a_final=states[-1][2])


def peel_coefficients(values, radii, powers):
    """Sequentially extract series coefficients from sampled residuals.

    ``values[k]`` is f(radii[k]) with f(0) = 0 after the caller removed the
    constant term; the powers must be increasing and of one parity gap so
    that Richardson extrapolation in r^2 applies.
    """
    radii = np.asarray(radii, dtype=float)
    residual = np.asarray(values, dtype=float).copy()
    ts = radii ** 2
    out = []
    for p in powers:
        f = residual / radii ** p
        est = _neville_at_zero(ts, f)
        out.append(est)
        residual = residual - est * radii ** p
    return out


def _neville_at_zero(ts, fs):
    vals = list(fs)
    n = len(vals)
    for level in range(1, n):
        nxt = []
        for i in range(n - level):
            t0, t1 = ts[i], ts[i + level]
            nxt.append((t1 * vals[i] - t0 * vals[i + 1]) / (t1 - t0))
        vals = nxt
    return vals[0]
