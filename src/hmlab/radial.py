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
from .geometry import _unit_directions, curvature_jet
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


def radial_density(geometry):
    """Density series along the diagonal direction (1, ..., 1)/sqrt(n), with
    the harmonic r^6 closure; on a harmonic space every direction gives the
    same series.  For another direction, pass its order-3 jet to
    :func:`harmonic_density`."""
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
                       tr_sigma_cube=tr_sigma_cube, tr_curv_sigma=tr_curv_sigma)


def harmonic_series(jet):
    """(``RadialDensity``, ``ShapeTraces``) of one order-3 ``jet`` of a
    harmonic candidate, closed through r^6."""
    dens = harmonic_density(jet)
    return dens, shape_trace_series(dens.a_series, jet)


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


def _flow_start(geometry, u):
    """The set-up shared by the march and the flow series along ``u``.

    Returns ``u`` checked by ``_unit_directions``; -gamma[i, j, k] as an
    (n, n^2) matrix with rows i and columns (j, k); -R[a, e, f, d] as
    (n^2, n^2) rows (e, f) and columns (d, a); and the start rows
    [u; 0; I] of every direction, shape (m, 1 + 2n, n).
    """
    u = _unit_directions(geometry, u)
    n = geometry.dim
    batch = u.reshape(-1, n)
    y = np.zeros((len(batch), 1 + 2 * n, n))
    y[:, 0] = batch
    y[:, n + 1:] = np.eye(n)
    return (u, -geometry.gamma.reshape(n, n * n),
            -geometry.r.transpose(1, 2, 3, 0).reshape(n * n, n * n), y)


def _flow_blocks(u, rows):
    """The u, X and Z of flow rows [u; X^T; Z^T], shape (m, k, 1 + 2n, n),
    for m directions ``u`` at k radii or powers: (k, n) and (k, n, n) for
    one direction (n,), each with a leading axis of m for a batch."""
    n = u.shape[-1]
    rows = rows.reshape(*u.shape[:-1], *rows.shape[1:])
    return (rows[..., 0, :], np.swapaxes(rows[..., 1:n + 1, :], -2, -1),
            np.swapaxes(rows[..., n + 1:, :], -2, -1))


def _row_views(y, n):
    """A flow state y = [u; X^T; Z^T] of shape (m, 1 + 2n, n) with its
    views: the u rows, also as columns (m, n, 1) and rows (m, 1, n), and the
    X^T and Z^T blocks."""
    u = y[:, 0]
    return y, u, u[:, :, None], u[:, None, :], y[:, 1:n + 1], y[:, n + 1:]


def _flow_derivative(neg_gamma, neg_r_rows, y, out, scratch):
    """d/dr of the flow states y = [u; X^T; Z^T], written into ``out``; both
    are given as their ``_row_views``.

    With g = gamma(u), g[j, k] = gamma[i, j, k] u_i, and R_u[a, d] =
    R[a, u, u, d], every row moves by y -> y (-g); then Z^T is added to the
    X^T block and X^T (-R_u)^T to the Z^T block.  ``neg_gamma`` holds
    -gamma[i, j, k] with rows i and columns (j, k), and ``neg_r_rows`` holds
    -R[a, e, f, d] with rows (e, f) and columns (d, a), so -g and -R_u^T are
    one matrix product each for the whole batch.  ``scratch`` holds u u^T,
    -g and -R_u^T, each as (m, n, n) and as its (m, n * n) view, then one
    (m, n, n) array for X^T (-R_u)^T.
    """
    uu, uu_flat, neg_g, neg_g_flat, neg_r_u_t, neg_r_u_t_flat, x_r = scratch
    y, u, u_col, u_row, x, z = y
    out, _, _, _, out_x, out_z = out
    np.multiply(u_col, u_row, out=uu)
    np.matmul(uu_flat, neg_r_rows, out=neg_r_u_t_flat)
    np.matmul(u, neg_gamma, out=neg_g_flat)
    np.matmul(y, neg_g, out=out)
    out_x += z
    np.matmul(x, neg_r_u_t, out=x_r)
    out_z += x_r


def _jacobi_flow(geometry, u, radii, steps_per_unit):
    """Flow states along unit directions ``u``, at each radius in sorted order.

    ``u`` is one direction (n,) or a batch (m, n), n = ``geometry.dim``;
    every row must be finite and of norm 1.  Each direction carries its
    velocity u, the Jacobi endomorphism X (X(0) = 0, X'(0) = I) and its
    covariant derivative Z, in the left-invariant frame.  The march stores
    them as rows, [u; X^T; Z^T] of shape (1 + 2n, n), so the u row and the
    X^T and Z^T blocks are contiguous views; it starts at [u; 0; I].

    One fixed-step RK4 march from r = 0 takes the whole batch through the
    sorted radii.  The segment ending at radius r_k is split into
    ceil(max(dr * steps_per_unit, 16 dr / r_k)) equal steps, so no step is
    longer than 1/steps_per_unit or r_k/16.  The state, the three stage
    states and the four slopes are buffers allocated once per call: each
    stage state and each step's update is formed in place, and the state
    is copied out at each radius.  Every radius must be finite and
    positive, and ``steps_per_unit`` finite and > 0.  Returns the sorted
    radii and the arrays u, X and Z, shaped (k, n) and (k, n, n) for k
    radii, each with a leading batch axis of m for a batch.
    """
    radii = np.sort(np.asarray(radii, dtype=float))
    if (radii.size == 0 or not np.all(np.isfinite(radii)) or radii[0] <= 0.0
            or not 0 < steps_per_unit < math.inf):
        raise InvalidSampling(
            f"the Jacobi flow needs finite radii > 0 and a finite "
            f"steps_per_unit > 0, got {radii.tolist()} and {steps_per_unit}")
    n = geometry.dim
    u, neg_gamma, neg_r_rows, y = _flow_start(geometry, u)
    m = len(y)
    y2, y3, y4, k1, k2, k3, k4 = np.empty((7,) + y.shape)
    y_v, y2_v, y3_v, y4_v, k1_v, k2_v, k3_v, k4_v = (
        _row_views(a, n) for a in (y, y2, y3, y4, k1, k2, k3, k4))
    uu, neg_g, neg_r_u_t, x_r = np.empty((4, m, n, n))
    scratch = (uu, uu.reshape(m, n * n), neg_g, neg_g.reshape(m, n * n),
               neg_r_u_t, neg_r_u_t.reshape(m, n * n), x_r)
    states = []
    r_prev = 0.0
    for r_target in radii:
        dr = r_target - r_prev
        steps = int(math.ceil(max(dr * steps_per_unit, 16.0 * dr / r_target)))
        h = dr / max(steps, 1)
        half, sixth = 0.5 * h, h / 6.0
        # an overflow shows as a non-finite state, which raises below
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(steps):
                _flow_derivative(neg_gamma, neg_r_rows, y_v, k1_v, scratch)
                np.multiply(k1, half, out=y2)
                y2 += y
                _flow_derivative(neg_gamma, neg_r_rows, y2_v, k2_v, scratch)
                np.multiply(k2, half, out=y3)
                y3 += y
                _flow_derivative(neg_gamma, neg_r_rows, y3_v, k3_v, scratch)
                np.multiply(k3, h, out=y4)
                y4 += y
                _flow_derivative(neg_gamma, neg_r_rows, y4_v, k4_v, scratch)
                # y + h/6 (((k1 + 2 k2) + 2 k3) + k4), summed in that order
                k2 *= 2.0
                k2 += k1
                k3 *= 2.0
                k2 += k3
                k2 += k4
                k2 *= sixth
                y += k2
        if not np.all(np.isfinite(y[:, 1:n + 1])):
            raise StepFailure(f"non-finite Jacobi endomorphism at r = {r_target}")
        states.append(y.copy())
        r_prev = r_target
    return (radii, *_flow_blocks(u, np.stack(states, axis=1)))


def ode_oracle(geometry, u, radii, steps_per_unit=2048):
    """Normalized density theta = det X / r^n by integrating the Jacobi flow
    (fixed-step RK4, see ``_jacobi_flow``) along the unit direction ``u``,
    or along each row of a batch (m, n), which gives theta of shape (m, k).

    X = q A, with A the endomorphism in a parallel frame q and det q = 1, so
    det X = det A.  One march from r = 0 passes through the sorted radii,
    which must be positive; the result lists them in sorted order.
    """
    radii, _, x, _ = _jacobi_flow(geometry, u, radii, steps_per_unit)
    with np.errstate(over="ignore", invalid="ignore"):
        thetas = np.linalg.det(x) / radii ** geometry.dim
    finite = np.isfinite(thetas).reshape(-1, radii.size).all(axis=0)
    if not finite.all():
        # det(X) can overflow while X is still finite
        raise StepFailure(f"non-finite density at r = {radii[~finite][0]}")
    return OdeResult(radii=radii, theta_normalized=thetas)


def flow_series(geometry, u, order):
    """Taylor coefficients in r of the Jacobi-flow state, through r**order.

    The state is the one ``_jacobi_flow`` marches: the velocity u, the
    Jacobi endomorphism X and its covariant derivative Z, with u(0) = ``u``,
    X(0) = 0, X'(0) = I and Z(0) = I.  Its ODE is polynomial,
      u' = -g(u)^T u,  X' = Z - g(u)^T X,  Z' = -g(u)^T Z - R_u X,
    with g(u)[j, k] = gamma[i, j, k] u_i and R_u[a, d] = R[a, u, u, d], so
    the coefficients follow from Cauchy products, sums over a + b = j and
    a + b + c = j:
      (j+1) u_{j+1} = -sum g(u_a)^T u_b,
      (j+1) X_{j+1} = Z_j - sum g(u_a)^T X_b,
      (j+1) Z_{j+1} = -sum g(u_a)^T Z_b - sum R(u_a, u_b) X_c,
    where R(v, w)[a, d] = R[a, v, w, d]; X_1 = I comes out of the second.
    As in the march, each coefficient is held as rows [u; X^T; Z^T], so all
    rows take one product with -g, and R(u_a, u_b) is summed over a + b
    first, from the coefficient of u u^T.

    ``u`` is one direction (n,) or a batch (m, n), checked as the march
    checks it; ``order`` is an integer >= 1.  Returns the coefficients of
    u, X and Z, shaped (order + 1, n) and (order + 1, n, n), each with a
    leading batch axis of m for a batch: the r**j coefficient of X is
    ``x[..., j, :, :]``.
    """
    u, neg_gamma, neg_r_rows, start = _flow_start(geometry, u)
    if order < 1:
        raise OrderUnsupported(
            f"the flow series needs order >= 1, got {order}")
    n = geometry.dim
    m = len(start)
    y = np.zeros((order + 1,) + start.shape)
    y[0] = start
    # coefficient j of -g(u) and of -R(u, u)^T, as in _flow_derivative
    neg_g, neg_r_u_t = np.empty((2, order, m, n, n))
    for j in range(order):
        uu = np.einsum('amp,amq->mpq', y[:j + 1, :, 0], y[j::-1, :, 0])
        neg_g[j] = (y[j, :, 0] @ neg_gamma).reshape(m, n, n)
        neg_r_u_t[j] = (uu.reshape(m, n * n) @ neg_r_rows).reshape(m, n, n)
        slope = np.sum(y[j::-1] @ neg_g[:j + 1], axis=0)
        slope[:, 1:n + 1] += y[j, :, n + 1:]
        slope[:, n + 1:] += np.sum(y[j::-1, :, 1:n + 1] @ neg_r_u_t[:j + 1],
                                   axis=0)
        y[j + 1] = slope / (j + 1)
    return _flow_blocks(u, np.moveaxis(y, 0, 1))


def peel_coefficients(values, radii, powers):
    """Series coefficients at ``powers`` of r read off sampled residuals.

    ``values[k]`` is f(radii[k]) with f(0) = 0 after the caller removed the
    constant term.  One LU solve of the square design fits f on the even
    ladder powers[0], powers[0] + 2, ..., one rung per radius, so rungs
    that are not requested are removed too.  The powers must be finite and
    strictly increase with even gaps up to the top rung; the radii must be
    finite, > 0 and distinct, one per finite value.  A design that
    overflows, a singular one (a rung that underflows to zero at every
    radius) and a solution that is not finite raise ``InvalidSampling``.
    """
    radii = np.asarray(radii, dtype=float)
    values = np.asarray(values, dtype=float)
    powers = np.asarray(powers, dtype=float)
    gaps = np.diff(powers)
    if (radii.ndim != 1 or values.shape != radii.shape or radii.size == 0
            or not np.all(np.isfinite(values))
            or not np.all(np.isfinite(radii)) or radii.min() <= 0.0
            or np.any(np.diff(np.sort(radii)) == 0)
            or powers.ndim != 1 or powers.size == 0
            or not np.all(np.isfinite(powers)) or np.any(gaps <= 0)
            or np.any(gaps % 2 != 0) or gaps.sum() > 2 * (radii.size - 1)):
        raise InvalidSampling(
            f"peeling needs distinct finite radii > 0, one per finite "
            f"value, and finite powers rising by even gaps within the "
            f"ladder; got "
            f"{values.size} values at radii {radii.tolist()}, powers {powers}")
    ladder = powers[0] + 2 * np.arange(radii.size)
    with np.errstate(over="ignore", under="ignore"):
        design = np.stack([radii ** p for p in ladder], axis=1)
    coeffs = None
    if np.all(np.isfinite(design)):
        try:
            coeffs = np.linalg.solve(design, values)
        except np.linalg.LinAlgError:   # singular: refused below
            pass
    if coeffs is None or not np.all(np.isfinite(coeffs)):
        raise InvalidSampling(
            f"peeling cannot solve the powers {ladder.tolist()} at radii "
            f"{radii.tolist()}: the design is singular or not finite in "
            f"float64")
    return list(coeffs[((powers - powers[0]) // 2).astype(int)])
