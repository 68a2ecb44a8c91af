"""Heat-coefficient data on geodesic spheres and their decompositions.

Boundary coefficients: the polynomial combinations of shape-operator traces
whose r^3 coefficients decompose over the basis (C^3, CH, L, tr R'R'); the
structural rationals come from exact series bookkeeping, and the direction
average replaces tr R'R' by its exact sphere average.  The hatted constants
of the sphere expansions are never synthesized; only the direction-dependent
parts and their averages are reported.  The intrinsic sphere-curvature
oracles read the same direction parts off Jacobi-flow samples.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import InvalidSampling
from .geometry import curvature_jet, ricci
from .radial import _jacobi_flow, _least_squares


# -- boundary polynomials ------------------------------------------------------


def structural_r3_table(n):
    """Exact r^3 coefficients of the trace brackets over (C3, CH, L, trR'R').

    Derived from the frozen transverse-trace series; the sphere reproduces
    every entry through the cotangent expansions.
    """
    n = int(n)
    f = Fraction
    return {
        "cube": {"C3": f(-1, 27), "CH": f(2 * (n - 1), 45),
                 "L": f(-(n - 1) ** 2, 5040), "TrRpRp": f(0)},
        "mixed": {"C3": f(0), "CH": f(-1, 135), "L": f(n - 1, 3780),
                  "TrRpRp": f(0)},
        "pure_cube": {"C3": f(0), "CH": f(0), "L": f(1, 30240),
                      "TrRpRp": f(-1, 96)},
        "curv_sigma": {"C3": f(0), "CH": f(0), "L": f(-1, 1440),
                       "TrRpRp": f(1, 96)},
    }


def _combine(table_rows, weights):
    out = {"C3": Fraction(0), "CH": Fraction(0), "L": Fraction(0),
           "TrRpRp": Fraction(0)}
    for row, w in zip(table_rows, weights):
        for key in out:
            out[key] += w * row[key]
    return out


P3_WEIGHTS = {
    "p3_dirichlet": (Fraction(40, 21), Fraction(-88, 7), Fraction(320, 21)),
    "p3_neumann": (Fraction(40, 3), Fraction(8), Fraction(32, 3)),
}


def structural_p_decompositions(n):
    """r^3 decompositions of P2 and the two cubic boundary polynomials."""
    n = int(n)
    t = structural_r3_table(n)
    # P2 = (20n - 8) C tr(sigma) + 16 tr(R_nu sigma); tr(sigma)'s r^3
    # coefficient is -H/45, so the C-weighted term lands in CH.
    out = {"p2": _combine([t["curv_sigma"]], [Fraction(16)])}
    out["p2"]["CH"] += Fraction(-(20 * n - 8), 45)
    for name, weights in P3_WEIGHTS.items():
        out[name] = _combine([t["cube"], t["mixed"], t["pure_cube"]], weights)
    return out


def averaged_boundary_r3(inv):
    """Direction-averaged r^3 coefficients of the boundary polynomials,
    from the member's :class:`PointInvariants`.

    Averaging the affine dependence on tr R'R' replaces it by its exact
    sphere average, so the result needs no fitting and exists on symmetric
    members, where tr R'R' is constant and a fit against it degenerates.
    """
    # 16 times the (1/16) tr R'R' average; a power-of-two scaling is exact
    avg_p = 16.0 * inv.alpha_beta_averages()[0]
    values = {"C3": inv.c ** 3, "CH": inv.c * inv.h, "L": inv.l,
              "TrRpRp": avg_p}
    struct = structural_p_decompositions(inv.dim)
    return {name: sum(float(coef) * values[slot]
                      for slot, coef in table.items())
            for name, table in struct.items()}


# -- intrinsic geodesic-sphere oracle -----------------------------------------


def _sphere_curvature_samples(geometry, u, radii, steps_per_unit):
    """|Ric^S|^2 and |R^S|^2 of the geodesic spheres through exp(r u), at
    each radius r, from one Jacobi-flow march.

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


# The fixed fit of each oracle: the sample radii, the powers of r fitted
# through them and the march's RK4 steps per unit length.  The design
# matrices have condition numbers 2.9e3 and 4.4e8.
_ALPHA2_FIT = (np.geomspace(0.08, 0.45, 8), (2, 3, 4, 5), 1024)
_INTRINSIC_FIT = (np.geomspace(0.05, 0.4, 6), (-4, -2, 0, 1, 2, 3), 4096)


def alpha2_cross_difference(geometry, u1, u2):
    """Difference of the r^2 coefficients of |Ric^S|^2 across two directions.

    On a harmonic space the 1/r^4, 1/r^2 and constant parts of the sphere
    curvature norm are direction independent, so subtracting the sampled
    curves cancels them exactly and leaves the direction signal starting
    at r^2; fitting the difference sidesteps the dynamic-range problem of
    per-direction fits.  Both directions march together through eight
    radii in geomspace(0.08, 0.45) at 1024 steps per unit, and the fit
    takes the powers 2..5.  Returns (fitted difference, jet prediction),
    the prediction being (tr R'R'(u1) - tr R'R'(u2))/16.
    """
    radii, powers, steps_per_unit = _ALPHA2_FIT
    pair = np.asarray([u1, u2], dtype=float)
    ric_sq, _ = _sphere_curvature_samples(geometry, pair, radii,
                                          steps_per_unit)
    fitted = float(_least_squares(radii, powers, ric_sq[0] - ric_sq[1])[0])
    r1 = curvature_jet(geometry, pair, order=1).matrices[1]
    p1, p2 = np.trace(r1 @ r1, axis1=1, axis2=2)
    predicted = (float(p1) - float(p2)) / 16.0
    return fitted, predicted


def sphere_intrinsic_oracle(geometry, u):
    """Fit the radial expansion of the intrinsic sphere curvature norms.

    Returns the powers (-4, -2, 0, 1, 2, 3) and the fitted coefficients of
    |Ric^S|^2 and |R^S|^2 at them; the r^2 coefficient's
    direction-dependent part is the oracle for (1/16) tr R'R' (compare
    across directions, which cancels the unknown constant part).  The
    samples come from one Jacobi-flow march through six radii in
    geomspace(0.05, 0.4) at 4096 steps per unit.

    The design has condition number about 4.4e8.  Its r^1..r^3
    coefficients therefore carry no error estimate: a 1e-14 relative
    change in the samples has moved them by up to 2.5e-4 relative.  The
    r^-4 coefficients are stable.  ``u`` is one direction of shape (n,);
    anything else raises :class:`InvalidSampling` before the march.
    """
    if np.shape(u) != (geometry.dim,):
        raise InvalidSampling(
            f"the sphere-curvature oracle takes one direction of shape "
            f"({geometry.dim},), got {np.shape(u)}")
    radii, powers, steps_per_unit = _INTRINSIC_FIT
    ric_sq, riem_sq = _sphere_curvature_samples(geometry, u, radii,
                                                steps_per_unit)
    coeffs = _least_squares(radii, powers, np.stack([ric_sq, riem_sq], axis=1))
    return {"powers": list(powers), "ric_sq": coeffs[:, 0].tolist(),
            "riem_sq": coeffs[:, 1].tolist()}
