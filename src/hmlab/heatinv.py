"""Heat-coefficient integrands on geodesic spheres and their decompositions.

Interior coefficient: the pointwise combination (5 scal^2 - 2|Ric|^2 +
2|R|^2)/360, rewritten through the direction constants on an Einstein
harmonic space.  Boundary coefficients: the polynomial combinations of
shape-operator traces whose r^3 coefficients decompose over the basis
(C^3, CH, L, tr R'R'); the tr R'R' slope is recovered by a per-direction
linear fit instead of being synthesized, and the structural rationals come
from exact series bookkeeping.  The hatted constants of the sphere
expansions are never synthesized; only the direction-dependent parts and
their averages are reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import FitIllConditioned
from .geometry import curvature_jet, ricci
from .invariants import point_invariants, random_directions
from .radial import _jacobi_flow, harmonic_series
from .series import TruncatedSeries


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
    """Same combination with |R|^2 folded through the H identity; the H
    route to ``BoundaryPolynomials.p1``, checked against ``a2_integrand``."""
    n, c, h = inv.dim, inv.c, inv.h
    return (5.0 * (n * c) ** 2 - 2.0 * n * c * c
            + (4.0 * n / 3.0) * ((n + 2) * h - c * c)) / 360.0


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
    """Direction parts (1/16) tr R'R' and (4/9) beta along ``u``."""
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


@dataclass
class BoundaryPolynomials:
    """Boundary coefficient series for one direction.

    ``p1`` is the constant interior-style combination; the r-dependent
    series keep powers -3..3.  ``r3`` maps each polynomial to its r^3
    coefficient; ``decomposition`` holds the structural rationals.
    """

    p1: float
    p2: TruncatedSeries
    p3_dirichlet: TruncatedSeries
    p3_neumann: TruncatedSeries
    r3: dict
    decomposition: dict


def boundary_polynomials(shape, inv, density=None, averaged_density=None):
    """Assemble the boundary polynomials from transverse trace series.

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
    r3 = {k: float(s.coefficient(3)) for k, s in series.items()}
    return BoundaryPolynomials(p1=a2_integrand(inv),
                               p2=series["p2"],
                               p3_dirichlet=series["p3_dirichlet"],
                               p3_neumann=series["p3_neumann"],
                               r3=r3,
                               decomposition=structural_p_decompositions(n))


@dataclass
class DecompositionFit:
    """Per-direction linear fit of an r^3 coefficient against tr R'R'.

    The slope is reported raw and snapped to a rational with denominator
    at most 10000; the structural intercept is the exact (C^3, CH, L)
    combination.
    """

    quantity: str
    degree: int
    basis: dict
    slope_fitted: float
    slope_snapped: Fraction
    intercept_fitted: float
    intercept_structural: float
    fit_residual: float


def boundary_decomposition(geometry, n_directions=16, seed=0):
    """Fit the r^3 coefficients of P2/P3 against tr R'R' over directions.

    On a harmonic space only tr R'R' varies with direction, so each r^3
    coefficient is affine in it; the design degenerates on symmetric
    members (tr R'R' identically zero), which raises FitIllConditioned.
    All directions share one order-3 jet; each is expanded from its slice.
    """
    inv = point_invariants(geometry)
    rng = np.random.default_rng(seed)
    dirs = random_directions(geometry.dim, n_directions, rng)
    batch = curvature_jet(geometry, dirs, order=3)
    r1 = batch.matrices[1]
    ps = np.trace(r1 @ r1, axis1=1, axis2=2)
    if ps.max() - ps.min() <= 1e-12 * max(abs(ps).max(), 1.0):
        raise FitIllConditioned(
            "tr R'R' constant over sampled directions; slope unidentifiable")
    expansions = [harmonic_series(batch.direction(k))
                  for k in range(len(dirs))]
    avg_density = TruncatedSeries(
        [np.mean([float(d.normalized.coefficient(k)) for d, _ in expansions])
         for k in range(7)], offset=0)
    r3 = [boundary_polynomials(shape, inv, density=dens.normalized,
                               averaged_density=avg_density).r3
          for dens, shape in expansions]
    c3 = Fraction(inv.c).limit_denominator(10 ** 9) ** 3
    ch = Fraction(inv.c).limit_denominator(10 ** 9) \
        * Fraction(inv.h).limit_denominator(10 ** 9)
    lfrac = Fraction(inv.l).limit_denominator(10 ** 9)
    fits = {}
    design = np.stack([np.ones_like(ps), ps], axis=1)
    for key, basis in structural_p_decompositions(geometry.dim).items():
        values = np.array([r[key] for r in r3])
        sol, *_ = np.linalg.lstsq(design, values, rcond=None)
        intercept, slope = float(sol[0]), float(sol[1])
        fits[key] = DecompositionFit(
            quantity=key, degree=3, basis=basis,
            slope_fitted=slope,
            slope_snapped=Fraction(slope).limit_denominator(10000),
            intercept_fitted=intercept,
            intercept_structural=float(basis["C3"] * c3 + basis["CH"] * ch
                                       + basis["L"] * lfrac),
            fit_residual=float(np.max(np.abs(design @ sol - values))))
    return fits


def averaged_boundary_r3(inv):
    """Direction-averaged r^3 coefficients of the boundary polynomials,
    from the member's :class:`PointInvariants`.

    Averaging the affine dependence on tr R'R' replaces it by its exact
    sphere average, so the result needs no fitting and exists on symmetric
    members where the per-direction fit degenerates.
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

    Returns the sorted radii and the arrays ``ric_sq`` and ``riem_sq`` in that
    order.  The Gauss equation R^S_abcd = R_abcd + S_ad S_bc - S_ac S_bd is
    applied in the base frame: with v the flow's velocity, P = I - v v^T and
    S = P q sigma q^T P (sigma = b a^-1 in the parallel frame q),
      Ric^S = P (Ric - R_v) P + tr(S) S - S^2,   R_v[a, b] = R[v, a, b, v].
    For |R^S|^2 expand each of the four projectors of R as I - v v^T.  One v
    gives -|R(v, ., ., .)|^2 per slot; two v's fill a skew pair (ab) or (cd)
    and vanish, or straddle them and give +|R_v|^2 four times; three or four
    always fill a pair.  The cross term is 4 R_abcd S_ad S_bc by the skew in
    (cd), and the S-S term is 2 (tr S^2)^2 - 2 tr S^4, so
      |R^S|^2 = |R|^2 - 4|R(v)|^2 + 4|R_v|^2 + 4 R_abcd S_ad S_bc
                + 2 (tr S^2)^2 - 2 tr S^4   (no rank-4 array is built).
    """
    radii, states = _jacobi_flow(geometry, u, radii, steps_per_unit)
    r = geometry.r
    n = r.shape[0]
    r_flat = r.reshape(n, -1)
    ric = ricci(r)
    norm_r_sq = float(np.sum(r * r))
    ric_sq, riem_sq = [], []
    for v, q, a, b in states:
        proj = np.eye(n) - np.outer(v, v)
        s = proj @ q @ b @ np.linalg.inv(a) @ q.T @ proj
        s2 = s @ s
        r_v_rows = v @ r_flat                      # R(v, ., ., .), flattened
        r_v = (r_v_rows.reshape(n * n, n) @ v).reshape(n, n)
        ric_s = proj @ (ric - r_v) @ proj + np.trace(s) * s - s2
        ric_sq.append(np.sum(ric_s * ric_s))
        riem_sq.append(norm_r_sq - 4.0 * (r_v_rows @ r_v_rows)
                       + 4.0 * np.sum(r_v * r_v)
                       + 4.0 * np.einsum('abcd,ad,bc->', r, s, s)
                       + 2.0 * np.trace(s2) ** 2 - 2.0 * np.sum(s2 * s2.T))
    return radii, np.array(ric_sq), np.array(riem_sq)


def alpha2_cross_difference(geometry, u1, u2, radii=None, powers=(2, 3, 4, 5),
                            steps_per_unit=1024):
    """Difference of the r^2 coefficients of |Ric^S|^2 across two directions.

    On a harmonic space the 1/r^4, 1/r^2 and constant parts of the sphere
    curvature norm are direction independent, so subtracting the sampled
    curves cancels them exactly and leaves the direction signal starting
    at r^2; fitting the difference sidesteps the dynamic-range problem of
    per-direction fits.  Returns (fitted difference, jet prediction), the
    prediction being (tr R'R'(u1) - tr R'R'(u2))/16.
    """
    if radii is None:
        radii = np.geomspace(0.08, 0.45, 8)
    radii, ric1, _ = _sphere_curvature_samples(geometry, u1, radii,
                                               steps_per_unit)
    _, ric2, _ = _sphere_curvature_samples(geometry, u2, radii, steps_per_unit)
    design = np.stack([radii ** p for p in powers], axis=1)
    coeffs, *_ = np.linalg.lstsq(design, ric1 - ric2, rcond=None)
    fitted = float(coeffs[powers.index(2)])
    r1 = curvature_jet(geometry, np.asarray([u1, u2], float), order=1).matrices[1]
    p1, p2 = np.trace(r1 @ r1, axis1=1, axis2=2)
    predicted = (float(p1) - float(p2)) / 16.0
    return fitted, predicted


def sphere_intrinsic_oracle(geometry, u, radii=None, powers=(-4, -2, 0, 1, 2, 3),
                            steps_per_unit=4096):
    """Fit the radial expansion of the intrinsic sphere curvature norms.

    Returns fitted coefficients of |Ric^S|^2 and |R^S|^2 at the given
    powers; the r^2 coefficient's direction-dependent part is the oracle
    for (1/16) tr R'R' (compare across directions, which cancels the
    unknown constant part).  The samples come from one Jacobi-flow march
    through the sorted radii, which must be positive, so the fit does not
    depend on the order the radii are given in.

    The default design (six radii in geomspace(0.05, 0.4), powers -4..3)
    has condition number about 4.4e8.  Its r^1..r^3 coefficients therefore
    carry no error estimate: a 1e-14 relative change in the samples has
    moved them by up to 2.5e-4 relative.  The r^-4 coefficients are stable.
    """
    if radii is None:
        radii = np.geomspace(0.05, 0.4, 6)
    if len(radii) < len(powers):
        raise FitIllConditioned("fewer radii than fitted powers")
    radii, ric_sq, riem_sq = _sphere_curvature_samples(geometry, u, radii,
                                                       steps_per_unit)
    design = np.stack([radii ** p for p in powers], axis=1)
    cond = np.linalg.cond(design)
    if not np.isfinite(cond) or cond > 1e12:
        raise FitIllConditioned(f"fit design condition number {cond:.2e}")
    coeffs, *_ = np.linalg.lstsq(design, np.stack([ric_sq, riem_sq], axis=1),
                                 rcond=None)
    return {"powers": list(powers), "ric_sq": coeffs[:, 0].tolist(),
            "riem_sq": coeffs[:, 1].tolist()}
