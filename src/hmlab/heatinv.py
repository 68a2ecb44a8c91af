"""Heat-coefficient data on geodesic spheres and their decompositions.

Boundary coefficients: the polynomial combinations of shape-operator traces
whose r^3 coefficients decompose over the basis (C^3, CH, L, tr R'R'); the
structural rationals come from exact series bookkeeping, and the direction
average replaces tr R'R' by its exact sphere average.  The hatted constants
of the sphere expansions are never synthesized; only the direction-dependent
parts and their averages are reported.  The intrinsic sphere-curvature
oracles read the same direction parts off one Taylor series of the Jacobi
flow.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import InvalidSampling, OutsideDomain, checked_integer
from .geometry import _unit_directions, curvature_jet, ricci
from .radial import flow_series
from .series import TruncatedSeries


# -- boundary polynomials ------------------------------------------------------


def structural_r3_table(n):
    """Exact r^3 coefficients of the trace brackets over (C3, CH, L, trR'R').

    Derived from the frozen transverse-trace series; the sphere reproduces
    every entry through the cotangent expansions.
    """
    n = checked_integer("r^3 table", "n", n, 1, error=OutsideDomain)
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
    n = checked_integer("r^3 decompositions", "n", n, 1, error=OutsideDomain)
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


def _frobenius(a, b):
    """sum_ij a_ij b_ij of two matrix series, as a scalar series."""
    return (a * TruncatedSeries([c.T for c in b.coeffs], b.offset)).trace()


def _sphere_curvature_series(geometry, u, top):
    """Laurent series of |Ric^S|^2 and |R^S|^2 of the geodesic spheres
    through exp(r u), known through r**top, from one flow series.

    ``u`` is one unit direction (n,) or a batch (m, n), taken as one batch
    of ``radial.flow_series``.  Returns one pair (ric_sq, riem_sq) of
    :class:`TruncatedSeries` per direction, each starting at r^-4.  With
    v, X and Z the flow state, P = I - v v^T and S = P Z X^-1 P, the series
    T = r S = P Z (X/r)^-1 P starts at P(0); X/r is inverted as a power
    series.  The Gauss equation R^S_abcd = R_abcd + S_ad S_bc - S_ac S_bd
    is applied in the base frame:
      r^2 Ric^S = r^2 P (Ric - R_v) P + tr(T) T - T^2,
      r^4 |R^S|^2 = r^4 (|R|^2 - 4|R(v)|^2 + 4|R_v|^2) + 4 r^2 R_abcd T_ad T_bc
                    + 2 (tr T^2)^2 - 2 tr T^4,
    with R_v[a, b] = R[v, a, b, v].  For |R^S|^2 each of the four
    projectors of R is expanded as I - v v^T: one v gives -|R(v, ., ., .)|^2
    per slot; two v's fill a skew pair (ab) or (cd) and vanish, or straddle
    them and give +|R_v|^2 four times; three or four always fill a pair.
    The cross term is 4 R_abcd S_ad S_bc by the skew in (cd).  r^4 times
    either norm is a power series, needed through r**(top + 4); so is T,
    and X/r through that power takes X through the next one.
    """
    r = geometry.r
    n = r.shape[0]
    order = top + 4
    v, x, z = flow_series(geometry, u, order + 1)
    quad = r.transpose(0, 3, 1, 2).reshape(n * n, n * n)   # R_abcd at (ad, bc)

    def contract(series):
        """sum_ef c_ef R[e, a, b, f] for each coefficient c of ``series``."""
        return TruncatedSeries([(c.reshape(-1) @ quad).reshape(n, n)
                                for c in series.coeffs], series.offset)

    r_rows = r.reshape(n, -1)
    r_v_form = r_rows @ r_rows.T                  # |R(v)|^2 = v^T r_v_form v
    ric, norm_r_sq = ricci(r), float(np.sum(r * r))
    out = []
    for vs, xs, zs in zip(v.reshape(-1, order + 2, n),
                          x.reshape(-1, order + 2, n, n),
                          z.reshape(-1, order + 2, n, n)):
        v_v = (TruncatedSeries(list(vs[:-1, :, None]))
               * TruncatedSeries(list(vs[:-1, None, :])))
        proj = (-v_v).plus_term(np.eye(n), 0)
        t = (proj * TruncatedSeries(list(zs[:-1]))
             * TruncatedSeries(list(xs[1:])).inverse() * proj)
        r_v = contract(v_v)
        t_sq = t * t
        ric_s = (t.trace() * t - t_sq
                 + (proj * (-r_v).plus_term(ric, 0) * proj).shift(2))
        tr_t_sq = t_sq.trace()
        ambient = (_frobenius(r_v, r_v).scale(4.0)
                   - TruncatedSeries([4.0 * np.sum(c * r_v_form)
                                      for c in v_v.coeffs])
                   ).plus_term(norm_r_sq, 0)
        riem_s = ((tr_t_sq * tr_t_sq).scale(2.0)
                  - (t_sq * t_sq).trace().scale(2.0)
                  + _frobenius(t, contract(t)).scale(4.0).shift(2)
                  + ambient.shift(4))
        out.append((_frobenius(ric_s, ric_s).shift(-4), riem_s.shift(-4)))
    return out


def _one_direction(geometry, u):
    """``u`` checked by ``_unit_directions`` to be unit directions, and then
    to be exactly one of shape (n,); anything else raises
    :class:`InvalidSampling` before a sphere-curvature oracle takes a series."""
    u = _unit_directions(geometry, u)
    if u.shape != (geometry.dim,):
        raise InvalidSampling(
            f"a sphere-curvature oracle takes one direction of shape "
            f"({geometry.dim},), got {u.shape}")
    return u


def alpha2_cross_difference(geometry, u1, u2):
    """Difference of the r^2 coefficients of |Ric^S|^2 across two directions.

    On a harmonic space the 1/r^4, 1/r^2 and constant parts of the sphere
    curvature norm are direction independent, so the difference of two
    directions' series starts at r^2, where it is the direction signal.
    ``u1`` and ``u2`` are unit directions of shape (n,) each, taken as one
    batch of the flow series, through the r^2 coefficient.  Returns (series
    difference, jet prediction), the prediction being
    (tr R'R'(u1) - tr R'R'(u2))/16.
    """
    pair = np.stack([_one_direction(geometry, u) for u in (u1, u2)])
    (ric1, _), (ric2, _) = _sphere_curvature_series(geometry, pair, top=2)
    difference = float(ric1.coefficient(2) - ric2.coefficient(2))
    r1 = curvature_jet(geometry, pair, order=1).matrices[1]
    p1, p2 = np.trace(r1 @ r1, axis1=1, axis2=2)
    predicted = (float(p1) - float(p2)) / 16.0
    return difference, predicted


def sphere_intrinsic_oracle(geometry, u):
    """The radial expansion of the intrinsic sphere curvature norms.

    Returns the powers (-4, -2, 0, 1, 2, 3) and the coefficients of
    |Ric^S|^2 and |R^S|^2 at them, read off one flow series through r^3;
    the r^2 coefficient's direction-dependent part is the oracle for
    (1/16) tr R'R' (compare across directions, which cancels the unknown
    constant part).  ``u`` is one unit direction of shape (n,); anything
    else raises :class:`InvalidSampling` before the series is taken.
    """
    powers = [-4, -2, 0, 1, 2, 3]
    [(ric_sq, riem_sq)] = _sphere_curvature_series(
        geometry, _one_direction(geometry, u), top=powers[-1])
    return {"powers": powers,
            "ric_sq": [float(ric_sq.coefficient(p)) for p in powers],
            "riem_sq": [float(riem_sq.coefficient(p)) for p in powers]}
