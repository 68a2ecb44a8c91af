"""Release gate: eight numbered end-to-end checks.

Each test prints one summary line so a `pytest -s` run reads as a
checklist.  Tolerances here are contractual; loosening them is a release
decision, not a test fix.
"""

import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.special

from hmlab.cli import main
from hmlab.errors import DegreeMismatch
from hmlab.exactlinalg import det, rank
from hmlab.geometry import curvature_jet
from hmlab.invariants import (beta_tensor, grad_quad_tensor,
                              gradient_adjusted_cubics, mc_average,
                              point_invariants, sphere_average,
                              verify_average_identities,
                              verify_einstein_identities, verify_harmonicity)
from hmlab.radial import (density_series, harmonic_trace_c6, jacobi_series,
                          ode_oracle, peel_coefficients, radial_density,
                          shape_trace_series, vk_recursion, volume_series)
from hmlab.sis import (ball_boundary_vector, ball_volume_vector,
                       canonical_generators, density_vector, eliminate,
                       lichnerowicz_vector, rank_and_membership,
                       ricci_square_vector)
from hmlab.spectra import (RadialOperator, conjugacy_check,
                           hnm_basis_for_lattice, hnm_multiplicity_oracle,
                           laplacian_symbol, radial_spectrum)


def test_01_trace_spreads_direction_independent(all_spaces):
    """Five curvature traces constant over 100 random directions, < 60 s."""
    t0 = time.perf_counter()
    worst = 0.0
    for name, geo in all_spaces.items():
        report = verify_harmonicity(geo, n_directions=100, seed=11, tol=1e-8)
        assert len(report.rows) == 5, name
        for row in report.rows:
            assert row.abs_residual < 1e-8, (name, row.identity,
                                             row.abs_residual)
            worst = max(worst, row.abs_residual)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"\n[1] PASS trace spreads: worst {worst:.2e} < 1e-08 over "
          f"100 directions x {len(all_spaces)} spaces in {elapsed:.1f}s")


def test_02_identity_residuals(all_spaces):
    """Quadratic-norm, cubic-L and Lichnerowicz residuals < 1e-8 relative."""
    required = ("norm-r-quadratic", "l-from-cubics", "lichnerowicz")
    worst = 0.0
    for name, geo in all_spaces.items():
        rows = {r.identity: r for r in verify_einstein_identities(geo).rows}
        for key in required:
            rel = rows[key].rel_residual
            assert rel < 1e-8, (name, key, rel)
            worst = max(worst, rel)
    print(f"\n[2] PASS identity residuals: worst relative {worst:.2e} "
          f"< 1e-08 on {len(all_spaces)} spaces")


def test_03_twelve_dimensional_separation(hh3, ns12):
    """The two 12-dim members share every low-order invariant but are
    separated by the curvature-gradient norm; the gradient-adjusted cubic
    combination coincides again."""
    pa, pb = point_invariants(hh3), point_invariants(ns12)
    da, db = radial_density(hh3), radial_density(ns12)
    shared = {
        "C": (pa.c, pb.c), "H": (pa.h, pb.h), "L": (pa.l, pb.l),
        "A2": (float(da.normalized.coefficient(2)),
               float(db.normalized.coefficient(2))),
        "A4": (float(da.normalized.coefficient(4)),
               float(db.normalized.coefficient(4))),
        "A6": (float(da.normalized.coefficient(6)),
               float(db.normalized.coefficient(6))),
    }
    for key, (va, vb) in shared.items():
        rel = abs(va - vb) / max(abs(va), abs(vb))
        assert rel < 1e-7, (key, va, vb)
    assert abs(pa.grad_r_sq) < 1e-10
    assert pb.grad_r_sq > 1e-6
    adj_a = gradient_adjusted_cubics(pa)["r_hat_minus_7_24_grad"]
    adj_b = gradient_adjusted_cubics(pb)["r_hat_minus_7_24_grad"]
    rel = abs(adj_a - adj_b) / abs(adj_a)
    assert rel < 1e-7, (adj_a, adj_b)
    print(f"\n[3] PASS separation: shared invariants within 1e-07, "
          f"grad norms {pa.grad_r_sq:.1e} vs {pb.grad_r_sq:.1f}, adjusted "
          f"cubic {adj_a:.6g} vs {adj_b:.6g}")


def test_04_average_identities_exact_and_monte_carlo(ns12):
    """Exact sphere moments of the two cubic-trace averages match their
    closed forms to 1e-7; a seeded million-sample run lands within 4 SE."""
    rows = {r.identity: r for r in verify_average_identities(ns12).rows}
    for key in ("beta-average", "gradient-average"):
        assert rows[key].rel_residual < 1e-7, (key, rows[key].rel_residual)
    n = ns12.dim
    exact = {
        "beta": sphere_average(beta_tensor(ns12)),
        "grad_quad": sphere_average(grad_quad_tensor(ns12)),
    }
    zs = {}
    for quantity, target in exact.items():
        mean, stderr = mc_average(ns12, quantity, n_samples=10 ** 6, seed=7)
        assert stderr > 0.0
        z = abs(mean - target) / stderr
        assert z < 4.0, (quantity, mean, target, stderr)
        zs[quantity] = z
    print(f"\n[4] PASS averages: exact rel "
          f"{max(r.rel_residual for r in rows.values()):.1e}, Monte Carlo "
          f"z-scores {zs['beta']:.2f} / {zs['grad_quad']:.2f} (4 SE cap)")


def test_05_series_machinery(hh2):
    """Shape-trace coefficients, volume recursion, and the numerical Jacobi
    flow all reproduce the algebraic series."""
    pi = point_invariants(hh2)
    n = hh2.dim
    u = np.zeros(n)
    u[0] = 1.0
    jet = curvature_jet(hh2, u, order=3)
    dens = density_series(jacobi_series(jet, order=5),
                          trace_c6=harmonic_trace_c6(jet))
    shape = shape_trace_series(dens.a_series, jet, r4_trace=0.0)
    targets = {-1: n - 1.0, 1: -pi.c / 3.0, 3: -pi.h / 45.0,
               5: -pi.l / 15120.0}
    for order, want in targets.items():
        got = float(shape.tr_sigma.coefficient(order))
        assert abs(got - want) < 1e-6 * abs(want), (order, got, want)

    p = float(np.trace(jet.matrices[1] @ jet.matrices[1]))
    want = -pi.l / 1440.0 + p / 96.0
    got = float(shape.tr_curv_sigma.coefficient(3))
    assert abs(got - want) < 1e-6 * abs(want)

    area, ball = volume_series(dens.normalized, n)
    quotient = ball.shift(-(n - 1)) * area.shift(-(n - 1)).inverse()
    vks = vk_recursion(dens.normalized.coeffs, n, 7)
    worst_vk = max(abs(float(vks[k]) - float(quotient.coefficient(k + 1)))
                   for k in range(7))
    assert worst_vk < 1e-12

    radii = np.linspace(0.15, 0.45, 6)
    flow = ode_oracle(hh2, u, radii, steps_per_unit=2048)
    got2, got4 = peel_coefficients(flow.theta_normalized - 1.0,
                                   flow.radii, (2, 4))
    a2 = float(dens.normalized.coefficient(2))
    a4 = float(dens.normalized.coefficient(4))
    rel2 = abs(got2 - a2) / abs(a2)
    rel4 = abs(got4 - a4) / abs(a4)
    assert rel2 < 1e-5 and rel4 < 1e-5, (rel2, rel4)
    print(f"\n[5] PASS series machinery: trace coefficients < 1e-06, "
          f"volume recursion {worst_vk:.1e} < 1e-12, flow-vs-series "
          f"r^2/r^4 rel {rel2:.1e}/{rel4:.1e} < 1e-05")


def test_06_identity_space_engine():
    """Exact-rational structure: rank-3 main block, no graded membership
    for the Lichnerowicz vector, and no cross-degree elimination."""
    t0 = time.perf_counter()
    n = 12
    matrix = [list(density_vector(n).main_terms),
              list(ricci_square_vector(n).main_terms),
              list(lichnerowicz_vector(n).main_terms)]
    d = det(matrix)
    assert rank(matrix) == 3
    assert d == Fraction(135)

    space = canonical_generators(n)
    graded = rank_and_membership(space, lichnerowicz_vector(n), graded=True)
    assert graded.member is False

    with pytest.raises(DegreeMismatch):
        eliminate(ball_boundary_vector(n), ball_volume_vector(n),
                  "L", mode="proper")
    with pytest.raises(DegreeMismatch):
        eliminate(density_vector(n), ricci_square_vector(n),
                  "R_hat", mode="proper")
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\n[6] PASS identity engine: main det {d}, rank 3, graded "
          f"membership refused, cross-degree elimination raises "
          f"({elapsed * 1000:.0f} ms)")


def test_07_spectral_models(hh3_jmap, ns12_jmap):
    """Multiplicity multisets agree across members and against the
    eigen-decomposition oracle; conjugations and the reference spectrum
    hold within their stated errors."""
    for degree in range(4):
        dims_a = hnm_basis_for_lattice(hh3_jmap, (1, 0, 0), degree).dims
        dims_b = hnm_basis_for_lattice(ns12_jmap, (1, 0, 0), degree).dims
        assert dims_a == dims_b, degree
        rows = laplacian_symbol(hh3_jmap, (1, 0, 0)).j_unit_rows
        assert dims_a == hnm_multiplicity_oracle(rows, degree), degree

    tested = [(1, 0, 0), (2, 0, 0), (1, 2, 2), (2, 2, 1)]
    worst_residual = 0.0
    for z in tested:
        report = conjugacy_check(hh3_jmap.j_of(z).astype(float),
                                 ns12_jmap.j_of(z).astype(float))
        assert report.residual < 1e-10, z
        worst_residual = max(worst_residual, report.residual)

    t_domain = 10.0
    op = RadialOperator(k=2, n=0, m=0, mu=0.0)
    coarse = radial_spectrum(op, t_domain, grid=256, count=5)
    exact = -(scipy.special.jn_zeros(0, 5) ** 2) / t_domain
    for i in range(5):
        assert abs(coarse.eigenvalues[i] - exact[i]) <= \
            coarse.error_bars[i] + 1e-12, i
    fine = radial_spectrum(op, t_domain, grid=512, count=5)
    moves = np.abs(fine.eigenvalues - coarse.eigenvalues)
    assert np.all(moves <= coarse.error_bars + 1e-12)
    print(f"\n[7] PASS spectral models: multisets agree to degree 3, "
          f"conjugacy residual {worst_residual:.1e} < 1e-10 on "
          f"{len(tested)} vectors, reference case inside its error bars")


def test_08_deterministic_reports(tmp_path):
    """The comparison table is byte-identical across reruns."""
    argv = ["counterexample", "--family", "3:2,0;1,1", "--seed", "0"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(argv + ["--out", str(out_a)]) == 0
    assert main(argv + ["--out", str(out_b)]) == 0
    first = (out_a / "counterexample.json").read_bytes()
    second = (out_b / "counterexample.json").read_bytes()
    assert first == second
    assert len(first) > 0
    print(f"\n[8] PASS determinism: two runs emitted identical "
          f"{len(first)}-byte reports")
