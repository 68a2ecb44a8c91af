"""Identity-space bookkeeping: exact rank, graded membership, elimination."""

from fractions import Fraction

import numpy as np
import pytest

from hmlab.errors import (DegenerateGram, DegreeMismatch, DegreeTooHigh,
                          OutsideDomain, SymbolAbsent)
from hmlab.exactlinalg import det, rank
from hmlab.geometry import curvature_jet
from hmlab.invariants import BETA_SPEC, point_invariants, sphere_average
from hmlab.radial import harmonic_density
from hmlab.sis import (IdentityVector, ball_boundary_vector,
                       ball_volume_vector, canonical_generators,
                       density_vector, eliminate,
                       gradient_square_vector, lichnerowicz_vector,
                       moment_gram, noise_wave, rank_and_membership,
                       ricci_square_vector)


def theta_power_vector(n, k):
    """Sixth coefficient of the k-th density power as an identity vector.

    Multinomial bookkeeping: [r^6](theta^k) = k*A6 + k(k-1)*A2*A4
    + binom(k,3)*A2^3, everything expressed over (C^3, CH, L).
    """
    n = int(n)
    k = int(k)
    if k < 1:
        raise ValueError("power must be positive")
    a6 = {"C3": Fraction(-1, 1296), "CH": Fraction(1, 1080),
          "L": Fraction(-1, 90720)}
    a2a4 = {"C3": Fraction(-1, 432), "CH": Fraction(1, 1080), "L": Fraction(0)}
    a2cube = {"C3": Fraction(-1, 216), "CH": Fraction(0), "L": Fraction(0)}
    binom3 = Fraction(k * (k - 1) * (k - 2), 6)
    coeffs = []
    for slot in ("C3", "CH", "L"):
        coeffs.append(k * a6[slot] + k * (k - 1) * a2a4[slot]
                      + binom3 * a2cube[slot])
    coeffs += [Fraction(0), Fraction(0), Fraction(0)]
    return IdentityVector(name=f"density-power-{k}-r6", coeffs=tuple(coeffs),
                          degree=6, provenance=f"theta_power:{k}")


def basis_values(geo):
    pi = point_invariants(geo)
    return {"C3": pi.c ** 3, "CH": pi.c * pi.h, "L": pi.l,
            "R_hat": pi.r_hat, "R_ring": pi.r_ring,
            "grad_R_sq": pi.grad_r_sq}


def test_vanishing_identities_vanish(all_spaces):
    """density and lichnerowicz rows are genuine identities on every member."""
    for geo in all_spaces.values():
        vals = basis_values(geo)
        n = geo.dim
        scale = max(abs(v) for v in vals.values()) + 1.0
        assert abs(density_vector(n).evaluate(vals)) < 1e-7 * scale
        assert abs(lichnerowicz_vector(n).evaluate(vals)) < 1e-7 * scale


def test_ricci_square_row_evaluates_to_the_beta_average(ns12):
    vals = basis_values(ns12)
    n = 12
    avg = sphere_average(BETA_SPEC, ns12.r, ns12.r, ns12.r)
    assert abs(ricci_square_vector(n).evaluate(vals) - n * (n + 2) * avg) \
        < 1e-6 * abs(n * (n + 2) * avg)


def test_theta_powers_match_actual_density_powers(hh2):
    """Multinomial r^6 bookkeeping against the series machinery, exactly."""
    vals = basis_values(hh2)
    jet = curvature_jet(hh2, np.eye(8)[0], order=3)
    dens = harmonic_density(jet).normalized
    power = dens
    for k in (1, 2, 3):
        actual = power.coefficient(6)
        predicted = theta_power_vector(8, k).evaluate(vals)
        assert abs(actual - predicted) < 1e-12
        power = power * dens


def test_parity_guard():
    with pytest.raises(DegreeMismatch):
        IdentityVector(name="bad", coeffs=(1, 0, 0, 0, 0, 0), degree=3,
                       origin="sphere")
    with pytest.raises(DegreeMismatch):
        IdentityVector(name="bad", coeffs=(1, 0, 0, 0, 0, 0), degree=4,
                       origin="ball")
    # ball vectors sit at odd degrees for even-dimensional members
    assert ball_boundary_vector(12).degree == 13
    assert ball_volume_vector(12).degree == 17


@pytest.mark.parametrize("n", [7, 11])
@pytest.mark.parametrize("build", [ball_boundary_vector, ball_volume_vector])
def test_ball_vectors_refuse_odd_dimension(build, n):
    """In odd dimension the ball degrees n + 1 and n + 5 are even, so the
    vectors do not exist; the refusal is typed."""
    with pytest.raises(DegreeMismatch, match="even dimension"):
        build(n)


@pytest.mark.parametrize("n", [4, 8, 12, 16, 24])
def test_ball_boundary_vector_reads_the_p2_decomposition(n):
    """The structural P2 row, with tr R'R' at its exact average, equals the
    coefficients the vector used to spell out by hand."""
    avg_p = Fraction(3, n * (n + 2) * (n + 4))
    assert ball_boundary_vector(n).coeffs == (
        Fraction(0), Fraction(-(20 * n - 8), 45), Fraction(-1, 90),
        Fraction(0), Fraction(0), avg_p * Fraction(1, 6))


def test_canonical_main_matrix_rank_and_det():
    gens = canonical_generators(12)
    main = [list(v.main_terms) for v in gens]
    assert rank(main) == 3
    assert det(main) == Fraction(216)


def test_lichnerowicz_main_matrix_det():
    n = 12
    rows = [list(density_vector(n).main_terms),
            list(ricci_square_vector(n).main_terms),
            list(lichnerowicz_vector(n).main_terms)]
    assert det(rows) == Fraction(135)
    assert rank(rows) == 3


def test_lichnerowicz_is_not_in_the_canonical_span():
    gens = canonical_generators(12)
    rep = rank_and_membership(gens, lichnerowicz_vector(12))
    assert rep.rank_generators == 3
    assert rep.rank_with_candidate == 4
    assert not rep.member
    assert rep.combination is None
    assert rep.main_submatrix_det == Fraction(216)


def test_graded_membership_is_stricter():
    gens = canonical_generators(12)
    rep = rank_and_membership(gens, lichnerowicz_vector(12), graded=True)
    assert rep.graded and not rep.member
    # a degree-6 multiple of the density row is a graded member
    scaled = IdentityVector(name="density-doubled",
                            coeffs=tuple(2 * c for c in
                                         density_vector(12).coeffs),
                            degree=6)
    rep2 = rank_and_membership(gens, scaled, graded=True)
    assert rep2.member
    assert rep2.combination is not None


def test_membership_recovers_exact_combination():
    gens = canonical_generators(12)
    d, r = density_vector(12), ricci_square_vector(12)
    cand = IdentityVector(
        name="combo",
        coeffs=tuple(2 * a - 3 * b for a, b in zip(d.coeffs, r.coeffs)),
        degree=None)
    rep = rank_and_membership(gens, cand)
    assert rep.member
    assert rep.combination == [Fraction(2), Fraction(-3), Fraction(0)]


def test_extended_space_spans_everything_yet_grading_still_refuses():
    """Throwing in density powers inflates the plain span to the whole
    six-dimensional space; the graded question is unchanged."""
    ext = canonical_generators(12)
    ext += [theta_power_vector(12, k) for k in (1, 2, 3)]
    assert rank([list(g.coeffs) for g in ext]) == 6
    plain = rank_and_membership(ext, lichnerowicz_vector(12))
    assert plain.member
    graded = rank_and_membership(ext, lichnerowicz_vector(12), graded=True)
    assert not graded.member


def test_proper_elimination_requires_equal_degree():
    n = 12
    with pytest.raises(DegreeMismatch):
        eliminate(density_vector(n), ricci_square_vector(n), "C3",
                  mode="proper")
    with pytest.raises(DegreeMismatch):
        eliminate(ball_volume_vector(n), ball_boundary_vector(n), "CH",
                  mode="proper")


def test_proper_elimination_within_a_degree():
    n = 12
    out = eliminate(density_vector(n), theta_power_vector(n, 1), "C3",
                    mode="proper")
    assert out.coeffs[0] == 0
    assert out.degree == 6
    assert out.provenance == "proper-elimination"


def test_rudimentary_elimination_is_marked():
    n = 12
    out = eliminate(density_vector(n), ricci_square_vector(n), "C3",
                    mode="rudimentary")
    assert out.degree is None
    assert out.provenance == "rudimentary-elimination"
    assert out.coeffs[0] == 0


def test_symbol_absent():
    n = 12
    with pytest.raises(SymbolAbsent):
        eliminate(density_vector(n), gradient_square_vector(n), "C3",
                  mode="rudimentary")


def test_unknown_symbol_is_absent():
    n = 12
    with pytest.raises(SymbolAbsent, match="grad_R_sq"):
        eliminate(density_vector(n), gradient_square_vector(n), "R_bar",
                  mode="rudimentary")


def test_malformed_vectors_and_modes_are_outside_the_domain():
    with pytest.raises(OutsideDomain, match="expected 6 coefficients"):
        IdentityVector(name="short", coeffs=(1, 0, 0))
    with pytest.raises(OutsideDomain, match="unknown mode"):
        eliminate(density_vector(12), ricci_square_vector(12), "C3",
                  mode="sideways")


def test_mixed_origin_elimination_loses_the_degree():
    """Across origins the result keeps the target's origin and no degree."""
    n = 12
    for target, tool in ((ball_boundary_vector(n), theta_power_vector(n, 1)),
                         (density_vector(n), ball_boundary_vector(n))):
        out = eliminate(target, tool, "CH", mode="rudimentary")
        assert (out.origin, out.degree) == (target.origin, None)
        assert out.provenance == "rudimentary-elimination"
        assert out.coeffs[1] == 0


def test_noise_wave_residual_is_exactly_orthogonal():
    gens = canonical_generators(12)
    cand = lichnerowicz_vector(12)
    report = noise_wave(cand, gens)
    assert report.gram_kind == "euclidean"
    assert report.noise_norm_sq > 0
    # residual + projection reassembles the candidate
    for r, p, c in zip(report.residual, report.projection, cand.coeffs):
        assert r + p == c
    for gen in gens:
        dot = sum(a * b for a, b in zip(report.residual, gen.coeffs))
        assert dot == 0


@pytest.mark.parametrize("gens", [[], [density_vector(12)] * 2],
                         ids=["none", "repeated"])
def test_noise_wave_refuses_a_singular_generator_gram(gens):
    with pytest.raises(DegenerateGram):
        noise_wave(lichnerowicz_vector(12), gens)


def test_noise_wave_of_a_member_is_zero():
    gens = canonical_generators(12)
    report = noise_wave(density_vector(12), gens)
    assert report.noise_norm_sq == 0
    assert all(r == 0 for r in report.residual)


@pytest.mark.parametrize("vectors", [
    canonical_generators(12),
    [density_vector(12)],
    [ricci_square_vector(12)],
    [gradient_square_vector(12), density_vector(12)],
], ids=["canonical", "density", "ricci-square", "gradient-and-density"])
def test_moment_gram_degree_cap(vectors, ns12):
    """Any vector touching (C^3, CH, L) pairs with itself at degree 12."""
    with pytest.raises(DegreeTooHigh, match=r"^product of two degree-6 slot "
                       r"realizations needs degree-12 sphere moments$"):
        moment_gram(ns12, vectors)


def test_moment_gram_constant_block_is_rank_one(ns12):
    """Vectors that only touch the cubic scalars realize as constants, so
    the moment pairing cannot separate them: the gram is singular."""
    rhat = IdentityVector(name="pure-r-hat", coeffs=(0, 0, 0, 1, 0, 0))
    rring = IdentityVector(name="pure-r-ring", coeffs=(0, 0, 0, 0, 1, 0))
    gram = moment_gram(ns12, [rhat, rring])
    assert det([[Fraction(x) for x in row] for row in gram]) == 0


def test_moment_gram_single_gradient_vector(ns12):
    gram = moment_gram(ns12, [gradient_square_vector(12)])
    assert gram[0][0] == pytest.approx(576.0 ** 2, rel=1e-9)


def test_moment_gram_of_main_slot_vectors_is_their_outer_product(ns12):
    vals = basis_values(ns12)
    vectors = [gradient_square_vector(12),
               IdentityVector(name="pure-r-hat", coeffs=(0, 0, 0, 1, 0, 0)),
               IdentityVector(name="mixed",
                              coeffs=(0, 0, 0, Fraction(-1, 4), 2, 3))]
    values = [v.evaluate(vals) for v in vectors]
    assert moment_gram(ns12, vectors) == [[a * b for b in values]
                                          for a in values]
