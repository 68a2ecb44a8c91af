"""Identity-space bookkeeping: exact rank, graded membership, elimination."""

from fractions import Fraction

import numpy as np
import pytest

from hmlab.errors import (DegenerateGram, DegreeMismatch, DegreeTooHigh,
                          SymbolAbsent)
from hmlab.exactlinalg import det, rank
from hmlab.invariants import beta_tensor, point_invariants, sphere_average
from hmlab.radial import radial_density
from hmlab.sis import (IdentityVector, ball_boundary_vector,
                       ball_volume_vector, canonical_generators,
                       density_vector, eliminate, euclidean_gram,
                       gradient_square_vector, lichnerowicz_vector,
                       moment_gram, noise_wave, rank_and_membership,
                       ricci_square_vector, theta_power_vector)


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
    avg = sphere_average(beta_tensor(ns12))
    assert abs(ricci_square_vector(n).evaluate(vals) - n * (n + 2) * avg) \
        < 1e-6 * abs(n * (n + 2) * avg)


def test_theta_powers_match_actual_density_powers(hh2):
    """Multinomial r^6 bookkeeping against the series machinery, exactly."""
    vals = basis_values(hh2)
    dens = radial_density(hh2, np.eye(8)[0]).normalized
    power = dens
    for k in (1, 2, 3):
        actual = power.coefficient(6)
        predicted = theta_power_vector(8, k).evaluate(vals)
        assert abs(actual - predicted) < 1e-12
        power = power * dens


def test_parity_guard():
    with pytest.raises(ValueError):
        IdentityVector(name="bad", coeffs=(1, 0, 0, 0, 0, 0), degree=3,
                       origin="sphere")
    with pytest.raises(ValueError):
        IdentityVector(name="bad", coeffs=(1, 0, 0, 0, 0, 0), degree=4,
                       origin="ball")
    # ball vectors sit at odd degrees for even-dimensional members
    assert ball_boundary_vector(12).degree == 13
    assert ball_volume_vector(12).degree == 17


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


def test_mixed_origin_elimination_loses_the_degree():
    n = 12
    out = eliminate(ball_boundary_vector(n), theta_power_vector(n, 1), "CH",
                    mode="rudimentary")
    assert out.degree is None
    assert out.coeffs[1] == 0


def test_noise_wave_residual_is_exactly_orthogonal():
    gens = canonical_generators(12)
    cand = lichnerowicz_vector(12)
    gram = euclidean_gram(gens)
    report = noise_wave(cand, gens, gram=gram, gram_kind="euclidean")
    assert report.noise_norm_sq > 0
    # residual + projection reassembles the candidate
    for r, p, c in zip(report.residual, report.projection, cand.coeffs):
        assert r + p == c
    for gen in gens:
        dot = sum(a * b for a, b in zip(report.residual, gen.coeffs))
        assert dot == 0


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
    cand = gradient_square_vector(12)
    with pytest.raises(DegenerateGram):
        noise_wave(cand, [rhat, rring], gram=gram, gram_kind="moment")


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
