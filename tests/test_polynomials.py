"""Gaussian-rational polynomial calculus and harmonic decomposition."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmlab.clifford import build_j_map
from hmlab import spectra
from hmlab.polynomials import (CPoly, adapted_coordinates, gram_schmidt_pairs,
                               harmonic_projection, harmonic_space_dimension,
                               monomials_of_degree, radius_square)
from hmlab.spectra import build_hnm_basis, laplacian_symbol

fr = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def variable(nvars, index):
    """The coordinate x_index as a polynomial."""
    mono = [0] * nvars
    mono[index] = 1
    return CPoly(nvars, {tuple(mono): (1, 0)})


def partial(poly, index):
    """d/dx_index, term by term."""
    out = {}
    for mono, (x, y) in poly.terms.items():
        e = mono[index]
        if e == 0:
            continue
        down = list(mono)
        down[index] = e - 1
        out[tuple(down)] = (x * e, y * e)
    return CPoly(poly.nvars, out, poly.den)


def evaluate(poly, point):
    """The complex value at a real ``point``."""
    total = complex(0.0)
    for mono, (x, y) in poly.terms.items():
        v = complex(x / poly.den, y / poly.den)
        for p, e in zip(point, mono):
            if e:
                v *= p ** e
        total += v
    return total


def test_cpoly_multiplication_agrees_with_evaluation():
    x0 = variable(3, 0)
    x1 = variable(3, 1)
    p = x0 * x0 + x1.scale(0, 1)   # x0^2 + i x1
    q = x0 - x1
    point = (0.5, -2.0, 3.0)
    lhs = evaluate(p * q, point)
    rhs = evaluate(p, point) * evaluate(q, point)
    assert abs(lhs - rhs) < 1e-12


def test_laplacian_known_values():
    x0 = variable(2, 0)
    x1 = variable(2, 1)
    harm = x0 * x0 - x1 * x1
    assert harm.laplacian().is_zero()
    r2 = radius_square(2)
    assert r2.laplacian() == CPoly.constant(2, 4)


def test_monomials_count():
    assert len(monomials_of_degree(3, 4)) == math.comb(3 + 4 - 1, 4)
    assert len(monomials_of_degree(8, 3)) == math.comb(8 + 3 - 1, 3)


def test_harmonic_space_dimensions():
    assert harmonic_space_dimension(2, 5) == 2
    assert harmonic_space_dimension(3, 2) == 5
    assert harmonic_space_dimension(4, 2) == 9
    assert harmonic_space_dimension(8, 3) == 112
    assert harmonic_space_dimension(5, 0) == 1
    assert harmonic_space_dimension(5, 1) == 5


def from_fractions(nvars, coeffs):
    """sum_m c_m x^m for Gaussian rationals c_m given as (re, im) pairs."""
    out = CPoly(nvars)
    for mono, (re, im) in coeffs.items():
        out = out + CPoly(nvars, {mono: (1, 0)}).scale(re, im)
    return out


def reference_decomposition(poly):
    """Split a homogeneous polynomial as sum_j |X|^(2j) h_(d-2j), h harmonic,
    by the triangular back-substitution that harmonic_projection's closed
    form replaced: the m-th Laplacian of |X|^(2j) h_(d-2j) is
    K(m, j) |X|^(2(j-m)) h with an explicit rational K, nonzero exactly when
    m <= j.  Returns [h_d, h_(d-2), ...]."""
    k = poly.nvars
    d = poly.degree()
    if d < 0:
        return []
    top = d // 2

    def kfactor(m, j):
        deg = d - 2 * j
        val = Fraction(1)
        for t in range(m):
            val *= 2 * (j - t) * (2 * (j - t) + 2 * deg + k - 2)
        return val

    lap_powers = [poly]
    for _ in range(top):
        lap_powers.append(lap_powers[-1].laplacian())
    r2 = radius_square(k)
    r2_powers = [CPoly.constant(k, 1)]
    for _ in range(top):
        r2_powers.append(r2_powers[-1] * r2)
    parts = [None] * (top + 1)
    for m in range(top, -1, -1):
        rhs = lap_powers[m]
        for j in range(m + 1, top + 1):
            rhs = rhs - (r2_powers[j - m] * parts[j]).scale(kfactor(m, j))
        parts[m] = rhs.scale(1 / kfactor(m, m))
    return parts


@given(st.lists(fr, min_size=15, max_size=15))
@settings(max_examples=15, deadline=None)
def test_harmonic_decomposition_reconstructs_exactly(coeff_list):
    """Random degree-4 polynomial in 4 variables: the r^2-graded pieces of
    the reference decomposition must be harmonic and must sum back to the
    original, all in exact arithmetic, and the top piece is the projection."""
    monos = monomials_of_degree(4, 4)
    poly = from_fractions(4, {m: (c, 0) for m, c in zip(monos, coeff_list)})
    parts = reference_decomposition(poly)
    r2 = radius_square(4)
    rebuilt = CPoly(4)
    for m, h in enumerate(parts):
        assert h.laplacian().is_zero()
        piece = h
        for _ in range(m):
            piece = piece * r2
        rebuilt = rebuilt + piece
    assert rebuilt == poly
    assert harmonic_projection(poly) == (parts[0] if parts else poly)


@st.composite
def homogeneous_polys(draw):
    """Gaussian-rational homogeneous polynomials, k <= 4 and degree <= 6."""
    nvars = draw(st.integers(min_value=1, max_value=4))
    degree = draw(st.integers(min_value=0, max_value=6))
    monos = monomials_of_degree(nvars, degree)
    picked = draw(st.lists(st.sampled_from(monos), max_size=8))
    return from_fractions(nvars, {m: (draw(fr), draw(fr)) for m in picked})


@given(homogeneous_polys())
@settings(max_examples=80, deadline=None)
def test_harmonic_projection_matches_the_back_substitution(poly):
    projected = harmonic_projection(poly)
    assert projected == (reference_decomposition(poly) or [poly])[0]
    assert projected.laplacian().is_zero()


def test_harmonic_projection_matches_the_back_substitution_on_the_pair(
        monkeypatch):
    """Every monomial the bases of both 12-dim members project, for two
    complex structures and degrees 0-3: 2 x 2 x (1 + 8 + 35 + 112)."""
    projected = []

    def recorded(poly):
        projected.append(poly)
        return harmonic_projection(poly)

    monkeypatch.setattr(spectra, "harmonic_projection", recorded)
    for a, b in ((2, 0), (1, 1)):
        for z in ((1, 0, 0), (1, 2, 2)):
            rows = laplacian_symbol(build_j_map(3, a, b), z).j_unit_rows
            build_hnm_basis(rows, 3)
    assert len(projected) == 624
    for poly in projected:
        assert harmonic_projection(poly) == reference_decomposition(poly)[0]


def test_harmonic_projection_of_radius_power():
    """r^4 has no top harmonic part: its projection must vanish."""
    r2 = radius_square(3)
    proj = harmonic_projection(r2 * r2)
    assert proj.is_zero()


def test_gram_schmidt_pairs_are_orthogonal():
    jm = build_j_map(3, 1, 1)
    j_rows = [[Fraction(int(x)) for x in row] for row in jm.j_of_center_basis(0)]
    pairs = gram_schmidt_pairs(j_rows)
    assert len(pairs) == 4
    flat = [v for pair in pairs for v in pair]
    for i, v in enumerate(flat):
        for w in flat[i + 1:]:
            assert sum(a * b for a, b in zip(v, w)) == 0
    # JQ really is J applied to Q
    for q, jq in pairs:
        applied = [sum(j_rows[r][c] * q[c] for c in range(8)) for r in range(8)]
        assert applied == jq


def test_adapted_coordinate_is_rotation_eigenvector():
    jm = build_j_map(1, 1, 0)
    j_rows = [[Fraction(int(x)) for x in row] for row in jm.j_of_center_basis(0)]
    zs = adapted_coordinates(j_rows)
    assert len(zs) == 1
    z = zs[0]
    dz = z.rotation_derivative(j_rows)
    # D z = i z exactly
    assert dz == z.scale(0, 1)
    # and the conjugate rotates the other way
    zbar = z.conjugate()
    dzbar = zbar.rotation_derivative(j_rows)
    assert dzbar == zbar.scale(0, -1)


def test_partial_derivative_drops_degree():
    p = variable(2, 0)
    sq = p * p
    assert partial(sq, 0) == CPoly(2, {(1, 0): (2, 0)})
    assert partial(sq, 1).is_zero()


# -- the kernels against the paths they replaced ---------------------------------


def reference_laplacian(poly):
    """Sum over variables of the second partial, one polynomial each."""
    out = CPoly(poly.nvars)
    for i in range(poly.nvars):
        out = out + partial(partial(poly, i), i)
    return out


def reference_rotation_derivative(poly, j_rows):
    """sum_a (JX)_a d_a, with (JX)_a built as a linear form per row."""
    out = CPoly(poly.nvars)
    for a in range(poly.nvars):
        da = partial(poly, a)
        if da.is_zero():
            continue
        lin = CPoly.linear_form(j_rows[a], [0] * poly.nvars)
        out = out + lin * da
    return out


@st.composite
def gaussian_polys(draw):
    nvars = draw(st.integers(min_value=1, max_value=4))
    degree = draw(st.integers(min_value=0, max_value=4))
    monos = monomials_of_degree(nvars, degree)
    picked = draw(st.lists(st.sampled_from(monos), max_size=8))
    terms = {m: (draw(fr), draw(fr)) for m in picked}
    rows = draw(st.lists(st.lists(fr | st.just(Fraction(0)), min_size=nvars,
                                  max_size=nvars),
                         min_size=nvars, max_size=nvars))
    return from_fractions(nvars, terms), rows


@given(gaussian_polys())
@settings(max_examples=60, deadline=None)
def test_kernels_match_reference_paths(case):
    poly, rows = case
    assert poly.laplacian() == reference_laplacian(poly)
    assert poly.rotation_derivative(rows) == \
        reference_rotation_derivative(poly, rows)


def test_kernels_match_reference_paths_on_the_pair_bases():
    """Every bidegree basis element of both 12-dim members to degree 2, for
    two complex structures, and its adapted coordinates."""
    for a, b in ((2, 0), (1, 1)):
        jmap = build_j_map(3, a, b)
        for z in ((1, 0, 0), (1, 2, 2)):
            rows = laplacian_symbol(jmap, z).j_unit_rows
            polys = list(adapted_coordinates(rows))
            for basis in build_hnm_basis(rows, 2):
                for group in basis.per_m.values():
                    polys.extend(group)
            for poly in polys:
                assert poly.laplacian() == reference_laplacian(poly)
                assert poly.rotation_derivative(rows) == \
                    reference_rotation_derivative(poly, rows)


# -- value semantics of the reduced form -----------------------------------------


def assert_reduced(poly):
    """den > 0, no zero term, and no factor common to den and every
    numerator; the zero polynomial has den 1."""
    assert poly.den > 0
    assert all(x or y for x, y in poly.terms.values())
    assert math.gcd(poly.den, *(v for c in poly.terms.values() for v in c)) == 1
    assert poly.terms or poly.den == 1
    assert all(type(v) is int for c in poly.terms.values() for v in c)


@given(gaussian_polys(), fr, fr)
@settings(max_examples=60, deadline=None)
def test_cpoly_is_reduced_and_compares_by_value(case, a, b):
    """Values reached by different routes are equal term for term, and the
    exact coefficients follow Fraction arithmetic."""
    p, rows = case
    q = p.rotation_derivative(rows) + CPoly.constant(p.nvars, 1).scale(b, a)
    results = [p + q, (p + q) - q, -p, p * q, p.scale(a, b), p.conjugate(),
               p.conjugate().conjugate(), p.laplacian(), p - p, p.scale(0)]
    for r in results:
        assert_reduced(r)
    assert (p + q) - q == p
    assert p.conjugate().conjugate() == p
    assert p - p == CPoly(p.nvars) == p.scale(0)
    if a or b:
        n = a * a + b * b
        assert p.scale(a, b).scale(a / n, -b / n) == p
        assert p.scale(a, b) != p or (a, b) == (1, 0) or p.is_zero()
    for mono in set(p.terms) | set(q.terms):
        pr, pi = p.coefficient(mono)
        qr, qi = q.coefficient(mono)
        assert (p + q).coefficient(mono) == (pr + qr, pi + qi)
        assert p.scale(a, b).coefficient(mono) == (pr * a - pi * b,
                                                   pr * b + pi * a)
        assert p.conjugate().coefficient(mono) == (pr, -pi)


def test_cpoly_equality_ignores_how_the_value_was_written():
    mono = (1, 0)
    assert CPoly(2, {mono: (2, 4)}, 6) == CPoly(2, {mono: (1, 2)}, 3)
    assert CPoly(2, {mono: (2, 4)}, 6).den == 3
    assert CPoly(2, {mono: (0, 0)}, 7) == CPoly(2)
    assert CPoly(2, {mono: (1, 2)}, 3).coefficient(mono) == (Fraction(1, 3),
                                                             Fraction(2, 3))
    assert CPoly(2, {mono: (1, 0)}) != CPoly(3, {(1, 0, 0): (1, 0)})
    assert CPoly(2, {mono: (1, 0)}, 2) != CPoly(2, {mono: (1, 0)})
    for den in (0, -2):
        with pytest.raises(ValueError):
            CPoly(2, {mono: (1, 0)}, den)
