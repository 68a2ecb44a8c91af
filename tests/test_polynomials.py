"""Gaussian-rational polynomial calculus and harmonic decomposition."""

import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmlab.clifford import build_j_map
from hmlab.polynomials import (CPoly, CRat, adapted_coordinates,
                               gram_schmidt_pairs, harmonic_decomposition,
                               harmonic_projection, harmonic_space_dimension,
                               monomials_of_degree, radius_square)
from hmlab.spectra import build_hnm_basis, laplacian_symbol

fr = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@given(fr, fr, fr, fr)
@settings(max_examples=60, deadline=None)
def test_crat_field_operations(a, b, c, d):
    x = CRat(a, b)
    y = CRat(c, d)
    assert (x + y) - y == x
    assert x * y == y * x
    if y:
        assert (x * y) / y == x
    # conjugation is multiplicative and |x|^2 = x * conj(x) is real
    prod = x * x.conjugate()
    assert prod.im == 0
    assert prod.re == a * a + b * b


def test_cpoly_multiplication_agrees_with_evaluation():
    x0 = CPoly.variable(3, 0)
    x1 = CPoly.variable(3, 1)
    p = x0 * x0 + x1.scale(CRat(Fraction(0), Fraction(1)))   # x0^2 + i x1
    q = x0 - x1
    point = (0.5, -2.0, 3.0)
    lhs = (p * q).evaluate(point)
    rhs = p.evaluate(point) * q.evaluate(point)
    assert abs(lhs - rhs) < 1e-12


def test_laplacian_known_values():
    x0 = CPoly.variable(2, 0)
    x1 = CPoly.variable(2, 1)
    harm = x0 * x0 - x1 * x1
    assert harm.laplacian().is_zero()
    r2 = radius_square(2)
    assert r2.laplacian().terms == CPoly.constant(2, CRat(Fraction(4))).terms


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


@given(st.lists(fr, min_size=15, max_size=15))
@settings(max_examples=15, deadline=None)
def test_harmonic_decomposition_reconstructs_exactly(coeff_list):
    """Random degree-4 polynomial in 4 variables: the r^2-graded pieces must
    be harmonic and must sum back to the original, all in exact arithmetic."""
    monos = monomials_of_degree(4, 4)
    terms = {m: CRat(c) for m, c in zip(monos, coeff_list[: len(monos)]) if c}
    poly = CPoly(4, terms)
    parts = harmonic_decomposition(poly)
    r2 = radius_square(4)
    rebuilt = CPoly(4)
    for m, h in enumerate(parts):
        assert h.laplacian().is_zero()
        piece = h
        for _ in range(m):
            piece = piece * r2
        rebuilt = rebuilt + piece
    assert (rebuilt - poly).is_zero()


def test_harmonic_projection_of_radius_power():
    """r^4 has no top harmonic part: its projection must vanish."""
    r2 = radius_square(3)
    proj = harmonic_projection(r2 * r2)
    assert proj.is_zero() or all(not c for c in proj.terms.values())


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
    assert (dz - z.scale(CRat(Fraction(0), Fraction(1)))).is_zero()
    # and the conjugate rotates the other way
    zbar = z.conjugate()
    dzbar = zbar.rotation_derivative(j_rows)
    assert (dzbar + zbar.scale(CRat(Fraction(0), Fraction(1)))).is_zero()


def test_partial_derivative_drops_degree():
    p = CPoly.variable(2, 0)
    sq = p * p
    assert sq.partial(0).terms == {(1, 0): CRat(Fraction(2))}
    assert sq.partial(1).is_zero()


def test_crat_is_immutable():
    x = CRat(Fraction(1, 2), Fraction(-3))
    with pytest.raises(AttributeError):
        x.re = Fraction(5)
    with pytest.raises(AttributeError):
        del x.im
    with pytest.raises(AttributeError):
        x.extra = 1
    assert (x.re, x.im) == (Fraction(1, 2), Fraction(-3))
    assert copy.deepcopy(x) == x
    assert pickle.loads(pickle.dumps(x)) == x


@given(fr, fr, fr, fr)
@settings(max_examples=40, deadline=None)
def test_crat_equal_values_hash_equally(a, b, c, d):
    """Values built by the public constructor and by arithmetic (the trusted
    path) compare and hash by value."""
    x = CRat(a, b)
    y = CRat(c, d)
    same = (x + y) - y
    assert same == x and hash(same) == hash(x)
    assert x * 1 == x and hash(x * 1) == hash(x)
    assert len({x, same, x * Fraction(1), -(-x)}) == 1
    assert CRat(a.numerator, 0) == CRat(Fraction(a.numerator))
    # the parts are Fractions whichever path built the value
    for z in (x, same, x * y, x * 3, -x, x.conjugate()):
        assert type(z.re) is Fraction and type(z.im) is Fraction
    assert (x == y) == ((a, b) == (c, d))
    assert x != (a, b)


# -- the kernels against the paths they replaced ---------------------------------


def reference_laplacian(poly):
    """Sum over variables of the second partial, one polynomial each."""
    out = CPoly(poly.nvars)
    for i in range(poly.nvars):
        out = out + poly.partial(i).partial(i)
    return out


def reference_rotation_derivative(poly, j_rows):
    """sum_a (JX)_a d_a, with (JX)_a built as a linear form per row."""
    out = CPoly(poly.nvars)
    for a in range(poly.nvars):
        da = poly.partial(a)
        if da.is_zero():
            continue
        lin = CPoly.linear_form([CRat(Fraction(x)) for x in j_rows[a]])
        out = out + lin * da
    return out


@st.composite
def gaussian_polys(draw):
    nvars = draw(st.integers(min_value=1, max_value=4))
    degree = draw(st.integers(min_value=0, max_value=4))
    monos = monomials_of_degree(nvars, degree)
    picked = draw(st.lists(st.sampled_from(monos), max_size=8))
    terms = {m: CRat(draw(fr), draw(fr)) for m in picked}
    rows = draw(st.lists(st.lists(fr | st.just(Fraction(0)), min_size=nvars,
                                  max_size=nvars),
                         min_size=nvars, max_size=nvars))
    return CPoly(nvars, terms), rows


@given(gaussian_polys())
@settings(max_examples=60, deadline=None)
def test_kernels_match_reference_paths(case):
    poly, rows = case
    assert poly.laplacian().terms == reference_laplacian(poly).terms
    assert poly.rotation_derivative(rows).terms == \
        reference_rotation_derivative(poly, rows).terms


def test_kernels_match_reference_paths_on_the_pair_bases():
    """Every bidegree basis element of both 12-dim members to degree 2, for
    two complex structures, and its adapted coordinates."""
    for a, b in ((2, 0), (1, 1)):
        jmap = build_j_map(3, a, b)
        for z in ((1, 0, 0), (1, 2, 2)):
            rows = laplacian_symbol(jmap, z).j_unit_rows
            polys = list(adapted_coordinates(rows))
            for degree in range(3):
                for basis in build_hnm_basis(rows, degree).per_m.values():
                    polys.extend(basis)
            for poly in polys:
                assert poly.laplacian().terms == \
                    reference_laplacian(poly).terms
                assert poly.rotation_derivative(rows).terms == \
                    reference_rotation_derivative(poly, rows).terms
