"""Windowed Laurent series arithmetic, checked against polynomial algebra."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hmlab.errors import OrderUnsupported, OutsideDomain, SingularSeries
from hmlab.series import TruncatedSeries


def det_cofactor(series):
    """Determinant by Laplace expansion on scalar entry series.

    Independent of TruncatedSeries.det, which it cross-checks.
    Minors are memoized on the column mask, so the cost is 2**dim states
    rather than dim! leaves.
    """
    dim = series.coeffs[0].shape[0]
    top = series.top
    entries = [[TruncatedSeries([c[i, j] for c in series.coeffs],
                                series.offset).truncate(top)
                for j in range(dim)] for i in range(dim)]
    cache = {}

    def minor(mask):
        row = dim - bin(mask).count("1")
        if row == dim - 1:
            # a one-column minor is its entry
            return entries[row][mask.bit_length() - 1]
        got = cache.get(mask)
        if got is not None:
            return got
        acc = None
        sign = 1
        for j in range(dim):
            bit = 1 << j
            if not mask & bit:
                continue
            term = (entries[row][j] * minor(mask & ~bit)).truncate(top)
            if sign < 0:
                term = -term
            acc = term if acc is None else acc + term
            sign = -sign
        cache[mask] = acc
        return acc

    return minor((1 << dim) - 1).truncate(top)


def test_product_matches_convolution():
    s = TruncatedSeries([1.0, 2.0, 3.0], offset=0)
    t = TruncatedSeries([4.0, 5.0], offset=1)
    p = s * t
    assert p.offset == 1
    # (1 + 2r + 3r^2)(4r + 5r^2) = 4r + 13r^2 + ...; order 3 needs the
    # unknown r^3 coefficient of the first factor, so the window stops at 2
    assert p.top == 2
    assert_allclose([p.coefficient(1), p.coefficient(2)], [4.0, 13.0])


def test_window_is_intersection_of_reachable_orders():
    s = TruncatedSeries([1.0, 1.0], offset=0)   # knows orders 0..1
    t = TruncatedSeries([1.0, 1.0, 1.0], offset=0)  # knows orders 0..2
    p = s * t
    assert p.top == 1
    with pytest.raises(OrderUnsupported):
        p.coefficient(2)


coeff = st.fractions(min_value=-5, max_value=5, max_denominator=9)


@given(st.lists(coeff, min_size=1, max_size=6),
       st.integers(min_value=-2, max_value=2))
@settings(max_examples=60, deadline=None)
def test_inverse_roundtrip(cs, offset):
    """s * s.inverse() is 1 through the window, for any invertible leading term."""
    if cs[0] == 0:
        cs[0] = Fraction(1)
    s = TruncatedSeries(list(cs), offset=offset)
    p = s * s.inverse()
    assert p.coefficient(0) == 1
    for k in range(1, p.top + 1):
        assert p.coefficient(k) == 0


def scaled_close(got, want, coeffs, power):
    """Equal up to float round-off, measured against the size a power-``power``
    coefficient built from these input coefficients can reach."""
    scale = (1 + sum(abs(float(c)) for c in coeffs)) ** max(power, 1)
    return abs(float(got) - float(want)) <= 1e-13 * scale


def all_fractions(series):
    return all(isinstance(c, Fraction) for c in series.coeffs)


@pytest.mark.parametrize("series", [
    TruncatedSeries([1.0, 2.0], offset=1),
    TruncatedSeries([2.0, 1.0], offset=0),
    TruncatedSeries([2.0 * np.eye(2), np.eye(2)], offset=0),
])
def test_log_refuses_a_series_not_starting_at_one(series):
    with pytest.raises(OutsideDomain, match="log"):
        series.log()


def test_a_series_needs_a_coefficient():
    with pytest.raises(OutsideDomain, match="at least one coefficient"):
        TruncatedSeries([])


@given(st.lists(coeff, min_size=1, max_size=5))
@settings(max_examples=25, deadline=None)
def test_log_exp_roundtrip(cs):
    """exp(log s) = s for s = 1 + ..., and log(exp t) = t for t = O(r);
    over Fractions every intermediate stays a Fraction, so both round-trips
    are exact."""
    s = TruncatedSeries([Fraction(1)] + list(cs), offset=0)
    log_s = s.log()
    again = log_s.exp()
    assert all_fractions(log_s) and all_fractions(again)
    assert again.top == s.top
    for k in range(s.top + 1):
        assert scaled_close(again.coefficient(k), s.coefficient(k), cs, k)
        assert again.coefficient(k) == s.coefficient(k)
    t = TruncatedSeries(list(cs), offset=1)
    exp_t = t.exp()
    back = exp_t.log()
    assert all_fractions(exp_t) and all_fractions(back)
    assert back.top == t.top
    for k in range(1, t.top + 1):
        assert scaled_close(back.coefficient(k), t.coefficient(k), cs, k)
        assert back.coefficient(k) == t.coefficient(k)


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3),
       st.data())
@settings(max_examples=25, deadline=None)
def test_det_matches_cofactor_expansion(dim, length, data):
    """det via exp(tr log) against the Laplace expansion, on matrix series
    with leading identity and Fraction entries."""
    entries = data.draw(st.lists(coeff, min_size=dim * dim * length,
                                 max_size=dim * dim * length))
    higher = np.array(entries, dtype=object).reshape(length, dim, dim)
    lead = np.array([[Fraction(int(i == j)) for j in range(dim)]
                     for i in range(dim)], dtype=object)
    m = TruncatedSeries([lead] + list(higher), offset=0)
    via_explog = m.det()
    via_minors = det_cofactor(m)
    assert all_fractions(via_explog) and all_fractions(via_minors)
    assert via_explog.top == via_minors.top == length
    for k in range(length + 1):
        assert scaled_close(via_explog.coefficient(k), via_minors.coefficient(k),
                            entries, k)
        assert via_explog.coefficient(k) == via_minors.coefficient(k)


def test_inverse_needs_invertible_lead():
    with pytest.raises(SingularSeries):
        TruncatedSeries([0.0, 1.0], offset=0).inverse()
    sing = TruncatedSeries([np.zeros((2, 2)), np.eye(2)], offset=0)
    with pytest.raises(SingularSeries):
        sing.inverse()


def test_derivative_and_shift():
    s = TruncatedSeries([2.0, 0.0, 5.0], offset=-1)  # 2/r + 5r
    d = s.derivative()
    assert d.offset == -2
    assert_allclose([d.coefficient(-2), d.coefficient(0)], [-2.0, 5.0])
    assert s.shift(3).coefficient(2) == 2.0


def test_exp_log_roundtrip_scalar():
    s = TruncatedSeries([1.0, 0.3, -0.7, 0.11], offset=0)
    again = s.log().exp()
    for k in range(4):
        assert_allclose(again.coefficient(k), s.coefficient(k), atol=1e-14)


def test_matrix_det_matches_cofactor_expansion():
    rng = np.random.default_rng(5)
    coeffs = [np.eye(3)] + [rng.standard_normal((3, 3)) for _ in range(4)]
    m = TruncatedSeries(coeffs, offset=0)
    via_explog = m.det()
    via_minors = det_cofactor(m)
    for k in range(5):
        assert_allclose(via_explog.coefficient(k), via_minors.coefficient(k),
                        atol=1e-12)


def test_det_of_diagonal_is_product():
    d1 = TruncatedSeries([1.0, 2.0], offset=0)
    d2 = TruncatedSeries([1.0, -3.0], offset=0)
    m = TruncatedSeries([np.eye(2), np.diag([2.0, -3.0])], offset=0)
    prod = d1 * d2
    det = m.det()
    assert_allclose(det.coefficient(1), prod.coefficient(1), atol=1e-14)


def test_call_evaluates_the_polynomial():
    s = TruncatedSeries([1.0, 2.0, 3.0], offset=1)
    assert_allclose(s(0.5), 0.5 + 2 * 0.25 + 3 * 0.125)


def test_trim_drops_exact_leading_zeros():
    s = TruncatedSeries([0.0, 0.0, 7.0], offset=0).trim()
    assert s.offset == 2
    assert s.coefficient(2) == 7.0


def test_scalar_sum_widens_the_window_down_to_power_zero():
    s = TruncatedSeries([1.0, 2.0], offset=3) + 5.0
    assert s.offset == 0 and s.coeffs == [5.0, 0.0, 0.0, 1.0, 2.0]
    t = TruncatedSeries([1.0, 2.0], offset=-3) + 5.0
    assert t.offset == -3 and t.coeffs == [1.0, 2.0]


def test_plus_term_below_the_offset_pads_with_zeros():
    s = TruncatedSeries([1.0, 2.0], offset=1).plus_term(3.0, -1)
    assert s.offset == -1 and s.top == 2
    assert s.coeffs == [3.0, 0.0, 1.0, 2.0]


def test_plus_term_inside_the_window_adds_in_place():
    s = TruncatedSeries([1.0, 2.0, 3.0], offset=0).plus_term(4.0, 1)
    assert s.offset == 0 and s.coeffs == [1.0, 6.0, 3.0]


def test_plus_term_above_the_window_is_dropped():
    s = TruncatedSeries([1.0, 2.0], offset=0).plus_term(4.0, 2)
    assert s.offset == 0 and s.top == 1 and s.coeffs == [1.0, 2.0]


@pytest.mark.parametrize("series", [
    TruncatedSeries([1.0], offset=-1),
    TruncatedSeries([1.0, 0.0, 2.0], offset=-1),
    TruncatedSeries([0.0, 0.5, 2.0], offset=-1),
    TruncatedSeries([Fraction(1), Fraction(3)], offset=0),
])
def test_exp_refuses_terms_at_powers_not_above_zero(series):
    """exp(1/r) and exp(c) with c != 0 have no series in nonnegative powers
    of r with a leading 1; exp must not return one."""
    with pytest.raises(OutsideDomain, match="powers <= 0"):
        series.exp()


def test_exp_accepts_a_signed_zero_constant_term():
    """A zero at power 0 passes the check, the sign of zero included."""
    again = TruncatedSeries([-0.0, 2.0, 1.0], offset=0).exp()
    assert again.offset == 0 and again.coeffs == [1.0, 2.0, 3.0]


def test_exp_accepts_zeros_at_powers_not_above_zero():
    """Zeros at powers below 0 pass the check too and cost no known power:
    exp(2r + r^2) through r^2, as from offset 0."""
    again = TruncatedSeries([0.0, -0.0, 2.0, 1.0], offset=-1).exp()
    assert again.offset == 0 and again.coeffs == [1.0, 2.0, 3.0]


@pytest.mark.parametrize("series", [
    TruncatedSeries([np.zeros((2, 2)), np.eye(2)], offset=0),
    TruncatedSeries([np.eye(2)], offset=1),
])
def test_exp_refuses_matrix_series(series):
    """exp is scalar only; on a matrix series it would add a scalar 1 to a
    matrix or broadcast it over every entry."""
    with pytest.raises(OutsideDomain, match="scalar"):
        series.exp()
