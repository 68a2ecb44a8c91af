"""The one integer check and the one real check: every order, degree,
count, grid, dimension, multiplicity and series offset of the package goes
through ``errors.checked_integer``, and every real scalar argument through
``errors.checked_real``, so a bool, a non-integer or non-real, a value that
is not finite and a value out of range each raise the typed error of the
call, and a numpy integer or float gives the same result as the Python
number."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from hmlab.clifford import build_clifford_module, build_j_map
from hmlab.errors import (DegenerateBoundary, DegreeMismatch,
                          InvalidMultiplicity, InvalidSampling,
                          NonFiniteGeometry, OrderUnsupported, OutsideDomain,
                          UnsupportedCenterDimension)
from hmlab.geometry import constant_curvature_geometry, curvature_jet
from hmlab.heatinv import structural_p_decompositions, structural_r3_table
from hmlab.invariants import (verify_average_identities,
                              verify_einstein_identities, verify_harmonicity)
from hmlab.radial import (flow_series, jacobi_series, ode_oracle, vk_recursion,
                          volume_series)
from hmlab.series import TruncatedSeries
from hmlab.sis import (IdentityVector, ball_boundary_vector, ball_volume_vector,
                       canonical_generators, density_vector,
                       gradient_square_vector, lichnerowicz_vector,
                       ricci_square_vector)
from hmlab.spectra import (RadialOperator, build_hnm_basis,
                           hnm_multiplicity_oracle, isospectrality_report,
                           laplacian_symbol, radial_spectrum)

OP = RadialOperator(k=2, n=0, m=0, mu=0.0)
U = np.eye(4)[0]  # a unit direction of ch2


def rows():
    return laplacian_symbol(build_j_map(1, 1, 0), (1,)).j_unit_rows


def jet(fx):
    return curvature_jet(fx("ch2"), U, order=3)


def isospec(fx, **kwargs):
    return isospectrality_report(fx("hh3_jmap"), fx("ns12_jmap"), [(1, 0, 0)],
                                 **kwargs)


# (call of the fixture getter and the integer, a valid integer, the error
# the call raises, the name its message gives the integer)
SITES = {
    "curvature_jet.order": (
        lambda fx, v: curvature_jet(fx("ch2"), U, order=v), 2,
        OrderUnsupported, "order"),
    "constant_curvature_geometry.dim": (
        lambda fx, v: constant_curvature_geometry(v), 4,
        OutsideDomain, "dim"),
    "build_clifford_module.center_dim": (
        lambda fx, v: build_clifford_module(v), 2,
        UnsupportedCenterDimension, "center dimension"),
    "build_j_map.pos": (
        lambda fx, v: build_j_map(1, v, 0), 1, InvalidMultiplicity, "pos"),
    "build_j_map.neg": (
        lambda fx, v: build_j_map(1, 0, v), 1, InvalidMultiplicity, "neg"),
    "jacobi_series.order": (
        lambda fx, v: jacobi_series(jet(fx), order=v), 4,
        OrderUnsupported, "order"),
    "flow_series.order": (
        lambda fx, v: flow_series(fx("ch2"), U, v), 3,
        OrderUnsupported, "order"),
    "volume_series.dim": (
        lambda fx, v: volume_series(TruncatedSeries([1.0, 0.0, 0.25]), v), 4,
        OutsideDomain, "dim"),
    "vk_recursion.dim": (
        lambda fx, v: vk_recursion([1, 0, Fraction(1, 3)], v, 3), 4,
        OutsideDomain, "dim"),
    "vk_recursion.count": (
        lambda fx, v: vk_recursion([1, 0, Fraction(1, 3)], 4, v), 3,
        OutsideDomain, "count"),
    "build_hnm_basis.max_degree": (
        lambda fx, v: build_hnm_basis(rows(), v), 2,
        InvalidSampling, "max_degree"),
    "hnm_multiplicity_oracle.degree": (
        lambda fx, v: hnm_multiplicity_oracle(rows(), v), 2,
        InvalidSampling, "degree"),
    "radial_spectrum.grid": (
        lambda fx, v: radial_spectrum(OP, 10.0, grid=v), 64,
        InvalidSampling, "grid"),
    "radial_spectrum.count": (
        lambda fx, v: radial_spectrum(OP, 10.0, grid=64, count=v), 2,
        InvalidSampling, "count"),
    "radial_spectrum.k": (
        lambda fx, v: radial_spectrum(RadialOperator(k=v, n=0, m=0, mu=0.5),
                                      10.0, grid=64, count=2), 2,
        InvalidSampling, "k"),
    "radial_spectrum.n": (
        lambda fx, v: radial_spectrum(RadialOperator(k=2, n=v, m=0, mu=0.5),
                                      10.0, grid=64, count=2), 1,
        InvalidSampling, "n"),
    "radial_spectrum.m": (
        lambda fx, v: radial_spectrum(RadialOperator(k=2, n=0, m=v, mu=0.5),
                                      10.0, grid=64, count=2), -1,
        InvalidSampling, "m"),
    "isospectrality_report.degrees": (
        lambda fx, v: isospec(fx, degrees=(0, v), grid=64), 1,
        InvalidSampling, "degree"),
    "isospectrality_report.grid": (
        lambda fx, v: isospec(fx, degrees=(0,), grid=v), 64,
        InvalidSampling, "grid"),
    "density_vector.n": (
        lambda fx, v: density_vector(v), 12, OutsideDomain, "n"),
    "ricci_square_vector.n": (
        lambda fx, v: ricci_square_vector(v), 12, OutsideDomain, "n"),
    "gradient_square_vector.n": (
        lambda fx, v: gradient_square_vector(v), 12, OutsideDomain, "n"),
    "canonical_generators.n": (
        lambda fx, v: canonical_generators(v), 12, OutsideDomain, "n"),
    "lichnerowicz_vector.n": (
        lambda fx, v: lichnerowicz_vector(v), 12, OutsideDomain, "n"),
    "ball_boundary_vector.n": (
        lambda fx, v: ball_boundary_vector(v), 12, DegreeMismatch, "n"),
    "ball_volume_vector.n": (
        lambda fx, v: ball_volume_vector(v), 12, DegreeMismatch, "n"),
    "structural_r3_table.n": (
        lambda fx, v: structural_r3_table(v), 12, OutsideDomain, "n"),
    "structural_p_decompositions.n": (
        lambda fx, v: structural_p_decompositions(v), 12, OutsideDomain, "n"),
    "TruncatedSeries.offset": (
        lambda fx, v: TruncatedSeries([1.0, 2.0], offset=v), 2,
        OutsideDomain, "offset"),
    "TruncatedSeries.shift": (
        lambda fx, v: TruncatedSeries([1.0, 2.0]).shift(v), 2,
        OutsideDomain, "delta"),
    "IdentityVector.degree": (
        lambda fx, v: IdentityVector("x", (0,) * 6, degree=v), 6,
        DegreeMismatch, "degree"),
    "IdentityVector.degree.ball": (
        lambda fx, v: IdentityVector("x", (0,) * 6, degree=v, origin="ball"),
        7, DegreeMismatch, "degree"),
}


@pytest.mark.parametrize("bad", [True, 2.5, "2"], ids=repr)
@pytest.mark.parametrize("site", SITES)
def test_a_bool_or_non_integer_raises_the_typed_error(site, bad, request):
    """Each was taken before: True as 1, a float cut to an int or used as
    a grid, a string passed through int(), or it fell over with a bare
    TypeError."""
    call, _, error, name = SITES[site]
    with pytest.raises(error, match=f"needs an integer {name}, got"):
        call(request.getfixturevalue, bad)


def bits(x):
    """``x`` as plain values: float and complex arrays and floats by their
    bits, other arrays as lists, objects by their fields."""
    if isinstance(x, np.ndarray):
        return x.view(np.int64).tolist() if x.dtype.kind in "fc" \
            else x.tolist()
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, (list, tuple)):
        return [bits(v) for v in x]
    if isinstance(x, dict):
        return {k: bits(v) for k, v in x.items()}
    if hasattr(x, "__slots__"):
        return (type(x).__name__,
                [bits(getattr(x, name)) for name in x.__slots__])
    if hasattr(x, "__dict__"):
        return (type(x).__name__, bits(vars(x)))
    return x


@pytest.mark.parametrize("site", SITES)
def test_a_numpy_integer_gives_the_result_of_the_int(site, request):
    call, valid, _, _ = SITES[site]
    fx = request.getfixturevalue
    assert bits(call(fx, np.int64(valid))) == bits(call(fx, valid))


@pytest.mark.parametrize("call,error", [
    (lambda: constant_curvature_geometry(0), OutsideDomain),
    (lambda: volume_series(TruncatedSeries([1.0]), 0), OutsideDomain),
    (lambda: vk_recursion([1], 0, 3), OutsideDomain),
    (lambda: vk_recursion([1], 4, -1), OutsideDomain),
    (lambda: density_vector(0), OutsideDomain),
    (lambda: gradient_square_vector(-3), OutsideDomain),
    (lambda: lichnerowicz_vector(0), OutsideDomain),
    (lambda: ball_volume_vector(0), DegreeMismatch),
    (lambda: structural_p_decompositions(0), OutsideDomain),
    (lambda: TruncatedSeries([1.0, 2.0]).shift(1.5), OutsideDomain),
    (lambda: radial_spectrum(RadialOperator(k=-1, n=1, m=0, mu=0.5), 10.0,
                             grid=64, count=2), InvalidSampling),
    (lambda: radial_spectrum(RadialOperator(k=4, n=-1, m=0, mu=0.5), 10.0,
                             grid=64, count=2), InvalidSampling),
    (lambda: radial_spectrum(OP, 10.0, (1.0,), grid=64, count=2),
     DegenerateBoundary),
    (lambda: radial_spectrum(OP, 10.0, (0.0, 1.0, 0.0), grid=64, count=2),
     DegenerateBoundary),
], ids=["space form", "volume", "vk dim", "vk count", "density",
        "gradient", "lichnerowicz", "ball", "r3 decompositions", "shift",
        "radial k", "radial n", "bc of one", "bc of three"])
def test_a_value_out_of_range_raises_the_typed_error(call, error):
    """Each was built before, from a dimension or count no space has, or
    fell over with a ZeroDivisionError; a negative k or n with s > 0 was
    solved, and a Robin pair of one or three entries ended in a bare
    ValueError."""
    with pytest.raises(error):
        call()



# (call of the fixture getter and the real number, a valid float, the error
# the call raises, the name its message gives the number, whether it must
# be > 0)
REAL_SITES = {
    "verify_harmonicity.tol": (
        lambda fx, v: verify_harmonicity(fx("ch2"), n_directions=8, tol=v),
        1e-8, InvalidSampling, "tol", True),
    "verify_einstein_identities.tol": (
        lambda fx, v: verify_einstein_identities(fx("ch2"), tol=v), 1e-8,
        InvalidSampling, "tol", True),
    "verify_average_identities.tol": (
        lambda fx, v: verify_average_identities(fx("ch2"), tol=v), 1e-7,
        InvalidSampling, "tol", True),
    "JMap.check_center": (
        lambda fx, v: laplacian_symbol(build_j_map(3, 2, 0), (v, 0, 0)), 1.0,
        InvalidSampling, "each entry", False),
    "constant_curvature_geometry.kappa": (
        lambda fx, v: constant_curvature_geometry(4, v), 0.7,
        NonFiniteGeometry, "kappa", False),
    "ode_oracle.steps_per_unit": (
        lambda fx, v: ode_oracle(fx("ch2"), U, (0.1, 0.2), steps_per_unit=v),
        64.0, InvalidSampling, "steps_per_unit", True),
    "radial_spectrum.t_domain": (
        lambda fx, v: radial_spectrum(OP, v, grid=64, count=2), 10.0,
        InvalidSampling, "t_domain", True),
    "radial_spectrum.bc[0]": (
        lambda fx, v: radial_spectrum(OP, 10.0, (v, 1.0), grid=64, count=2),
        0.5, DegenerateBoundary, "each bc entry", False),
    "radial_spectrum.bc[1]": (
        lambda fx, v: radial_spectrum(OP, 10.0, (1.0, v), grid=64, count=2),
        0.5, DegenerateBoundary, "each bc entry", False),
    "radial_spectrum.mu": (
        lambda fx, v: radial_spectrum(RadialOperator(k=2, n=0, m=0, mu=v),
                                      10.0, grid=64, count=2), 0.5,
        InvalidSampling, "mu", False),
    "vk_recursion.a_coeffs": (
        lambda fx, v: vk_recursion([1, 0, v], 4, 3), 0.25, OutsideDomain,
        "each coefficient", False),
    "isospectrality_report.mu_scale_b": (
        lambda fx, v: isospec(fx, degrees=(0,), grid=64, mu_scale_b=v), 1.05,
        InvalidSampling, "mu_scale_b", False),
}


def expected_message(site, bad):
    _, _, _, name, positive = REAL_SITES[site]
    bound = " and > 0" if positive else ""
    return re.escape(f"needs {name} finite{bound}, got {bad!r}")


@pytest.mark.parametrize("bad", [True, "1", math.nan, math.inf, -math.inf],
                         ids=repr)
@pytest.mark.parametrize("site", REAL_SITES)
def test_a_bool_string_or_non_finite_real_raises_the_typed_error(site, bad,
                                                                 request):
    """Each was taken before (True as 1), or ended in a ConvergenceFailure,
    a bare TypeError, ValueError or OverflowError, an object-dtype tensor or
    a message of another check."""
    call, _, error, _, _ = REAL_SITES[site]
    with pytest.raises(error, match=expected_message(site, bad)):
        call(request.getfixturevalue, bad)


@pytest.mark.parametrize("bad", [0.0, -1.0], ids=repr)
@pytest.mark.parametrize("site", [site for site, row in REAL_SITES.items()
                                  if row[4]])
def test_a_real_not_above_zero_raises_the_typed_error(site, bad, request):
    """A t_domain of 0 or below ended in a ConvergenceFailure; a step count
    per unit radius of 0 or below was refused by the radii's check."""
    call, _, error, _, _ = REAL_SITES[site]
    with pytest.raises(error, match=expected_message(site, bad)):
        call(request.getfixturevalue, bad)


@pytest.mark.parametrize("site", REAL_SITES)
def test_a_numpy_float_gives_the_result_of_the_float(site, request):
    call, valid, _, _, _ = REAL_SITES[site]
    fx = request.getfixturevalue
    assert bits(call(fx, np.float64(valid))) == bits(call(fx, valid))


def test_a_fraction_curvature_builds_the_float_space_form():
    """kappa = 1/2 built an object-dtype curvature, on which every later
    jet, density or flow ended in a numpy UFuncTypeError; it now gives the
    float tensor of kappa = 0.5 and keeps its own name."""
    exact = constant_curvature_geometry(4, Fraction(1, 2))
    assert exact.r.dtype == float
    assert bits(exact.r) == bits(constant_curvature_geometry(4, 0.5).r)
    assert exact.name == "space-form(kappa=1/2)"
