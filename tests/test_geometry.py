"""Left-invariant metric geometry: brackets, connection, curvature tensors."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hmlab.clifford import build_j_map
from hmlab.errors import (InvalidSampling, NonFiniteGeometry, NotHType,
                          OrderUnsupported)
from hmlab.geometry import (JET_BLOCK, build_htype_algebra,
                            constant_curvature_geometry, covariant_derivative,
                            curvature_jet, damek_ricci_geometry,
                            geometry_from_algebra, levi_civita, ricci,
                            scale_bracket)
from hmlab.invariants import direction_constants, random_directions


def jacobi_defect(c):
    """Largest violation of the Jacobi identity; zero for a Lie algebra."""
    t = np.einsum('ijm,mkl->ijkl', c, c)
    cyc = t + np.einsum('jkil->ijkl', t) + np.einsum('kijl->ijkl', t)
    return float(np.max(np.abs(cyc)))


def sectional(r, x, y):
    """Sectional curvature of the plane spanned by orthonormal x, y."""
    return float(np.einsum('ijcd,i,j,c,d->', r, x, y, y, x))


def test_htype_bracket_encodes_j_transpose():
    jm = build_j_map(3, 1, 0)
    c = build_htype_algebra(jm)
    k = jm.total_dim
    for a in range(3):
        assert_allclose(c[:k, :k, k + a], jm.j_of_center_basis(a).T)
    # bracket antisymmetry
    assert_allclose(c, -np.swapaxes(c, 0, 1), atol=0)


def test_jacobi_identity_on_all_members(all_spaces):
    for geo in all_spaces.values():
        assert jacobi_defect(geo.algebra) == 0.0


def test_not_htype_rejected():
    class Broken:
        center_dim = 2
        total_dim = 4

        def all_j(self):
            bad = np.eye(4)
            good = build_j_map(2, 1, 0).j_of_center_basis(0)
            return [good, bad]

    with pytest.raises(NotHType):
        build_htype_algebra(Broken())


def test_connection_is_metric_and_torsion_free(hh2):
    gamma = levi_civita(hh2.algebra)
    # metric compatibility: each Gamma[i] is skew
    assert_allclose(gamma + np.swapaxes(gamma, 1, 2), 0.0, atol=1e-14)
    torsion = gamma - np.swapaxes(gamma, 0, 1) - hh2.algebra
    assert_allclose(torsion, 0.0, atol=1e-14)


@pytest.mark.parametrize("key,expected_c",
                         [("ch2", -1.5), ("hh2", -4.0),
                          ("hh3", -5.0), ("ns12", -5.0)])
def test_einstein_constants(all_spaces, key, expected_c):
    geo = all_spaces[key]
    ric = ricci(geo.r)
    assert_allclose(ric, expected_c * np.eye(geo.dim), atol=1e-12)


def test_curvature_tensor_symmetries(ns12):
    r = ns12.r
    assert_allclose(r, -np.swapaxes(r, 0, 1), atol=1e-13)
    assert_allclose(r, -np.swapaxes(r, 2, 3), atol=1e-13)
    assert_allclose(r, np.einsum('abcd->cdab', r), atol=1e-13)
    bianchi = r + np.einsum('jcid->ijcd', r) + np.einsum('cijd->ijcd', r)
    assert_allclose(bianchi, 0.0, atol=1e-13)


def test_second_bianchi_identity(hh2):
    s1 = hh2.nabla_r
    # cyclic sum over the derivative slot and the curvature pair slots
    cyc = s1 + np.einsum('cijab->ijcab', s1) + np.einsum('cijab->jciab', s1)
    assert_allclose(cyc, 0.0, atol=1e-12)


def test_quarter_pinching_of_complex_hyperbolic_member(ch2):
    ex = np.eye(4)
    assert_allclose(sectional(ch2.r, ex[0], ex[3]), -0.25, atol=1e-14)
    assert_allclose(sectional(ch2.r, ex[2], ex[3]), -1.0, atol=1e-14)
    rng = np.random.default_rng(1)
    for _ in range(100):
        x, y = rng.standard_normal((2, 4))
        x /= np.linalg.norm(x)
        y -= (y @ x) * x
        y /= np.linalg.norm(y)
        val = sectional(ch2.r, x, y)
        assert -1.0 - 1e-10 <= val <= -0.25 + 1e-10


def test_space_form_curvature_is_constant():
    geo = constant_curvature_geometry(5, kappa=0.7)
    rng = np.random.default_rng(2)
    x, y = rng.standard_normal((2, 5))
    x /= np.linalg.norm(x)
    y -= (y @ x) * x
    y /= np.linalg.norm(y)
    assert_allclose(sectional(geo.r, x, y), 0.7, atol=1e-13)
    # parallel curvature: the whole jet above order zero vanishes
    jet = curvature_jet(geo, np.eye(5)[0], order=3)
    for m in jet.matrices[1:]:
        assert_allclose(m, 0.0, atol=1e-14)


def test_jet_order_cap_and_radial_kernel(hh2):
    u = np.zeros(8)
    u[0] = 1.0
    with pytest.raises(OrderUnsupported):
        curvature_jet(hh2, u, order=4)
    jet = curvature_jet(hh2, u, order=2)
    for m in jet.matrices:
        assert_allclose(m, m.T, atol=1e-12)
        assert_allclose(m @ u, 0.0, atol=1e-12)


def test_scale_bracket_keeps_lie_but_breaks_clifford(ch2):
    """Scaling the module-module bracket [e_0, e_1] keeps the Jacobi
    identity and breaks the Einstein condition."""
    scaled = scale_bracket(ch2.algebra, 0, 1, 1.25)
    assert jacobi_defect(scaled) == 0.0
    geo = geometry_from_algebra(scaled)
    ric = ricci(geo.r)
    # no longer Einstein: the diagonal spreads out
    diag = np.diag(ric)
    assert diag.max() - diag.min() > 0.1


@pytest.mark.parametrize("member", [(1, 1, 0), (3, 2, 0), (3, 1, 1)],
                         ids=lambda m: "{}:{},{}".format(*m))
def test_the_perturb_control_scales_a_module_a_bracket(member):
    """``verify --perturb`` scales [e_0, e_{n-1}], where e_{n-1} is the
    extension direction A: the scaled constants break the Jacobi identity,
    by (factor - 1)/2, so the control builds no Lie algebra."""
    geo = damek_ricci_geometry(*member)
    scaled = scale_bracket(geo.algebra, 0, geo.dim - 1, 1.25)
    assert jacobi_defect(scaled) == 0.125
    assert jacobi_defect(scale_bracket(geo.algebra, 0, 1, 1.25)) == 0.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scaled, entry", [(True, 1e300), (False, np.inf),
                                           (False, np.nan)])
def test_a_curvature_that_is_not_finite_is_refused_at_build(scaled, entry):
    """A bracket scaled by 1e300 overflows the curvature, and an infinite
    or NaN structure constant gives no finite connection: the build raises
    before any invariant is computed, and prints no numpy warning."""
    geo = damek_ricci_geometry(1, 1, 0)
    if scaled:
        c = scale_bracket(geo.algebra, 0, geo.dim - 1, entry)
    else:
        c = geo.algebra.copy()
        c[0, 1, 2] = entry
    with pytest.raises(NonFiniteGeometry, match="not finite"):
        geometry_from_algebra(c, name=geo.name)


@pytest.mark.parametrize("kappa", [np.nan, np.inf, -np.inf], ids=repr)
def test_a_space_form_whose_curvature_is_not_finite_is_refused(kappa):
    """Its curvature tensor was all NaN, with a RuntimeWarning the only
    sign."""
    with pytest.raises(NonFiniteGeometry, match="needs kappa finite, got"):
        constant_curvature_geometry(4, kappa)


def test_covariant_derivative_kills_parallel_metric(hh2):
    gamma = levi_civita(hh2.algebra)
    dg = covariant_derivative(gamma, np.eye(8))
    assert_allclose(dg, 0.0, atol=1e-14)


def whole_slot_covariant_derivative(gamma, tensor):
    """Reference: each slot's term formed whole by one tensordot, the path
    the per-frame-index loop replaced, kept here only to check it."""
    out = np.zeros((gamma.shape[0],) + tensor.shape)
    for s in range(tensor.ndim):
        out -= np.moveaxis(np.tensordot(gamma, tensor, axes=([2], [s])),
                           1, s + 1)
    return out


def test_covariant_derivative_equals_the_whole_slot_path(scaled_member):
    """Bit for bit: every entry takes the same dot over the same summed
    index, and the four slot terms are subtracted in the same order."""
    geo = scaled_member
    got = covariant_derivative(geo.gamma, geo.r)
    want = whole_slot_covariant_derivative(geo.gamma, geo.r)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_covariant_derivative_holds_no_second_full_term():
    """On a 16-dim member nabla R is n^5 float64 = 8.39 MB; building it
    peaks under 1.25 times that (9.4 MB measured), where a whole slot term
    beside the output peaked at 17.3 MB."""
    geo = damek_ricci_geometry(3, 2, 1)
    n = geo.dim
    tracemalloc.start()
    try:
        covariant_derivative(geo.gamma, geo.r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 16
    assert peak < 1.25 * 8 * n ** 5


def naive_jet(geometry, u):
    """Reference jet of one direction, orders 0-3, from the full second
    covariant derivative (built here), unplanned einsums and a slot-by-slot
    third derivative: the path the batched engine replaced, kept here only
    to check it."""
    r, s1, gamma = geometry.r, geometry.nabla_r, geometry.gamma
    s2 = covariant_derivative(gamma, s1)
    mats = [np.einsum('iabj,a,b->ij', r, u, u),
            np.einsum('ciabj,c,a,b->ij', s1, u, u, u),
            np.einsum('cdiabj,c,d,a,b->ij', s2, u, u, u, u)]
    gu = np.einsum('g,gbm->bm', u, gamma)
    v = np.einsum('a,am->m', u, gu)
    u2 = np.einsum('cdiabj,c,d->iabj', s2, u, u)
    t3 = np.zeros_like(u2)
    for s in range(4):
        t3 -= np.moveaxis(np.tensordot(gu, u2, axes=([1], [s])), 0, s)
    t3 -= np.einsum('m,d,mdiabj->iabj', v, u, s2)
    t3 -= np.einsum('c,m,cmiabj->iabj', u, v, s2)
    mats.append(np.einsum('iabj,a,b->ij', t3, u, u))
    return mats


@pytest.mark.parametrize("count", [1, JET_BLOCK + 3])
def test_batched_jet_matches_per_direction_reference(all_spaces, sphere6,
                                                     count):
    """One batch, spanning blocks or holding a single direction, gives the
    per-direction matrices of every order to 1e-12 relative."""
    rng = np.random.default_rng(count)
    for geo in list(all_spaces.values()) + [sphere6]:
        dirs = random_directions(geo.dim, count, rng)
        jet = curvature_jet(geo, dirs, order=3)
        assert [m.shape for m in jet.matrices] == [(count, geo.dim, geo.dim)] * 4
        for k, u in enumerate(dirs):
            for got, want in zip([m[k] for m in jet.matrices],
                                 naive_jet(geo, u)):
                scale = max(float(np.abs(want).max()), 1.0)
                assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)
        single = curvature_jet(geo, dirs[0], order=3)
        for got, batched in zip(single.matrices, jet.matrices):
            assert_allclose(got, batched[0], rtol=1e-12, atol=1e-12)


def test_jet_order_truncates_the_batch(hh2):
    dirs = random_directions(8, 5, np.random.default_rng(4))
    full = curvature_jet(hh2, dirs, order=3)
    for order in range(3):
        jet = curvature_jet(hh2, dirs, order=order)
        assert jet.order == order
        for got, want in zip(jet.matrices, full.matrices):
            assert_allclose(got, want, rtol=1e-12, atol=1e-13)


def test_empty_batch_gives_empty_jets_and_constants(hh2):
    """A batch of no directions yields (0, n, n) matrices and empty
    traces rather than a jet without orders."""
    dirs = np.zeros((0, hh2.dim))
    jet = curvature_jet(hh2, dirs, order=3)
    assert jet.order == 3
    assert [m.shape for m in jet.matrices] == [(0, hh2.dim, hh2.dim)] * 4
    consts = direction_constants(hh2, dirs)
    for trace in (consts.c, consts.h, consts.l, consts.odd_first,
                  consts.even_second):
        assert trace.shape == (0,)


@pytest.mark.parametrize("shape", [(5,), (3, 5), (9,), (2, 9), (), (2, 2, 8)])
def test_jet_refuses_directions_of_the_wrong_shape(hh2, shape):
    """A direction whose last axis is not the dimension (8) was a bare
    numpy error from inside einsum."""
    u = np.ones(shape)
    with pytest.raises(InvalidSampling, match="finite unit rows"):
        curvature_jet(hh2, u)
    with pytest.raises(InvalidSampling, match="finite unit rows"):
        direction_constants(hh2, u)


def test_order_three_jet_stays_small_at_dimension_sixteen():
    """An order-3 jet of 40 directions on a fresh 16-dim member, nabla R
    build included, peaks under 64 MB of traced allocations; a second
    covariant derivative alone would be 134 MB."""
    geo = damek_ricci_geometry(3, 2, 1)
    dirs = random_directions(geo.dim, 40, np.random.default_rng(0))
    tracemalloc.start()
    try:
        curvature_jet(geo, dirs, order=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert geo.dim == 16
    assert peak < 64e6
