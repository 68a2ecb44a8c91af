"""Direction traces, curvature scalars and exact sphere averages."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hmlab import invariants
from hmlab.errors import DegreeTooHigh, HmlabError, InvalidSampling
from hmlab.clifford import build_j_map
from hmlab.geometry import (JET_BLOCK, build_htype_algebra,
                            constant_curvature_geometry, damek_ricci_geometry,
                            geometry_from_algebra, scale_bracket)
from hmlab.invariants import (BETA_SPEC, GRAD_QUAD_SPEC, MC_BLOCK, R_CUBE_SPEC,
                              _mc_form, _monomials, _symmetric_factor,
                              beta_tensor, direction_constants,
                              grad_quad_tensor, gradient_adjusted_cubics,
                              mc_average, perfect_matchings, point_invariants,
                              random_directions, sphere_average,
                              verify_average_identities,
                              verify_einstein_identities, verify_harmonicity)


def r_cube_tensor(geometry):
    """Coefficient tensor of tr R_u^3; the materialized reference that the
    factor form of ``sphere_average`` is checked against."""
    r = geometry.r
    return np.einsum(R_CUBE_SPEC, r, r, r, optimize=True)


def test_round_sphere_direction_traces(sphere6):
    """On the unit sphere the Jacobi operator is the transverse projection."""
    u = np.eye(6)[2]
    dc = direction_constants(sphere6, u)
    assert_allclose(dc.c, 5.0, atol=1e-14)
    assert_allclose(dc.h, 5.0, atol=1e-14)
    assert_allclose(dc.l, 160.0, atol=1e-13)   # 32 tr R_u^3, derivative part absent
    assert_allclose(dc.odd_first, 0.0, atol=1e-14)
    assert_allclose(dc.even_second, 0.0, atol=1e-14)


def test_round_sphere_cubic_scalars(sphere6):
    pi = point_invariants(sphere6)
    n = 6
    assert_allclose(pi.norm_r_sq, 2 * n * (n - 1), atol=1e-12)
    assert_allclose(pi.r_hat, 4 * n * (n - 1), atol=1e-11)
    assert_allclose(pi.r_ring, n * (n - 1) * (n - 2), atol=1e-11)
    assert_allclose(pi.grad_r_sq, 0.0, atol=1e-12)


def test_family_point_invariants(all_spaces):
    expected_c = {"ch2": -1.5, "hh2": -4.0, "hh3": -5.0, "ns12": -5.0}
    for key, geo in all_spaces.items():
        pi = point_invariants(geo)
        assert_allclose(pi.c, expected_c[key], rtol=1e-12)


def test_gradient_separates_the_twelve_dimensional_pair(hh3, ns12):
    sym = point_invariants(hh3)
    mixed = point_invariants(ns12)
    assert abs(sym.grad_r_sq) < 1e-10
    assert_allclose(mixed.grad_r_sq, 576.0, rtol=1e-9)


def test_adjusted_cubics_agree_across_the_pair(hh3, ns12):
    """R_hat and R_ring differ between the members; the two gradient-adjusted
    combinations coincide, which is what makes the pair interesting."""
    a = gradient_adjusted_cubics(point_invariants(hh3))
    b = gradient_adjusted_cubics(point_invariants(ns12))
    for key in a:
        assert_allclose(a[key], b[key], rtol=1e-9)
    raw_a = point_invariants(hh3)
    raw_b = point_invariants(ns12)
    assert abs(raw_a.r_hat - raw_b.r_hat) > 1.0
    assert abs(raw_a.r_ring - raw_b.r_ring) > 1.0


def reference_cubic_scalars(r):
    """(r_hat, r_ring) as the two n^6 einsums ``point_invariants`` summed
    before its matrix form; kept here only to check it."""
    return (-float(np.einsum('ijkl,klab,abij->', r, r, r)),
            -float(np.einsum('iajb,akbl,kilj->', r, r, r)))


def htype_geometry(l, a, b):
    """The nilpotent H-type group of the Clifford data (l; a, b)."""
    return geometry_from_algebra(build_htype_algebra(build_j_map(l, a, b)),
                                 name=f"N{l}:{a},{b}")


# dyadic members up to n = 16; the 24-dim reference takes about 0.9 s
CUBIC_MEMBERS = {
    "1:1,0": lambda: damek_ricci_geometry(1, 1, 0),
    "3:2,0": lambda: damek_ricci_geometry(3, 2, 0),
    "3:1,1": lambda: damek_ricci_geometry(3, 1, 1),
    "3:3,0": lambda: damek_ricci_geometry(3, 3, 0),
    "3:2,1": lambda: damek_ricci_geometry(3, 2, 1),
    "S8": lambda: constant_curvature_geometry(8, 1.0),
    "H8": lambda: constant_curvature_geometry(8, -1.0),
    "N3:2,0": lambda: htype_geometry(3, 2, 0),
    "N3:1,1": lambda: htype_geometry(3, 1, 1),
}


@pytest.mark.parametrize("member", list(CUBIC_MEMBERS))
def test_cubic_scalars_equal_the_n6_einsums(member):
    """R has dyadic entries with small denominators on these members, so
    the matrix traces keep every bit of the n^6 sums."""
    geo = CUBIC_MEMBERS[member]()
    pi = point_invariants(geo)
    want = reference_cubic_scalars(geo.r)
    assert (pi.r_hat.hex(), pi.r_ring.hex()) == tuple(v.hex() for v in want)


def test_cubic_scalars_off_the_dyadic_members(ns12):
    """A rescaled bracket leaves the dyadic entries, so the summation order
    shows in the last bits and nowhere else."""
    geo = geometry_from_algebra(scale_bracket(ns12.algebra, 0, 11, 1.1))
    pi = point_invariants(geo)
    assert_allclose((pi.r_hat, pi.r_ring), reference_cubic_scalars(geo.r),
                    rtol=1e-13, atol=0.0)


def test_harmonicity_battery(all_spaces):
    for geo in all_spaces.values():
        report = verify_harmonicity(geo, n_directions=20, seed=7)
        assert report.passed, report.as_dict()


def test_harmonicity_battery_trips_on_detuned_bracket(ch2):
    geo = geometry_from_algebra(scale_bracket(ch2.algebra, 0, 1, 1.3))
    report = verify_harmonicity(geo, n_directions=20, seed=7, tol=1e-8)
    assert not report.passed


def test_einstein_identity_battery(all_spaces):
    for geo in all_spaces.values():
        report = verify_einstein_identities(geo)
        assert report.passed, report.as_dict()
        names = [row.identity for row in report.rows]
        assert names == ["einstein", "norm-r-quadratic", "l-from-cubics",
                         "lichnerowicz"]


def test_average_identity_battery(ch2, hh2, ns12):
    # hh3 is covered by the acceptance suite; the degree-6 pairing sums on a
    # second 12-dimensional space would double the cost for no new code path
    for geo in (ch2, hh2, ns12):
        report = verify_average_identities(geo)
        assert report.passed, report.as_dict()


def test_sphere_average_against_isotropic_moment_formula(rng):
    """Degree-4 pairing sum must reproduce the delta-delta moment formula."""
    n = 5
    t = rng.standard_normal((n, n, n, n))
    eye = np.eye(n)
    pair = (np.einsum('ab,cd->abcd', eye, eye)
            + np.einsum('ac,bd->abcd', eye, eye)
            + np.einsum('ad,bc->abcd', eye, eye))
    expected = float(np.einsum('abcd,abcd->', t, pair)) / (n * (n + 2))
    assert_allclose(sphere_average(t), expected, rtol=1e-12)


def test_sphere_average_odd_degree_is_zero(rng):
    assert sphere_average(rng.standard_normal((4, 4, 4))) == 0.0


def test_sphere_average_degree_cap():
    with pytest.raises(DegreeTooHigh):
        sphere_average(np.zeros((2,) * 10))
    c = np.eye(3)
    with pytest.raises(DegreeTooHigh):
        sphere_average('ab,cd,ef,gh,ij->abcdefghij', c, c, c, c, c)


def reference_sphere_average(tensor):
    """Pairing sum over a materialized coefficient tensor, the way the
    averages were taken before the factor form; kept here only to check it."""
    d = tensor.ndim
    total = 0.0
    for matching in perfect_matchings(list(range(d))):
        labels = [""] * d
        for letter, (i, j) in zip("abcd", matching):
            labels[i] = labels[j] = letter
        total += float(np.einsum("".join(labels) + "->", tensor))
    denom = 1.0
    for t in range(d // 2):
        denom *= tensor.shape[0] + 2 * t
    return total / denom


@pytest.mark.parametrize("key", ["hh3", "ns12"])
def test_factor_averages_equal_materialized_averages(all_spaces, key):
    """Contracting the curvature factors under each pairing gives exactly
    the average of the built coefficient tensor."""
    geo = all_spaces[key]
    r, s1 = geo.r, geo.nabla_r
    for spec, factors, builder in ((BETA_SPEC, (r, r, r), beta_tensor),
                                   (GRAD_QUAD_SPEC, (s1, s1), grad_quad_tensor),
                                   (R_CUBE_SPEC, (r, r, r), r_cube_tensor)):
        tensor = builder(geo)
        want = reference_sphere_average(tensor)
        assert sphere_average(tensor) == want, spec
        assert sphere_average(spec, *factors) == want, spec


def test_factor_average_odd_degree_and_scalar(rng):
    t = rng.standard_normal((4, 4))
    assert sphere_average('ab,c->abc', t, t[0]) == 0.0
    assert sphere_average('aa->', t) == pytest.approx(float(np.trace(t)))


def test_batched_direction_constants_match_single_directions(ns12, rng):
    dirs = random_directions(12, 5, rng)
    batch = direction_constants(ns12, dirs)
    for k, u in enumerate(dirs):
        one = direction_constants(ns12, u)
        for name in ("c", "h", "l", "odd_first", "even_second"):
            assert isinstance(getattr(one, name), float)
            assert_allclose(getattr(batch, name)[k], getattr(one, name),
                            rtol=1e-12, atol=1e-12)


def test_sphere_average_matches_montecarlo_for_quadratic(rng):
    """Cross-check the pairing engine against brute-force directions."""
    n = 6
    t = rng.standard_normal((n, n))
    t = t + t.T
    exact = sphere_average(t)
    dirs = random_directions(n, 200_000, rng)
    est = float(np.mean(np.einsum('ka,ab,kb->k', dirs, t, dirs)))
    assert_allclose(est, exact, atol=6 * abs(exact) / np.sqrt(200_000) + 1e-3)


@pytest.mark.parametrize("quantity,tensor_builder,scale_power",
                         [("beta", beta_tensor, 2),
                          ("grad_quad", grad_quad_tensor, 3)])
def test_mc_average_within_errorbars(ns12, quantity, tensor_builder, scale_power):
    exact = sphere_average(tensor_builder(ns12))
    mean, se = mc_average(ns12, quantity, n_samples=100_000, seed=3)
    assert se > 0
    assert abs(mean - exact) < 5 * se


# The column-by-column Monte Carlo path the row-layout sampler replaced,
# kept here as its reference.

def reference_symmetric_monomials(dim, degree):
    combos = list(itertools.combinations_with_replacement(range(dim), degree))
    mults = []
    for combo in combos:
        m = math.factorial(degree)
        for idx in set(combo):
            m //= math.factorial(combo.count(idx))
        mults.append(m)
    return combos, np.array(mults, dtype=float)


def reference_symmetrize(tensor, slots):
    out = np.zeros_like(tensor)
    perms = list(itertools.permutations(slots))
    for perm in perms:
        order = list(range(tensor.ndim))
        for src, dst in zip(slots, perm):
            order[src] = dst
        out += np.transpose(tensor, axes=order)
    return out / len(perms)


def reference_monomial_matrix(directions, combos):
    cols = [np.prod(directions[:, list(combo)], axis=1) for combo in combos]
    return np.stack(cols, axis=1)


def reference_factor(tensor, degree):
    combos, mults = reference_symmetric_monomials(tensor.shape[0], degree)
    t = reference_symmetrize(tensor, list(range(degree)))
    return combos, np.stack([mults[i] * t[c].reshape(-1)
                             for i, c in enumerate(combos)])


def reference_evaluator(geometry, quantity):
    """The monomials and the per-sample Gram quadratic form of the column
    path: beta(u) = w F K F^T w, tr R_u'R_u' = |w F|^2."""
    n = geometry.dim
    if quantity == "beta":
        combos, fmat = reference_factor(np.einsum('iabj->abij', geometry.r), 2)
        kmat = np.einsum('jiqm->qimj', geometry.r).reshape(n * n, n * n)

        def evaluate(w):
            ru = w @ fmat
            return np.sum((ru @ kmat) * ru, axis=1)
    else:
        combos, fmat = reference_factor(
            np.einsum('ciabj->cabij', geometry.nabla_r), 3)

        def evaluate(w):
            r1 = w @ fmat
            return np.sum(r1 * r1, axis=1)
    return combos, evaluate


def reference_mc_average(geometry, quantity, n_samples, seed, chunk=50_000):
    n = geometry.dim
    rng = np.random.Generator(np.random.SFC64(seed))
    combos, evaluate = reference_evaluator(geometry, quantity)
    total = total_sq = 0.0
    done = 0
    while done < n_samples:
        m = min(chunk, n_samples - done)
        vals = evaluate(reference_monomial_matrix(
            random_directions(n, m, rng), combos))
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        done += m
    mean = total / n_samples
    var = max(total_sq / n_samples - mean * mean, 0.0)
    return mean, math.sqrt(var / n_samples)


def whole_symmetric_factor(tensor, degree):
    """Reference: the whole tensor reshaped to one row per index tuple (a
    full copy of a transposed tensor) and folded by one ``np.add.at``, the
    path the per-leading-index fold replaced, kept here only to check it."""
    n = tensor.shape[0]
    full = np.indices((n,) * degree).reshape(degree, -1).T
    idx, row = np.unique(np.sort(full, axis=1), axis=0, return_inverse=True)
    rows = tensor.reshape(n ** degree, -1)
    factor = np.zeros((len(idx), rows.shape[1]))
    np.add.at(factor, row.reshape(-1), rows)
    return idx, factor


def test_symmetric_factor_equals_the_whole_fold(scaled_member):
    """Bit for bit on both tensors ``_mc_form`` folds: every factor row
    receives the same additions in the same order."""
    geo = scaled_member
    for tensor, degree in [(np.einsum('iabj->abij', geo.r), 2),
                           (np.einsum('ciabj->cabij', geo.nabla_r), 3)]:
        idx, got = _symmetric_factor(tensor, degree)
        ref_idx, want = whole_symmetric_factor(tensor, degree)
        assert np.array_equal(idx, ref_idx)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_grad_quad_fold_copies_no_whole_nabla_r():
    """With a 16-dim member's nabla R (n^5 float64 = 8.39 MB) held, the
    grad_quad fold peaks under half of it above (2.35 MB measured), where
    a transposed copy of all of it peaked at 10.2 MB."""
    geo = damek_ricci_geometry(3, 2, 1)
    n = geo.dim
    geo.nabla_r
    tracemalloc.start()
    try:
        _mc_form(geo, "grad_quad")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 16
    assert peak < 0.5 * 8 * n ** 5


@pytest.mark.parametrize("degree", [2, 3])
def test_row_layout_monomials_equal_the_column_path(degree, rng):
    dirs = random_directions(12, 300, rng)
    idx, _ = _symmetric_factor(np.zeros((12,) * degree + (1,)), degree)
    combos, _ = reference_symmetric_monomials(12, degree)
    assert idx.tolist() == [list(c) for c in combos]
    w = _monomials(np.ascontiguousarray(dirs.T), idx)
    assert np.array_equal(w.T, reference_monomial_matrix(dirs, combos))


@pytest.mark.parametrize("quantity", ["beta", "grad_quad"])
def test_mc_average_matches_the_column_path(ns12, ns12_perturbed, quantity):
    """Same sample stream through both paths; only the summation order
    differs.  The count is not a multiple of the block size.  On ns12
    every live term is even, so only ns12_perturbed's odd terms reach
    the paired block U."""
    n_samples = 100_000
    assert n_samples % MC_BLOCK
    for geometry in (ns12, ns12_perturbed):
        mean, se = mc_average(geometry, quantity, n_samples=n_samples,
                              seed=3)
        ref_mean, ref_se = reference_mc_average(geometry, quantity,
                                                n_samples, seed=3)
        assert_allclose(mean, ref_mean, rtol=1e-12)
        assert_allclose(se, ref_se, rtol=1e-10)


@pytest.mark.parametrize("n_samples", [0, -5])
def test_mc_average_needs_a_sample(ns12, n_samples):
    with pytest.raises(InvalidSampling):
        mc_average(ns12, "beta", n_samples=n_samples)


@pytest.mark.parametrize("n_samples,seed", [(10.0, 0), (True, 0), ("10", 0),
                                            (10, 1.5), (10, True),
                                            (10, None)])
def test_mc_average_needs_integer_counts(ns12, n_samples, seed):
    """Refused before drawing: a float count used to raise a bare
    TypeError, and True ran one sample with standard error 0.0."""
    with pytest.raises(InvalidSampling, match="integer"):
        mc_average(ns12, "beta", n_samples=n_samples, seed=seed)


def test_mc_average_takes_numpy_integers(ns12):
    mean, se = mc_average(ns12, "beta", n_samples=np.int64(10),
                          seed=np.uint8(3))
    assert (type(mean), type(se)) == (float, float)
    assert (mean, se) == mc_average(ns12, "beta", n_samples=10, seed=3)


def test_mc_average_rejects_an_unknown_quantity(ns12):
    with pytest.raises(InvalidSampling, match="'other'") as info:
        mc_average(ns12, "other", n_samples=10)
    assert isinstance(info.value, HmlabError)


@pytest.fixture(scope="module")
def ns12_perturbed(ns12):
    """ns12 with one module bracket rescaled: not harmonic, and most of its
    grad_quad image is live."""
    return geometry_from_algebra(scale_bracket(ns12.algebra, 0, 11, 1.25))


@pytest.fixture(scope="module")
def ch2_scaled(ch2):
    """ch2 with its bracket (0, 1) scaled by 1.3: the folded grad_quad
    sums of four of its monomials cancel to rounding residues."""
    return geometry_from_algebra(scale_bracket(ch2.algebra, 0, 1, 1.3))


@pytest.mark.parametrize("space,live", [
    ("ns12", {"beta": (78, 78, 0, 78, 12), "grad_quad": (48, 48, 0, 48, 16)}),
    ("hh3", {"beta": (78, 78, 0, 78, 12), "grad_quad": (0, 0, 0, 0, 0)}),
    ("ns12_perturbed", {"beta": (84, 87, 9, 78, 12),
                        "grad_quad": (411, 399, 60, 339, 73)}),
    ("ch2_scaled", {"beta": (10, 10, 0, 10, 4),
                    "grad_quad": (13, 13, 0, 13, 6)})])
def test_grad_quad_on_its_live_part_matches_the_full_image(space, live,
                                                           request):
    """The sampler keeps only the degree-2k terms whose coefficient
    exceeds 1e-12 of the largest, each a product of two live degree-k
    halves: a term with an odd exponent fills U on the p halves such
    terms use, and an all-even term x^beta fills D on its head.  Pinned
    for both quantities as (terms, halves, p, even terms, heads) =
    (nnz(U) + nnz(D), p + nnz(D), p, nnz(D), len(heads)); the column path
    multiplies the full factor on the same stream.  On ch2_scaled,
    grad_quad folds to 17 nonzero coefficients, four of them rounding
    residues 1.2e-33 to 4.5e-17 of the largest.  hh3 (3:2,0) is
    symmetric, so nothing is live in grad_quad and every sample is 0."""
    geometry = request.getfixturevalue(space)
    for quantity, sizes in live.items():
        halves, umat, heads, dmat = _mc_form(geometry, quantity)
        p, squared = len(halves), np.count_nonzero(dmat)
        assert umat.shape == (p, p)
        assert (np.count_nonzero(umat) + squared, p + squared, p, squared,
                len(heads)) == sizes
    mean, se = mc_average(geometry, "grad_quad", n_samples=100_000, seed=3)
    ref_mean, ref_se = reference_mc_average(geometry, "grad_quad", 100_000,
                                            seed=3)
    assert_allclose(mean, ref_mean, rtol=1e-12)
    assert_allclose(se, ref_se, rtol=1e-10)
    if not live["grad_quad"][0]:
        assert (mean, se) == (0.0, 0.0)


def plan_sphere_moment(geometry, quantity):
    """Exact sphere average of the folded form: sum_alpha c_alpha
    prod (alpha_i - 1)!! / (n (n+2) ... (n+2k-2)) over even alpha, with
    U[i, j] on halves[i] + halves[j] and D[l, h] on twice heads[h] + (l)."""
    n = geometry.dim
    halves, umat, heads, dmat = _mc_form(geometry, quantity)
    degree = 2 * halves.shape[1]
    terms = [(umat[i, j], np.concatenate([halves[i], halves[j]]))
             for i, j in zip(*np.nonzero(umat))]
    terms += [(dmat[l, h], np.tile(np.append(heads[h], l), 2))
              for l, h in zip(*np.nonzero(dmat))]
    total = 0.0
    for c, multi in terms:
        alpha = np.bincount(multi, minlength=n)
        if not (alpha % 2).any():
            total += c * math.prod(math.prod(range(1, e, 2))
                                   for e in alpha.tolist())
    return total / math.prod(n + 2 * t for t in range(degree // 2))


@pytest.mark.parametrize("space", ["ns12", "hh3", "ns12_perturbed"])
def test_the_folded_plan_has_the_pairing_averages(space, request):
    geometry = request.getfixturevalue(space)
    r, s1 = geometry.r, geometry.nabla_r
    for quantity, want in (("beta", sphere_average(BETA_SPEC, r, r, r)),
                           ("grad_quad",
                            sphere_average(GRAD_QUAD_SPEC, s1, s1))):
        got = plan_sphere_moment(geometry, quantity)
        assert_allclose(got, want, rtol=1e-12)


@pytest.mark.parametrize("space", ["ns12", "hh3", "ns12_perturbed",
                                   "ch2_scaled"])
@pytest.mark.parametrize("quantity", ["beta", "grad_quad"])
def test_the_folded_polynomial_equals_the_gram_form(space, quantity,
                                                    request, rng):
    """Per direction, the form ``mc_average`` reads, w . (U w) on the
    paired halves plus the column sum of x * (D @ monomials(x, heads))
    on x = u^2, is the quadratic form of the full folded factor."""
    geometry = request.getfixturevalue(space)
    dirs = random_directions(geometry.dim, 500, rng)
    dt = np.ascontiguousarray(dirs.T)
    x = dt * dt
    halves, umat, heads, dmat = _mc_form(geometry, quantity)
    w = _monomials(dt, halves)
    got = (((umat @ w) * w).sum(axis=0)
           + (x * (dmat @ _monomials(x, heads))).sum(axis=0))
    combos, evaluate = reference_evaluator(geometry, quantity)
    want = evaluate(reference_monomial_matrix(dirs, combos))
    assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_mc_average_rejects_a_negative_seed(ns12):
    with pytest.raises(InvalidSampling, match="seed"):
        mc_average(ns12, "beta", n_samples=10, seed=-1)


def reference_harmonicity_rows(geometry, n_directions, seed):
    """All directions drawn and evaluated at once: the unblocked path."""
    dirs = random_directions(geometry.dim, n_directions,
                             np.random.default_rng(seed))
    dc = direction_constants(geometry, dirs)
    names = ("C", "H", "L", "tr(R R')", "tr(R R'') + tr(R' R')")
    return [(f"spread[{name}]", float(vals.max()), float(vals.min()))
            for name, vals in zip(names, (dc.c, dc.h, dc.l, dc.odd_first,
                                          dc.even_second))]


def test_harmonicity_in_blocks_equals_the_whole_draw(ns12):
    assert MC_BLOCK % JET_BLOCK == 0
    count = MC_BLOCK + 37
    report = verify_harmonicity(ns12, n_directions=count, seed=5, tol=1e-8)
    rows = [(r.identity, r.lhs, r.rhs) for r in report.rows]
    assert rows == reference_harmonicity_rows(ns12, count, 5)


def test_harmonicity_memory_is_bounded_in_the_direction_count(ns12):
    """All 20 000 directions at once peak at ~140 MB of numpy arrays (about
    6.8 KB a direction); blocks of MC_BLOCK stay near 30 MB."""
    tracemalloc.start()
    try:
        verify_harmonicity(ns12, n_directions=20_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6


def test_harmonicity_needs_a_direction(ns12):
    with pytest.raises(InvalidSampling):
        verify_harmonicity(ns12, n_directions=0)


def test_harmonicity_needs_two_directions_to_see_a_spread(ch2):
    """One direction has no spread, so the perturbed member would pass;
    two already trip it."""
    geo = geometry_from_algebra(scale_bracket(ch2.algebra, 0, ch2.dim - 1,
                                              1.25))
    with pytest.raises(InvalidSampling, match="n_directions >= 2"):
        verify_harmonicity(geo, n_directions=1)
    assert not verify_harmonicity(geo, n_directions=2).passed


@pytest.mark.parametrize("n_directions,seed,match", [
    (2.5, 0, "integer n_directions"), (True, 0, "integer n_directions"),
    ("10", 0, "integer n_directions"), (10, 1.5, "integer seed"),
    (10, True, "integer seed"), (10, None, "integer seed"),
    (10, -1, "seed >= 0"),
])
def test_harmonicity_refuses_bad_counts(ch2, n_directions, seed, match):
    """Refused before drawing: a float count or seed used to raise a bare
    TypeError, a negative seed numpy's ValueError, and seed=True ran."""
    with pytest.raises(InvalidSampling, match=match):
        verify_harmonicity(ch2, n_directions=n_directions, seed=seed)


def test_harmonicity_takes_numpy_integers(ch2):
    rows = verify_harmonicity(ch2, n_directions=np.int64(5),
                              seed=np.uint8(3)).rows
    assert rows == verify_harmonicity(ch2, n_directions=5, seed=3).rows


BATTERIES = [verify_harmonicity, verify_einstein_identities,
             verify_average_identities]


@pytest.mark.parametrize("battery", BATTERIES, ids=lambda f: f.__name__)
def test_an_infinite_tolerance_cannot_pass_a_detuned_member(ch2, battery,
                                                            monkeypatch):
    """The 1:1,0 member with bracket (0, n - 1) scaled by 1.25, as
    ``verify --perturb 1.25`` builds it, fails each battery at its default
    tolerance; tol=inf passed all three, a wrong verdict.  It is refused
    before any curvature work."""
    geo = geometry_from_algebra(scale_bracket(ch2.algebra, 0, ch2.dim - 1,
                                              1.25))
    assert not battery(geo).passed

    def no_work(*args, **kwargs):
        raise AssertionError("curvature work started before tol was checked")

    monkeypatch.setattr(invariants, "point_invariants", no_work)
    monkeypatch.setattr(invariants, "direction_constants", no_work)
    with pytest.raises(InvalidSampling, match="tol finite and > 0, got inf"):
        battery(geo, tol=math.inf)


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0, -math.inf, "1e-8"],
                         ids=repr)
@pytest.mark.parametrize("battery", BATTERIES, ids=lambda f: f.__name__)
def test_a_battery_refuses_a_tolerance_that_fails_every_row(ch2, battery,
                                                            tol):
    """NaN, 0 and a negative tolerance failed every row; a string fell over
    in the comparison with a bare TypeError."""
    with pytest.raises(InvalidSampling, match="tol finite and > 0"):
        battery(ch2, tol=tol)


def test_cube_average_tensor_consistency(ns12):
    """The degree-6 pairing of the R_u^3 trace tensor matches direct sampling."""
    t = r_cube_tensor(ns12)
    exact = sphere_average(t)
    rng = np.random.default_rng(11)
    dirs = random_directions(12, 4000, rng)
    ru = np.einsum('iabj,ka,kb->kij', ns12.r, dirs, dirs)
    vals = np.einsum('kij,kjl,kli->k', ru, ru, ru)
    est = float(np.mean(vals))
    se = float(np.std(vals)) / np.sqrt(len(vals))
    assert abs(est - exact) < 5 * se


def test_random_directions_are_unit(rng):
    dirs = random_directions(7, 50, rng)
    assert dirs.shape == (50, 7)
    assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
