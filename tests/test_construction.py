import time
from math import comb

import numpy as np
import pytest

from samplets import (
    PointCloud,
    assemble_dense_transform,
    build_basis,
    build_cluster_tree,
    construction,
    moment_count,
)
from samplets.construction import (
    _fix_signs,
    build_samplet_basis,
    cluster_weight_matrix,
    dirac_moments,
    local_frames,
    moment_shift_matrix,
    monomial_exponents,
    monomial_values,
)


def test_monomial_exponents_graded_order():
    assert monomial_exponents(2, 1).tolist() == [[0, 0], [1, 0], [0, 1]]
    assert monomial_exponents(1, 3).tolist() == [[0], [1], [2], [3]]
    assert len(monomial_exponents(3, 3)) == moment_count(3, 3) == 20


def test_monomial_values_leaf_examples():
    # 1-D sites {0,1}, degrees 0..1: rows 1 and x
    vals = monomial_values(np.array([[0.0], [1.0]]), monomial_exponents(1, 1))
    assert vals.tolist() == [[1.0, 1.0], [0.0, 1.0]]
    # 2-D sites (0,0),(1,0),(0,1): rows 1, x0, x1
    vals = monomial_values(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), monomial_exponents(2, 1)
    )
    assert vals.tolist() == [[1, 1, 1], [0, 1, 0], [0, 0, 1]]


def test_moment_matrix_constant_row_and_local_frame():
    rng = np.random.default_rng(0)
    pts = rng.random((6, 2))
    tree = build_cluster_tree(PointCloud(pts), 6)
    centers, scales = local_frames(tree)
    m = dirac_moments(pts, monomial_exponents(2, 1), centers[0], scales[0]).T
    # degree-0 row is all ones regardless of the local frame
    np.testing.assert_allclose(m[0], np.ones(6))
    local = (pts - centers[0]) / scales[0]
    np.testing.assert_allclose(m, monomial_values(local, monomial_exponents(2, 1)))
    root = tree.root
    np.testing.assert_allclose(centers[0], 0.5 * (root.bbox_lo + root.bbox_hi))
    assert scales[0] == 0.5 * np.linalg.norm(root.bbox_hi - root.bbox_lo)


def test_haar_pair_for_two_points():
    basis = build_basis(np.array([[0.0], [1.0]]), 0, leaf_size=2)
    root = basis.tree.root.index
    q = basis.groups[basis.group[root]].q[basis.position[root]]
    assert (basis.n_in[root], basis.n_sc[root]) == (2, 1)
    s = 1 / np.sqrt(2)
    np.testing.assert_allclose(q[:, 0], [s, s], atol=1e-15)  # scaling
    np.testing.assert_allclose(q[:, 1], [s, -s], atol=1e-15)  # samplet
    assert abs(q[:, 1].sum()) < 1e-14  # vanishing moment for constants


def test_transform_blocks_orthonormal():
    rng = np.random.default_rng(1)
    basis = build_basis(rng.random((50, 2)), 2)
    for g in basis.groups:
        eye = np.eye(g.q.shape[-1])
        np.testing.assert_allclose(g.q.transpose(0, 2, 1) @ g.q - eye, 0, atol=1e-12)


def test_increasing_vanishing_moments_with_carried_degree():
    # 4 equispaced sites, degree 1, carrying rows up to degree 3: the last
    # samplet picks up an extra vanishing moment (degree 2)
    cloud = PointCloud(np.array([[0.0], [1.0], [2.0], [3.0]]))
    tree = build_cluster_tree(cloud, 4)
    basis = build_samplet_basis(tree, 1, carry_degree=3)
    T = assemble_dense_transform(basis)
    M = monomial_values(cloud.points, monomial_exponents(1, 2))  # 1, x, x^2
    moments = T @ M.T
    assert basis.n_scaling == 2
    np.testing.assert_allclose(moments[2, :2], 0, atol=1e-12)  # samplet 1: 1, x
    np.testing.assert_allclose(moments[3, :3], 0, atol=1e-12)  # samplet 2: 1, x, x^2


def test_single_point_basis_is_dirac():
    basis = build_basis(np.array([[0.3, 0.4, 0.5]]), 2)
    T = assemble_dense_transform(basis)
    np.testing.assert_allclose(T, [[1.0]])
    assert basis.n_scaling == 1


def _relative_moment_error(basis, degree):
    """Worst samplet moment, normalized per the vanishing-moment contract."""
    cloud = basis.tree.cloud
    T = assemble_dense_transform(basis)
    W = T[basis.n_scaling :]
    M = monomial_values(cloud.points, monomial_exponents(cloud.dim, degree))
    raw = np.abs(W @ M.T)
    scale = np.abs(W).sum(axis=1)[:, None] * np.abs(M).max(axis=1)[None, :]
    return (raw / np.maximum(scale, 1e-300)).max()


def test_uniform_1d_200_sites_three_vanishing_moments():
    rng = np.random.default_rng(2)
    basis = build_basis(np.sort(rng.random(200))[:, None], 2)
    assert _relative_moment_error(basis, 2) < 1e-8


def test_3d_samplet_count():
    rng = np.random.default_rng(3)
    basis = build_basis(rng.random((256, 3)), 3)
    assert moment_count(3, 3) == 20
    total_samplets = (basis.n_in - basis.n_sc).sum()
    assert total_samplets == 256 - 20
    assert basis.n_scaling == 20


def test_dense_transform_orthogonal_and_kills_constants():
    rng = np.random.default_rng(4)
    basis = build_basis(rng.random((128, 2)), 1)
    T = assemble_dense_transform(basis)
    assert np.abs(T @ T.T - np.eye(128)).max() < 1e-10
    coeffs = T @ np.ones(128)
    assert np.abs(coeffs[basis.n_scaling :]).max() < 1e-10 * np.sqrt(128.0)


def test_dense_transform_guard():
    rng = np.random.default_rng(5)
    basis = build_basis(rng.random((8193, 1)), 0)
    with pytest.raises(ValueError, match="guard"):
        assemble_dense_transform(basis)


def test_support_locality():
    rng = np.random.default_rng(6)
    basis = build_basis(rng.random((96, 2)), 1)
    T = assemble_dense_transform(basis)
    levels = basis.samplet_levels()
    assert np.all(levels[: basis.n_scaling] == -1)
    for c in basis.tree.clusters:
        lo, hi = basis.samplet_slots(c.index)
        assert hi - lo == basis.n_in[c.index] - basis.n_sc[c.index]
        assert np.all(levels[lo:hi] == c.level)
        assert basis.stored_slots(c.index) == (0 if c is basis.tree.root else lo, hi)
        inside = basis.tree.original_indices(c)
        outside = np.setdiff1d(np.arange(96), inside)
        if hi > lo and outside.size:
            assert np.abs(T[lo:hi][:, outside]).max() == 0.0


def test_weight_matrix_matches_dense_rows():
    rng = np.random.default_rng(7)
    basis = build_basis(rng.random((64, 2)), 1)
    T = assemble_dense_transform(basis)
    c = basis.tree.root.children[0]
    W = cluster_weight_matrix(basis, c.index)
    lo, hi = basis.samplet_slots(c.index)
    cols = basis.tree.permutation[c.start : c.stop]
    n_sc = basis.n_sc[c.index]
    np.testing.assert_allclose(W[:, n_sc:].T, T[lo:hi][:, cols], atol=1e-13)


def test_coefficient_decay_for_smooth_data():
    rng = np.random.default_rng(8)
    # jittered grid: quasi-uniform sites
    g = (np.stack(np.meshgrid(np.arange(32), np.arange(32), indexing="ij"), -1)
         .reshape(-1, 2) + 0.5 + 0.25 * (rng.random((1024, 2)) - 0.5)) / 32
    basis = build_basis(g, 3)
    from samplets import forward_transform

    f = np.exp(g[:, 0] + g[:, 1])
    coeffs = forward_transform(basis, f)
    levels = basis.samplet_levels()
    J = basis.tree.depth
    peaks = [np.abs(coeffs.slots[levels == j]).max() for j in range(J + 1)]
    ratios = [peaks[j + 1] / peaks[j] for j in range(len(peaks) - 1)]
    fit = np.polyfit(np.arange(len(peaks)), np.log(peaks), 1)[0]
    assert fit < -0.4  # clearly negative decay exponent
    assert np.median(ratios) < 0.6


def test_rank_deficient_duplicate_points():
    pts = np.array([[0.0, 0.0]] * 8 + [[1.0, 1.0]] * 8)
    basis = build_basis(pts, 1, leaf_size=4)
    T = assemble_dense_transform(basis)
    assert np.abs(T @ T.T - np.eye(16)).max() < 1e-10


def test_construction_cost_roughly_linear():
    rng = np.random.default_rng(9)
    clouds = [rng.random((n, 2)) for n in (2**13, 2**14)]
    # the sizes take turns, so a slow spell of the host hits them all
    times = [np.inf] * len(clouds)
    for _ in range(3):
        for k, pts in enumerate(clouds):
            t0 = time.perf_counter()
            build_basis(pts, 1, leaf_size=32)
            times[k] = min(times[k], time.perf_counter() - t0)
    assert times[1] / times[0] <= 2.5


def _shift_reference(exponents, scale_ratio, offset):
    """Term-by-term re-expansion x^alpha = sum_beta S[alpha, beta] y^beta."""
    m, dim = exponents.shape
    total = exponents.sum(axis=1)
    pos = {tuple(e): i for i, e in enumerate(exponents)}
    S = np.zeros((m, m))
    for i, alpha in enumerate(exponents):
        for j, beta in enumerate(exponents):
            if total[j] > total[i] or np.any(beta > alpha):
                continue
            coeff = scale_ratio ** int(total[j])
            for k in range(dim):
                coeff *= comb(int(alpha[k]), int(beta[k])) * offset[k] ** int(
                    alpha[k] - beta[k]
                )
            S[i, pos[tuple(beta)]] = coeff
    return S


def test_moment_shift_closed_form_matches_expansion_bitwise():
    rng = np.random.default_rng(20)
    for dim in range(1, 7):
        for degree in range(5):
            exponents = monomial_exponents(dim, degree)
            ratios = rng.uniform(0.05, 1.0, 3)
            offsets = rng.uniform(-1.0, 1.0, (3, dim))
            offsets[0, 0] = 0.0
            stack = moment_shift_matrix(exponents, ratios, offsets)
            for r, o, S in zip(ratios, offsets, stack):
                ref = _shift_reference(exponents, float(r), o)
                assert np.array_equal(moment_shift_matrix(exponents, float(r), o), ref)
                assert np.array_equal(S, ref)


def test_moment_shift_reexpands_monomials():
    rng = np.random.default_rng(21)
    exponents = monomial_exponents(3, 3)
    y = rng.uniform(-1.0, 1.0, (10, 3))
    r, o = 0.4, rng.uniform(-0.5, 0.5, 3)
    S = moment_shift_matrix(exponents, r, o)
    np.testing.assert_allclose(
        monomial_values(r * y + o, exponents), S @ monomial_values(y, exponents),
        atol=1e-14,
    )


def _table_values(points, exponents):
    """Monomials from one `**` table over all exponents 0..top."""
    powers = points[:, :, None] ** np.arange(exponents.max(initial=0) + 1)
    values = powers[:, 0, exponents[:, 0]]
    for k in range(1, points.shape[1]):
        values = values * powers[:, k, exponents[:, k]]
    return values.T


def _masked_shift(exponents, ratios, offsets):
    """Re-expansion stack of c frames over all m x m entries, powers as
    Python `**` lists for every exponent, then masked to beta <= alpha."""
    dim, top = exponents.shape[1], int(exponents.max(initial=0))
    total = exponents.sum(axis=1)
    diff = exponents[:, None, :] - exponents[None, :, :]
    below = (diff >= 0).all(axis=2)
    diff = np.where(below[:, :, None], diff, 0)
    pascal = np.array([[comb(a, b) for b in range(top + 1)] for a in range(top + 1)])
    binom = pascal[exponents[:, None, :], exponents[None, :, :]].astype(float)
    powers = range(int(total.max(initial=0)) + 1)
    r_pow = np.array([[r**e for e in powers] for r in ratios.tolist()])
    o_pow = np.array(
        [[[o**e for e in range(top + 1)] for o in row] for row in offsets.tolist()]
    )
    S = r_pow[:, None, total]
    for k in range(dim):
        S = S * (binom[:, :, k] * o_pow[:, k, diff[:, :, k]])
    return np.where(below, S, 0.0)


def test_power_tables_and_reexpansion_match_full_table_formulas(monkeypatch):
    # the tables skip the exact exponents 0 and 1 and build the frames'
    # powers once per basis; every value stays bit for bit that of one `**`
    # table over all exponents and of per-group masked re-expansions
    rng = np.random.default_rng(25)
    shifts = []

    def recording(*args, stack=construction._shift_stack):
        shifts.append(stack(*args))
        return shifts[-1]

    monkeypatch.setattr(construction, "_shift_stack", recording)
    for dim in range(1, 7):
        for degree in range(6):
            exponents = monomial_exponents(dim, degree)
            pts = rng.uniform(-1.0, 1.0, (2000, dim))
            assert np.array_equal(
                monomial_values(pts, exponents), _table_values(pts, exponents)
            )
            shifts.clear()
            basis = build_basis(pts[:60], 0, leaf_size=6, carry_degree=degree)
            centers, scales = local_frames(basis.tree)
            inner = [g for g in basis.groups if g.level > 0]
            assert len(shifts) == len(inner) > 0
            for g, S in zip(inner, shifts):
                p = basis.tree.parent[g.index]
                ref = _masked_shift(
                    exponents, scales[g.index] / scales[p],
                    (centers[g.index] - centers[p]) / scales[p, None],
                )
                assert np.array_equal(S, ref)


def test_formed_q_equals_complete_qr_bitwise():
    # the stacks formed from the stored reflectors are exactly what a
    # complete QR of the moment matrices gives, duplicate sites included
    rng = np.random.default_rng(23)
    pts = np.repeat(rng.random((150, 2)), 2, axis=0)
    basis = build_basis(pts, 2)
    exponents = monomial_exponents(2, 2)
    centers, scales = local_frames(basis.tree)
    for g in basis.groups:
        if g.leaf:
            moments = dirac_moments(
                pts[g.gather], exponents,
                centers[g.index, None], scales[g.index, None, None],
            )
            Q, R = np.linalg.qr(moments, mode="complete")
            _fix_signs(Q, R)
            assert np.array_equal(g.q, Q)


@pytest.mark.parametrize("leaf_size", [None, 40])
def test_level_groups_hold_each_transform_once(leaf_size):
    rng = np.random.default_rng(22)
    degree = 1 if leaf_size else 2
    basis = build_basis(rng.random((777, 3)), degree, leaf_size)
    seen = np.concatenate([g.index for g in basis.groups])
    assert sorted(seen.tolist()) == list(range(len(basis.tree.clusters)))
    levels = [g.level for g in basis.groups]
    assert levels == sorted(levels, reverse=True)
    explicit = []
    for k, g in enumerate(basis.groups):
        n_in = g.gather.shape[1]
        r = min(n_in, moment_count(degree, 3))
        explicit.append(n_in**2 <= r * (2 * n_in + r))
        # a WY group forms its explicit stack on first use only
        assert (g.ut is None) == explicit[-1] == (g._q is not None)
        assert g.q.shape == (len(g.index), n_in, n_in)
        assert g.scatter.shape == g.gather.shape
        assert (basis.group[g.index] == k).all()
        assert basis.position[g.index].tolist() == list(range(len(g.index)))
        assert (basis.tree.level[g.index] == g.level).all()
        assert (basis.n_in[g.index] == n_in).all()
        assert (basis.n_sc[g.index] == g.n_scaling).all()
        rows = np.arange(basis.n if g.leaf else basis.slot_row)[g.rows]
        assert np.array_equal(rows, g.gather.ravel())
        x = rng.standard_normal(g.gather.shape + (2,))
        # both may overwrite their input
        qt_x, q_x = g.q.transpose(0, 2, 1) @ x, g.q @ x
        np.testing.assert_allclose(g.analyze(x.copy()), qt_x, atol=1e-13)
        np.testing.assert_allclose(g.synthesize(x.copy()), q_x, atol=1e-13)
        np.testing.assert_allclose(g.analyze(x[..., 0].copy()), qt_x[..., 0], atol=1e-13)
    # every point and every buffer row is read once and written once
    points = np.concatenate([g.gather.ravel() for g in basis.groups if g.leaf])
    rows = np.concatenate([g.gather.ravel() for g in basis.groups if not g.leaf])
    scattered = np.concatenate([g.scatter.ravel() for g in basis.groups])
    assert np.array_equal(np.sort(points), np.arange(basis.n))
    assert np.array_equal(np.sort(rows), np.arange(basis.slot_row))
    assert np.array_equal(np.sort(scattered), np.arange(basis.sweep_rows))
    assert all(g.leaf == basis.tree.clusters[g.index[0]].is_leaf for g in basis.groups)
    # 40-point leaves with 4 moments are thin and keep the WY form
    assert set(explicit) == ({False, True} if leaf_size else {True})


@pytest.mark.parametrize("dim", [2, 3])
def test_square_blocks_keep_explicit_q(dim):
    # quasi-uniform clouds at q=3 and the default leaf size, the shapes of
    # the benchmark workloads, give square blocks in every group
    rng = np.random.default_rng(24)
    m = 32 if dim == 2 else 12
    cells = np.stack(np.meshgrid(*[np.arange(m)] * dim, indexing="ij"), -1)
    pts = (cells.reshape(-1, dim) + 0.1 + 0.8 * rng.random((m**dim, dim))) / m
    basis = build_basis(pts[rng.permutation(len(pts))], 3)
    assert all(g.ut is None for g in basis.groups)
    # their trees are balanced: each interior group reads one run of rows
    assert all(isinstance(g.rows, slice) for g in basis.groups if not g.leaf)
