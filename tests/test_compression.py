import gc
import tracemalloc

import numpy as np
import pytest

from samplets import (
    Matern,
    PointCloud,
    add_compressed,
    build_basis,
    compress_assemble,
    compression_error_report,
    dense_kernel_matrix,
    forward_transform,
    is_admissible,
    load_compressed,
    save_compressed,
    transform_matrix_congruence,
)
from samplets.tree import Cluster, cluster_diam, cluster_dist


@pytest.fixture(scope="module")
def setup256():
    rng = np.random.default_rng(40)
    cloud = PointCloud(rng.random((256, 2)))
    spec = Matern(0.5, 0.1)
    basis = build_basis(cloud, 3)
    dense = transform_matrix_congruence(basis, dense_kernel_matrix(spec, cloud))
    return cloud, spec, basis, dense


def _box(lo, hi):
    return Cluster(0, 1, 0, np.array(lo, dtype=float), np.array(hi, dtype=float))


def test_is_admissible_examples():
    a = _box([0.0, 0.0], [1.0, 1.0])
    assert not is_admissible(a, a, 1.0)  # dist 0, diam > 0
    pt = _box([0.5], [0.5])
    assert is_admissible(pt, pt, 1.0)  # degenerate >= convention
    assert is_admissible(_box([0.0], [1.0]), _box([3.0], [4.0]), 1.0)
    assert not is_admissible(_box([0.0], [2.0]), _box([3.0], [4.0]), 2.0)
    with pytest.raises(ValueError):
        is_admissible(a, a, 0.0)


def test_huge_eta_reproduces_dense_matrix(setup256):
    cloud, spec, basis, dense = setup256
    comp = compress_assemble(basis, spec, eta=1e9, interp_degree=3)
    assert np.abs(comp.to_dense() - dense).max() < 1e-10
    assert len(comp.pattern.pairs) == len(basis.tree.clusters) ** 2
    rng = np.random.default_rng(41)
    v = rng.standard_normal(256)
    assert np.abs(comp.matvec(v) - dense @ v).max() < 1e-10
    zero = comp.matvec(np.zeros(256))
    assert np.all(zero == 0)


def test_paper_regime_accuracy(setup256):
    cloud, spec, basis, dense = setup256
    comp = compress_assemble(basis, spec, eta=1.25, interp_degree=6)
    err = np.linalg.norm(comp.to_dense() - dense) / np.linalg.norm(dense)
    assert err < 1e-3
    assert comp.nnz < 256 * 256


def test_block_symmetry(setup256):
    cloud, spec, basis, dense = setup256
    comp = compress_assemble(basis, spec, eta=1.25, interp_degree=4)
    for (i, j), block in comp.blocks.items():
        mirror = comp.blocks.get((j, i))
        assert mirror is not None
        np.testing.assert_allclose(block, mirror.T, atol=1e-12)


def test_operator_exactly_symmetric(setup256):
    cloud, spec, basis, dense = setup256
    rng = np.random.default_rng(45)
    basis3 = build_basis(rng.random((400, 3)), 2)
    for b in (basis, basis3):
        A = compress_assemble(b, spec, eta=1.25, interp_degree=4).to_dense()
        assert np.array_equal(A, A.T)


def test_matvec_rejects_other_basis(setup256):
    cloud, spec, basis, dense = setup256
    comp = compress_assemble(basis, spec, eta=1.25, interp_degree=4)
    own = forward_transform(basis, cloud.points[:, 0])
    assert comp.matvec(own).basis is basis
    other = forward_transform(build_basis(cloud, 1), cloud.points[:, 0])
    with pytest.raises(ValueError, match="basis mismatch"):
        comp.matvec(other)


def test_assembly_memory_released_on_return(setup256):
    # without the cycle collector, only reference counting frees memory
    cloud, spec, basis, dense = setup256
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        comp = compress_assemble(basis, spec, eta=1.25, interp_degree=6)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
        gc.enable()
    csr = comp.csr
    assert held <= 2 * (csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes)


def test_matvec_within_certified_error(setup256):
    cloud, spec, basis, dense = setup256
    comp = compress_assemble(basis, spec, eta=1.25, interp_degree=5)
    certified = np.linalg.norm(comp.to_dense() - dense)
    rng = np.random.default_rng(42)
    for _ in range(5):
        v = rng.standard_normal(256)
        gap = np.linalg.norm(comp.matvec(v) - dense @ v)
        assert gap <= certified * np.linalg.norm(v) + 1e-12
    with pytest.raises(ValueError, match="dim mismatch"):
        comp.matvec(np.zeros(255))


@pytest.mark.parametrize(
    "seed, leaf_size, eta",
    [
        pytest.param(40, None, 1.25, id="seed40"),
        # pairs (4, 8) and (3, 62) lie at the separation boundary: their
        # verdicts turn on the last bit of the diameters and of the box
        # distance, which must be those is_admissible uses
        pytest.param(3, 8, 0.023861989782524552, id="diam-boundary"),
        pytest.param(0, 8, 0.9008818250785962, id="dist-boundary"),
    ],
)
def test_pattern_transitivity(seed, leaf_size, eta):
    cloud = PointCloud(np.random.default_rng(seed).random((256, 2)))
    basis = build_basis(cloud, 3, leaf_size=leaf_size)
    comp = compress_assemble(basis, Matern(0.5, 0.1), eta=eta, interp_degree=4)
    clusters = basis.tree.clusters
    parent = {}
    for c in clusters:
        for ch in c.children:
            parent[ch.index] = c.index

    def admissible_pair(i, j):
        return (
            is_admissible(clusters[i], clusters[j], eta)
            and cluster_dist(clusters[i], clusters[j]) > 0
        )

    def ancestors(i, j):
        # ancestor pairs in each coordinate, excluding the pair itself
        out = set()
        stack = [(i, j)]
        while stack:
            a, b = stack.pop()
            for nxt in ((parent.get(a), b), (a, parent.get(b))):
                if None not in nxt and nxt not in out:
                    out.add(nxt)
                    stack.append(nxt)
        return out

    retained = {(p.row, p.col) for p in comp.pattern.pairs}
    fringe = 0
    for i, j in retained:
        assert not admissible_pair(i, j)
        for a, b in ancestors(i, j):
            assert not admissible_pair(a, b)
        # one-sided child pairs that are not retained form the admissible fringe
        steps = [(c.index, j) for c in clusters[i].children]
        steps += [(i, c.index) for c in clusters[j].children]
        for a, b in steps:
            if (a, b) not in retained:
                assert admissible_pair(a, b)
                assert cluster_dist(clusters[a], clusters[b]) > 0
                fringe += 1
    assert fringe > 0


def test_near_field_leaf_blocks_exact(setup256):
    cloud, spec, basis, dense = setup256
    comp = compress_assemble(basis, spec, eta=1.25, interp_degree=4)
    clusters = basis.tree.clusters
    checked = 0
    for (i, j), block in comp.blocks.items():
        a, b = clusters[i], clusters[j]
        if a.is_leaf and b.is_leaf:
            r0, r1 = basis.stored_slots(a)
            c0, c1 = basis.stored_slots(b)
            np.testing.assert_allclose(block, dense[r0:r1, c0:c1], atol=1e-12)
            checked += 1
    assert checked > 0


def test_dropped_blocks_follow_decay_law(setup256):
    cloud, spec, basis, dense = setup256
    eta = 1.25
    clusters = basis.tree.clusters
    qp1 = basis.moment_degree + 1
    xs, ys = [], []
    for a in clusters:
        for b in clusters:
            if a.level != b.level or a is b:
                continue
            d = cluster_dist(a, b)
            if d < eta * max(cluster_diam(a), cluster_diam(b)) or d <= 0:
                continue
            r0, r1 = basis.samplet_slots(a)
            c0, c1 = basis.samplet_slots(b)
            if r1 == r0 or c1 == c0:
                continue
            norm = np.linalg.norm(dense[r0:r1, c0:c1])
            if norm <= 0:
                continue
            predictor = (
                cluster_diam(a) ** qp1 * cluster_diam(b) ** qp1 / d ** (2 * qp1)
            )
            xs.append(np.log(predictor))
            ys.append(np.log(norm))
    assert len(xs) > 30
    slope, _ = np.polyfit(xs, ys, 1)
    corr = np.corrcoef(xs, ys)[0, 1]
    assert corr > 0.7
    assert 0.5 < slope < 2.0


def test_add_compressed(setup256):
    cloud, spec, basis, dense = setup256
    spec2 = Matern(1.5, 0.2)
    dense2 = transform_matrix_congruence(basis, dense_kernel_matrix(spec2, cloud))
    a = compress_assemble(basis, spec, eta=1.25, interp_degree=5)
    b = compress_assemble(basis, spec2, eta=1.25, interp_degree=5)
    err_a = np.linalg.norm(a.to_dense() - dense)
    err_b = np.linalg.norm(b.to_dense() - dense2)
    both = add_compressed(a, b)
    gap = np.linalg.norm(both.to_dense() - (dense + dense2))
    assert gap <= err_a + err_b + 1e-12
    doubled = add_compressed(a, a)
    np.testing.assert_allclose(doubled.to_dense(), 2 * a.to_dense(), atol=1e-14)
    other_basis = build_basis(cloud, 1)
    c2 = compress_assemble(other_basis, spec, eta=1.25, interp_degree=3)
    with pytest.raises(ValueError, match="basis mismatch"):
        add_compressed(a, c2)


def test_error_report_trends(setup256):
    cloud, spec, basis, dense = setup256
    rows = compression_error_report(basis, spec, 1.25, [1, 2, 3], interp_degree=6)
    errs = [r.rel_frobenius_error for r in rows]
    assert errs[0] > errs[1] > errs[2]
    # doubling eta at fixed degree decreases the error
    lo = compression_error_report(basis, spec, 0.75, [2], interp_degree=6)[0]
    hi = compression_error_report(basis, spec, 1.5, [2], interp_degree=6)[0]
    assert hi.rel_frobenius_error < lo.rel_frobenius_error


def _pattern_nnz(basis, eta):
    clusters = basis.tree.clusters
    root = basis.tree.root

    def far(a, b):
        d = cluster_dist(a, b)
        return d >= eta * max(cluster_diam(a), cluster_diam(b)) and d > 0

    def width(c):
        t = basis.transforms[c.index]
        return t.n_samplets + (t.n_scaling if c is root else 0)

    seen, stack, nnz = set(), [(root, root)], 0
    while stack:
        a, b = stack.pop()
        key = (a.index, b.index)
        if key in seen:
            continue
        seen.add(key)
        if far(a, b):
            continue
        nnz += width(a) * width(b)
        stack.extend((c, b) for c in a.children)
        stack.extend((a, c) for c in b.children)
    return nnz


def test_nnz_doubling_ratio_loglinear():
    # counted from the pattern at sizes where the loglinear regime is visible
    rng = np.random.default_rng(43)
    nnzs = []
    for n in (4096, 8192, 16384):
        basis = build_basis(rng.random((n, 2)), 3)
        nnzs.append(_pattern_nnz(basis, 1.25))
    for a, b in zip(nnzs, nnzs[1:]):
        assert b / a < 2.6


def test_serialization_round_trip(tmp_path, setup256):
    cloud, spec, basis, dense = setup256
    comp = compress_assemble(basis, spec, eta=1.25, interp_degree=4)
    path = tmp_path / "matrix.smpb"
    save_compressed(comp, path)
    loaded = load_compressed(path, basis)
    assert loaded.n == comp.n
    assert set(loaded.blocks) == set(comp.blocks)
    for key in comp.blocks:
        np.testing.assert_array_equal(loaded.blocks[key], comp.blocks[key])
    rng = np.random.default_rng(44)
    v = rng.standard_normal(256)
    np.testing.assert_allclose(loaded.matvec(v), comp.matvec(v), atol=1e-14)
    other = build_basis(cloud, 1)
    with pytest.raises(ValueError, match="does not match"):
        load_compressed(path, other)
    raw = path.read_bytes()
    bad = tmp_path / "bad.smpb"
    bad.write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="truncated"):
        load_compressed(bad, basis)
    # the first block header's column count, one too many
    cols = int.from_bytes(raw[60:68], "little") + 1
    bad.write_bytes(raw[:60] + cols.to_bytes(8, "little") + raw[68:])
    with pytest.raises(ValueError, match="does not match the basis"):
        load_compressed(bad, basis)
