import functools
import gc
import io
import itertools
import struct
import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from samplets import (
    Matern,
    PointCloud,
    add_compressed,
    build_basis,
    compress_assemble,
    compression,
    compression_error_report,
    dense_kernel_matrix,
    forward_transform,
    is_admissible,
    kernel_matrix,
    load_compressed,
    save_compressed,
    transform_matrix_congruence,
)
from samplets.compression import (
    ENTRY_DROP,
    _barycentric_eval,
    _chebyshev_axis,
    _Layout,
    _pattern,
)
from samplets.construction import cluster_weight_matrix
from samplets.tree import build_cluster_tree, cluster_diam, cluster_dist


@pytest.fixture(scope="module")
def setup256():
    rng = np.random.default_rng(40)
    cloud = PointCloud(rng.random((256, 2)))
    spec = Matern(0.5, 0.1)
    basis = build_basis(cloud, 3)
    dense = transform_matrix_congruence(basis, dense_kernel_matrix(spec, cloud))
    return cloud, spec, basis, dense


@pytest.fixture(scope="module")
def panels1024():
    # d=1, q=3: the stored blocks fill 15% of N x N, so the form is panels
    basis = build_basis(np.random.default_rng(47).random((1024, 1)), 3)
    return basis, Matern(0.5, 0.1)


@pytest.fixture(scope="module")
def thin_wy():
    # q=1, leaf size 32: 36% of N x N (panels), and row clusters of 3, 6, 28
    # and 29 stored rows
    basis = build_basis(np.random.default_rng(2).random((2000, 2)), 1, leaf_size=32)
    return basis, Matern(2.5, 0.2)


@pytest.fixture(scope="module")
def both_forms(setup256, panels1024, thin_wy):
    """(basis, spec) on either side of the storage rule: setup256 stores
    96% of N x N (dense), panels1024 15% and thin_wy 36% (panels)."""
    return [(setup256[2], setup256[1]), panels1024, thin_wy]


def _box(lo, hi):
    """The cluster with bounding box [lo, hi]: the root of a tree over the
    corners lo and hi, or over one point when they coincide."""
    return build_cluster_tree(np.unique([lo, hi], axis=0).astype(float), 2).root


def test_is_admissible_examples():
    a = _box([0.0, 0.0], [1.0, 1.0])
    assert not is_admissible(a, a, 1.0)  # dist 0, diam > 0
    pt = _box([0.5], [0.5])
    assert is_admissible(pt, pt, 1.0)  # degenerate >= convention
    assert is_admissible(_box([0.0], [1.0]), _box([3.0], [4.0]), 1.0)
    assert not is_admissible(_box([0.0], [2.0]), _box([3.0], [4.0]), 2.0)
    with pytest.raises(ValueError):
        is_admissible(a, a, 0.0)
    with pytest.raises(ValueError, match="eta must be positive"):
        is_admissible(a, a, np.nan)


def test_nan_eta_rejected(setup256):
    cloud, spec, basis, dense = setup256
    with pytest.raises(ValueError, match="eta must be positive"):
        compress_assemble(basis, spec, eta=np.nan)


def test_negative_interpolation_degree_rejected(setup256):
    cloud, spec, basis, dense = setup256
    with pytest.raises(ValueError, match="interpolation degree"):
        compress_assemble(basis, spec, eta=1.25, interp_degree=-1)


def test_huge_eta_reproduces_dense_matrix(setup256):
    cloud, spec, basis, dense = setup256
    comp = compress_assemble(basis, spec, eta=1e9, interp_degree=3)
    assert np.abs(comp.to_dense() - dense).max() < 1e-10
    assert len(comp.layout.pairs) == len(basis.tree.clusters) ** 2
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


def test_block_symmetry(both_forms):
    for basis, spec in both_forms:
        comp = compress_assemble(basis, spec, eta=1.25, interp_degree=4)
        for (i, j), block in comp.blocks.items():
            mirror = comp.blocks.get((j, i))
            assert mirror is not None
            np.testing.assert_allclose(block, mirror.T, atol=1e-12)


def test_operator_exactly_symmetric(setup256, panels1024):
    cloud, spec, basis, dense = setup256
    rng = np.random.default_rng(45)
    basis3 = build_basis(rng.random((400, 3)), 2)
    forms = []
    for b in (basis, basis3, panels1024[0]):
        comp = compress_assemble(b, spec, eta=1.25, interp_degree=4)
        A = comp.to_dense()
        assert np.array_equal(A, A.T)
        forms.append(comp.layout.dense)
    assert forms == [True, True, False]


def test_matvec_rejects_other_basis(setup256):
    cloud, spec, basis, dense = setup256
    comp = compress_assemble(basis, spec, eta=1.25, interp_degree=4)
    own = forward_transform(basis, cloud.points[:, 0])
    assert comp.matvec(own).basis is basis
    other = forward_transform(build_basis(cloud, 1), cloud.points[:, 0])
    with pytest.raises(ValueError, match="basis mismatch"):
        comp.matvec(other)


def test_assembly_memory_released_on_return(both_forms):
    # without the cycle collector, only reference counting frees memory
    for basis, spec in both_forms:
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
        # the storage arrays: the data, and the panels' column index if any
        stored = [comp.data]
        if not comp.layout.dense:
            stored.append(comp.layout.cols)
        assert held <= 2 * sum(a.nbytes for a in stored)


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

    retained = {(i, j) for i, j in comp.layout.pairs.tolist()}
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
            r0, r1 = basis.stored_slots(i)
            c0, c1 = basis.stored_slots(j)
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
            r0, r1 = basis.samplet_slots(a.index)
            c0, c1 = basis.samplet_slots(b.index)
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


def _checked_sum(monkeypatch, a, b):
    """add_compressed(a, b), checked to build no layout, to take the layout
    of the operand with the larger eta (a's where the etas are equal) and to
    hold the sum of the operands' entries."""

    def no_layout(*args):
        raise AssertionError("add_compressed built a layout")

    with monkeypatch.context() as patch:
        patch.setattr(compression, "_Layout", no_layout)
        total = add_compressed(a, b)
    assert total.layout is (b if b.layout.eta > a.layout.eta else a).layout
    assert np.array_equal(total.to_dense(), a.to_dense() + b.to_dense())
    return total


def test_add_compressed(setup256, monkeypatch):
    cloud, spec, basis, dense = setup256
    spec2 = Matern(1.5, 0.2)
    dense2 = transform_matrix_congruence(basis, dense_kernel_matrix(spec2, cloud))
    a = compress_assemble(basis, spec, eta=1.25, interp_degree=5)
    b = compress_assemble(basis, spec2, eta=1.25, interp_degree=5)
    err_a = np.linalg.norm(a.to_dense() - dense)
    err_b = np.linalg.norm(b.to_dense() - dense2)
    both = _checked_sum(monkeypatch, a, b)
    gap = np.linalg.norm(both.to_dense() - (dense + dense2))
    assert gap <= err_a + err_b + 1e-12
    doubled = _checked_sum(monkeypatch, a, a)
    np.testing.assert_allclose(doubled.to_dense(), 2 * a.to_dense(), atol=1e-14)
    # operands at different eta: the sum lives on the larger eta's pattern,
    # which holds the smaller one's
    lo = compress_assemble(basis, spec, eta=1.0, interp_degree=5)
    hi = compress_assemble(basis, spec2, eta=1.5, interp_degree=5)
    total = _checked_sum(monkeypatch, lo, hi)
    assert total.layout.eta == 1.5
    np.testing.assert_array_equal(total.layout.pairs, _pattern(basis.tree, 1.5))
    union = np.unique(np.concatenate([lo.layout.pairs, hi.layout.pairs]), axis=0)
    np.testing.assert_array_equal(total.layout.pairs, union)
    other_basis = build_basis(cloud, 1)
    c2 = compress_assemble(other_basis, spec, eta=1.25, interp_degree=3)
    with pytest.raises(ValueError, match="basis mismatch"):
        add_compressed(a, c2)


def test_add_compressed_panels_and_mixed_forms(panels1024, monkeypatch):
    basis, spec = panels1024
    a = compress_assemble(basis, spec, eta=1.25, interp_degree=5)
    b = compress_assemble(basis, Matern(1.5, 0.2), eta=1.25, interp_degree=5)
    lo = compress_assemble(basis, Matern(1.5, 0.2), eta=1.0, interp_degree=5)
    both = _checked_sum(monkeypatch, a, b)
    assert not (a.layout.dense or both.layout.dense)
    assert np.array_equal(_checked_sum(monkeypatch, a, a).to_dense(), 2 * a.to_dense())
    for x, y in ((a, lo), (lo, a)):  # both panels, at different eta
        _checked_sum(monkeypatch, x, y)
    # the sum needs at most one row cluster's rows beyond its result
    for x, y in ((a, b), (lo, a)):
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            total = add_compressed(x, y)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held - base >= total.data.nbytes
        assert peak - held <= compression._BATCH_BYTES
        del total
    # N=512, d=2, q=1: 41.5% of N x N at eta 1.0 (panels), 53.7% at 1.5 (dense)
    mixed = build_basis(np.random.default_rng(40).random((512, 2)), 1)
    lo = compress_assemble(mixed, spec, eta=1.0, interp_degree=5)
    hi = compress_assemble(mixed, Matern(1.5, 0.2), eta=1.5, interp_degree=5)
    assert (lo.layout.dense, hi.layout.dense) == (False, True)
    for total in (_checked_sum(monkeypatch, lo, hi), _checked_sum(monkeypatch, hi, lo)):
        assert total.layout.dense and total.layout.eta == 1.5
        np.testing.assert_array_equal(total.layout.pairs, hi.layout.pairs)


def test_panel_columns_match_the_layout(panels1024, thin_wy):
    # matvec and to_dense read the panels, `blocks` the layout's at and
    # stride: both must put every block at its pair's slot ranges, and a
    # row cluster's panel holds its rows at the ascending slot ranges of its
    # blocks; the clouds of test_add_compressed_panels_and_mixed_forms and
    # one of uneven row-cluster widths
    mixed = build_basis(np.random.default_rng(40).random((512, 2)), 1)
    clouds = [(*panels1024, 1.25), (mixed, panels1024[1], 1.0), (*thin_wy, 1.25)]
    for basis, spec, eta in clouds:
        comp = compress_assemble(basis, spec, eta=eta, interp_degree=5)
        assert not comp.layout.dense
        placed = np.zeros((basis.n, basis.n))
        slots = basis.slots.tolist()
        for (i, j), block in comp.blocks.items():
            placed[slots[i][0] : slots[i][1], slots[j][0] : slots[j][1]] = block
        assert np.array_equal(comp.to_dense(), placed)
        keys = comp.layout.keys
        owners = np.flatnonzero(np.diff(basis.slots, axis=1)[:, 0])
        assert len(comp.panels) == len(owners)
        for i, (rows, panel, cols, strict) in zip(owners.tolist(), comp.panels):
            assert rows == slice(*slots[i])
            want = np.concatenate([np.arange(*slots[j]) for j in keys[keys[:, 0] == i, 1]])
            assert np.array_equal(cols, want) and (np.diff(want) > 0).all()
            assert np.array_equal(panel, placed[rows][:, cols])
            # the upper blocks, the diagonal one first, and where the
            # strict-upper columns lie in the layout's column index
            assert np.array_equal(cols[: len(panel)], np.arange(*slots[i]))
            assert np.array_equal(comp.layout.cols[strict], cols[len(panel) :])


def test_storage_form_follows_stored_share(setup256, panels1024):
    # dense exactly where the stored entries S fill half of N x N: 2 S >= N^2
    def grid_cloud(m):  # one site per cell of an m x m grid, like the workloads
        rng = np.random.default_rng(17)
        cells = np.stack(np.meshgrid(np.arange(m), np.arange(m)), -1).reshape(-1, 2)
        return (cells + 0.1 + 0.8 * rng.random(cells.shape)) / m

    clouds = [
        (setup256[2], 1.25, True),  # 96%
        (panels1024[0], 1.25, False),  # 15%
        (build_basis(grid_cloud(32), 3), 1.25, True),  # N=1024 grid, 67%
        (build_basis(np.random.default_rng(47).random((1024, 2)), 1), 1.25, False),
    ]
    mixed = build_basis(np.random.default_rng(40).random((512, 2)), 1)
    clouds += [(mixed, 1.0, False), (mixed, 1.5, True)]  # 41.5%, 53.7%
    for basis, eta, dense in clouds:
        layout = _Layout(basis, eta)
        stored, upper = _pattern_nnz(basis, eta), _pattern_nnz(basis, eta, upper=True)
        assert (layout.stored, layout.upper) == (stored, upper)
        assert layout.dense == (2 * stored >= basis.n**2) == dense
        # the panel form holds the upper blocks alone
        assert layout.size == (basis.n**2 if dense else upper)


def test_matvec_matches_csr_product_of_same_entries(both_forms):
    for basis, spec in both_forms:
        comp = compress_assemble(basis, spec, eta=1.25, interp_degree=5)
        ref = scipy.sparse.csr_array(comp.to_dense())
        for v in np.random.default_rng(49).standard_normal((4, basis.n)):
            want = ref @ v
            gap = np.linalg.norm(comp.matvec(v) - want)
            assert gap <= 1e-14 * np.linalg.norm(want)


def test_error_report_trends(setup256):
    cloud, spec, basis, dense = setup256
    rows = compression_error_report(basis, spec, 1.25, [1, 2, 3], interp_degree=6)
    errs = [r.rel_frobenius_error for r in rows]
    assert errs[0] > errs[1] > errs[2]
    # doubling eta at fixed degree decreases the error
    lo = compression_error_report(basis, spec, 0.75, [2], interp_degree=6)[0]
    hi = compression_error_report(basis, spec, 1.5, [2], interp_degree=6)[0]
    assert hi.rel_frobenius_error < lo.rel_frobenius_error


def _pattern_nnz(basis, eta, upper=False):
    """Stored entries of the retained pattern: width(i) * width(j) summed
    over its cluster pairs (i <= j only if `upper`), widths from the
    basis's slot ranges."""
    width = basis.slots[:, 1] - basis.slots[:, 0]
    i, j = _pattern(basis.tree, eta).T
    return int((width[i] * width[j])[(i <= j) | (not upper)].sum())


def test_nnz_doubling_ratio_loglinear():
    # counted from the pattern at sizes where the loglinear regime is visible
    rng = np.random.default_rng(43)
    nnzs = []
    for n in (4096, 8192, 16384):
        basis = build_basis(rng.random((n, 2)), 3)
        nnzs.append(_pattern_nnz(basis, 1.25))
    for a, b in zip(nnzs, nnzs[1:]):
        assert b / a < 2.6


@pytest.mark.parametrize(
    "n, dim, q, seed",
    [
        pytest.param(256, 2, 3, 40, id="uniform256"),
        # 20 clusters own no slots, so the pattern holds pairs that store
        # no block
        pytest.param(300, 3, 1, 300, id="empty-slots"),
        # 15% of N x N: the panel form
        pytest.param(1024, 1, 3, 47, id="panels-side"),
    ],
)
def test_serialization_round_trip(tmp_path, monkeypatch, n, dim, q, seed):
    cloud = PointCloud(np.random.default_rng(seed).random((n, dim)))
    basis = build_basis(cloud, q)
    comp = compress_assemble(basis, Matern(0.5, 0.1), eta=1.25, interp_degree=4)
    assert comp.layout.dense == (n < 1024)
    path = tmp_path / "matrix.smpb"
    save_compressed(comp, path)
    # the documented layout: the upper pairs (i <= j), then per row cluster
    # its upper blocks side by side, row-major, which is the panel form's data
    upper = {key: b for key, b in comp.blocks.items() if key[0] <= key[1]}
    head = struct.pack("<IQIdQ", 3, n, q, 1.25, len(upper))
    keys = np.array(list(upper), "<u8").tobytes()
    rows = itertools.groupby(upper.items(), key=lambda item: item[0][0])
    body = b"".join(np.hstack([b for _, b in row]).astype("<f8").tobytes() for _, row in rows)
    raw = path.read_bytes()
    assert raw == b"SMPB" + head + keys + body
    assert len(raw) == 36 + 16 * len(upper) + 8 * comp.layout.upper
    assert comp.layout.dense or body == comp.data.tobytes()
    loaded = load_compressed(path, basis)
    assert loaded.n == comp.n
    assert loaded.layout.eta == comp.layout.eta
    np.testing.assert_array_equal(loaded.layout.pairs, comp.layout.pairs)
    assert np.array_equal(loaded.data.view(np.uint64), comp.data.view(np.uint64))
    assert set(loaded.blocks) == set(comp.blocks)
    for key in comp.blocks:
        np.testing.assert_array_equal(loaded.blocks[key], comp.blocks[key])
    rng = np.random.default_rng(44)
    v = rng.standard_normal(n)
    np.testing.assert_allclose(loaded.matvec(v), comp.matvec(v), atol=1e-14)
    again = tmp_path / "again.smpb"
    save_compressed(loaded, again)
    assert again.read_bytes() == raw
    other = build_basis(cloud, q + 1)
    with pytest.raises(ValueError, match="does not match"):
        load_compressed(path, other)
    # version 1, block by block (a header of row, col, rows and cols each),
    # and version 2, the blocks of both triangles in the order above, are no
    # longer read
    v1 = b"SMPB" + struct.pack("<IQIdQ", 1, n, q, 1.25, len(comp.blocks)) + b"".join(
        np.array([i, j, *b.shape], "<u8").tobytes() + b.astype("<f8").tobytes()
        for (i, j), b in comp.blocks.items()
    )
    rows = itertools.groupby(comp.blocks.items(), key=lambda item: item[0][0])
    v2 = b"SMPB" + struct.pack("<IQIdQ", 2, n, q, 1.25, len(comp.blocks)) + b"".join(
        [np.array(list(comp.blocks), "<u8").tobytes()]
        + [np.hstack([b for _, b in row]).astype("<f8").tobytes() for _, row in rows]
    )
    bad = tmp_path / "bad.smpb"
    for version, old in ((1, v1), (2, v2)):
        bad.write_bytes(old)
        with pytest.raises(ValueError, match=f"unsupported container version {version}"):
            load_compressed(bad, basis)
    # the first pair's column id and the last pair's row id, one too many
    for at in (36 + 8, 36 + len(keys) - 16):
        word = int.from_bytes(raw[at : at + 8], "little") + 1
        bad.write_bytes(raw[:at] + word.to_bytes(8, "little") + raw[at + 8 :])
        with pytest.raises(ValueError, match="does not match the basis"):
            load_compressed(bad, basis)
    # a header eta other than the one the blocks were retained at
    bad.write_bytes(raw[:20] + struct.pack("<d", 0.5) + raw[28:])
    with pytest.raises(ValueError, match="does not match"):
        load_compressed(bad, basis)
    # a truncated file is refused from its size, before any pair or value
    # is read
    bad.write_bytes(raw[:-8])
    reads = []

    class Reader(io.BufferedReader):
        def read(self, size=-1):
            reads.append(size)
            return super().read(size)

    def reading(path, mode):
        return Reader(io.FileIO(path)) if mode == "rb" else open(path, mode)

    monkeypatch.setattr(compression, "open", reading, raising=False)
    with pytest.raises(ValueError, match="truncated"):
        load_compressed(bad, basis)
    assert reads == [4, 32]  # the magic and the header


def test_load_refuses_a_header_eta_that_is_not_positive(tmp_path, setup256):
    basis = setup256[2]
    path = tmp_path / "matrix.smpb"
    save_compressed(compress_assemble(basis, setup256[1], eta=1.25, interp_degree=4), path)
    raw = path.read_bytes()
    for eta in (float("nan"), 0.0, -1.25):
        path.write_bytes(raw[:20] + struct.pack("<d", eta) + raw[28:])
        with pytest.raises(ValueError, match="eta must be positive"):
            load_compressed(path, basis)


def test_load_memory_bounded_by_the_pair_read(tmp_path, panels1024):
    # a dense-side (N=1024, d=2) and a panel-side cloud; the entries are read
    # straight into the array the loaded matrix keeps, or one row cluster at
    # a time into the dense one, so beyond what that matrix holds, loading
    # needs the upper pairs' 16 bytes per block
    dense = build_basis(np.random.default_rng(48).random((1024, 2)), 3)
    for basis in (dense, panels1024[0]):
        comp = compress_assemble(basis, Matern(0.5, 0.1), eta=1.25, interp_degree=4)
        save_compressed(comp, tmp_path / "matrix.smpb")
        gc.collect()
        tracemalloc.start()
        try:
            loaded = load_compressed(tmp_path / "matrix.smpb", basis)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded.layout.dense == (basis is dense)
        blocks = len(loaded.layout.keys)
        # and, in the dense form, two row clusters' entries (the one read
        # and the one before it) and the column patterns, which only the
        # panel form keeps.  Measured: 679 kB against 16 * 4880 + 2 * 164 kB
        # + 8 * 40302 on the dense side, 94 kB against 16 * 4874 on the
        # panel side, where the rest is the panels' per-row-cluster lists
        patterns = loaded.layout.patterns()
        chunk = max(8 * (r.stop - r.start) * len(c) for r, c in patterns)
        columns = 8 * sum(len(c) for _, c in patterns)
        bound = 16 * blocks + (2 * chunk + columns) * loaded.layout.dense + (1 << 16)
        assert peak - held <= bound


def test_loaded_dense_matrix_holds_its_data_and_per_block_arrays(tmp_path, setup256):
    # the dense form keeps no column pattern (save and load build it for each
    # call): beyond its N x N data a loaded matrix holds the pattern and the
    # upper keys with their codes and data positions, a few words per block.
    # Measured: 34.3 bytes per block of both triangles on the N = 1024 grid
    # cloud of the benchmarks, 42.1 on the 256 sites, where the per-cluster
    # arrays weigh more; 118.6 and 124.9 with the column pattern (0.66 MB
    # on the grid) that the dense form kept before
    rng = np.random.default_rng(17)
    cells = np.stack(np.meshgrid(np.arange(32), np.arange(32)), -1).reshape(-1, 2)
    grid = build_basis((cells + 0.1 + 0.8 * rng.random(cells.shape)) / 32, 3)
    for basis in (grid, setup256[2]):
        comp = compress_assemble(basis, setup256[1], eta=1.25, interp_degree=4)
        save_compressed(comp, tmp_path / "matrix.smpb")
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loaded = load_compressed(tmp_path / "matrix.smpb", basis)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert loaded.layout.dense
        assert held - loaded.data.nbytes <= 40 * len(loaded.blocks) + (1 << 14)


def test_load_rejects_short_header(tmp_path, setup256):
    path = tmp_path / "short.smpb"
    path.write_bytes(b"SMPB\x01\x00")
    with pytest.raises(ValueError, match="truncated"):
        load_compressed(path, setup256[2])


def test_blocks_are_writable_views(tmp_path, both_forms):
    # a dense-form block is its own region of the N x N array; a panel-form
    # mirror block is the transpose of its upper block, so a write to either
    # moves the product at both of its entries
    for basis, spec in both_forms:
        comp = compress_assemble(basis, spec, eta=1.25, interp_degree=4)
        save_compressed(comp, tmp_path / "matrix.smpb")
        v = np.random.default_rng(46).standard_normal(basis.n)
        for m in (comp, load_compressed(tmp_path / "matrix.smpb", basis)):
            assert all(np.shares_memory(b, m.data) for b in m.blocks.values())
            mirrors = 0
            for (i, j), block in list(m.blocks.items())[:: len(m.blocks) // 7]:
                before = m.matvec(v)
                block[-1, 0] += 1.0
                change = m.matvec(v) - before
                r, c = basis.slots[i, 1] - 1, basis.slots[j, 0]
                assert change[r] == pytest.approx(v[c], abs=1e-12)
                change[r] = 0.0
                if i != j and not m.layout.dense:
                    assert np.shares_memory(block, m.blocks[j, i])
                    assert change[c] == pytest.approx(v[r], abs=1e-12)
                    change[c] = 0.0
                    mirrors += i > j
                assert np.all(change == 0.0)
            assert mirrors > 0 or m.layout.dense


def _per_pair_assembly(basis, spec, eta, degree):
    """Recursive per-pair assembly, one kernel call per block: the dense
    samplet-coordinate matrix of the stored blocks and the number of kernel
    entries evaluated.  A pair that is not retained is computed exactly from
    its clusters' point weights where its kernel entries and products cost
    no more than on the two grids, and by nested interpolation otherwise."""
    tree, n_in, n_sc = basis.tree, basis.n_in, basis.n_sc
    clusters = tree.clusters
    cheb, bary = _chebyshev_axis(degree + 1)
    half = np.maximum(0.5 * (tree.hi - tree.lo), 1e-8 * max(tree.diam[0], 1.0))
    mid = 0.5 * (tree.hi + tree.lo)
    axes = mid[:, :, None] + half[:, :, None] * cheb
    grid_size = (degree + 1) ** tree.cloud.dim
    retained = set(map(tuple, _pattern(tree, eta).tolist()))
    entries = [0]

    def kernel(x, y):
        K = kernel_matrix(spec, x, y)
        entries[0] += K.size
        return K

    def q(c):  # c's transform, from the basis table
        return basis.groups[basis.group[c]].q[basis.position[c]]

    def grid(c):
        return np.array(list(itertools.product(*axes[c])))  # axis 0 slowest

    @functools.cache
    def factor(c):  # Lagrange polynomials of c's grid x c's distributions
        cl = clusters[c]
        if cl.is_leaf:
            ev = np.ones((cl.size, 1))
            for a, x in enumerate(tree.cluster_points(cl).T):
                ax_ev = _barycentric_eval(cheb, bary, (x - mid[c, a]) / half[c, a])
                ev = (ev[:, :, None] * ax_ev[:, None, :]).reshape(cl.size, -1)
            return ev.T @ q(c)
        parts = []
        for ch in cl.children:
            E = np.ones((1, 1))
            for a in range(tree.cloud.dim):
                loc = (axes[ch.index, a] - mid[c, a]) / half[c, a]
                E = np.kron(E, _barycentric_eval(cheb, bary, loc))
            parts.append(E.T @ factor(ch.index)[:, : n_sc[ch.index]])
        return np.hstack(parts) @ q(c)

    @functools.cache
    def block(i, j):
        if i > j:
            return block(j, i).T
        a, b = clusters[i], clusters[j]
        if (i, j) not in retained:
            ni, nj = n_in[i], n_in[j]

            def cost(si, sj):  # kernel entries and the products W_i^T K W_j
                return sj * (si * (1 + ni) + ni * nj)

            if cost(a.size, b.size) <= cost(grid_size, grid_size):
                wi = cluster_weight_matrix(basis, i)
                wj = cluster_weight_matrix(basis, j)
                pa, pb = tree.cluster_points(a), tree.cluster_points(b)
                return wi.T @ kernel(pa, pb) @ wj
            return factor(i).T @ kernel(grid(i), grid(j)) @ factor(j)
        if a.is_leaf and b.is_leaf:
            pa, pb = tree.cluster_points(a), tree.cluster_points(b)
            B = q(i).T @ kernel(pa, pb) @ q(j)
        elif not a.is_leaf and (a.level <= b.level or b.is_leaf):
            rows = [block(c.index, j)[: n_sc[c.index]] for c in a.children]
            B = q(i).T @ np.vstack(rows)
        else:
            cols = [block(i, c.index)[:, : n_sc[c.index]] for c in b.children]
            B = np.hstack(cols) @ q(j)
        return 0.5 * (B + B.T) if i == j else B

    dense = np.zeros((basis.n, basis.n))
    for i, j in sorted(retained):  # pairs without slots are computed too
        B = block(i, j)
        (r0, r1), (c0, c1) = basis.slots[i], basis.slots[j]
        if r1 > r0 and c1 > c0:
            stored = B[len(B) - (r1 - r0) :, B.shape[1] - (c1 - c0) :]
            small = np.abs(stored) < ENTRY_DROP * np.abs(stored).max()
            dense[r0:r1, c0:c1] = np.where(small, 0.0, stored)
    return dense, entries[0]


@pytest.mark.parametrize(
    "n, dim, q, degree, copies, leaf_size",
    [
        # level 5 holds leaves of 20 sites and parents of leaves of 10 and 11
        pytest.param(656, 2, 3, 6, 1, None, id="uniform2d"),
        pytest.param(200, 2, 2, 5, 3, None, id="tripled"),
        pytest.param(300, 1, 3, 6, 1, None, id="d1q3"),
        pytest.param(400, 3, 1, 3, 1, None, id="d3q1"),
        # leaves of 4 and 5 sites, fewer than q=2's six moments: 20 sibling
        # pairs carry unequal scaling counts, so refinements stack children's
        # scaling rows of two heights
        pytest.param(300, 2, 2, 5, 1, 5, id="leaf5"),
    ],
)
def test_batched_assembly_matches_per_pair(monkeypatch, n, dim, q, degree, copies, leaf_size):
    pts = np.repeat(np.random.default_rng(47).random((n, dim)), copies, axis=0)
    basis = build_basis(pts, q, leaf_size)
    spec = Matern(0.5, 0.1)
    levels = [g.level for g in basis.groups]
    assert len(levels) > len(set(levels))  # several level groups on a level
    first, second = basis.n_sc[basis.tree.children[basis.tree.children[:, 0] >= 0]].T
    assert (first != second).any() == (leaf_size is not None)
    dense, entries = _per_pair_assembly(basis, spec, 1.25, degree)
    counted = []

    def counting(spec, x, y):
        K = kernel_matrix(spec, x, y)
        counted.append(K.size)
        return K

    monkeypatch.setattr(compression, "kernel_matrix", counting)
    A = compress_assemble(basis, spec, 1.25, degree).to_dense()
    assert np.abs(A - dense).max() <= 1e-13 * np.abs(dense).max()
    assert np.array_equal(A, A.T)
    assert sum(counted) == entries  # every fringe pair evaluated once


def test_assembly_peak_bounded_by_the_stored_operator():
    # each level's input holds only the scaling rows that its refined pairs
    # read, and only two inputs are alive at a time; with full-block level
    # stores this cloud peaked at 2.08x the data and a CSR index of 64.8 MB,
    # 135 MB.  The operator is stored as its upper blocks' data and the
    # panels' column index, 24.2 MB, and the peak is 70.6 MB: the plans and
    # level inputs cover both triangles.  With both triangles stored (48.2
    # MB) the peak was 97.4 MB, under a bound of 2.1x the operator, 101 MB
    basis = build_basis(np.random.default_rng(0).random((4096, 2)), 3)
    spec = Matern(0.5, 0.1)
    compress_assemble(basis, spec, 1.25, 6)  # warm-up: no first-use import is traced
    gc.collect()
    tracemalloc.start()
    try:
        comp = compress_assemble(basis, spec, 1.25, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    layout = comp.layout
    assert not layout.dense
    assert peak <= 3 * (comp.data.nbytes + layout.cols.nbytes)


def test_high_dimensional_fringe_from_points(monkeypatch):
    # d=4, q=1, p=4: a grid holds 625 points, more than most fringe clusters,
    # so the fringe is exact from point weights and the stored entries are
    # the dense congruence's; on grids the fringe took 5.25e9 kernel entries
    n = 2000
    cloud = PointCloud(np.random.default_rng(48).random((n, 4)))
    spec = Matern(0.5, 0.1)
    basis = build_basis(cloud, 1)
    counted = []

    def counting(spec, x, y):
        K = kernel_matrix(spec, x, y)
        counted.append(K.size)
        return K

    monkeypatch.setattr(compression, "kernel_matrix", counting)
    comp = compress_assemble(basis, spec, 1.25, 4)
    assert sum(counted) < n * n
    dense = transform_matrix_congruence(basis, dense_kernel_matrix(spec, cloud))
    # every stored entry against the congruence at its pattern position
    (r0, r1), (c0, c1) = basis.slots[np.array(list(comp.blocks))].transpose(1, 2, 0)
    gap = max(
        np.abs(block - dense[a:b, c:d]).max()
        for block, a, b, c, d in zip(comp.blocks.values(), r0, r1, c0, c1)
    )
    assert gap <= 1e-13 * np.abs(dense).max()
