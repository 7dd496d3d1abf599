import numpy as np
import pytest
from scipy import stats

from samplets import (
    PointCloud,
    build_basis,
    coarsen_tree,
    compression_report,
    entropy_subsample,
    forward_transform,
    hard_threshold,
    inverse_transform,
    thresholding_stats,
)
from samplets.signal_ops import CoarsenedTree, EnergyTree
from samplets.transform import CoefficientVector


def _vec(basis, values):
    return CoefficientVector(np.asarray(values, dtype=float), basis)


@pytest.fixture(scope="module")
def basis3():
    return build_basis(np.array([[0.0], [1.0], [2.0]]), 0, leaf_size=1)


def test_hard_threshold_examples(basis3):
    c = _vec(basis3, [0.5, -0.2, 0.05])
    np.testing.assert_array_equal(hard_threshold(c, 0.0).slots, c.slots)
    zeroed = hard_threshold(c, 0.6)
    assert np.all(zeroed.slots == 0)
    assert thresholding_stats(zeroed) == (0, 1.0)
    np.testing.assert_array_equal(hard_threshold(c, 0.1).slots, [0.5, -0.2, 0.0])


def test_negative_threshold_rejected(basis3):
    with pytest.raises(ValueError):
        hard_threshold(_vec(basis3, [1.0, 0.0, 0.0]), -1.0)


def test_compression_report_identity_and_monotonicity():
    rng = np.random.default_rng(20)
    pts = np.sort(rng.random(300))[:, None]
    f = np.sin(4 * np.pi * pts[:, 0]) + 0.3 * rng.standard_normal(300)
    basis = build_basis(pts, 2)
    rows = compression_report(basis, f, [10.0**-k for k in range(2, 6)])
    coeffs = forward_transform(basis, f)
    norm = np.linalg.norm(f)
    for row in rows:
        dropped = np.where(np.abs(coeffs.slots) >= row.threshold, 0.0, coeffs.slots)
        assert row.rel_error == pytest.approx(
            np.linalg.norm(dropped) / norm, abs=1e-10
        )
    errs = [r.rel_error for r in rows]
    nnzs = [r.nnz for r in rows]
    assert all(a >= b for a, b in zip(errs, errs[1:]))
    assert all(a <= b for a, b in zip(nnzs, nnzs[1:]))


def test_jump_signal_concentrates_surviving_coefficients():
    rng = np.random.default_rng(21)
    pts = np.sort(rng.random(512))[:, None]
    f = (pts[:, 0] >= 0.5).astype(float)
    basis = build_basis(pts, 2)
    coeffs = forward_transform(basis, f)
    levels = basis.samplet_levels()
    order = np.argsort(-np.abs(coeffs.slots))
    top = [s for s in order[:10] if levels[s] >= 0]
    for slot in top:
        for c in basis.tree.clusters:
            lo, hi = basis.samplet_slots(c)
            if lo <= slot < hi:
                assert c.bbox_lo[0] <= 0.5 <= c.bbox_hi[0] + 0.05
                break


def _reference_energies(coeffs):
    """Subtree and modified energies, one cluster at a time."""
    basis = coeffs.basis
    tree = basis.tree
    slots = coeffs.slots
    energy = np.zeros(len(tree.clusters))
    for cluster in tree.postorder:
        lo, hi = basis.samplet_slots(cluster)
        e = float(np.dot(slots[lo:hi], slots[lo:hi]))
        for child in cluster.children:
            e += energy[child.index]
        energy[cluster.index] = e
    scaling = slots[: basis.n_scaling]
    energy[tree.root.index] += float(np.dot(scaling, scaling))
    modified = np.zeros(len(tree.clusters))
    modified[tree.root.index] = energy[tree.root.index]
    for cluster in tree.clusters:  # pre-order: parents before children
        if cluster.is_leaf:
            continue
        child_sum = sum(energy[c.index] for c in cluster.children)
        denom = energy[cluster.index] + modified[cluster.index]
        q = child_sum * modified[cluster.index] / denom if denom > 0 else 0.0
        for child in cluster.children:
            modified[child.index] = q
    return energy, modified


def _reference_included(tree, energy, modified, epsilon):
    w = epsilon**2 * energy[tree.root.index]
    included = np.zeros(len(tree.clusters), dtype=bool)
    included[tree.root.index] = True
    for cluster in tree.clusters:  # pre-order
        if included[cluster.index] and not cluster.is_leaf:
            if modified[cluster.children[0].index] >= w:
                for child in cluster.children:
                    included[child.index] = True
    return included


def test_energy_accounting():
    rng = np.random.default_rng(22)
    basis = build_basis(rng.random((128, 2)), 1)
    coeffs = forward_transform(basis, rng.standard_normal(128))
    et = EnergyTree(coeffs)
    root = basis.tree.root
    assert et.energy[root.index] == pytest.approx(
        np.dot(coeffs.slots, coeffs.slots), rel=1e-12
    )
    for c in basis.tree.clusters:
        child_sum = sum(et.energy[ch.index] for ch in c.children)
        assert et.energy[c.index] >= child_sum - 1e-12
    # the level-wise array passes against the per-cluster recursions, on
    # rough and smooth data (tiny fine-level energies) and sites with ties
    dup = np.repeat(rng.random((100, 3)), 3, axis=0)
    cases = [(basis, coeffs.slots)]
    for pts in (rng.random((400, 2)), dup):
        b = build_basis(pts, 2)
        cases.append((b, forward_transform(b, np.exp(pts.sum(axis=1))).slots))
    for b, slots in cases:
        c = CoefficientVector(slots, b)
        et = EnergyTree(c)
        energy, modified = _reference_energies(c)
        np.testing.assert_allclose(et.energy, energy, rtol=1e-14, atol=0)
        np.testing.assert_allclose(et.modified, modified, rtol=1e-14, atol=0)
        for eps in (1e-1, 1e-3, 1e-6):
            sub = coarsen_tree(c, eps)
            np.testing.assert_array_equal(
                sub.included, _reference_included(b.tree, energy, modified, eps)
            )
            kept = np.zeros_like(slots)
            kept[: b.n_scaling] = slots[: b.n_scaling]
            for cluster in sub.clusters():
                lo, hi = b.samplet_slots(cluster)
                kept[lo:hi] = slots[lo:hi]
            np.testing.assert_array_equal(sub.restrict(c).slots, kept)


def test_coarsen_constant_data_keeps_root_only():
    rng = np.random.default_rng(23)
    basis = build_basis(rng.random((256, 2)), 1)
    coeffs = forward_transform(basis, np.full(256, 3.7))
    sub = coarsen_tree(coeffs, 1e-2)
    assert sub.included.sum() == 1
    assert sub.leaves == [basis.tree.root]


def test_coarsen_epsilon_to_zero_keeps_full_tree():
    rng = np.random.default_rng(24)
    basis = build_basis(rng.random((128, 2)), 1)
    coeffs = forward_transform(basis, rng.standard_normal(128))
    sub = coarsen_tree(coeffs, 1e-8)
    assert sub.included.all()


def test_coarsen_invalid_epsilon():
    rng = np.random.default_rng(25)
    basis = build_basis(rng.random((16, 1)), 0)
    coeffs = forward_transform(basis, rng.standard_normal(16))
    for bad in (0.0, 1.0, -0.5):
        with pytest.raises(ValueError):
            coarsen_tree(coeffs, bad)


def test_coarsen_jump_data_refines_only_straddling_clusters():
    rng = np.random.default_rng(26)
    pts = np.sort(rng.random(1024))[:, None]
    f = (pts[:, 0] >= 0.5).astype(float)
    basis = build_basis(pts, 2)
    coeffs = forward_transform(basis, f)
    eps = 1e-2
    sub = coarsen_tree(coeffs, eps)
    assert sub.included.sum() > 1
    for c in sub.refined():
        assert c.bbox_lo[0] <= 0.5 <= c.bbox_hi[0]
    # siblings and parents are closed over
    clusters = basis.tree.clusters
    for c in clusters:
        if sub.included[c.index] and not c.is_leaf:
            kids = [sub.included[k.index] for k in c.children]
            assert kids[0] == kids[1]
    # subtree leaves partition the sites
    spans = sorted((c.start, c.stop) for c in sub.leaves)
    assert spans[0][0] == 0 and spans[-1][1] == 1024
    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
    # restricted reconstruction error within the documented constant slack
    recon = inverse_transform(basis, sub.restrict(coeffs))
    assert np.linalg.norm(recon - f) / np.linalg.norm(f) <= 5 * eps


def test_entropy_subsample_single_leaf_is_uniform_permutation():
    rng = np.random.default_rng(27)
    basis = build_basis(rng.random((64, 2)), 1)
    coeffs = forward_transform(basis, np.full(64, 1.0))
    sub = coarsen_tree(coeffs, 0.5)
    assert sub.n_leaves == 1
    sample = entropy_subsample(sub, 64, seed=5)
    assert sorted(sample.tolist()) == list(range(64))


def test_entropy_subsample_determinism_and_bounds():
    rng = np.random.default_rng(28)
    basis = build_basis(rng.random((128, 2)), 1)
    coeffs = forward_transform(basis, rng.standard_normal(128))
    sub = coarsen_tree(coeffs, 1e-3)
    s1 = entropy_subsample(sub, 50, seed=9)
    s2 = entropy_subsample(sub, 50, seed=9)
    np.testing.assert_array_equal(s1, s2)
    assert len(set(s1.tolist())) == 50
    with pytest.raises(ValueError):
        entropy_subsample(sub, 129, seed=0)


def _four_leaf_tree(n=8192):
    rng = np.random.default_rng(29)
    basis = build_basis(rng.random((n, 2)), 1)
    included = np.zeros(len(basis.tree.clusters), dtype=bool)
    root = basis.tree.root
    included[root.index] = True
    for c in root.children:
        included[c.index] = True
        for cc in c.children:
            included[cc.index] = True
    return CoarsenedTree(basis, included, 0.0)


def test_entropy_subsample_leaf_counts_within_3_sigma():
    sub = _four_leaf_tree()
    assert sub.n_leaves == 4
    sample = entropy_subsample(sub, 4000, seed=1234)
    sigma = np.sqrt(4000 * 0.25 * 0.75)
    for leaf in sub.leaves:
        members = set(sub.basis.tree.original_indices(leaf).tolist())
        count = sum(1 for i in sample if int(i) in members)
        assert abs(count - 1000) <= 3 * sigma


def test_entropy_subsample_chi_square_uniform_leaves():
    sub = _four_leaf_tree()
    sample = entropy_subsample(sub, 4000, seed=1234)
    counts = []
    for leaf in sub.leaves:
        members = set(sub.basis.tree.original_indices(leaf).tolist())
        counts.append(sum(1 for i in sample if int(i) in members))
    _, p = stats.chisquare(counts)
    assert p > 0.001
