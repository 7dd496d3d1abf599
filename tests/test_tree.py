import numpy as np
import pytest

from samplets import PointCloud, build_cluster_tree, cluster_diam, cluster_dist
from samplets.tree import Cluster


def test_median_split_1d_four_points():
    tree = build_cluster_tree(PointCloud(np.array([[0.0], [1.0], [2.0], [3.0]])), 2)
    left, right = tree.root.children
    assert sorted(tree.original_indices(left)) == [0, 1]
    assert sorted(tree.original_indices(right)) == [2, 3]


def test_single_point_is_single_leaf():
    tree = build_cluster_tree(PointCloud(np.array([[0.5, 0.5]])), 4)
    assert tree.root.is_leaf
    assert tree.root.level == 0
    assert tree.depth == 0


def test_uniform_64_points_exact_level_sizes():
    rng = np.random.default_rng(0)
    tree = build_cluster_tree(PointCloud(rng.random((64, 2))), 4)
    assert tree.depth == 4
    for c in tree.clusters:
        assert c.size == 64 // 2**c.level
        if not c.is_leaf:
            a, b = c.children
            assert (a.start, a.stop, b.start, b.stop) == (
                c.start, c.start + c.size // 2, c.start + c.size // 2, c.stop,
            )


def test_cluster_diam_examples():
    single = Cluster(0, 1, 0, np.array([0.2, 0.7]), np.array([0.2, 0.7]))
    assert cluster_diam(single) == 0.0
    box = Cluster(0, 4, 0, np.array([0.0, 0.0]), np.array([3.0, 4.0]))
    assert cluster_diam(box) == pytest.approx(5.0)
    seg = Cluster(0, 2, 0, np.array([-1.0]), np.array([1.0]))
    assert cluster_diam(seg) == pytest.approx(2.0)


def test_cluster_dist_examples():
    a = Cluster(0, 2, 0, np.array([0.0]), np.array([1.0]))
    b = Cluster(2, 4, 0, np.array([3.0]), np.array([4.0]))
    assert cluster_dist(a, a) == 0.0
    assert cluster_dist(a, b) == pytest.approx(2.0)
    sq1 = Cluster(0, 2, 0, np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    sq2 = Cluster(2, 4, 0, np.array([2.0, 0.0]), np.array([3.0, 1.0]))
    assert cluster_dist(sq1, sq2) == pytest.approx(1.0)


def test_leaves_partition_all_indices():
    rng = np.random.default_rng(1)
    tree = build_cluster_tree(PointCloud(rng.random((173, 3))), 7)
    collected = np.concatenate([tree.original_indices(c) for c in tree.leaves])
    assert sorted(collected.tolist()) == list(range(173))


def test_balancedness_power_of_two():
    rng = np.random.default_rng(2)
    tree = build_cluster_tree(PointCloud(rng.random((128 * 2, 2))), 2)
    J = tree.depth
    for c in tree.clusters:
        target = 2 ** (J - c.level)
        assert target / 2 <= c.size <= 2 * target
    # general leaf sizes scale the same profile by the leaf cardinality
    leaf_size = 8
    tree = build_cluster_tree(PointCloud(rng.random((32 * leaf_size, 2))), leaf_size)
    J = tree.depth
    for c in tree.clusters:
        assert c.size == leaf_size * 2 ** (J - c.level)


def test_monotone_geometry_and_dist_lower_bound():
    rng = np.random.default_rng(3)
    cloud = PointCloud(rng.random((120, 2)))
    tree = build_cluster_tree(cloud, 5)
    for c in tree.clusters:
        for child in c.children:
            assert cluster_diam(child) <= cluster_diam(c) + 1e-15
    # box distance never exceeds the closest actual point pair
    leaves = tree.leaves
    for a in leaves[:6]:
        pa = tree.cluster_points(a)
        for b in leaves[6:12]:
            pb = tree.cluster_points(b)
            gaps = np.linalg.norm(pa[:, None, :] - pb[None, :, :], axis=2)
            assert cluster_dist(a, b) <= gaps.min() + 1e-12


def test_determinism():
    rng = np.random.default_rng(4)
    pts = rng.random((257, 2))
    t1 = build_cluster_tree(PointCloud(pts), 6)
    t2 = build_cluster_tree(PointCloud(pts), 6)
    assert np.array_equal(t1.permutation, t2.permutation)


def test_median_ties_go_left_in_order():
    # five identical coordinates: left child takes the first three by position
    pts = np.zeros((5, 1))
    tree = build_cluster_tree(PointCloud(pts), 3)
    left, right = tree.root.children
    assert tree.original_indices(left).tolist() == [0, 1, 2]
    assert tree.original_indices(right).tolist() == [3, 4]


def test_empty_cloud_rejected():
    with pytest.raises(ValueError, match="empty input"):
        PointCloud(np.zeros((0, 2)))


def test_longest_axis_tie_uses_lowest_axis():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [0.25, 0.75], [0.75, 0.25]])
    tree = build_cluster_tree(PointCloud(pts), 2)
    left = tree.root.children[0]
    # split along axis 0: left child holds the two smallest x0 values
    assert sorted(pts[i][0] for i in tree.original_indices(left)) == [0.0, 0.25]


def _array_clouds():
    rng = np.random.default_rng(5)
    yield rng.random((1, 2)), 4
    yield np.repeat(rng.random((30, 2)), 4, axis=0), 5
    for dim in range(1, 5):
        yield rng.random((150 + 17 * dim, dim)), 6


@pytest.mark.parametrize("pts, leaf_size", list(_array_clouds()))
def test_cluster_arrays_match_clusters(pts, leaf_size):
    tree = build_cluster_tree(PointCloud(pts), leaf_size)
    for c in tree.clusters:
        i = c.index
        assert tree.level[i] == c.level and tree.start[i] == c.start
        np.testing.assert_array_equal(tree.lo[i], c.bbox_lo)
        np.testing.assert_array_equal(tree.hi[i], c.bbox_hi)
        assert tree.diam[i] == cluster_diam(c)
        kids = [ch.index for ch in c.children]
        assert tree.children[i].tolist() == (kids or [-1, -1])
        for k in kids:
            assert tree.parent[k] == i
    assert tree.parent[tree.root.index] == -1
    position = {c.index: k for k, c in enumerate(tree.postorder)}
    assert sorted(position) == list(range(len(tree.clusters)))
    for c in tree.clusters:
        for ch in c.children:
            assert position[ch.index] < position[c.index]
