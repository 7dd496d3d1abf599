"""Cardinality-balanced binary cluster trees over scattered data sites."""

from __future__ import annotations

import numpy as np

from .points import PointCloud


class Cluster:
    """Contiguous range of tree-ordered point indices with its bounding box.

    `start:stop` index into the tree permutation, not the original point
    order.  Non-leaf clusters have exactly two children that partition the
    range.
    """

    __slots__ = ("start", "stop", "level", "bbox_lo", "bbox_hi", "children", "index")

    def __init__(self, start, stop, level, bbox_lo, bbox_hi):
        self.start = start
        self.stop = stop
        self.level = level
        self.bbox_lo = bbox_lo
        self.bbox_hi = bbox_hi
        self.children = ()
        self.index = -1  # pre-order id, assigned once the tree is complete

    @property
    def size(self):
        return self.stop - self.start

    @property
    def is_leaf(self):
        return not self.children

    def __repr__(self):
        return (
            f"Cluster(id={self.index}, level={self.level}, "
            f"range=[{self.start},{self.stop}))"
        )


class ClusterTree:
    """Balanced binary tree over a point cloud.

    `permutation[t]` is the original index of the point at tree position t.
    `clusters` lists all clusters in pre-order (root first); `postorder`
    lists children before parents, which is the sweep order for bottom-up
    algorithms.  The per-cluster arrays, indexed by pre-order id, are the
    one source of cluster geometry and topology: bounding boxes `lo`, `hi`
    (clusters x dim), diameters `diam` (from `cluster_diam`), `level`,
    `start`, `parent` (-1 for the root) and `children` (clusters x 2, -1 for
    a leaf).
    """

    def __init__(self, cloud, root, permutation, leaf_size):
        self.cloud = cloud
        self.root = root
        self.permutation = permutation
        self.leaf_size = leaf_size
        self.points = cloud.points[permutation]  # tree-ordered copy
        self.clusters = []
        stack = [root]
        while stack:
            c = stack.pop()
            c.index = len(self.clusters)
            self.clusters.append(c)
            stack.extend(reversed(c.children))
        clusters = self.clusters
        self.postorder = sorted(clusters, key=lambda c: -c.level)
        self.lo = np.array([c.bbox_lo for c in clusters])
        self.hi = np.array([c.bbox_hi for c in clusters])
        self.diam = np.array([cluster_diam(c) for c in clusters])
        self.level = np.array([c.level for c in clusters])
        self.start = np.array([c.start for c in clusters])
        self.children = np.full((len(clusters), 2), -1)
        for c in clusters:
            self.children[c.index, : len(c.children)] = [ch.index for ch in c.children]
        inner = np.flatnonzero(self.children[:, 0] >= 0)
        self.parent = np.full(len(clusters), -1)
        self.parent[self.children[inner]] = inner[:, None]
        self.depth = int(self.level.max())

    @property
    def n_points(self):
        return len(self.cloud)

    @property
    def leaves(self):
        return [c for c in self.clusters if c.is_leaf]

    def cluster_points(self, cluster):
        return self.points[cluster.start : cluster.stop]

    def original_indices(self, cluster):
        return self.permutation[cluster.start : cluster.stop]


def _split_positions(coords, n_left):
    """Stable longest-axis median split: local positions of the left child.

    Points strictly below the median value go left; ties at the median fill
    the left child up to n_left in order of position, the rest go right.
    """
    n = coords.shape[0]
    order = np.argpartition(coords, n_left - 1)
    median = coords[order[n_left - 1]]
    below = np.flatnonzero(coords < median)
    ties = np.flatnonzero(coords == median)
    take = n_left - below.size
    left = np.concatenate([below, ties[:take]])
    left.sort()
    mask = np.zeros(n, dtype=bool)
    mask[left] = True
    right = np.flatnonzero(~mask)
    return left, right


def build_cluster_tree(cloud: PointCloud, leaf_size: int) -> ClusterTree:
    """Build a cardinality-balanced binary cluster tree.

    Each non-leaf splits its bounding box along the longest axis (lowest
    axis index on ties) at the coordinate median, giving the left child
    ceil(n/2) points.  Recursion stops once a cluster holds at most
    `leaf_size` points.  Deterministic for a fixed input ordering.
    """
    if leaf_size < 1:
        raise ValueError("leaf_size must be >= 1")
    if not isinstance(cloud, PointCloud):
        cloud = PointCloud(cloud)
    n = len(cloud)
    perm = np.arange(n)
    pts = cloud.points

    def make(start, stop, level):
        block = pts[perm[start:stop]]
        lo = block.min(axis=0)
        hi = block.max(axis=0)
        node = Cluster(start, stop, level, lo, hi)
        count = stop - start
        if count > leaf_size:
            axis = int(np.argmax(hi - lo))
            n_left = (count + 1) // 2
            left, right = _split_positions(block[:, axis], n_left)
            perm[start:stop] = np.concatenate(
                [perm[start:stop][left], perm[start:stop][right]]
            )
            mid = start + n_left
            node.children = (
                make(start, mid, level + 1),
                make(mid, stop, level + 1),
            )
        return node

    root = make(0, n, 0)
    return ClusterTree(cloud, root, perm, leaf_size)


def cluster_diam(c: Cluster) -> float:
    """Length of the bounding-box diagonal (0 for a degenerate box)."""
    return float(np.linalg.norm(c.bbox_hi - c.bbox_lo))


def box_dist(lo_a, hi_a, lo_b, hi_b):
    """Euclidean distance between boxes (0 if they overlap), over the last
    axis, so a stack of box pairs gives each pair's `cluster_dist` exactly."""
    gap = np.maximum(np.maximum(lo_a - hi_b, lo_b - hi_a), 0.0)
    return np.sqrt(np.sum(gap * gap, axis=-1))


def cluster_dist(a: Cluster, b: Cluster) -> float:
    """Euclidean distance between the two bounding boxes (0 if they overlap)."""
    return float(box_dist(a.bbox_lo, a.bbox_hi, b.bbox_lo, b.bbox_hi))
