"""Cardinality-balanced binary cluster trees over scattered data sites."""

from __future__ import annotations

import functools

import numpy as np

from .points import PointCloud


class Cluster:
    """Read-only view of one cluster: row `index` (a pre-order id) of a tree.

    `start:stop` index into the tree permutation, not the original point
    order.  Non-leaf clusters have exactly two children that partition the
    range.
    """

    __slots__ = ("tree", "index")

    def __init__(self, tree, index):
        self.tree = tree
        self.index = index

    start = property(lambda self: int(self.tree.start[self.index]))
    size = property(lambda self: int(self.tree.size[self.index]))
    stop = property(lambda self: self.start + self.size)
    level = property(lambda self: int(self.tree.level[self.index]))
    bbox_lo = property(lambda self: self.tree.lo[self.index])
    bbox_hi = property(lambda self: self.tree.hi[self.index])
    is_leaf = property(lambda self: bool(self.tree.children[self.index, 0] < 0))

    @property
    def children(self):
        kids = self.tree.children[self.index]
        return tuple(self.tree.clusters[k] for k in kids[kids >= 0])

    def __repr__(self):
        return f"Cluster(id={self.index}, level={self.level}, range=[{self.start},{self.stop}))"


class ClusterTree:
    """Balanced binary tree over a point cloud, held as per-cluster arrays.

    `permutation[t]` is the original index of the point at tree position t.
    The arrays, indexed by pre-order id (the root is 0), are the one source
    of cluster geometry and topology: bounding boxes `lo`, `hi` (clusters x
    dim), diameters `diam` (the box diagonals), `level`, `start`, `size`
    (points held), `parent` (-1 for the root) and `children` (clusters x 2,
    -1 for a leaf).  `clusters` (in pre-order), `root` and `leaves` give
    callers read-only `Cluster` views of the rows.  The tree is built level
    by level; a cluster holds its left child's points, then its right
    child's, and a leaf holds its points in original-index order.
    """

    def __init__(self, cloud, leaf_size):
        self.cloud = cloud
        self.leaf_size = leaf_size
        pts = cloud.points
        n, dim = pts.shape
        rank = np.empty((dim, n), dtype=int)  # of each point along each axis
        axes = np.arange(dim)[:, None]
        rank[axes, np.argsort(pts.T, axis=1, kind="stable")] = np.arange(n)
        perm = np.arange(n)
        start, size, parent = np.zeros(1, int), np.full(1, n), np.full(1, -1)
        levels, first = [], 0  # first: level-order id of the level's first cluster
        while True:
            # boxes over (start, stop) cuts: leaves of earlier levels leave
            # gaps, and a spare row lets the last cut fall at n
            block = pts.take(np.append(perm, 0), axis=0)
            cuts = np.stack([start, start + size], axis=1).ravel()
            lo = np.minimum.reduceat(block, cuts)[::2]
            hi = np.maximum.reduceat(block, cuts)[::2]
            levels.append((start, size, parent, lo, hi))
            split = np.flatnonzero(size > leaf_size)
            if not split.size:
                break
            s, m = start[split], size[split]
            axis = np.argmax(hi[split] - lo[split], axis=1)  # lowest axis on ties
            owner = np.repeat(np.arange(split.size), m)
            before = np.cumsum(m) - m
            pos = np.arange(m.sum()) + np.repeat(s - before, m)
            # the left child takes the ceil(m/2) points of lowest rank, i.e.
            # by (coordinate, original index); each child keeps its points
            # in original-index order
            key = owner * n + rank[axis[owner], perm[pos]]
            half = (m + 1) // 2
            right = key > np.sort(key)[before + half - 1][owner]
            perm[pos] = np.sort((2 * owner + right) * n + perm[pos]) % n
            start = np.stack([s, s + half], axis=1).ravel()
            size = np.stack([half, m - half], axis=1).ravel()
            parent = np.repeat(first + split, 2)
            first += len(levels[-1][0])
        start, size, parent, lo, hi = (np.concatenate(a) for a in zip(*levels))
        level = np.repeat(np.arange(len(levels)), [len(a[0]) for a in levels])
        order = np.lexsort((level, start))  # pre-order: ancestors first, left first
        pre = np.empty_like(order)
        pre[order] = np.arange(len(order))
        self.permutation = perm
        self.points = pts.take(perm, axis=0)  # tree-ordered copy
        self.lo, self.hi = lo[order], hi[order]
        self.diam = np.sqrt(np.vecdot(self.hi - self.lo, self.hi - self.lo))
        self.level, self.start, self.size = level[order], start[order], size[order]
        self.parent = np.where(parent < 0, -1, pre[parent])[order]
        self.children = np.full((len(order), 2), -1)
        kids = np.flatnonzero(self.parent >= 0)
        up = self.parent[kids]
        self.children[up, (self.start[kids] > self.start[up]).astype(int)] = kids
        self.depth = len(levels) - 1

    @property
    def n_points(self):
        return len(self.cloud)

    @functools.cached_property
    def clusters(self):
        return [Cluster(self, i) for i in range(len(self.level))]

    @property
    def root(self):
        return self.clusters[0]

    @property
    def leaves(self):
        return [self.clusters[i] for i in np.flatnonzero(self.children[:, 0] < 0)]

    def cluster_points(self, cluster):
        return self.points[cluster.start : cluster.stop]

    def original_indices(self, cluster):
        return self.permutation[cluster.start : cluster.stop]


def build_cluster_tree(cloud: PointCloud, leaf_size: int) -> ClusterTree:
    """Build a cardinality-balanced binary cluster tree.

    Each non-leaf splits its bounding box along the longest axis (lowest
    axis index on ties) at the coordinate median: the left child takes the
    first ceil(n/2) points by (coordinate, original index), from a rank per
    axis taken once with a stable sort.  Splitting stops once a cluster
    holds at most `leaf_size` points.  Deterministic for a fixed input
    ordering.
    """
    if leaf_size < 1:
        raise ValueError("leaf_size must be >= 1")
    if not isinstance(cloud, PointCloud):
        cloud = PointCloud(cloud)
    return ClusterTree(cloud, leaf_size)


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
