"""Signal-side operations on samplet coefficients: hard-thresholding
compression, energy-based tree coarsening, and entropy-driven subsampling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .transform import CoefficientVector, forward_transform, inverse_transform


def hard_threshold(coeffs: CoefficientVector, w: float) -> CoefficientVector:
    """Zero all coefficients with magnitude below w (entries with |c| >= w
    survive).  Survivor count and space saving follow from `thresholding_stats`."""
    if w < 0:
        raise ValueError("threshold must be nonnegative")
    slots = np.where(np.abs(coeffs.slots) >= w, coeffs.slots, 0.0)
    return CoefficientVector(slots, coeffs.basis)


def thresholding_stats(coeffs: CoefficientVector):
    """(number of surviving coefficients, space saving ratio)."""
    nnz = coeffs.nnz
    return nnz, 1.0 - nnz / len(coeffs)


@dataclass
class ThresholdRow:
    relative_threshold: float
    threshold: float
    nnz: int
    space_saving: float
    rel_error: float


def compression_report(basis, values, relative_thresholds):
    """Hard-threshold sweep: for each relative threshold t, apply w = t*||f||_2
    in samplet coordinates, reconstruct, and report the relative Euclidean
    error (which equals the norm of the dropped coefficients by
    orthonormality)."""
    values = np.asarray(values, dtype=float)
    coeffs = forward_transform(basis, values)
    norm = float(np.linalg.norm(values))
    rows = []
    for rel in relative_thresholds:
        w = rel * norm
        kept = hard_threshold(coeffs, w)
        nnz, saving = thresholding_stats(kept)
        recon = inverse_transform(basis, kept)
        err = float(np.linalg.norm(values - recon) / norm) if norm > 0 else 0.0
        rows.append(ThresholdRow(float(rel), float(w), nnz, saving, err))
    return rows


class EnergyTree:
    """Per-cluster energies of a coefficient vector.

    `energy[i]` is the squared coefficient mass of the subtree rooted at
    cluster i (the root also absorbs the coarse scaling slots, so the root
    energy is exactly ||coeffs||_2^2).  `modified[i]` is the top-down
    redistributed energy driving the coarsening rule.
    """

    def __init__(self, coeffs: CoefficientVector):
        basis = coeffs.basis
        tree = basis.tree
        n_clusters = len(tree.clusters)
        widths = basis.slots[:, 1] - basis.slots[:, 0]
        owner = np.repeat(np.arange(n_clusters), widths)
        energy = np.bincount(owner, coeffs.slots**2, minlength=n_clusters)
        inner = _inner_by_level(tree)
        for p in reversed(inner):  # children before parents
            energy[p] += energy[tree.children[p]].sum(axis=1)
        modified = np.zeros(n_clusters)
        modified[tree.root.index] = energy[tree.root.index]
        for p in inner:  # parents before children
            child_sum = energy[tree.children[p]].sum(axis=1)
            denom = energy[p] + modified[p]
            q = np.divide(
                child_sum * modified[p], denom, out=np.zeros_like(denom), where=denom > 0
            )
            modified[tree.children[p]] = q[:, None]
        self.basis = basis
        self.energy = energy
        self.modified = modified


def _inner_by_level(tree):
    """Pre-order ids of the non-leaf clusters of each level, root level first."""
    inner = tree.children[:, 0] >= 0
    return [np.flatnonzero(inner & (tree.level == lev)) for lev in range(tree.depth)]


class CoarsenedTree:
    """Sibling- and parent-closed subtree of the cluster tree.

    `included` flags clusters by pre-order id; subtree leaves (clusters whose
    children were not selected, or original leaves) partition the sites.
    """

    def __init__(self, basis, included, threshold):
        self.basis = basis
        self.included = included
        self.threshold = threshold
        tree = basis.tree
        self.leaves = [
            c
            for c in tree.clusters
            if included[c.index]
            and (c.is_leaf or not included[c.children[0].index])
        ]

    @property
    def n_leaves(self):
        return len(self.leaves)

    def clusters(self):
        return [c for c in self.basis.tree.clusters if self.included[c.index]]

    def refined(self):
        """Included clusters whose children are included as well."""
        return [
            c
            for c in self.clusters()
            if not c.is_leaf and self.included[c.children[0].index]
        ]

    def restrict(self, coeffs: CoefficientVector) -> CoefficientVector:
        """Keep only coefficients owned by subtree clusters (plus the coarse
        scaling block)."""
        basis = self.basis
        widths = basis.slots[:, 1] - basis.slots[:, 0]
        keep = np.repeat(self.included, widths)  # the root is always included
        return CoefficientVector(np.where(keep, coeffs.slots, 0.0), basis)


def coarsen_tree(coeffs: CoefficientVector, epsilon: float) -> CoarsenedTree:
    """Energy-driven coarsening with threshold w = epsilon^2 * ||coeffs||^2.

    A cluster's children are selected (both or none) when their modified
    energy reaches the threshold; the resulting subtree keeps the root and
    its leaves partition the sites.
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    basis = coeffs.basis
    tree = basis.tree
    et = EnergyTree(coeffs)
    w = epsilon**2 * et.energy[tree.root.index]
    included = np.zeros(len(tree.clusters), dtype=bool)
    included[tree.root.index] = True
    for p in _inner_by_level(tree):  # parents before children
        children = tree.children[p]
        refine = included[p] & (et.modified[children[:, 0]] >= w)
        included[children[refine]] = True
    return CoarsenedTree(basis, included, w)


def entropy_subsample(tree_w: CoarsenedTree, n: int, seed: int) -> np.ndarray:
    """Draw n distinct original point indices, one subtree leaf at a time.

    Each draw picks a leaf uniformly at random (redrawing exhausted leaves)
    and then an unused point uniformly within it, which targets equal
    selection probability per leaf.  Reproducible for a fixed seed (PCG64).
    """
    tree = tree_w.basis.tree
    if not 0 < n <= tree.n_points:
        raise ValueError(f"sample size {n} not in [1, {tree.n_points}]")
    rng = np.random.default_rng(seed)
    pools = [list(tree.original_indices(leaf)) for leaf in tree_w.leaves]
    n_leaves = len(pools)
    chosen = np.empty(n, dtype=int)
    for k in range(n):
        leaf = int(rng.integers(n_leaves))
        while not pools[leaf]:
            leaf = int(rng.integers(n_leaves))
        pool = pools[leaf]
        pos = int(rng.integers(len(pool)))
        pool[pos], pool[-1] = pool[-1], pool[pos]
        chosen[k] = pool.pop()
    return chosen
