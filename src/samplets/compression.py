"""Block-sparse kernel matrices in samplet coordinates.

Cluster pairs separated well enough relative to their sizes are dropped
entirely; the surviving blocks are assembled recursively, with exact kernel
evaluation only on leaf-leaf pairs and separable polynomial interpolation on
the admissible fringe, so the whole matrix costs loglinear work.  Only pairs
i <= j are computed; each mirror block is stored as the exact transpose, so
the assembled operator is exactly symmetric.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np
import scipy.sparse

from .construction import build_samplet_basis
from .kernels import dense_kernel_matrix, kernel_matrix
from .transform import CoefficientVector, transform_matrix_congruence
from .tree import box_dist, cluster_diam, cluster_dist

ENTRY_DROP = 1e-14  # relative magnitude below which stored entries are zeroed


def is_admissible(a, b, eta: float) -> bool:
    """Separation test dist(a,b) >= eta * max(diam(a), diam(b)).

    Two coincident singletons (both diameters zero) pass the >= test; the
    assembly additionally requires positive distance before trusting the
    far-field expansion.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    return cluster_dist(a, b) >= eta * max(cluster_diam(a), cluster_diam(b))


def _chebyshev_axis(n):
    k = np.arange(n)
    nodes = np.cos((2 * k + 1) * np.pi / (2 * n))
    weights = (-1.0) ** k * np.sin((2 * k + 1) * np.pi / (2 * n))
    return nodes, weights


def _barycentric_eval(nodes, weights, x):
    """Values of all Lagrange basis polynomials at the points x, (len(x), n)."""
    diff = x[:, None] - nodes[None, :]
    exact = diff == 0.0
    hit = exact.any(axis=1)
    diff[hit] = 1.0  # dummy, rows overwritten below
    terms = weights[None, :] / diff
    out = terms / terms.sum(axis=1)[:, None]
    if np.any(hit):
        out[hit] = exact[hit].astype(float)
    return out


class _InterpolationGrids:
    """Tensor Chebyshev grids per cluster plus nested far-field factors.

    `factor[i]` maps a cluster's basis distributions to interpolation space:
    entry (s, b) is the b-th distribution applied to the s-th Lagrange
    polynomial of the cluster grid.  Built bottom-up via re-interpolation at
    the children's grids, which is exact for the tensor polynomial space.
    """

    def __init__(self, basis, degree):
        tree = basis.tree
        dim = tree.cloud.dim
        cheb, bary = _chebyshev_axis(degree + 1)
        span = max(tree.diam[0], 1.0)  # the root's, pre-order id 0
        half = np.maximum(0.5 * (tree.hi - tree.lo), 1e-8 * span)
        mid = 0.5 * (tree.hi + tree.lo)
        axes = mid[:, :, None] + half[:, :, None] * cheb  # clusters x dim x nodes
        mesh = np.indices((degree + 1,) * dim).reshape(dim, -1)
        self.grids = np.stack([axes[:, a, mesh[a]] for a in range(dim)], axis=2)
        self.factor = [None] * len(axes)
        children = tree.children.tolist()
        for i in np.argsort(-tree.level, kind="stable").tolist():  # children first
            q = basis.transforms[i].q
            if children[i][0] < 0:
                pts = tree.points[tree.start[i] : tree.start[i] + len(q)]
                ev = np.ones((len(q), 1))
                for a in range(dim):
                    loc = (pts[:, a] - mid[i, a]) / half[i, a]
                    ax_ev = _barycentric_eval(cheb, bary, loc)
                    ev = (ev[:, :, None] * ax_ev[:, None, :]).reshape(len(q), -1)
                self.factor[i] = ev.T @ q
            else:
                carriers = []
                for c in children[i]:
                    E = np.ones((1, 1))
                    for a in range(dim):
                        child_loc = (axes[c, a] - mid[i, a]) / half[i, a]
                        E = np.kron(E, _barycentric_eval(cheb, bary, child_loc))
                    n_sc = basis.transforms[c].n_scaling
                    carriers.append(E.T @ self.factor[c][:, :n_sc])
                self.factor[i] = np.hstack(carriers) @ q


@dataclass
class BlockPattern:
    """Retained cluster pairs of both triangles, an (m, 2) array in
    ascending (row, col) order, and the separation parameter eta."""

    pairs: np.ndarray
    eta: float


def _pattern(tree, eta):
    """All cluster pairs failing the separation test, as a BlockPattern.

    Pairs i <= j are enumerated from (root, root) one total level (level of
    i plus level of j) at a time: the one-sided child pairs of every
    retained pair form the next frontier, which is deduplicated and tested
    as one array.  Refining a pair only shrinks its boxes, so the children
    of a separated pair are separated too and are never visited.  Retained
    sets therefore only grow with eta.  The mirrors complete the pattern.
    """
    lo, hi, diam, children = tree.lo, tree.hi, tree.diam, tree.children
    n = len(lo)
    kept = []
    front = np.zeros((1, 2), dtype=int)
    while len(front):
        i, j = front.T
        dist = box_dist(lo[i], hi[i], lo[j], hi[j])
        # negation of is_admissible(a, b, eta) and dist > 0
        front = front[(dist < eta * np.maximum(diam[i], diam[j])) | (dist == 0.0)]
        kept.append(front)
        steps = []
        for k in (0, 1):
            steps.append(np.column_stack([children[front[:, 0], k], front[:, 1]]))
            steps.append(np.column_stack([front[:, 0], children[front[:, 1], k]]))
        cand = np.sort(np.concatenate(steps), axis=1)
        cand = cand[cand[:, 0] >= 0]
        _, first = np.unique(cand @ [n, 1], return_index=True)  # row-major keys
        front = cand[first]
    upper = np.concatenate(kept)
    keys = np.unique(np.concatenate([upper @ [n, 1], upper @ [1, n]]))
    return BlockPattern(np.stack(np.divmod(keys, n), axis=1), eta)


class _Layout:
    """Where each stored block of a pattern lives in the CSR arrays.

    The stored blocks `keys` are the pattern's pairs whose clusters both own
    slots, in ascending (row, col) order.  All rows of row cluster i share
    one column pattern, the ascending slot ranges of its blocks, so they
    hold a row-major (width[i], row length) array of the data from
    `base[i]` on, and block (i, j) takes width[j] of its columns from its
    column offset on.  `rows` holds, per row cluster with stored blocks, its
    id, its column clusters and their offsets, as Python ints.
    """

    def __init__(self, basis, pattern):
        slots = basis.slots
        width = slots[:, 1] - slots[:, 0]
        pairs = pattern.pairs
        keys = pairs[(width[pairs[:, 0]] > 0) & (width[pairs[:, 1]] > 0)]
        row, col = keys.T
        first = np.searchsorted(row, np.arange(len(slots) + 1))  # row i's keys
        ends = np.append(0, np.cumsum(width[col]))
        row_len = ends[first[1:]] - ends[first[:-1]]
        base = np.append(0, np.cumsum(width * row_len))
        index = np.int32 if base[-1] < 2**31 else np.int64
        self.pattern = pattern
        self.keys = keys
        self.width = width.tolist()
        self.base = base.tolist()
        self.indptr = np.append(0, np.cumsum(np.repeat(row_len, width))).astype(index)
        self.indices = np.empty(base[-1], dtype=index)
        cols = np.arange(ends[-1]) + np.repeat(slots[col, 0] - ends[:-1], width[col])
        offset = ends[:-1] - ends[first[row]]
        self.rows = []
        for i in np.flatnonzero(width * row_len).tolist():
            k0, k1 = first[i], first[i + 1]
            self.row(self.indices, i)[...] = cols[ends[k0] : ends[k1]]
            self.rows.append((i, col[k0:k1].tolist(), offset[k0:k1].tolist()))

    def row(self, data, i):
        """Row cluster i's part of a CSR array, a (width[i], row length) view."""
        return data[self.base[i] : self.base[i + 1]].reshape(self.width[i], -1)

    def fill(self, blocks_of):
        """CSR data from `blocks_of(i, cols)`, the blocks of row cluster i
        with column clusters `cols`, one row cluster at a time."""
        data = np.empty(len(self.indices))
        for i, cols, _ in self.rows:
            np.concatenate(blocks_of(i, cols), axis=1, out=self.row(data, i))
        return data


class CompressedKernelMatrix:
    """Samplet-coordinate kernel matrix restricted to the retained pattern.

    `csr` holds every stored entry, explicit zeros included, where `layout`
    places it: block (i, j) covers the stored slots of cluster pairs (i, j)
    (the root block also covers the coarse scaling slots), and `blocks`
    views it per pair.  Symmetric kernels give a symmetric pattern with
    transposed mirror blocks.
    """

    def __init__(self, basis, layout, data):
        self.basis = basis
        self.layout = layout
        self.pattern = layout.pattern
        self.n = basis.n
        self.csr = scipy.sparse.csr_array(
            (data, layout.indices, layout.indptr), shape=(self.n, self.n)
        )

    @cached_property
    def blocks(self):
        """Read-only (i, j) -> block mapping in ascending key order.  Each
        block is a view into the CSR data, so writing to it changes the
        operator."""
        layout, data = self.layout, self.csr.data
        views = {}
        for i, cols, offsets in layout.rows:
            rows = layout.row(data, i)
            for j, o in zip(cols, offsets):
                views[(i, j)] = rows[:, o : o + layout.width[j]]
        return MappingProxyType(views)

    @property
    def nnz(self):
        return int(np.count_nonzero(self.csr.data))

    def matvec(self, v):
        wrap = isinstance(v, CoefficientVector)
        if wrap and v.basis is not self.basis:
            raise ValueError("basis mismatch: coefficients belong to another basis")
        arr = v.slots if wrap else np.asarray(v, dtype=float)
        if arr.shape != (self.n,):
            raise ValueError(f"dim mismatch: expected ({self.n},), got {arr.shape}")
        out = self.csr @ arr
        return CoefficientVector(out, self.basis) if wrap else out

    __matmul__ = matvec

    def to_dense(self, guard: int = 8192) -> np.ndarray:
        if self.n > guard:
            raise ValueError(f"dense guard exceeded: {self.n} > {guard}")
        return self.csr.toarray()

    @property
    def shape(self):
        return (self.n, self.n)


def compress_assemble(
    basis, spec, eta: float, interp_degree: int = 6
) -> CompressedKernelMatrix:
    """Assemble the compressed kernel matrix.

    Retained pairs are all cluster pairs failing the separation test; they
    are enumerated level by level from (root, root) by single-sided descents,
    which covers pairs of clusters on different levels.  Blocks are computed
    deepest level first by one-sided refinement from the blocks one level
    deeper: pairs on the admissible fringe are evaluated by separable
    Chebyshev interpolation, non-admissible leaf-leaf pairs exactly, and
    everything beyond the fringe is never materialized.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    tree = basis.tree
    pattern = _pattern(tree, eta)
    grids = _InterpolationGrids(basis, interp_degree)
    q = [t.q for t in basis.transforms]
    n_scaling = [t.n_scaling for t in basis.transforms]
    keep = n_scaling.copy()
    keep[0] = 0  # the root's block also covers its scaling slots
    children, level = tree.children.tolist(), tree.level.tolist()
    start = tree.start.tolist()
    upper, deeper = {}, {}

    def child(i, j):
        # full block of a pair one level deeper than the current one: every
        # retained pair there is in `deeper`, so a missing pair lies on the
        # admissible fringe; only i <= j is computed, (j, i) is its transpose
        key = (min(i, j), max(i, j))
        block = deeper.get(key)
        if block is None:
            S = kernel_matrix(spec, grids.grids[key[0]], grids.grids[key[1]])
            block = grids.factor[key[0]].T @ S @ grids.factor[key[1]]
            deeper[key] = block
        return block if i <= j else block.T

    # pairs i <= j by total level (level of i plus level of j), deepest
    # first, so each level needs only the blocks of the next
    pairs = pattern.pairs[pattern.pairs[:, 0] <= pattern.pairs[:, 1]]
    total = tree.level[pairs].sum(axis=1)
    for lev in range(2 * tree.depth, -1, -1):
        current = {}
        for i, j in pairs[total == lev].tolist():
            leaf_i, leaf_j = children[i][0] < 0, children[j][0] < 0
            if leaf_i and leaf_j:
                pa = tree.points[start[i] : start[i] + len(q[i])]
                pb = tree.points[start[j] : start[j] + len(q[j])]
                block = q[i].T @ kernel_matrix(spec, pa, pb) @ q[j]
            elif not leaf_i and (level[i] <= level[j] or leaf_j):
                rows = [child(c, j)[: n_scaling[c]] for c in children[i]]
                block = q[i].T @ np.vstack(rows)
            else:
                cols = [child(i, c)[:, : n_scaling[c]] for c in children[j]]
                block = np.hstack(cols) @ q[j]
            if i == j:
                block = 0.5 * (block + block.T)
            current[(i, j)] = block
            stored = block[keep[i] :, keep[j] :]
            if stored.size:
                stored = stored.copy()
                mag = np.abs(stored)
                stored[mag < ENTRY_DROP * mag.max()] = 0.0
                upper[(i, j)] = stored
        deeper = current
    layout = _Layout(basis, pattern)
    data = layout.fill(
        lambda i, cols: [upper[(i, j)] if i <= j else upper[(j, i)].T for j in cols]
    )
    return CompressedKernelMatrix(basis, layout, data)


def add_compressed(
    a: CompressedKernelMatrix, b: CompressedKernelMatrix
) -> CompressedKernelMatrix:
    """Blockwise sum; both operands must share a basis.  The pattern of the
    larger eta holds both operands' patterns, so it is their union."""
    if a.basis is not b.basis:
        raise ValueError("basis mismatch: operands built over different bases")
    layout = _Layout(a.basis, _pattern(a.basis.tree, max(a.pattern.eta, b.pattern.eta)))
    data = layout.fill(
        lambda i, cols: [a.blocks.get((i, j), 0) + b.blocks.get((i, j), 0)
                         for j in cols]
    )
    return CompressedKernelMatrix(a.basis, layout, data)


@dataclass
class CompressionRow:
    moment_degree: int
    nnz: int
    rel_frobenius_error: float


def compression_error_report(
    basis, spec, eta, moment_degrees, interp_degree=6, guard=8192
):
    """Accuracy/size sweep over the vanishing-moment degree.

    Rebuilds the basis for each degree on the same cluster tree, compresses,
    and reports nonzeros plus the relative Frobenius distance to the dense
    samplet-coordinate matrix.
    """
    tree = basis.tree
    K = dense_kernel_matrix(spec, tree.cloud, guard=guard)
    rows = []
    for q in moment_degrees:
        b = build_samplet_basis(tree, q)
        dense = transform_matrix_congruence(b, K, guard=guard)
        comp = compress_assemble(b, spec, eta, interp_degree)
        err = float(
            np.linalg.norm(comp.to_dense(guard) - dense) / np.linalg.norm(dense)
        )
        rows.append(CompressionRow(q, comp.nnz, err))
    return rows


_MAGIC = b"SMPB"
_PREAMBLE = 36  # magic plus the "<IQIdQ" header
_BLOCK_HEADER = 32


def save_compressed(m: CompressedKernelMatrix, path):
    """Write the documented binary container (little-endian, 8-byte floats)."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(
            struct.pack(
                "<IQIdQ",
                1,
                m.n,
                m.basis.moment_degree,
                m.pattern.eta,
                len(m.blocks),
            )
        )
        for (i, j), block in m.blocks.items():
            fh.write(struct.pack("<QQQQ", i, j, block.shape[0], block.shape[1]))
            fh.write(np.ascontiguousarray(block, dtype="<f8").tobytes())


def load_compressed(path, basis) -> CompressedKernelMatrix:
    """Read a matrix container.  The basis must match the stored N and
    degree, and the blocks must be exactly the stored pairs of the pattern
    that the stored eta gives on the basis's tree."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError(f"not a compressed-matrix file (magic {magic!r})")
        version, n, degree, eta, n_blocks = struct.unpack("<IQIdQ", fh.read(32))
        if version != 1:
            raise ValueError(f"unsupported container version {version}")
        if n != basis.n or degree != basis.moment_degree:
            raise ValueError(
                f"container (N={n}, degree={degree}) does not match basis "
                f"(N={basis.n}, degree={basis.moment_degree})"
            )
        layout = _Layout(basis, _pattern(basis.tree, eta))
        stored = len(layout.keys)
        size = os.fstat(fh.fileno()).st_size
        expected = _PREAMBLE + _BLOCK_HEADER * stored + 8 * len(layout.indices)
        if (n_blocks, size) != (stored, expected):
            raise ValueError(
                f"{n_blocks} blocks in {size} bytes: the file is truncated or does "
                f"not match the {stored} blocks in {expected} bytes of eta={eta} "
                "on this basis"
            )
        width = basis.slots[:, 1] - basis.slots[:, 0]
        data = np.empty(len(layout.indices))
        for i, cols, offsets in layout.rows:
            w = width[cols]
            entries = width[i] * w
            words = np.frombuffer(fh.read(8 * (4 + entries).sum()), "<u8")
            start = np.cumsum(4 + entries) - entries  # each block's first entry
            got = words[start[:, None] + np.arange(-4, 0)]
            want = np.stack([np.full_like(w, i), cols, np.full_like(w, width[i]), w], 1)
            if (got != want).any():
                k = np.flatnonzero((got != want).any(axis=1))[0]
                raise ValueError(
                    f"block (row, col, rows, cols) = {tuple(got[k].tolist())} does "
                    f"not match the basis, which gives {tuple(want[k].tolist())}"
                )
            # slab entry (r, s) is word start + r * w + s - offset of its block
            at = np.repeat(start - offsets, w) + np.arange(w.sum())
            at = at + np.arange(width[i])[:, None] * np.repeat(w, w)
            layout.row(data, i)[...] = words.view("<f8")[at]
    return CompressedKernelMatrix(basis, layout, data)
