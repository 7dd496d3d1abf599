"""Block-sparse kernel matrices in samplet coordinates.

Cluster pairs separated well enough relative to their sizes are dropped
entirely; the surviving blocks are assembled recursively, with exact kernel
evaluation only on leaf-leaf pairs and separable polynomial interpolation on
the admissible fringe, so the whole matrix costs loglinear work.  Only pairs
i <= j are computed; each mirror block is stored as the exact transpose, so
the assembled operator is exactly symmetric.
"""

from __future__ import annotations

import itertools
import os
import struct
from dataclasses import dataclass, field
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
        self.degree = degree
        tree = basis.tree
        dim = tree.cloud.dim
        n1 = degree + 1
        cheb, bary = _chebyshev_axis(n1)
        n_clusters = len(tree.clusters)
        self.axis_nodes = [None] * n_clusters
        self.grids = [None] * n_clusters
        self.factor = [None] * n_clusters

        span = max(tree.diam[tree.root.index], 1.0)
        for cluster in tree.postorder:
            half = 0.5 * (cluster.bbox_hi - cluster.bbox_lo)
            half = np.maximum(half, 1e-8 * span)
            mid = 0.5 * (cluster.bbox_hi + cluster.bbox_lo)
            axes = [mid[a] + half[a] * cheb for a in range(dim)]
            self.axis_nodes[cluster.index] = axes
            mesh = np.meshgrid(*axes, indexing="ij")
            self.grids[cluster.index] = np.stack([m.ravel() for m in mesh], axis=1)

            q = basis.transforms[cluster.index].q
            if cluster.is_leaf:
                pts = tree.cluster_points(cluster)
                ev = np.ones((cluster.size, 1))
                for a in range(dim):
                    loc = (pts[:, a] - mid[a]) / half[a]
                    ax_ev = _barycentric_eval(cheb, bary, loc)
                    ev = (ev[:, :, None] * ax_ev[:, None, :]).reshape(cluster.size, -1)
                self.factor[cluster.index] = ev.T @ q
            else:
                carriers = []
                for child in cluster.children:
                    E = np.ones((1, 1))
                    for a in range(dim):
                        child_loc = (self.axis_nodes[child.index][a] - mid[a]) / half[a]
                        E = np.kron(E, _barycentric_eval(cheb, bary, child_loc))
                    n_sc = basis.transforms[child.index].n_scaling
                    carriers.append(E.T @ self.factor[child.index][:, :n_sc])
                self.factor[cluster.index] = np.hstack(carriers) @ q


@dataclass
class PatternPair:
    row: int
    col: int


@dataclass
class BlockPattern:
    pairs: list = field(default_factory=list)
    eta: float = 1.0

    def near_pairs(self):
        """The retained pairs; the pattern holds no other pairs."""
        return list(self.pairs)


def _retained_pairs(tree, eta):
    """Cluster pairs i <= j failing the separation test, as one (m, 2) array
    per total level, root pair first.

    Enumerated from (root, root) one total level (level of i plus level of
    j) at a time: the one-sided child pairs of every retained pair form the
    next frontier, which is deduplicated and tested as one array.  Refining a
    pair only shrinks its boxes, so the children of a separated pair are
    separated too and are never visited.
    """
    lo, hi, diam, children = tree.lo, tree.hi, tree.diam, tree.children
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
        _, first = np.unique(cand @ [len(lo), 1], return_index=True)  # row-major keys
        front = cand[first]
    return kept


def _block_csr(basis, blocks, total):
    """CSR operator from (i, j, block) triples in ascending (i, j) order.

    The blocks of row cluster i cover ascending, disjoint column ranges, so
    all rows of i share one column pattern and their entries are the
    row-major hstack of the blocks, written straight into place.  `total`
    is the number of stored entries.
    """
    slots = basis.slots
    index = np.int32 if total < 2**31 else np.int64
    data = np.empty(total)
    indices = np.empty(total, dtype=index)
    row_len = np.zeros(basis.n + 1, dtype=index)
    pos = 0
    for i, group in itertools.groupby(blocks, key=lambda t: t[0]):
        group = list(group)
        r0, r1 = slots[i]
        lo, hi = slots[[j for _, j, _ in group]].T
        width = hi - lo
        # concatenated column ranges lo[k]:hi[k] of the row's blocks
        cols = np.arange(width.sum()) + np.repeat(lo - np.cumsum(width) + width, width)
        end = pos + (r1 - r0) * cols.size
        rows = data[pos:end].reshape(r1 - r0, cols.size)
        np.concatenate([b for _, _, b in group], axis=1, out=rows)
        indices[pos:end].reshape(rows.shape)[...] = cols
        row_len[r0 + 1 : r1 + 1] = cols.size
        pos = end
    if pos != total:
        raise ValueError(f"{pos} stored entries, expected {total}")
    indptr = np.cumsum(row_len, dtype=index)
    return scipy.sparse.csr_array((data, indices, indptr), shape=(basis.n, basis.n))


class CompressedKernelMatrix:
    """Samplet-coordinate kernel matrix restricted to the retained pattern.

    `csr` holds every stored entry, explicit zeros included: block (i, j)
    covers the stored slots of cluster pairs (i, j) (the root block also
    covers the coarse scaling slots), and `blocks` views it per pair.
    Symmetric kernels give a symmetric pattern with transposed mirror blocks.
    """

    def __init__(self, basis, pattern, csr):
        self.basis = basis
        self.pattern = pattern
        self.csr = csr
        self.n = basis.n

    @cached_property
    def blocks(self):
        """Read-only (i, j) -> block mapping in ascending key order.  Each
        block is a view into the CSR data, so writing to it changes the
        operator."""
        slots = self.basis.slots
        widths = (slots[:, 1] - slots[:, 0]).tolist()
        owner = np.repeat(np.arange(len(slots)), widths)
        indptr, indices, data = self.csr.indptr, self.csr.indices, self.csr.data
        views = {}
        for i, (r0, r1) in enumerate(slots):
            if r0 < r1:
                p0, p1 = indptr[r0], indptr[r0 + 1]
                rows = data[p0 : p0 + (r1 - r0) * (p1 - p0)].reshape(r1 - r0, -1)
                col_owner = owner[indices[p0:p1]]
                for s in np.flatnonzero(np.diff(col_owner, prepend=-1)).tolist():
                    j = int(col_owner[s])
                    views[(i, j)] = rows[:, s : s + widths[j]]
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
    levels = _retained_pairs(tree, eta)
    grids = _InterpolationGrids(basis, interp_degree)
    q = [t.q for t in basis.transforms]
    n_scaling = [t.n_scaling for t in basis.transforms]
    keep = n_scaling.copy()
    keep[tree.root.index] = 0
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

    # deepest level first, so each level needs only the blocks of the next
    for front in reversed(levels):
        current = {}
        for i, j in front.tolist():
            a, b = tree.clusters[i], tree.clusters[j]
            if a.is_leaf and b.is_leaf:
                pa, pb = tree.cluster_points(a), tree.cluster_points(b)
                block = q[i].T @ kernel_matrix(spec, pa, pb) @ q[j]
            elif not a.is_leaf and (a.level <= b.level or b.is_leaf):
                rows = [child(c.index, j)[: n_scaling[c.index]] for c in a.children]
                block = q[i].T @ np.vstack(rows)
            else:
                cols = [child(i, c.index)[:, : n_scaling[c.index]] for c in b.children]
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
    keys = sorted([*upper, *((j, i) for i, j in upper if i != j)])
    blocks = [(i, j, upper[(i, j)] if i <= j else upper[(j, i)].T) for i, j in keys]
    retained = np.concatenate(levels)
    both = np.concatenate([retained, retained[:, ::-1]])
    _, first = np.unique(both @ [len(tree.clusters), 1], return_index=True)
    pattern = BlockPattern([PatternPair(i, j) for i, j in both[first].tolist()], eta)
    csr = _block_csr(basis, blocks, sum(block.size for _, _, block in blocks))
    return CompressedKernelMatrix(basis, pattern, csr)


def add_compressed(
    a: CompressedKernelMatrix, b: CompressedKernelMatrix
) -> CompressedKernelMatrix:
    """Blockwise sum on the union pattern; both operands must share a basis."""
    if a.basis is not b.basis:
        raise ValueError("basis mismatch: operands built over different bases")
    keys = sorted({*a.blocks, *b.blocks})
    blocks = [(*k, a.blocks.get(k, 0) + b.blocks.get(k, 0)) for k in keys]
    csr = _block_csr(a.basis, blocks, sum(block.size for _, _, block in blocks))
    pairs = sorted({(p.row, p.col) for p in a.pattern.pairs + b.pattern.pairs})
    pattern = BlockPattern(
        [PatternPair(i, j) for i, j in pairs], max(a.pattern.eta, b.pattern.eta)
    )
    return CompressedKernelMatrix(a.basis, pattern, csr)


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
    """Read a matrix container; the basis must match the stored N and degree."""
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
        payload = os.fstat(fh.fileno()).st_size - _PREAMBLE - _BLOCK_HEADER * n_blocks
        if payload < 0 or payload % 8:
            raise ValueError("truncated compressed-matrix file")
        slots = basis.slots
        widths = slots[:, 1] - slots[:, 0]
        keys = []

        def read_blocks():
            for _ in range(n_blocks):
                i, j, nr, nc = struct.unpack("<QQQQ", fh.read(_BLOCK_HEADER))
                if keys and (i, j) <= keys[-1]:
                    raise ValueError(f"block ({i}, {j}) out of ascending order")
                if max(i, j) >= len(slots) or (nr, nc) != (widths[i], widths[j]):
                    raise ValueError(
                        f"block ({i}, {j}) of shape ({nr}, {nc}) does not match "
                        "the basis"
                    )
                keys.append((i, j))
                raw = fh.read(8 * nr * nc)
                if len(raw) != 8 * nr * nc:
                    raise ValueError("truncated compressed-matrix file")
                yield i, j, np.frombuffer(raw, dtype="<f8").reshape(nr, nc)

        csr = _block_csr(basis, read_blocks(), payload // 8)
    pattern = BlockPattern([PatternPair(i, j) for i, j in keys], eta)
    return CompressedKernelMatrix(basis, pattern, csr)
