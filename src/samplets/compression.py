"""Block-sparse kernel matrices in samplet coordinates.

Cluster pairs separated well enough relative to their sizes are dropped
entirely; the surviving blocks are assembled recursively, with exact kernel
evaluation on leaf-leaf pairs and on the admissible fringe where its
clusters hold fewer points than interpolation grids, and separable
polynomial interpolation on the rest of the fringe, so the whole matrix
costs loglinear work.  Assembly
runs one total level at a time, in stacked batches of blocks of one shape
(one kind of block and one pair of level groups each), and writes the
stored entries straight into the operator's data: one N x N array where
they fill at least half of it, one panel per row cluster otherwise.  One
block of each pair and its mirror is computed and stored as the upper one;
the dense form copies its lower triangle from its upper one and the panel
form stores none, so the assembled operator is exactly symmetric.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .construction import build_samplet_basis, cluster_weight_matrix
from .kernels import dense_kernel_matrix, kernel_matrix
from .points import DENSE_GUARD
from .transform import CoefficientVector, transform_matrix_congruence
from .tree import box_dist, cluster_diam, cluster_dist

ENTRY_DROP = 1e-14  # relative magnitude below which stored entries are zeroed
_BATCH_BYTES = 1 << 18  # bound on one stacked temporary of the assembly
_DENSE_SHARE = 0.5  # share of N x N from which the stored entries are held as one array
# a block in assembly: retained and exact (leaf pairs) or refined over the
# children of its row cluster; or of the admissible fringe, exact from point
# weights or interpolated on grids
_EXACT, _ROWS, _POINTS, _GRID = range(4)


def is_admissible(a, b, eta: float) -> bool:
    """Separation test dist(a,b) >= eta * max(diam(a), diam(b)).

    Two coincident singletons (both diameters zero) pass the >= test; the
    assembly additionally requires positive distance before trusting the
    far-field expansion.
    """
    if not eta > 0:
        raise ValueError("eta must be positive")
    return cluster_dist(a, b) >= eta * max(cluster_diam(a), cluster_diam(b))


def _chebyshev_axis(n):
    k = np.arange(n)
    nodes = np.cos((2 * k + 1) * np.pi / (2 * n))
    weights = (-1.0) ** k * np.sin((2 * k + 1) * np.pi / (2 * n))
    return nodes, weights


def _barycentric_eval(nodes, weights, x):
    """Values of all Lagrange basis polynomials at the points x, x.shape + (n,)."""
    diff = x[..., None] - nodes
    exact = diff == 0.0
    hit = exact.any(axis=-1)
    diff[hit] = 1.0  # dummy, rows overwritten below
    terms = weights / diff
    out = terms / terms.sum(axis=-1, keepdims=True)
    if np.any(hit):
        out[hit] = exact[hit].astype(float)
    return out


def _unique(keys):
    """The distinct values of a nonnegative integer array, ascending; one
    sort, several times faster than np.unique at the sizes assembly meets."""
    keys = np.sort(keys)
    return keys[np.diff(keys, prepend=-1) != 0]


def _batches(count, entries):
    """Slices of a stack of `count` items of `entries` doubles each, so that
    one stacked temporary stays within _BATCH_BYTES."""
    step = max(1, _BATCH_BYTES // (8 * entries))
    return [slice(k, min(k + step, count)) for k in range(0, count, step)]


class _Chebyshev:
    """Tensor Chebyshev grids of one degree on the clusters' boxes (flat
    sides widened): the grid points of a stack of clusters, and the values
    of their grids' Lagrange polynomials at stacks of points.  Grid points
    run with axis 0 slowest."""

    def __init__(self, tree, degree):
        dim = tree.cloud.dim
        self.nodes, self.weights = _chebyshev_axis(degree + 1)
        span = max(tree.diam[0], 1.0)  # the root's, pre-order id 0
        self.half = np.maximum(0.5 * (tree.hi - tree.lo), 1e-8 * span)
        self.mid = 0.5 * (tree.hi + tree.lo)
        self.mesh = self.nodes[np.indices((degree + 1,) * dim).reshape(dim, -1).T]
        self.size = len(self.mesh)

    def grids(self, idx):
        """Grid points of the clusters idx, (len(idx), size, dim)."""
        return self.mid[idx, None] + self.half[idx, None] * self.mesh

    def lagrange(self, idx, points):
        """Values of the Lagrange polynomials of the grids of the clusters
        idx at a stack of points (len(idx), s, dim), as (len(idx), s, size)."""
        loc = (points - self.mid[idx, None]) / self.half[idx, None]
        ev = np.ones(points.shape[:2] + (1,))
        for a in range(points.shape[2]):
            ax_ev = _barycentric_eval(self.nodes, self.weights, loc[..., a])
            ev = (ev[..., None] * ax_ev[..., None, :]).reshape(points.shape[:2] + (-1,))
        return ev


def _pattern(tree, eta):
    """The cluster pairs (i, j) failing the separation test, an ascending (m, 2) array.

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
        # the one-sided child steps (c, j) and (i, c), leaves' -1 dropped
        i, j = front.T
        a = np.append(children[i].T, [i, i])
        b = np.append([j, j], children[j].T)
        has = (a >= 0) & (b >= 0)
        a, b = a[has], b[has]
        cand = _unique(np.minimum(a, b) * n + np.maximum(a, b))  # row-major keys
        front = np.stack(np.divmod(cand, n), axis=1)
    upper = np.concatenate(kept)
    keys = _unique(np.concatenate([upper @ [n, 1], upper @ [1, n]]))
    return np.stack(np.divmod(keys, n), axis=1)


def _blocks_at(buf, rows, cols, stride):
    """The (rows, cols) blocks of row stride `stride` in the flat array buf,
    as a (starts, rows, cols) view indexed by each block's first element."""
    step = buf.strides[0]
    starts = len(buf) - (rows - 1) * stride - cols + 1
    return np.ndarray((starts, rows, cols), buf.dtype, buf, 0, (step, step * stride, step))


def _mirror(square, diagonal=(), tile=64):
    """Fill the strict lower triangle of a square array with copies of its
    upper one, a column strip at a time, with no temporary beyond a tile.
    The diagonal blocks over the slot ranges `diagonal` keep the lower
    halves they hold."""
    kept = [square[rows, rows].copy() for rows in diagonal]
    n = len(square)
    for s in range(0, n, tile):
        e = min(s + tile, n)
        square[e:, s:e] = square[s:e, e:].T  # disjoint memory: copied in place
        corner = square[s:e, s:e]
        np.copyto(corner, corner.T, where=np.tri(e - s, k=-1, dtype=bool))
    for rows, block in zip(diagonal, kept):
        square[rows, rows] = block


class _Layout:
    """The retained pattern `pairs` of a basis and `eta`, and where each of
    its stored blocks lives in the operator's data.

    The pattern is symmetric and the operator too, so only its upper blocks
    are stored: `keys` are the pairs i <= j whose clusters both own slots, in
    ascending (row, col) order; `code` holds them as i * clusters + j.
    `stored` counts the entries of the blocks of both triangles, `upper`
    those of the keys.  Where the former fill at least half of N x N
    (`_DENSE_SHARE`; `dense`), the data is one row-major N x N array, zero
    off the pattern, whose lower triangle off the diagonal blocks is a copy
    of its upper one; otherwise it holds the keys' entries alone.

    The upper rows of row cluster i span one column pattern, the ascending
    slot ranges of its keys (its diagonal block first), which `patterns`
    lists; `ptr[i]` is where it starts among all row clusters' patterns.
    The rows form one row-major (width[i], stride[i]) array from `base[i]`
    on.  In the dense form that is all N columns, and block (i, j) starts at
    column slots[j, 0].  Otherwise its columns are the column pattern, held
    in `cols`, and each block starts where the one before it ends.  Entry
    (r, s) of the k-th key (i, j) lies at `at[k] + r * stride[i] + s`.
    """

    def __init__(self, basis, eta):
        slots, n = basis.slots, basis.n
        width = slots[:, 1] - slots[:, 0]
        pairs = self.pairs = _pattern(basis.tree, eta)
        i, j = pairs.T
        keys = pairs[(i <= j) & (width[i] > 0) & (width[j] > 0)]
        row, col = keys.T
        first = np.searchsorted(row, np.arange(len(slots) + 1))  # row i's keys
        ends = np.append(0, np.cumsum(width[col]))
        row_len = ends[first[1:]] - ends[first[:-1]]
        self.eta = eta
        self.keys = keys
        self.code = keys @ [len(slots), 1]
        self.upper = int(width @ row_len)
        self.stored = 2 * self.upper - int(width @ width)  # each owner's diagonal once
        self.dense = self.stored >= _DENSE_SHARE * n * n
        self.width = width
        self.slots = slots
        self.ptr = ends[first]
        if self.dense:
            base = np.append(slots[:, 0], n) * n  # the slot ranges tile 0..N
            self.stride = np.full(len(slots), n)
            offset = slots[col, 0]
        else:
            base = np.append(0, np.cumsum(width * row_len))
            self.stride = row_len
            offset = ends[:-1] - self.ptr[row]
            self.cols = self.columns()
        self.base, self.size = base, int(base[-1])
        self.at = base[row] + offset

    def columns(self):
        """Every row cluster's column pattern, one after the other: the
        running sum of steps of 1 within a block and of the jump to the next
        block's first slot at its start, summed in place."""
        first, last = self.slots[self.keys[:, 1]].T
        cols = np.ones(self.ptr[-1], dtype=int)
        cols[0] = first[0]
        cols[np.cumsum(last - first)[:-1]] = first[1:] - last[:-1] + 1
        return np.cumsum(cols, out=cols)

    def patterns(self):
        """(slot range, column pattern) of each row cluster that owns slots:
        the panel form's order of the stored entries, which the file keeps
        in either form.  The dense form builds the patterns for each call."""
        cols = self.columns() if self.dense else self.cols
        slots, ptr = self.slots.tolist(), self.ptr.tolist()
        return [(slice(*slots[i]), cols[ptr[i] : ptr[i + 1]])
                for i in np.flatnonzero(self.width).tolist()]

    def panels(self, data):
        """The panel form's data as (rows, panel, columns, strict), one per
        row cluster that owns slots, so that the product of its upper blocks
        with x is panel @ x[columns] in its rows.  The diagonal block is the
        panel's first len(panel) columns; the rest is the strict-upper part,
        whose columns are cols[strict].  None in the dense form."""
        if self.dense:
            return None
        owned, width = np.flatnonzero(self.width).tolist(), self.width.tolist()
        base, ptr = self.base.tolist(), self.ptr.tolist()
        return [(rows, data[base[i] : base[i + 1]].reshape(width[i], -1), cols,
                 slice(ptr[i] + width[i], ptr[i + 1]))
                for i, (rows, cols) in zip(owned, self.patterns())]

    def place(self, data, at, i, j, blocks):
        """Write a stack of computed blocks (i, j), arrays of pair ids, into
        their upper blocks from data positions `at`, one data row at a time:
        as they are where i <= j, transposed where the pair was turned."""
        turned = i > j
        for sel, r, stack in ((~turned, i, blocks), (turned, j, blocks.transpose(0, 2, 1))):
            if sel.any():
                sel = slice(None) if sel.all() else sel
                _, h, w = stack.shape
                row = at[sel, None] + self.stride[r[sel], None] * np.arange(h)  # each row's start
                _blocks_at(data, 1, w, 1)[row] = stack[sel][:, :, None]


class CompressedKernelMatrix:
    """Samplet-coordinate kernel matrix restricted to the retained pattern.

    `data` holds every stored entry, explicit zeros included, where `layout`
    places it: block (i, j) covers the stored slots of cluster pairs (i, j)
    (the root block also covers the coarse scaling slots).  Symmetric
    kernels give a symmetric pattern with transposed mirror blocks, so the
    panel form stores the upper blocks alone, per row cluster in `panels`,
    and the dense form one N x N array of both triangles.  `blocks` views
    every block of both triangles.
    """

    def __init__(self, basis, layout, data):
        self.basis = basis
        self.layout = layout
        self.n = basis.n
        self.data = data
        self.panels = layout.panels(data)

    @cached_property
    def blocks(self):
        """Read-only (i, j) -> block mapping in ascending key order.  Each
        block is a view into the data, so writing to it changes the
        operator: in the panel form a mirror block is the transpose of its
        upper block, in the dense form its own region of the N x N array."""
        layout, data, step = self.layout, self.data, self.data.itemsize
        width, stride = layout.width.tolist(), layout.stride.tolist()
        first = layout.slots[:, 0].tolist()

        def view(at, i, j):
            shape, strides = (width[i], width[j]), (step * stride[i], step)
            return np.ndarray(shape, data.dtype, data, step * at, strides)

        blocks = {}
        for (i, j), at in zip(layout.keys.tolist(), layout.at.tolist()):
            blocks[i, j] = view(at, i, j)
            if i < j and layout.dense:
                blocks[j, i] = view(first[j] * self.n + first[i], j, i)
            elif i < j:
                blocks[j, i] = blocks[i, j].T
        return MappingProxyType(dict(sorted(blocks.items())))

    @property
    def nnz(self):
        """Nonzero entries of both triangles."""
        if self.layout.dense:
            return int(np.count_nonzero(self.data))
        diagonal = sum(np.count_nonzero(panel[:, : len(panel)]) for _, panel, _, _ in self.panels)
        return int(2 * np.count_nonzero(self.data) - diagonal)

    def matvec(self, v):
        wrap = isinstance(v, CoefficientVector)
        if wrap and v.basis is not self.basis:
            raise ValueError("basis mismatch: coefficients belong to another basis")
        arr = v.slots if wrap else np.asarray(v, dtype=float)
        if arr.shape != (self.n,):
            raise ValueError(f"dim mismatch: expected ({self.n},), got {arr.shape}")
        out = np.empty(self.n)
        if self.layout.dense:
            np.matmul(self.data.reshape(self.n, self.n), arr, out=out)
        else:
            # the mirror blocks: each strict-upper part's transposed product
            # lands at its columns' places in one buffer (zero at diagonal
            # blocks), which then adds to the rows those columns name
            mirror = np.zeros(len(self.layout.cols))
            for rows, panel, cols, strict in self.panels:
                np.matmul(panel, arr[cols], out=out[rows])
                np.matmul(arr[rows], panel[:, len(panel) :], out=mirror[strict])
            out += np.bincount(self.layout.cols, mirror, self.n)
        return CoefficientVector(out, self.basis) if wrap else out

    def __matmul__(self, v):
        return self.matvec(v)  # looked up per call, so a wrapped matvec sees it too

    def to_dense(self) -> np.ndarray:
        if self.n > DENSE_GUARD:
            raise ValueError(f"dense guard exceeded: {self.n} > {DENSE_GUARD}")
        if self.layout.dense:
            return self.data.reshape(self.n, self.n).copy()
        out = np.zeros((self.n, self.n))
        for rows, panel, cols, _ in self.panels:
            out[rows, cols] = panel
            out[cols[len(panel) :], rows] = panel[:, len(panel) :].T
        return out


def compress_assemble(
    basis, spec, eta: float, interp_degree: int = 6
) -> CompressedKernelMatrix:
    """Assemble the compressed kernel matrix.

    Retained pairs are all cluster pairs failing the separation test; they
    are enumerated level by level from (root, root) by single-sided descents,
    which covers pairs of clusters on different levels.  One block of each
    pair and its mirror is computed, deepest total level first, in stacked
    batches of one block shape: non-admissible leaf-leaf pairs exactly from
    the points, the others by refining their row cluster over the blocks
    one level deeper (a pair whose column cluster is the one to refine is
    computed as its mirror).  Those are the retained pairs there and the
    admissible fringe, evaluated once each: as W_a^T K(P_a, P_b) W_b from
    its clusters' point weights where that costs no more than on Chebyshev
    grids, by interpolation on the grids otherwise.  Everything beyond the
    fringe is never materialized.  A computed block hands its scaling rows
    straight to the input of the pairs one level up that refine into it,
    and its transposed scaling columns to those that refine into its
    mirror, so blocks live only in their batch and two levels' inputs at a
    time; its samplet part goes straight into the operator's data.
    """
    if not eta > 0:
        raise ValueError("eta must be positive")
    if interp_degree < 0:
        raise ValueError("interpolation degree must be >= 0")
    tree = basis.tree
    layout = _Layout(basis, eta)
    cheb = _Chebyshev(tree, interp_degree)
    groups, gid, pos = basis.groups, basis.group, basis.position
    n, n_in, n_sc = len(tree.level), basis.n_in, basis.n_sc
    keep = n_in - layout.width  # leading rows not stored; 0 at the root
    children, level, size = tree.children, tree.level, tree.size
    leaf = children[:, 0] < 0
    i, j = layout.pairs[layout.pairs[:, 0] <= layout.pairs[:, 1]].T
    # a pair refines the coarser of its clusters that are not leaves, i on a
    # tie; it is turned so that this is its row cluster
    turn = ~leaf[j] & (leaf[i] | (level[i] > level[j]))
    i, j = np.where(turn, j, i), np.where(turn, i, j)
    kind = np.where(leaf[i] & leaf[j], _EXACT, _ROWS)
    # the fringe: child pairs that retained pairs refine into and that are
    # not retained themselves
    up = kind == _ROWS
    c, f = children[i[up]].ravel(), np.repeat(j[up], 2)
    fringe = _unique(np.minimum(c, f) * n + np.maximum(c, f))
    a, b = np.divmod(fringe[~np.isin(fringe, np.minimum(i, j) * n + np.maximum(i, j))], n)
    # exact from points where the kernel entries and the products W_a^T S W_b
    # cost no more than on the two grids
    na, nb, G = n_in[a], n_in[b], cheb.size
    exact = size[b] * (size[a] * (1 + na) + na * nb) <= G * (G * (1 + na) + na * nb)
    i, j = np.append(i, a), np.append(j, b)
    kind = np.append(kind, np.where(exact, _POINTS, _GRID))
    # the data positions of the upper blocks (clipped, so meaningless, for
    # pairs that store nothing)
    code = np.minimum(i, j) * n + np.maximum(i, j)
    at = np.take(layout.at, np.searchsorted(layout.code, code), mode="clip")
    # all pairs by total level, in batches of one block shape: one per kind,
    # pair of level groups and, for the fringe from points, pair of sizes;
    # level t's pairs are edge[t] : edge[t + 1]
    sized = kind == _POINTS
    batch = np.stack([level[i] + level[j], kind, gid[i], gid[j], size[i] * sized, size[j] * sized])
    order = np.lexsort(batch[::-1])
    i, j, kind, at, batch = i[order], j[order], kind[order], at[order], batch[:, order]
    edge = np.searchsorted(batch[0], np.arange(2 * tree.depth + 2)).tolist()
    first = np.diff(batch, prepend=-1).any(axis=0)  # a pair opens a batch
    # a refined pair (i, j) reads X = vstack(block(c, j)[:n_sc[c]] for the
    # children c of i); level t's input, of inputs[t + 1] - inputs[t] doubles,
    # holds its refined pairs' X one after the other, each from `start`
    refine = kind == _ROWS
    end = np.cumsum(np.where(refine, n_in[i] * n_in[j], 0))
    inputs = np.append(0, end)[edge]
    start = end - n_in[i] * n_in[j] - inputs[batch[0]]
    c, f = children[i[refine]], j[refine]
    read = start[refine, None] + np.outer(n_sc[c[:, 0]] * n_in[f], [0, 1])
    # each read keyed by the block (c, f) whose scaling rows it takes; no such
    # block is read twice.  `to`: where a computed block (a, b) sends its
    # scaling rows X[:n_sc[a]] (key (a, b)) and its transposed scaling columns
    # X[:, :n_sc[b]].T (key (b, a), none for a diagonal block) in the level
    # above's input, -1 where none are read
    key = (c * n + f[:, None]).ravel()
    by_key = np.argsort(key)
    key = np.append(key[by_key], n * n)
    read = np.append(read.ravel()[by_key], -1)
    want = np.stack([i * n + j, np.where(i == j, -1, j * n + i)])
    found = np.searchsorted(key, want)
    to = np.where(key[found] == want, read[found], -1)
    del code, batch, end, c, f, read, key, by_key, want, found  # before the loop allocates
    points, dim = tree.points.reshape(-1), tree.cloud.dim

    def points_of(c, s):  # the points of a stack of clusters of s points each
        return _blocks_at(points, s, dim, dim)[dim * tree.start[c]]

    # point weights, one zero-padded stack per level group, and `wrow`, a
    # cluster's row in it: q for leaves, the weight sweep's for the interior
    # clusters of the fringe
    wanted = (np.bincount(np.append(a, b), minlength=n) > 0) & ~leaf
    wrow, weights = np.full(n, -1), []
    for group in groups:
        held = group.index if group.leaf else group.index[wanted[group.index]]
        wrow[held] = np.arange(len(held))
        shape = (len(held), size[group.index].max(), n_in[group.index[0]])
        weights.append(group.q if group.leaf else np.zeros(shape))

    def hold(i, w):
        if wanted[i]:
            weights[gid[i]][wrow[i], : len(w)] = w

    cluster_weight_matrix(basis, 0, hold)
    # interpolation factors Lambda_c(P_c)^T W_c of the clusters of the
    # interpolated fringe, where Lambda_c holds c's grid polynomials
    on_grid = np.bincount(np.append(a[~exact], b[~exact]), minlength=n) > 0
    frow, factors = np.full(n, -1), []
    for g, group in enumerate(groups):
        idx = group.index[on_grid[group.index]]
        frow[idx] = np.arange(len(idx))
        factors.append(np.empty((len(idx), G, n_in[group.index[0]])))
        for s in _unique(size[idx]).tolist():
            of_size = idx[size[idx] == s]
            for part in _batches(len(of_size), s * G):
                c = of_size[part]
                ev = cheb.lagrange(c, points_of(c, s)).transpose(0, 2, 1)
                factors[g][frow[c]] = np.matmul(ev, weights[g][wrow[c], :s])

    # the plan arrays the level loop does not read
    del turn, up, fringe, a, b, exact, sized, refine, wanted, on_grid
    data = np.zeros(layout.size)
    above = np.empty(0)
    for lev in range(2 * tree.depth, -1, -1):
        # this level's input, which the level below wrote (no view of the one
        # before survives), and the next level's, which this one writes
        x, X = above, None
        above = np.empty(inputs[lev] - inputs[lev - 1] if lev else 0)
        starts = (edge[lev] + np.flatnonzero(first[edge[lev] : edge[lev + 1]])).tolist()
        for s, e in zip(starts, starts[1:] + [edge[lev + 1]]):
            k, ga, gb, na, nb = kind[s], gid[i[s]], gid[j[s]], n_in[i[s]], n_in[j[s]]
            sa, sb = size[i[s]], size[j[s]]
            wide = {_POINTS: max(sa * sb, sa * na, sb * nb), _GRID: G * G}
            if k >= _POINTS:
                x = X = None  # the level's refinements, which read its input, have run
            for part in _batches(e - s, wide.get(k, na * nb)):
                part = slice(s + part.start, s + part.stop)
                ai, bi = i[part], j[part]
                out = np.empty((len(ai), na, nb))
                if k == _GRID:
                    fa, fb = factors[ga][frow[ai]], factors[gb][frow[bi]]
                    S = kernel_matrix(spec, cheb.grids(ai), cheb.grids(bi))
                    np.matmul(np.matmul(fa.transpose(0, 2, 1), S), fb, out=out)
                elif k in (_EXACT, _POINTS):
                    wa, wb = weights[ga][wrow[ai], :sa], weights[gb][wrow[bi], :sb]
                    S = kernel_matrix(spec, points_of(ai, sa), points_of(bi, sb))
                    np.matmul(np.matmul(wa.transpose(0, 2, 1), S), wb, out=out)
                else:
                    qa = groups[ga].q[pos[ai]]
                    X = x[start[part.start] :][: out.size].reshape(out.shape)
                    np.matmul(qa.transpose(0, 2, 1), X, out=out)
                diag = ai == bi
                if diag.any():
                    out[diag] = 0.5 * (out[diag] + out[diag].transpose(0, 2, 1))
                # the scaling rows go to the pairs of the level above that
                # refine into these blocks, the scaling columns transposed to
                # those that refine into their mirrors
                sent = out[:, : n_sc[ai[0]]], out[:, :, : n_sc[bi[0]]].transpose(0, 2, 1)
                for dest, rows in zip(to[:, part], sent):
                    has = dest >= 0
                    if has.any():
                        has = slice(None) if has.all() else has  # a view, no copy
                        _, h, w = rows.shape
                        _blocks_at(above, h, w, w)[dest[has]] = rows[has]
                if k >= _POINTS:
                    continue  # fringe blocks are not stored
                # the samplet x samplet part, which no pair above reads
                stored = out[:, keep[ai[0]] :, keep[bi[0]] :]
                if stored.size:
                    mag = np.abs(stored)
                    stored[mag < ENTRY_DROP * mag.max(axis=(1, 2), keepdims=True)] = 0.0
                    layout.place(data, at[part], ai, bi, stored)
    if layout.dense:
        _mirror(data.reshape(basis.n, basis.n))
    return CompressedKernelMatrix(basis, layout, data)


def add_compressed(
    a: CompressedKernelMatrix, b: CompressedKernelMatrix
) -> CompressedKernelMatrix:
    """Blockwise sum; both operands must share a basis.  The pattern of the
    larger eta holds both operands' patterns, so it is their union: the sum
    takes that operand's layout and adds the other one's upper panels to a
    copy of its data."""
    if a.basis is not b.basis:
        raise ValueError("basis mismatch: operands built over different bases")
    if a.layout.eta < b.layout.eta:
        a, b = b, a
    total = CompressedKernelMatrix(a.basis, a.layout, a.data.copy())
    if b.data.size == a.data.size:  # both dense, or both of one pattern
        total.data += b.data
    elif a.layout.dense:  # b's panels add at their own rows and columns
        square = total.data.reshape(a.n, a.n)
        for rows, add, cols, _ in b.panels:
            square[rows, cols] += add
        _mirror(square, [rows for rows, _, _, _ in b.panels])
    else:  # panels of the same row clusters, whose columns hold b's
        for (_, panel, own, _), (_, add, cols, _) in zip(total.panels, b.panels):
            panel[:, np.searchsorted(own, cols)] += add
    return total


@dataclass
class CompressionRow:
    moment_degree: int
    nnz: int
    rel_frobenius_error: float


def compression_error_report(basis, spec, eta, moment_degrees, interp_degree=6):
    """Accuracy/size sweep over the vanishing-moment degree.

    Rebuilds the basis for each degree on the same cluster tree, compresses,
    and reports nonzeros plus the relative Frobenius distance to the dense
    samplet-coordinate matrix.
    """
    tree = basis.tree
    K = dense_kernel_matrix(spec, tree.cloud)
    rows = []
    for q in moment_degrees:
        b = build_samplet_basis(tree, q)
        dense = transform_matrix_congruence(b, K)
        comp = compress_assemble(b, spec, eta, interp_degree)
        err = float(np.linalg.norm(comp.to_dense() - dense) / np.linalg.norm(dense))
        rows.append(CompressionRow(q, comp.nnz, err))
    return rows


_MAGIC = b"SMPB"
_VERSION = 3
_PREAMBLE = 36  # magic plus the "<IQIdQ" header


def save_compressed(m: CompressedKernelMatrix, path):
    """Write the documented binary container (little-endian): the header,
    the upper blocks' (row, col) cluster pairs, then their entries in the
    panel form's order, gathered one row cluster at a time from the N x N
    array in the dense form."""
    layout = m.layout
    with open(path, "wb") as fh:
        fh.write(_MAGIC + struct.pack("<IQIdQ", _VERSION, m.n, m.basis.moment_degree,
                                      layout.eta, len(layout.keys)))
        fh.write(layout.keys.astype("<u8"))
        if layout.dense:
            square = m.data.reshape(m.n, m.n)
            for rows, cols in layout.patterns():
                fh.write(np.take(square[rows], cols, axis=1).astype("<f8", copy=False))
        else:
            fh.write(m.data.astype("<f8", copy=False))


def load_compressed(path, basis) -> CompressedKernelMatrix:
    """Read a matrix container.  The basis must match the stored N and
    degree, the file's size the layout that the stored eta gives on the
    basis's tree, checked before any value is read, and the stored pairs
    exactly that layout's upper blocks.  The entries are read straight into
    the panel form's data, or one row cluster at a time into the upper
    triangle of the N x N array, whose lower one is then copied from it off
    the diagonal blocks, which are kept as stored."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError(f"not a compressed-matrix file (magic {magic!r})")
        head = fh.read(_PREAMBLE - 4)
        if len(head) != _PREAMBLE - 4:
            raise ValueError(f"truncated header: {4 + len(head)} of {_PREAMBLE} bytes")
        version, n, degree, eta, n_blocks = struct.unpack("<IQIdQ", head)
        if version != _VERSION:
            raise ValueError(f"unsupported container version {version}")
        if n != basis.n or degree != basis.moment_degree:
            raise ValueError(
                f"container (N={n}, degree={degree}) does not match basis "
                f"(N={basis.n}, degree={basis.moment_degree})"
            )
        if not eta > 0:
            raise ValueError("eta must be positive")
        layout = _Layout(basis, eta)
        keys = layout.keys
        size = os.fstat(fh.fileno()).st_size
        expected = _PREAMBLE + 16 * len(keys) + 8 * layout.upper
        if (n_blocks, size) != (len(keys), expected):
            raise ValueError(
                f"{n_blocks} blocks in {size} bytes: the file is truncated or does "
                f"not match the {len(keys)} blocks in {expected} bytes of eta={eta} "
                "on this basis"
            )
        got = np.frombuffer(fh.read(keys.size * 8), "<u8").reshape(keys.shape)
        bad = np.flatnonzero((got != keys).any(axis=1))
        if len(bad):
            raise ValueError(
                f"block (row, col) = {tuple(got[bad[0]].tolist())} does not match "
                f"the basis, which gives {tuple(keys[bad[0]].tolist())}"
            )
        data = np.zeros(layout.size, "<f8")
        if layout.dense:
            patterns = layout.patterns()
            for rows, cols in patterns:
                shape = (rows.stop - rows.start, len(cols))
                values = np.frombuffer(fh.read(8 * shape[0] * shape[1]), "<f8")
                data.reshape(n, n)[rows, cols] = values.reshape(shape)
            _mirror(data.reshape(n, n), [rows for rows, _ in patterns])
        elif fh.readinto(data) != data.nbytes:
            raise ValueError(f"truncated data: {path} changed while it was read")
    return CompressedKernelMatrix(basis, layout, data)
