"""Property tests of the paper's invariants over degenerate point clouds.

Clouds of 1 to 300 sites in 1 to 6 dimensions: uniform, duplicated and
collinear sites, shifted by 1e8 or scaled by 1e-9, and clouds below the
leaf size.  Every property holds on every cloud: an orthonormal dense
transform, vanishing moments, a forward/inverse round trip, a compressed
operator that is exactly symmetric, multiplies as its dense matrix does and
is saved to the same bytes in both storage forms, and a cluster tree that
splits each cluster at the median of its longest axis.  The runs are
derandomized, so a failure reproduces.
"""

import itertools
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from samplets import (
    Matern,
    assemble_dense_transform,
    build_basis,
    build_cluster_tree,
    compress_assemble,
    forward_transform,
    inverse_transform,
    load_compressed,
    save_compressed,
)
from samplets import compression
from samplets.construction import default_leaf_size, monomial_exponents, monomial_values

KINDS = ("uniform", "duplicates", "collinear", "below-leaf")
properties = settings(max_examples=25, derandomize=True, database=None, deadline=None)


def _cloud(seed, dim, n, kind, degree, offset, scale):
    """Sites of one degenerate kind, shifted by `offset` and scaled by
    `scale`, and the moment degree of their basis."""
    rng = np.random.default_rng(seed)
    if kind == "below-leaf":
        n = 1 + n % (default_leaf_size(degree, dim) - 1)
    if kind == "duplicates":
        sites = rng.random((1 + n // 8, dim))
        pts = sites[rng.integers(len(sites), size=n)]
    elif kind == "collinear":
        pts = rng.random(dim) + rng.random((n, 1)) * rng.standard_normal(dim)
    else:
        pts = rng.random((n, dim))
    return offset + scale * pts, degree


clouds = st.builds(
    _cloud,
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 6),
    n=st.integers(1, 300),
    kind=st.sampled_from(KINDS),
    degree=st.integers(0, 2),
    offset=st.sampled_from([0.0, 1e8]),
    scale=st.sampled_from([1.0, 1e-9]),
)


def _in_each_form(basis):
    """The compressed operator of the basis, assembled in the dense form and
    in the panel form: every share of N x N held as one array, then none."""
    for share in (0.0, 2.0):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(compression, "_DENSE_SHARE", share)
            A = compress_assemble(basis, Matern(0.5, 0.1), eta=1.25, interp_degree=2)
        assert A.layout.dense == (share == 0.0)
        yield A, share


def _each_kind(test):
    """Besides the draws, every kind once at the largest size and dimension,
    each with another shift and scale."""
    shifts = [(0.0, 1.0), (1e8, 1.0), (0.0, 1e-9), (1e8, 1e-9)]
    for k, (kind, (offset, scale)) in enumerate(zip(KINDS, shifts)):
        test = example(_cloud(k, 6, 300, kind, 2, offset, scale))(test)
    return test


@properties
@_each_kind
@example((np.indices((6, 6, 2)).reshape(3, -1).T[::-1] * 1.0, 0))  # ties everywhere
@given(clouds)
def test_tree_splits_at_the_median_in_index_order(cloud):
    pts, degree = cloud
    leaf_size = default_leaf_size(degree, pts.shape[1])
    tree = build_cluster_tree(pts, leaf_size)
    # the children arrays, walked depth first, visit every id once in pre-order
    order, stack = [], [0]
    while stack:
        order.append(stack.pop())
        stack.extend(k for k in tree.children[order[-1], ::-1].tolist() if k >= 0)
    assert order == list(range(len(tree.level)))
    assert (tree.start[0], tree.size[0], tree.parent[0]) == (0, len(pts), -1)
    for i in order:
        start, size = tree.start[i], tree.size[i]
        idx = tree.permutation[start : start + size]
        lo, hi = pts[idx].min(axis=0), pts[idx].max(axis=0)
        assert np.array_equal(tree.lo[i], lo) and np.array_equal(tree.hi[i], hi)
        assert tree.diam[i] == np.linalg.norm(hi - lo)
        left, right = tree.children[i]
        if left < 0:
            assert right < 0 and size <= leaf_size
            assert (np.diff(idx) > 0).all()  # a leaf keeps original-index order
            continue
        assert size > leaf_size
        assert tree.parent[left] == tree.parent[right] == i
        assert tree.level[left] == tree.level[right] == tree.level[i] + 1
        half = (size + 1) // 2
        assert (tree.start[left], tree.size[left]) == (start, half)
        assert (tree.start[right], tree.size[right]) == (start + half, size - half)
        # the left child: the first half by (coordinate on the longest axis,
        # lowest axis on ties; original index)
        axis = np.argmax(hi - lo)
        first = idx[np.lexsort((idx, pts[idx, axis]))[:half]]
        assert np.array_equal(np.sort(idx[:half]), np.sort(first))


@properties
@_each_kind
@given(clouds)
def test_dense_transform_orthonormal(cloud):
    pts, degree = cloud
    T = assemble_dense_transform(build_basis(pts, degree))
    assert np.abs(T @ T.T - np.eye(len(pts))).max() <= 1e-12


@properties
@_each_kind
@given(clouds)
def test_samplets_annihilate_polynomials(cloud):
    # measured as _relative_moment_error does, in a frame centred on the
    # cloud's box and scaled to it, so that 1e8 offsets and 1e-9 scales do
    # not swamp the monomials
    pts, degree = cloud
    basis = build_basis(pts, degree)
    W = assemble_dense_transform(basis)[basis.n_scaling :]
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    half = 0.5 * np.linalg.norm(hi - lo)
    local = (pts - 0.5 * (lo + hi)) / (half if half > 0 else 1.0)
    M = monomial_values(local, monomial_exponents(pts.shape[1], degree))
    raw = np.abs(W @ M.T)
    bound = np.abs(W).sum(axis=1)[:, None] * np.abs(M).max(axis=1)[None, :]
    assert (raw <= 1e-10 * bound).all()


@properties
@_each_kind
@given(clouds)
def test_round_trip(cloud):
    pts, degree = cloud
    basis = build_basis(pts, degree)
    f = np.random.default_rng(len(pts)).standard_normal((len(pts), 2))
    back = inverse_transform(basis, forward_transform(basis, f))
    assert np.abs(back - f).max() <= 1e-12 * np.abs(f).max()


@properties
@_each_kind
@given(clouds)
def test_compressed_operator_exactly_symmetric(cloud):
    # in both forms: the dense matrix, the product and the mirror blocks,
    # which the panel form does not store
    pts, degree = cloud
    basis = build_basis(pts, degree)
    v = np.random.default_rng(len(pts)).standard_normal(len(pts))
    dense = []
    for A, _ in _in_each_form(basis):
        D = A.to_dense()
        assert np.array_equal(D, D.T)  # NaN entries would fail too
        want = D @ v
        assert np.linalg.norm(A @ v - want) <= 1e-14 * np.linalg.norm(want)
        for (i, j), block in A.blocks.items():
            assert np.array_equal(block.view(np.uint64), A.blocks[j, i].T.view(np.uint64))
        dense.append(D)
    assert np.array_equal(*dense)


@properties
@_each_kind
@given(clouds)
def test_smpb_round_trip(tmp_path_factory, cloud):
    # in both forms, each file loaded in the form it was saved from
    pts, degree = cloud
    basis = build_basis(pts, degree)
    path = tmp_path_factory.mktemp("smpb") / "matrix.smpb"
    files = []
    for A, share in _in_each_form(basis):
        save_compressed(A, path)
        # the documented layout: the upper pairs (i <= j), then per row
        # cluster its upper blocks side by side, row-major
        upper = {key: b for key, b in A.blocks.items() if key[0] <= key[1]}
        head = struct.pack("<IQIdQ", 3, len(pts), degree, 1.25, len(upper))
        keys = np.array(list(upper), "<u8").tobytes()
        rows = itertools.groupby(upper.items(), key=lambda item: item[0][0])
        body = b"".join(np.hstack([b for _, b in row]).astype("<f8").tobytes() for _, row in rows)
        raw = path.read_bytes()
        assert raw == b"SMPB" + head + keys + body
        assert len(raw) == 36 + 16 * len(upper) + 8 * A.layout.upper
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(compression, "_DENSE_SHARE", share)
            B = load_compressed(path, basis)
        assert np.array_equal(B.data.view(np.uint64), A.data.view(np.uint64))
        save_compressed(B, path)
        assert path.read_bytes() == raw
        files.append(raw)
    assert files[0] == files[1]  # the bytes do not depend on the form
