"""Construction of orthonormal samplet bases with vanishing polynomial moments.

Every cluster of the tree receives an orthogonal two-scale transform obtained
from a QR factorization of its moment matrix.  The first block of columns
spans the scaling distributions handed to the parent, the remaining columns
are samplets annihilating all polynomials up to the requested total degree.
Clusters of one level with equal block sizes are factorized together, so
the construction costs a few numpy calls per tree level.
"""

from __future__ import annotations

from math import comb

import numpy as np
from numpy.linalg import _umath_linalg

from .points import PointCloud
from .tree import ClusterTree, build_cluster_tree


def monomial_exponents(dim: int, degree: int) -> np.ndarray:
    """Exponent multi-indices with total degree <= degree, graded order.

    Within one total degree the indices are ordered lexicographically with
    the leading axis dominant, so dim=2, degree=1 yields (0,0), (1,0), (0,1)
    i.e. the monomials 1, x0, x1.
    """
    rows = []

    def fill(prefix, remaining, axes_left):
        if axes_left == 1:
            rows.append(prefix + [remaining])
            return
        for e in range(remaining, -1, -1):
            fill(prefix + [e], remaining - e, axes_left - 1)

    for total in range(degree + 1):
        fill([], total, dim)
    return np.array(rows, dtype=int)


def moment_count(degree: int, dim: int) -> int:
    """Dimension of the space of polynomials with total degree <= degree."""
    return comb(degree + dim, dim)


def monomial_values(points: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """Matrix of x^alpha, one row per exponent, one column per point."""
    return np.prod(points[None, :, :] ** exponents[:, None, :], axis=2)


def moment_shift_matrix(exponents, scale_ratio, offset):
    """Re-expansion of monomials between two local coordinate frames.

    If y are coordinates in the source frame and x = scale_ratio * y + offset
    in the target frame, returns S with x^alpha = sum_beta S[alpha, beta] y^beta,
    so target-frame moment matrices are S @ source-frame moment matrices.
    By the binomial theorem S[alpha, beta] = r^|beta| prod_k C(alpha_k, beta_k)
    o_k^(alpha_k - beta_k) for beta <= alpha, and 0 otherwise.  A stack of c
    frames (scale_ratio of shape (c,), offset (c, dim)) gives a (c, m, m) stack.
    Powers are scalar `**` tables and the axis factors multiply in axis
    order, so every entry is rounded exactly as in the term-by-term expansion.
    """
    exponents = np.asarray(exponents)
    dim = exponents.shape[1]
    ratios = np.asarray(scale_ratio, dtype=float)
    offsets = np.asarray(offset, dtype=float).reshape(-1, dim)
    top = int(exponents.max(initial=0))
    total = exponents.sum(axis=1)
    diff = exponents[:, None, :] - exponents[None, :, :]
    below = (diff >= 0).all(axis=2)
    diff = np.where(below[:, :, None], diff, 0)
    pascal = np.array([[comb(a, b) for b in range(top + 1)] for a in range(top + 1)])
    binom = pascal[exponents[:, None, :], exponents[None, :, :]].astype(float)
    powers = range(int(total.max(initial=0)) + 1)
    r_pow = np.array([[r**e for e in powers] for r in ratios.reshape(-1).tolist()])
    o_pow = np.array(
        [[[o**e for e in range(top + 1)] for o in row] for row in offsets.tolist()]
    )
    S = r_pow[:, None, total]
    for k in range(dim):
        S = S * (binom[:, :, k] * o_pow[:, k, diff[:, :, k]])
    S = np.where(below, S, 0.0)
    return S.reshape(ratios.shape + below.shape)


class ClusterTransform:
    """Orthogonal two-scale transform of one cluster.

    `q` (n_in x n_in) combines the n_in incoming distributions (Diracs at a
    leaf, children's scaling distributions otherwise): its first `n_scaling`
    columns generate the scaling distributions, the rest the samplets.  `q`
    is the cluster's matrix in the stack of its level group.
    """

    __slots__ = ("group", "position")

    def __init__(self, group, position):
        self.group = group
        self.position = position

    @property
    def q(self):
        return self.group.q[self.position]

    @property
    def n_scaling(self):
        return self.group.n_scaling

    @property
    def q_phi(self):
        return self.q[:, : self.n_scaling]

    @property
    def q_sigma(self):
        return self.q[:, self.n_scaling :]

    @property
    def n_in(self):
        return self.group.gather.shape[1]

    @property
    def n_samplets(self):
        return self.n_in - self.n_scaling


class LevelGroup:
    """Clusters of one tree level, all leaves or all interior, with equal
    n_in (hence equal n_scaling).

    `index` lists their pre-order ids.  Row `gather[c, i]` holds the i-th
    incoming distribution of the c-th cluster: a point index (original
    order) in a leaf group, a row of the sweep buffer of the SampletBasis
    otherwise.  Buffer row `scatter[c, j]` receives its j-th generated
    distribution (scaling distributions first, then samplets).

    The transforms are stored in compact WY form: with S = diag(sign) the
    +-1 column signs (int8), V (n_in x k) the k = min(n_in, m) Householder
    reflectors of the QR and T (k x k) their triangular factor, Q = (I - V T
    V^T) S = S (I - U T U^T) for U = S V; `ut` holds U^T.  The sweeps read
    about 8k + 1 bytes per incoming value, fewer than the 8 n_in of an
    explicit Q whenever the moment matrix is thin.  The explicit stack `q`
    is formed on first use.

    `analyze` and `synthesize` take stacks with or without a trailing column
    axis (clusters x n_in [x cols]) and work in the memory of their input.
    """

    __slots__ = (
        "level", "leaf", "index", "n_scaling", "gather", "scatter", "ut", "t",
        "sign", "_q",
    )

    def __init__(self, level, leaf, index, n_scaling, gather, scatter):
        self.level = level
        self.leaf = leaf
        self.index = index
        self.n_scaling = n_scaling
        self.gather = gather
        self.scatter = scatter
        self._q = None

    def factorize(self, moments):
        """Deterministic Householder QR of the stacked transposed moment
        matrices (clusters x n_in x m): sets the transforms and returns R."""
        h, tau = np.linalg.qr(moments, mode="raw")
        k = tau.shape[-1]
        R = np.triu(h.transpose(0, 2, 1))
        vt = np.triu(h[:, :k, :], 1)
        vt[:, np.arange(k), np.arange(k)] = 1.0
        del h
        sign = _fix_signs(_form_q(vt, tau), R)
        self.t = _triangular_factor(vt, tau)  # also the factor of U = S V
        vt *= sign[:, None, :]
        self.ut = vt
        self.sign = sign.astype(np.int8)
        return R

    @property
    def q(self):
        """The stacked transforms (clusters x n_in x n_in)."""
        if self._q is None:
            sign = self.sign[:, None, :]
            tau = np.diagonal(self.t, axis1=1, axis2=2)  # T's diagonal is tau
            self._q = _form_q(self.ut * sign, tau) * sign
        return self._q

    def analyze(self, x):
        """Q^T x for a stack x of incoming values."""
        x *= self.sign.reshape(self.sign.shape + (1,) * (x.ndim - 2))
        z = _matmul(self.t.transpose(0, 2, 1), _matmul(self.ut, x))
        x -= _matmul(self.ut.transpose(0, 2, 1), z)
        return x

    def synthesize(self, x):
        """Q x for a stack x of generated values."""
        z = _matmul(self.t, _matmul(self.ut, x))
        x -= _matmul(self.ut.transpose(0, 2, 1), z)
        x *= self.sign.reshape(self.sign.shape + (1,) * (x.ndim - 2))
        return x


def _matmul(a, x):
    """a @ x for a stack of matrices a and a stack x of vectors or matrices."""
    if x.ndim == 2:
        return np.matmul(a, x[..., None])[..., 0]
    return np.matmul(a, x)


def _form_q(vt, tau):
    """Explicit Q = H_1 ... H_k (clusters x n x n) of the reflectors, given
    as unit upper trapezoidal V^T (clusters x k x n), and their factors tau.

    Runs numpy's own Q-forming kernel (LAPACK orgqr), the one behind
    np.linalg.qr(..., mode="complete"), so Q equals that result bit for bit.
    """
    return _umath_linalg.qr_complete(vt.transpose(0, 2, 1), tau, signature="dd->d")


def _triangular_factor(vt, tau):
    """Upper triangular T with H_1 ... H_k = I - V T V^T, built column by
    column (LAPACK's larft recurrence) from V^T (clusters x k x n) and tau."""
    k = tau.shape[-1]
    gram = np.matmul(vt, vt.transpose(0, 2, 1))
    t = np.zeros(tau.shape + (k,))
    for j in range(k):
        t[:, j, j] = tau[:, j]
        t[:, :j, j] = -tau[:, j, None] * np.einsum(
            "cij,cj->ci", t[:, :j, :j], gram[:, :j, j]
        )
    return t


def local_frames(tree):
    """Center and half-diagonal scale (1 for a degenerate box) per cluster."""
    scales = 0.5 * tree.diam
    return 0.5 * (tree.lo + tree.hi), np.where(scales > 0.0, scales, 1.0)


def dirac_moments(points, exponents, center, scale):
    """Moments of point Diracs in a local frame: monomials of (points -
    center) / scale, shape (..., n, m) for points of shape (..., n, dim)."""
    local = (points - center) / scale
    values = monomial_values(local.reshape(-1, local.shape[-1]), exponents)
    return values.T.reshape(local.shape[:-1] + (len(exponents),))


def _fix_signs(Q, R):
    """Make a stack of factorizations deterministic, in place: nonnegative
    diagonal of R, and null-space columns oriented so their first significant
    entry is positive.  Returns the column signs applied to Q."""
    k = min(R.shape[-2:])
    null = Q[..., k:]
    mag = np.abs(null)
    lead = np.argmax(mag > 1e-12 * mag.max(axis=-2, keepdims=True), axis=-2)
    flip = np.concatenate(
        [
            np.diagonal(R, axis1=-2, axis2=-1) < 0.0,
            np.take_along_axis(null, lead[..., None, :], axis=-2)[..., 0, :] < 0.0,
        ],
        axis=-1,
    )
    sign = np.where(flip, -1.0, 1.0)
    Q *= sign[..., None, :]
    R[..., :k, :] *= sign[..., :k, None]
    return sign


class SampletBasis:
    """Samplet basis over a cluster tree: one transform per cluster plus a
    global enumeration of coefficient slots.

    Slot order: the root's scaling distributions first, then each cluster's
    samplets with clusters in pre-order, samplets in QR column order.  The
    root's slots are therefore the contiguous leading block.

    `samplet_offsets` and `samplet_counts` give each cluster's samplet slots
    by pre-order id; `slots` (clusters x 2) holds the stored-slot ranges,
    which tile 0..N in pre-order (the root's range also spans the scaling
    slots).

    `groups` batches the transforms by level, deepest first, over a sweep
    buffer of `sweep_rows` rows: the scaling distributions of every non-root
    cluster (siblings adjacent, level by level), then the coefficient slots
    from row `slot_row` on.
    """

    def __init__(
        self, tree, moment_degree, carry_degree, transforms, offsets, groups, slot_row
    ):
        self.tree = tree
        self.moment_degree = moment_degree
        self.carry_degree = carry_degree
        self.transforms = transforms
        self.samplet_offsets = offsets
        self.groups = groups
        self.slot_row = slot_row
        self.sweep_rows = slot_row + tree.n_points
        self.n_scaling = transforms[tree.root.index].n_scaling
        ends = np.append(offsets[1:], tree.n_points)  # offsets tile in pre-order
        self.samplet_counts = ends - offsets
        self.slots = np.stack([offsets, ends], axis=1)
        self.slots[tree.root.index, 0] = 0

    @property
    def n(self):
        return self.tree.n_points

    def samplet_slots(self, cluster):
        """Half-open slot range of the cluster's samplet coefficients."""
        off = self.samplet_offsets[cluster.index]
        return off, off + self.samplet_counts[cluster.index]

    def stored_slots(self, cluster):
        """Slot range a kernel block for this cluster covers; the root block
        also spans the scaling slots."""
        return tuple(self.slots[cluster.index])

    def samplet_levels(self):
        """Level of the cluster owning each slot; root scaling slots get -1."""
        levels = np.repeat(self.tree.level, self.samplet_counts)
        return np.concatenate([np.full(self.n_scaling, -1), levels])


def default_leaf_size(moment_degree: int, dim: int) -> int:
    """Smallest leaf size at which every leaf can host a full scaling block."""
    return max(2 * moment_count(moment_degree, dim), 2)


def _level_groups(tree, n_scaling_cap):
    """Slot offsets, level groups (transforms not yet set) and the first
    coefficient row of the sweep buffer.

    The counts follow from the tree alone: a leaf takes its points as
    incoming distributions, an interior cluster its children's scaling
    distributions, and every cluster keeps min(cap, n_in) of them.
    """
    clusters = tree.clusters
    root = tree.root.index
    n_in = np.empty(len(clusters), dtype=int)
    for c in tree.postorder:
        n_in[c.index] = c.size if c.is_leaf else sum(
            min(n_in[ch.index], n_scaling_cap) for ch in c.children
        )
    n_sc = np.minimum(n_in, n_scaling_cap)
    n_samplets = n_in - n_sc
    offsets = n_sc[root] + np.cumsum(n_samplets) - n_samplets  # pre-order
    level = tree.level
    is_leaf = tree.children[:, 0] < 0
    rest = np.lexsort((np.arange(len(clusters)), level))[1:]  # non-root, by level
    up = np.empty(len(clusters), dtype=int)
    up[rest] = np.cumsum(n_sc[rest]) - n_sc[rest]
    slot_row = int(n_sc[rest].sum())
    up[root] = slot_row  # the root's scaling distributions lead the slots
    first = np.where(is_leaf, tree.start, up[tree.children[:, 0]])
    groups = []
    for lev in range(tree.depth, -1, -1):
        members = np.flatnonzero(level == lev)
        kinds = np.stack([is_leaf[members], n_in[members]], axis=1)
        for leaf, width in np.unique(kinds, axis=0).tolist():
            index = members[(kinds == (leaf, width)).all(axis=1)]
            ns = min(width, n_scaling_cap)
            gather = first[index, None] + np.arange(width)
            if leaf:
                gather = tree.permutation[gather]
            scatter = np.hstack([
                up[index, None] + np.arange(ns),
                slot_row + offsets[index, None] + np.arange(width - ns),
            ])
            groups.append(LevelGroup(lev, bool(leaf), index, ns, gather, scatter))
    return offsets, groups, slot_row


def build_samplet_basis(
    tree: ClusterTree, moment_degree: int, carry_degree: int | None = None
) -> SampletBasis:
    """Bottom-up samplet construction over a built cluster tree.

    `moment_degree` is the largest polynomial total degree every samplet
    annihilates.  `carry_degree` (>= moment_degree) carries extra moment
    rows through the sweep so later samplets in each cluster pick up
    successively more vanishing moments; default is no extra rows.

    Each level group takes one stacked QR factorization of its clusters'
    moment matrices (`LevelGroup.factorize`).  The first min(n_in, number of
    moments up to moment_degree) columns of Q become scaling distributions,
    the rest samplets; the k-th generated
    distribution has at least k-1 vanishing moments, and rank-deficient
    moment matrices only produce samplets with extra vanishing moments.  The
    scaling moments (R^T) are re-expanded into the parent's frame, so no
    point data is revisited above the leaf level.
    """
    if moment_degree < 0:
        raise ValueError("moment_degree must be >= 0")
    if carry_degree is None:
        carry_degree = moment_degree
    if carry_degree < moment_degree:
        raise ValueError("carry_degree must be >= moment_degree")
    exponents = monomial_exponents(tree.cloud.dim, carry_degree)
    offsets, groups, slot_row = _level_groups(
        tree, moment_count(moment_degree, tree.cloud.dim)
    )
    centers, scales = local_frames(tree)

    # moments of the scaling distributions in their parent's frame, by
    # sweep buffer row; leaves take the Diracs' moments in their own frame
    moments = np.empty((slot_row, len(exponents)))
    transforms = [None] * len(tree.clusters)
    for g in groups:
        if g.leaf:
            R = g.factorize(dirac_moments(
                tree.cloud.points[g.gather], exponents,
                centers[g.index, None], scales[g.index, None, None],
            ))
        else:
            R = g.factorize(moments[g.gather])
        for position, i in enumerate(g.index.tolist()):
            transforms[i] = ClusterTransform(g, position)
        if g.level > 0:
            p = tree.parent[g.index]
            shift = moment_shift_matrix(
                exponents,
                scales[g.index] / scales[p],
                (centers[g.index] - centers[p]) / scales[p, None],
            )
            scaling = R.transpose(0, 2, 1)[:, :, : g.n_scaling]
            moments[g.scatter[:, : g.n_scaling]] = np.matmul(shift, scaling).transpose(
                0, 2, 1
            )
            del R, shift, scaling  # free before the next group's factorization
    return SampletBasis(
        tree, moment_degree, carry_degree, transforms, offsets, groups, slot_row
    )


def build_basis(cloud, moment_degree, leaf_size=None, carry_degree=None):
    """Convenience: cluster tree plus samplet basis in one call."""
    if isinstance(cloud, ClusterTree):
        tree = cloud
    else:
        if not isinstance(cloud, PointCloud):
            cloud = PointCloud(cloud)
        if leaf_size is None:
            leaf_size = default_leaf_size(moment_degree, cloud.dim)
        tree = build_cluster_tree(cloud, leaf_size)
    return build_samplet_basis(tree, moment_degree, carry_degree)


def _weight_sweep(basis, cluster, visit=None):
    """Dense Dirac weights of a cluster's scaling distributions and samplets.

    Returns a (cluster.size, n_in) matrix in tree point order; column j holds
    the weights of the j-th generated distribution.  Applies `visit(cluster,
    weights)` to every cluster of the subtree, children first.  Works per
    cluster from `ClusterTransform.q`, independent of the batched sweeps.
    """
    t = basis.transforms[cluster.index]
    if cluster.is_leaf:
        weights = t.q.copy()
    else:
        carrier = np.zeros((cluster.size, t.n_in))
        col = 0
        for child in cluster.children:
            n_sc = basis.transforms[child.index].n_scaling
            r0 = child.start - cluster.start
            w_child = _weight_sweep(basis, child, visit)
            carrier[r0 : r0 + child.size, col : col + n_sc] = w_child[:, :n_sc]
            col += n_sc
        weights = carrier @ t.q
    if visit is not None:
        visit(cluster, weights)
    return weights


def cluster_weight_matrix(basis, cluster):
    """Dense weight vectors of a cluster's scaling and samplet distributions.

    Returns a (cluster.size, n_scaling + n_samplets) matrix in tree point
    order; column j holds the Dirac weights of the j-th basis distribution.
    Cost is proportional to cluster size times block width.
    """
    return _weight_sweep(basis, cluster)


def assemble_dense_transform(basis: SampletBasis, guard: int = 8192) -> np.ndarray:
    """Dense orthogonal transform matrix, rows in slot order and columns in
    original point order.  Test/oracle utility, guarded against large N."""
    n = basis.n
    if n > guard:
        raise ValueError(f"dense transform guard exceeded: {n} > {guard}")
    tree = basis.tree
    T = np.zeros((n, n))

    def place(cluster, weights):
        n_sc = basis.transforms[cluster.index].n_scaling
        cols = tree.permutation[cluster.start : cluster.stop]
        lo, hi = basis.samplet_slots(cluster)
        T[lo:hi, cols] = weights[:, n_sc:].T
        if cluster is tree.root:
            T[:n_sc, cols] = weights[:, :n_sc].T

    _weight_sweep(basis, tree.root, place)
    return T
