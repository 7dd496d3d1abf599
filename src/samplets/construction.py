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

from .points import DENSE_GUARD, PointCloud
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
    """Matrix of x^alpha, one row per exponent, one column per point; the
    axis factors are gathered from one table of each coordinate's powers."""
    powers = _power_table(points, int(exponents.max(initial=0))).transpose(1, 2, 0)
    values = powers[0][exponents[:, 0]]
    for k in range(1, points.shape[1]):
        values *= powers[k][exponents[:, k]]
    return values


def _power_table(x, top, scalar_pow=False):
    """x[..., None] ** arange(top + 1) as numpy's power loop gives it or,
    with `scalar_pow`, as Python's float `**` (the C library's pow) gives it
    one value at a time; the two differ in the last bit of a few percent of
    values.  The exponents 0 and 1 are exact, so they are written, not
    computed; `**` runs on two or more exponents, since with a lone exponent
    2 numpy takes an x*x path that rounds otherwise than its power loop."""
    table = np.empty(x.shape + (top + 1,))
    table[..., 0] = 1.0
    if top:
        table[..., 1] = x
    if top > 1:
        low = 1 if top == 2 else 2
        base = x.astype(object) if scalar_pow else x
        table[..., low:] = base[..., None] ** np.arange(low, top + 1)
    return table


def _shift_terms(exponents):
    """Exponent-only tables of the re-expansion over its entries with
    beta <= alpha (all others are 0): their rows and columns, |beta|, and
    per axis C(alpha_k, beta_k) and alpha_k - beta_k."""
    diff = exponents[:, None, :] - exponents[None, :, :]
    rows, cols = np.nonzero((diff >= 0).all(axis=2))
    top = int(exponents.max(initial=0))
    pascal = np.array(
        [[comb(a, b) for b in range(top + 1)] for a in range(top + 1)], dtype=float
    )
    binom = pascal[exponents[rows], exponents[cols]]
    return rows, cols, exponents.sum(axis=1)[cols], binom, diff[rows, cols]


def _shift_stack(terms, m, r_pow, o_pow):
    """Re-expansion matrices (c x m x m) of c frames from the tables of
    `_shift_terms` and the frames' powers, r_pow[c, e] = r^e of the scale
    ratio and o_pow[c, k, e] = o_k^e of the offset."""
    rows, cols, total, binom, diff = terms
    values = r_pow[:, total]
    for k in range(binom.shape[1]):
        values = values * (binom[:, k] * o_pow[:, k, diff[:, k]])
    S = np.zeros((len(values), m, m))
    S[:, rows, cols] = values
    return S


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
    ratios = np.asarray(scale_ratio, dtype=float)
    offsets = np.asarray(offset, dtype=float).reshape(-1, exponents.shape[1])
    terms = _shift_terms(exponents)
    total, top = int(terms[2].max(initial=0)), int(exponents.max(initial=0))
    r_pow = _power_table(ratios.reshape(-1), total, scalar_pow=True)
    o_pow = _power_table(offsets, top, scalar_pow=True)
    S = _shift_stack(terms, len(exponents), r_pow, o_pow)
    return S.reshape(ratios.shape + S.shape[1:])


class LevelGroup:
    """Clusters of one tree level, all leaves or all interior, with equal
    n_in (hence equal n_scaling).

    `index` lists their pre-order ids.  Row `gather[c, i]` holds the i-th
    incoming distribution of the c-th cluster: a point index (original
    order) in a leaf group, a row of the sweep buffer of the SampletBasis
    otherwise.  Buffer row `scatter[c, j]` receives its j-th generated
    distribution (scaling distributions first, then samplets).  The sweeps
    read and write the incoming rows through `rows`: a slice where they are
    one run of the sweep buffer, as in every interior group of a balanced
    tree, so that they are a view, and `gather` flattened otherwise.

    A group keeps its explicit stack `q` where one n_in x n_in product costs
    no more multiplications than the three of the compact WY form:
    n_in^2 <= k (2 n_in + k) with k = min(n_in, m) for m moments.  Square
    blocks, as with the default leaf size, pass; there explicit Q takes
    about 0.65x the WY time of a transform of a 4096-point 3-d cloud.  Thin
    blocks (large leaves, few moments) keep WY: with S = diag(sign) the +-1
    column signs (int8), V (n_in x k) the Householder reflectors and T
    (k x k) their triangular factor, Q = (I - V T V^T) S = S (I - U T U^T)
    for U = S V; `ut` holds U^T (None in an explicit group).  WY sweeps read
    about 8k + 1 bytes per incoming value, not 8 n_in, and form `q` on first
    use.  An explicit group also holds `qt`, the transposed view of `q`.

    `analyze` and `synthesize` take stacks with or without a trailing column
    axis (clusters x n_in [x cols]); the WY form works in the memory of its
    input, the explicit one returns a new stack.
    """

    __slots__ = (
        "level", "leaf", "index", "n_scaling", "gather", "scatter", "rows", "ut",
        "t", "sign", "_q", "qt",
    )

    def __init__(self, level, leaf, index, n_scaling, gather, scatter):
        self.level = level
        self.leaf = leaf
        self.index = index
        self.n_scaling = n_scaling
        self.gather = gather
        self.scatter = scatter
        rows, first = gather.ravel(), int(gather[0, 0])
        run = not leaf and np.array_equal(rows, first + np.arange(rows.size))
        self.rows = slice(first, first + rows.size) if run else rows

    def factorize(self, moments):
        """Deterministic Householder QR of the stacked transposed moment
        matrices (clusters x n_in x m), in their memory: sets the transforms
        and returns the leading min(n_in, m) rows of R."""
        tau = _umath_linalg.qr_r_raw(moments, signature="d->d")
        n, m, k = moments.shape[1], moments.shape[2], tau.shape[-1]
        row = np.arange(k)[:, None]
        R = np.where(row <= np.arange(m), moments[:, :k, :], 0.0)
        h = moments.transpose(0, 2, 1)[:, :k, :]
        vt = np.where(row < np.arange(n), h, np.eye(k, n))  # unit upper trapezoidal
        self._q = _form_q(vt, tau)
        sign = _fix_signs(self._q, R)
        self.ut = None
        if n * n > k * (2 * n + k):  # thin block: WY takes fewer products
            self._q = None
            self.t = _triangular_factor(vt, tau)  # also the factor of U = S V
            vt *= sign[:, None, :]
            self.ut = vt
            self.sign = sign.astype(np.int8)
        else:
            self.qt = self._q.transpose(0, 2, 1)
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
        y = x if x.ndim == 3 else x[..., None]
        if self.ut is None:
            return np.matmul(self.qt, y).reshape(x.shape)
        y *= self.sign[:, :, None]
        z = np.matmul(self.t.transpose(0, 2, 1), np.matmul(self.ut, y))
        y -= np.matmul(self.ut.transpose(0, 2, 1), z)
        return y.reshape(x.shape)

    def synthesize(self, x):
        """Q x for a stack x of generated values."""
        y = x if x.ndim == 3 else x[..., None]
        if self.ut is None:
            return np.matmul(self._q, y).reshape(x.shape)
        z = np.matmul(self.t, np.matmul(self.ut, y))
        y -= np.matmul(self.ut.transpose(0, 2, 1), z)
        y *= self.sign[:, :, None]
        return y.reshape(x.shape)


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
    """Make a stack of factorizations with orthogonal Q deterministic, in
    place: nonnegative diagonal of R, and null-space columns oriented so
    their first significant entry (above 1e-12 times the column's largest)
    is positive.  Returns the column signs applied to Q.

    No entry of an orthonormal column exceeds 2, so a first entry above
    2e-12 in magnitude is significant; only the other columns are searched.
    """
    k = min(R.shape[-2:])
    lead = Q[..., 0, k:].copy()
    search = np.nonzero(np.abs(lead) <= 2e-12)
    if search[0].size:
        cols = np.moveaxis(Q[..., k:], -2, -1)[search]
        mag = np.abs(cols)
        first = np.argmax(mag > 1e-12 * mag.max(axis=-1, keepdims=True), axis=-1)
        lead[search] = cols[np.arange(len(first)), first]
    flip = np.concatenate(
        [np.diagonal(R, axis1=-2, axis2=-1) < 0.0, lead < 0.0], axis=-1
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

    Per-cluster state is one table of arrays indexed by pre-order id:
    cluster i's transform is `groups[group[i]].q[position[i]]`, it combines
    `n_in[i]` incoming distributions into `n_sc[i]` scaling distributions
    and n_in[i] - n_sc[i] samplets, and `slots` (clusters x 2) holds its
    stored-slot range.  The ranges tile 0..N in pre-order, each ending with
    the cluster's samplets (the root's range also spans the scaling slots).

    `groups` batches the transforms by level, deepest first, over a sweep
    buffer of `sweep_rows` rows: the scaling distributions of every non-root
    cluster (siblings adjacent, level by level), then the coefficient slots
    from row `slot_row` on.
    """

    def __init__(
        self, tree, moment_degree, carry_degree, group, position, n_in, n_sc,
        slots, groups, slot_row,
    ):
        self.tree = tree
        self.moment_degree = moment_degree
        self.carry_degree = carry_degree
        self.group = group
        self.position = position
        self.n_in = n_in
        self.n_sc = n_sc
        self.slots = slots
        self.groups = groups
        self.slot_row = slot_row
        self.sweep_rows = slot_row + tree.n_points
        self.n_scaling = int(n_sc[0])  # the root's

    @property
    def n(self):
        return self.tree.n_points

    def samplet_slots(self, i):
        """Half-open slot range of cluster i's samplet coefficients: its
        stored slots less the root's leading scaling slots."""
        lo, hi = self.slots[i]
        return max(lo, self.n_scaling), hi

    def stored_slots(self, i):
        """Slot range a kernel block for cluster i covers; the root block
        also spans the scaling slots."""
        return tuple(self.slots[i])

    def samplet_levels(self):
        """Level of the cluster owning each slot; root scaling slots get -1."""
        levels = np.repeat(self.tree.level, self.slots[:, 1] - self.slots[:, 0])
        levels[: self.n_scaling] = -1  # the root's range comes first
        return levels


def default_leaf_size(moment_degree: int, dim: int) -> int:
    """Smallest leaf size at which every leaf can host a full scaling block."""
    return max(2 * moment_count(moment_degree, dim), 2)


def _level_groups(tree, n_scaling_cap):
    """The per-cluster table (group, position, n_in, n_sc, slots), the level
    groups (transforms not yet set) and the first coefficient row of the
    sweep buffer, as the trailing arguments of SampletBasis.

    The counts follow from the tree alone: a leaf takes its points as
    incoming distributions, an interior cluster its children's scaling
    distributions, and every cluster keeps min(cap, n_in) of them.
    """
    level, children = tree.level, tree.children
    is_leaf = children[:, 0] < 0
    n_in = np.empty(len(level), dtype=int)
    n_in[is_leaf] = tree.size[is_leaf]
    for lev in range(tree.depth - 1, -1, -1):
        inner = np.flatnonzero(~is_leaf & (level == lev))
        n_in[inner] = np.minimum(n_in[children[inner]], n_scaling_cap).sum(axis=1)
    n_sc = np.minimum(n_in, n_scaling_cap)
    n_samplets = n_in - n_sc
    offsets = n_sc[0] + np.cumsum(n_samplets) - n_samplets  # pre-order, root 0
    slots = np.stack([offsets, offsets + n_samplets], axis=1)
    slots[0, 0] = 0
    rest = np.lexsort((np.arange(len(level)), level))[1:]  # non-root, by level
    up = np.empty(len(level), dtype=int)
    up[rest] = np.cumsum(n_sc[rest]) - n_sc[rest]
    slot_row = int(n_sc[rest].sum())
    up[0] = slot_row  # the root's scaling distributions lead the slots
    first = np.where(is_leaf, tree.start, up[children[:, 0]])
    group, position = np.empty_like(n_in), np.empty_like(n_in)
    # deepest level first; in a level interior clusters first, then by n_in
    order = np.lexsort((n_in, is_leaf, -level))
    kinds = np.stack([level, is_leaf, n_in])[:, order]
    cuts = np.flatnonzero((kinds[:, 1:] != kinds[:, :-1]).any(axis=0)) + 1
    heads = kinds[:, np.r_[0, cuts]].T.tolist()
    groups = []
    for (lev, leaf, width), index in zip(heads, np.split(order, cuts)):
        group[index], position[index] = len(groups), np.arange(len(index))
        ns = min(width, n_scaling_cap)
        gather = first[index, None] + np.arange(width)
        if leaf:
            gather = tree.permutation[gather]
        scatter = np.hstack([
            up[index, None] + np.arange(ns),
            slot_row + offsets[index, None] + np.arange(width - ns),
        ])
        groups.append(LevelGroup(lev, bool(leaf), index, ns, gather, scatter))
    return group, position, n_in, n_sc, slots, groups, slot_row


def build_samplet_basis(
    tree: ClusterTree, moment_degree: int, carry_degree: int | None = None
) -> SampletBasis:
    """Bottom-up samplet construction over a built cluster tree.

    `moment_degree` is the largest polynomial total degree every samplet
    annihilates.  `carry_degree` (>= moment_degree) carries extra moment
    rows through the sweep so later samplets in each cluster pick up
    successively more vanishing moments; default is no extra rows.

    Each level group takes one stacked QR factorization of its clusters'
    moment matrices (`LevelGroup.factorize`), in their memory: the leaves'
    Dirac moments, or the group's rows of the moment buffer, a view where
    they are one run.  The first min(n_in, number of moments up to
    moment_degree) columns of Q become scaling distributions, the rest
    samplets; the k-th generated distribution has at least k-1 vanishing
    moments, and rank-deficient moment matrices only produce samplets with
    extra vanishing moments.  The scaling moments (R^T) are re-expanded into
    the parent's frame, so no point data is revisited above the leaf level.
    The re-expansion's exponent tables and every cluster's frame powers are
    built once per basis; each group evaluates its stack on the entries
    beta <= alpha alone.
    """
    if moment_degree < 0:
        raise ValueError("moment_degree must be >= 0")
    if carry_degree is None:
        carry_degree = moment_degree
    if carry_degree < moment_degree:
        raise ValueError("carry_degree must be >= moment_degree")
    exponents = monomial_exponents(tree.cloud.dim, carry_degree)
    basis = SampletBasis(
        tree, moment_degree, carry_degree,
        *_level_groups(tree, moment_count(moment_degree, tree.cloud.dim)),
    )
    centers, scales = local_frames(tree)
    # the frames' powers and the exponent tables of their re-expansions into
    # the parent frame, once per basis; the root's frame maps onto itself
    up = np.maximum(tree.parent, 0)
    offsets = (centers - centers[up]) / scales[up, None]
    r_pow = _power_table(scales / scales[up], carry_degree, scalar_pow=True)
    o_pow = _power_table(offsets, carry_degree, scalar_pow=True)
    terms = _shift_terms(exponents)

    # moments of the scaling distributions in their parent's frame, by
    # sweep buffer row; leaves take the Diracs' moments in their own frame
    moments = np.empty((basis.slot_row, len(exponents)))
    for g in basis.groups:
        if g.leaf:
            R = g.factorize(dirac_moments(
                tree.cloud.points[g.gather], exponents,
                centers[g.index, None], scales[g.index, None, None],
            ))
        else:
            R = g.factorize(moments[g.rows].reshape(g.gather.shape + (-1,)))
        if g.level > 0:
            shift = _shift_stack(terms, len(exponents), r_pow[g.index], o_pow[g.index])
            scaling = R.transpose(0, 2, 1)[:, :, : g.n_scaling]
            moments[g.scatter[:, : g.n_scaling]] = np.matmul(shift, scaling).transpose(
                0, 2, 1
            )
            del R, shift, scaling  # free before the next group's factorization
    return basis


def build_basis(cloud, moment_degree, leaf_size=None, carry_degree=None):
    """Convenience: cluster tree plus samplet basis in one call."""
    if not isinstance(cloud, PointCloud):
        cloud = PointCloud(cloud)
    if leaf_size is None:
        leaf_size = default_leaf_size(moment_degree, cloud.dim)
    tree = build_cluster_tree(cloud, leaf_size)
    return build_samplet_basis(tree, moment_degree, carry_degree)


def cluster_weight_matrix(basis, i, visit=None):
    """Dense Dirac weights of cluster i's scaling distributions and samplets.

    Returns a (size, n_in) matrix in tree point order; column j holds the
    weights of the j-th generated distribution.  Applies `visit(k, weights)`
    to every cluster k of the subtree, children first.  Works per cluster
    from the basis table, independent of the batched sweeps; cost is
    proportional to cluster size times block width.
    """
    tree = basis.tree
    q = basis.groups[basis.group[i]].q[basis.position[i]]
    if tree.children[i, 0] < 0:
        weights = q.copy()
    else:
        carrier = np.zeros((tree.size[i], basis.n_in[i]))
        col = 0
        for child in tree.children[i].tolist():
            n_sc = basis.n_sc[child]
            r0 = tree.start[child] - tree.start[i]
            w_child = cluster_weight_matrix(basis, child, visit)
            carrier[r0 : r0 + tree.size[child], col : col + n_sc] = w_child[:, :n_sc]
            col += n_sc
        weights = carrier @ q
    if visit is not None:
        visit(i, weights)
    return weights


def assemble_dense_transform(basis: SampletBasis) -> np.ndarray:
    """Dense orthogonal transform matrix, rows in slot order and columns in
    original point order.  Test/oracle utility, guarded against large N."""
    n = basis.n
    if n > DENSE_GUARD:
        raise ValueError(f"dense transform guard exceeded: {n} > {DENSE_GUARD}")
    tree = basis.tree
    T = np.zeros((n, n))

    def place(i, weights):
        n_sc = basis.n_sc[i]
        cols = tree.permutation[tree.start[i] : tree.start[i] + tree.size[i]]
        lo, hi = basis.samplet_slots(i)
        T[lo:hi, cols] = weights[:, n_sc:].T
        if i == 0:  # the root
            T[:n_sc, cols] = weights[:, :n_sc].T

    cluster_weight_matrix(basis, 0, place)
    return T
