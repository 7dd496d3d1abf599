import numpy as np
import pytest

from samplets import (
    PointCloud,
    assemble_dense_transform,
    build_basis,
    forward_transform,
    inverse_transform,
    transform_matrix_congruence,
)
from samplets.transform import CoefficientVector


@pytest.fixture(scope="module")
def basis512():
    rng = np.random.default_rng(10)
    return build_basis(rng.random((512, 2)), 2)


def test_constant_vector_hits_only_scaling_slots():
    rng = np.random.default_rng(11)
    basis = build_basis(rng.random((200, 2)), 1)
    coeffs = forward_transform(basis, np.ones(200))
    norm = np.linalg.norm(np.ones(200))
    assert np.abs(coeffs.slots[basis.n_scaling :]).max() <= 1e-10 * norm


def test_two_point_haar_coefficients():
    basis = build_basis(np.array([[0.0], [1.0]]), 0, leaf_size=2)
    T = assemble_dense_transform(basis)
    f = np.array([3.0, 5.0])
    np.testing.assert_allclose(forward_transform(basis, f).slots, T @ f, atol=1e-14)
    np.testing.assert_allclose(np.abs(T @ f), [8 / np.sqrt(2), 2 / np.sqrt(2)])


def test_forward_matches_dense_oracle(basis512):
    rng = np.random.default_rng(12)
    f = rng.standard_normal(512)
    T = assemble_dense_transform(basis512)
    assert np.abs(forward_transform(basis512, f).slots - T @ f).max() < 1e-10


def test_inverse_matches_dense_oracle(basis512):
    rng = np.random.default_rng(13)
    c = rng.standard_normal(512)
    T = assemble_dense_transform(basis512)
    got = inverse_transform(basis512, CoefficientVector(c, basis512))
    assert np.abs(got - T.T @ c).max() < 1e-10


def test_round_trip(basis512):
    rng = np.random.default_rng(14)
    f = rng.standard_normal(512)
    back = inverse_transform(basis512, forward_transform(basis512, f))
    assert np.abs(back - f).max() <= 1e-10 * np.abs(f).max()


def test_unit_coefficient_reproduces_samplet_weights(basis512):
    T = assemble_dense_transform(basis512)
    e = np.zeros(512)
    slot = basis512.n_scaling + 3
    e[slot] = 1.0
    got = inverse_transform(basis512, CoefficientVector(e, basis512))
    np.testing.assert_allclose(got, T[slot], atol=1e-12)


def test_isometry_and_linearity(basis512):
    rng = np.random.default_rng(15)
    f, g = rng.standard_normal((2, 512))
    cf = forward_transform(basis512, f).slots
    cg = forward_transform(basis512, g).slots
    assert np.linalg.norm(cf) == pytest.approx(np.linalg.norm(f), rel=1e-12)
    combo = forward_transform(basis512, 2.5 * f - 1.5 * g).slots
    np.testing.assert_allclose(combo, 2.5 * cf - 1.5 * cg, atol=1e-12)


def test_congruence_identity_and_constant_rank_one():
    rng = np.random.default_rng(16)
    basis = build_basis(rng.random((64, 2)), 1)
    eye = transform_matrix_congruence(basis, np.eye(64))
    np.testing.assert_allclose(eye, np.eye(64), atol=1e-12)
    f = np.ones(64)
    out = transform_matrix_congruence(basis, np.outer(f, f))
    k = basis.n_scaling
    mask = np.ones((64, 64), dtype=bool)
    mask[:k, :k] = False
    assert np.abs(out[mask]).max() < 1e-9


def test_congruence_preserves_spectrum():
    rng = np.random.default_rng(17)
    basis = build_basis(rng.random((64, 2)), 1)
    A = rng.standard_normal((64, 64))
    spd = A @ A.T + 64 * np.eye(64)
    out = transform_matrix_congruence(basis, spd)
    np.testing.assert_allclose(
        np.linalg.eigvalsh(out), np.linalg.eigvalsh(spd), atol=1e-9
    )
    T = assemble_dense_transform(basis)
    np.testing.assert_allclose(out, T @ spd @ T.T, atol=1e-10)


def test_length_mismatch_and_basis_mismatch():
    rng = np.random.default_rng(18)
    basis = build_basis(rng.random((32, 2)), 1)
    other = build_basis(rng.random((32, 2)), 1)
    with pytest.raises(ValueError, match="length mismatch"):
        forward_transform(basis, np.zeros(31))
    coeffs = forward_transform(basis, np.zeros(32))
    with pytest.raises(ValueError, match="basis mismatch"):
        inverse_transform(other, coeffs)


def test_array_protocol_copies_when_asked():
    basis = build_basis(np.random.default_rng(18).random((32, 2)), 1)
    coeffs = forward_transform(basis, np.arange(32.0))
    before = coeffs.slots.copy()
    copied = np.array(coeffs)
    copied[0] += 1.0
    assert np.array_equal(coeffs.slots, before)
    assert np.shares_memory(np.asarray(coeffs), coeffs.slots)
    assert np.asarray(coeffs, dtype=np.float32).dtype == np.float32
    with pytest.raises(ValueError):
        np.array(coeffs, dtype=np.float32, copy=False)


def test_matrix_valued_transform_consistent(basis512):
    rng = np.random.default_rng(19)
    F = rng.standard_normal((512, 3))
    batch = forward_transform(basis512, F)
    for k in range(3):
        np.testing.assert_allclose(
            batch[:, k], forward_transform(basis512, F[:, k]).slots, atol=1e-13
        )


def _sweep_reference(basis, values):
    """Per-cluster forward and inverse sweeps over the tree; `values` is read
    both as point values and as coefficient slots."""
    tree, n_sc = basis.tree, basis.n_sc

    def q(c):  # c's transform, from the basis table
        return basis.groups[basis.group[c.index]].q[basis.position[c.index]]

    values = np.asarray(values, dtype=float)
    work = values[tree.permutation]
    coeffs = np.empty_like(work)
    scaling = {}
    for cluster in sorted(tree.clusters, key=lambda c: -c.level):
        t, k = q(cluster), n_sc[cluster.index]
        if cluster.is_leaf:
            x = work[cluster.start : cluster.stop]
        else:
            x = np.concatenate([scaling.pop(c.index) for c in cluster.children])
        scaling[cluster.index] = t[:, :k].T @ x
        lo, hi = basis.samplet_slots(cluster.index)
        coeffs[lo:hi] = t[:, k:].T @ x
    coeffs[: basis.n_scaling] = scaling[tree.root.index]

    back = np.empty_like(work)
    stack = [(tree.root, values[: basis.n_scaling])]
    while stack:
        cluster, phi = stack.pop()
        t, k = q(cluster), n_sc[cluster.index]
        lo, hi = basis.samplet_slots(cluster.index)
        x = t[:, :k] @ phi + t[:, k:] @ values[lo:hi]
        if cluster.is_leaf:
            back[cluster.start : cluster.stop] = x
        else:
            for c in cluster.children:
                stack.append((c, x[: n_sc[c.index]]))
                x = x[n_sc[c.index] :]
    inverse = np.empty_like(back)
    inverse[tree.permutation] = back
    return coeffs, inverse


def _irregular_clouds():
    rng = np.random.default_rng(30)
    for dim in range(1, 7):
        yield rng.random((101 + 2 * dim, dim)), {"moment_degree": 1}
    yield rng.random((333, 2)), {"moment_degree": 2}
    yield np.repeat(rng.random((40, 2)), 5, axis=0), {"moment_degree": 2}
    yield rng.random((7, 3)), {"moment_degree": 2}  # below the leaf size
    yield rng.random((1, 2)), {"moment_degree": 1}
    yield rng.random((257, 2)), {"moment_degree": 1, "carry_degree": 3}
    yield 1e8 + rng.random((150, 2)), {"moment_degree": 2, "leaf_size": 13}
    # thin moment matrices: transforms applied in compact WY form
    yield rng.random((1001, 2)), {"moment_degree": 1, "leaf_size": 32}
    dup = np.repeat(rng.random((50, 3)), 20, axis=0)
    yield dup, {"moment_degree": 1, "leaf_size": 40}


IRREGULAR = list(_irregular_clouds())


@pytest.mark.parametrize("case", range(len(IRREGULAR)))
def test_batched_sweeps_match_per_cluster_reference(case):
    pts, kw = IRREGULAR[case]
    basis = build_basis(pts, **kw)
    n = len(pts)
    rng = np.random.default_rng(case)
    f = rng.standard_normal((n, 3))
    fwd = forward_transform(basis, f)
    inv = inverse_transform(basis, f)
    for col in range(3):
        ref_fwd, ref_inv = _sweep_reference(basis, f[:, col])
        scale = np.abs(f[:, col]).max()
        assert np.abs(fwd[:, col] - ref_fwd).max() <= 1e-13 * scale
        assert np.abs(inv[:, col] - ref_inv).max() <= 1e-13 * scale
        vec = forward_transform(basis, f[:, col])
        assert np.abs(vec.slots - ref_fwd).max() <= 1e-13 * scale
        assert np.abs(inverse_transform(basis, vec) - f[:, col]).max() <= 1e-13 * scale
