import numpy as np
import pytest

from samplets import (
    InterpolationProblem,
    Matern,
    PointCloud,
    PursuitProblem,
    SolverError,
    build_basis,
    compress_assemble,
    dense_kernel_matrix,
    forward_transform,
    inverse_transform,
    pursuit_objective,
    rescale_unit_box,
    soft_shrink,
    solve_interpolation,
    solve_pursuit,
    transform_matrix_congruence,
)
from samplets import solvers
from samplets.solvers import _power_lambda_max, _StackedOperator, conjugate_gradient
from samplets.transform import CoefficientVector


@pytest.fixture(scope="module")
def dense64():
    rng = np.random.default_rng(50)
    cloud = PointCloud(rng.random((64, 2)))
    basis = build_basis(cloud, 2)
    K = transform_matrix_congruence(basis, dense_kernel_matrix(Matern(0.5, 0.05), cloud))
    h = K @ rng.standard_normal(64)
    return cloud, basis, K, h


def test_soft_shrink_examples():
    np.testing.assert_array_equal(
        soft_shrink([3.0, -0.5], [1.0, 1.0]), [2.0, 0.0]
    )
    v = np.array([0.3, -2.0, 0.0])
    np.testing.assert_array_equal(soft_shrink(v, 0.0), v)
    np.testing.assert_array_equal(soft_shrink([0.5, -0.7], [0.5, 0.8]), [0.0, 0.0])
    with pytest.raises(ValueError):
        soft_shrink([1.0], [-0.1])
    with pytest.raises(ValueError, match="weights must be nonnegative"):
        soft_shrink([1.0], [np.nan])


def test_interpolation_zero_rhs(dense64):
    _, _, K, _ = dense64
    beta, report = solve_interpolation(InterpolationProblem(K, np.zeros(64)))
    assert np.all(beta == 0)
    assert report.iterations == 0


def test_interpolation_sites_reproduced_mu_zero():
    rng = np.random.default_rng(51)
    cloud = PointCloud(rng.random((64, 2)))
    basis = build_basis(cloud, 2)
    K = dense_kernel_matrix(Matern(np.inf, 0.1), cloud)  # well-conditioned Gaussian
    Ks = transform_matrix_congruence(basis, K)
    h = K @ rng.standard_normal(64)
    hs = forward_transform(basis, h)
    beta, _ = solve_interpolation(InterpolationProblem(Ks, hs, tol=1e-12, max_iter=2000))
    alpha = inverse_transform(basis, beta)
    assert np.abs(K @ alpha - h).max() < 1e-8


def test_cg_matches_direct_factorization(dense64):
    _, _, K, h = dense64
    beta, _ = solve_interpolation(InterpolationProblem(K, h, tol=1e-13, max_iter=4000))
    direct = np.linalg.solve(K, h)
    assert np.linalg.norm(np.asarray(beta) - direct) < 1e-8 * np.linalg.norm(direct)


def test_interpolation_nonconvergence_carries_residual(dense64):
    _, _, K, h = dense64
    with pytest.raises(SolverError) as err:
        solve_interpolation(InterpolationProblem(K, h, tol=1e-14, max_iter=2))
    assert err.value.residual > 0
    assert len(err.value.trace) > 0


def test_cg_reports_loss_of_definiteness():
    # symmetric indefinite: the first step is fine (x = 1), the second
    # search direction has p^T A p < 0
    A = np.diag([3.0, 1.0, -1.0])
    b = np.ones(3)
    x, iters, res = conjugate_gradient(lambda v: A @ v, b, 1e-10, 50, best_effort=True)
    assert iters == 1
    np.testing.assert_allclose(x, [1.0, 1.0, 1.0])
    assert res == pytest.approx(np.sqrt(8.0))
    with pytest.raises(SolverError, match="lost positive definiteness") as err:
        conjugate_gradient(lambda v: A @ v, b, 1e-10, 50)
    assert "after 1 iterations" in str(err.value)
    assert err.value.residual == pytest.approx(np.sqrt(8.0))
    assert len(err.value.trace) == 2
    with pytest.raises(SolverError, match="did not reach"):
        conjugate_gradient(lambda v: np.abs(A) @ v, b, 1e-14, 1)


def test_interpolation_coefficient_vector_round_trip(dense64):
    cloud, basis, K, h = dense64
    rhs = CoefficientVector(h, basis)
    beta, _ = solve_interpolation(InterpolationProblem(K, rhs, ridge=1e-10))
    assert isinstance(beta, CoefficientVector)
    assert beta.basis is basis


def test_pursuit_zero_weight_matches_cg(dense64):
    _, _, K, h = dense64
    res = solve_pursuit(PursuitProblem([K], h, weights=0.0, tol=1e-10, max_iter=100))
    beta_cg, _ = solve_interpolation(InterpolationProblem(K, h, tol=1e-14, max_iter=4000))
    assert np.linalg.norm(res.stacked - np.asarray(beta_cg)) < 1e-8


def test_pursuit_large_weight_returns_zero(dense64):
    _, _, K, h = dense64
    w = np.abs(K.T @ h).max()
    res = solve_pursuit(PursuitProblem([K], h, weights=w))
    assert np.all(res.stacked == 0)
    assert res.residual == 0.0


def test_pursuit_matches_long_ista_oracle(dense64):
    _, _, K, h = dense64
    w = 1e-3
    res = solve_pursuit(PursuitProblem([K], h, weights=w, tol=1e-10, max_iter=200))
    gamma = 0.9 / np.linalg.norm(K.T @ K, 2)
    beta = np.zeros(64)
    for _ in range(50000):
        beta = soft_shrink(beta + gamma * (K.T @ (h - K @ beta)), gamma * w)
    assert np.linalg.norm(res.stacked - beta) < 1e-6
    prob = PursuitProblem([K], h, weights=w)
    assert pursuit_objective(prob, res.stacked) <= pursuit_objective(prob, beta) + 1e-10


def test_pursuit_subgradient_optimality(dense64):
    _, _, K, h = dense64
    w = 1e-3
    res = solve_pursuit(PursuitProblem([K], h, weights=w, tol=1e-10, max_iter=200))
    grad = K.T @ (h - K @ res.stacked)
    assert np.abs(grad).max() <= w + 1e-8
    on = res.stacked != 0
    np.testing.assert_allclose(grad[on], w * np.sign(res.stacked[on]), atol=1e-8)


def test_pursuit_fixed_point_gamma_independent(dense64):
    _, _, K, h = dense64
    w = 1e-3
    res = solve_pursuit(PursuitProblem([K], h, weights=w, tol=1e-10, max_iter=200))
    lam = np.linalg.norm(K.T @ K, 2)
    for frac in (0.05, 0.3, 0.9):
        g = frac / lam
        fp = res.stacked - soft_shrink(
            res.stacked + g * (K.T @ (h - K @ res.stacked)), g * w
        )
        assert np.linalg.norm(fp) <= 1e-8 * (1 + np.linalg.norm(h))


def test_pursuit_objective_examples(dense64):
    _, _, K, h = dense64
    prob = PursuitProblem([K], h, weights=1e-3)
    assert pursuit_objective(prob, np.zeros(64)) == pytest.approx(0.5 * h @ h)
    exact = np.linalg.solve(K, h)
    prob0 = PursuitProblem([K], h, weights=0.0)
    assert pursuit_objective(prob0, exact) < 1e-16 * (h @ h)


def test_pursuit_objective_nonincreasing_along_solve(dense64):
    _, _, K, h = dense64
    res = solve_pursuit(PursuitProblem([K], h, weights=1e-3, tol=1e-10, max_iter=200))
    tr = res.objective_trace
    assert all(b <= a + 1e-12 for a, b in zip(tr, tr[1:]))


def test_pursuit_sparsity_monotone_in_weight(dense64):
    _, _, K, h = dense64
    nnz = []
    for w in (1e-4, 1e-3, 1e-2, 1e-1, 0.5):
        res = solve_pursuit(PursuitProblem([K], h, weights=w, max_iter=300))
        nnz.append(int(np.count_nonzero(res.stacked)))
    assert all(b <= a + 1 for a, b in zip(nnz, nnz[1:]))


def test_pursuit_multi_kernel_stack(dense64):
    cloud, basis, K, h = dense64
    K2 = transform_matrix_congruence(basis, dense_kernel_matrix(Matern(0.5, 0.2), cloud))
    w = 0.05
    res = solve_pursuit(PursuitProblem([K, K2], h, weights=w, max_iter=400))
    assert len(res.coefficients) == 2
    op = _StackedOperator([K, K2], 64)
    lam = np.linalg.norm(np.hstack([K, K2]).T @ np.hstack([K, K2]), 2)
    for frac in (0.1, 0.9):
        g = frac / lam
        fp = res.stacked - soft_shrink(
            res.stacked + g * op.apply_adjoint(h - op.apply(res.stacked)), g * w
        )
        assert np.linalg.norm(fp) <= 1e-7 * (1 + np.linalg.norm(h))
    recon = op.apply(res.stacked)
    assert np.linalg.norm(recon - h) < np.linalg.norm(h)


def test_two_kernel_pursuit_robust_to_rounding():
    # the problem of the CLI's two-kernel pursuit test (100 sites, q=1);
    # perturbing each product by about one ulp moved the iterations of
    # plain fixed-point fallback steps between 224 and 323
    rng = np.random.default_rng(64)
    pts = rng.random((100, 2))
    cloud, _, _ = rescale_unit_box(PointCloud(pts, np.exp(pts[:, 0])))
    basis = build_basis(cloud, 1)
    h = forward_transform(basis, cloud.values).slots
    mats = [
        compress_assemble(basis, Matern(0.5, ell), 1.25, 6).to_dense()
        for ell in (0.05, 0.2)
    ]

    class Rounded:
        def __init__(self, A, seed):
            self.A, self.rng = A, np.random.default_rng(seed)

        def __matmul__(self, x):
            y = self.A @ x
            return y * (1.0 + 1e-16 * self.rng.standard_normal(len(y)))

    for seed in range(4):
        ops = [Rounded(A, seed) for A in mats]
        tol = 1e-8 * (1.0 + np.linalg.norm(h))
        res = solve_pursuit(PursuitProblem(ops, h, weights=0.2, tol=tol, max_iter=300))
        assert res.residual <= tol


def test_power_iteration_estimates_lambda_max(dense64):
    _, _, K, _ = dense64
    lam = _power_lambda_max(_StackedOperator([K], 64), 64)
    assert lam == pytest.approx(np.linalg.norm(K.T @ K, 2), rel=1e-3)
    assert _power_lambda_max(_StackedOperator([np.zeros((4, 4))], 4), 4) == 0.0
    res = solve_pursuit(PursuitProblem([np.zeros((4, 4))], np.ones(4), weights=0.1))
    assert np.all(res.stacked == 0) and res.iterations == 1


def test_pursuit_forms_each_residual_once(dense64, monkeypatch):
    _, _, K, h = dense64
    problem = PursuitProblem([K], h, weights=1e-3, tol=1e-10, max_iter=200)
    plain = solve_pursuit(problem)
    outer, depth = [], [0]
    apply = _StackedOperator.apply

    def counted(self, beta):
        if not depth[0]:
            outer.append(beta.tobytes())
        return apply(self, beta)

    def nested(fn):
        def wrapped(*args, **kwargs):
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapped

    monkeypatch.setattr(_StackedOperator, "apply", counted)
    monkeypatch.setattr(solvers, "conjugate_gradient", nested(conjugate_gradient))
    monkeypatch.setattr(solvers, "_power_lambda_max", nested(_power_lambda_max))
    res = solve_pursuit(problem)
    # outside the power iteration and the Newton solves, K is applied once
    # per iterate or line-search candidate, never twice to one vector
    assert res.iterations - 1 <= len(outer) == len(set(outer))
    assert np.array_equal(res.stacked, plain.stacked)
    assert res.trace == plain.trace
    assert res.objective_trace == plain.objective_trace
    assert res.objective == res.objective_trace[-1] == pursuit_objective(problem, res.stacked)


def test_pursuit_nonconvergence_error():
    rng = np.random.default_rng(52)
    cloud = PointCloud(rng.random((48, 2)))
    basis = build_basis(cloud, 1)
    K = transform_matrix_congruence(basis, dense_kernel_matrix(Matern(np.inf, 0.5), cloud))
    h = rng.standard_normal(48)
    with pytest.raises(SolverError) as err:
        solve_pursuit(PursuitProblem([K], h, weights=1e-9, max_iter=2, tol=1e-14))
    assert err.value.residual > 0


def test_pursuit_rejects_bad_arguments(dense64):
    _, _, K, h = dense64
    with pytest.raises(ValueError):
        solve_pursuit(PursuitProblem([], h))
    with pytest.raises(ValueError):
        solve_pursuit(PursuitProblem([K], h, weights=-1.0))
    for weights in (np.nan, np.inf, [np.nan] + [0.0] * 63):
        with pytest.raises(ValueError, match="weights must be nonnegative and finite"):
            solve_pursuit(PursuitProblem([K], h, weights=weights))


def test_pursuit_nan_tolerance_does_not_converge(dense64):
    # no residual is <= NaN, so the run ends unconverged
    _, _, K, h = dense64
    with pytest.raises(SolverError):
        solve_pursuit(PursuitProblem([K], h, weights=1e-3, tol=np.nan, max_iter=3))


@pytest.mark.parametrize("ridge", [np.nan, np.inf])
def test_interpolation_refuses_nan_and_infinite_ridge(dense64, ridge):
    _, _, K, h = dense64
    with pytest.raises(ValueError, match="ridge must be nonnegative and finite"):
        solve_interpolation(InterpolationProblem(K, h, ridge=ridge))
