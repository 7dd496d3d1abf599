"""Solvers in samplet coordinates: conjugate-gradient interpolation and
weighted l1 basis pursuit via a semi-smooth Newton method.

Solvers accept either dense arrays or compressed kernel matrices; all they
need is a symmetric matrix-vector product, `op @ x`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .transform import CoefficientVector


# the inner CG of a pursuit Newton step: tolerance floor and iteration cap
_NEWTON_CG_TOL = 1e-12
_NEWTON_CG_MAX_ITER = 2000
# power iteration for lambda_max(K^T K): steps and start-vector seed
_POWER_ITERS = 30
_POWER_SEED = 0


class SolverError(RuntimeError):
    """Raised on non-convergence; carries the last residual (and trace)."""

    def __init__(self, message, residual, trace=None):
        super().__init__(message)
        self.residual = residual
        self.trace = trace or []


def _as_array(v):
    if isinstance(v, CoefficientVector):
        return v.slots
    return np.asarray(v, dtype=float)


def _rmatvec(op, x):
    if isinstance(op, np.ndarray):
        return op.T @ x
    return op @ x  # compressed kernel matrices are symmetric


def conjugate_gradient(matvec, rhs, tol, max_iter, x0=None, best_effort=False):
    """Plain CG for SPD operators; stops at ||residual|| <= tol * ||rhs||.

    Returns (solution, iterations, final residual norm).  Stops early when a
    search direction has p^T A p <= 0 (the operator is not positive definite
    on it).  Unless the target is met, raises SolverError on either exit,
    naming its cause; with `best_effort` the last iterate is returned.
    """
    rhs = np.asarray(rhs, dtype=float)
    norm = np.linalg.norm(rhs)
    if norm == 0.0:
        return np.zeros_like(rhs), 0, 0.0
    x = np.zeros_like(rhs) if x0 is None else np.array(x0, dtype=float)
    r = rhs - matvec(x) if x.any() else rhs.copy()
    p = r.copy()
    rr = float(r @ r)
    target = tol * norm
    trace = []
    iters = max_iter
    for it in range(max_iter):
        res = np.sqrt(rr)
        trace.append(res)
        if res <= target:
            return x, it, res
        Ap = matvec(p)
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            iters = it
            break
        alpha = rr / pAp
        x += alpha * p
        r -= alpha * Ap
        rr_new = float(r @ r)
        p = r + (rr_new / rr) * p
        rr = rr_new
    res = float(np.linalg.norm(rhs - matvec(x)))
    if res <= target or best_effort:
        return x, iters, res
    if iters < max_iter:
        message = (
            f"conjugate gradient lost positive definiteness (p^T A p = {pAp:.3e}) "
            f"after {iters} iterations (residual {res:.3e}, target {target:.3e})"
        )
    else:
        message = (
            f"conjugate gradient did not reach {target:.3e} in {max_iter} "
            f"iterations (residual {res:.3e})"
        )
    raise SolverError(message, res, trace)


@dataclass
class InterpolationProblem:
    """Regularized kernel interpolation (K + ridge*I) beta = rhs in samplet
    coordinates; `matrix` is a dense array or a CompressedKernelMatrix."""

    matrix: object
    rhs: object
    ridge: float = 0.0
    tol: float = 1e-10
    max_iter: int = 5000


@dataclass
class SolveReport:
    iterations: int
    residual: float
    converged: bool


def solve_interpolation(p: InterpolationProblem):
    """CG solve of the (regularized) samplet-coordinate interpolation system.

    Returns (solution, report); the solution mirrors the rhs type, so a
    CoefficientVector rhs yields a CoefficientVector tied to the same basis.
    """
    if not 0 <= p.ridge < np.inf:
        raise ValueError("ridge must be nonnegative and finite")
    rhs = _as_array(p.rhs)

    def apply(x):
        y = p.matrix @ x
        if p.ridge:
            y = y + p.ridge * x
        return y

    beta, iters, res = conjugate_gradient(apply, rhs, p.tol, p.max_iter)
    report = SolveReport(iters, res, True)
    if isinstance(p.rhs, CoefficientVector):
        return CoefficientVector(beta, p.rhs.basis), report
    return beta, report


def soft_shrink(v, w):
    """Entrywise sign(v) * max(0, |v| - w); the proximal map of the weighted
    l1 norm."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    if w.ndim and w.shape != v.shape:
        raise ValueError("weight shape does not match")
    if not np.all(w >= 0):
        raise ValueError("weights must be nonnegative")
    return np.sign(v) * np.maximum(np.abs(v) - w, 0.0)


@dataclass
class PursuitProblem:
    """Weighted l1 recovery over a (possibly multi-kernel) dictionary.

    `dictionary` is a list of square operators sharing the coefficient space
    of `data`; the stacked system is underdetermined for more than one
    kernel.  `weights` may be a scalar or a vector over all stacked
    coefficients.
    """

    dictionary: list
    data: object
    weights: object = 0.0
    tol: float | None = None
    max_iter: int = 200


@dataclass
class PursuitResult:
    coefficients: list
    stacked: np.ndarray
    residual: float
    iterations: int
    objective: float
    nnz: list
    trace: list = field(default_factory=list)
    objective_trace: list = field(default_factory=list)


class _StackedOperator:
    """[K_1, ..., K_L] acting on stacked coefficients; each block symmetric."""

    def __init__(self, blocks, n):
        self.blocks = blocks
        self.n = n

    def apply(self, beta):
        out = np.zeros(self.n)
        for i, block in enumerate(self.blocks):
            out += block @ beta[i * self.n : (i + 1) * self.n]
        return out

    def apply_adjoint(self, r):
        return np.concatenate([_rmatvec(block, r) for block in self.blocks])


def _power_lambda_max(op, n_total):
    """lambda_max(K^T K) estimated by power iteration; 0.0 for a zero
    operator."""
    rng = np.random.default_rng(_POWER_SEED)
    v = rng.standard_normal(n_total)
    v /= np.linalg.norm(v)
    lam = 1.0
    for _ in range(_POWER_ITERS):
        w = op.apply_adjoint(op.apply(v))
        lam = float(np.linalg.norm(w))
        if lam == 0.0:
            break
        v = w / lam
    return lam


def _objective(r, w, beta):
    """0.5 * ||r||^2 + sum(w * |beta|) for the residual r = data - K beta."""
    return 0.5 * float(r @ r) + float(w @ np.abs(beta))


def pursuit_objective(p: PursuitProblem, beta) -> float:
    """0.5 * ||data - K beta||^2 + sum(weights * |beta|), evaluated in
    samplet coordinates (the residual term is coordinate-free by isometry)."""
    h = _as_array(p.data)
    n = h.shape[0]
    op = _StackedOperator(p.dictionary, n)
    beta = _as_array(beta)
    w = np.broadcast_to(np.asarray(p.weights, dtype=float), beta.shape)
    return _objective(h - op.apply(beta), w, beta)


def solve_pursuit(p: PursuitProblem) -> PursuitResult:
    """Semi-smooth Newton on the shrinkage fixed-point equation.

    Newton steps solve the normal equations restricted to the support
    implied by the shrinkage kink; a step is accepted only if the objective
    does not increase, otherwise one soft-shrinkage gradient step is taken,
    of the spectral (Barzilai-Borwein) length of the last two iterates,
    halved back to the fixed-point step until the objective does not
    increase (SpaRSA, Wright, Nowak & Figueiredo 2009).  Stops when the
    fixed-point residual drops below tol; raises SolverError with the
    residual trace otherwise.  Each
    iterate's residual h - K beta is formed once and gives both its
    gradient and its objective.
    """
    if not p.dictionary:
        raise ValueError("dictionary must not be empty")
    h = _as_array(p.data)
    n = h.shape[0]
    L = len(p.dictionary)
    total = L * n
    op = _StackedOperator(p.dictionary, n)
    # not copied: the objective then dots the weights as pursuit_objective
    # does, to the same bits
    w = np.broadcast_to(np.asarray(p.weights, dtype=float), (total,))
    if not np.all((w >= 0) & (w < np.inf)):
        raise ValueError("weights must be nonnegative and finite")
    lam_max = _power_lambda_max(op, total)
    gamma = 0.9 / lam_max if lam_max else 1.0
    tol = p.tol if p.tol is not None else 1e-8 * (1.0 + np.linalg.norm(h))
    kth = op.apply_adjoint(h)
    # stacked dictionaries are underdetermined, so the restricted normal
    # matrices are structurally singular and need the full iterative
    # regularization; square single-kernel systems get a sharper Newton
    shift_scale = 1.0 if total > n else 0.01

    beta = np.zeros(total)
    grad = kth.copy()  # K^T (h - K beta) at beta = 0
    obj = _objective(h, w, beta)  # the residual at beta = 0 is h
    trace = []
    objective_trace = []
    iterations = 0
    last = None  # the previous iterate and its gradient
    for it in range(p.max_iter):
        iterations = it
        z = beta + gamma * grad
        fp = beta - soft_shrink(z, gamma * w)
        res = float(np.linalg.norm(fp))
        trace.append(res)
        if res <= tol:
            break
        support = np.abs(z) > gamma * w
        newton = None
        if np.any(support):
            sign = np.sign(z[support])
            rhs = kth[support] - w[support] * sign

            # inexact Newton: warm start, forcing-term tolerance, and a
            # vanishing Tikhonov shift so singular (underdetermined stacked)
            # normal matrices stay solvable
            inner_tol = max(_NEWTON_CG_TOL, min(1e-2, res / (1.0 + np.linalg.norm(rhs))))
            shift = shift_scale * inner_tol * lam_max

            def normal_matvec(xs):
                full = np.zeros(total)
                full[support] = xs
                return op.apply_adjoint(op.apply(full))[support] + shift * xs

            xs, _, _ = conjugate_gradient(
                normal_matvec, rhs, inner_tol, _NEWTON_CG_MAX_ITER,
                x0=beta[support], best_effort=True,
            )
            newton = np.zeros(total)
            newton[support] = xs
        accepted = False
        here = beta, grad
        if newton is not None:
            direction = newton - beta
            t = 1.0
            for _ in range(10):  # damped steps keep the objective non-increasing
                candidate = beta + t * direction
                r = h - op.apply(candidate)
                if _objective(r, w, candidate) <= obj:
                    beta = candidate
                    accepted = True
                    break
                t *= 0.5
        if not accepted:
            step = gamma
            if last is not None:
                ds, dg = beta - last[0], last[1] - grad
                curv = float(ds @ dg)
                if curv > 0:
                    step = max(gamma, float(ds @ ds) / curv)
            while True:
                candidate = soft_shrink(beta + step * grad, step * w)
                r = h - op.apply(candidate)
                if step == gamma or _objective(r, w, candidate) <= obj:
                    break
                step = max(gamma, 0.5 * step)
            beta = candidate
        last = here
        grad = op.apply_adjoint(r)
        obj = _objective(r, w, beta)
        objective_trace.append(obj)
    else:
        z = beta + gamma * grad
        res = float(np.linalg.norm(beta - soft_shrink(z, gamma * w)))
        if not res <= tol:  # a NaN residual has not converged
            raise SolverError(
                f"pursuit did not reach {tol:.3e} in {p.max_iter} iterations "
                f"(residual {res:.3e})",
                res,
                trace,
            )

    parts = [beta[i * n : (i + 1) * n] for i in range(L)]
    data = p.data
    if isinstance(data, CoefficientVector):
        coeffs = [CoefficientVector(part, data.basis) for part in parts]
    else:
        coeffs = parts
    return PursuitResult(
        coefficients=coeffs,
        stacked=beta,
        residual=res,
        iterations=iterations + 1,
        objective=obj,
        nnz=[int(np.count_nonzero(part)) for part in parts],
        trace=trace,
        objective_trace=objective_trace,
    )
