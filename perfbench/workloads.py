"""The benchmark's workloads: input generation, one timed pass, and the
oracle checks on its outputs.

Sites are quasi-uniform: one uniform random point inside the inner 80% of
each cell of a regular m^d grid, in shuffled order.  With plain uniform
points a close pair of sites adds a small eigenvalue to the kernel matrix,
and the CG iteration count of the same solve swings by 30% between seeds
(291 to 399 at N=1024); the cell margin bounds the separation distance so
that the seed moves every site but not the amount of work.

Library calls go through module attributes (`sp.io.read_points`, not a
name imported once), so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import gc
import io
import tracemalloc
import zlib
from pathlib import Path
from time import perf_counter

import numpy as np

import samplets as sp
import samplets.cli  # noqa: F401  (loads the module the CLI pass calls)

KERNEL = "matern(nu=1/2,l=0.1)"
ETA = 1.25
INTERP_DEGREE = 6
MOMENT_DEGREE = 3
RIDGE = 1e-8
CG_TOL = 1e-8
CELL_MARGIN = 0.1
MB = 1e6

# oracle bounds: a few times the values seen at this commit, so that a
# broken pass fails while ordinary seed-to-seed variation passes
MATRIX_REL_ERROR_MAX = 1e-4
FIT_REL_RESIDUAL_MAX = 1e-3
TRANSFORM_REL_TOL = 1e-12


class CheckFailed(Exception):
    """An output of a pass disagreed with its oracle."""


def check(ok, message):
    if not ok:
        raise CheckFailed(message)


class PassClock:
    """Time excluded from a pass: checks run inside `untimed()` cost the
    pass nothing and, when a tracer is given, record no spans."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.excluded = 0.0

    @contextlib.contextmanager
    def untimed(self):
        t0 = perf_counter()
        pause = self.tracer.paused() if self.tracer else contextlib.nullcontext()
        try:
            with pause:
                yield
        finally:
            self.excluded += perf_counter() - t0


def grid_sites(rng, m, dim):
    cells = np.stack(
        np.meshgrid(*[np.arange(m)] * dim, indexing="ij"), axis=-1
    ).reshape(-1, dim)
    pts = (cells + CELL_MARGIN + (1 - 2 * CELL_MARGIN) * rng.random(cells.shape)) / m
    return pts[rng.permutation(len(pts))]


def smooth_values(pts):
    return np.exp(pts[:, 0] + pts[:, 1]) + np.sin(6 * pts[:, 0])


def kernel():
    return sp.kernels.parse_kernel(KERNEL)


def build_basis(cloud):
    return sp.construction.build_basis(cloud, MOMENT_DEGREE)


def rel(a, b):
    return float(np.linalg.norm(a) / np.linalg.norm(b))


class Workload:
    """One workload over m^dim sites; `sizes` maps a scale to m."""

    name = ""
    dim = 2
    sizes = {}

    def __init__(self, scale):
        self.m = self.sizes[scale]
        self.n = self.m**self.dim

    def rng(self, seed):
        return np.random.default_rng([seed, zlib.crc32(self.name.encode())])

    def setup(self, work, seed):
        """Write the inputs, then run one warm-up pass on a small input."""
        work = Path(work)
        self.write_inputs(work, seed)
        warm = type(self)("tiny")
        warm.write_inputs(work / "warm", seed)
        warm.run_pass(warm.prepare(work / "warm", seed), PassClock())

    def write_inputs(self, work, seed):
        raise NotImplementedError

    def prepare(self, work, seed):
        """Untimed state the passes share (paths, loaded signals)."""
        work = Path(work)
        (work / "out").mkdir(parents=True, exist_ok=True)
        return {"work": work, "seed": seed}

    def run_pass(self, ctx, clock):
        raise NotImplementedError

    def oracle(self, ctx, out):
        """Once-per-invocation accuracy figures of the last pass's output."""
        return {}

    def memory(self, ctx):
        """Bytes the kernel matrix holds (untimed, under tracemalloc)."""
        return {"compression.matrix_mb": 0.0, "compression.assemble_peak_mb": 0.0}


def _traced_growth(build):
    """(matrix MB after gc, peak MB during `build`) as tracemalloc growth.

    `build` returns the matrix; one matvec runs before the final reading so
    that lazily built state is counted.
    """
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        matrix = build()
        peak = tracemalloc.get_traced_memory()[1]
        matrix.matvec(np.ones(matrix.n))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return {
        "compression.matrix_mb": (held - base) / MB,
        "compression.assemble_peak_mb": (peak - base) / MB,
    }


class Assemble(Workload):
    """`samplets assemble`: read SMPL sites, build the basis, assemble the
    compressed matrix and write it as SMPB, all through `samplets.cli.main`."""

    name = "assemble-2d"
    sizes = {"full": 32, "tiny": 10}

    def write_inputs(self, work, seed):
        work.mkdir(parents=True, exist_ok=True)
        pts = grid_sites(self.rng(seed), self.m, self.dim)
        sp.io.write_points(sp.PointCloud(pts), work / "sites.smpl", format="binary")

    def prepare(self, work, seed):
        ctx = super().prepare(work, seed)
        ctx["basis"] = build_basis(sp.io.read_points(ctx["work"] / "sites.smpl"))
        return ctx

    def run_pass(self, ctx, clock):
        out = ctx["work"] / "out" / "matrix.smpb"
        argv = [
            "assemble", str(ctx["work"] / "sites.smpl"), "-o", str(out),
            "--kernel", KERNEL, "--eta", str(ETA), "--degree", str(INTERP_DEGREE),
            "-q", str(MOMENT_DEGREE),
        ]
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = sp.cli.main(argv)
        with clock.untimed():
            check(code == 0, f"samplets assemble exited {code}: {err.getvalue()}")
            # load(save(A)) must reproduce A bit for bit
            again = ctx["work"] / "out" / "matrix.again.smpb"
            sp.compression.save_compressed(
                sp.compression.load_compressed(out, ctx["basis"]), again
            )
            check(out.read_bytes() == again.read_bytes(), "SMPB round trip differs")
        return out

    def oracle(self, ctx, out):
        basis = ctx["basis"]
        A = sp.compression.load_compressed(out, basis).to_dense()
        K = sp.kernels.dense_kernel_matrix(kernel(), basis.tree.cloud)
        exact = sp.transform.transform_matrix_congruence(basis, K)
        err = rel(A - exact, exact)
        check(err <= MATRIX_REL_ERROR_MAX, f"matrix relative error {err:.3e}")
        return {
            "oracle.matrix_rel_error": err,
            "compression.asym_max": float(np.abs(A - A.T).max()),
        }

    def memory(self, ctx):
        basis = ctx["basis"]
        return _traced_growth(
            lambda: sp.compression.compress_assemble(basis, kernel(), ETA, INTERP_DEGREE)
        )


class Solve(Workload):
    """Assemble once (in set-up), solve per pass: read sites, build the
    basis, load the SMPB matrix, CG in samplet coordinates, back-transform
    and write the coefficients."""

    name = "solve-2d"
    sizes = {"full": 32, "tiny": 10}

    def write_inputs(self, work, seed):
        work.mkdir(parents=True, exist_ok=True)
        pts = grid_sites(self.rng(seed), self.m, self.dim)
        cloud = sp.PointCloud(pts, smooth_values(pts))
        sp.io.write_points(cloud, work / "sites.smpl", format="binary")
        matrix = sp.compression.compress_assemble(
            build_basis(cloud), kernel(), ETA, INTERP_DEGREE
        )
        sp.compression.save_compressed(matrix, work / "matrix.smpb")

    def run_pass(self, ctx, clock):
        work = ctx["work"]
        cloud = sp.io.read_points(work / "sites.smpl")
        basis = build_basis(cloud)
        matrix = sp.compression.load_compressed(work / "matrix.smpb", basis)
        rhs = sp.transform.forward_transform(basis, cloud.values)
        beta, report = sp.solvers.solve_interpolation(
            sp.solvers.InterpolationProblem(matrix, rhs, ridge=RIDGE, tol=CG_TOL)
        )
        alpha = sp.transform.inverse_transform(basis, beta)
        sp.io.write_coefficients(beta, work / "out" / "beta.csv")
        with clock.untimed():
            target = CG_TOL * np.linalg.norm(rhs.slots)
            check(report.converged, "CG reports no convergence")
            check(report.residual <= target,
                  f"CG residual {report.residual:.3e} above {target:.3e}")
        return cloud, alpha

    def oracle(self, ctx, out):
        cloud, alpha = out
        K = sp.kernels.dense_kernel_matrix(kernel(), cloud)
        res = rel(K @ alpha + RIDGE * alpha - cloud.values, cloud.values)
        check(res <= FIT_REL_RESIDUAL_MAX, f"fit relative residual {res:.3e}")
        return {"oracle.fit_rel_residual": res}

    def memory(self, ctx):
        work = ctx["work"]
        basis = build_basis(sp.io.read_points(work / "sites.smpl"))
        return _traced_growth(
            lambda: sp.compression.load_compressed(work / "matrix.smpb", basis)
        )


class Signal(Workload):
    """Stream 64 snapshot signals over one basis: forward transform, hard
    threshold at 1e-4 ||f||, inverse transform; then coarsen, subsample and
    write the coefficients of the last snapshot."""

    name = "signal-3d"
    dim = 3
    sizes = {"full": 16, "tiny": 6}
    snapshots = 64
    threshold = 1e-4
    coarsen_epsilon = 1e-2

    def write_inputs(self, work, seed):
        work.mkdir(parents=True, exist_ok=True)
        rng = self.rng(seed)
        pts = grid_sites(rng, self.m, self.dim)
        slopes = rng.uniform(-1.0, 1.0, size=(self.snapshots, self.dim))
        jumps = 0.3 + 0.4 * np.arange(self.snapshots) / self.snapshots
        signals = np.exp(pts @ slopes.T) + (pts[:, :1] > jumps)
        sp.io.write_points(sp.PointCloud(pts), work / "sites.smpl", format="binary")
        np.save(work / "signals.npy", signals)

    def prepare(self, work, seed):
        ctx = super().prepare(work, seed)
        ctx["signals"] = np.load(ctx["work"] / "signals.npy")
        return ctx

    def run_pass(self, ctx, clock):
        signals = ctx["signals"]
        cloud = sp.io.read_points(ctx["work"] / "sites.smpl")
        basis = build_basis(cloud)
        errors, kept_share = [], []
        for f in signals.T:
            coeffs = sp.transform.forward_transform(basis, f)
            norm = np.linalg.norm(f)
            kept = sp.signal_ops.hard_threshold(coeffs, self.threshold * norm)
            recon = sp.transform.inverse_transform(basis, kept)
            with clock.untimed():
                back = sp.transform.inverse_transform(basis, coeffs)
                tol = TRANSFORM_REL_TOL * norm
                check(np.linalg.norm(back - f) <= tol, "round trip error")
                check(abs(np.linalg.norm(coeffs.slots) - norm) <= tol, "Parseval")
                err = np.linalg.norm(f - recon)
                dropped = np.linalg.norm(coeffs.slots - kept.slots)
                check(abs(err - dropped) <= tol,
                      "reconstruction error differs from the dropped norm")
                errors.append(err / norm)
                kept_share.append(kept.nnz / self.n)
        sub = sp.signal_ops.coarsen_tree(coeffs, self.coarsen_epsilon)
        picked = sp.signal_ops.entropy_subsample(sub, self.n // 16, ctx["seed"])
        sp.io.write_coefficients(kept, ctx["work"] / "out" / "kept.csv")
        with clock.untimed():
            check(len(np.unique(picked)) == self.n // 16, "subsample repeats a site")
        return errors, kept_share

    def oracle(self, ctx, out):
        errors, kept_share = out
        return {
            "oracle.recon_rel_error": float(np.median(errors)),
            "oracle.kept_fraction": float(np.median(kept_share)),
        }


WORKLOADS = {w.name: w for w in (Assemble, Solve, Signal)}
