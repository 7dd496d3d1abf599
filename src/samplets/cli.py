"""Command-line surface: file-driven pipelines over the library.

Exit codes: 0 success, 2 input error, 3 solver non-convergence.  All runs
echo their effective parameters to stderr for reproducibility; outputs are
deterministic for identical RunSpec + seed.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields

import numpy as np

from .compression import compress_assemble, compression_error_report, save_compressed
from .construction import build_basis, default_leaf_size
from .io import (
    InputError,
    read_coefficients,
    read_points,
    write_coefficients,
    write_points,
    write_report_csv,
)
from .kernels import parse_kernel
from .points import PointCloud, rescale_unit_box
from .signal_ops import coarsen_tree, compression_report, entropy_subsample
from .solvers import (
    InterpolationProblem,
    PursuitProblem,
    SolverError,
    solve_interpolation,
    solve_pursuit,
)
from .transform import CoefficientVector, forward_transform, inverse_transform

_COMMON = ("points", "output", "moment_degree", "carry_degree", "leaf_size", "rescale")
_KERNEL = ("kernels", "eta", "interp_degree")
# the RunSpec fields each command takes, as its parser defines them
_TAKES = {
    "transform": _COMMON + ("inverse", "coeffs"),
    "compress": _COMMON + ("thresholds",),
    "coarsen": _COMMON + ("epsilon",),
    "subsample": _COMMON + ("epsilon", "n", "seed"),
    "assemble": _COMMON + _KERNEL,
    "interpolate": _COMMON + _KERNEL + ("ridge", "tol", "max_iter", "dense"),
    "pursue": _COMMON + _KERNEL + ("weight", "step", "tol", "max_iter"),
    "report": _COMMON + _KERNEL,
}
COMMANDS = tuple(_TAKES)


@dataclass
class RunSpec:
    """Validated description of one CLI run."""

    command: str
    points: str | None = None
    coeffs: str | None = None
    output: str = "out"
    inverse: bool = False
    moment_degree: int = 3
    carry_degree: int | None = None
    leaf_size: int | None = None
    eta: float = 1.25
    interp_degree: int = 6
    ridge: float = 0.0
    epsilon: float = 1e-2
    thresholds: tuple = (1e-2, 1e-3, 1e-4, 1e-5)
    kernels: tuple = ()
    weight: float = 1e-6
    step: float | None = None
    n: int = 0
    seed: int = 0
    rescale: bool = False
    tol: float = 1e-8
    max_iter: int = 5000
    dense: bool = False

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise InputError(f"unknown command '{self.command}'")
        if self.moment_degree < 0:
            raise InputError("moment degree must be >= 0")
        if self.eta <= 0:
            raise InputError("eta must be positive")
        if not 0 < self.epsilon < 1:
            raise InputError("epsilon must lie in (0, 1)")
        if self.ridge < 0:
            raise InputError("ridge must be nonnegative")
        if any(t < 0 for t in self.thresholds):
            raise InputError("thresholds must be nonnegative")

    @classmethod
    def from_dict(cls, data):
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise InputError(f"unknown RunSpec keys: {sorted(unknown)}")
        return cls(**data)


def _echo(spec: RunSpec):
    """The command and the parameters it takes, to stderr."""
    pairs = [(k, getattr(spec, k)) for k in _TAKES[spec.command]]
    line = " ".join(f"{k}={v}" for k, v in pairs if v not in (None, ()))
    print(f"# samplets command={spec.command} {line}", file=sys.stderr)


def _load_cloud(spec: RunSpec, need_values=False):
    if not spec.points:
        raise InputError("no points file given")
    cloud = read_points(spec.points)
    if need_values and cloud.values is None:
        raise InputError(f"{spec.points}: values column required for this command")
    offset, scale = None, 1.0
    if spec.rescale:
        cloud, offset, scale = rescale_unit_box(cloud)
    return cloud, offset, scale


def _build(spec: RunSpec, cloud: PointCloud):
    leaf = spec.leaf_size or default_leaf_size(spec.moment_degree, cloud.dim)
    return build_basis(
        cloud, spec.moment_degree, leaf_size=leaf, carry_degree=spec.carry_degree
    )


def _rescale_meta(offset, scale):
    if offset is None:
        return {}
    return {"rescale_offset": [float(x) for x in offset], "rescale_scale": scale}


def _run_transform(spec: RunSpec):
    if spec.inverse:
        if not spec.coeffs:
            raise InputError("inverse transform needs --coeffs")
        slots, meta = read_coefficients(spec.coeffs)
        raw = read_points(spec.points) if spec.points else None
        if raw is None:
            raise InputError("no points file given")
        cloud = raw
        if "rescale_offset" in meta:  # forward ran with --rescale-unit-box
            cloud = PointCloud(
                (raw.points - np.asarray(meta["rescale_offset"]))
                / meta["rescale_scale"]
            )
        rebuilt = build_basis(
            cloud,
            meta["moment_degree"],
            leaf_size=meta["leaf_size"],
            carry_degree=meta["carry_degree"],
        )
        if [int(i) for i in rebuilt.tree.permutation] != meta["permutation"]:
            raise InputError(
                "points file does not reproduce the recorded tree permutation"
            )
        values = inverse_transform(rebuilt, CoefficientVector(slots, rebuilt))
        write_points(PointCloud(raw.points, values), spec.output, format="csv")
        return 0
    cloud, offset, scale = _load_cloud(spec, need_values=True)
    basis = _build(spec, cloud)
    coeffs = forward_transform(basis, cloud.values)
    write_coefficients(coeffs, spec.output, extra=_rescale_meta(offset, scale))
    return 0


def _run_compress(spec: RunSpec):
    cloud, offset, scale = _load_cloud(spec, need_values=True)
    basis = _build(spec, cloud)
    rows = compression_report(basis, cloud.values, list(spec.thresholds))
    write_report_csv(
        spec.output,
        ["relative_threshold", "threshold", "nnz", "space_saving", "rel_error"],
        [
            (r.relative_threshold, r.threshold, r.nnz, r.space_saving, r.rel_error)
            for r in rows
        ],
    )
    return 0


def _run_coarsen(spec: RunSpec):
    cloud, offset, scale = _load_cloud(spec, need_values=True)
    basis = _build(spec, cloud)
    coeffs = forward_transform(basis, cloud.values)
    sub = coarsen_tree(coeffs, spec.epsilon)
    leaves = {c.index for c in sub.leaves}
    rows = [
        (c.index, c.level, c.start, c.stop, int(c.index in leaves))
        for c in sub.clusters()
    ]
    write_report_csv(
        spec.output, ["cluster_id", "level", "start", "stop", "is_leaf"], rows
    )
    print(f"# subtree: {len(rows)} clusters, {len(leaves)} leaves", file=sys.stderr)
    return 0


def _run_subsample(spec: RunSpec):
    cloud, offset, scale = _load_cloud(spec, need_values=True)
    if spec.n < 1:
        raise InputError("subsample needs --n >= 1")
    basis = _build(spec, cloud)
    coeffs = forward_transform(basis, cloud.values)
    sub = coarsen_tree(coeffs, spec.epsilon)
    idx = entropy_subsample(sub, spec.n, spec.seed)
    write_report_csv(spec.output, ["index"], [(int(i),) for i in idx])
    return 0


def _kernel(spec: RunSpec, pos=0):
    if len(spec.kernels) <= pos:
        raise InputError("missing --kernel specification")
    return parse_kernel(spec.kernels[pos])


def _run_assemble(spec: RunSpec):
    cloud, offset, scale = _load_cloud(spec)
    basis = _build(spec, cloud)
    matrix = compress_assemble(basis, _kernel(spec), spec.eta, spec.interp_degree)
    save_compressed(matrix, spec.output)
    print(
        f"# assembled: n={matrix.n} blocks={len(matrix.layout.keys)} "
        f"nnz={matrix.nnz} storage={'dense' if matrix.layout.dense else 'csr'}",
        file=sys.stderr,
    )
    return 0


def _run_interpolate(spec: RunSpec):
    cloud, offset, scale = _load_cloud(spec, need_values=True)
    basis = _build(spec, cloud)
    kernel = _kernel(spec)
    rhs = forward_transform(basis, cloud.values)
    if spec.dense:
        from .kernels import dense_kernel_matrix
        from .transform import transform_matrix_congruence

        matrix = transform_matrix_congruence(
            basis, dense_kernel_matrix(kernel, cloud)
        )
    else:
        matrix = compress_assemble(basis, kernel, spec.eta, spec.interp_degree)
    problem = InterpolationProblem(
        matrix, rhs, ridge=spec.ridge, tol=spec.tol, max_iter=spec.max_iter
    )
    beta, report = solve_interpolation(problem)
    write_coefficients(beta, spec.output, extra=_rescale_meta(offset, scale))
    alpha = inverse_transform(basis, beta)
    with open(str(spec.output) + ".alpha.csv", "w", encoding="utf-8") as fh:
        fh.write("alpha\n")
        fh.writelines(f"{a:.17g}\n" for a in alpha)
    write_report_csv(
        str(spec.output) + ".report.csv",
        ["converged", "iterations", "residual", "ridge", "tol"],
        [(int(report.converged), report.iterations, report.residual, spec.ridge, spec.tol)],
    )
    return 0


def _run_pursue(spec: RunSpec):
    cloud, offset, scale = _load_cloud(spec, need_values=True)
    basis = _build(spec, cloud)
    if not spec.kernels:
        raise InputError("pursue needs at least one --kernel")
    mats = [
        compress_assemble(basis, parse_kernel(k), spec.eta, spec.interp_degree)
        for k in spec.kernels
    ]
    rhs = forward_transform(basis, cloud.values)
    problem = PursuitProblem(
        mats,
        rhs,
        weights=spec.weight,
        step=spec.step,
        tol=spec.tol * (1.0 + float(np.linalg.norm(rhs.slots))),
        max_iter=spec.max_iter,
    )
    result = solve_pursuit(problem)
    for i, beta in enumerate(result.coefficients):
        write_coefficients(
            beta, f"{spec.output}.k{i}.csv", extra=_rescale_meta(offset, scale)
        )
    write_report_csv(
        str(spec.output) + ".report.csv",
        ["kernel", "nnz", "iterations", "residual", "objective"],
        [
            (spec.kernels[i], result.nnz[i], result.iterations, result.residual, result.objective)
            for i in range(len(spec.kernels))
        ],
    )
    return 0


def _run_report(spec: RunSpec):
    cloud, offset, scale = _load_cloud(spec)
    basis = _build(spec, cloud)
    degrees = sorted({spec.moment_degree, *range(1, spec.moment_degree + 1)})
    rows = compression_error_report(
        basis, _kernel(spec), spec.eta, degrees, spec.interp_degree
    )
    write_report_csv(
        spec.output,
        ["moment_degree", "nnz", "rel_frobenius_error"],
        [(r.moment_degree, r.nnz, r.rel_frobenius_error) for r in rows],
    )
    return 0


_RUNNERS = {
    "transform": _run_transform,
    "compress": _run_compress,
    "coarsen": _run_coarsen,
    "subsample": _run_subsample,
    "assemble": _run_assemble,
    "interpolate": _run_interpolate,
    "pursue": _run_pursue,
    "report": _run_report,
}


def run(spec: RunSpec) -> int:
    """Execute a run; returns the process exit code."""
    _echo(spec)
    return _RUNNERS[spec.command](spec)


def _parser():
    p = argparse.ArgumentParser(
        prog="samplets",
        description="Multiresolution samplet analysis for scattered data",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, values=True):
        sp.add_argument("points", help="input points file (CSV or binary)")
        sp.add_argument("-o", "--output", default="out", help="output path")
        sp.add_argument("-q", "--moment-degree", type=int, default=3,
                        help="largest annihilated polynomial total degree")
        sp.add_argument("--carry-degree", type=int, default=None,
                        help="carry extra moment rows for increasing moments")
        sp.add_argument("--leaf-size", type=int, default=None)
        sp.add_argument("--rescale-unit-box", dest="rescale", action="store_true",
                        help="map sites into [0,1]^d and record the affine map")

    sp = sub.add_parser("transform", help="samplet analysis / synthesis of values")
    common(sp)
    sp.add_argument("--inverse", action="store_true")
    sp.add_argument("--coeffs", help="coefficient file for --inverse")

    sp = sub.add_parser("compress", help="hard-thresholding compression report")
    common(sp)
    sp.add_argument("--thresholds", default="1e-2,1e-3,1e-4,1e-5",
                    help="comma-separated relative thresholds")

    sp = sub.add_parser("coarsen", help="energy-based adaptive subtree")
    common(sp)
    sp.add_argument("--epsilon", type=float, default=1e-2)

    sp = sub.add_parser("subsample", help="entropy-driven adaptive subsample")
    common(sp)
    sp.add_argument("--epsilon", type=float, default=1e-2)
    sp.add_argument("-n", type=int, required=True, help="sample size")
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("assemble", help="compressed kernel matrix assembly")
    common(sp)
    sp.add_argument("--kernel", action="append", dest="kernels", required=True)
    sp.add_argument("--eta", type=float, default=1.25)
    sp.add_argument("--degree", type=int, default=6, dest="interp_degree")

    sp = sub.add_parser("interpolate", help="regularized kernel interpolation")
    common(sp)
    sp.add_argument("--kernel", action="append", dest="kernels", required=True)
    sp.add_argument("--mu", type=float, default=0.0, dest="ridge")
    sp.add_argument("--eta", type=float, default=1.25)
    sp.add_argument("--degree", type=int, default=6, dest="interp_degree")
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--max-iter", type=int, default=5000)
    sp.add_argument("--dense", action="store_true",
                    help="use the dense matrix instead of compressed assembly")

    sp = sub.add_parser("pursue", help="weighted l1 multi-kernel basis pursuit")
    common(sp)
    sp.add_argument("--kernel", action="append", dest="kernels", required=True)
    sp.add_argument("--weight", type=float, default=1e-6)
    sp.add_argument("--step", type=float, default=None)
    sp.add_argument("--eta", type=float, default=1.25)
    sp.add_argument("--degree", type=int, default=6, dest="interp_degree")
    sp.add_argument("--tol", type=float, default=1e-8,
                    help="relative fixed-point tolerance")
    sp.add_argument("--max-iter", type=int, default=200)

    sp = sub.add_parser("report", help="compression accuracy/size sweep")
    common(sp)
    sp.add_argument("--kernel", action="append", dest="kernels", required=True)
    sp.add_argument("--eta", type=float, default=1.25)
    sp.add_argument("--degree", type=int, default=6, dest="interp_degree")

    return p


def main(argv=None) -> int:
    args = vars(_parser().parse_args(argv))
    if "thresholds" in args and isinstance(args["thresholds"], str):
        try:
            args["thresholds"] = tuple(
                float(t) for t in args["thresholds"].split(",") if t.strip()
            )
        except ValueError:
            print("error: bad --thresholds list", file=sys.stderr)
            return 2
    if args.get("kernels"):
        args["kernels"] = tuple(args["kernels"])
    try:
        spec = RunSpec.from_dict(args)
        return run(spec)
    except (InputError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
