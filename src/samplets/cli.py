"""Command-line surface: file-driven pipelines over the library.

Exit codes: 0 success, 2 input error, 3 solver non-convergence.  All runs
echo their effective parameters to stderr for reproducibility; outputs are
deterministic for identical RunSpec + seed.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import make_dataclass
from typing import Callable, NamedTuple

import numpy as np

from .compression import compress_assemble, compression_error_report, save_compressed
from .construction import build_basis
from .io import (
    InputError,
    read_coefficients,
    read_points,
    write_coefficients,
    write_points,
    write_report_csv,
)
from .kernels import dense_kernel_matrix, parse_kernel
from .points import PointCloud, rescale_unit_box
from .signal_ops import coarsen_tree, compression_report, entropy_subsample
from .solvers import (
    InterpolationProblem,
    PursuitProblem,
    SolverError,
    solve_interpolation,
    solve_pursuit,
)
from .transform import (
    CoefficientVector,
    forward_transform,
    inverse_transform,
    transform_matrix_congruence,
)


def _floats(text):
    """A comma-separated list of numbers, as a tuple of floats."""
    try:
        return tuple(float(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a list of numbers: {text!r}") from None


# each RunSpec field: its command-line flags and argparse settings, default
# among them (None where none is given)
_PARAMS = {
    "points": (("points",), dict(help="input points file (CSV or binary)")),
    "coeffs": (("--coeffs",), dict(help="coefficient file for --inverse")),
    "output": (("-o", "--output"), dict(default="out", help="output path")),
    "inverse": (("--inverse",), dict(action="store_true", default=False)),
    "moment_degree": (("-q", "--moment-degree"), dict(
        type=int, default=3, help="largest annihilated polynomial total degree")),
    "carry_degree": (("--carry-degree",), dict(
        type=int, help="carry extra moment rows for increasing moments")),
    "leaf_size": (("--leaf-size",), dict(type=int)),
    "eta": (("--eta",), dict(type=float, default=1.25)),
    "interp_degree": (("--degree",), dict(type=int, default=6)),
    "ridge": (("--mu",), dict(type=float, default=0.0)),
    "epsilon": (("--epsilon",), dict(type=float, default=1e-2)),
    "thresholds": (("--thresholds",), dict(
        type=_floats, default=(1e-2, 1e-3, 1e-4, 1e-5),
        help="comma-separated relative thresholds")),
    "kernels": (("--kernel",), dict(action="append", required=True)),
    "weight": (("--weight",), dict(type=float, default=1e-6)),
    "n": (("-n",), dict(type=int, required=True, help="sample size")),
    "seed": (("--seed",), dict(type=int, default=0)),
    "rescale": (("--rescale-unit-box",), dict(
        action="store_true", default=False,
        help="map sites into [0,1]^d and record the affine map")),
    "tol": (("--tol",), dict(type=float, default=1e-8, help="relative tolerance")),
    "max_iter": (("--max-iter",), dict(type=int, default=5000)),
    "dense": (("--dense",), dict(
        action="store_true", default=False,
        help="use the dense matrix instead of compressed assembly")),
}


class _RunSpec:
    """Validated description of one CLI run: the command and one field per
    entry of `_PARAMS`.  A field left unset (None) takes the command's
    default, as on the command line; `parsed_kernels` holds the `kernels`
    specs parsed."""

    def __post_init__(self):
        command = COMMANDS.get(self.command)
        if command is None:
            raise InputError(f"unknown command '{self.command}'")
        for name, (flags, settings) in _PARAMS.items():
            value = getattr(self, name)
            if value is None:
                value = command.default(name)
            elif settings.get("action") == "append":
                value = tuple(value) or None
            if value is None and settings.get("required") and name in command.takes:
                raise InputError(f"{self.command} needs {flags[0]}")
            setattr(self, name, value)
        if self.moment_degree < 0:
            raise InputError("moment degree must be >= 0")
        # each test is written so that NaN fails it
        if not self.eta > 0:
            raise InputError("eta must be positive")
        if self.interp_degree < 0:
            raise InputError("interpolation degree must be >= 0")
        if not 0 < self.epsilon < 1:
            raise InputError("epsilon must lie in (0, 1)")
        if not 0 <= self.ridge < np.inf:
            raise InputError("ridge must be nonnegative and finite")
        if not 0 <= self.weight < np.inf:
            raise InputError("weight must be nonnegative and finite")
        if not all(t >= 0 for t in self.thresholds):
            raise InputError("thresholds must be nonnegative")
        if not 0 < self.tol < np.inf:
            raise InputError("tol must be positive and finite")
        if self.max_iter < 1:
            raise InputError("max_iter must be >= 1")
        try:  # before any work, so a bad kernel spec costs no basis
            self.parsed_kernels = tuple(parse_kernel(k) for k in self.kernels or ())
        except ValueError as exc:
            raise InputError(str(exc)) from None

    @classmethod
    def from_dict(cls, data):
        unknown = set(data) - {"command", *_PARAMS}
        if unknown:
            raise InputError(f"unknown RunSpec keys: {sorted(unknown)}")
        return cls(**data)


RunSpec = make_dataclass(
    "RunSpec", [("command", str), *((name, object, None) for name in _PARAMS)],
    bases=(_RunSpec,), namespace={"__module__": __name__},
)


def _echo(spec: RunSpec):
    """The command and the parameters it takes, to stderr."""
    pairs = [(k, getattr(spec, k)) for k in COMMANDS[spec.command].takes]
    unset = [k for k, v in pairs if v is None or isinstance(v, tuple) and not v]
    line = " ".join(f"{k}={v}" for k, v in pairs if k not in unset)
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
    return build_basis(cloud, spec.moment_degree, spec.leaf_size, spec.carry_degree)


def _rescale_meta(offset, scale):
    if offset is None:
        return {}
    return {"rescale_offset": [float(x) for x in offset], "rescale_scale": scale}


def _run_transform(spec: RunSpec):
    if spec.inverse:
        if not spec.coeffs:
            raise InputError("inverse transform needs --coeffs")
        slots, meta = read_coefficients(spec.coeffs)
        if not spec.points:
            raise InputError("no points file given")
        cloud = raw = read_points(spec.points)
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
    tree, ids = basis.tree, sub.clusters()
    leaf = np.isin(ids, sub.leaves).astype(int)
    columns = ids, tree.level[ids], tree.start[ids], (tree.start + tree.size)[ids], leaf
    rows = list(zip(*(c.tolist() for c in columns)))
    write_report_csv(
        spec.output, ["cluster_id", "level", "start", "stop", "is_leaf"], rows
    )
    print(f"# subtree: {len(rows)} clusters, {sub.n_leaves} leaves", file=sys.stderr)
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


def _run_assemble(spec: RunSpec):
    cloud, offset, scale = _load_cloud(spec)
    basis = _build(spec, cloud)
    matrix = compress_assemble(basis, spec.parsed_kernels[0], spec.eta, spec.interp_degree)
    save_compressed(matrix, spec.output)
    keys = matrix.layout.keys  # the upper blocks, counted with their mirrors
    blocks = 2 * len(keys) - np.count_nonzero(keys[:, 0] == keys[:, 1])
    print(
        f"# assembled: n={matrix.n} blocks={blocks} "
        f"nnz={matrix.nnz} storage={'dense' if matrix.layout.dense else 'panels'}",
        file=sys.stderr,
    )
    return 0


def _run_interpolate(spec: RunSpec):
    cloud, offset, scale = _load_cloud(spec, need_values=True)
    basis = _build(spec, cloud)
    kernel = spec.parsed_kernels[0]
    rhs = forward_transform(basis, cloud.values)
    if spec.dense:
        matrix = transform_matrix_congruence(basis, dense_kernel_matrix(kernel, cloud))
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
    mats = [
        compress_assemble(basis, k, spec.eta, spec.interp_degree)
        for k in spec.parsed_kernels
    ]
    rhs = forward_transform(basis, cloud.values)
    problem = PursuitProblem(
        mats,
        rhs,
        weights=spec.weight,
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
        basis, spec.parsed_kernels[0], spec.eta, degrees, spec.interp_degree
    )
    write_report_csv(
        spec.output,
        ["moment_degree", "nnz", "rel_frobenius_error"],
        [(r.moment_degree, r.nnz, r.rel_frobenius_error) for r in rows],
    )
    return 0


class _Command(NamedTuple):
    help: str
    run: Callable[[RunSpec], int]
    takes: tuple  # the RunSpec fields it reads, in echo order
    defaults: dict = {}  # where they differ from the fields' own defaults

    def default(self, name):
        return self.defaults.get(name, _PARAMS[name][1].get("default"))


_COMMON = ("points", "output", "moment_degree", "carry_degree", "leaf_size", "rescale")
_KERNEL = ("kernels", "eta", "interp_degree")
COMMANDS = {
    "transform": _Command("samplet analysis / synthesis of values", _run_transform,
                          _COMMON + ("inverse", "coeffs")),
    "compress": _Command("hard-thresholding compression report", _run_compress,
                         _COMMON + ("thresholds",)),
    "coarsen": _Command("energy-based adaptive subtree", _run_coarsen,
                        _COMMON + ("epsilon",)),
    "subsample": _Command("entropy-driven adaptive subsample", _run_subsample,
                          _COMMON + ("epsilon", "n", "seed")),
    "assemble": _Command("compressed kernel matrix assembly", _run_assemble,
                         _COMMON + _KERNEL),
    "interpolate": _Command("regularized kernel interpolation", _run_interpolate,
                            _COMMON + _KERNEL + ("ridge", "tol", "max_iter", "dense")),
    "pursue": _Command("weighted l1 multi-kernel basis pursuit", _run_pursue,
                       _COMMON + _KERNEL + ("weight", "tol", "max_iter"),
                       defaults={"max_iter": 200}),
    "report": _Command("compression accuracy/size sweep", _run_report,
                       _COMMON + _KERNEL),
}


def run(spec: RunSpec) -> int:
    """Execute a run; returns the process exit code."""
    _echo(spec)
    return COMMANDS[spec.command].run(spec)


@functools.cache
def _parser():
    p = argparse.ArgumentParser(
        prog="samplets",
        description="Multiresolution samplet analysis for scattered data",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        for key in command.takes:
            flags, settings = _PARAMS[key]
            settings = dict(settings, default=command.default(key))
            if flags[0].startswith("-"):
                settings["dest"] = key
            sp.add_argument(*flags, **settings)
    return p


def main(argv=None) -> int:
    args = vars(_parser().parse_args(argv))
    try:
        return run(RunSpec.from_dict(args))
    except (InputError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
