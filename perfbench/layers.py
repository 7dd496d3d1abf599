"""The traced functions of each samplets layer and the per-layer metrics
computed from their spans and counters.

Times are self times (span duration minus the child spans), summed over a
pass; counts are exact.  A metric whose functions are absent reads 0.
"""

from __future__ import annotations

import math
import os

from tracer import Target


def _tree(tr, tree, args, kwargs):
    tr.count("tree.clusters", len(tree.clusters))
    tr.counters["tree.depth"] = max(tr.counters.get("tree.depth", 0), tree.depth)


def _entries(tr, block, args, kwargs):
    tr.count("kernels.entries", block.size)


def _keep_result(tr, matrix, args, kwargs):
    tr.objects["matrix"] = matrix


def _keep_operand(tr, result, args, kwargs):
    tr.objects["matrix"] = args[0]


def _cg_iterations(tr, result, args, kwargs):
    tr.count("solvers.cg_iters", result[1])


def _written(key, pos, name, sidecar=False):
    def hook(tr, result, args, kwargs):
        path = str(kwargs[name] if name in kwargs else args[pos])
        size = os.path.getsize(path)
        if sidecar:
            size += os.path.getsize(path + ".meta.json")
        tr.count(key, size)

    return hook


TARGETS = [
    Target("tree.build", "samplets.tree", "build_cluster_tree", _tree),
    Target("tree.cluster_dist", "samplets.tree", "cluster_dist"),
    Target("tree.cluster_diam", "samplets.tree", "cluster_diam"),
    Target("construction.build_basis", "samplets.construction", "build_basis"),
    Target("transform.forward", "samplets.transform", "forward_transform"),
    Target("transform.inverse", "samplets.transform", "inverse_transform"),
    Target("signal_ops.threshold", "samplets.signal_ops", "hard_threshold"),
    Target("signal_ops.coarsen", "samplets.signal_ops", "coarsen_tree"),
    Target("signal_ops.subsample", "samplets.signal_ops", "entropy_subsample"),
    Target("kernels.kernel_matrix", "samplets.kernels", "kernel_matrix", _entries),
    Target("compression.assemble", "samplets.compression", "compress_assemble",
           _keep_result),
    Target("compression.is_admissible", "samplets.compression", "is_admissible"),
    Target("compression.save", "samplets.compression", "save_compressed",
           _written("compression.smpb_bytes", 1, "path")),
    Target("compression.load", "samplets.compression", "load_compressed",
           _keep_result),
    Target("compression.matvec", "samplets.compression",
           "CompressedKernelMatrix.matvec", _keep_operand),
    Target("solvers.solve_interpolation", "samplets.solvers", "solve_interpolation"),
    Target("solvers.conjugate_gradient", "samplets.solvers", "conjugate_gradient",
           _cg_iterations),
    Target("io.read_points", "samplets.io", "read_points"),
    Target("io.write_coefficients", "samplets.io", "write_coefficients",
           _written("io.bytes_written", 1, "path", sidecar=True)),
    Target("cli.main", "samplets.cli", "main"),
]


def layer_metrics(totals, counters, objects):
    """Per-layer metrics of one traced pass.

    `totals` maps a target label to (calls, total s, self s) as returned by
    `Tracer.end_pass`; `counters` and `objects` are what the hooks recorded.
    """

    def calls(*labels):
        return sum(totals[k][0] for k in labels)

    def total(*labels):
        return sum(totals[k][1] for k in labels)

    def own(*labels):
        return sum(totals[k][2] for k in labels)

    matrix = objects.get("matrix")
    nnz = int(matrix.nnz) if matrix is not None else 0
    n = int(matrix.n) if matrix is not None else 0
    matvecs = calls("compression.matvec")
    matvec_s = total("compression.matvec")
    return {
        "tree.build_s": own("tree.build"),
        "tree.clusters": counters.get("tree.clusters", 0),
        "tree.depth": counters.get("tree.depth", 0),
        "tree.geometry_calls": calls("tree.cluster_dist", "tree.cluster_diam"),
        "tree.geometry_s": own("tree.cluster_dist", "tree.cluster_diam"),
        "construction.basis_s": own("construction.build_basis"),
        "transform.forward_s": own("transform.forward"),
        "transform.inverse_s": own("transform.inverse"),
        "transform.calls": calls("transform.forward", "transform.inverse"),
        "signal_ops.threshold_s": own("signal_ops.threshold"),
        "signal_ops.coarsen_s": own("signal_ops.coarsen"),
        "signal_ops.subsample_s": own("signal_ops.subsample"),
        "kernels.calls": calls("kernels.kernel_matrix"),
        "kernels.entries": counters.get("kernels.entries", 0),
        "kernels.eval_s": own("kernels.kernel_matrix"),
        "compression.assemble_s": total("compression.assemble"),
        "compression.assemble_self_s": own("compression.assemble"),
        "compression.admissible_calls": calls("compression.is_admissible"),
        "compression.admissible_s": own("compression.is_admissible"),
        "compression.blocks": len(getattr(matrix, "blocks", ())),
        "compression.nnz": nnz,
        "compression.nnz_per_nlogn": nnz / (n * math.log2(n)) if n > 1 else 0.0,
        "compression.save_s": own("compression.save"),
        "compression.smpb_mb": counters.get("compression.smpb_bytes", 0) / 1e6,
        "compression.load_s": own("compression.load"),
        "compression.matvec_calls": matvecs,
        "compression.matvec_s": matvec_s,
        "compression.matvec_us": 1e6 * matvec_s / matvecs if matvecs else 0.0,
        "compression.matvec_gflops": (
            2e-9 * nnz * matvecs / matvec_s if matvec_s else 0.0
        ),
        "solvers.cg_iters": counters.get("solvers.cg_iters", 0),
        "solvers.cg_self_s": own(
            "solvers.solve_interpolation", "solvers.conjugate_gradient"
        ),
        "io.read_s": own("io.read_points"),
        "io.write_s": own("io.write_coefficients"),
        "io.bytes_written": counters.get("io.bytes_written", 0),
        "cli.self_s": own("cli.main"),
    }
