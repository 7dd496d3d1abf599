"""Samplets: multiresolution, orthonormal, vanishing-moment bases over
scattered data, with fast transforms, data compression, compressed kernel
matrices, and sparse recovery."""

from .compression import (
    CompressedKernelMatrix,
    add_compressed,
    compress_assemble,
    compression_error_report,
    is_admissible,
    load_compressed,
    save_compressed,
)
from .construction import (
    SampletBasis,
    assemble_dense_transform,
    build_basis,
    build_samplet_basis,
    default_leaf_size,
    moment_count,
)
from .kernels import (
    Matern,
    PeriodicGaussian,
    ProductKernel,
    dense_kernel_matrix,
    kernel_eval,
    kernel_matrix,
    parse_kernel,
)
from .points import PointCloud, rescale_unit_box
from .signal_ops import (
    CoarsenedTree,
    EnergyTree,
    coarsen_tree,
    compression_report,
    entropy_subsample,
    hard_threshold,
    thresholding_stats,
)
from .solvers import (
    InterpolationProblem,
    PursuitProblem,
    SolverError,
    pursuit_objective,
    soft_shrink,
    solve_interpolation,
    solve_pursuit,
)
from .transform import (
    CoefficientVector,
    forward_transform,
    inverse_transform,
    transform_matrix_congruence,
)
from .tree import Cluster, ClusterTree, build_cluster_tree, cluster_diam, cluster_dist

__version__ = "0.1.0"

__all__ = [
    "CoarsenedTree",
    "CoefficientVector",
    "Cluster",
    "ClusterTree",
    "CompressedKernelMatrix",
    "EnergyTree",
    "InterpolationProblem",
    "Matern",
    "PeriodicGaussian",
    "PointCloud",
    "ProductKernel",
    "PursuitProblem",
    "SampletBasis",
    "SolverError",
    "add_compressed",
    "assemble_dense_transform",
    "build_basis",
    "build_cluster_tree",
    "build_samplet_basis",
    "cluster_diam",
    "cluster_dist",
    "coarsen_tree",
    "compress_assemble",
    "compression_error_report",
    "compression_report",
    "default_leaf_size",
    "dense_kernel_matrix",
    "entropy_subsample",
    "forward_transform",
    "hard_threshold",
    "inverse_transform",
    "is_admissible",
    "kernel_eval",
    "kernel_matrix",
    "load_compressed",
    "moment_count",
    "parse_kernel",
    "pursuit_objective",
    "rescale_unit_box",
    "save_compressed",
    "soft_shrink",
    "solve_interpolation",
    "solve_pursuit",
    "thresholding_stats",
    "transform_matrix_congruence",
]
