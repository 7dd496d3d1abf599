"""Fast change of basis between point values and samplet coefficients.

Both directions sweep the cluster tree once, one stacked product per level
group of the basis, so the cost is linear in the number of points and the
Python work is per level, not per cluster.  The slot enumeration is the one
fixed by SampletBasis.
"""

from __future__ import annotations

import numpy as np

from .construction import SampletBasis
from .points import DENSE_GUARD


class CoefficientVector:
    """Samplet coefficients of one signal, tied to the generating basis."""

    __slots__ = ("slots", "basis")

    def __init__(self, slots, basis):
        slots = np.asarray(slots, dtype=float)
        if slots.shape[0] != basis.n:
            raise ValueError(f"expected {basis.n} slots, got {slots.shape[0]}")
        self.slots = slots
        self.basis = basis

    def __array__(self, dtype=None, copy=None):
        # NumPy 2's protocol: np.asarray shares the slots, np.array copies
        # them, and copy=False refuses a cast
        return np.array(self.slots, dtype=dtype, copy=copy)

    def __len__(self):
        return self.slots.shape[0]

    @property
    def nnz(self):
        return int(np.count_nonzero(self.slots))


def _rows(values, n):
    """Float vector or (n, k) matrix; vectors stay one-dimensional, so the
    sweeps gather and scatter single values, not rows."""
    arr = np.asarray(values, dtype=float)
    if arr.shape[0] != n:
        raise ValueError(f"length mismatch: expected {n}, got {arr.shape[0]}")
    return arr


def forward_transform(basis: SampletBasis, values) -> CoefficientVector:
    """Samplet coefficients of point values given in original point order.

    Accepts a vector or an (N, k) matrix of k signals; the matrix form
    returns a plain array of transformed columns.
    """
    arr = _rows(values, basis.n)
    buf = np.empty((basis.sweep_rows,) + arr.shape[1:])
    for g in basis.groups:  # deepest level first
        x = np.take(arr if g.leaf else buf, g.gather, axis=0)
        buf[g.scatter] = g.analyze(x)
    coeffs = buf[basis.slot_row :]  # the coefficient slots end the buffer
    if arr.ndim == 1:
        return CoefficientVector(coeffs, basis)
    return coeffs


def inverse_transform(basis: SampletBasis, coeffs):
    """Point values (original order) from samplet coefficients."""
    if isinstance(coeffs, CoefficientVector):
        if coeffs.basis is not basis:
            raise ValueError("basis mismatch: coefficients belong to another basis")
        coeffs = coeffs.slots
    arr = _rows(coeffs, basis.n)
    buf = np.empty((basis.sweep_rows,) + arr.shape[1:])
    buf[basis.slot_row :] = arr
    out = np.empty_like(arr)
    for g in reversed(basis.groups):  # root first
        x = np.take(buf, g.scatter, axis=0)
        (out if g.leaf else buf)[g.gather] = g.synthesize(x)
    return out


def transform_matrix_congruence(basis: SampletBasis, dense: np.ndarray) -> np.ndarray:
    """Two-sided transform of a dense matrix into samplet coordinates.

    Applies the forward transform to all columns, then to all rows; for the
    dense transform T this equals T @ dense @ T.T.  Test oracle, guarded.
    """
    dense = np.asarray(dense, dtype=float)
    n = basis.n
    if dense.shape != (n, n):
        raise ValueError(f"expected ({n}, {n}) matrix, got {dense.shape}")
    if n > DENSE_GUARD:
        raise ValueError(f"dense congruence guard exceeded: {n} > {DENSE_GUARD}")
    cols = forward_transform(basis, dense)
    return forward_transform(basis, np.ascontiguousarray(cols.T)).T
