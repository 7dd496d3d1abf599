"""Scattered data sites and optional attached data values."""

from __future__ import annotations

import numpy as np

DENSE_GUARD = 8192  # the most sites the dense N x N reference paths accept


class PointCloud:
    """N data sites in d dimensions, optionally carrying one value per site.

    Coordinates are taken as given (no internal rescaling); callers that
    want unit-box coordinates apply `rescale_unit_box` explicitly.
    """

    def __init__(self, points, values=None):
        pts = np.ascontiguousarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("empty input")
        if pts.shape[1] == 0:
            raise ValueError(f"{pts.shape[0]} sites without coordinates")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points contain NaN or Inf")
        self.points = pts
        if values is not None:
            vals = np.ascontiguousarray(values, dtype=float)
            if vals.shape != (pts.shape[0],):
                raise ValueError(
                    f"values length {vals.shape} does not match {pts.shape[0]} points"
                )
            if not np.all(np.isfinite(vals)):
                raise ValueError("values contain NaN or Inf")
            self.values = vals
        else:
            self.values = None

    @property
    def dim(self):
        return self.points.shape[1]

    def __len__(self):
        return self.points.shape[0]

    def __repr__(self):
        tag = "with values" if self.values is not None else "no values"
        return f"PointCloud(n={len(self)}, dim={self.dim}, {tag})"


def rescale_unit_box(cloud: PointCloud):
    """Affinely map the cloud into the unit hypercube [0, 1]^d.

    Returns (rescaled_cloud, offset, scale) with original = rescaled * scale
    + offset.  A single scalar scale (the largest axis extent) is used so the
    map is a similarity transform; degenerate clouds get scale 1.
    """
    lo = cloud.points.min(axis=0)
    hi = cloud.points.max(axis=0)
    scale = float(np.max(hi - lo))
    if scale <= 0.0:
        scale = 1.0
    rescaled = PointCloud((cloud.points - lo) / scale, cloud.values)
    return rescaled, lo, scale
