"""File formats: point clouds (CSV and binary), coefficient files, and the
sidecar metadata that makes transforms reloadable.

Formats are documented in docs/formats.md.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .points import PointCloud

POINTS_MAGIC = b"SMPL"


class InputError(ValueError):
    """Malformed input file or arguments; maps to CLI exit code 2."""


def _sniff_format(path):
    path = Path(path)
    if path.suffix.lower() == ".csv":
        return "csv"
    with open(path, "rb") as fh:
        return "binary" if fh.read(4) == POINTS_MAGIC else "csv"


def read_points(path) -> PointCloud:
    """Read a point cloud, CSV or binary as the file's name and magic say."""
    if _sniff_format(path) == "csv":
        return _read_points_csv(path)
    return _read_points_binary(path)


def write_points(cloud: PointCloud, path, format: str | None = None):
    fmt = format or ("csv" if str(path).lower().endswith(".csv") else "binary")
    if fmt == "csv":
        _write_points_csv(cloud, path)
    elif fmt == "binary":
        _write_points_binary(cloud, path)
    else:
        raise InputError(f"unknown points format '{fmt}'")


def _read_points_csv(path) -> PointCloud:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise InputError(f"{path}: empty file")
    header = [h.strip() for h in lines[0].split(",")]
    has_values = header and header[-1] == "value"
    coord_names = header[:-1] if has_values else header
    dim = len(coord_names)
    expected = [f"x{i}" for i in range(dim)]
    if coord_names != expected:
        raise InputError(
            f"{path}: line 1: header must be x0,...,x{{d-1}}[,value], got {header}"
        )
    n_cols = dim + (1 if has_values else 0)
    rows = []
    vals = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != n_cols:
            raise InputError(
                f"{path}: line {lineno}: expected {n_cols} fields, got {len(parts)}"
            )
        try:
            numbers = [float(p) for p in parts]
        except ValueError as exc:
            raise InputError(f"{path}: line {lineno}: {exc}") from None
        if not all(np.isfinite(numbers)):
            raise InputError(f"{path}: line {lineno}: NaN/Inf not allowed")
        rows.append(numbers[:dim])
        if has_values:
            vals.append(numbers[dim])
    if not rows:
        raise InputError(f"{path}: empty input")
    try:
        return PointCloud(np.array(rows), np.array(vals) if has_values else None)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None


def _write_points_csv(cloud: PointCloud, path):
    with open(path, "w", encoding="utf-8") as fh:
        header = ",".join(f"x{i}" for i in range(cloud.dim))
        if cloud.values is not None:
            header += ",value"
        fh.write(header + "\n")
        for i in range(len(cloud)):
            row = ",".join(f"{x:.17g}" for x in cloud.points[i])
            if cloud.values is not None:
                row += f",{cloud.values[i]:.17g}"
            fh.write(row + "\n")


def _read_points_binary(path) -> PointCloud:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != POINTS_MAGIC:
        raise InputError(f"{path}: bad magic, not a binary points file")
    if len(data) < 20:
        raise InputError(f"{path}: truncated header: {len(data)} of 20 bytes")
    version, dim = struct.unpack("<II", data[4:12])
    if version != 1:
        raise InputError(f"{path}: unsupported version {version}")
    (n,) = struct.unpack("<Q", data[12:20])
    body = data[20:]
    want = 8 * dim * n
    if len(body) == want:
        values = None
    elif len(body) == want + 8 * n:
        values = np.frombuffer(body[want:], dtype="<f8")
    else:
        raise InputError(f"{path}: truncated or oversized payload")
    pts = np.frombuffer(body[:want], dtype="<f8").reshape(n, dim)
    if not np.all(np.isfinite(pts)) or (
        values is not None and not np.all(np.isfinite(values))
    ):
        raise InputError(f"{path}: NaN/Inf not allowed")
    try:
        return PointCloud(pts.copy(), None if values is None else values.copy())
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None


def _write_points_binary(cloud: PointCloud, path):
    with open(path, "wb") as fh:
        fh.write(POINTS_MAGIC)
        fh.write(struct.pack("<IIQ", 1, cloud.dim, len(cloud)))
        fh.write(np.ascontiguousarray(cloud.points, dtype="<f8").tobytes())
        if cloud.values is not None:
            fh.write(np.ascontiguousarray(cloud.values, dtype="<f8").tobytes())


def sidecar_path(path):
    return Path(str(path) + ".meta.json")


def write_coefficients(coeffs, path, extra=None):
    """Coefficient CSV (slot order) plus a sidecar with everything needed to
    rebuild the generating basis."""
    basis = coeffs.basis
    lines = [f"{c:.17g}\n" for c in coeffs.slots.tolist()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("coeff\n" + "".join(lines))
    meta = {
        "n": int(basis.n),
        "dim": int(basis.tree.cloud.dim),
        "moment_degree": int(basis.moment_degree),
        "carry_degree": int(basis.carry_degree),
        "leaf_size": int(basis.tree.leaf_size),
        "n_root_scaling": int(basis.n_scaling),
        "permutation": basis.tree.permutation.tolist(),
    }
    if extra:
        meta.update(extra)
    with open(sidecar_path(path), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(meta))


def _integer(x):
    return isinstance(x, int) and not isinstance(x, bool)  # JSON true reads as 1


def _number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def read_coefficients(path):
    """(raw slot array, sidecar dict); the caller rebuilds the basis.  The
    sidecar keys read back must be present and of their types, so that a
    hand-edited sidecar is refused as an input error."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != "coeff":
        raise InputError(f"{path}: expected 'coeff' header")
    try:
        slots = np.array([float(x) for x in lines[1:] if x.strip()])
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None
    meta_file = sidecar_path(path)
    if not meta_file.exists():
        raise InputError(f"{path}: missing sidecar {meta_file}")
    with open(meta_file, "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    if not isinstance(meta, dict):
        raise InputError(f"{meta_file}: sidecar is not a JSON object")
    for key in ("n", "moment_degree", "carry_degree", "leaf_size", "permutation"):
        if key not in meta:
            raise InputError(f"{meta_file}: sidecar lacks '{key}'")

    def refuse(key, kind):
        raise InputError(f"{meta_file}: sidecar '{key}' must be {kind}")

    for key in ("n", "moment_degree", "carry_degree", "leaf_size"):
        if not _integer(meta[key]):
            refuse(key, "an integer")
    if not (isinstance(meta["permutation"], list) and all(map(_integer, meta["permutation"]))):
        refuse("permutation", "a list of integers")
    if "rescale_offset" in meta:
        offset = meta["rescale_offset"]
        if not (isinstance(offset, list) and len(offset) == meta.get("dim")
                and all(_number(x) and math.isfinite(x) for x in offset)):
            refuse("rescale_offset", "a list of 'dim' finite numbers")
    if "rescale_offset" in meta or "rescale_scale" in meta:
        scale = meta.get("rescale_scale")
        if not (_number(scale) and 0 < scale < math.inf):
            refuse("rescale_scale", "a positive finite number")
    if len(slots) != meta["n"]:
        raise InputError(
            f"{path}: {len(slots)} coefficients but sidecar says n={meta['n']}"
        )
    return slots, meta


def write_report_csv(path, header, rows):
    """Report table with a fixed column set."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(
                ",".join(
                    f"{x:.12g}" if isinstance(x, float) else str(x) for x in row
                )
                + "\n"
            )
