"""Stationary kernels for scattered data approximation.

First-class families are the half-integer Matern kernels (including the
Gaussian as the smoothness limit), a periodic Gaussian, and products of
factors acting on disjoint coordinate slices.  All families are normalized
to k(x, x) = 1.
"""

from __future__ import annotations

import re

import numpy as np

from .points import DENSE_GUARD

_SQRT3 = np.sqrt(3.0)
_SQRT5 = np.sqrt(5.0)
_CHUNK = 1 << 17  # entries of the one temporary of _distances


def _distances(x, y):
    """Euclidean distances between the points of x (..., n, d) and y (...,
    m, d), stacks of one leading shape, as a stack (..., n, m).

    Squared coordinate differences are summed axis by axis, in coordinate
    order, and the root is taken last: the same bits as scipy's cdist.  So
    coincident sites give r = 0 exactly, and r(x, y) == r(y, x) because IEEE
    subtraction is sign-symmetric.  The work runs over chunks of rows, or of
    whole blocks where the blocks of a stack are small, so that the one
    temporary holds at most about _CHUNK entries."""
    n, m, d = x.shape[-2], y.shape[-2], x.shape[-1]
    count = int(np.prod(x.shape[:-2]))
    xs, ys = x.reshape(count, n, d), y.reshape(count, m, d)
    out = np.empty((count, n, m))
    rows = max(1, min(n, _CHUNK // max(m, 1)))
    blocks = max(1, _CHUNK // max(rows * m, 1)) if rows == n else 1
    tmp = np.empty(min(blocks, count) * rows * m)
    for b in range(0, count, blocks):
        yb = ys[b : b + blocks, None]
        for i in range(0, n, rows):
            o = out[b : b + blocks, i : i + rows]
            xb = xs[b : b + blocks, i : i + rows, None]
            t = tmp[: o.size].reshape(o.shape)
            np.subtract(xb[..., 0], yb[..., 0], out=o)
            np.multiply(o, o, out=o)
            for a in range(1, d):
                np.subtract(xb[..., a], yb[..., a], out=t)
                np.multiply(t, t, out=t)
                o += t
            np.sqrt(o, out=o)
    return out.reshape(x.shape[:-1] + (m,))


class Matern:
    """Matern kernel with half-integer smoothness 1/2, 3/2, 5/2 or inf.

    nu=1/2 is the exponential kernel exp(-r/l), nu=inf the Gaussian
    exp(-r^2 / (2 l^2)).
    """

    def __init__(self, nu, lengthscale):
        if not 0 < lengthscale < np.inf:
            raise ValueError("lengthscale must be positive and finite")
        if nu not in (0.5, 1.5, 2.5, np.inf):
            raise ValueError(f"unsupported smoothness nu={nu}; use 1/2, 3/2, 5/2 or inf")
        self.nu = float(nu)
        self.lengthscale = float(lengthscale)

    def profile(self, r):
        s = np.array(r, dtype=float)
        return self._overwrite(s.ravel()).reshape(s.shape)[()]

    def _overwrite(self, s):
        """The profile at the distances s, computed in s and at most two
        temporaries.  With s = r / l: exp(-s), (1 + c s) exp(-c s) for
        nu = 3/2 (c = sqrt 3), (1 + c s + 5/3 s s) exp(-c s) for nu = 5/2
        (c = sqrt 5) and exp(-0.5 s s), each with the operations in that
        order, so the bits do not depend on where they are computed."""
        np.divide(s, self.lengthscale, out=s)
        if self.nu == 0.5:
            return np.exp(np.negative(s, out=s), out=s)
        if self.nu == np.inf:
            e = np.multiply(s, -0.5)
            return np.exp(np.multiply(e, s, out=e), out=e)
        if self.nu == 2.5:
            square = np.multiply(s, 5.0 / 3.0)
            square *= s
        np.multiply(s, _SQRT3 if self.nu == 1.5 else _SQRT5, out=s)
        e = np.negative(s)
        np.exp(e, out=e)
        s += 1.0
        if self.nu == 2.5:
            s += square
        return np.multiply(s, e, out=s)

    def pairwise(self, x, y):
        return self._overwrite(_distances(x, y))

    def __repr__(self):
        nu = "inf" if np.isinf(self.nu) else self.nu
        return f"Matern(nu={nu}, l={self.lengthscale})"


class PeriodicGaussian:
    """Periodic kernel exp(-scale * sin^2(pi r / l)); period l in the radial
    distance, so r = l maps back to 1."""

    def __init__(self, scale, lengthscale=1.0):
        if not 0 < lengthscale < np.inf:
            raise ValueError("lengthscale must be positive and finite")
        if not 0 < scale < np.inf:
            raise ValueError("scale must be positive and finite")
        self.scale = float(scale)
        self.lengthscale = float(lengthscale)

    def profile(self, r):
        s = np.array(r, dtype=float)
        return self._overwrite(s.ravel()).reshape(s.shape)[()]

    def _overwrite(self, r):
        """The profile at the distances r, computed in r and one temporary,
        with the operations of exp(-scale s s), s = sin(pi r / l), in that
        order."""
        np.multiply(r, np.pi, out=r)
        np.sin(np.divide(r, self.lengthscale, out=r), out=r)
        e = np.multiply(r, -self.scale)
        return np.exp(np.multiply(e, r, out=e), out=e)

    def pairwise(self, x, y):
        return self._overwrite(_distances(x, y))

    def __repr__(self):
        return f"PeriodicGaussian(s={self.scale}, l={self.lengthscale})"


class ProductKernel:
    """Product of kernels acting on disjoint coordinate slices.

    Factors are (kernel, (start, stop)) pairs; the slices must be disjoint
    and together cover all input coordinates.
    """

    def __init__(self, factors):
        if not factors:
            raise ValueError("product kernel needs at least one factor")
        self.factors = tuple((k, (int(a), int(b))) for k, (a, b) in factors)
        covered = []
        for _, (a, b) in self.factors:
            if b <= a or a < 0:
                raise ValueError(f"bad coordinate slice {a}..{b}")
            covered.extend(range(a, b))
        if len(set(covered)) != len(covered):
            raise ValueError("product kernel slices overlap")
        self._covered = sorted(covered)

    def check_dim(self, dim):
        if self._covered != list(range(dim)):
            raise ValueError(
                f"product kernel slices cover {self._covered}, input dim is {dim}"
            )

    def pairwise(self, x, y):
        self.check_dim(x.shape[-1])
        out = 1.0
        for kernel, (a, b) in self.factors:
            out = out * kernel.pairwise(x[..., a:b], y[..., a:b])
        return out

    def __repr__(self):
        inner = ", ".join(f"{k!r}|{a}..{b}" for k, (a, b) in self.factors)
        return f"ProductKernel({inner})"


def kernel_eval(spec, x, y) -> float:
    """Kernel value at a single pair of points."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if x.shape != y.shape:
        raise ValueError("point dimensions differ")
    return float(spec.pairwise(x, y)[0, 0])


def kernel_matrix(spec, x, y) -> np.ndarray:
    """Kernel cross matrix for two point sets (n, d) and (m, d), shape (n,
    m); stacks (..., n, d) and (..., m, d) of one leading shape give the
    stack of their cross matrices."""
    return spec.pairwise(np.asarray(x, dtype=float), np.asarray(y, dtype=float))


def dense_kernel_matrix(spec, cloud) -> np.ndarray:
    """Full kernel matrix of a point cloud; exactly symmetric, with a unit
    diagonal, since the distances are."""
    pts = cloud.points if hasattr(cloud, "points") else np.asarray(cloud, float)
    n = pts.shape[0]
    if n > DENSE_GUARD:
        raise ValueError(f"dense kernel guard exceeded: {n} > {DENSE_GUARD}")
    return spec.pairwise(pts, pts)


_NU_TOKENS = {"1/2": 0.5, "3/2": 1.5, "5/2": 2.5, "inf": np.inf,
              "0.5": 0.5, "1.5": 1.5, "2.5": 2.5}


def _split_args(body):
    """Split on commas at parenthesis depth zero."""
    parts, depth, cur = [], 0, []
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur:
        parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


def _kv_args(parts, allowed):
    out = {}
    for p in parts:
        if "=" not in p:
            raise ValueError(f"expected key=value, got '{p}'")
        key, val = p.split("=", 1)
        key = key.strip()
        if key not in allowed:
            raise ValueError(f"unknown kernel parameter '{key}'")
        out[key] = val.strip()
    return out


def parse_kernel(text: str):
    """Parse a kernel spec string.

    Grammar: `matern(nu=1/2,l=0.1)`, `gauss(l=0.5)`, `periodic(s=50,l=1)`,
    and `prod(matern(nu=3/2,l=0.2)|slice=0..2, periodic(s=50,l=1)|slice=2..3)`.
    """
    text = text.strip()
    m = re.fullmatch(r"(\w+)\((.*)\)", text, flags=re.DOTALL)
    if not m:
        raise ValueError(f"cannot parse kernel spec '{text}'")
    name, body = m.group(1), m.group(2)
    if name == "matern":
        args = _kv_args(_split_args(body), {"nu", "l"})
        if "nu" not in args or "l" not in args:
            raise ValueError("matern requires nu= and l=")
        nu = _NU_TOKENS.get(args["nu"])
        if nu is None:
            raise ValueError(f"unsupported nu '{args['nu']}'")
        return Matern(nu, float(args["l"]))
    if name == "gauss":
        args = _kv_args(_split_args(body), {"l"})
        if "l" not in args:
            raise ValueError("gauss requires l=")
        return Matern(np.inf, float(args["l"]))
    if name == "periodic":
        args = _kv_args(_split_args(body), {"s", "l"})
        if "s" not in args:
            raise ValueError("periodic requires s=")
        return PeriodicGaussian(float(args["s"]), float(args.get("l", 1.0)))
    if name == "prod":
        factors = []
        for part in _split_args(body):
            if "|" not in part:
                raise ValueError(f"product factor '{part}' missing |slice=a..b")
            inner, slice_part = part.rsplit("|", 1)
            sm = re.fullmatch(r"slice=(\d+)\.\.(\d+)", slice_part.strip())
            if not sm:
                raise ValueError(f"bad slice spec '{slice_part}'")
            factors.append((parse_kernel(inner), (int(sm.group(1)), int(sm.group(2)))))
        return ProductKernel(factors)
    raise ValueError(f"unknown kernel family '{name}'")
