import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist
from scipy.special import gamma as gamma_fn
from scipy.special import kv

import samplets
from samplets import (
    Matern,
    PeriodicGaussian,
    PointCloud,
    ProductKernel,
    dense_kernel_matrix,
    kernel_eval,
    kernel_matrix,
    kernels,
    parse_kernel,
)
from samplets.io import write_points


def bessel_matern(nu, lengthscale, r):
    """Reference profile via the modified Bessel function of the second kind."""
    r = np.asarray(r, dtype=float)
    out = np.ones_like(r)
    mask = r > 0
    s = np.sqrt(2 * nu) * r[mask] / lengthscale
    out[mask] = (2 ** (1 - nu) / gamma_fn(nu)) * s**nu * kv(nu, s)
    return out


def test_eval_examples():
    assert kernel_eval(Matern(0.5, 0.1), [0.3], [0.3]) == 1.0
    assert kernel_eval(Matern(0.5, 0.1), [0.0], [0.1]) == pytest.approx(
        np.exp(-1.0), abs=1e-12
    )
    assert kernel_eval(PeriodicGaussian(50.0, 1.0), [0.0], [1.0]) == pytest.approx(1.0)


def test_closed_forms_match_bessel_oracle():
    rng = np.random.default_rng(30)
    radii = rng.uniform(1e-3, 3.0, 100)
    for nu in (0.5, 1.5, 2.5):
        for ell in (0.1, 1.0):
            got = Matern(nu, ell).profile(radii)
            ref = bessel_matern(nu, ell, radii)
            assert np.abs(got - ref).max() < 1e-10


def test_stationarity_under_translation():
    rng = np.random.default_rng(31)
    spec = Matern(1.5, 0.7)
    for _ in range(20):
        x, y, shift = rng.standard_normal((3, 3))
        a = kernel_eval(spec, x, y)
        b = kernel_eval(spec, x + shift, y + shift)
        assert abs(a - b) < 1e-14


def test_monotone_decay():
    for spec in (Matern(0.5, 0.3), Matern(1.5, 0.3), Matern(2.5, 0.3), Matern(np.inf, 0.3)):
        r = np.linspace(0, 10 * spec.lengthscale, 400)
        vals = spec.profile(r)
        assert np.all(np.diff(vals) <= 1e-15)
        assert vals[0] == 1.0


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        Matern(0.5, 0.0)
    with pytest.raises(ValueError):
        Matern(0.7, 1.0)
    with pytest.raises(ValueError):
        PeriodicGaussian(-1.0)
    # NaN fails every test, and neither parameter may be infinite
    for nu, l in ((0.5, np.nan), (0.5, np.inf), (np.inf, np.nan)):
        with pytest.raises(ValueError, match="lengthscale must be positive and finite"):
            Matern(nu, l)
    for s, l in ((np.nan, 1.0), (np.inf, 1.0), (1.0, np.nan)):
        with pytest.raises(ValueError, match="must be positive and finite"):
            PeriodicGaussian(s, l)


def test_dense_kernel_matrix_examples():
    one = dense_kernel_matrix(Matern(0.5, 1.0), PointCloud(np.array([[0.0]])))
    np.testing.assert_array_equal(one, [[1.0]])
    pair = dense_kernel_matrix(
        Matern(1.5, 0.2), PointCloud(np.array([[0.4, 0.4], [0.4, 0.4]]))
    )
    np.testing.assert_allclose(pair, [[1.0, 1.0], [1.0, 1.0]])
    np.testing.assert_allclose(np.linalg.eigvalsh(pair), [0.0, 2.0], atol=1e-14)


def test_dense_kernel_matrix_psd_and_symmetric():
    rng = np.random.default_rng(32)
    cloud = PointCloud(rng.random((64, 3)))
    product = ProductKernel(
        [(Matern(1.5, 0.3), (0, 2)), (PeriodicGaussian(5.0, 1.0), (2, 3))]
    )
    for spec in (Matern(0.5, 0.2), Matern(2.5, 0.2), Matern(np.inf, 0.3), product):
        K = dense_kernel_matrix(spec, cloud)
        assert np.array_equal(K, K.T)
        assert np.all(np.diag(K) == 1.0)
        assert np.linalg.eigvalsh(K).min() >= -1e-8 * 64
    # the periodic factor is positive definite on its 1-D (time) axis
    line = PointCloud(rng.random(64)[:, None])
    K = dense_kernel_matrix(PeriodicGaussian(5.0, 1.0), line)
    assert np.array_equal(K, K.T) and np.all(np.diag(K) == 1.0)
    assert np.linalg.eigvalsh(K).min() >= -1e-8 * 64


def test_profiles_in_place_same_bits_lower_peak():
    # the closed forms as written before they were evaluated in place, and
    # the tracemalloc peak they reached at N=1024, in N^2 doubles
    s3, s5 = np.sqrt(3.0), np.sqrt(5.0)
    forms = [
        (Matern(0.5, 0.1), lambda s: np.exp(-s), 4.0),
        (Matern(1.5, 0.2), lambda s: (1.0 + s3 * s) * np.exp(-s3 * s), 5.0),
        (Matern(2.5, 0.3),
         lambda s: (1.0 + s5 * s + 5.0 / 3.0 * s * s) * np.exp(-s5 * s), 5.0),
        (Matern(np.inf, 0.2), lambda s: np.exp(-0.5 * s * s), 4.0),
    ]
    pts = np.random.default_rng(33).random((1024, 2))
    r = kernels._distances(pts, pts)
    r[0, 1:4] = [0.0, 5e-324, 1e-300]  # zero, subnormal and tiny distances
    for spec, form, before in forms + [(PeriodicGaussian(50.0, 1.0), None, 4.0)]:
        if form is None:
            s = np.sin(np.pi * r / spec.lengthscale)
            want = np.exp(-spec.scale * s * s)
        else:
            want = form(r / spec.lengthscale)
        got = spec.profile(r)
        assert got.tobytes() == want.tobytes()
        scalar = spec.profile(0.25)  # a scalar in, a scalar out
        assert np.ndim(scalar) == 0 and scalar == spec.profile(np.array([0.25]))[0]
        tracemalloc.start()
        K = dense_kernel_matrix(spec, pts)
        peak = tracemalloc.get_traced_memory()[1] / (8 * 1024**2)
        tracemalloc.stop()
        assert K.tobytes() == spec.profile(kernels._distances(pts, pts)).tobytes()
        assert peak < before - 1.0


def _point_stacks(seed, lead, n, m, dim, duplicates, offset, scale):
    """Two stacks of point sets, (*lead, n, dim) and (*lead, m, dim); with
    `duplicates` both draw from a few shared sites."""
    rng = np.random.default_rng(seed)
    if duplicates:
        sites = rng.random((3, dim))
        x = sites[rng.integers(3, size=(*lead, n))]
        y = sites[rng.integers(3, size=(*lead, m))]
    else:
        x, y = rng.random((*lead, n, dim)), rng.random((*lead, m, dim))
    return offset + scale * x, offset + scale * y


point_stacks = st.builds(
    _point_stacks,
    seed=st.integers(0, 2**32 - 1),
    lead=st.sampled_from([(), (1,), (5,), (2, 3)]),
    n=st.integers(0, 40),
    m=st.integers(0, 40),
    dim=st.integers(1, 6),
    duplicates=st.booleans(),
    offset=st.sampled_from([0.0, 1e8]),
    scale=st.sampled_from([1.0, 1e-9]),
)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
# one block and one stack of blocks across the default chunk bound
@example(_point_stacks(1, (), 400, 400, 2, False, 0.0, 1.0), 1 << 17)
@example(_point_stacks(2, (60,), 49, 49, 3, False, 1e8, 1.0), 1 << 17)
@given(point_stacks, st.sampled_from([1, 7, 64, 1000, 1 << 17]))
def test_distances_bit_identical_to_cdist(stacks, chunk):
    x, y = stacks
    saved, kernels._CHUNK = kernels._CHUNK, chunk
    try:
        r = kernels._distances(x, y)
    finally:
        kernels._CHUNK = saved
    assert r.shape == x.shape[:-1] + y.shape[-2:-1]
    for k in np.ndindex(x.shape[:-2]):
        assert np.array_equal(r[k], cdist(x[k], y[k]))
    if x.shape == y.shape:
        swapped = kernels._distances(y, x)
        assert np.array_equal(r, np.swapaxes(swapped, -1, -2))


def test_cli_loads_no_unused_scipy_subpackage(tmp_path):
    # samplets needs no scipy module: neither a dense-side run nor a run on
    # the panels1024 cloud of test_compression (N=1024, d=1, q=3) loads one
    rng = np.random.default_rng(36)
    write_points(PointCloud(rng.random((60, 2))), tmp_path / "dense.csv")
    write_points(PointCloud(np.random.default_rng(47).random((1024, 1))), tmp_path / "panels.csv")
    script = f"""
import sys
import samplets, samplets.cli
for name, kernel in (("dense", "gauss(l=0.3)"), ("panels", "matern(nu=1/2,l=0.1)")):
    code = samplets.cli.main(["assemble", f"{tmp_path}/{{name}}.csv", "-o",
                              f"{tmp_path}/{{name}}.smpb", "--kernel", kernel])
    print(code, *sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    src = str(Path(samplets.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, check=True,
    )
    assert [line.split() for line in proc.stdout.splitlines()] == [["0"], ["0"]]
    assert "storage=dense" in proc.stderr and "storage=panels" in proc.stderr


def test_dense_guard():
    rng = np.random.default_rng(33)
    with pytest.raises(ValueError, match="guard"):
        dense_kernel_matrix(Matern(0.5, 1.0), PointCloud(rng.random((8193, 1))))


def test_product_kernel_factorizes():
    rng = np.random.default_rng(34)
    spec = ProductKernel([(Matern(1.5, 0.2), (0, 2)), (PeriodicGaussian(50.0, 1.0), (2, 3))])
    x, y = rng.random((2, 3))
    a = kernel_eval(spec, x, y)
    b = kernel_eval(Matern(1.5, 0.2), x[:2], y[:2]) * kernel_eval(
        PeriodicGaussian(50.0, 1.0), x[2:], y[2:]
    )
    assert a == pytest.approx(b, rel=1e-14)


def test_product_kernel_slice_validation():
    with pytest.raises(ValueError, match="overlap"):
        ProductKernel([(Matern(0.5, 1.0), (0, 2)), (Matern(0.5, 1.0), (1, 3))])
    spec = ProductKernel([(Matern(0.5, 1.0), (0, 2))])
    with pytest.raises(ValueError, match="dim"):
        kernel_matrix(spec, np.zeros((2, 3)), np.zeros((2, 3)))


def test_parse_kernel_grammar():
    k = parse_kernel("matern(nu=1/2,l=0.1)")
    assert isinstance(k, Matern) and k.nu == 0.5 and k.lengthscale == 0.1
    k = parse_kernel("matern(nu=inf,l=2)")
    assert np.isinf(k.nu)
    k = parse_kernel("gauss(l=0.5)")
    assert np.isinf(k.nu) and k.lengthscale == 0.5
    k = parse_kernel("periodic(s=50,l=1)")
    assert isinstance(k, PeriodicGaussian) and k.scale == 50.0
    k = parse_kernel(
        "prod(matern(nu=3/2,l=0.2)|slice=0..2, periodic(s=50,l=1)|slice=2..3)"
    )
    assert isinstance(k, ProductKernel)
    assert [s for _, s in k.factors] == [(0, 2), (2, 3)]


def test_parse_kernel_errors():
    for bad in (
        "matern(nu=1/2)",
        "matern(nu=1/4,l=1)",
        "matern(nu=1/2,l=0.1,x=2)",
        "gauss(l=-1)",
        "mystery(l=1)",
        "prod(matern(nu=1/2,l=1))",
        "prod(matern(nu=1/2,l=1)|slice=0..0)",
    ):
        with pytest.raises(ValueError):
            parse_kernel(bad)


def test_periodic_kernel_period_one():
    spec = parse_kernel("periodic(s=50,l=1)")
    r = np.arange(0.0, 5.0)
    np.testing.assert_allclose(spec.profile(r), 1.0, atol=1e-14)
    assert spec.profile(np.array([0.5]))[0] == pytest.approx(np.exp(-50.0))


@pytest.mark.parametrize(
    "spec",
    [
        Matern(0.5, 0.3),
        Matern(1.5, 0.3),
        Matern(2.5, 0.3),
        Matern(np.inf, 0.3),
        PeriodicGaussian(5.0, 0.7),
        ProductKernel([(Matern(1.5, 0.2), (0, 2)), (PeriodicGaussian(5.0), (2, 3))]),
    ],
    ids=["nu1/2", "nu3/2", "nu5/2", "gauss", "periodic", "product"],
)
def test_stacked_kernel_matrix_matches_pairs(spec):
    rng = np.random.default_rng(35)
    for n, m in ((7, 5), (1, 9), (12, 12)):
        x = rng.random((4, n, 3))
        y = 3.0 + rng.random((4, m, 3))
        y[1, :1] = x[1, :1]  # coincident sites, r = 0
        y[2] = x[2, :1]  # one site against itself and its stack neighbours
        stacked = kernel_matrix(spec, x, y)
        assert stacked.shape == (4, n, m)
        for k in range(4):
            np.testing.assert_allclose(
                stacked[k], kernel_matrix(spec, x[k], y[k]), rtol=1e-15, atol=0
            )
        assert stacked[1, 0, 0] == 1.0 and np.all(stacked[2, 0] == 1.0)
