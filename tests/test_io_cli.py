import importlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

import samplets.cli
from samplets import PointCloud, build_basis
from samplets.cli import RunSpec, main, run
from samplets.compression import save_compressed
from samplets.io import (
    InputError,
    csv_rows,
    read_coefficients,
    read_points,
    sidecar_path,
    write_coefficients,
    write_points,
)
from samplets.kernels import dense_kernel_matrix, parse_kernel
from samplets.transform import CoefficientVector


@pytest.fixture()
def cloud_csv(tmp_path):
    rng = np.random.default_rng(60)
    pts = rng.random((200, 2))
    vals = np.exp(pts[:, 0] + pts[:, 1])
    path = tmp_path / "pts.csv"
    write_points(PointCloud(pts, vals), path, format="csv")
    return path, pts, vals


def test_read_points_minimal_csv(tmp_path):
    path = tmp_path / "two.csv"
    path.write_text("x0\n0\n1\n")
    cloud = read_points(path)
    assert cloud.dim == 1 and len(cloud) == 2
    assert cloud.values is None


def test_csv_round_trip(cloud_csv):
    path, pts, vals = cloud_csv
    cloud = read_points(path)
    np.testing.assert_allclose(cloud.points, pts, atol=1e-15)
    np.testing.assert_allclose(cloud.values, vals, atol=1e-15)


def test_binary_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(61)
    cloud = PointCloud(rng.random((37, 3)), rng.standard_normal(37))
    path = tmp_path / "pts.bin"
    write_points(cloud, path, format="binary")
    back = read_points(path)
    assert np.array_equal(back.points, cloud.points)
    assert np.array_equal(back.values, cloud.values)
    # values are optional
    write_points(PointCloud(cloud.points), path, format="binary")
    assert read_points(path).values is None


def test_csv_errors_carry_line_numbers(tmp_path):
    bad_header = tmp_path / "a.csv"
    bad_header.write_text("a,b\n0,0\n")
    with pytest.raises(InputError, match="line 1"):
        read_points(bad_header)
    bad_row = tmp_path / "b.csv"
    bad_row.write_text("x0,x1\n0,0\n1\n")
    with pytest.raises(InputError, match="line 3"):
        read_points(bad_row)
    bad_value = tmp_path / "c.csv"
    bad_value.write_text("x0\n0\nnan\n")
    with pytest.raises(InputError, match="line 3"):
        read_points(bad_value)


def test_runspec_rejects_unknown_keys():
    with pytest.raises(InputError, match="unknown RunSpec keys"):
        RunSpec.from_dict({"command": "transform", "bogus": 1})
    with pytest.raises(InputError, match="unknown command"):
        RunSpec(command="explode")


def test_transform_inverse_round_trip(cloud_csv, tmp_path):
    path, pts, vals = cloud_csv
    coeffs = tmp_path / "c.csv"
    back = tmp_path / "back.csv"
    assert main(["transform", str(path), "-o", str(coeffs), "-q", "2"]) == 0
    slots, meta = read_coefficients(coeffs)
    assert meta["moment_degree"] == 2 and meta["n"] == 200
    assert main([
        "transform", str(path), "--inverse", "--coeffs", str(coeffs),
        "-o", str(back),
    ]) == 0
    recovered = read_points(back)
    assert np.abs(recovered.values - vals).max() < 1e-10


def test_transform_inverse_detects_wrong_points(cloud_csv, tmp_path):
    path, pts, vals = cloud_csv
    coeffs = tmp_path / "c.csv"
    assert main(["transform", str(path), "-o", str(coeffs)]) == 0
    other = tmp_path / "other.csv"
    rng = np.random.default_rng(62)
    write_points(PointCloud(rng.random((200, 2))), other, format="csv")
    code = main([
        "transform", str(other), "--inverse", "--coeffs", str(coeffs),
        "-o", str(tmp_path / "x.csv"),
    ])
    assert code == 2


def test_compress_report_rows(cloud_csv, tmp_path):
    path, _, _ = cloud_csv
    out = tmp_path / "report.csv"
    assert main([
        "compress", str(path), "-o", str(out), "--thresholds", "1e-2,1e-3",
        "-q", "2",
    ]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "relative_threshold,threshold,nnz,space_saving,rel_error"
    assert len(lines) == 3


def test_malformed_thresholds_exit_2(cloud_csv, tmp_path, capsys):
    path, _, _ = cloud_csv
    with pytest.raises(SystemExit) as exc:
        main([
            "compress", str(path), "-o", str(tmp_path / "r.csv"),
            "--thresholds", "1e-2,abc",
        ])
    assert exc.value.code == 2
    assert "--thresholds" in capsys.readouterr().err


def test_interpolate_dense(cloud_csv, tmp_path):
    path, pts, vals = cloud_csv
    kernel = "matern(nu=1/2,l=0.1)"
    out = tmp_path / "sol.csv"
    assert main([
        "interpolate", str(path), "-o", str(out), "--kernel", kernel, "--dense",
        "--tol", "1e-10",
    ]) == 0
    report = (tmp_path / "sol.csv.report.csv").read_text().splitlines()
    assert report[0] == "converged,iterations,residual,ridge,tol"
    assert report[1].startswith("1,")
    alpha = np.loadtxt(tmp_path / "sol.csv.alpha.csv", skiprows=1)
    K = dense_kernel_matrix(parse_kernel(kernel), PointCloud(pts))
    assert np.linalg.norm(K @ alpha - vals) <= 1e-8 * np.linalg.norm(vals)


def test_interpolate_desk_scale_matches_production_settings(tmp_path):
    # short lengthscale exponential kernel on a rescaled 3-D cloud
    rng = np.random.default_rng(63)
    pts = rng.random((200, 3)) * np.array([100.0, 80.0, 5.0])
    vals = np.sin(pts[:, 0] / 40) + pts[:, 2] / 5
    path = tmp_path / "cloud3d.csv"
    write_points(PointCloud(pts, vals), path, format="csv")
    out = tmp_path / "sol.csv"
    code = main([
        "interpolate", str(path), "-o", str(out), "--kernel",
        "matern(nu=1/2,l=0.01)", "--mu", "1e-8", "-q", "1",
        "--rescale-unit-box", "--tol", "1e-8",
    ])
    assert code == 0
    report = (tmp_path / "sol.csv.report.csv").read_text().splitlines()
    header = report[0].split(",")
    row = dict(zip(header, report[1].split(",")))
    assert row["converged"] == "1"
    assert float(row["residual"]) <= 1e-8 * 100  # absolute residual, echoed
    meta = json.loads((tmp_path / "sol.csv.meta.json").read_text())
    assert "rescale_offset" in meta and meta["rescale_scale"] > 0


def test_pursue_multi_kernel_cli(tmp_path):
    rng = np.random.default_rng(64)
    pts = rng.random((100, 2))
    vals = np.exp(pts[:, 0])
    path = tmp_path / "p.csv"
    write_points(PointCloud(pts, vals), path, format="csv")
    out = tmp_path / "sol"
    code = main([
        "pursue", str(path), "-o", str(out),
        "--kernel", "matern(nu=1/2,l=0.05)",
        "--kernel", "matern(nu=1/2,l=0.2)",
        "--weight", "0.2", "-q", "1", "--max-iter", "300", "--rescale-unit-box",
    ])
    assert code == 0
    report = (tmp_path / "sol.report.csv").read_text().splitlines()
    assert len(report) == 3
    for i in range(2):
        slots, meta = read_coefficients(tmp_path / f"sol.k{i}.csv")
        assert len(slots) == 100
        assert len(meta["rescale_offset"]) == 2 and meta["rescale_scale"] > 0


def test_subsample_reproducible(cloud_csv, tmp_path):
    path, _, _ = cloud_csv
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["subsample", str(path), "-n", "40", "--seed", "7", "--epsilon", "0.01"]
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    idx = [int(x) for x in a.read_text().splitlines()[1:]]
    assert len(idx) == 40 and len(set(idx)) == 40


def test_seed_only_where_read(cloud_csv, tmp_path, capsys):
    # only subsample draws random numbers; elsewhere --seed is refused
    path, _, _ = cloud_csv
    with pytest.raises(SystemExit) as exc:
        main([
            "assemble", str(path), "-o", str(tmp_path / "m.smpb"),
            "--kernel", "matern(nu=1/2,l=0.1)", "--seed", "99",
        ])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_echo_names_only_parameters_the_command_takes(cloud_csv, tmp_path, capsys):
    path, _, _ = cloud_csv
    assert main([
        "assemble", str(path), "-o", str(tmp_path / "m.smpb"), "--kernel",
        "matern(nu=1/2,l=0.1)", "-q", "1", "--degree", "4",
    ]) == 0
    echo = next(
        line for line in capsys.readouterr().err.splitlines()
        if line.startswith("# samplets ")
    )
    keys = {pair.split("=", 1)[0] for pair in echo[len("# samplets "):].split()}
    assert keys == {
        "command", "points", "output", "moment_degree", "rescale", "kernels", "eta",
        "interp_degree",
    }


def test_echo_takes_numpy_values(cloud_csv, tmp_path, capsys):
    # a numpy scalar runs and echoes as the Python value does
    path, _, _ = cloud_csv
    lines = []
    for n in (np.int64(5), 5):
        out = tmp_path / f"{type(n).__name__}.csv"
        assert run(RunSpec("subsample", str(path), output=str(out), n=n)) == 0
        lines.append(capsys.readouterr().err.replace(out.name, "sample.csv"))
    assert lines[0] == lines[1]
    assert "n=5 " in lines[0]


def _required(command):
    """A command's required arguments, as argv and as RunSpec values."""
    if command in ("assemble", "interpolate", "pursue", "report"):
        return ["--kernel", "gauss(l=1)"], {"kernels": ["gauss(l=1)"]}
    if command == "subsample":
        return ["-n", "1"], {"n": 1}
    return [], {}


@pytest.mark.parametrize("command", samplets.cli.COMMANDS)
def test_echoed_parameters_are_the_parsers(command):
    argv, _ = _required(command)
    parsed = vars(samplets.cli._parser().parse_args([command, "pts.csv", *argv]))
    assert set(parsed) - {"command"} == set(samplets.cli.COMMANDS[command].takes)


@pytest.mark.parametrize("command", samplets.cli.COMMANDS)
def test_runspec_defaults_are_the_parsers(command):
    # a run built in Python runs as the same command line does
    argv, required = _required(command)
    parsed = vars(samplets.cli._parser().parse_args([command, "pts.csv", *argv]))
    assert RunSpec.from_dict(parsed) == RunSpec(command, "pts.csv", **required)
    if required:
        with pytest.raises(InputError):
            RunSpec(command, "pts.csv")


def test_readme_command_lines_parse(monkeypatch):
    # the lines tools/cli_parity.py runs; they must parse with the table
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "tools"))
    commands = importlib.import_module("cli_parity").command_lines()
    assert len(commands) == 9
    for argv in commands:
        samplets.cli._parser().parse_args(argv)


def test_coarsen_and_report_commands(cloud_csv, tmp_path):
    path, _, _ = cloud_csv
    out = tmp_path / "tree.csv"
    assert main(["coarsen", str(path), "-o", str(out), "--epsilon", "0.05"]) == 0
    assert out.read_text().splitlines()[0] == "cluster_id,level,start,stop,is_leaf"
    sweep = tmp_path / "sweep.csv"
    assert main([
        "report", str(path), "-o", str(sweep), "--kernel",
        "matern(nu=1/2,l=0.1)", "-q", "2", "--degree", "4",
    ]) == 0
    lines = sweep.read_text().splitlines()
    assert lines[0] == "moment_degree,nnz,rel_frobenius_error"
    errs = [float(line.split(",")[2]) for line in lines[1:]]
    assert errs == sorted(errs, reverse=True)


def test_assemble_writes_container(cloud_csv, tmp_path):
    path, _, _ = cloud_csv
    out = tmp_path / "mat.smpb"
    assert main([
        "assemble", str(path), "-o", str(out), "--kernel",
        "matern(nu=1/2,l=0.1)", "-q", "1", "--degree", "4",
    ]) == 0
    assert out.read_bytes()[:4] == b"SMPB"


def test_assemble_reports_stored_block_count(cloud_csv, tmp_path, monkeypatch, capsys):
    path, _, _ = cloud_csv
    saved = []

    def save(matrix, out):
        saved.append(matrix)
        save_compressed(matrix, out)

    monkeypatch.setattr(samplets.cli, "save_compressed", save)
    assert main([
        "assemble", str(path), "-o", str(tmp_path / "mat.smpb"), "--kernel",
        "matern(nu=1/2,l=0.1)", "-q", "1", "--degree", "4",
    ]) == 0
    (matrix,) = saved
    line = capsys.readouterr().err
    found = re.search(r"# assembled: n=200 blocks=(\d+) nnz=\d+ storage=(\w+)", line)
    assert int(found.group(1)) == len(matrix.blocks) > 0
    assert found.group(2) == ("dense" if matrix.layout.dense else "panels") == "dense"


def test_negative_interpolation_degree_exit_2(cloud_csv, tmp_path, capsys):
    path, _, _ = cloud_csv
    assert main([
        "assemble", str(path), "-o", str(tmp_path / "mat.smpb"), "--kernel",
        "gauss(l=0.3)", "--degree", "-1",
    ]) == 2
    assert "interpolation degree must be >= 0" in capsys.readouterr().err
    with pytest.raises(InputError, match="interpolation degree"):
        RunSpec("assemble", str(path), kernels=["gauss(l=0.3)"], interp_degree=-1)


def test_leaf_size_zero_exit_2(cloud_csv, tmp_path, capsys):
    # the echoed leaf size is the one the run uses, so 0 is refused, not
    # replaced by the default
    path, _, _ = cloud_csv
    assert main(["transform", str(path), "-o", str(tmp_path / "c.csv"), "--leaf-size", "0"]) == 2
    err = capsys.readouterr().err
    assert "leaf_size=0" in err and "leaf_size must be >= 1" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["assemble", "--kernel", "gauss(l=0.3)", "--eta", "nan"], "eta must be positive"),
        (["assemble", "--kernel", "matern(nu=1/2,l=nan)"], "lengthscale must be positive"),
        (["pursue", "--kernel", "gauss(l=0.3)", "--weight", "nan"], "weight must be"),
        (["pursue", "--kernel", "gauss(l=0.3)", "--tol", "nan"], "tol must be"),
        (["compress", "--thresholds", "nan"], "thresholds must be nonnegative"),
        (["interpolate", "--kernel", "gauss(l=0.3)", "--mu", "nan"], "ridge must be"),
        (["interpolate", "--kernel", "gauss(l=0.3)", "--mu", "inf"], "ridge must be"),
        (["interpolate", "--kernel", "gauss(l=0.3)", "--tol", "-1"], "tol must be"),
        (["interpolate", "--kernel", "gauss(l=0.3)", "--max-iter", "-1"], "max_iter must be"),
    ],
    ids=["eta-nan", "lengthscale-nan", "weight-nan", "pursue-tol-nan", "thresholds-nan",
         "mu-nan", "mu-inf", "tol-negative", "max-iter-negative"],
)
def test_nan_and_out_of_range_parameters_exit_2(cloud_csv, tmp_path, capsys, argv, message):
    # refused before anything is written
    path, _, _ = cloud_csv
    before = set(tmp_path.iterdir())
    assert main([argv[0], str(path), "-o", str(tmp_path / "out"), *argv[1:]]) == 2
    assert message in capsys.readouterr().err
    assert set(tmp_path.iterdir()) == before


@pytest.mark.parametrize("key", ["moment_degree", "carry_degree", "leaf_size", "permutation"])
def test_incomplete_sidecar_exit_2(cloud_csv, tmp_path, capsys, key):
    path, _, _ = cloud_csv
    coeffs = tmp_path / "c.csv"
    assert main(["transform", str(path), "-o", str(coeffs)]) == 0
    meta = json.loads(sidecar_path(coeffs).read_text())
    del meta[key]
    sidecar_path(coeffs).write_text(json.dumps(meta))
    back = tmp_path / "back.csv"
    assert main(["transform", str(path), "--inverse", "--coeffs", str(coeffs), "-o", str(back)]) == 2
    assert not back.exists()
    assert f"sidecar lacks '{key}'" in capsys.readouterr().err
    sidecar_path(coeffs).write_text("[1, 2]")
    with pytest.raises(InputError, match="not a JSON object"):
        read_coefficients(coeffs)


@pytest.mark.parametrize(
    "key, value",
    [
        ("leaf_size", "x"),
        ("moment_degree", 2.5),
        ("carry_degree", True),  # JSON true reads as an int
        ("n", "200"),
        ("permutation", "0,1,2"),
        ("permutation", [0.5] * 200),
        ("rescale_offset", ["a", 0]),
        ("rescale_offset", [0.0]),
        ("rescale_scale", 0),
        ("rescale_scale", "1"),
    ],
    ids=["leaf-size-str", "degree-float", "carry-bool", "n-str", "perm-str",
         "perm-floats", "offset-str", "offset-short", "scale-zero", "scale-str"],
)
def test_sidecar_value_types_exit_2(cloud_csv, tmp_path, capsys, key, value):
    path, _, _ = cloud_csv
    coeffs = tmp_path / "c.csv"
    assert main(["transform", str(path), "-o", str(coeffs), "--rescale-unit-box"]) == 0
    meta = json.loads(sidecar_path(coeffs).read_text())
    meta[key] = value
    sidecar_path(coeffs).write_text(json.dumps(meta))
    back = tmp_path / "back.csv"
    assert main(["transform", str(path), "--inverse", "--coeffs", str(coeffs), "-o", str(back)]) == 2
    assert not back.exists()
    assert f"sidecar '{key}' must be" in capsys.readouterr().err


@pytest.mark.parametrize("kernel", ["matern(nu=1/2,l=nan)", "matern(nu=1/2", "gauss(l=x)"])
@pytest.mark.parametrize("command", [c for c, v in samplets.cli.COMMANDS.items() if "kernels" in v.takes])
def test_bad_kernel_refused_before_points_are_read(cloud_csv, tmp_path, monkeypatch, command, kernel):
    path, _, _ = cloud_csv
    reads = []

    def recording(path):
        reads.append(path)
        return read_points(path)

    monkeypatch.setattr(samplets.cli, "read_points", recording)
    assert main([command, str(path), "-o", str(tmp_path / "out"), "--kernel", kernel]) == 2
    assert reads == []


def test_sites_without_coordinates_exit_2(tmp_path, capsys):
    path = tmp_path / "values.csv"
    path.write_text("value\n1.0\n2.0\n")
    assert main(["transform", str(path), "-o", str(tmp_path / "c.csv")]) == 2
    assert "2 sites without coordinates" in capsys.readouterr().err


def test_write_coefficients_matches_per_line_writer(tmp_path):
    # one joined write gives the bytes of the per-value writer it replaced
    rng = np.random.default_rng(61)
    basis = build_basis(rng.random((40, 2)), 1)
    slots = rng.standard_normal(40)
    slots[:5] = [-0.0, 5e-324, np.inf, -np.inf, 1 / 3]
    coeffs = CoefficientVector(slots, basis)
    path = tmp_path / "c.csv"
    write_coefficients(coeffs, path, extra={"note": 1})
    reference = "coeff\n" + "".join(f"{c:.17g}\n" for c in coeffs.slots)
    assert path.read_bytes() == reference.encode()
    meta = {
        "n": 40, "dim": 2, "moment_degree": 1, "carry_degree": 1,
        "leaf_size": int(basis.tree.leaf_size), "n_root_scaling": int(basis.n_scaling),
        "permutation": [int(i) for i in basis.tree.permutation], "note": 1,
    }
    assert sidecar_path(path).read_bytes() == json.dumps(meta).encode()


def test_csv_rows_match_per_value_format(tmp_path):
    # one %-format over all values gives the bytes of per-value f-strings
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e300, -1e300,
               1e-300, -1e-300, 1.0, -3.0, 4096.0, 2.0**53, 1 / 3, np.inf, -np.inf]
    rng = np.random.default_rng(62)
    values = np.concatenate([special, rng.standard_normal(40)])
    table = rng.permutation(np.tile(values, 3)).reshape(-1, 3)
    assert csv_rows(values) == "".join(f"{v:.17g}\n" for v in values)
    assert csv_rows(table[:, :2], table[:, 2]) == "".join(
        f"{a:.17g},{b:.17g},{c:.17g}\n" for a, b, c in table
    )
    assert csv_rows(np.empty(0)) == ""
    # the points writer, with and without values
    finite = table[np.isfinite(table).all(axis=1)]
    for cloud in (PointCloud(finite[:, :2], finite[:, 2]), PointCloud(finite)):
        write_points(cloud, tmp_path / "pts.csv", format="csv")
        header = ",".join(f"x{i}" for i in range(cloud.dim))
        rows = [",".join(f"{x:.17g}" for x in p) for p in cloud.points]
        if cloud.values is not None:
            header += ",value"
            rows = [f"{r},{v:.17g}" for r, v in zip(rows, cloud.values)]
        expected = header + "\n" + "".join(r + "\n" for r in rows)
        assert (tmp_path / "pts.csv").read_bytes() == expected.encode()


def test_missing_file_is_input_error(tmp_path, capsys):
    # a missing file, a binary header cut short and a directory: each is
    # reported on stderr with exit 2, not as a traceback
    short = tmp_path / "short.bin"
    short.write_bytes(b"SMPL\x01\x00")
    for path in (tmp_path / "none.csv", short, tmp_path):
        assert main(["transform", str(path)]) == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith("error: ")


def test_run_uses_runspec():
    with pytest.raises(InputError):
        run(RunSpec(command="transform", points=None))
