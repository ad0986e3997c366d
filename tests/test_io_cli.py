import argparse
import json
import shlex
import warnings
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from inhomk import cli
from inhomk.asymcov import (
    POISSON_DENSITIES,
    QuadratureConfig,
    compose_lim_cov,
    h_limit_constant,
    sigma_blocks_constant,
)
from inhomk.cli import _MODEL_OPTIONS, _check_model_options, build_parser, main
from inhomk.geometry import PointPattern, Window
from inhomk.intensity import CovariateField, FitResult, LogLinearIntensity, fit_loglinear
from inhomk.io import (
    _write_csv,
    read_covariate_field,
    read_matrix_csv,
    read_pattern_csv,
    write_covariate_field,
    write_curve_csv,
    write_matrix_csv,
    write_pattern_csv,
)
from inhomk.kstat import Curve, RadiusGrid, h_matrix, k_hat
from inhomk.limitlaw import critical_value, simulate_sup
from inhomk.simulate import simulate_poisson, simulate_poisson_inhom
from inhomk.study import StudyConfig, rejection_study


def test_pattern_round_trip_exact(tmp_path):
    pat = simulate_poisson(150.0, Window(2, 2.0), seed=1)
    path = tmp_path / "pat.csv"
    write_pattern_csv(path, pat)
    back = read_pattern_csv(path)
    assert back.window == pat.window
    np.testing.assert_array_equal(back.points, pat.points)


def test_pattern_window_flags_override_sidecar(tmp_path):
    pat = PointPattern(Window(2, 1.0), [[0.1, 0.2]])
    path = tmp_path / "p.csv"
    write_pattern_csv(path, pat)
    back = read_pattern_csv(path, side=4.0, dim=2)
    assert back.window.side == 4.0


def test_pattern_missing_window(tmp_path):
    path = tmp_path / "q.csv"
    path.write_text("x,y\n0.0,0.0\n")
    with pytest.raises(ValueError, match="window unknown"):
        read_pattern_csv(path)


@pytest.mark.parametrize(
    "sidecar", ['{"dim": 2}', "[2, 1.0]", "{", '{"dim": 2, "side": null}',
                '{"dim": 2, "side": 1' + "0" * 400 + "}"],
    ids=["no-side", "list", "json", "null-side", "float-range"],
)
@pytest.mark.parametrize("command", ["kfunc", "gof"])
def test_cli_malformed_sidecar_is_one_error_line(tmp_path, capsys, command, sidecar):
    path = tmp_path / "p.csv"
    write_pattern_csv(path, PointPattern(Window(2, 1.0), [[0.1, 0.2], [0.5, 0.5]]))
    meta = tmp_path / "p.csv.window.json"
    meta.write_text(sidecar)
    flags = {"kfunc": ["--fit"], "gof": ["--seed", "1"]}[command]
    assert main([command, str(path), *flags, "-o", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        f"error: {meta}: malformed window sidecar, need a JSON object with side and dim\n"
    )
    # a flag still fills the key the sidecar lacks
    if sidecar == '{"dim": 2}':
        assert read_pattern_csv(path, side=1.0).window == Window(2, 1.0)


@pytest.mark.parametrize(
    "dim, sidecar", [(1, '{"dim": true, "side": 1}'), (2, '{"dim": 2, "side": true}')],
    ids=["true-dim", "true-side"],
)
def test_cli_boolean_sidecar_is_one_error_line(tmp_path, capsys, dim, sidecar):
    # A JSON true is a Python int: it must not pass as a 1-D window or a unit side.
    path = tmp_path / "p.csv"
    write_pattern_csv(path, PointPattern(Window(dim, 1.0), [[0.1] * dim, [0.3] * dim]))
    meta = tmp_path / "p.csv.window.json"
    meta.write_text(sidecar)
    out = tmp_path / "out.csv"
    assert main(["kfunc", str(path), "--beta", "3", "-o", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {meta}: malformed window sidecar, need a JSON object with side and dim\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "dim, resolution, key, value",
    [(1, (2,), "dim", True), (2, (2, 2), "side", True), (2, (2, 2), "p", True),
     (2, (1, 2), "resolution", [True, 2]), (2, (2, 2), "dim", None),
     (2, (2, 2), "resolution", None), (2, (2, 2), "p", float("inf")),
     (2, (2, 2), "dim", 2.7), (2, (2, 2), "p", 1.9), (2, (4, 4), "resolution", [4.5, 4])],
    ids=["true-dim", "true-side", "true-p", "true-resolution", "null-dim", "null-resolution",
         "infinite-p", "fractional-dim", "fractional-p", "fractional-resolution"],
)
def test_cli_malformed_raster_header_is_one_error_line(tmp_path, capsys, dim, resolution,
                                                       key, value):
    # Each boolean or fraction stands where int() reads the raster's own value:
    # read as a number and truncated, it would pass.
    path = tmp_path / "field.csv"
    write_covariate_field(path, CovariateField(Window(dim, 1.0), np.ones(resolution + (1,))))
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    if isinstance(value, (bool, list)) or value in (2.7, 1.9):
        assert header[key] == ([int(v) for v in value] if key == "resolution" else int(value))
    path.write_text("\n".join([json.dumps({**header, key: value}), *lines[1:]]) + "\n")
    with pytest.raises(ValueError, match="malformed covariate raster"):
        read_covariate_field(path)
    out = tmp_path / "out.csv"
    argv = ["simulate", "--model", "poisson-inhom", "--covariates", str(path), "--beta", "5",
            "--side", "1", "--dim", str(dim), "--seed", "1", "-o", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {path}: malformed covariate raster\n"
    assert not out.exists()


def test_pattern_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n0.0,zap\n")
    with pytest.raises(ValueError, match="malformed"):
        read_pattern_csv(path, side=1.0, dim=2)


def test_empty_pattern_round_trip(tmp_path):
    pat = PointPattern(Window(2, 1.0), np.empty((0, 2)))
    path = tmp_path / "empty.csv"
    write_pattern_csv(path, pat)
    assert path.read_text() == "x,y\n"
    assert len(read_pattern_csv(path)) == 0


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("side", [1.0, 0.7, 2.0 / 3.0])
def test_pattern_round_trip_on_window_faces(tmp_path, dim, side):
    # The corners and the points one ulp inside them, on every axis, bit for bit.
    half = side / 2.0
    corners = np.array(list(product((-half, half), repeat=dim)))
    pattern = PointPattern(Window(dim, side), np.concatenate([corners, np.nextafter(corners, 0.0)]))
    path = tmp_path / "faces.csv"
    write_pattern_csv(path, pattern)
    back = read_pattern_csv(path)
    assert back.window == pattern.window
    np.testing.assert_array_equal(back.points.view(np.uint64), pattern.points.view(np.uint64))


def test_covariate_field_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    field = CovariateField(Window(2, 3.0), rng.normal(size=(4, 4, 2)))
    path = tmp_path / "field.csv"
    write_covariate_field(path, field)
    back = read_covariate_field(path)
    assert back.window == field.window
    np.testing.assert_array_equal(back.values, field.values)


def test_matrix_round_trip(tmp_path):
    mat = np.random.default_rng(3).normal(size=(5, 5))
    path = tmp_path / "m.csv"
    write_matrix_csv(path, mat)
    np.testing.assert_array_equal(read_matrix_csv(path), mat)
    # special values, byte for byte: 17 significant digits, C-style names
    special = np.array([[np.inf, np.nan, -0.0], [5e-324, 1.797e308, -np.inf]])
    write_matrix_csv(path, special)
    assert path.read_text() == "inf,nan,-0\n4.9406564584124654e-324,1.797e+308,-inf\n"
    np.testing.assert_array_equal(read_matrix_csv(path), special)


def _savetxt_bytes(tmp_path, rows, header=""):
    path = tmp_path / "savetxt.csv"
    with open(path, "w") as fh:
        np.savetxt(fh, rows, fmt="%.17g", delimiter=",", header=header, comments="")
    return path.read_bytes()


EDGE_VALUES = [-0.0, 5e-324, 2.0e-310, 1e300, -1e300, 0.1, -1.0 / 3.0, 123456789.0]


@pytest.mark.parametrize("shape", [(0, 3), (1, 1), (1, 7), (7, 1), (4, 5)])
@pytest.mark.parametrize("header", ["", "a,b"])
def test_csv_text_is_savetxt_text(tmp_path, shape, header):
    # One format of all the values writes np.savetxt's bytes, header or not.
    rows = np.resize(EDGE_VALUES, shape)
    path = tmp_path / "rows.csv"
    _write_csv(path, rows, header)
    assert path.read_bytes() == _savetxt_bytes(tmp_path, rows, header)
    if header == "":
        write_matrix_csv(path, rows)
        assert path.read_bytes() == _savetxt_bytes(tmp_path, rows)


def test_every_writer_writes_savetxt_text(tmp_path):
    # Signed zeros and NaN payloads too: every writer goes through one formatter.
    window = Window(2, 1.0)
    path = tmp_path / "out.csv"
    for points in (np.empty((0, 2)), [[-0.0, 5e-324], [0.25, -2.0e-310]],
                   [[0.0, -0.0], [-0.0, 0.25], [0.25, 0.0]]):
        pattern = PointPattern(window, points)
        write_pattern_csv(path, pattern)
        assert path.read_bytes() == _savetxt_bytes(tmp_path, pattern.points, "x,y")
    field = CovariateField(window, np.reshape(EDGE_VALUES, (2, 2, 2)))
    write_covariate_field(path, field)
    header = path.read_text().splitlines()[0]
    assert path.read_bytes() == _savetxt_bytes(tmp_path, field.flat(), header)
    for values in (np.reshape(EDGE_VALUES, (4, 2)), np.resize(MATRIX_VALUES, (7, 2))):
        grid = RadiusGrid.uniform(0.1, len(values))
        curve = Curve(grid, values)
        write_curve_csv(path, curve, ("a", "b"))
        rows = np.column_stack([grid.values, curve.values])
        assert path.read_bytes() == _savetxt_bytes(tmp_path, rows, "r,a,b")
    write_matrix_csv(path, np.array(EDGE_VALUES))
    assert path.read_bytes() == _savetxt_bytes(tmp_path, np.array([EDGE_VALUES]))


# NaNs of either sign, quiet and signaling, with and without a payload.
NAN_BITS = [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0xFFF4000000000123]
MATRIX_VALUES = [0.0, -0.0, np.inf, -np.inf, 5e-324, -2.0e-310, 1e308, -1e308, 0.1,
                 -1.0 / 3.0, *np.array(NAN_BITS, dtype=np.uint64).view(float).tolist()]


def per_row_text(matrix):
    """The reference text: every entry formatted with '%.17g' in place, row by row."""
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in matrix.tolist())


@pytest.mark.parametrize("shape", [(1, 1), (3, 5), (5, 3), (4, 4), (6, 6)])
def test_matrix_text_is_the_per_row_text(tmp_path, shape):
    # Square matrices are mirrored, so every off-diagonal value repeats; each
    # matrix from 2x2 on holds -0.0 and 0.0, and NaNs of both signs.
    path = tmp_path / "m.csv"
    rows, cols = shape
    for start in range(len(MATRIX_VALUES)):
        matrix = np.resize(np.roll(np.array(MATRIX_VALUES), -start), shape)
        if rows == cols:
            matrix = np.where(np.tri(rows, dtype=bool), matrix, matrix.T)
        write_matrix_csv(path, matrix)
        assert path.read_text() == per_row_text(matrix)
        back = read_matrix_csv(path)
        np.testing.assert_array_equal(back, matrix)
        assert (np.signbit(back) == np.signbit(matrix))[~np.isnan(matrix)].all()


def test_cli_crit_reads_cov_c_tilde_to_the_same_critical_value(tmp_path, capsys):
    prefix = tmp_path / "blocks"
    assert main(["cov", "--beta", "180", "--grid", "8", "-o", str(prefix)]) == 0
    grid = RadiusGrid.uniform(0.05, 8)
    blocks = sigma_blocks_constant(POISSON_DENSITIES, 180.0, grid, QuadratureConfig(), dim=2)
    c_tilde = compose_lim_cov(h_limit_constant(blocks), blocks).matrix
    np.testing.assert_array_equal(read_matrix_csv(f"{prefix}.c_tilde.csv"), c_tilde)
    out = tmp_path / "crit.json"
    assert main(["crit", "--cov", f"{prefix}.c_tilde.csv", "--grid", "8", "--M", "2000",
                 "--seed", "5", "-o", str(out)]) == 0
    want = critical_value(simulate_sup(c_tilde, 2000, 5), 0.05)
    assert json.loads(out.read_text())["critical_value"] == want


def run_commands(argvs, capsys):
    """Exit code (a usage error's SystemExit code), stdout and stderr of each argv, in turn."""
    seen = []
    for argv in argvs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        seen.append((code, *capsys.readouterr()))
    return seen


def test_cli_one_parser_per_process_reads_like_fresh_parsers(tmp_path, monkeypatch, capsys):
    # The same command lines, with relative paths, run in two directories: once
    # through the one parser of the process, once with a new build_parser()
    # per call. simulate fills in --rho and crit's closed form --rho and
    # --mode (_check_model_options); kfunc reads parser defaults.
    argvs = [
        ["cov", "--beta", "190", "--grid", "6", "-o", "blocks"],
        ["crit", "--cov", "blocks.c_tilde.csv", "--grid", "6", "--M", "1000", "--seed", "2",
         "-o", "crit.json"],
        ["crit", "--cov", "blocks.c_tilde.csv", "--grid", "6", "--rho", "5", "--seed", "2"],
        ["simulate", "--model", "poisson", "--side", "1", "--seed", "3", "-o", "pat.csv"],
        ["kfunc", "pat.csv", "--fit", "--grid", "6", "-o", "k.csv"],
        ["crit", "--grid", "6", "--M", "1000", "--seed", "2"],
        ["cov", "--beta", "210", "--grid", "6", "-o", "again"],
    ]
    runs = {}
    for name in ("reused", "fresh"):
        (tmp_path / name).mkdir()
        with monkeypatch.context() as m:
            m.chdir(tmp_path / name)
            if name == "reused":
                cli._parser.cache_clear()
            else:
                m.setattr(cli, "_parser", build_parser)
            runs[name] = run_commands(argvs, capsys)
        if name == "reused":
            assert cli._parser.cache_info().misses == 1 and cli._parser() is cli._parser()
    assert [code for code, _, _ in runs["reused"]] == [0, 0, 2, 0, 0, 0, 0]
    assert "crit with --cov does not read --rho" in runs["reused"][2][2]
    assert runs["reused"] == runs["fresh"]
    files = {name: {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()} for name in runs}
    assert len(files["reused"]) == 16 and files["reused"] == files["fresh"]


def test_cli_simulate_gof_reproducible(tmp_path, capsys):
    pat_path = tmp_path / "pat.csv"
    args = [
        "simulate", "--model", "poisson", "--rho", "200", "--side", "1",
        "--seed", "7", "-o", str(pat_path),
    ]
    assert main(args) == 0
    out1 = tmp_path / "g1.json"
    out2 = tmp_path / "g2.json"
    gof_args = ["gof", str(pat_path), "--R", "0.05", "--mode", "estimated",
                "--M", "2000", "--seed", "9"]
    assert main(gof_args + ["-o", str(out1)]) == 0
    assert main(gof_args + ["-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["reject"] in (True, False)


def test_cli_kfunc_monotone(tmp_path, capsys):
    pat_path = tmp_path / "pat.csv"
    main(["simulate", "--model", "poisson", "--rho", "300", "--side", "1",
          "--seed", "3", "-o", str(pat_path)])
    curve_path = tmp_path / "curve.csv"
    assert main(["kfunc", str(pat_path), "--R", "0.05", "--grid", "50",
                 "--intensity", "constant", "--fit", "-o", str(curve_path)]) == 0
    rows = curve_path.read_text().strip().splitlines()
    assert rows[0] == "r,khat"
    assert len(rows) == 51
    vals = [float(line.split(",")[1]) for line in rows[1:]]
    assert vals == sorted(vals)


def test_cli_matern_and_fit(tmp_path, capsys):
    pat_path = tmp_path / "m.csv"
    assert main(["simulate", "--model", "matern", "--kappa", "25", "--mu", "8",
                 "--rdisp", "0.2", "--side", "1", "--seed", "4",
                 "-o", str(pat_path)]) == 0
    out = tmp_path / "fit.json"
    assert main(["fit", str(pat_path), "--model", "constant", "-o", str(out)]) == 0
    assert json.loads(out.read_text())["beta_hat"] > 0


def test_cli_cov_blocks(tmp_path, capsys):
    prefix = tmp_path / "blocks"
    assert main(["cov", "--beta", "200", "--grid", "5", "-o", str(prefix)]) == 0
    c = read_matrix_csv(str(prefix) + ".c.csv")
    ctilde = read_matrix_csv(str(prefix) + ".c_tilde.csv")
    assert c.shape == (5, 5) and ctilde.shape == (5, 5)
    assert np.all(np.diag(ctilde) <= np.diag(c))
    meta = json.loads((tmp_path / "blocks.meta.json").read_text())
    assert meta["beta"] == 200.0


@pytest.mark.parametrize("dim", ["7", "0"])
def test_cli_cov_refuses_dimension_outside_quadrature_limit(tmp_path, capsys, dim):
    prefix = tmp_path / "blocks"
    assert main(["cov", "--beta", "200", "--grid", "5", "--dim", dim, "-o", str(prefix)]) == 1
    assert f"dimensions 1 to 6, got {dim}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("beta", ["1e-300", "1e300", "1e-160"])
def test_cli_cov_refuses_beta_outside_float_range_of_blocks(tmp_path, capsys, beta):
    # beta**2 underflows to zero, overflows, or leaves 1/beta**2 infinite:
    # one error line, and no file written before the error.
    prefix = tmp_path / "blocks"
    assert main(["cov", "--beta", beta, "--grid", "5", "-o", str(prefix)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and f"beta = {float(beta)!r}" in err[0]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "extra", [["--decay", "0.02"], ["--g-model", "exponential"]], ids=["decay", "exponential"]
)
def test_cli_cov_has_no_exponential_kernels(tmp_path, capsys, extra):
    with pytest.raises(SystemExit) as exc:
        main(["cov", "--beta", "200", "--grid", "5", "-o", str(tmp_path / "b"), *extra])
    assert exc.value.code == 2
    assert extra[0] in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_cli_crit(tmp_path, capsys):
    out = tmp_path / "crit.json"
    assert main(["crit", "--rho", "200", "--mode", "estimated", "--M", "1000",
                 "--seed", "3", "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["critical_value"] > 0
    assert payload["M"] == 1000


def test_cli_crit_cov_must_match_grid(tmp_path, capsys):
    cov = tmp_path / "cov.csv"
    write_matrix_csv(cov, np.eye(10))
    out = tmp_path / "crit.json"
    assert main(["crit", "--cov", str(cov), "--M", "1000", "--seed", "3",
                 "-o", str(out)]) == 1
    assert "--grid is 50" in capsys.readouterr().err
    assert not out.exists()
    assert main(["crit", "--cov", str(cov), "--grid", "10", "--M", "1000",
                 "--seed", "3", "-o", str(out)]) == 0
    assert json.loads(out.read_text())["grid_size"] == 10


@pytest.mark.parametrize("rho", ["-200", "0", "1e-320", "1e200"])
def test_cli_crit_rejects_invalid_intensity(tmp_path, capsys, rho):
    # rho enters as rho^2: 1e-320 overflows 1/rho^2, and 1e200 overflows rho^2
    out = tmp_path / "crit.json"
    assert main(["crit", f"--rho={rho}", "--mode", "estimated", "--M", "1000",
                 "--seed", "1", "-o", str(out)]) == 1
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["kfunc", "{pat}", "--beta", "inf", "-o", "{out}"],
        ["cov", "--beta", "inf", "--grid", "5", "-o", "{out}"],
    ],
    ids=["kfunc", "cov"],
)
def test_cli_rejects_infinite_intensity(tmp_path, capsys, argv):
    # an infinite intensity makes every K estimate zero; it is refused up
    # front, before any arithmetic can warn
    paths = {"pat": tmp_path / "pat.csv", "out": tmp_path / "out"}
    write_pattern_csv(paths["pat"], simulate_poisson(200.0, Window(2, 1.0), seed=2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([arg.format(**paths) for arg in argv]) == 1
    assert "must be finite and positive, got inf" in capsys.readouterr().err
    assert not list(tmp_path.glob("out*"))


def test_cli_crit_rejects_non_finite_cov(tmp_path, capsys):
    cov = tmp_path / "cov.csv"
    write_matrix_csv(cov, np.diag([1.0, 1.0, np.inf, 1.0, 1.0]))
    out = tmp_path / "crit.json"
    assert main(["crit", "--cov", str(cov), "--grid", "5", "--M", "1000",
                 "--seed", "3", "-o", str(out)]) == 1
    assert "covariance must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", ["", "\n \n\n"], ids=["empty", "blank-lines"])
def test_cli_crit_rejects_empty_cov(tmp_path, capsys, text):
    cov = tmp_path / "empty.csv"
    cov.write_text(text)
    out = tmp_path / "crit.json"
    assert main(["crit", "--cov", str(cov), "--grid", "5", "--M", "1000", "--seed", "3",
                 "-o", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {cov}: empty matrix CSV\n"
    assert not out.exists()


def test_cli_gof_three_dimensions(tmp_path, capsys):
    pat_path = tmp_path / "pat3.csv"
    assert main(["simulate", "--model", "poisson", "--rho", "200", "--side", "1",
                 "--dim", "3", "--seed", "7", "-o", str(pat_path)]) == 0
    out = tmp_path / "g.json"
    assert main(["gof", str(pat_path), "--R", "0.1", "--M", "2000", "--seed", "9",
                 "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["critical_value"] > 0 and payload["reject"] in (True, False)


def test_cli_kfunc_rejects_non_finite_points(tmp_path, capsys):
    pat_path = tmp_path / "nan.csv"
    pat_path.write_text("x,y\n0.1,0.2\nnan,0.3\n")
    curve = tmp_path / "curve.csv"
    assert main(["kfunc", str(pat_path), "--side", "1", "--dim", "2",
                 "--fit", "-o", str(curve)]) == 1
    assert "finite" in capsys.readouterr().err
    assert not curve.exists()


def test_cli_kfunc_unconverged_fit_fails(tmp_path, capsys, monkeypatch):
    import inhomk.cli

    window = Window(2, 1.0)
    field = CovariateField.from_function(
        window, lambda p: np.column_stack([np.ones(len(p)), p[:, 0]]), 8
    )
    field_path = tmp_path / "field.csv"
    write_covariate_field(field_path, field)
    pat_path = tmp_path / "pat.csv"
    write_pattern_csv(pat_path, simulate_poisson(200.0, window, 5))
    curve = tmp_path / "curve.csv"
    args = ["kfunc", str(pat_path), "--intensity", "loglinear", "--fit",
            "--covariates", str(field_path), "-o", str(curve)]
    assert main(args) == 0

    def unconverged(pattern, field, beta0=None):
        return FitResult(np.array([np.log(200.0), 0.0]), 1.0, 50, False)

    monkeypatch.setattr(inhomk.cli, "fit_loglinear", unconverged)
    curve.unlink()
    assert main(args) == 1
    assert "did not converge" in capsys.readouterr().err
    assert not curve.exists()


def test_cli_study(tmp_path, capsys):
    cfg = {
        "process": "poisson",
        "rho": 200.0,
        "sides": [1.0],
        "modes": ["estimated"],
        "replicates": 120,
        "sample_size": 500,
        "seed": 5,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "table.csv"
    assert main(["study", "--config", str(cfg_path), "-o", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("process,")
    assert len(lines) == 2


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"rho": 1' + "0" * 400 + ', "replicates": 120}', "rho is outside the float range"),
        ('{"replicate": 150}', "unknown study config key: replicate"),
        ('{"matern": {"kappa": 25}, "replicates": 150}', "unknown study config key: matern"),
        ('{"process": "matern", "kappa": 25, "mu": 8, "replicates": 150}',
         "matern parameters need kappa, mu and rdisp; missing rdisp"),
        ('{"replicates": 150.5}', "replicates must be an integer"),
        ('{"rho": "200", "replicates": 150}', "rho must be a number"),
        ('{"sides": 1.0, "replicates": 150}', "sides must be a list"),
        ('{"modes": "known", "replicates": 150}', "modes must be a list"),
        ('{"sides": [1.0, null], "replicates": 150}', "side must be a number"),
        ('[{"replicates": 150}]', "study config must be a JSON object"),
        ('{"kappa": 25, "mu": 8, "rdisp": 0.2, "replicates": 150}',
         "matern parameters apply to a matern study only"),
        ('{"sides": [1, 1], "replicates": 150}', "sides must be distinct"),
        ('{"workers": 2, "replicates": 150}', "workers must be 1"),
    ],
    ids=["float-range", "unknown-key", "matern-object", "partial-matern", "fractional",
         "string-number", "scalar-sides", "string-modes", "null-side", "list",
         "matern-in-poisson", "repeated-sides", "workers"],
)
def test_cli_study_rejects_integer_beyond_float_range(tmp_path, capsys, text, message):
    # A malformed config is one error line and exit 1, never a traceback; JSON
    # integers are unbounded, so 10**400 must not escape as OverflowError
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    assert main(["study", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_domain_error_exit_code(capsys):
    assert main(["gof", "does-not-exist.csv", "--seed", "1"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["bogus-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, option",
    [
        (["kfunc", "{pat}", "-o", "{out}"], "--beta or --fit"),
        (["kfunc", "{pat}", "--intensity", "loglinear", "--fit", "-o", "{out}"],
         "--covariates"),
        (["fit", "{pat}", "--model", "loglinear"], "--covariates"),
        (["simulate", "--model", "poisson-inhom", "--beta", "5",
          "--side", "1", "--seed", "1", "-o", "{out}"], "--covariates"),
        (["simulate", "--model", "poisson-inhom", "--covariates", "{field}",
          "--side", "1", "--seed", "1", "-o", "{out}"], "--beta"),
        (["kfunc", "{pat}", "--beta", "5", "--fit", "-o", "{out}"], "not both"),
    ],
)
def test_cli_missing_model_option_is_usage_error(tmp_path, capsys, argv, option):
    paths = {"pat": tmp_path / "pat.csv", "field": tmp_path / "field.csv",
             "out": tmp_path / "out.csv"}
    write_pattern_csv(paths["pat"], simulate_poisson(100.0, Window(2, 1.0), seed=2))
    write_covariate_field(
        paths["field"], CovariateField(Window(2, 1.0), np.ones((2, 2, 1)))
    )
    with pytest.raises(SystemExit) as exc:
        main([arg.format(**paths) for arg in argv])
    assert exc.value.code == 2
    assert option in capsys.readouterr().err
    assert not paths["out"].exists()


SIMULATE = ["simulate", "--side", "1", "--seed", "1", "-o", "{out}", "--model"]
CRIT_COV = ["crit", "--cov", "{cov}", "--grid", "10", "--M", "1000", "--seed", "3", "-o", "{out}"]


@pytest.mark.parametrize(
    "argv, option",
    [
        ([*SIMULATE, "poisson", "--kappa", "30"], "--kappa"),
        ([*SIMULATE, "poisson", "--mu", "5"], "--mu"),
        ([*SIMULATE, "poisson", "--rdisp", "0.1"], "--rdisp"),
        ([*SIMULATE, "poisson", "--covariates", "nofile.csv"], "--covariates"),
        ([*SIMULATE, "poisson", "--beta", "5"], "--beta"),
        ([*SIMULATE, "matern", "--rho", "5", "--covariates", "nofile.csv", "--beta", "3"],
         "does not read --rho, --covariates, --beta"),
        ([*SIMULATE, "poisson-inhom", "--covariates", "{field}", "--beta", "5", "--rho", "200"],
         "--rho"),
        ([*SIMULATE, "poisson-inhom", "--covariates", "{field}", "--beta", "5", "--mu", "8"],
         "--mu"),
        (["fit", "{pat}", "--model", "constant", "--covariates", "nofile.csv", "--beta0", "1,2",
          "-o", "{out}"], "does not read --covariates, --beta0"),
        (["fit", "{pat}", "--beta0", "1", "-o", "{out}"], "--beta0"),
        (["kfunc", "{pat}", "--fit", "--covariates", "nofile.csv", "-o", "{out}"], "--covariates"),
        ([*CRIT_COV, "--rho", "5"], "--rho"),
        ([*CRIT_COV, "--mode", "known"], "--mode"),
        (["cov", "--beta", "200", "--grid", "5", "-o", "{out}", "--g-model", "poisson"],
         "--g-model"),
        (["cov", "--beta", "200", "--grid", "5", "-o", "{out}", "--samples", "1024"],
         "--samples"),
        (["cov", "--beta", "200", "--grid", "5", "-o", "{out}", "--r-trunc", "1.0"],
         "--r-trunc"),
        (["study", "--config", "{cfg}", "--threads", "1", "-o", "{out}"], "--threads"),
        # gof plugs the estimate into the statistic and the null law alike, in
        # both modes; it takes no second intensity.
        (["gof", "{pat}", "--mode", "estimated", "--rho", "5", "--seed", "1", "-o", "{out}"],
         "unrecognized arguments: --rho 5"),
        (["gof", "{pat}", "--mode", "known", "--rho", "5", "--seed", "1", "-o", "{out}"],
         "unrecognized arguments: --rho 5"),
    ],
)
def test_cli_unread_option_is_usage_error(tmp_path, capsys, argv, option):
    # An option the command or its model does not read exits 2 and names it,
    # before any file is read or written.
    paths = {"pat": tmp_path / "pat.csv", "field": tmp_path / "field.csv",
             "cov": tmp_path / "cov.csv", "cfg": tmp_path / "cfg.json",
             "out": tmp_path / "out"}
    write_pattern_csv(paths["pat"], simulate_poisson(100.0, Window(2, 1.0), seed=2))
    write_covariate_field(
        paths["field"], CovariateField(Window(2, 1.0), np.ones((2, 2, 1)))
    )
    write_matrix_csv(paths["cov"], np.eye(10))
    paths["cfg"].write_text(json.dumps({"rho": 200.0, "sides": [1.0], "replicates": 100,
                                        "sample_size": 100, "grid_size": 5, "seed": 1}))
    inputs = sorted(tmp_path.iterdir())
    with pytest.raises(SystemExit) as exc:
        main([arg.format(**paths) for arg in argv])
    assert exc.value.code == 2
    assert option in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == inputs


@pytest.mark.parametrize(
    "argv",
    [
        [*SIMULATE, "matern", "--rho", "5"],
        ["fit", "{pat}", "--model", "loglinear"],
        ["kfunc", "{pat}", "--beta", "5", "--fit", "-o", "{out}"],
        [*CRIT_COV, "--rho", "5"],
        ["gof", "{pat}", "--rho", "5", "--seed", "1"],
        ["cov", "--beta", "200", "--samples", "64", "-o", "{out}"],
    ],
    ids=["simulate-unread", "fit-missing", "kfunc-both", "crit-unread", "gof-unrecognized",
         "cov-unrecognized"],
)
def test_cli_model_option_error_prints_subcommand_usage(tmp_path, capsys, argv):
    # The usage line of a model-option error or an unrecognized argument is
    # the subcommand's, as it is for argparse's own error on a missing
    # required option.
    paths = {"pat": tmp_path / "pat.csv", "cov": tmp_path / "cov.csv", "out": tmp_path / "out"}
    with pytest.raises(SystemExit) as exc:
        main([arg.format(**paths) for arg in argv])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(f"usage: inhomk {argv[0]} ")


def test_model_options_are_options_of_their_command():
    # Each option the model table names is an option of its subcommand, with
    # no parser default that would hide it from the check, so a renamed
    # option cannot silently fall out of the table.
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    for (command, model), options in _MODEL_OPTIONS.items():
        actions = {
            flag: action
            for action in subparsers.choices[command]._actions
            for flag in action.option_strings
        }
        for dest in options:
            action = actions.get(f"--{dest}")
            assert action is not None, (command, model, dest)
            assert action.dest == dest and action.default is None, (command, model, dest)


@pytest.mark.parametrize(
    "M, message",
    [("50", "sample_size must be >= 100"),
     ("1" + "0" * 400, "sample_size is outside the float range")],
    ids=["small", "400-digits"],
)
def test_cli_crit_M_is_named_as_gof_names_it(tmp_path, capsys, M, message):
    pat = tmp_path / "pat.csv"
    write_pattern_csv(pat, simulate_poisson(100.0, Window(2, 1.0), seed=2))
    out = tmp_path / "crit.json"
    assert main(["crit", "--M", M, "--seed", "3", "-o", str(out)]) == 1
    crit_err = capsys.readouterr().err
    assert main(["gof", str(pat), "--M", M, "--seed", "3"]) == 1
    assert crit_err == capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_cli_cov_reports_points_drawn(tmp_path, capsys):
    # The 2^16 default over 2,145 annulus pairs is 30 points a stratum, below
    # the floor of 32, so more points are drawn than the budget names, and
    # meta says so.
    prefix = tmp_path / "blocks"
    assert main(["cov", "--beta", "200", "--grid", "65", "-o", str(prefix)]) == 0
    meta = json.loads((tmp_path / "blocks.meta.json").read_text())
    assert meta["samples"] == 2**16
    assert meta["points"] == 605_296


def test_readme_command_lines_parse(tmp_path, monkeypatch, capsys):
    # Every "inhomk ..." line of README's "Command line" block parses and
    # passes the model-option check, so a removed option cannot linger there.
    # Run in order in a scratch directory, each line exits 0; the study line
    # (2,000 replicates) only parses.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("inhomk ")]
    assert lines
    parser = build_parser()
    monkeypatch.chdir(tmp_path)
    for line in lines:
        argv = shlex.split(line)[1:]
        _check_model_options(parser.parse_args(argv))
        if argv[0] != "study":
            assert main(argv) == 0, line


def test_readme_library_quick_start_runs(capsys):
    # README's "Library quick start" block runs as written, so the example
    # cannot drift from the library's signatures.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1]
    exec(compile(block.split("```", 1)[0], "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2


# The raster and parameters of the benchmark's log-linear analysis.
INHOM_BETA = (np.log(200.0), 0.5, 0.3)


def _inhom_field():
    return CovariateField.from_function(
        Window(2, 2.0),
        lambda p: np.column_stack([np.ones(len(p)), p[:, 0], np.sin(3.0 * p[:, 1])]),
        32,
    )


def _curve_columns(path, names):
    text = Path(path).read_text()
    assert text.splitlines()[0] == ",".join(names)
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def test_cli_loglinear_round_trip(tmp_path, capsys):
    # simulate -> fit -> kfunc through the CLI equals the library calls bitwise:
    # every file holds 17 significant digits, and simulate thins at the
    # raster's exact maximum intensity.
    field = _inhom_field()
    path = {name: str(tmp_path / name) for name in
            ("field.csv", "pat.csv", "fit.json", "cold.json", "fitted.csv", "given.csv")}
    write_covariate_field(path["field.csv"], field)
    beta_text = ",".join(repr(float(b)) for b in INHOM_BETA)
    assert main(["simulate", "--model", "poisson-inhom", "--covariates", path["field.csv"],
                 "--beta", beta_text, "--side", "2", "--seed", "7", "-o", path["pat.csv"]]) == 0
    truth = LogLinearIntensity(np.array(INHOM_BETA), field)
    pattern = simulate_poisson_inhom(truth, truth.cell_values().max(), field.window, 7)
    assert capsys.readouterr().out == f"{len(pattern)} points -> {path['pat.csv']}\n"
    np.testing.assert_array_equal(read_pattern_csv(path["pat.csv"]).points, pattern.points,
                                  strict=True)

    fit_argv = ["fit", path["pat.csv"], "--model", "loglinear", "--covariates", path["field.csv"]]
    assert main([*fit_argv, "-o", path["fit.json"]]) == 0
    assert main([*fit_argv, "--beta0", "0,0,0", "-o", path["cold.json"]]) == 0
    for name, beta0 in (("fit.json", None), ("cold.json", [0.0, 0.0, 0.0])):
        fit = fit_loglinear(pattern, field, beta0)
        assert json.loads(Path(path[name]).read_text()) == {
            "model": "loglinear", "beta_hat": fit.beta_hat.tolist(),
            "score_norm": fit.score_norm, "iterations": fit.iterations,
            "converged": True, "halvings": fit.halvings,
        }
    assert json.loads(Path(path["cold.json"]).read_text())["halvings"] == 8

    grid = RadiusGrid.uniform(0.1, 10)
    kfunc = ["kfunc", path["pat.csv"], "--intensity", "loglinear", "--covariates",
             path["field.csv"], "--R", "0.1", "--grid", "10"]
    assert main([*kfunc, "--fit", "--with-h", "-o", path["fitted.csv"]]) == 0
    model = LogLinearIntensity(fit_loglinear(pattern, field).beta_hat, field)
    table = _curve_columns(path["fitted.csv"], ["r", "khat", "h_1", "h_2", "h_3"])
    np.testing.assert_array_equal(table[:, 0], grid.values, strict=True)
    np.testing.assert_array_equal(table[:, 1], k_hat(pattern, model, grid).values, strict=True)
    np.testing.assert_array_equal(table[:, 2:], h_matrix(pattern, model, grid).values,
                                  strict=True)
    assert main([*kfunc, "--beta", beta_text, "-o", path["given.csv"]]) == 0
    table = _curve_columns(path["given.csv"], ["r", "khat"])
    np.testing.assert_array_equal(table[:, 1], k_hat(pattern, truth, grid).values, strict=True)


@pytest.mark.parametrize("side, dim", [("3", "2"), ("2", "3"), ("2", "1")],
                         ids=["side-3", "3-D", "1-D"])
@pytest.mark.parametrize("command", ["simulate", "kfunc"])
def test_cli_loglinear_window_mismatch_is_one_error_line(tmp_path, capsys, command, side, dim):
    # A planar side-2 raster: simulating on, or estimating K of a pattern on,
    # any other window exits 1 with one error line and writes nothing.
    field_path = tmp_path / "field.csv"
    raster = Window(2, 2.0)
    write_covariate_field(field_path, CovariateField.from_function(
        raster, lambda p: np.column_stack([np.ones(len(p)), p[:, 0]]), 4))
    window = Window(int(dim), float(side))
    out = tmp_path / "out.csv"
    if command == "simulate":
        argv = ["simulate", "--model", "poisson-inhom", "--covariates", str(field_path),
                "--beta", "4,0.5", "--side", side, "--dim", dim, "--seed", "1", "-o", str(out)]
    else:
        pat = tmp_path / "pat.csv"
        write_pattern_csv(pat, simulate_poisson(50.0, window, seed=1))
        argv = ["kfunc", str(pat), "--intensity", "loglinear", "--beta", "4,0.5",
                "--covariates", str(field_path), "-o", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: covariate raster window {raster} does not match {window}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["gof", "{pat}", "--seed", "1"], ["kfunc", "{pat}", "--fit", "-o", "{out}"],
     ["crit", "--seed", "1"], ["cov", "--beta", "200", "-o", "{out}"]],
    ids=["gof", "kfunc", "crit", "cov"],
)
def test_cli_grid_beyond_float_range_is_named(tmp_path, capsys, argv):
    paths = {"pat": tmp_path / "pat.csv", "out": tmp_path / "out"}
    write_pattern_csv(paths["pat"], simulate_poisson(100.0, Window(2, 1.0), seed=2))
    huge = ["--grid", "1" + "0" * 400]
    assert main([arg.format(**paths) for arg in argv] + huge) == 1
    assert capsys.readouterr().err == "error: grid_size is outside the float range\n"
    assert not list(tmp_path.glob("out*"))


def test_cli_study_failed_cell_is_one_error_line(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"process": "poisson", "rho": 2.0, "sides": [1.0],
                                    "replicates": 100, "sample_size": 100, "grid_size": 5}))
    out = tmp_path / "table.md"
    assert main(["study", "--config", str(cfg_path), "-o", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: side 1: 12 of 100 replicates failed (empty patterns), above the 1% cap\n"
    )
    assert not out.exists()


def test_cli_study_to_stdout(tmp_path, capsys):
    # Without -o the markdown table goes to stdout; every column but the
    # seconds is the library's.
    raw = {"rho": 200.0, "sides": [1.0], "replicates": 100, "sample_size": 200,
           "grid_size": 10, "seed": 3, "workers": 1}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["study", "--config", str(cfg_path)]) == 0
    want = rejection_study(StudyConfig.from_dict(raw)).to_markdown()

    def without_seconds(text):
        return [line.rsplit("|", 2)[0] for line in text.splitlines()]

    assert without_seconds(capsys.readouterr().out) == without_seconds(want)
