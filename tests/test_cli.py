import json

import numpy as np
import pytest

from eitdisk.cli import _gamma_values, _parse_reg, main
from eitdisk.io import read_curve, read_dtn, read_indicator
from eitdisk.regularization import RegStrategy


@pytest.fixture
def circle_file(tmp_path):
    path = tmp_path / "circle.json"
    path.write_text(json.dumps({"kind": "circle", "center": [0, 0], "radius": 0.5}))
    return str(path)


@pytest.fixture
def ellipse_file(tmp_path):
    path = tmp_path / "ellipse.json"
    path.write_text(json.dumps({"kind": "ellipse", "a": 0.5, "b": 0.3}))
    return str(path)


def test_forward_writes_readable_file(tmp_path, circle_file):
    out = str(tmp_path / "dtn.json")
    rc = main(["forward", "--geometry", circle_file, "--bc", "dirichlet",
               "--basis", "collocation:32", "--sim-nodes", "32", "--out", out])
    assert rc == 0
    lam, gap = read_dtn(out)
    assert lam.basis == "collocation" and lam.n == 32
    assert np.allclose(gap.matrix @ np.ones(32), 1 / np.log(0.5), atol=1e-6)


def test_forward_records_geometry_and_bc(tmp_path, ellipse_file):
    out = tmp_path / "dtn.json"
    assert main(["forward", "--geometry", ellipse_file, "--bc", "impedance",
                 "--basis", "collocation:32", "--inner-nodes", "48",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["geometry"] == {"kind": "ellipse", "n": 48}
    assert doc["bc"] == {"kind": "impedance"}


def test_forward_rejects_bad_radius(tmp_path):
    geom = tmp_path / "bad.json"
    geom.write_text(json.dumps({"kind": "circle", "center": [0, 0], "radius": 1.5}))
    rc = main(["forward", "--geometry", str(geom), "--out", str(tmp_path / "x.json")])
    assert rc != 0


def test_sample_roundtrip_and_determinism(tmp_path, circle_file):
    dtn = str(tmp_path / "dtn.json")
    main(["forward", "--geometry", circle_file, "--basis", "collocation:64",
          "--sim-nodes", "64", "--out", dtn])
    args = ["sample", "--data", dtn, "--grid", "31", "--noise", "0.05",
            "--seed", "4", "--reg", "tikhonov:disc:1.5"]
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(args + ["--out", out1]) == 0
    assert main(args + ["--out", out2]) == 0
    with open(out1) as fa, open(out2) as fb:
        assert fa.read() == fb.read()
    grid = read_indicator(out1)
    assert np.nanmax(grid.values) > 0


def test_extract_pipeline(tmp_path, circle_file):
    dtn = str(tmp_path / "dtn.json")
    ind = str(tmp_path / "w.csv")
    curve = str(tmp_path / "curve.json")
    main(["forward", "--geometry", circle_file, "--basis", "collocation:64",
          "--sim-nodes", "64", "--out", dtn])
    main(["sample", "--data", dtn, "--grid", "81", "--noise", "0",
          "--reg", "tikhonov:disc:1.5", "--reg-noise", "0.02", "--out", ind])
    rc = main(["extract", "--indicator", ind, "--threshold-rel", "0.2",
               "--degree", "7", "--out", curve])
    assert rc == 0
    fitted = read_curve(curve)
    radii = np.hypot(*fitted.to_curve().point(
        np.linspace(0, 2 * np.pi, 64, endpoint=False)).T)
    assert abs(radii.mean() - 0.5) / 0.5 < 0.15


def test_extract_empty_level_set_fails(tmp_path, circle_file):
    dtn = str(tmp_path / "dtn.json")
    ind = str(tmp_path / "w.csv")
    main(["forward", "--geometry", circle_file, "--basis", "collocation:64",
          "--sim-nodes", "64", "--out", dtn])
    main(["sample", "--data", dtn, "--grid", "41", "--reg", "tikhonov:0.001",
          "--out", ind])
    rc = main(["extract", "--indicator", ind, "--threshold-rel", "0.999",
               "--out", str(tmp_path / "c.json")])
    assert rc != 0


def test_impedance_exact_geometry_constant_gamma(tmp_path, circle_file):
    out = str(tmp_path / "gamma.csv")
    rc = main(["impedance", "--geometry", circle_file, "--gamma", "2.0",
               "--pairs", "16", "--noise", "0", "--reg", "tikhonov:disc:1.5",
               "--reg-noise", "1e-8", "--sim-nodes", "64", "--out", out])
    assert rc == 0
    rows = np.genfromtxt(out, delimiter=",", skip_header=2)
    gamma_avg = rows[:, 1]
    assert np.nanmax(np.abs(gamma_avg - 2.0)) < 1e-2


def test_impedance_reg_noise_overrides_the_data_noise(tmp_path, ellipse_file, capfd):
    # --reg-noise sets the level the noise-tied cutoff assumes, also when the
    # simulated data carry noise of their own
    args = ["impedance", "--geometry", ellipse_file, "--pairs", "4", "--noise", "0.04",
            "--reg", "cutoff:noise:2", "--out", str(tmp_path / "g.csv")]
    assert main(args) == 0
    capfd.readouterr()
    assert main(args + ["--reg-noise", "0.5"]) == 2
    assert "every pair was rejected as noise-dominated" in capfd.readouterr().err


def test_impedance_rejects_fitted_curve_outside_unit_circle(tmp_path, ellipse_file, capfd):
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps({"M": 1, "a": [[1.2], [0.0]], "b": [[0.0], [1.2]],
                                 "smoothing": 0.0}))
    rc = main(["impedance", "--geometry", ellipse_file, "--curve", str(curve),
               "--out", str(tmp_path / "g.csv")])
    assert rc == 2
    assert "inside the unit measurement circle" in capfd.readouterr().err
    assert not (tmp_path / "g.csv").exists()


def test_impedance_zero_pairs_rejected(tmp_path, ellipse_file):
    rc = main(["impedance", "--geometry", ellipse_file, "--pairs", "0",
               "--out", str(tmp_path / "g.csv")])
    assert rc != 0


def test_verify_passes_and_flipped_sign_fails(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "constant-mode impedance coefficient" in out
    assert main(["verify", "--flip-kernel-sign"]) != 0
    out = capsys.readouterr().out
    assert "FAIL" in out


THETA = 2 * np.pi * np.arange(32) / 32


def test_gamma_expression_values_unchanged():
    got = _gamma_values("2 - sin(theta)**4", THETA)
    assert np.array_equal(got, 2 - np.sin(THETA) ** 4)


@pytest.mark.parametrize("expr", [
    '[c.__name__ for c in ().__class__.__base__.__subclasses__()]'
    '.index("BuiltinImporter")+0*theta',
    "theta.real",
    "theta[0] + theta",
    "(lambda t: t)(theta)",
    "sin([t for t in theta])",
    "__import__('os')",
    "sin(theta, theta)",
    "pi(theta)",
    "2 +",
])
def test_gamma_expression_whitelist(expr):
    theta = THETA.copy()
    with pytest.raises(ValueError):
        _gamma_values(expr, theta)
    assert np.array_equal(theta, THETA)


@pytest.mark.parametrize("expr", ["sqrt(theta - 3)", "1/(theta-theta)"])
def test_non_finite_gamma_exits_with_message(tmp_path, circle_file, capfd, expr):
    rc = main(["forward", "--geometry", circle_file, "--bc", "impedance",
               "--gamma", expr, "--basis", "collocation:32",
               "--out", str(tmp_path / "dtn.json")])
    assert rc == 2
    err = capfd.readouterr().err
    assert "gamma" in err and "DLASCL" not in err


def test_impedance_factorizes_simulation_and_completion_once(
        tmp_path, ellipse_file, lu_factor_calls):
    assert main(["impedance", "--geometry", ellipse_file,
                 "--out", str(tmp_path / "g.csv")]) == 0
    assert lu_factor_calls == [(128, 128), (64, 64)]


@pytest.mark.parametrize("text, want", [
    ("none", RegStrategy.none()),
    ("tikhonov", RegStrategy.tikhonov_discrepancy(0.05)),
    ("tikhonov:disc", RegStrategy.tikhonov_discrepancy(0.05)),
    ("tikhonov:disc:3", RegStrategy.tikhonov_discrepancy(0.05, 3.0)),
    ("tikhonov:1e-6", RegStrategy.tikhonov(1e-6)),
    ("cutoff:0.01", RegStrategy.spectral_cutoff(0.01)),
    ("cutoff:noise", RegStrategy.cutoff_by_noise(0.05)),
    ("cutoff:noise:4", RegStrategy.cutoff_by_noise(0.05, 4.0)),
])
def test_parse_reg_takes_safety_defaults_from_the_constructors(text, want):
    assert _parse_reg(text, 0.05) == want


def test_parse_reg_rejects_unknown_strategy():
    with pytest.raises(ValueError, match="unknown regularization"):
        _parse_reg("landweber", 0.05)


def test_parse_reg_default_safety_factors_unchanged():
    # the documented --reg defaults: 1.5 for the discrepancy principle,
    # 2.0 for the noise-tied cutoff
    assert _parse_reg("tikhonov", 0.05).safety == 1.5
    assert _parse_reg("cutoff:noise", 0.05).safety == 2.0
