import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import eitdisk
from eitdisk import bie, cli
from eitdisk.cli import _gamma_values, _parse_reg, main
from eitdisk.dtn import gap_from_lambda0
from eitdisk.geometry import BoundaryCurve
from eitdisk.io import read_curve, read_dtn, read_indicator, write_curve
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
    lam = read_dtn(out)
    assert lam.basis == "collocation" and lam.n == 32
    gap = gap_from_lambda0(lam)
    assert np.allclose(gap.matrix @ np.ones(32), 1 / np.log(0.5), atol=1e-6)


def test_forward_records_geometry_and_bc(tmp_path, ellipse_file):
    out = tmp_path / "dtn.json"
    assert main(["forward", "--geometry", ellipse_file, "--bc", "impedance",
                 "--basis", "collocation:32", "--inner-nodes", "48",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert sorted(doc) == ["basis", "bc", "complex", "config", "config_hash", "geometry",
                           "lambda0", "modes"]
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
    radii = np.hypot(*fitted.point(
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


@pytest.mark.parametrize("args, named", [
    (["--inner-nodes", "0"], "not 0"),
    (["--basis", "collocation:0"], "--basis collocation:0"),
    (["--basis", "fourier:-3"], "--basis fourier:-3"),
    (["--basis", "collocation:64", "--sim-nodes", "16"], "not --sim-nodes 16"),
])
def test_forward_rejects_a_mesh_or_basis_below_its_size(tmp_path, circle_file, capfd,
                                                         args, named):
    out = tmp_path / "dtn.json"
    assert main(["forward", "--geometry", circle_file, *args, "--out", str(out)]) == 2
    err = capfd.readouterr().err.splitlines()
    assert len(err) == 1 and named in err[0], err
    assert not out.exists()


@pytest.mark.parametrize("degree", ["0", "-1"])
def test_extract_rejects_a_degree_below_one(tmp_path, circle_file, capfd, degree):
    dtn, ind, out = (str(tmp_path / name) for name in ("dtn.json", "w.csv", "c.json"))
    assert main(["forward", "--geometry", circle_file, "--out", dtn]) == 0
    assert main(["sample", "--data", dtn, "--grid", "41", "--reg", "tikhonov:0.001",
                 "--out", ind]) == 0
    capfd.readouterr()
    assert main(["extract", "--indicator", ind, "--degree", degree, "--out", out]) == 2
    err = capfd.readouterr().err.splitlines()
    assert len(err) == 1 and f"--degree: fit degree must be 1 or more, not {degree}" in err[0], err


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


# a degree-7 trig curve with a small self-loop near theta = 0
LOOPED_TRIG = {"kind": "trig", "a": [[0.4, 0, 0, 0, 0, 0, 0.1], [0, 0, 0, 0, 0, 0, 0]],
               "b": [[0, 0, 0, 0, 0, 0, 0], [0.4, 0, 0, 0, 0, 0, 0.1]]}


def test_forward_and_impedance_reject_a_self_intersecting_geometry(tmp_path, capfd):
    geom = tmp_path / "loop.json"
    geom.write_text(json.dumps(LOOPED_TRIG))
    errors = []
    for argv in (["forward", "--out", str(tmp_path / "dtn.json")],
                 ["impedance", "--pairs", "4", "--noise", "0.02",
                  "--out", str(tmp_path / "g.csv")]):
        assert main(argv + ["--geometry", str(geom)]) == 2
        errors.append(capfd.readouterr().err)
    assert errors[0] == errors[1] == "error: curve self-intersects at sample resolution\n"
    assert not (tmp_path / "dtn.json").exists() and not (tmp_path / "g.csv").exists()


def test_impedance_rejects_a_self_intersecting_fitted_curve(tmp_path, ellipse_file, capfd):
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps({"M": 7, "a": LOOPED_TRIG["a"], "b": LOOPED_TRIG["b"],
                                 "smoothing": 0.0}))
    assert main(["impedance", "--geometry", ellipse_file, "--curve", str(curve),
                 "--noise", "0.04", "--out", str(tmp_path / "g.csv")]) == 2
    assert "self-intersects" in capfd.readouterr().err


def test_impedance_level_zero_reg_fails_before_any_solve(tmp_path, ellipse_file, capfd,
                                                         monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("solved before --reg was parsed")

    monkeypatch.setattr("eitdisk.cli.assemble_completion", forbidden)
    monkeypatch.setattr("eitdisk.bie.solve_forward", forbidden)
    out = tmp_path / "g.csv"
    assert main(["impedance", "--geometry", ellipse_file, "--noise", "0",
                 "--sim-nodes", "256", "--nodes", "512", "--out", str(out)]) == 2
    assert "--reg-noise" in capfd.readouterr().err
    assert not out.exists()


# a hand-written fitted curve without a config_hash
OUTSIDE_CURVE = {"M": 1, "a": [[1.2], [0.0]], "b": [[0.0], [1.2]], "smoothing": 0.0}


def test_impedance_rejects_fitted_curve_outside_unit_circle(tmp_path, ellipse_file, capfd):
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps(OUTSIDE_CURVE))
    rc = main(["impedance", "--geometry", ellipse_file, "--curve", str(curve),
               "--out", str(tmp_path / "g.csv")])
    assert rc == 2
    assert "inside the unit measurement circle" in capfd.readouterr().err
    assert not (tmp_path / "g.csv").exists()


def test_hand_written_curve_without_config_hash_loads(tmp_path):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(OUTSIDE_CURVE))
    curve = read_curve(path)
    assert curve.kind == "trig"
    assert np.array_equal(curve.cos_coef, [[1.2], [0.0]])
    assert np.array_equal(curve.sin_coef, [[0.0], [1.2]])


def test_curve_file_whose_degree_disagrees_with_its_columns_is_rejected(
        tmp_path, ellipse_file, capfd):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(dict(OUTSIDE_CURVE, M=5)))
    with pytest.raises(ValueError, match="M=5"):
        read_curve(path)
    assert main(["impedance", "--geometry", ellipse_file, "--curve", str(path),
                 "--out", str(tmp_path / "g.csv")]) == 2
    assert "M=5" in capfd.readouterr().err


A2 = [[0.5, 0.01], [0.0, 0.02]]
B2 = [[0.0, -0.03], [0.5, 0.0]]


def test_curve_file_bytes_of_a_degree_two_curve(tmp_path):
    path = tmp_path / "curve.json"
    write_curve(path, BoundaryCurve.trig(A2, B2), {"command": "extract", "degree": 2})
    assert path.read_text() == (
        '{"config_hash": "605f1a64ce3d5808", "M": 2, "a": [[0.5, 0.01], [0.0, 0.02]], '
        '"b": [[0.0, -0.03], [0.5, 0.0]], "smoothing": 0.0}')


def test_curve_file_round_trip(tmp_path):
    path = tmp_path / "curve.json"
    write_curve(path, BoundaryCurve.trig(A2, B2), {})
    curve = read_curve(path)
    assert curve.kind == "trig"
    assert np.array_equal(curve.cos_coef, A2) and np.array_equal(curve.sin_coef, B2)


def test_sample_noise_tied_reg_at_level_zero_exits_2(tmp_path, circle_file, capfd):
    dtn = str(tmp_path / "dtn.json")
    assert main(["forward", "--geometry", circle_file, "--basis", "collocation:32",
                 "--out", dtn]) == 0
    out = tmp_path / "w.csv"
    assert main(["sample", "--data", dtn, "--grid", "11", "--noise", "0",
                 "--out", str(out)]) == 2
    assert "--reg-noise" in capfd.readouterr().err
    assert not out.exists()


def test_impedance_noise_tied_reg_at_level_zero_exits_2(tmp_path, ellipse_file, capfd):
    out = tmp_path / "g.csv"
    assert main(["impedance", "--geometry", ellipse_file, "--pairs", "2", "--noise", "0",
                 "--out", str(out)]) == 2
    assert "--reg-noise" in capfd.readouterr().err
    assert not out.exists()


def test_geometry_file_without_a_key_exits_2(tmp_path, capfd):
    geom = tmp_path / "circle.json"
    geom.write_text(json.dumps({"kind": "circle", "center": [0, 0]}))
    assert main(["forward", "--geometry", str(geom), "--out", str(tmp_path / "x.json")]) == 2
    err = capfd.readouterr().err
    assert "geometry" in err and "'radius'" in err and "Traceback" not in err


@pytest.mark.parametrize("doc, key", [
    ([1, 2], "JSON object"),
    ({"kind": "circle", "radius": "abc"}, "'radius'"),
    ({"kind": "ellipse", "a": None, "b": 0.3}, "'a'"),
    ({"kind": "circle", "center": [0], "radius": 0.5}, "'center'"),
], ids=["list", "text-radius", "null-axis", "short-center"])
def test_geometry_file_with_a_wrong_typed_value_exits_2(tmp_path, capfd, doc, key):
    geom = tmp_path / "geometry.json"
    geom.write_text(json.dumps(doc))
    assert main(["forward", "--geometry", str(geom), "--out", str(tmp_path / "x.json")]) == 2
    err = capfd.readouterr().err
    assert key in err and "Traceback" not in err


def test_indicator_file_without_a_grid_key_exits_2(tmp_path, capfd):
    indicator = tmp_path / "w.csv"
    indicator.write_text("# config=abc nx=3\nx,y,W\r\n")
    assert main(["extract", "--indicator", str(indicator),
                 "--out", str(tmp_path / "curve.json")]) == 2
    err = capfd.readouterr().err
    assert "indicator CSV" in err and "'ny'" in err and "Traceback" not in err


def test_dtn_file_without_a_key_exits_2(tmp_path, circle_file, capfd):
    dtn = tmp_path / "dtn.json"
    assert main(["forward", "--geometry", circle_file, "--basis", "collocation:32",
                 "--out", str(dtn)]) == 0
    doc = json.loads(dtn.read_text())
    del doc["modes"]
    dtn.write_text(json.dumps(doc))
    capfd.readouterr()
    assert main(["sample", "--data", str(dtn), "--grid", "11", "--noise", "0.05",
                 "--out", str(tmp_path / "w.csv")]) == 2
    err = capfd.readouterr().err
    assert "DtN file" in err and "'modes'" in err


def test_curve_file_without_a_key_exits_2(tmp_path, ellipse_file, capfd):
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps({"M": 1, "b": [[0.0], [0.4]], "smoothing": 0.0}))
    assert main(["impedance", "--geometry", ellipse_file, "--curve", str(curve),
                 "--noise", "0.04", "--out", str(tmp_path / "g.csv")]) == 2
    err = capfd.readouterr().err
    assert "curve file" in err and "'a'" in err


@pytest.mark.parametrize("pairs, nodes, flag", [
    ("32", ["--noise", "0", "--reg", "cutoff:0.0001"], "--sim-nodes 34"),
    ("40", ["--noise", "0.01"], "--sim-nodes 42"),
    ("16", ["--noise", "0.04", "--sim-nodes", "64", "--nodes", "16"], "--nodes 18"),
])
def test_impedance_rejects_pairs_the_meshes_cannot_resolve(
        tmp_path, ellipse_file, capfd, monkeypatch, pairs, nodes, flag):
    def forbidden(*args, **kwargs):
        raise AssertionError("solved before --pairs was checked")

    monkeypatch.setattr("eitdisk.cli.assemble_completion", forbidden)
    monkeypatch.setattr("eitdisk.bie.solve_forward", forbidden)
    out = tmp_path / "g.csv"
    assert main(["impedance", "--geometry", ellipse_file, "--pairs", pairs, *nodes,
                 "--out", str(out)]) == 2
    err = capfd.readouterr().err
    assert f"--pairs {pairs}" in err and flag in err
    assert not out.exists()


def test_impedance_pairs_at_the_resolution_limit_run(tmp_path, ellipse_file):
    # 30 pairs drive order 15, which 32 simulation nodes resolve
    assert main(["impedance", "--geometry", ellipse_file, "--pairs", "30",
                 "--noise", "0.04", "--out", str(tmp_path / "g.csv")]) == 0


def test_impedance_zero_pairs_rejected(tmp_path, ellipse_file):
    rc = main(["impedance", "--geometry", ellipse_file, "--pairs", "0",
               "--out", str(tmp_path / "g.csv")])
    assert rc != 0


def test_verify_passes_and_a_negated_double_layer_fails(capsys, monkeypatch):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "constant-mode impedance coefficient" in out
    double_layer = bie.double_layer
    monkeypatch.setattr(bie, "double_layer", lambda *args: -double_layer(*args))
    assert main(["verify"]) != 0
    failed = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("[FAIL]")]
    assert len(failed) == 3, failed
    for name in ("gauss identities", "forward solver vs series",
                 "constant-mode impedance coefficient"):
        assert any(name in line for line in failed), failed


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


@pytest.mark.parametrize("expr, bc", [
    ("sqrt(theta - 3)", "impedance"), ("1/(theta-theta)", "impedance"),
    # the Dirichlet condition ignores gamma, but a bad expression still fails
    ("sqrt(theta - 3)", "dirichlet"), ("1/(theta-theta)", "dirichlet"),
], ids=["sqrt(theta - 3)", "1/(theta-theta)", "sqrt(theta - 3)-dirichlet",
        "1/(theta-theta)-dirichlet"])
def test_non_finite_gamma_exits_with_message(tmp_path, circle_file, capfd, expr, bc):
    rc = main(["forward", "--geometry", circle_file, "--bc", bc,
               "--gamma", expr, "--basis", "collocation:32",
               "--out", str(tmp_path / "dtn.json")])
    assert rc == 2
    err = capfd.readouterr().err
    assert "gamma" in err and "DLASCL" not in err


def test_impedance_factorizes_simulation_and_completion_once(
        tmp_path, ellipse_file, lu_factor_calls):
    assert main(["impedance", "--geometry", ellipse_file, "--noise", "0.04",
                 "--out", str(tmp_path / "g.csv")]) == 0
    assert lu_factor_calls == [(64, 64), (32, 32)]


def test_impedance_config_hash_tells_node_counts_and_reg_noise_apart(tmp_path, ellipse_file):
    # the benchmark's readme and many-nodes impedance stages, and the readme
    # stage with the regularizer's noise level given explicitly
    common = ["impedance", "--geometry", ellipse_file, "--gamma", "2 - sin(theta)**4",
              "--noise", "0.04", "--seed", "3", "--mask-tol", "0.2"]
    runs = {"readme": ["--sim-nodes", "64"],
            "many-nodes": ["--sim-nodes", "256", "--nodes", "512"],
            "reg-noise": ["--sim-nodes", "64", "--reg-noise", "0.04"]}
    hashes = {}
    for name, extra in runs.items():
        out = tmp_path / f"{name}.csv"
        assert main([*common, *extra, "--out", str(out)]) == 0
        hashes[name] = out.read_text().splitlines()[0]
    assert len(set(hashes.values())) == 3, hashes


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


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The README circle and ellipse, the ellipse as a degree-one fitted curve
    and the README forward map of the circle."""
    d = tmp_path_factory.mktemp("inputs")
    (d / "circle.json").write_text(json.dumps({"kind": "circle", "center": [0, 0],
                                               "radius": 0.5}))
    (d / "ellipse.json").write_text(json.dumps({"kind": "ellipse", "a": 0.5, "b": 0.3}))
    (d / "curve.json").write_text(json.dumps({"M": 1, "a": [[0.5], [0.0]],
                                              "b": [[0.0], [0.3]], "smoothing": 0.0}))
    assert main(["forward", "--geometry", str(d / "circle.json"), "--bc", "dirichlet",
                 "--basis", "collocation:64", "--sim-nodes", "64",
                 "--out", str(d / "dtn.json")]) == 0
    return d


def _sample(*args):
    return ["sample", "--data", "{d}/dtn.json", "--grid", "21", *args]


def _readme_impedance(*args):
    return ["impedance", "--geometry", "{d}/ellipse.json", "--gamma", "2 - sin(theta)**4",
            "--pairs", "16", "--noise", "0.04", "--mask-tol", "0.2", "--sim-nodes", "64",
            *args]


def _no_solve(*args, **kwargs):
    pytest.fail("a bad value reached the forward solver")


def _exits_2_naming(inputs, tmp_path, capfd, argv, named):
    out = tmp_path / "out"
    capfd.readouterr()
    # every bad value is caught before the first forward solve
    with mock.patch.object(bie, "solve_forward", _no_solve):
        assert main([a.replace("{d}", str(inputs)) for a in argv] + ["--out", str(out)]) == 2
    err = capfd.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and named in err[0], err
    assert not out.exists()


@pytest.mark.parametrize("argv, named", [
    (_sample("--reg", "tikhonov:nan"), "not nan"),
    (_sample("--noise", "0.05", "--reg-noise", "nan", "--reg", "cutoff:noise:2"), "not nan"),
    (_sample("--noise", "0.05", "--seed", "1", "--reg", "cutoff:noise:0"), "not 0.0"),
    (_sample("--noise", "0.05", "--seed", "1", "--reg", "cutoff:noise:-2"), "not -2.0"),
    (_readme_impedance("--reg", "cutoff:noise:-2"), "not -2.0"),
    # a fixed cutoff ignores the noise level, which is still checked
    (_sample("--reg", "cutoff:0.0001", "--reg-noise", "nan"), "--reg-noise must be finite and >= 0, not nan"),
    (_sample("--reg", "cutoff:0.0001", "--reg-noise", "-3"), "not -3.0"),
], ids=["alpha-nan", "reg-noise-nan", "safety-0", "safety-neg", "impedance-safety-neg",
        "cutoff-reg-noise-nan", "cutoff-reg-noise-neg"])
def test_reg_rejects_a_non_finite_value_or_a_safety_below_one(
        inputs, tmp_path, capfd, argv, named):
    _exits_2_naming(inputs, tmp_path, capfd, argv, named)


@pytest.mark.parametrize("argv, named", [
    (["forward", "--geometry", "{d}/circle.json", "--noise", "nan"], "not nan"),
    (_readme_impedance("--curve", "{d}/curve.json", "--model-error-factor", "0"), "not 0.0"),
    (_readme_impedance("--curve", "{d}/curve.json", "--model-error-factor", "-1"), "not -1.0"),
    # the exact geometry uses no model-error factor, but a bad one still fails
    (_readme_impedance("--model-error-factor", "nan"), "--model-error-factor must be finite and > 0, not nan"),
    # a fixed cutoff does not read --noise, but the noise model does
    (_readme_impedance("--noise", "nan", "--reg", "cutoff:0.0001"),
     "--noise must be finite and >= 0, not nan"),
], ids=["forward-noise-nan", "factor-0", "factor-neg", "exact-factor-nan",
        "impedance-cutoff-noise-nan"])
def test_noise_scales_must_be_finite_and_in_range(inputs, tmp_path, capfd, argv, named):
    _exits_2_naming(inputs, tmp_path, capfd, argv, named)


def _no_read(*args, **kwargs):
    pytest.fail("a bad value let an input file be read")


@pytest.mark.parametrize("argv, named", [
    (_sample("--noise", "nan"), "--noise must be finite and >= 0, not nan"),
    (_sample("--noise", "-0.1", "--reg", "cutoff:0.0001"), "--noise must be finite and >= 0, not -0.1"),
    (["extract", "--indicator", "{d}/indicator.csv", "--threshold-rel", "nan"],
     "--threshold-rel: relative threshold must lie in (0, 1), not nan"),
    (["extract", "--indicator", "{d}/indicator.csv", "--threshold-rel", "0"], "not 0.0"),
    (["extract", "--indicator", "{d}/indicator.csv", "--threshold-rel", "1"], "not 1.0"),
], ids=["sample-noise-nan", "sample-noise-neg", "threshold-nan", "threshold-0", "threshold-1"])
def test_sample_and_extract_check_values_before_reading_a_file(
        inputs, tmp_path, capfd, argv, named):
    with mock.patch.object(cli, "read_dtn", _no_read), \
            mock.patch.object(cli, "read_indicator", _no_read):
        _exits_2_naming(inputs, tmp_path, capfd, argv, named)


@pytest.mark.parametrize("argv, named", [
    (["forward", "--geometry", "{d}/circle.json", "--bc", "dirichlet", "--gamma", "nan"],
     "'nan'"),
    (["forward", "--geometry", "{d}/circle.json", "--bc", "dirichlet", "--gamma", "theta("],
     "'theta('"),
    (_readme_impedance("--mask-tol", "nan"), "mask tolerance must lie in [0, 1), not nan"),
    (_sample("--reg", "cutoff:0.0001", "--grid", "2"),
     "2x2 grid lies within the mask radius 0.9"),
    # the grid size and the degree are checked before the input file, which is missing
    (["sample", "--data", "{d}/missing.json", "--grid", "1", "--reg", "cutoff:0.0001"],
     "--grid: grid resolution must be at least 2 per axis, not 1"),
    (["extract", "--indicator", "{d}/missing.csv", "--degree", "-1"],
     "--degree: fit degree must be 1 or more, not -1"),
], ids=["dirichlet-gamma-nan", "dirichlet-gamma-unparsed", "mask-tol-nan",
        "grid-outside-mask", "grid-1-missing-data", "degree-neg-missing-indicator"])
def test_bad_value_exits_2_naming_it(inputs, tmp_path, capfd, argv, named):
    _exits_2_naming(inputs, tmp_path, capfd, argv, named)


def test_forward_config_hash_covers_inner_nodes(inputs, tmp_path):
    # a different inclusion mesh writes a different map, so it hashes differently
    hashes = set()
    for n in (32, 64):
        out = tmp_path / f"dtn{n}.json"
        assert main(["forward", "--geometry", str(inputs / "circle.json"), "--bc", "dirichlet",
                     "--basis", "collocation:64", "--inner-nodes", str(n),
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["inner_nodes"] == n
        hashes.add(doc["config_hash"])
    assert len(hashes) == 2


def test_impedance_has_no_bc_flag(inputs, tmp_path, capfd):
    # the stage always simulates the impedance condition
    out = tmp_path / "g.csv"
    with pytest.raises(SystemExit) as exc:
        main([a.replace("{d}", str(inputs)) for a in _readme_impedance(
            "--bc", "dirichlet", "--out", str(out))])
    assert exc.value.code == 2
    err = [line for line in capfd.readouterr().err.splitlines() if "error:" in line]
    assert len(err) == 1 and "--bc dirichlet" in err[0], err
    assert not out.exists()


def test_collocation_forward_simulates_on_its_own_node_count(inputs, tmp_path):
    # the README forward without --sim-nodes writes the same bytes as with it
    out = tmp_path / "dtn.json"
    assert main(["forward", "--geometry", str(inputs / "circle.json"), "--bc", "dirichlet",
                 "--basis", "collocation:64", "--out", str(out)]) == 0
    assert out.read_bytes() == (inputs / "dtn.json").read_bytes()


def _scipy_modules(code, cwd):
    """Names of the ``scipy`` modules loaded after ``code`` runs in a fresh
    interpreter that finds this ``eitdisk``."""
    report = "\nimport json, sys\nprint(json.dumps(sorted(" \
             "m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    env = {**os.environ, "PYTHONPATH": str(Path(eitdisk.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code + report], cwd=cwd, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _runs(*argvs):
    return "from eitdisk.cli import main\n" + "".join(
        f"assert main({argv!r}) == 0\n" for argv in argvs)


# scipy serves only the LU, so importing the package and the stages that
# never factorize one (sample and extract) must not load it
@pytest.mark.parametrize("module", ["eitdisk", "eitdisk.cli"])
def test_import_loads_no_scipy(tmp_path, module):
    assert _scipy_modules(f"import {module}", tmp_path) == []


def test_sample_and_extract_load_no_scipy(inputs, tmp_path):
    code = _runs(["sample", "--data", str(inputs / "dtn.json"), "--grid", "41",
                  "--noise", "0.05", "--seed", "1", "--reg", "tikhonov:disc:1.5",
                  "--out", "indicator.csv"],
                 ["extract", "--indicator", "indicator.csv", "--threshold-rel", "0.2",
                  "--degree", "7", "--out", "curve.json"])
    assert _scipy_modules(code, tmp_path) == []
    assert (tmp_path / "curve.json").exists()


def test_forward_loads_scipy(inputs, tmp_path):
    # the two checks above are not vacuous: the first LU loads scipy
    code = _runs(["forward", "--geometry", str(inputs / "circle.json"),
                  "--bc", "dirichlet", "--basis", "collocation:64", "--out", "dtn.json"])
    assert "scipy.linalg" in _scipy_modules(code, tmp_path)


# the README pipeline with its relative paths, and the config hash of each stage
README_PIPELINE = [
    (["forward", "--geometry", "circle.json", "--bc", "dirichlet",
      "--basis", "collocation:64", "--sim-nodes", "64", "--out", "dtn.json"],
     "e0672ca65d9b6bbd"),
    (["sample", "--data", "dtn.json", "--grid", "101", "--noise", "0.05", "--seed", "1",
      "--reg", "tikhonov:disc:1.5", "--out", "indicator.csv"], "7024f0323bb3ec25"),
    (["extract", "--indicator", "indicator.csv", "--threshold-rel", "0.2",
      "--degree", "7", "--out", "curve.json"], "c518202f5f4c636c"),
    (["impedance", "--geometry", "ellipse.json", "--gamma", "2 - sin(theta)**4",
      "--pairs", "16", "--noise", "0.04", "--reg", "cutoff:noise:2", "--mask-tol", "0.2",
      "--sim-nodes", "64", "--out", "gamma.csv"], "a48e25390d9f9b96"),
]


def test_readme_pipeline_config_hashes_unchanged(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "circle.json").write_text('{"kind": "circle", "center": [0, 0], "radius": 0.5}')
    (tmp_path / "ellipse.json").write_text('{"kind": "ellipse", "a": 0.5, "b": 0.3}')
    for argv, want in README_PIPELINE:
        assert main(argv) == 0
        assert f"(config {want})" in capsys.readouterr().out, argv[0]
    # dtn.json keeps its configuration in the order it was built
    config = json.loads((tmp_path / "dtn.json").read_text())["config"]
    assert list(config) == ["command", "geometry", "bc", "gamma", "basis", "noise", "seed",
                            "sim_nodes", "inner_nodes"]


# each stage's input files, which must not be read, and its flag-only bad values
_STAGE_INPUTS = {"forward": ["--geometry", "circle.json"], "sample": ["--data", "dtn.json"],
                 "extract": ["--indicator", "indicator.csv"],
                 "impedance": ["--geometry", "ellipse.json", "--noise", "0.04"]}
FLAG_ONLY_BAD_VALUES = [
    ("forward", ["--noise", "nan"], "--noise"),
    ("forward", ["--inner-nodes", "0"], "--inner-nodes"),
    ("forward", ["--inner-nodes", "33"], "--inner-nodes"),
    ("forward", ["--basis", "collocation:0"], "--basis"),
    ("forward", ["--basis", "collocation:63"], "--basis"),
    ("forward", ["--basis", "collocation:abc"], "--basis"),
    ("forward", ["--basis", "fourier:-3"], "--basis"),
    ("forward", ["--basis", "fourier:19:3"], "--basis"),
    ("forward", ["--basis", "bogus"], "--basis"),
    ("forward", ["--basis", "bogus:64"], "--basis"),
    ("forward", ["--basis", "collocation:64", "--sim-nodes", "16"], "--sim-nodes"),
    ("forward", ["--basis", "fourier:5", "--sim-nodes", "33"], "--sim-nodes"),
    ("sample", ["--noise", "nan"], "--noise"),
    ("sample", ["--noise", "-0.1", "--reg", "cutoff:0.0001"], "--noise"),
    ("sample", ["--reg", "cutoff:0.0001", "--reg-noise", "nan"], "--reg-noise"),
    ("sample", ["--reg", "cutoff:0.0001", "--reg-noise", "-3"], "--reg-noise"),
    ("sample", ["--grid", "1", "--reg", "cutoff:0.0001"], "--grid"),
    ("sample", ["--noise", "0"], "--reg"),
    ("sample", ["--reg", "tikhonov:nan"], "--reg"),
    ("sample", ["--noise", "0.05", "--reg", "cutoff:noise:0"], "--reg"),
    ("sample", ["--reg", "cutoff:0.0001:noise"], "--reg"),
    ("sample", ["--noise", "0.05", "--reg", "cutoff:noise:2:7"], "--reg"),
    ("sample", ["--reg", "none:3"], "--reg"),
    ("sample", ["--reg", "tikhonov:abc"], "--reg"),
    ("sample", ["--reg", "cutoff"], "--reg"),
    ("sample", ["--reg", "landweber"], "--reg"),
    ("extract", ["--threshold-rel", "nan"], "--threshold-rel"),
    ("extract", ["--threshold-rel", "0"], "--threshold-rel"),
    ("extract", ["--threshold-rel", "1"], "--threshold-rel"),
    ("extract", ["--degree", "0"], "--degree"),
    ("extract", ["--degree", "-1"], "--degree"),
    ("impedance", ["--noise", "nan", "--reg", "cutoff:0.0001"], "--noise"),
    ("impedance", ["--pairs", "0"], "--pairs"),
    ("impedance", ["--pairs", "32"], "--sim-nodes"),
    ("impedance", ["--sim-nodes", "64", "--nodes", "16"], "--nodes"),
    ("impedance", ["--sim-nodes", "33"], "--sim-nodes"),
    ("impedance", ["--nodes", "65"], "--nodes"),
    ("impedance", ["--model-error-factor", "nan"], "--model-error-factor"),
    ("impedance", ["--curve", "curve.json", "--model-error-factor", "0"],
     "--model-error-factor"),
    ("impedance", ["--mask-tol", "nan"], "--mask-tol"),
]


@pytest.mark.parametrize("stage, values, flag", FLAG_ONLY_BAD_VALUES,
                         ids=[f"{stage} {' '.join(values)}"
                              for stage, values, _ in FLAG_ONLY_BAD_VALUES])
def test_flag_only_value_fails_before_any_input_is_read(tmp_path, capfd, monkeypatch,
                                                        stage, values, flag):
    for reader in ("read_dtn", "read_indicator", "read_curve", "_load_geometry"):
        monkeypatch.setattr(cli, reader, _no_read)
    out = tmp_path / "out"
    assert main([stage, *_STAGE_INPUTS[stage], *values, "--out", str(out)]) == 2
    err = capfd.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and flag in err[0], err
    assert not out.exists()


def test_fourier_forward_rounds_an_odd_sim_nodes_up_to_its_modes(inputs, tmp_path):
    # fourier:19 needs 40 nodes, more than --sim-nodes 33 asks for
    out = tmp_path / "dtn.json"
    assert main(["forward", "--geometry", str(inputs / "ellipse.json"), "--basis", "fourier:19",
                 "--sim-nodes", "33", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["sim_nodes"] == 40
