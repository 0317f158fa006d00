"""Contract tests for file formats and cross-representation identities."""

import copy
import csv
import io
import json
import re

import numpy as np
import pytest

from eitdisk.annulus import AnnulusConfig, inner_flux_coefficient
from eitdisk.bie import NystromMesh, dtn_matrix, solve_forward, trig_resample
from eitdisk.cli import main
from eitdisk.completion import (assemble_completion, recover_gamma_lsq,
                                recover_gamma_pointwise)
from eitdisk.dtn import DtnOperator, gap_from_lambda0
from eitdisk.exceptions import RankDeficientWarning, ResidualTooLarge
from eitdisk.geometry import BoundaryCurve, fourier_analyze
from eitdisk.io import config_hash, read_dtn, read_indicator, write_dtn, write_indicator
from eitdisk.regularization import RegStrategy, SvdFactorization
from eitdisk.sampling import GridSpec, IndicatorGrid, poisson_kernel, scan


class TestGeometryRoundTrip:
    def test_all_kinds(self):
        curves = [BoundaryCurve.circle((0.1, -0.2), 0.4),
                  BoundaryCurve.ellipse(0.5, 0.3),
                  BoundaryCurve.cardioid(),
                  BoundaryCurve.trig([[0.4, 0.01], [0.0, 0.0]],
                                     [[0.0, 0.02], [0.35, 0.0]])]
        t = np.linspace(0, 2 * np.pi, 17)
        for c in curves:
            back = BoundaryCurve.from_dict(json.loads(json.dumps(c.to_dict())))
            assert np.allclose(back.point(t), c.point(t))

    @pytest.mark.parametrize("curve, text, digest", [
        (BoundaryCurve.circle((0.1, -0.2), 0.4),
         '{"kind": "circle", "center": [0.1, -0.2], "radius": 0.4}', "566f8e9f0ff0a2ed"),
        (BoundaryCurve.ellipse(0.5, 0.3), '{"kind": "ellipse", "a": 0.5, "b": 0.3}',
         "cbd17ce6e3cac1cf"),
        (BoundaryCurve.cardioid(), '{"kind": "cardioid"}', "233ed90535c1002f"),
        (BoundaryCurve.trig([[0.4, 0.01], [0.0, 0.0]], [[0.0, 0.02], [0.35, 0.0]]),
         '{"kind": "trig", "a": [[0.4, 0.01], [0.0, 0.0]], "b": [[0.0, 0.02], [0.35, 0.0]]}',
         "237c63a2c4249086"),
    ], ids=["circle", "ellipse", "cardioid", "trig"])
    def test_description_and_config_hash_of_each_kind_unchanged(self, curve, text, digest):
        # dtn.json embeds the description as written, key order included, and
        # every output header embeds the hash of a config that holds it
        assert json.dumps(curve.to_dict()) == text
        assert config_hash({"geometry": curve.to_dict()}) == digest

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown geometry kind"):
            BoundaryCurve.from_dict({"kind": "square"})

    @pytest.mark.parametrize("doc, match", [
        ({"kind": "circle", "radius": True}, "'radius'"),
        ({"kind": "circle", "radius": float("inf")}, "'radius'"),
        ({"kind": "circle", "center": [0, "x"], "radius": 0.5}, "'center'"),
        ({"kind": "trig", "a": {"x": 1}, "b": [[0.0], [0.4]]}, "hold numbers"),
        ({"kind": "trig", "a": [[float("nan")], [0.0]], "b": [[0.0], [0.4]]}, "finite"),
    ], ids=["bool-radius", "inf-radius", "text-center", "object-coefficients",
            "nan-coefficient"])
    def test_wrong_typed_value_rejected(self, doc, match):
        with pytest.raises(ValueError, match=match):
            BoundaryCurve.from_dict(doc)

    def test_self_intersecting_curve_rejected(self):
        # a figure-eight-like trig curve must fail validation
        curve = BoundaryCurve.trig([[0.0, 0.4], [0.0, 0.0]],
                                   [[0.0, 0.0], [0.4, 0.0]])
        with pytest.raises(ValueError):
            curve.validate(128)


class TestDtnFile:
    def test_complex_round_trip(self, tmp_path):
        outer = NystromMesh(BoundaryCurve.circle(radius=1.0), 64)
        inner = NystromMesh(BoundaryCurve.circle(radius=0.5), 32)
        lam = dtn_matrix(outer, inner, "dirichlet", basis="fourier",
                         modes=np.arange(-5, 6))
        path = tmp_path / "dtn.json"
        write_dtn(path, lam, {"dummy": 1}, {"kind": "circle", "n": 32},
                  {"kind": "dirichlet"})
        lam2 = read_dtn(path)
        assert lam2.basis == "fourier"
        assert np.array_equal(lam2.modes, lam.modes)
        # JSON floats round-trip exactly, so the gap derived from the file is
        # the gap of the simulated map, bit for bit
        assert np.array_equal(lam2.matrix, lam.matrix)
        assert np.array_equal(gap_from_lambda0(lam2).matrix, gap_from_lambda0(lam).matrix)

    @pytest.mark.parametrize("is_complex", [True, False])
    def test_signed_zeros_and_subnormals_keep_their_bits(self, tmp_path, is_complex):
        m = np.array([[-0.0, 5e-324], [1.0 / 3.0, -2.5e-310]])
        if is_complex:
            m = m + 1j * m[::-1]
            m.imag[0, 0] = -0.0
        path = tmp_path / "dtn.json"
        write_dtn(path, DtnOperator("collocation", m), {}, {}, {})
        got = read_dtn(path).matrix
        assert got.dtype == m.dtype and got.tobytes() == m.tobytes()

    @pytest.mark.parametrize("entry", [[1.0, 0.0, 0.0], [1.0], ["1", "0"], [None, 0.0]])
    def test_entry_that_is_not_a_pair_of_numbers_is_rejected(self, tmp_path, entry):
        path = tmp_path / "dtn.json"
        write_dtn(path, DtnOperator("collocation", np.eye(2)), {}, {}, {})
        doc = json.loads(path.read_text())
        doc["lambda0"][1][0] = entry
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"\[re, im\] pair of numbers"):
            read_dtn(path)

    def test_hash_stability(self):
        a = config_hash({"b": 1, "a": [1, 2]})
        b = config_hash({"a": [1, 2], "b": 1})
        assert a == b and len(a) == 16


class TestIndicatorFile:
    def test_round_trip_preserves_values_and_mask(self, tmp_path):
        op = DtnOperator("fourier",
                         np.diag(np.linspace(1.0, 0.1, 11)).astype(complex),
                         np.arange(-5, 6))
        grid = scan(op, GridSpec.square(21), RegStrategy.tikhonov(1e-6))
        path = tmp_path / "w.csv"
        write_indicator(path, grid, {"demo": True})
        back = read_indicator(path)
        assert back.spec == grid.spec
        assert np.array_equal(np.isnan(back.values), np.isnan(grid.values))
        finite = ~np.isnan(grid.values)
        assert np.array_equal(back.values[finite], grid.values[finite])

    @staticmethod
    def csv_writer_rendering(grid, config):
        """The file as a row-by-row :mod:`csv` writer renders it."""
        spec = grid.spec
        buf = io.StringIO(newline="")
        buf.write(f"# config={config_hash(config)} nx={spec.nx} ny={spec.ny}"
                  f" xmin={spec.xmin!r} xmax={spec.xmax!r}"
                  f" ymin={spec.ymin!r} ymax={spec.ymax!r}\n")
        writer = csv.writer(buf)
        writer.writerow(["x", "y", "W"])
        for i in range(spec.ny):
            for j in range(spec.nx):
                if grid.mask[i, j]:
                    writer.writerow([f"{spec.xs[j]:.17g}", f"{spec.ys[i]:.17g}",
                                     f"{grid.values[i, j]:.17g}"])
        return buf.getvalue().encode()

    def test_bytes_match_csv_writer_rendering(self, tmp_path):
        spec = GridSpec(5, 4, -0.9, 0.7, -0.8, 0.6)
        rng = np.random.Generator(np.random.Philox(7))
        mask = rng.random((4, 5)) < 0.7
        # the reader takes no negative W; -0.0 still renders a sign
        values = np.abs(rng.normal(size=(4, 5))) * 10.0 ** rng.integers(-300, 300, size=(4, 5))
        values[0, :3] = [np.nan, -0.0, 0.1]
        mask[0, :3] = True
        mask[1] = False  # a fully masked grid row
        mask[2] = [False, False, False, True, False]  # a one-point grid row
        values[~mask] = np.nan
        grid = IndicatorGrid(spec, values, mask)
        path = tmp_path / "w.csv"
        write_indicator(path, grid, {"golden": 1})
        assert path.read_bytes() == self.csv_writer_rendering(grid, {"golden": 1})
        back = read_indicator(path)
        assert np.array_equal(back.values, values, equal_nan=True)
        assert np.array_equal(back.mask, mask)

    def test_grid_without_unmasked_points(self, tmp_path):
        spec = GridSpec(3, 2)
        grid = IndicatorGrid(spec, np.full((2, 3), np.nan), np.zeros((2, 3), bool))
        path = tmp_path / "w.csv"
        write_indicator(path, grid, {})
        assert path.read_bytes() == self.csv_writer_rendering(grid, {})
        back = read_indicator(path)
        assert back.spec == spec
        assert np.all(np.isnan(back.values)) and not back.mask.any()

    @pytest.mark.parametrize("row", ["-1.0,0,1.5", "1.0,0,1.5", "0,-1.2,1.5", "0,1.2,1.5"])
    def test_row_outside_grid_rejected(self, tmp_path, row):
        # a negative index would otherwise wrap to the far edge of the grid
        spec = GridSpec(3, 2, -0.5, 0.5, -0.5, 0.5)
        grid = IndicatorGrid(spec, np.ones((2, 3)), np.ones((2, 3), bool))
        path = tmp_path / "w.csv"
        write_indicator(path, grid, {})
        with open(path, "a", newline="") as fh:
            fh.write(row + "\r\n")
        with pytest.raises(ValueError, match="outside its grid"):
            read_indicator(path)

    @staticmethod
    def full_grid_file(tmp_path):
        """A 21 x 21 grid file of every point, and its lines."""
        spec = GridSpec.square(21)
        values = np.arange(21.0 * 21).reshape(21, 21)
        path = tmp_path / "w.csv"
        write_indicator(path, IndicatorGrid(spec, values, np.ones((21, 21), bool)), {})
        return path, path.read_bytes().split(b"\r\n")

    @pytest.mark.parametrize("column", [0, 1], ids=["x", "y"])
    def test_row_off_the_grid_coordinates_rejected(self, tmp_path, column):
        # a coordinate moved by a third of a cell would round onto the grid point
        path, lines = self.full_grid_file(tmp_path)
        row = lines[100].split(b",")
        row[column] = b"%.17g" % (float(row[column]) + 0.03)
        lines[100] = b",".join(row)
        path.write_bytes(b"\r\n".join(lines))
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*off its grid's coordinates"):
            read_indicator(path)

    def test_repeated_grid_point_rejected(self, tmp_path):
        # the repeat would replace the point's value and leave no point masked
        path, lines = self.full_grid_file(tmp_path)
        x, y, _ = lines[100].split(b",")
        lines[-1] = b",".join([x, y, b"123.0"]) + b"\r\n"
        path.write_bytes(b"\r\n".join(lines))
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*repeats a grid point"):
            read_indicator(path)


class TestModeSystemEquivalence:
    def test_onesided_coefficient_and_node_systems_share_spectrum(self):
        # the stored coefficient system and the equally spaced node-value
        # system differ by a scaled unitary factor, so relative-threshold
        # regularization treats them identically
        outer = NystromMesh(BoundaryCurve.circle(radius=1.0), 64)
        inner = NystromMesh(BoundaryCurve.ellipse(0.5, 0.3), 64)
        gamma = 2.0 - np.sin(inner.theta) ** 4
        lam = dtn_matrix(outer, inner, "impedance", gamma, basis="fourier",
                         modes=np.arange(0, 20))
        gap = gap_from_lambda0(lam)
        modes = gap.modes
        n = len(modes)
        theta = 2 * np.pi * np.arange(n) / n
        vandermonde = np.exp(1j * np.outer(theta, modes))
        node_system = vandermonde @ gap.matrix
        s_coef = np.linalg.svd(gap.matrix, compute_uv=False)
        s_node = np.linalg.svd(node_system, compute_uv=False)
        assert np.allclose(s_node, np.sqrt(n) * s_coef, rtol=1e-10)

    def test_solutions_agree_under_relative_cutoff(self):
        outer = NystromMesh(BoundaryCurve.circle(radius=1.0), 64)
        inner = NystromMesh(BoundaryCurve.circle(radius=0.4), 64)
        lam = dtn_matrix(outer, inner, "impedance", np.full(64, 1.3),
                         basis="fourier", modes=np.arange(0, 20))
        gap = gap_from_lambda0(lam)
        n = len(gap.modes)
        theta = 2 * np.pi * np.arange(n) / n
        vandermonde = np.exp(1j * np.outer(theta, gap.modes))
        z = (0.2, 0.1)
        b_nodes = poisson_kernel(z, theta)
        b_coef = np.linalg.solve(vandermonde, b_nodes)
        tau = 1e-4
        for mat, rhs in ((gap.matrix, b_coef), (vandermonde @ gap.matrix, b_nodes)):
            svd = SvdFactorization.from_matrix(mat)
            keep = svd.s >= tau * svd.s[0]
            sol = svd.vh[keep].conj().T @ ((svd.u[:, keep].conj().T @ rhs) / svd.s[keep])
            if mat is gap.matrix:
                first = sol
        assert np.allclose(first, sol, atol=1e-10)


class TestDirichletInnerFlux:
    def test_matches_series(self):
        outer = NystromMesh(BoundaryCurve.circle(radius=1.0), 64)
        inner = NystromMesh(BoundaryCurve.circle(radius=0.5), 64)
        cfg = AnnulusConfig(0.5, "dirichlet")
        k = 2
        sol = solve_forward(outer, inner, "dirichlet", np.cos(k * outer.theta))
        want = inner_flux_coefficient(cfg, k) * np.cos(k * inner.theta)
        assert np.max(np.abs(sol.inner_flux() - want)) < 1e-8
        assert np.max(np.abs(sol.inner_trace())) < 1e-9


class TestTrigResample:
    def test_band_limited_exact(self):
        n = 32
        t = 2 * np.pi * np.arange(n) / n
        vals = 1.0 + np.cos(3 * t) - 0.5 * np.sin(7 * t)
        # below 15 nodes the modes fold, yet the values at the new nodes stay exact
        for count in (13, 32, 50):
            new_t = 2 * np.pi * np.arange(count) / count
            got = trig_resample(vals, count)
            want = 1.0 + np.cos(3 * new_t) - 0.5 * np.sin(7 * new_t)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_columns_match_single_calls(self):
        vals = np.random.Generator(np.random.Philox(4)).normal(size=(24, 5))
        got = trig_resample(vals, 11)
        assert got.shape == (11, 5)
        for j in range(5):
            assert np.max(np.abs(got[:, j] - trig_resample(vals[:, j], 11))) < 1e-12


class TestDiagnosticPaths:
    def test_rank_deficient_lsq_warns(self):
        theta = 2 * np.pi * np.arange(8) / 8
        with pytest.warns(RankDeficientWarning):
            recover_gamma_lsq([np.zeros(8)], [np.zeros(8)], theta, degree=2)

    def test_residual_guard_trips_on_inconsistent_noise_claim(self):
        # data carries large perturbations but the declared level is tiny,
        # so the post-fit residual cannot be explained by the noise model
        from eitdisk.completion import assemble_completion, complete_cauchy
        outer = NystromMesh(BoundaryCurve.circle(radius=1.0), 64)
        inner = NystromMesh(BoundaryCurve.circle(radius=0.5), 64)
        system = assemble_completion(outer, inner)
        rng = np.random.Generator(np.random.Philox(5))
        f = np.cos(outer.theta)
        g = 2.0 * f + 0.5 * rng.normal(size=64)
        with pytest.raises(ResidualTooLarge):
            complete_cauchy(system, f, g, RegStrategy.cutoff_by_noise(1e-6, 2.0),
                            noise_level=1e-6)


class TestCliFittedCurvePath:
    def test_impedance_on_fitted_boundary(self, tmp_path):
        ell = tmp_path / "ellipse.json"
        ell.write_text(json.dumps({"kind": "ellipse", "a": 0.5, "b": 0.3}))
        curve = tmp_path / "curve.json"
        curve.write_text(json.dumps(
            {"config_hash": "0" * 16, "M": 2,
             "a": [[0.48, 0.0], [0.0, 0.0]],
             "b": [[0.0, 0.0], [0.48, 0.0]],
             "smoothing": 0.0}))
        out = tmp_path / "gamma.csv"
        rc = main(["impedance", "--geometry", str(ell),
                   "--gamma", "2 - sin(theta)**4", "--curve", str(curve),
                   "--pairs", "16", "--noise", "0.04", "--seed", "0",
                   "--reg", "cutoff:noise:2", "--mask-tol", "0.2",
                   "--sim-nodes", "64", "--out", str(out)])
        assert rc == 0
        rows = np.genfromtxt(out, delimiter=",", skip_header=2)
        used = rows[:, 3] > 0
        assert used.sum() > 32
        assert 0.5 < np.nanmean(rows[used, 1]) < 3.0


def _array_holders():
    """One instance of every frozen dataclass that holds an array."""
    outer = NystromMesh(BoundaryCurve.circle(radius=1.0), 16)
    inner = NystromMesh(BoundaryCurve.circle(radius=0.5), 16)
    theta = outer.theta
    return [outer.curve, outer,
            solve_forward(outer, inner, "dirichlet", np.cos(theta)),
            DtnOperator("collocation", np.eye(2)),
            SvdFactorization.from_matrix(np.eye(2)),
            fourier_analyze(np.cos(theta), 2),
            IndicatorGrid(GridSpec.square(3), np.zeros((3, 3)), np.ones((3, 3), bool)),
            assemble_completion(outer, inner),
            recover_gamma_pointwise(np.cos(theta), -2.0 * np.cos(theta), theta)]


class TestDataclassEquality:
    @pytest.mark.parametrize("obj", _array_holders(), ids=lambda obj: type(obj).__name__)
    def test_array_holders_compare_and_hash_by_identity(self, obj):
        twin = copy.copy(obj)
        assert obj == obj and obj != twin
        assert hash(obj) == hash(obj) and len({obj, twin}) == 2

    def test_scalar_holders_compare_by_value(self):
        assert GridSpec.square(5) == GridSpec.square(5) != GridSpec.square(7)
        assert hash(GridSpec.square(5)) == hash(GridSpec.square(5))
        assert RegStrategy.tikhonov(1e-3) == RegStrategy.tikhonov(1e-3)
        assert AnnulusConfig(0.5, "dirichlet") == AnnulusConfig(0.5, "dirichlet")
