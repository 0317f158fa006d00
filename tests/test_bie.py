import numpy as np
import pytest
import scipy.linalg as la
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eitdisk.annulus import (AnnulusConfig, gap_coefficient,
                             inner_trace_coefficient)
from eitdisk import bie
from eitdisk.bie import (NystromMesh, double_layer, dtn_matrix,
                         modified_double_layer, normal_derivative,
                         single_layer, solve_forward)
from eitdisk.dtn import (gap_from_lambda0, healthy_collocation_matrix,
                         to_real_trig_basis)
from eitdisk.exceptions import CoincidentPoints, DegenerateTangent, SingularSystem
from eitdisk.geometry import BoundaryCurve
from eitdisk.regularization import perturb_vector


def unit_mesh(n=64):
    return NystromMesh(BoundaryCurve.circle(radius=1.0), n)


def inner_circle(n, rho):
    return NystromMesh(BoundaryCurve.circle(radius=rho), n)


class TestMesh:
    def test_cusp_at_a_node_raises_degenerate_tangent(self):
        # x = 0.2 e^{it} - 0.1 e^{2it} has x'(0) = 0, and theta = 0 is a node
        cusp = BoundaryCurve.trig([[0.2, -0.1], [0.0, 0.0]], [[0.0, 0.0], [0.2, -0.1]])
        with pytest.raises(DegenerateTangent):
            NystromMesh(cusp, 8)


class TestCoincidentPoints:
    def test_single_layer_at_a_source_node(self):
        mesh = inner_circle(32, 0.5)
        with pytest.raises(CoincidentPoints):
            single_layer(mesh, mesh.points[:1])

    def test_monopole_at_the_origin(self):
        with pytest.raises(CoincidentPoints):
            modified_double_layer(inner_circle(32, 0.5), [[0.0, 0.0]])


def entrywise_spectral_diff_matrix(n):
    """``0.5 (-1)^(i-j) cot((i-j) pi / n)`` off the diagonal, zero on it."""
    d = np.zeros((n, n))
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    off = i != j
    d[off] = 0.5 * (-1.0) ** (i[off] - j[off]) / np.tan((i[off] - j[off]) * np.pi / n)
    return d


class TestSpectralDiffMatrix:
    @pytest.mark.parametrize("n", [1, 2, 3, 16, 31, 64, 100, 256, 512])
    def test_bits_equal_the_entrywise_formula(self, n):
        got = bie.spectral_diff_matrix(n)
        want = entrywise_spectral_diff_matrix(n)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("n", [4, 16, 64, 256])
    def test_differentiates_resolved_sines(self, n):
        theta = 2 * np.pi * np.arange(n) / n
        d = bie.spectral_diff_matrix(n)
        for k in range(1, n // 2):
            err = np.max(np.abs(d @ np.sin(k * theta) - k * np.cos(k * theta)))
            assert err < 1e-14 * n * k, k


class TestKressLogWeights:
    @pytest.mark.parametrize("n", [16, 64, 512])
    def test_eigenvalues_are_minus_two_pi_over_mode(self, n):
        w = bie.kress_log_weights(n)
        t = 2 * np.pi * np.arange(n) / n
        assert np.max(np.abs(w @ np.ones(n))) < 1e-12
        for m in range(1, n // 2):
            for f in (np.cos(m * t), np.sin(m * t)):
                assert np.max(np.abs(w @ f + (2 * np.pi / m) * f)) < 1e-12, m


class TestDoubleLayer:
    def test_gauss_identity_inside(self):
        mesh = unit_mesh()
        val = double_layer(mesh, np.array([[0.3, 0.1]])) @ np.ones(64)
        assert abs(val[0] + 2.0) < 1e-12

    def test_gauss_identity_outside(self):
        mesh = inner_circle(64, 0.5)
        val = double_layer(mesh, np.array([[10.0, 0.0]])) @ np.ones(64)
        assert abs(val[0]) < 1e-12

    def test_gauss_identity_on_curve(self):
        # the cardioid parametrization has a nearby complex pole, so its
        # trapezoidal quadrature needs more nodes for the same accuracy
        cases = [(BoundaryCurve.circle(radius=1.0), 64),
                 (BoundaryCurve.ellipse(0.5, 0.3), 64),
                 (BoundaryCurve.cardioid(), 256)]
        for curve, n in cases:
            mesh = NystromMesh(curve, n)
            row_sums = double_layer(mesh, mesh) @ np.ones(n)
            assert np.max(np.abs(row_sums + 1.0)) < 1e-10

    def test_entries_match_kernel(self):
        src = inner_circle(32, 0.5)
        tgt = unit_mesh(16)
        mat = double_layer(src, tgt)
        rng = np.random.Generator(np.random.Philox(2))
        for _ in range(5):
            i = int(rng.integers(16))
            j = int(rng.integers(32))
            d = tgt.points[i] - src.points[j]
            ker = (d @ src.normals[j]) / (d @ d) / (2 * np.pi)
            want = 2.0 * ker * src.jacobians[j] * src.weight
            assert abs(mat[i, j] - want) < 1e-14


class TestModifiedDoubleLayer:
    def test_zero_mean_density_equals_plain(self):
        mesh = inner_circle(64, 0.5)
        t = mesh.theta
        psi = np.cos(3 * t)
        pts = np.array([[0.7, 0.2]])
        plain = double_layer(mesh, pts) @ psi
        mod = modified_double_layer(mesh, pts) @ psi
        assert abs(mod[0] - plain[0]) < 1e-12

    def test_monopole_vanishes_on_unit_circle(self):
        src = inner_circle(32, 0.4)
        tgt = unit_mesh(32)
        plain = double_layer(src, tgt)
        mono = modified_double_layer(src, tgt)
        assert np.max(np.abs(plain - mono)) < 1e-14

    def test_requires_origin_inside(self):
        mesh = NystromMesh(BoundaryCurve.circle(center=(2.0, 0.0), radius=0.3), 32)
        with pytest.raises(ValueError):
            modified_double_layer(mesh, np.array([[0.0, 0.0]]))


class TestSingleLayer:
    def test_constant_density_at_center_unit(self):
        mesh = unit_mesh()
        val = single_layer(mesh, np.array([[0.0, 0.0]])) @ np.ones(64)
        assert abs(val[0]) < 1e-13

    def test_constant_density_at_center_half(self):
        mesh = inner_circle(64, 0.5)
        val = single_layer(mesh, np.array([[0.0, 0.0]])) @ np.ones(64)
        assert abs(val[0] - (-0.5 * np.log(0.5))) < 1e-13
        assert abs(-0.5 * np.log(0.5) - 0.34657359027997264) < 1e-15

    def test_self_interaction_circle_symbol(self):
        # S[cos(k s)] = (rho / 2k) cos(k t) on a circle of radius rho
        mesh = inner_circle(64, 0.5)
        t = mesh.theta
        s = single_layer(mesh, mesh)
        for k in range(1, 5):
            got = s @ np.cos(k * t)
            want = 0.5 / (2 * k) * np.cos(k * t)
            assert np.max(np.abs(got - want)) < 1e-8

    def test_entries_match_kernel(self):
        src = NystromMesh(BoundaryCurve.ellipse(0.5, 0.3), 32)
        tgt = unit_mesh(16)
        mat = single_layer(src, tgt)
        rng = np.random.Generator(np.random.Philox(5))
        for _ in range(5):
            i = int(rng.integers(16))
            j = int(rng.integers(32))
            d = tgt.points[i] - src.points[j]
            want = -np.log(d @ d) / (4 * np.pi) * src.jacobians[j] * src.weight
            assert abs(mat[i, j] - want) < 1e-14


class TestNormalDerivative:
    def test_double_layer_constant_from_inner_source(self):
        # the double layer of a constant is constant off the curve, so its
        # gradient on the other boundary vanishes
        src = inner_circle(64, 0.5)
        tgt = unit_mesh(64)
        val = normal_derivative(src, tgt, of="double_layer") @ np.ones(64)
        assert np.max(np.abs(val)) < 1e-12

    def test_single_layer_entries(self):
        src = inner_circle(32, 0.5)
        tgt = unit_mesh(16)
        mat = normal_derivative(src, tgt, of="single_layer")
        rng = np.random.Generator(np.random.Philox(4))
        for _ in range(5):
            i = int(rng.integers(16))
            j = int(rng.integers(32))
            d = tgt.points[i] - src.points[j]
            ker = -(d @ tgt.normals[i]) / (d @ d) / (2 * np.pi)
            want = ker * src.jacobians[j] * src.weight
            assert abs(mat[i, j] - want) < 1e-14

    def test_same_curve_single_layer_entries(self):
        # off the diagonal the kernel itself, on it the limit -curvature/(4 pi)
        mesh = NystromMesh(BoundaryCurve.ellipse(0.5, 0.3), 32)
        mat = normal_derivative(mesh, mesh, of="single_layer")
        w = mesh.jacobians * mesh.weight
        rng = np.random.Generator(np.random.Philox(6))
        for _ in range(5):
            i, j = (int(k) for k in rng.choice(32, size=2, replace=False))
            d = mesh.points[i] - mesh.points[j]
            want = -(d @ mesh.normals[i]) / (d @ d) / (2 * np.pi) * w[j]
            assert abs(mat[i, j] - want) < 1e-14
        assert np.max(np.abs(np.diag(mat) + mesh.curvature / (4 * np.pi) * w)) < 1e-15

    def test_separated_hypersingular_entries(self):
        src = NystromMesh(BoundaryCurve.ellipse(0.5, 0.3), 32)
        tgt = unit_mesh(16)
        mat = normal_derivative(src, tgt, of="double_layer")
        rng = np.random.Generator(np.random.Philox(7))
        for _ in range(5):
            i = int(rng.integers(16))
            j = int(rng.integers(32))
            d = tgt.points[i] - src.points[j]
            nx, ny = tgt.normals[i], src.normals[j]
            ker = (nx @ ny / (d @ d) - 2 * (d @ nx) * (d @ ny) / (d @ d) ** 2) / (2 * np.pi)
            want = 2.0 * ker * src.jacobians[j] * src.weight
            assert abs(mat[i, j] - want) < 1e-14

    @pytest.mark.parametrize("of", ["single_layer", "double_layer", "modified_double_layer"])
    def test_point_targets_rejected(self, of):
        with pytest.raises(TypeError, match="target mesh"):
            normal_derivative(unit_mesh(16), np.array([[0.1, 0.2]]), of=of)

    @pytest.mark.parametrize("pair", ["circle", "ellipse", "separated"])
    def test_unknown_layer_kind_rejected(self, pair):
        ellipse = NystromMesh(BoundaryCurve.ellipse(0.5, 0.3), 16)
        source, target = {"circle": (unit_mesh(16),) * 2, "ellipse": (ellipse, ellipse),
                          "separated": (ellipse, unit_mesh(16))}[pair]
        with pytest.raises(ValueError, match="unknown layer kind 'triple_layer'"):
            normal_derivative(source, target, of="triple_layer")

    def test_hypersingular_circle_symbol(self):
        # factor-2 normal derivative of the double layer on the unit circle
        # multiplies cos(k t) by -k
        mesh = unit_mesh(64)
        t = mesh.theta
        mat = normal_derivative(mesh, mesh, of="double_layer")
        for k in range(1, 5):
            got = mat @ np.cos(k * t)
            assert np.max(np.abs(got + k * np.cos(k * t))) < 1e-6

    def test_hypersingular_annihilates_constants(self):
        mesh = NystromMesh(BoundaryCurve.ellipse(0.5, 0.3), 64)
        mat = normal_derivative(mesh, mesh, of="double_layer")
        assert np.max(np.abs(mat @ np.ones(64))) < 1e-10

    def test_monopole_flux_on_unit_circle(self):
        # d/dnu log|x| = 1 on the unit circle: the monopole term adds
        # 2 * (integral of psi) to every flux value there
        src = inner_circle(32, 0.5)
        tgt = unit_mesh(32)
        plain = normal_derivative(src, tgt, of="double_layer")
        mono = normal_derivative(src, tgt, of="modified_double_layer")
        psi = np.ones(32)
        diff = (mono - plain) @ psi
        want = 2.0 * np.sum(src.arc_weights())
        assert np.max(np.abs(diff - want)) < 1e-12


CIRCLES = [BoundaryCurve.circle(radius=1.0), BoundaryCurve.circle((0.2, -0.1), 0.5)]


class TestClosedFormCircleBlocks:
    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("curve", CIRCLES, ids=["unit", "offset"])
    def test_double_layer_is_minus_ones_over_n(self, curve, n):
        mesh = NystromMesh(curve, n)
        assert np.abs(double_layer(mesh, mesh) + np.ones((n, n)) / n).max() < 1e-13

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("curve", CIRCLES, ids=["unit", "offset"])
    def test_maue_block_is_minus_healthy_over_radius(self, curve, n):
        mesh = NystromMesh(curve, n)
        want = -healthy_collocation_matrix(n) / curve.cos_coef[0, 0]
        maue = 2.0 * bie._hypersingular_maue(mesh)
        assert np.abs(maue - want).max() < 1e-13 + 1e-10 * np.abs(want).max()
        assert np.array_equal(normal_derivative(mesh, mesh), want)

    def test_non_circular_outer_boundary_rejected(self):
        inner = inner_circle(32, 0.3)
        for curve in (BoundaryCurve.ellipse(1.0, 0.9), BoundaryCurve.circle(radius=0.9),
                      BoundaryCurve.circle((0.05, 0.0), 1.0)):
            outer = NystromMesh(curve, 32)
            with pytest.raises(ValueError, match="unit measurement circle"):
                solve_forward(outer, inner, "dirichlet", np.ones(32))


class TestSchurForward:
    """The eliminated solve against the full block the test assembles itself."""

    @pytest.mark.parametrize("bc", ["dirichlet", "impedance"])
    @pytest.mark.parametrize("curve", [BoundaryCurve.ellipse(0.5, 0.3), BoundaryCurve.cardioid()],
                             ids=["ellipse", "cardioid"])
    def test_densities_match_dense_block_solve(self, curve, bc):
        outer, inner = unit_mesh(64), NystromMesh(curve, 48)
        f = np.cos(np.outer(outer.theta, np.arange(5))) + 0.3
        sim = single_layer(inner, outer)
        if bc == "dirichlet":
            gamma = None
            a21, a22 = double_layer(outer, inner), single_layer(inner, inner)
        else:
            gamma = 2.0 - np.sin(inner.theta) ** 4
            a21 = (-normal_derivative(outer, inner)
                   + gamma[:, None] * double_layer(outer, inner))
            a22 = (-normal_derivative(inner, inner, of="single_layer") + 0.5 * np.eye(48)
                   + gamma[:, None] * single_layer(inner, inner))
        block = np.block([[double_layer(outer, outer) - np.eye(64), sim], [a21, a22]])
        want = la.solve(block, np.vstack([f, np.zeros((48, 5))]))
        sol = solve_forward(outer, inner, bc, f, gamma)
        got = np.vstack([sol.phi, sol.psi])
        assert np.abs(got - want).max() < 1e-10 * np.abs(want).max()


class TestForwardSolver:
    def test_dirichlet_first_mode(self):
        outer, inner = unit_mesh(), inner_circle(64, 0.5)
        f = np.cos(outer.theta)
        flux = solve_forward(outer, inner, "dirichlet", f).outer_flux()
        want = (5.0 / 3.0) * f
        assert np.max(np.abs(flux - want)) < 1e-8

    def test_dirichlet_constant(self):
        outer, inner = unit_mesh(), inner_circle(64, 0.5)
        flux = solve_forward(outer, inner, "dirichlet", np.ones(64)).outer_flux()
        assert np.max(np.abs(flux - 1.0 / np.log(2.0))) < 1e-10
        assert abs(1.0 / np.log(2.0) - 1.4426950408889634) < 1e-15

    def test_impedance_invisible_mode(self):
        outer, inner = unit_mesh(), inner_circle(64, 0.5)
        f = np.cos(outer.theta)
        sol = solve_forward(outer, inner, "impedance", f, np.full(64, 2.0))
        assert np.max(np.abs(sol.outer_flux() - f)) < 1e-8

    def test_oracle_equivalence_grid(self):
        # concentric circles, both conditions, k <= 8: relative node error
        # against the series below 1e-6 at 64 nodes
        outer = unit_mesh(64)
        for rho in (0.25, 0.5):
            inner = inner_circle(64, rho)
            for bc, gamma in (("dirichlet", None), ("impedance", 0.5),
                              ("impedance", 2.0)):
                cfg = AnnulusConfig(rho, bc, gamma)
                gv = None if gamma is None else np.full(64, gamma)
                for k in range(1, 9):
                    for f in (np.cos(k * outer.theta), np.sin(k * outer.theta)):
                        flux = solve_forward(outer, inner, bc, f, gv).outer_flux()
                        want = (k - gap_coefficient(cfg, k)) * f
                        err = (np.linalg.norm(flux - want)
                               / np.linalg.norm(want))
                        assert err < 1e-6, (rho, bc, gamma, k)

    def test_interior_potential_against_series(self):
        outer, inner = unit_mesh(), inner_circle(64, 0.5)
        k, gamma = 3, 2.0
        sol = solve_forward(outer, inner, "impedance", np.cos(k * outer.theta),
                            np.full(64, gamma))
        pts = np.array([[0.7, 0.1], [0.0, 0.8], [-0.6, -0.2]])
        r = np.hypot(pts[:, 0], pts[:, 1])
        t = np.arctan2(pts[:, 1], pts[:, 0])
        s = (k - 0.5 * gamma) / (k + 0.5 * gamma)
        want = ((r**k + s * 0.5 ** (2 * k) * r ** (-k)) / (1 + s * 0.5 ** (2 * k))
                * np.cos(k * t))
        assert np.max(np.abs(sol.potential(pts) - want)) < 1e-9

    def test_inner_trace_against_series(self):
        outer, inner = unit_mesh(), inner_circle(64, 0.5)
        cfg = AnnulusConfig(0.5, "impedance", 2.0)
        k = 2
        sol = solve_forward(outer, inner, "impedance", np.cos(k * outer.theta),
                            np.full(64, 2.0))
        want = inner_trace_coefficient(cfg, k) * np.cos(k * inner.theta)
        assert np.max(np.abs(sol.inner_trace() - want)) < 1e-9

    def test_inner_flux_satisfies_robin(self):
        outer = unit_mesh()
        inner = NystromMesh(BoundaryCurve.ellipse(0.5, 0.3), 64)
        gamma = 2.0 - np.sin(inner.theta) ** 4
        sol = solve_forward(outer, inner, "impedance", np.cos(2 * outer.theta),
                            gamma)
        residual = sol.inner_flux() + gamma * sol.inner_trace()
        assert np.max(np.abs(residual)) < 1e-8

    def test_exponential_convergence(self):
        cfg = AnnulusConfig(0.5, "dirichlet")
        want_coef = 2.0 - gap_coefficient(cfg, 2)
        errors = []
        for n in (16, 32, 64):
            outer = unit_mesh(n)
            inner = inner_circle(n, 0.5)
            f = np.cos(2 * outer.theta)
            flux = solve_forward(outer, inner, "dirichlet", f).outer_flux()
            errors.append(np.max(np.abs(flux - want_coef * f)))
        assert errors[0] / max(errors[1], 1e-16) > 1e2
        assert errors[1] / max(errors[2], 1e-16) > 1e2


    def test_voltage_columns_match_single_solves(self):
        outer = unit_mesh()
        inner = NystromMesh(BoundaryCurve.ellipse(0.5, 0.3), 48)
        gamma = 2.0 - np.sin(inner.theta) ** 4
        f = np.column_stack([np.cos(k * outer.theta) for k in range(1, 6)]
                            + [np.sin(k * outer.theta) for k in range(1, 6)])
        sol = solve_forward(outer, inner, "impedance", f, gamma)
        assert sol.phi.shape == (64, 10) and sol.psi.shape == (48, 10)
        flux, trace = sol.outer_flux(), sol.inner_trace()
        for j in range(f.shape[1]):
            one = solve_forward(outer, inner, "impedance", f[:, j], gamma)
            assert np.max(np.abs(flux[:, j] - one.outer_flux())) < 1e-12
            assert np.max(np.abs(trace[:, j] - one.inner_trace())) < 1e-12

    def test_voltage_shape_rejected(self):
        outer, inner = unit_mesh(), inner_circle(32, 0.5)
        with pytest.raises(ValueError, match="voltage"):
            solve_forward(outer, inner, "dirichlet", np.ones((32, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_non_finite_gamma_rejected(self, bad):
        outer, inner = unit_mesh(), inner_circle(32, 0.5)
        gamma = np.full(32, 2.0)
        gamma[5] = bad
        with pytest.raises(ValueError, match="gamma"):
            solve_forward(outer, inner, "impedance", np.cos(outer.theta), gamma)

    @pytest.mark.parametrize("curve", [BoundaryCurve.circle(radius=1.0),
                                       BoundaryCurve.ellipse(1.2, 0.3)])
    def test_inclusion_reaching_unit_circle_rejected(self, curve):
        outer, inner = unit_mesh(), NystromMesh(curve, 32)
        with pytest.raises(ValueError, match="inside the unit measurement circle"):
            solve_forward(outer, inner, "dirichlet", np.cos(outer.theta))


class TestFactorization:
    @staticmethod
    def readme_schur():
        # the forward Schur complement of the README example: 64 outer, 32
        # inner nodes, so the factorized block is inclusion-sized
        _, _, schur = bie._forward_blocks(unit_mesh(64), inner_circle(32, 0.5),
                                          "dirichlet", None)
        return schur

    def test_condition_estimate_brackets_two_norm_condition(self):
        a = self.readme_schur()
        assert a.shape == (32, 32)
        _, estimate = bie._factorize(a, "forward", bie._COND_LIMIT)
        k2 = np.linalg.cond(a)
        n = a.shape[0]
        assert k2 / n <= estimate <= n * k2

    @pytest.mark.parametrize("damage", ["repeat_row", "nan_entry"])
    def test_singular_block_raises_with_condition(self, monkeypatch, damage):
        real = bie._forward_blocks

        def damaged(*args):
            sim, a21, schur = real(*args)
            if damage == "repeat_row":
                schur[3] = schur[7]
            else:
                schur[3, 7] = np.nan
            return sim, a21, schur

        monkeypatch.setattr(bie, "_forward_blocks", damaged)
        outer = unit_mesh(64)
        with pytest.raises(SingularSystem) as info:
            solve_forward(outer, inner_circle(32, 0.5), "dirichlet", np.cos(outer.theta))
        assert not info.value.condition <= bie._COND_LIMIT

    def test_fourier_basis_factorizes_once(self, lu_factor_calls):
        outer, inner = unit_mesh(64), inner_circle(32, 0.5)
        dtn_matrix(outer, inner, "dirichlet", basis="fourier", modes=np.arange(-10, 11))
        assert lu_factor_calls == [(32, 32)]


class TestDtnMatrix:
    def test_fourier_diagonal_against_series(self):
        outer, inner = unit_mesh(64), inner_circle(32, 0.5)
        cfg = AnnulusConfig(0.5, "dirichlet")
        lam = dtn_matrix(outer, inner, "dirichlet", basis="fourier",
                         modes=np.arange(-10, 11))
        gap = gap_from_lambda0(lam)
        for i, m in enumerate(gap.modes):
            assert abs(gap.matrix[i, i] - gap_coefficient(cfg, m)) < 1e-7
            off = np.abs(np.delete(gap.matrix[:, i], i)).max()
            assert off < 1e-7

    def test_collocation_matches_fourier_spectrally(self):
        outer, inner = unit_mesh(64), inner_circle(32, 0.5)
        lam_c = dtn_matrix(outer, inner, "dirichlet", basis="collocation")
        gap_c = gap_from_lambda0(lam_c)
        cfg = AnnulusConfig(0.5, "dirichlet", order=31)
        want = sorted([abs(gap_coefficient(cfg, 0))]
                      + [abs(gap_coefficient(cfg, m)) for m in range(1, 32)
                         for _ in (0, 1)], reverse=True)
        got = np.linalg.svd(gap_c.matrix, compute_uv=False)
        assert np.max(np.abs(got[:20] - np.array(want)[:20])) < 1e-6

    def test_ellipse_gap_sees_constant(self):
        outer = unit_mesh(64)
        inner = NystromMesh(BoundaryCurve.ellipse(0.5, 0.3), 32)
        lam = dtn_matrix(outer, inner, "dirichlet", basis="collocation")
        gap = gap_from_lambda0(lam)
        assert np.linalg.norm(gap.matrix @ np.ones(64)) > 1e-2

    def test_fourier_needs_a_mode_list(self):
        with pytest.raises(ValueError, match="mode list"):
            dtn_matrix(unit_mesh(64), inner_circle(32, 0.5), "dirichlet", basis="fourier")

    def test_under_resolved_fourier_raises(self):
        outer, inner = unit_mesh(32), inner_circle(32, 0.5)
        with pytest.raises(ValueError):
            dtn_matrix(outer, inner, "dirichlet", basis="fourier",
                       modes=np.arange(0, 20))

    # scale None is a Dirichlet inclusion, otherwise gamma = scale (2 - sin^4);
    # the truncated gap is symmetric once the response above the top mode
    # has decayed, which 19 modes reach on these ellipses
    @settings(max_examples=15, deadline=None)
    @given(a=st.floats(0.2, 0.5), b=st.floats(0.2, 0.5),
           scale=st.none() | st.floats(0.5, 4.0), order=st.integers(19, 31))
    @example(a=0.5, b=0.3, scale=1.0, order=19)
    def test_gap_symmetry_real_trig_basis(self, a, b, scale, order):
        outer = unit_mesh(64)
        inner = NystromMesh(BoundaryCurve.ellipse(a, b), 64)
        if scale is None:
            bc, gamma = "dirichlet", None
        else:
            bc, gamma = "impedance", scale * (2.0 - np.sin(inner.theta) ** 4)
        lam = dtn_matrix(outer, inner, bc, gamma, basis="fourier",
                         modes=np.arange(-order, order + 1))
        gap = gap_from_lambda0(lam)
        real, imag = to_real_trig_basis(gap)
        asym = np.linalg.norm(real - real.T, 2) / np.linalg.norm(real, 2)
        assert asym < 1e-6
        assert np.max(np.abs(imag)) < 1e-6 * np.linalg.norm(real, 2)

    def test_singular_value_geometric_decay(self):
        outer, inner = unit_mesh(64), inner_circle(32, 0.5)
        lam = dtn_matrix(outer, inner, "dirichlet", basis="collocation")
        gap = gap_from_lambda0(lam)
        s = np.linalg.svd(gap.matrix, compute_uv=False)
        s = s[s > s[0] * 1e-10]
        rho2 = 0.25
        for k in range(1, len(s) - 2):
            ratio = s[k + 2] / s[k]
            assert rho2 / 3 < ratio < rho2 * 3

    @pytest.mark.parametrize("modes", [np.arange(-5, 6), np.arange(0, 8)],
                             ids=["symmetric", "one-sided"])
    def test_fourier_flux_noise_matches_the_per_mode_reference(self, modes):
        # mode j's cos and sin currents take the noise draws (seed, 2j) and
        # (seed, 2j + 1), are resampled at len(modes) nodes and transformed
        outer = unit_mesh(64)
        inner = NystromMesh(BoundaryCurve.ellipse(0.5, 0.3), 32)
        delta, seed = 0.04, 11
        n_eval = len(modes)
        theta_eval = 2 * np.pi * np.arange(n_eval) / n_eval
        dft = np.exp(-1j * np.outer(modes, theta_eval)) / n_eval
        want = np.zeros((n_eval, n_eval), dtype=complex)
        for j, m in enumerate(modes):
            drive = np.column_stack([np.cos(abs(m) * outer.theta), np.sin(abs(m) * outer.theta)])
            flux = solve_forward(outer, inner, "dirichlet", drive).outer_flux()
            re = perturb_vector(flux[:, 0], delta, (seed, 2 * j))
            im = perturb_vector(np.sign(m) * flux[:, 1], delta, (seed, 2 * j + 1))
            want[:, j] = dft @ (bie.trig_resample(re, theta_eval)
                                + 1j * bie.trig_resample(im, theta_eval))
        got = dtn_matrix(outer, inner, "dirichlet", basis="fourier", modes=modes,
                         flux_noise=(delta, seed)).matrix
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_flux_noise_determinism(self):
        outer, inner = unit_mesh(64), inner_circle(32, 0.5)
        a = dtn_matrix(outer, inner, "dirichlet", basis="fourier",
                       modes=np.arange(-5, 6), flux_noise=(0.04, 7))
        b = dtn_matrix(outer, inner, "dirichlet", basis="fourier",
                       modes=np.arange(-5, 6), flux_noise=(0.04, 7))
        assert np.array_equal(a.matrix, b.matrix)

    @settings(max_examples=10, deadline=None)
    @given(offset=st.floats(0.05, 0.4), angle=st.floats(0.0, 2 * np.pi),
           radius=st.floats(0.1, 0.35), k=st.integers(1, 31),
           bc=st.sampled_from(["dirichlet", "impedance"]))
    def test_rotating_the_inclusion_rolls_the_collocation_map(self, offset, angle,
                                                              radius, k, bc):
        # a rotation by 2 pi k / n maps the nodes of both circles onto
        # themselves, shifted by k, so the node-value map is rolled by k
        n = 32
        outer = unit_mesh(n)

        def lam(phi):
            center = (offset * np.cos(phi), offset * np.sin(phi))
            inner = NystromMesh(BoundaryCurve.circle(center, radius), n)
            gamma = np.full(n, 2.0) if bc == "impedance" else None
            return dtn_matrix(outer, inner, bc, gamma).matrix

        base = lam(angle)
        rotated = lam(angle + 2 * np.pi * k / n)
        rolled = np.roll(base, (k, k), axis=(0, 1))
        assert np.max(np.abs(rotated - rolled)) <= 1e-12 * np.max(np.abs(base))
